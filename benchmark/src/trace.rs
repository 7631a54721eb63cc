//! In-memory span recorder for the traced (`--trace`) run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside `crates/` is instrumented. A
//! span's layer is the prefix of its name before the first `.`
//! (`sim.warmup` belongs to `sim`); names without a prefix (`setup`,
//! `pass`, `deep`, `probe`) are the benchmark's own structure. Spans stay
//! in memory and are written out once, when the run ends. Every span is
//! opened and closed on the main thread and children close before their
//! parent, so a span's self time — its duration minus its children's —
//! is never negative.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use emissary_obs::JsonObject;

/// Handle to an open span (inert when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`, or a bare name for the benchmark's own spans.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Work counted at this boundary (instructions, accesses, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall-clock nanoseconds the span covers.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The named count, or 0.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// The span recorder. Disabled, `open` and `close` do nothing.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Trace {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        SpanId(spans.len() - 1)
    }

    /// Closes `id`, attaching `counts`.
    pub fn close(&self, id: SpanId, counts: &[(&'static str, u64)]) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.borrow_mut().get_mut(id.0) {
            span.end_ns = end_ns;
            span.counts.extend_from_slice(counts);
        }
    }

    /// Every closed span named `name`, in opening order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Writes one JSON line per span — `name`, `id`, `parent`,
    /// `start_ns`, `end_ns`, `self_ns`, `counts` — to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(SpanId(parent)) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut out = String::new();
        for (id, span) in spans.iter().enumerate() {
            let mut counts = JsonObject::new();
            for &(key, value) in &span.counts {
                counts.field_u64(key, value);
            }
            let mut line = JsonObject::new();
            line.field_str("name", span.name).field_u64("id", id as u64);
            match span.parent {
                Some(SpanId(parent)) => line.field_u64("parent", parent as u64),
                None => line.field_raw("parent", "null"),
            };
            line.field_u64("start_ns", span.start_ns)
                .field_u64("end_ns", span.end_ns)
                .field_i64("self_ns", span.ns() as i64 - child_ns[id] as i64)
                .field_raw("counts", &counts.finish());
            out.push_str(&line.finish());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Trace::new(false);
        let id = t.open("sim.job", None);
        t.close(id, &[("instrs", 1)]);
        assert!(t.named("sim.job").is_empty());
    }

    #[test]
    fn spans_nest_and_carry_counts() {
        let t = Trace::new(true);
        let root = t.open("pass", None);
        let child = t.open("sim.job", Some(root));
        t.close(child, &[("instrs", 7)]);
        t.close(root, &[]);
        let jobs = t.named("sim.job");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].parent, Some(root));
        assert_eq!(jobs[0].count("instrs"), 7);
        assert_eq!(jobs[0].count("cycles"), 0);
        assert!(t.named("pass")[0].ns() >= jobs[0].ns());
    }
}
