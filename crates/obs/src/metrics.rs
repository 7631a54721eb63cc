//! The metrics subsystem: named, labelled `u64` counters recorded into
//! one [`MetricsRegistry`] under its one mutex, plus the log-2 histogram
//! the trace analyzer bins episode lengths with.
//!
//! The registry holds what no report carries: the harness's host time
//! (stage spans, worker busy and wall time, jobs per worker). Every
//! simulated quantity is a `SimReport` field instead, so the simulator
//! never names the registry and metrics cannot perturb a simulation.
//! Updates happen at job boundaries, so one uncontended lock per update
//! costs nothing measurable.
//!
//! A series is `(name, labels)` with owned strings, so a snapshot
//! written as `metric` JSONL records ([`Metric::to_json`]) reads back
//! into the same values ([`Metric::from_json`]).

use std::cmp::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::JsonObject;
use crate::parse::JsonValue;

/// Cells per [`Log2Hist`]: bucket 0 for zero, buckets 1..=64 for each
/// power-of-two range of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// The log-2 bucket index for a value: 0 for 0, else `floor(log2 v) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` (`0`, `1`, `3`, `7`, …,
/// `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A log-2-bucketed histogram of `u64` observations (`bucket i` holds
/// `2^(i-1) ≤ v < 2^i`, bucket 0 holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Log2Hist {
    /// Records one observation (a bounds-checked add, no allocation).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One counter series: family name, labels, and its current sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Family name (e.g. `emissary_stage_ns_total`).
    pub name: String,
    /// Identifying label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Current counter value.
    pub value: u64,
}

impl Metric {
    /// The value of label `key`, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the series as one `metric` record (no trailing
    /// newline): `{"record":"metric","name":…,"labels":{…},"value":N}`.
    pub fn to_json(&self) -> String {
        let mut labels = JsonObject::new();
        for (k, v) in &self.labels {
            labels.field_str(k, v);
        }
        let mut obj = JsonObject::new();
        obj.field_str("record", "metric")
            .field_str("name", &self.name)
            .field_raw("labels", &labels.finish())
            .field_u64("value", self.value);
        obj.finish()
    }

    /// Restores a series from a parsed [`Self::to_json`] record. Returns
    /// `None` for any other record or a field of the wrong shape.
    pub fn from_json(v: &JsonValue) -> Option<Metric> {
        if v.get("record")?.as_str()? != "metric" {
            return None;
        }
        let JsonValue::Obj(pairs) = v.get("labels")? else {
            return None;
        };
        let labels = pairs
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect::<Option<_>>()?;
        Some(Metric {
            name: v.get("name")?.as_str()?.to_string(),
            labels,
            value: v.get("value")?.as_u64()?,
        })
    }
}

/// Orders a stored series against a `(name, labels)` identity the way
/// [`MetricsRegistry::snapshot`] sorts: by name, then labels.
fn cmp_identity(m: &Metric, name: &str, labels: &[(&str, &str)]) -> Ordering {
    m.name.as_str().cmp(name).then_with(|| {
        m.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .cmp(labels.iter().copied())
    })
}

/// The one place metrics are recorded. Every update takes the one
/// mutex; the series stay sorted by `(name, labels)`, so lookups are a
/// binary search and a snapshot is a clone.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// An empty registry (const, so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            inner: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Metric>> {
        // A poisoned registry is still structurally valid (each update
        // is one step); metrics must never cascade a panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `v` to a counter series, registering it at 0 first.
    pub fn add_counter(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let mut all = self.lock();
        let i = match all.binary_search_by(|m| cmp_identity(m, name, labels)) {
            Ok(i) => i,
            Err(i) => {
                let labels = labels
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                let name = name.to_string();
                all.insert(
                    i,
                    Metric {
                        name,
                        labels,
                        value: 0,
                    },
                );
                i
            }
        };
        all[i].value += v;
    }

    /// Every series, sorted by name, then labels, so written snapshots
    /// are deterministic.
    pub fn snapshot(&self) -> Vec<Metric> {
        self.lock().clone()
    }
}

/// The process-global registry campaign workers record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value lands in the bucket whose bound brackets it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} above bound of bucket {i}");
            if i > 0 {
                assert!(v > bucket_bound(i - 1), "v={v} not above bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn histogram_observes_and_summarizes() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[10], 1);
        // The highest non-empty bucket's bound brackets the maximum.
        let top = h.buckets.iter().rposition(|&c| c > 0).unwrap();
        assert_eq!(bucket_bound(top), 1023);
        assert!((h.mean() - 1006.0 / 5.0).abs() < 1e-12);
    }

    /// Sum of every series in family `name`.
    fn family_sum(reg: &MetricsRegistry, name: &str) -> u64 {
        reg.snapshot()
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .sum()
    }

    #[test]
    fn cells_register_once_and_update_in_place() {
        let reg = MetricsRegistry::new();
        reg.add_counter("jobs_total", &[("worker", "0")], 2);
        reg.add_counter("jobs_total", &[("worker", "0")], 3);
        reg.add_counter("jobs_total", &[("worker", "1")], 1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value, 5);
        assert_eq!(snap[1].value, 1);
        assert_eq!(snap[1].label("worker"), Some("1"));
        assert_eq!(snap[1].label("stage"), None);
        assert_eq!(family_sum(&reg, "jobs_total"), 6);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.add_counter("z", &[], 1);
        reg.add_counter("a", &[("w", "1")], 1);
        reg.add_counter("a", &[("w", "0")], 1);
        let names: Vec<_> = reg
            .snapshot()
            .into_iter()
            .map(|m| (m.name, m.labels))
            .collect();
        let pair = |v: &str| vec![("w".to_string(), v.to_string())];
        assert_eq!(
            names,
            vec![
                ("a".to_string(), pair("0")),
                ("a".to_string(), pair("1")),
                ("z".to_string(), vec![]),
            ]
        );
    }

    #[test]
    fn concurrent_updates_are_never_lost() {
        const THREADS: u64 = 8;
        const K: u64 = 2_000;
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = &reg;
                s.spawn(move || {
                    let worker = (t % 2).to_string();
                    for _ in 0..K {
                        reg.add_counter("jobs", &[("worker", &worker)], 1);
                    }
                });
            }
        });
        assert_eq!(family_sum(&reg, "jobs"), THREADS * K);
    }
}
