//! A low-overhead metrics subsystem: counters, gauges, and
//! log-2-bucketed histograms with static names and label pairs.
//!
//! The design mirrors the tracer's passivity contract ("observability
//! must never perturb simulation") and adds a throughput contract on
//! top: **no atomics, no locks, and no allocation on the hot path**.
//! Each worker owns a [`LocalMetrics`] — a flat vector of plain `u64`
//! cells — and increments through pre-registered [`CellId`] handles
//! (one bounds check and an add). Cells are merged into the process
//! [`MetricsRegistry`] only when the worker drains, so the simulator's
//! cycle loop never sees a shared cache line, which preserves the
//! campaign throughput and the bit-identity regression tests.
//!
//! Histograms use log-2 buckets (`bucket i` holds `2^(i-1) ≤ v < 2^i`,
//! bucket 0 holds zero): one `leading_zeros` and an indexed add per
//! observation, 65 cells per histogram, no configuration. That is
//! exactly the resolution needed for cycle-length and span-duration
//! tails, the quantities the `emissary-inspect` analyzer reports.
//!
//! Metric identity is `(name, labels)`. Names and label *keys* are
//! `&'static str` by construction; label *values* are small strings
//! allocated once at registration (e.g. a worker index), never per
//! update.

use std::sync::{Arc, Mutex, PoisonError};

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

/// A log-2-bucketed histogram of `u64` observations.
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
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (a bounds-checked add, no allocation).
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Adds another histogram's contents into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive upper bound of the highest non-empty bucket (0 when
    /// empty) — a cheap stand-in for the maximum.
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_bound)
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone sum of `u64` increments.
    Counter(u64),
    /// Last-write-wins instantaneous value.
    Gauge(f64),
    /// Log-2-bucketed distribution. Boxed: entry tables are mostly
    /// counters, which should not pay the histogram's bucket array
    /// inline.
    Hist(Box<Log2Hist>),
}

impl MetricValue {
    /// Stable kind name used in exposition (`counter`/`gauge`/
    /// `histogram`).
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Hist(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
            (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
            // Kind collisions cannot happen through the typed
            // registration API (identity includes the kind); ignore
            // rather than corrupt.
            _ => {}
        }
    }
}

/// Label pairs identifying one series within a metric family. Keys are
/// static; values are owned strings allocated at registration time.
pub type LabelPairs = Vec<(&'static str, String)>;

/// One named series: family name, labels, and the current value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Family name (e.g. `emissary_stage_ns_total`).
    pub name: &'static str,
    /// Identifying label pairs, in registration order.
    pub labels: LabelPairs,
    /// Current value.
    pub value: MetricValue,
}

/// A handle to one pre-registered cell in a [`LocalMetrics`]; updating
/// through it is an indexed add with no lookup.
#[derive(Debug, Clone, Copy)]
pub struct CellId(usize);

/// A worker-owned, lock-free set of metric cells. See module docs.
#[derive(Debug, Default)]
pub struct LocalMetrics {
    entries: Vec<Metric>,
}

impl LocalMetrics {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        mk: fn() -> MetricValue,
    ) -> CellId {
        let kind = mk().kind();
        if let Some(i) = self.entries.iter().position(|m| {
            m.name == name
                && m.value.kind() == kind
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels.iter())
                    .all(|((k0, v0), (k1, v1))| k0 == k1 && v0 == v1)
        }) {
            return CellId(i);
        }
        self.entries.push(Metric {
            name,
            labels: labels.iter().map(|&(k, v)| (k, v.to_string())).collect(),
            value: mk(),
        });
        CellId(self.entries.len() - 1)
    }

    /// Registers (or finds) a counter cell.
    pub fn counter(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> CellId {
        self.register(name, labels, || MetricValue::Counter(0))
    }

    /// Registers (or finds) a gauge cell.
    pub fn gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> CellId {
        self.register(name, labels, || MetricValue::Gauge(0.0))
    }

    /// Registers (or finds) a histogram cell.
    pub fn histogram(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> CellId {
        self.register(name, labels, || {
            MetricValue::Hist(Box::new(Log2Hist::new()))
        })
    }

    /// Adds to a counter cell (plain `u64` add, no lock, no allocation).
    #[inline]
    pub fn add(&mut self, id: CellId, v: u64) {
        if let MetricValue::Counter(c) = &mut self.entries[id.0].value {
            *c += v;
        }
    }

    /// Sets a gauge cell.
    #[inline]
    pub fn set(&mut self, id: CellId, v: f64) {
        if let MetricValue::Gauge(g) = &mut self.entries[id.0].value {
            *g = v;
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: CellId, v: u64) {
        if let MetricValue::Hist(h) = &mut self.entries[id.0].value {
            h.observe(v);
        }
    }

    /// One-shot counter add (registration lookup included — fine off the
    /// hot path; pre-register a [`CellId`] inside loops).
    pub fn count(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        let id = self.counter(name, labels);
        self.add(id, v);
    }

    /// One-shot gauge set.
    pub fn set_gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        let id = self.gauge(name, labels);
        self.set(id, v);
    }

    /// One-shot histogram observation.
    pub fn record(&mut self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        let id = self.histogram(name, labels);
        self.observe(id, v);
    }

    /// The registered series, in registration order.
    pub fn entries(&self) -> &[Metric] {
        &self.entries
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes the series out, leaving this set empty (the drain half of
    /// merge-at-drain).
    pub fn take(&mut self) -> Vec<Metric> {
        std::mem::take(&mut self.entries)
    }
}

/// The process-wide merge target. Workers drain their [`LocalMetrics`]
/// here (one lock per drain, not per update); exposition snapshots it.
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Metric>> {
        // A poisoned registry is still structurally valid (worst case:
        // one partially merged drain); metrics must never cascade a
        // panic.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Merges a batch of series: counters and histograms accumulate,
    /// gauges last-write-win.
    pub fn merge_entries(&self, entries: Vec<Metric>) {
        let mut all = self.lock();
        for m in entries {
            if let Some(existing) = all
                .iter_mut()
                .find(|e| e.name == m.name && e.labels == m.labels)
            {
                existing.value.merge(&m.value);
            } else {
                all.push(m);
            }
        }
    }

    /// Drains a local set into the registry.
    pub fn merge(&self, local: &mut LocalMetrics) {
        self.merge_entries(local.take());
    }

    /// A sorted snapshot of every series (by name, then labels), so
    /// exposition output is deterministic.
    pub fn snapshot(&self) -> Vec<Metric> {
        let mut all = self.lock().clone();
        all.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(&b.labels)));
        all
    }

    /// Adds `v` to one counter series directly — registration and merge
    /// in a single lock acquisition. For process-level counters with no
    /// owning worker hub (e.g. drain-thread and pool-end aggregates);
    /// per-update paths should keep using [`LocalMetrics`] cells.
    pub fn add_counter(&self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        self.merge_entries(vec![Metric {
            name,
            labels: labels
                .iter()
                .map(|&(k, val)| (k, val.to_string()))
                .collect(),
            value: MetricValue::Counter(v),
        }]);
    }

    /// Sets one gauge series directly (last-write-wins), same shape as
    /// [`MetricsRegistry::add_counter`].
    pub fn set_gauge(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        self.merge_entries(vec![Metric {
            name,
            labels: labels
                .iter()
                .map(|&(k, val)| (k, val.to_string()))
                .collect(),
            value: MetricValue::Gauge(v),
        }]);
    }

    /// Sum of every counter series in family `name` (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match &m.value {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }
}

/// The process-global registry campaign workers drain into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

/// A cheaply cloneable handle to one worker's [`LocalMetrics`],
/// mirroring [`crate::Tracer`]'s disabled-by-default contract: disabled
/// (the default), [`MetricsHub::with`] is a single branch and the
/// closure never runs. Enabled, the mutex is uncontended — only the
/// owning worker (and the final drain) ever lock it, and only at job
/// boundaries, never inside the cycle loop.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<Mutex<LocalMetrics>>>,
}

impl MetricsHub {
    /// The disabled hub (same as `MetricsHub::default()`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled hub with an empty cell set.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(LocalMetrics::new()))),
        }
    }

    /// Whether updates will be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the cells when enabled; a single branch when
    /// disabled.
    #[inline]
    pub fn with(&self, f: impl FnOnce(&mut LocalMetrics)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Drains the cells into `registry` (no-op when disabled or empty).
    pub fn drain_to(&self, registry: &MetricsRegistry) {
        self.with(|local| {
            if !local.is_empty() {
                registry.merge_entries(local.take());
            }
        });
    }
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
    fn histogram_observes_merges_and_summarizes() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.max_bound(), 1023);
        let mut other = Log2Hist::new();
        other.observe(5);
        h.merge(&other);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1011);
        assert!((h.mean() - 1011.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn cells_register_once_and_update_in_place() {
        let mut m = LocalMetrics::new();
        let a = m.counter("jobs_total", &[("worker", "0")]);
        let b = m.counter("jobs_total", &[("worker", "0")]);
        let c = m.counter("jobs_total", &[("worker", "1")]);
        m.add(a, 2);
        m.add(b, 3);
        m.add(c, 1);
        assert_eq!(m.entries().len(), 2);
        assert_eq!(m.entries()[0].value, MetricValue::Counter(5));
        assert_eq!(m.entries()[1].value, MetricValue::Counter(1));
        let g = m.gauge("depth", &[]);
        m.set(g, 2.5);
        let h = m.histogram("lat", &[]);
        m.observe(h, 9);
        assert_eq!(m.entries().len(), 4);
    }

    #[test]
    fn registry_merges_counters_hists_and_overwrites_gauges() {
        let reg = MetricsRegistry::new();
        let mut w0 = LocalMetrics::new();
        w0.count("jobs", &[("worker", "0")], 2);
        w0.record("lat", &[], 8);
        w0.set_gauge("depth", &[], 1.0);
        reg.merge(&mut w0);
        assert!(w0.is_empty(), "merge must drain the local set");
        let mut w1 = LocalMetrics::new();
        w1.count("jobs", &[("worker", "0")], 3);
        w1.count("jobs", &[("worker", "1")], 1);
        w1.record("lat", &[], 1);
        w1.set_gauge("depth", &[], 4.0);
        reg.merge(&mut w1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(reg.counter_total("jobs"), 6);
        let lat = snap.iter().find(|m| m.name == "lat").unwrap();
        match &lat.value {
            MetricValue::Hist(h) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        let depth = snap.iter().find(|m| m.name == "depth").unwrap();
        assert_eq!(depth.value, MetricValue::Gauge(4.0));
    }

    #[test]
    fn direct_registry_updates_merge_like_drained_cells() {
        let reg = MetricsRegistry::new();
        reg.add_counter("direct", &[("site", "x")], 2);
        reg.add_counter("direct", &[("site", "x")], 3);
        reg.add_counter("direct", &[("site", "y")], 1);
        reg.set_gauge("level", &[], 1.5);
        reg.set_gauge("level", &[], 2.5);
        assert_eq!(reg.counter_total("direct"), 6);
        let snap = reg.snapshot();
        let level = snap.iter().find(|m| m.name == "level").unwrap();
        assert_eq!(level.value, MetricValue::Gauge(2.5));
        // Interoperates with hub-drained series of the same identity.
        let mut m = LocalMetrics::new();
        m.count("direct", &[("site", "x")], 10);
        reg.merge(&mut m);
        assert_eq!(reg.counter_total("direct"), 16);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        let mut m = LocalMetrics::new();
        m.count("z", &[], 1);
        m.count("a", &[("w", "1")], 1);
        m.count("a", &[("w", "0")], 1);
        reg.merge(&mut m);
        let names: Vec<_> = reg
            .snapshot()
            .iter()
            .map(|m| (m.name, m.labels.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a", vec![("w", "0".to_string())]),
                ("a", vec![("w", "1".to_string())]),
                ("z", vec![]),
            ]
        );
    }

    #[test]
    fn disabled_hub_never_runs_the_closure() {
        let hub = MetricsHub::disabled();
        assert!(!hub.enabled());
        hub.with(|_| panic!("closure must not run when disabled"));
        hub.drain_to(global());
    }

    #[test]
    fn hub_clones_share_cells_and_drain_once() {
        let reg = MetricsRegistry::new();
        let hub = MetricsHub::recording();
        let clone = hub.clone();
        hub.with(|m| m.count("x", &[], 1));
        clone.with(|m| m.count("x", &[], 2));
        hub.drain_to(&reg);
        assert_eq!(reg.counter_total("x"), 3);
        // Drained: a second drain adds nothing.
        clone.drain_to(&reg);
        assert_eq!(reg.counter_total("x"), 3);
    }
}
