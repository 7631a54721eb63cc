//! The metrics subsystem: counters, gauges, and log-2-bucketed
//! histograms with static names and label pairs, recorded into one
//! [`MetricsRegistry`] under its one mutex.
//!
//! Metrics follow the tracer's passivity contract ("observability must
//! never perturb simulation"): nothing records inside the simulator's
//! cycle loop. Every update happens at a job boundary or after a run
//! ends (the `metrics_into` walkers, stage spans, serve request
//! counters), so one uncontended lock per update costs nothing
//! measurable.
//!
//! Histograms use log-2 buckets (`bucket i` holds `2^(i-1) ≤ v < 2^i`,
//! bucket 0 holds zero): one `leading_zeros` and an indexed add per
//! observation, 65 cells per histogram, no configuration. That is
//! exactly the resolution needed for cycle-length and span-duration
//! tails, the quantities the `emissary-inspect` analyzer reports.
//!
//! Metric identity is `(name, labels)`. Names and label *keys* are
//! `&'static str` by construction; label *values* are small strings
//! copied once, when a series is first recorded.

use std::cmp::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// Orders a stored series against a `(name, labels)` identity the way
/// [`MetricsRegistry::snapshot`] sorts: by name, then labels.
fn cmp_identity(m: &Metric, name: &str, labels: &[(&'static str, &str)]) -> Ordering {
    m.name.cmp(name).then_with(|| {
        m.labels
            .iter()
            .map(|(k, v)| (*k, v.as_str()))
            .cmp(labels.iter().copied())
    })
}

/// The `(name, labels)` series in the sorted `all`, inserted with
/// `empty()` first when absent.
fn series<'a>(
    all: &'a mut Vec<Metric>,
    name: &'static str,
    labels: &[(&'static str, &str)],
    empty: fn() -> MetricValue,
) -> &'a mut MetricValue {
    let i = match all.binary_search_by(|m| cmp_identity(m, name, labels)) {
        Ok(i) => i,
        Err(i) => {
            let labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
            let value = empty();
            all.insert(
                i,
                Metric {
                    name,
                    labels,
                    value,
                },
            );
            i
        }
    };
    &mut all[i].value
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

    /// Adds `v` to a counter series.
    pub fn add_counter(&self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        let empty = || MetricValue::Counter(0);
        if let MetricValue::Counter(c) = series(&mut self.lock(), name, labels, empty) {
            *c += v;
        }
    }

    /// Sets a gauge series (last write wins).
    pub fn set_gauge(&self, name: &'static str, labels: &[(&'static str, &str)], v: f64) {
        let empty = || MetricValue::Gauge(0.0);
        if let MetricValue::Gauge(g) = series(&mut self.lock(), name, labels, empty) {
            *g = v;
        }
    }

    /// Records one observation into a [`Log2Hist`] series.
    pub fn observe(&self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        let empty = || MetricValue::Hist(Box::default());
        if let MetricValue::Hist(h) = series(&mut self.lock(), name, labels, empty) {
            h.observe(v);
        }
    }

    /// Every series, sorted by name, then labels, so exposition output
    /// is deterministic.
    pub fn snapshot(&self) -> Vec<Metric> {
        self.lock().clone()
    }
}

/// The process-global registry campaign and serve workers record into.
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
        assert!((h.mean() - 1006.0 / 5.0).abs() < 1e-12);
    }

    /// Sum of every counter series in family `name`.
    fn family_sum(reg: &MetricsRegistry, name: &str) -> u64 {
        reg.snapshot()
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| match m.value {
                MetricValue::Counter(c) => Some(c),
                _ => None,
            })
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
        assert_eq!(snap[0].value, MetricValue::Counter(5));
        assert_eq!(snap[1].value, MetricValue::Counter(1));
        reg.set_gauge("depth", &[], 2.5);
        reg.observe("lat", &[], 9);
        assert_eq!(reg.snapshot().len(), 4);
    }

    #[test]
    fn registry_merges_counters_hists_and_overwrites_gauges() {
        let reg = MetricsRegistry::new();
        reg.add_counter("jobs", &[("worker", "0")], 2);
        reg.observe("lat", &[], 8);
        reg.set_gauge("depth", &[], 1.0);
        reg.add_counter("jobs", &[("worker", "0")], 3);
        reg.add_counter("jobs", &[("worker", "1")], 1);
        reg.observe("lat", &[], 1);
        reg.set_gauge("depth", &[], 4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(family_sum(&reg, "jobs"), 6);
        let lat = snap.iter().find(|m| m.name == "lat").unwrap();
        match &lat.value {
            MetricValue::Hist(h) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        let depth = snap.iter().find(|m| m.name == "depth").unwrap();
        assert_eq!(depth.value, MetricValue::Gauge(4.0));
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.add_counter("z", &[], 1);
        reg.add_counter("a", &[("w", "1")], 1);
        reg.add_counter("a", &[("w", "0")], 1);
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
    fn concurrent_updates_are_never_lost() {
        const THREADS: u64 = 8;
        const K: u64 = 2_000;
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = &reg;
                s.spawn(move || {
                    let worker = (t % 2).to_string();
                    for i in 0..K {
                        reg.add_counter("jobs", &[("worker", &worker)], 1);
                        reg.observe("lat", &[], i);
                    }
                });
            }
        });
        assert_eq!(family_sum(&reg, "jobs"), THREADS * K);
        let snap = reg.snapshot();
        let lat = snap.iter().find(|m| m.name == "lat").unwrap();
        match &lat.value {
            MetricValue::Hist(h) => {
                assert_eq!(h.count, THREADS * K);
                assert_eq!(h.sum, THREADS * (K * (K - 1) / 2));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
