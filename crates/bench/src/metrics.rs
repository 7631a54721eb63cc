//! Bench-side metrics glue: worker hubs, stage spans, Prometheus
//! exposition, and campaign-summary aggregates.
//!
//! The obs crate owns the mechanism ([`emissary_obs::MetricsRegistry`],
//! [`MetricsHub`], [`emissary_obs::render_prometheus`]); this module
//! owns the policy — which spans exist, what they are named, where the
//! snapshot file lives, and how the campaign summary line condenses it.
//!
//! ## Span vocabulary
//!
//! Every pool job is attributed to per-worker stage counters
//! ([`STAGE_NS`], label `stage` ∈ `build` | `warmup` | `measure` |
//! `checkpoint` | `render`), a per-worker job-duration histogram
//! ([`JOB_NS`]), a per-worker per-status job counter ([`JOBS_TOTAL`]),
//! and per-worker busy/wall counters ([`WORKER_BUSY_NS`],
//! [`WORKER_WALL_NS`]) whose ratio is scheduler utilization. Each worker
//! owns its cells and drains them into the process registry once, when
//! it exits — never inside the simulator's cycle loop.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use emissary_obs::metrics::global;
use emissary_obs::{render_prometheus, Metric, MetricValue, MetricsHub};

use crate::scale;

/// Per-worker stage-span counter family (nanoseconds, `stage`+`worker`
/// labels).
pub const STAGE_NS: &str = "emissary_stage_ns_total";

/// Per-worker job-duration histogram family (nanoseconds).
pub const JOB_NS: &str = "emissary_job_ns";

/// Per-worker, per-status job counter family.
pub const JOBS_TOTAL: &str = "emissary_jobs_total";

/// Per-worker busy-time counter family (nanoseconds spent inside jobs).
pub const WORKER_BUSY_NS: &str = "emissary_worker_busy_ns_total";

/// Per-worker wall-time counter family (nanoseconds from first claim to
/// worker exit).
pub const WORKER_WALL_NS: &str = "emissary_worker_wall_ns_total";

/// The stage names [`STAGE_NS`] is recorded under, in pipeline order.
pub const STAGES: &[&str] = &["build", "warmup", "measure", "checkpoint", "render"];

/// Counter family: global-mutex acquisitions from worker threads on the
/// steady-state job path. Structurally zero — workers buffer results
/// locally and the checkpoint drains through a channel — so any nonzero
/// value is a scaling regression. The contention stress test asserts a
/// zero delta across an 8-thread run.
pub const WORKER_GLOBAL_LOCKS: &str = "emissary_worker_global_lock_acquisitions_total";

/// Gauge: records processed by the active campaign's checkpoint drain
/// thread (published by the pool after each parallel run).
pub const CKPT_DRAINED: &str = "emissary_ckpt_drained_records";

/// Backing cell for [`WORKER_GLOBAL_LOCKS`]. A plain process atomic
/// (not a hub) because the whole point is to observe the path that
/// bypasses per-worker state.
static WORKER_GLOBAL_LOCK_COUNT: AtomicU64 = AtomicU64::new(0);

/// Counts one worker-thread acquisition of a process-global log mutex
/// (called by the `results` fallback path — see [`WORKER_GLOBAL_LOCKS`]).
pub fn note_worker_global_lock() {
    WORKER_GLOBAL_LOCK_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Current [`WORKER_GLOBAL_LOCKS`] value.
pub fn worker_global_locks() -> u64 {
    WORKER_GLOBAL_LOCK_COUNT.load(Ordering::Relaxed)
}

/// Publishes the current tripwire value into the global registry as a
/// gauge, so `.prom` snapshots carry it (the pool calls this at the end
/// of every parallel run).
pub fn publish_worker_global_locks() {
    if scale::knobs().metrics {
        global().set_gauge(WORKER_GLOBAL_LOCKS, &[], worker_global_locks() as f64);
    }
}

/// A hub for one worker thread: recording when `EMISSARY_METRICS` is on
/// (the default), disabled otherwise.
pub fn worker_hub() -> MetricsHub {
    if scale::knobs().metrics {
        MetricsHub::recording()
    } else {
        MetricsHub::default()
    }
}

/// Where the campaign's Prometheus snapshot lands.
pub fn default_prom_path() -> PathBuf {
    Path::new("results").join("metrics.prom")
}

/// Renders the global registry snapshot to `path` in Prometheus text
/// format (creating parent directories).
pub fn write_prom(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render_prometheus(&global().snapshot()))
}

/// Adds `ns` to the per-worker stage counter (no-op on a disabled hub).
pub fn record_stage(hub: &MetricsHub, worker: &str, stage: &'static str, ns: u64) {
    hub.with(|m| m.count(STAGE_NS, &[("stage", stage), ("worker", worker)], ns));
}

/// Times `f` as a `stage` span attributed to `worker`, draining straight
/// into the global registry. For main-thread stages (result rendering);
/// workers keep a long-lived hub instead.
pub fn time_stage<T>(worker: &str, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let hub = worker_hub();
    let t0 = Instant::now();
    let out = f();
    record_stage(&hub, worker, stage, elapsed_ns(t0));
    hub.drain_to(global());
    out
}

/// Nanoseconds since `t0`, saturated into `u64` (584 years of headroom).
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Total seconds recorded for one [`STAGE_NS`] stage across all workers
/// in a snapshot.
pub fn stage_seconds(snapshot: &[Metric], stage: &str) -> f64 {
    counter_sum(snapshot, STAGE_NS, Some(("stage", stage))) as f64 / 1e9
}

/// Aggregate worker utilization over a snapshot: (busy seconds, wall
/// seconds, busy/wall ratio). `None` when no worker reported.
pub fn utilization(snapshot: &[Metric]) -> Option<(f64, f64, f64)> {
    let busy = counter_sum(snapshot, WORKER_BUSY_NS, None) as f64 / 1e9;
    let wall = counter_sum(snapshot, WORKER_WALL_NS, None) as f64 / 1e9;
    (wall > 0.0).then_some((busy, wall, busy / wall))
}

/// Sums every counter series in `family`, optionally restricted to one
/// label pair.
pub fn counter_sum(snapshot: &[Metric], family: &str, label: Option<(&str, &str)>) -> u64 {
    snapshot
        .iter()
        .filter(|m| m.name == family)
        .filter(|m| match label {
            Some((k, v)) => m.labels.iter().any(|(lk, lv)| *lk == k && lv == v),
            None => true,
        })
        .filter_map(|m| match &m.value {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
        .sum()
}

/// The `metrics=` aggregate block appended to the campaign summary line:
/// per-stage seconds plus utilization, all from the global registry.
/// Empty when nothing was recorded (metrics off).
pub fn summary_suffix() -> String {
    let snapshot = global().snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for stage in STAGES {
        let secs = stage_seconds(&snapshot, stage);
        if secs > 0.0 {
            out.push_str(&format!(" {stage}={secs:.1}s"));
        }
    }
    if let Some((busy, wall, ratio)) = utilization(&snapshot) {
        out.push_str(&format!(
            " busy={busy:.1}s workers_wall={wall:.1}s util={:.0}%",
            ratio * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_utilization_aggregates_sum_across_workers() {
        let hub = MetricsHub::recording();
        record_stage(&hub, "0", "measure", 1_500_000_000);
        record_stage(&hub, "1", "measure", 500_000_000);
        record_stage(&hub, "0", "build", 250_000_000);
        hub.with(|m| {
            m.count(WORKER_BUSY_NS, &[("worker", "0")], 2_000_000_000);
            m.count(WORKER_WALL_NS, &[("worker", "0")], 4_000_000_000);
        });
        let reg = emissary_obs::MetricsRegistry::new();
        hub.drain_to(&reg);
        let snap = reg.snapshot();
        assert!((stage_seconds(&snap, "measure") - 2.0).abs() < 1e-9);
        assert!((stage_seconds(&snap, "build") - 0.25).abs() < 1e-9);
        assert_eq!(stage_seconds(&snap, "render"), 0.0);
        let (busy, wall, ratio) = utilization(&snap).unwrap();
        assert!((busy - 2.0).abs() < 1e-9);
        assert!((wall - 4.0).abs() < 1e-9);
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_stage_records_into_the_global_registry() {
        // The registry is process-global and other tests may interleave:
        // assert growth, not absolute values.
        if !scale::knobs().metrics {
            return; // EMISSARY_METRICS=0 in this environment
        }
        let before = counter_sum(&global().snapshot(), STAGE_NS, Some(("stage", "render")));
        let v = time_stage("test", "render", || 42);
        assert_eq!(v, 42);
        let after = counter_sum(&global().snapshot(), STAGE_NS, Some(("stage", "render")));
        assert!(after >= before, "render stage counter must not shrink");
    }
}
