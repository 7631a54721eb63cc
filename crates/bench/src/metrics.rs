//! Bench-side metrics glue: the harness's host-time counters, stage
//! spans, the `results/metrics.jsonl` snapshot, and campaign-summary
//! aggregates.
//!
//! The obs crate owns the mechanism ([`MetricsRegistry`], [`Metric`]'s
//! `metric` JSONL record); this module owns the policy — which spans
//! exist, what they are named, where the snapshot file lives, and how
//! the campaign summary line condenses it.
//!
//! ## Span vocabulary
//!
//! Every pool job is attributed to per-worker stage counters
//! ([`STAGE_NS`], label `stage` ∈ `build` | `warmup` | `measure` |
//! `checkpoint` | `render`), a per-worker per-status job counter
//! ([`JOBS_TOTAL`]), and per-worker busy/wall counters
//! ([`WORKER_BUSY_NS`], [`WORKER_WALL_NS`]) whose ratio is scheduler
//! utilization. Workers record straight into the process registry at
//! job boundaries and at exit. Simulated quantities are not metrics:
//! each one is a `SimReport` field, in the checkpoint and the results
//! files.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use emissary_obs::metrics::global;
use emissary_obs::{jsonl_lines, Metric, MetricsRegistry};

/// Per-worker stage-span counter family (nanoseconds, `stage`+`worker`
/// labels).
pub const STAGE_NS: &str = "emissary_stage_ns_total";

/// Per-worker, per-status job counter family.
pub const JOBS_TOTAL: &str = "emissary_jobs_total";

/// Per-worker busy-time counter family (nanoseconds spent inside jobs).
pub const WORKER_BUSY_NS: &str = "emissary_worker_busy_ns_total";

/// Per-worker wall-time counter family (nanoseconds from first claim to
/// worker exit).
pub const WORKER_WALL_NS: &str = "emissary_worker_wall_ns_total";

/// The stage names [`STAGE_NS`] is recorded under, in pipeline order.
pub const STAGES: &[&str] = &["build", "warmup", "measure", "checkpoint", "render"];

/// Where the campaign's metrics snapshot lands.
pub fn default_path() -> PathBuf {
    Path::new("results").join("metrics.jsonl")
}

/// Writes `metrics` to `path` as one `metric` record per line (creating
/// parent directories), replacing any previous file atomically
/// (`results::write_atomic`).
pub fn write_jsonl(path: &Path, metrics: &[Metric]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    crate::results::write_atomic(path, |out| {
        for m in metrics {
            writeln!(out, "{}", m.to_json())?;
        }
        Ok(())
    })
}

/// The series of every `metric` record in a [`write_jsonl`] file, in
/// file order; other and unparseable lines are skipped.
pub fn parse_jsonl(text: &str) -> Vec<Metric> {
    jsonl_lines(text)
        .filter_map(|line| Metric::from_json(&line.parsed.ok()?))
        .collect()
}

/// Adds `ns` to the per-worker stage counter.
pub fn record_stage(m: &MetricsRegistry, worker: &str, stage: &str, ns: u64) {
    m.add_counter(STAGE_NS, &[("stage", stage), ("worker", worker)], ns);
}

/// Times `f` as a `stage` span attributed to `worker`, recorded into the
/// global registry. For main-thread stages (result rendering).
pub fn time_stage<T>(worker: &str, stage: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    record_stage(global(), worker, stage, elapsed_ns(t0));
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
        .filter(|m| label.is_none_or(|(k, v)| m.label(k) == Some(v)))
        .map(|m| m.value)
        .sum()
}

/// The `metrics=` aggregate block appended to the campaign summary line:
/// per-stage seconds plus utilization, all from the global registry.
/// Empty when nothing was recorded.
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
        let reg = MetricsRegistry::new();
        record_stage(&reg, "0", "measure", 1_500_000_000);
        record_stage(&reg, "1", "measure", 500_000_000);
        record_stage(&reg, "0", "build", 250_000_000);
        reg.add_counter(WORKER_BUSY_NS, &[("worker", "0")], 2_000_000_000);
        reg.add_counter(WORKER_WALL_NS, &[("worker", "0")], 4_000_000_000);
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
        let before = counter_sum(&global().snapshot(), STAGE_NS, Some(("stage", "render")));
        let v = time_stage("test", "render", || 42);
        assert_eq!(v, 42);
        let after = counter_sum(&global().snapshot(), STAGE_NS, Some(("stage", "render")));
        assert!(after >= before, "render stage counter must not shrink");
    }
}
