//! The harness's host-time metrics: what a pool job records, and the
//! `results/metrics.jsonl` snapshot that carries it.
//!
//! The registry holds host time only (DESIGN.md "Metrics & profiling");
//! no simulator crate can reach it, so metrics cannot perturb a
//! simulation. The first test still pins that a recording run and a
//! silent one report the same simulation. CI's metrics-smoke job checks
//! a whole campaign's snapshot against its summary line.

use std::path::PathBuf;
use std::sync::Mutex;

use emissary_bench::checkpoint::Campaign;
use emissary_bench::pool::run_parallel_outcomes_with;
use emissary_bench::{lock_unpoisoned, metrics, Job, PoolOptions};
use emissary_core::spec::PolicySpec;
use emissary_obs::metrics::global;
use emissary_obs::{Metric, MetricsRegistry};
use emissary_sim::{FaultConfig, SimConfig};
use emissary_workloads::Profile;

/// Held by every test that reads or writes the global registry, so the
/// before/after deltas they assert are their own.
static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_metrics_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn quick_job() -> Job {
    let cfg = SimConfig {
        warmup_instrs: 2_000,
        measure_instrs: 10_000,
        ..SimConfig::default()
    };
    Job::new(
        Profile::by_name("tomcat").unwrap(),
        &cfg,
        PolicySpec::PREFERRED,
    )
}

#[test]
fn recording_metrics_is_bit_identical_to_disabled() {
    let job = quick_job();
    // Both runs share one build of the program.
    let _held = job.profile.shared_program();
    let off = job
        .run_checked_metered(&FaultConfig::none(), None, "main")
        .expect("metrics-off run completes");
    let registry = MetricsRegistry::new();
    let on = job
        .run_checked_metered(&FaultConfig::none(), Some(&registry), "7")
        .expect("metrics-on run completes");
    assert_eq!(
        on.report.to_json(),
        off.report.to_json(),
        "recording metrics changed the serialized report"
    );
    // Host time only: the three job stages, under the caller's label.
    let snapshot = registry.snapshot();
    assert!(snapshot.iter().all(|m| m.name == metrics::STAGE_NS));
    assert!(snapshot.iter().all(|m| m.label("worker") == Some("7")));
    let stages: Vec<_> = snapshot.iter().filter_map(|m| m.label("stage")).collect();
    assert_eq!(stages, ["build", "measure", "warmup"]);
}

#[test]
fn metrics_off_records_nothing() {
    let _serial = lock_unpoisoned(&GLOBAL_REGISTRY);
    let before = global().snapshot();
    quick_job()
        .run_checked_metered(&FaultConfig::none(), None, "0")
        .expect("run completes");
    assert_eq!(
        global().snapshot(),
        before,
        "a run with metrics off must not touch the global registry"
    );
}

#[test]
fn a_pool_job_records_its_spans_under_its_worker() {
    let _serial = lock_unpoisoned(&GLOBAL_REGISTRY);
    let dir = tmpdir("pool");
    let campaign = Campaign::begin_with("metrics", &dir, false);
    let value = |snapshot: &[Metric], name: &str, labels: &[(&str, &str)]| {
        let found = snapshot
            .iter()
            .find(|m| m.name == name && labels.iter().all(|&(k, v)| m.label(k) == Some(v)));
        found.map(|m| m.value)
    };
    let before = global().snapshot();
    let outcomes = run_parallel_outcomes_with(
        &[quick_job()],
        &PoolOptions::with_workers(1),
        Some(&campaign),
    );
    assert!(outcomes[0].run().is_some(), "the job completes");
    let after = global().snapshot();
    for stage in ["build", "warmup", "measure", "checkpoint"] {
        let labels = [("stage", stage), ("worker", "0")];
        assert!(
            value(&after, metrics::STAGE_NS, &labels).is_some(),
            "no {stage} span for worker 0"
        );
    }
    let jobs = [("worker", "0"), ("status", "completed")];
    let jobs_before = value(&before, metrics::JOBS_TOTAL, &jobs).unwrap_or(0);
    assert_eq!(
        value(&after, metrics::JOBS_TOTAL, &jobs),
        Some(jobs_before + 1)
    );
    for family in [metrics::WORKER_BUSY_NS, metrics::WORKER_WALL_NS] {
        let grown =
            value(&after, family, &[("worker", "0")]) > value(&before, family, &[("worker", "0")]);
        assert!(grown, "{family} did not grow for worker 0");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metric_records_round_trip_through_the_snapshot_file() {
    let registry = MetricsRegistry::new();
    registry.add_counter(
        metrics::STAGE_NS,
        &[("stage", "build"), ("worker", "1")],
        12,
    );
    registry.add_counter(
        metrics::JOBS_TOTAL,
        &[("worker", "0"), ("status", "panicked")],
        1,
    );
    registry.add_counter("odd \"name\"", &[("k", "a\\b\nc")], u64::MAX);
    registry.add_counter(metrics::WORKER_WALL_NS, &[], 0);
    let snapshot = registry.snapshot();
    let dir = tmpdir("roundtrip");
    let path = dir.join("results").join("metrics.jsonl");
    metrics::write_jsonl(&path, &snapshot).expect("write snapshot");
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    assert_eq!(text.lines().count(), snapshot.len());
    assert!(text
        .lines()
        .all(|l| l.starts_with("{\"record\":\"metric\",\"name\":")));
    assert_eq!(metrics::parse_jsonl(&text), snapshot);
    // Other records are not series.
    let foreign = "{\"record\":\"meta\",\"name\":\"x\",\"labels\":{},\"value\":1}\n";
    assert_eq!(metrics::parse_jsonl(&format!("{foreign}{text}")), snapshot);
    // A torn last line loses that series only.
    let torn = &text[..text.len() - 3];
    assert_eq!(metrics::parse_jsonl(torn), snapshot[..snapshot.len() - 1]);
    let _ = std::fs::remove_dir_all(&dir);
}
