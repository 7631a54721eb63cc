//! Metrics must observe the simulation without perturbing it.
//!
//! The design invariant (see DESIGN.md "Metrics & profiling"): workers
//! record into the registry at job boundaries and the simulator exports
//! its counters only *after* the run finishes, so a run that records and
//! a run with metrics off must produce bit-identical simulations. CI's
//! metrics-smoke job additionally byte-compares a whole campaign's stdout
//! metrics-on vs metrics-off and holds the < 2% wall-clock overhead
//! budget; this test pins the in-process half of the contract.

use emissary_bench::{metrics, Job};
use emissary_core::spec::PolicySpec;
use emissary_obs::metrics::global;
use emissary_obs::{parse_prometheus, render_prometheus, MetricsRegistry};
use emissary_sim::{FaultConfig, SimConfig};
use emissary_workloads::Profile;

/// A registry private to one test, so concurrently running tests never
/// see each other's series.
fn test_registry() -> &'static MetricsRegistry {
    Box::leak(Box::new(MetricsRegistry::new()))
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
    let off = job
        .run_checked_metered(&FaultConfig::none(), None, "main")
        .expect("metrics-off run completes");
    let on = job
        .run_checked_metered(&FaultConfig::none(), Some(test_registry()), "0")
        .expect("metrics-on run completes");
    assert_eq!(
        on.report, off.report,
        "recording metrics changed the simulated report"
    );
    assert_eq!(
        on.report.to_json(),
        off.report.to_json(),
        "recording metrics changed the serialized report"
    );
}

#[test]
fn recorded_counters_match_the_report_exactly() {
    let job = quick_job();
    let registry = test_registry();
    let run = job
        .run_checked_metered(&FaultConfig::none(), Some(registry), "7")
        .expect("run completes");
    let snapshot = registry.snapshot();
    let counter = |family: &str| metrics::counter_sum(&snapshot, family, None);
    // The sim counters are exported from the machine after the run, so
    // they must agree with the report to the last unit.
    assert_eq!(counter("emissary_sim_cycles_total"), run.report.cycles);
    assert_eq!(
        counter("emissary_sim_committed_instrs_total"),
        run.report.committed
    );
    assert_eq!(
        counter("emissary_sim_starvation_cycles_total"),
        run.report.starvation_cycles
    );
    assert_eq!(counter("emissary_sim_runs_total"), 1);
    // Stage spans: build/warmup/measure all attributed to worker "7".
    for stage in ["warmup", "measure"] {
        let ns = metrics::counter_sum(&snapshot, metrics::STAGE_NS, Some(("stage", stage)));
        assert!(ns > 0, "stage {stage} recorded no time");
    }
    let stage_worker: Vec<_> = snapshot
        .iter()
        .filter(|m| m.name == metrics::STAGE_NS)
        .collect();
    assert!(
        stage_worker
            .iter()
            .all(|m| m.labels.iter().any(|(k, v)| *k == "worker" && v == "7")),
        "stage spans must carry the caller's worker label"
    );
    // The snapshot survives Prometheus round-trip with values intact.
    let text = render_prometheus(&snapshot);
    let samples = parse_prometheus(&text);
    let cycles: f64 = samples
        .iter()
        .filter(|s| s.name == "emissary_sim_cycles_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(cycles as u64, run.report.cycles);
}

#[test]
fn metrics_off_records_nothing() {
    let job = quick_job();
    let before = global().snapshot();
    job.run_checked_metered(&FaultConfig::none(), None, "0")
        .expect("run completes");
    assert_eq!(
        global().snapshot(),
        before,
        "a run with metrics off must not touch the global registry"
    );
}
