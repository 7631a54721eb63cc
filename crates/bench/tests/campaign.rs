//! End-to-end campaign-engine regression: tables rendered from a
//! deduplicated, globally scheduled prefetch must be byte-identical to
//! tables rendered from the raw plan run job by job, a warm campaign must
//! simulate nothing, and a memoized run must replay bit-identically.

use std::path::PathBuf;
use std::sync::Arc;

use emissary_bench::campaign::{self, CostModel, Runs};
use emissary_bench::checkpoint::{config_hash, fingerprint, Campaign};
use emissary_bench::experiments::{self, Entry, EXPERIMENTS};
use emissary_bench::pool::run_parallel_outcomes_with;
use emissary_bench::{Job, PoolOptions};
use emissary_core::spec::PolicySpec;
use emissary_sim::{FaultConfig, SimConfig};
use emissary_workloads::{Profile, Program};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_campaign_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn template() -> SimConfig {
    SimConfig {
        warmup_instrs: 1_000,
        measure_instrs: 4_000,
        ..SimConfig::default()
    }
}

/// Holds the program of every job in `plan`, so the several passes a
/// test makes over it share one build of each: the program store keeps a
/// program only while some caller holds it.
fn hold_programs(plan: &[Job]) -> Vec<Arc<Program>> {
    plan.iter()
        .map(|job| job.profile.shared_program())
        .collect()
}

fn entries(names: &[&str]) -> Vec<Entry> {
    names
        .iter()
        .map(|n| *EXPERIMENTS.iter().find(|e| e.name == *n).expect("known"))
        .collect()
}

fn render(entries: &[Entry], runs: &Runs) -> Vec<String> {
    entries
        .iter()
        .map(|e| e.render(&template(), runs).render())
        .collect()
}

#[test]
fn prefetched_tables_match_the_raw_plan_run_job_by_job() {
    // Figures 1, 4, and 6 cover the interesting shapes cheaply: a
    // separate config template (fig1), the shared baseline matrix (fig4),
    // and a superset matrix overlapping it (fig6).
    let entries = entries(&["fig1", "fig4", "fig6"]);
    let plan = experiments::plan_jobs(&entries, &template());
    let _held = hold_programs(&plan);

    // Reference: every planned job, duplicates included, on one worker
    // with no campaign — no dedup, no memo, no scheduling.
    let outcomes = run_parallel_outcomes_with(&plan, &PoolOptions::with_workers(1), None);
    let reference = render(&entries, &Runs::from_outcomes(&plan, outcomes));

    let dir = tmpdir("engine");
    let c = Campaign::begin_with("campaign", &dir, false);
    let (summary, runs) = campaign::prefetch_runs(
        plan.clone(),
        &PoolOptions::with_workers(2),
        Some(&c),
        &CostModel::new(),
    );
    assert_eq!(summary.requested, plan.len());
    assert!(
        summary.unique < plan.len(),
        "fig4's baseline sweep must dedup against fig6's: {} of {}",
        summary.unique,
        plan.len()
    );
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.simulated, summary.unique as u64);
    assert_eq!(render(&entries, &runs), reference, "tables diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_campaign_simulates_nothing() {
    let plan = experiments::plan_jobs(&entries(&["fig1"]), &template());
    let _held = hold_programs(&plan);
    let dir = tmpdir("warm");
    let c = Campaign::begin_with("campaign", &dir, false);
    let model = CostModel::new();
    let opts = PoolOptions::with_workers(2);
    let first = campaign::prefetch(plan.clone(), &opts, Some(&c), &model);
    assert_eq!(first.simulated, first.unique as u64);
    let again = campaign::prefetch(plan, &opts, Some(&c), &model);
    assert_eq!(again.simulated, 0);
    assert_eq!(again.failed, 0);
    assert_eq!(again.replayed, again.unique as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_memoized_run_replays_bit_identically() {
    // Deterministic content — report and samples — must match a fresh
    // simulation of the same config; host timing is wall-clock and
    // excluded.
    let probe = Job::new(
        Profile::by_name("xapian").expect("xapian profile"),
        &template(),
        PolicySpec::BASELINE,
    );
    let _held = hold_programs(std::slice::from_ref(&probe));
    let dir = tmpdir("memo");
    let c = Campaign::begin_with("campaign", &dir, false);
    campaign::prefetch(
        vec![probe.clone()],
        &PoolOptions::with_workers(1),
        Some(&c),
        &CostModel::new(),
    );
    let cached = c.cached(&fingerprint(&probe)).expect("probe memoized");
    let fresh = probe
        .run_checked_metered(&FaultConfig::none(), None, "main")
        .expect("runs");
    assert_eq!(cached.report, fresh.report);
    let jsons = |runs: &emissary_sim::SimRun| -> Vec<String> {
        runs.samples.iter().map(|s| s.to_json()).collect()
    };
    assert_eq!(jsons(&cached), jsons(&fresh));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_file_names_are_fingerprint_stable() {
    // Trace sinks are keyed by config hash, not by experiment or process
    // sequence: the same job always maps to the same file, and any config
    // change remaps it.
    let job = Job::new(
        Profile::by_name("xapian").expect("xapian profile"),
        &template(),
        PolicySpec::BASELINE,
    );
    let name = job.trace_file_name();
    assert_eq!(name, job.clone().trace_file_name());
    assert_eq!(name, format!("{:016x}_xapian_M_1.jsonl", config_hash(&job)));
    let mut other = job.clone();
    other.config.measure_instrs += 1;
    assert_ne!(name, other.trace_file_name());
}
