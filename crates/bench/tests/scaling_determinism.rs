//! Multi-thread determinism regression: the worker count is a pure
//! performance knob. The campaign checkpoint (canonicalized for host
//! timing and append order), the per-job reports, and the report digest
//! must be byte-identical across thread counts {1, 2, 4} and across two
//! runs at the same thread count.

use std::path::PathBuf;

use emissary_bench::checkpoint::{fingerprint, fnv1a64, Campaign};
use emissary_bench::pool::{run_parallel_outcomes_with, JobOutcome, PoolOptions};
use emissary_bench::Job;
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_scaledet_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Six distinct jobs (three benchmarks × two policies) — enough that at
/// 2 and 4 workers the completion order genuinely interleaves.
fn jobs() -> Vec<Job> {
    let cfg = SimConfig {
        warmup_instrs: 1_000,
        measure_instrs: 5_000,
        ..SimConfig::default()
    };
    let mut jobs = Vec::new();
    for name in ["xapian", "tomcat", "tpcc"] {
        let profile = Profile::by_name(name).unwrap();
        for policy in [PolicySpec::BASELINE, PolicySpec::PREFERRED] {
            jobs.push(Job::new(profile.clone(), &cfg, policy));
        }
    }
    jobs
}

/// One checkpoint line with its host-timing fields stripped. Timing is
/// the *only* permitted cross-run variance, and the checkpoint renderer
/// keeps those fields last, so canonicalization is a single cut.
fn canonical_line(line: &str) -> String {
    match line.find(",\"host_seconds\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

/// The checkpoint file canonicalized: timing stripped per line, lines
/// sorted (workers append in completion order, which may differ by
/// schedule — the *set* of records is the contract).
fn canonical_ckpt(c: &Campaign) -> String {
    let text = std::fs::read_to_string(c.path()).expect("checkpoint written");
    let mut lines: Vec<String> = text.lines().map(canonical_line).collect();
    lines.sort();
    lines.join("\n")
}

/// Per-job report + samples JSON, in job order (outcome slots are
/// index-stable regardless of which worker ran the job).
fn rendered_reports(outcomes: &[JobOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            let run = o.run().expect("every job completes");
            let samples: Vec<String> = run.samples.iter().map(|s| s.to_json()).collect();
            format!("{}|[{}]", run.report.to_json(), samples.join(","))
        })
        .collect()
}

#[test]
fn results_are_byte_identical_across_thread_counts_and_reruns() {
    let jobs = jobs();
    // The store keeps a program only while some caller holds it: hold
    // each one across the four pools, so they share one build.
    let _held: Vec<_> = jobs.iter().map(|j| j.profile.shared_program()).collect();
    // {1, 2, 4} threads plus a second 1-thread run: the repeat pins down
    // nondeterminism that is not thread-related (iteration order, time).
    let variants: &[(&str, usize)] = &[("t1a", 1), ("t1b", 1), ("t2", 2), ("t4", 4)];
    let mut baseline: Option<(String, Vec<String>, u64)> = None;
    for &(tag, threads) in variants {
        let dir = tmpdir(tag);
        let c = Campaign::begin_with("det", &dir, false);
        let outcomes =
            run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(threads), Some(&c));
        assert!(
            outcomes.iter().all(|o| o.status() == "completed"),
            "{tag}: every job completes"
        );
        let ckpt = canonical_ckpt(&c);
        assert_eq!(
            ckpt.lines().count(),
            jobs.len(),
            "{tag}: one checkpoint record per job"
        );
        let reports = rendered_reports(&outcomes);
        let digest = fnv1a64(reports.join("\n").as_bytes());
        match &baseline {
            None => baseline = Some((ckpt, reports, digest)),
            Some((ckpt0, reports0, digest0)) => {
                assert_eq!(&ckpt, ckpt0, "{tag}: canonical checkpoint differs");
                assert_eq!(&reports, reports0, "{tag}: report bytes differ");
                assert_eq!(digest, *digest0, "{tag}: report digest differs");
            }
        }
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fingerprints_are_independent_of_worker_count() {
    // The memo key must not change with scheduling; two identically
    // built job lists agree fingerprint-for-fingerprint.
    let a: Vec<String> = jobs().iter().map(fingerprint).collect();
    let b: Vec<String> = jobs().iter().map(fingerprint).collect();
    assert_eq!(a, b);
}
