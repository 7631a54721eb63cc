//! Contention stress: 8 workers hammering the program store and the
//! campaign checkpoint — no `SimRun` record may be lost or duplicated.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::pool::{run_parallel_outcomes_with, PoolOptions};
use emissary_bench::Job;
use emissary_core::spec::PolicySpec;
use emissary_obs::JsonValue;
use emissary_sim::SimConfig;
use emissary_workloads::{shared_program, Profile};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_contend_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// The full 26-job campaign matrix (13 profiles × 2 policies) at tiny
/// windows — enough distinct fingerprints that 8 workers genuinely
/// overlap in the store and the campaign's memo and log.
fn jobs() -> Vec<Job> {
    let cfg = SimConfig {
        warmup_instrs: 500,
        measure_instrs: 2_000,
        ..SimConfig::default()
    };
    let mut jobs = Vec::new();
    for profile in Profile::all() {
        for policy in [PolicySpec::BASELINE, PolicySpec::PREFERRED] {
            jobs.push(Job::new(profile.clone(), &cfg, policy));
        }
    }
    jobs
}

#[test]
fn eight_workers_lose_and_duplicate_no_records() {
    let dir = tmpdir("drain");
    let c = Campaign::begin_with("stress", &dir, false);
    assert!(c.persistent());
    let jobs = jobs();

    let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(8), Some(&c));

    // Nothing lost: every job completed and every fingerprint is
    // memoized.
    assert!(outcomes.iter().all(|o| o.status() == "completed"));
    for job in &jobs {
        assert!(
            c.cached(&fingerprint(job)).is_some(),
            "memo lost {}",
            fingerprint(job)
        );
    }
    assert_eq!(c.memoized(), jobs.len());

    // File accounting: every line is one whole completed record, each
    // fingerprint appears exactly once, and none is missing.
    let text = std::fs::read_to_string(c.path()).expect("checkpoint readable");
    let mut fps = HashSet::new();
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("every line is a whole record");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("completed"));
        let fp = v
            .get("fingerprint")
            .and_then(|f| f.as_str())
            .expect("completed record has a fingerprint")
            .to_string();
        assert!(fps.insert(fp), "duplicate record in checkpoint");
    }
    let want: HashSet<String> = jobs.iter().map(fingerprint).collect();
    assert_eq!(fps, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_coalesces_under_an_8_thread_hammer() {
    let profiles: Vec<Profile> = Profile::all().into_iter().take(4).collect();
    let canon: Vec<_> = profiles.iter().map(shared_program).collect();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..16 {
                    for (p, canonical) in profiles.iter().zip(&canon) {
                        assert!(
                            Arc::ptr_eq(&shared_program(p), canonical),
                            "store rebuilt {} instead of coalescing",
                            p.name
                        );
                    }
                }
            });
        }
    });
}
