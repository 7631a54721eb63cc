//! Program lifetimes: the store keeps no program alive, and each pool
//! worker pins only the program of its last job. A cold pass builds each
//! profile's program once, and a resume, which only replays, builds none.
//!
//! The store's build and live counts are process-wide, so this binary
//! holds a single test.

use std::path::PathBuf;
use std::sync::Mutex;

use emissary_bench::campaign::{dedup_jobs, prefetch, schedule, CostModel};
use emissary_bench::checkpoint::Campaign;
use emissary_bench::pool::run_parallel_outcomes_hooked;
use emissary_bench::{Job, PoolOptions};
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::store::{live_programs, programs_built};
use emissary_workloads::Profile;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_lifetimes_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Three policies on each of three profiles, interleaved by policy.
/// data-serving and speedometer2.0 share a footprint, so their jobs tie
/// under the cost model and only the scheduler's profile rule keeps them
/// apart.
fn jobs() -> Vec<Job> {
    let cfg = SimConfig {
        warmup_instrs: 500,
        measure_instrs: 2_000,
        ..SimConfig::default()
    };
    let mut jobs = Vec::new();
    for policy in [
        PolicySpec::BASELINE,
        PolicySpec::PREFERRED,
        PolicySpec::Srrip,
    ] {
        for bench in ["data-serving", "xapian", "speedometer2.0"] {
            jobs.push(Job::new(Profile::by_name(bench).unwrap(), &cfg, policy));
        }
    }
    jobs
}

#[test]
fn one_worker_builds_each_profile_once_and_pins_one_program() {
    let dir = tmpdir("pins");
    let model = CostModel::new();
    let opts = PoolOptions::with_workers(1);
    assert_eq!(live_programs(), 0, "no program is alive before the pass");

    // A cold pass, as `prefetch` runs it: dedup, schedule, one pool. After
    // each job, note the builds so far and the programs alive.
    let ordered = schedule(dedup_jobs(jobs()), &model);
    let built_before = programs_built();
    let seen: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
    let campaign = Campaign::begin_with("lifetimes", &dir, false);
    let outcomes = run_parallel_outcomes_hooked(&ordered, &opts, Some(&campaign), |_, _| {
        let sample = (programs_built() - built_before, live_programs());
        seen.lock().unwrap().push(sample);
    });
    drop(campaign);
    assert!(outcomes.iter().all(|o| o.status() == "completed"));
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen.len(), ordered.len());
    for (i, (&(built, live), job)) in seen.iter().zip(&ordered).enumerate() {
        // A build happens exactly where the profile changes.
        let profiles_so_far = 1 + ordered[..=i]
            .windows(2)
            .filter(|w| w[0].profile != w[1].profile)
            .count() as u64;
        assert_eq!(built, profiles_so_far, "job {i} ({})", job.profile.name);
        assert!(live <= 1, "job {i}: {live} programs alive between jobs");
    }
    assert_eq!(seen.last().unwrap().0, 3, "one build per profile");
    assert_eq!(live_programs(), 0, "a program outlived the pool");

    // A resume replays every job and builds nothing.
    let built_before = programs_built();
    let campaign = Campaign::begin_with("lifetimes", &dir, true);
    let summary = prefetch(jobs(), &opts, Some(&campaign), &model);
    assert_eq!((summary.simulated, summary.replayed), (0, 9));
    assert_eq!(programs_built(), built_before, "a resume built a program");
    assert_eq!(live_programs(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
