//! End-to-end checkpoint/resume regression: a campaign with a failing job
//! completes with a failure outcome, a resumed campaign replays only the
//! completed jobs and re-runs the failed one, and the resumed results are
//! byte-identical to a fresh campaign's.

use std::path::PathBuf;

use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::pool::{run_parallel_outcomes_with, JobOutcome, PoolOptions};
use emissary_bench::{FaultInjection, Job};
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_resume_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn jobs() -> Vec<Job> {
    let cfg = SimConfig {
        warmup_instrs: 1_000,
        measure_instrs: 5_000,
        ..SimConfig::default()
    };
    let profile = Profile::by_name("xapian").unwrap();
    vec![
        Job::new(profile.clone(), &cfg, PolicySpec::BASELINE),
        Job::new(profile.clone(), &cfg, "P(8):S&E".parse().unwrap()),
        Job::new(profile, &cfg, PolicySpec::PREFERRED),
    ]
}

/// Serializes every completed run for byte-level comparison.
fn render(outcomes: &[JobOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .filter_map(|o| o.run())
        .map(|run| {
            let samples: Vec<String> = run.samples.iter().map(|s| s.to_json()).collect();
            format!("{}|[{}]", run.report.to_json(), samples.join(","))
        })
        .collect()
}

#[test]
fn resumed_campaign_is_byte_identical_to_fresh() {
    let dir = tmpdir("main");
    let opts = PoolOptions::with_workers(2);

    // Campaign 1: the PREFERRED job panics; the other two complete.
    let mut broken = jobs();
    broken[2].inject = Some(FaultInjection::Panic);
    let c1 = Campaign::begin_with("camp", &dir, false);
    let outcomes1 = run_parallel_outcomes_with(&broken, &opts, Some(&c1));
    assert_eq!(
        outcomes1.iter().map(|o| o.status()).collect::<Vec<_>>(),
        ["completed", "completed", "panicked"],
    );
    let ckpt = std::fs::read_to_string(c1.path()).expect("checkpoint written");
    assert_eq!(ckpt.lines().count(), 3, "one record per outcome");
    assert_eq!(
        ckpt.lines()
            .filter(|l| l.contains("\"status\":\"completed\""))
            .count(),
        2
    );
    assert!(ckpt.contains("\"status\":\"panicked\""));
    assert!(ckpt.contains("injected panic"));
    drop(c1);

    // Campaign 2: resume with the injection removed. The two completed
    // jobs replay from the checkpoint; only the failed one simulates.
    let healthy = jobs();
    let c2 = Campaign::begin_with("camp", &dir, true);
    assert_eq!(c2.resumable(), 2);
    let outcomes2 = run_parallel_outcomes_with(&healthy, &opts, Some(&c2));
    let resumed: Vec<bool> = outcomes2
        .iter()
        .map(|o| match o {
            JobOutcome::Completed { resumed, .. } => *resumed,
            other => panic!("unexpected outcome {:?}", other.status()),
        })
        .collect();
    assert_eq!(resumed, [true, true, false]);
    drop(c2);

    // Campaign 3: everything fresh, in a separate directory.
    let c3 = Campaign::begin_with("camp", &tmpdir("fresh"), false);
    let outcomes3 = run_parallel_outcomes_with(&healthy, &opts, Some(&c3));
    assert_eq!(render(&outcomes2), render(&outcomes3));

    // And a second resume replays all three runs byte-identically.
    let c4 = Campaign::begin_with("camp", &dir, true);
    assert_eq!(c4.resumable(), 3);
    let outcomes4 = run_parallel_outcomes_with(&healthy, &opts, Some(&c4));
    assert!(outcomes4
        .iter()
        .all(|o| matches!(o, JobOutcome::Completed { resumed: true, .. })));
    assert_eq!(render(&outcomes4), render(&outcomes3));
}

#[test]
fn a_fresh_campaign_keeps_the_records_of_earlier_ones() {
    // Two fresh campaigns over disjoint job sets share one checkpoint
    // file: the second must append after the first, not truncate it, so
    // a resume over the union replays every job and simulates none.
    let dir = tmpdir("union");
    let opts = PoolOptions::with_workers(1);
    let all = jobs();
    let (x, y) = all.split_at(2);
    for part in [x, y] {
        let c = Campaign::begin_with("camp", &dir, false);
        assert_eq!(c.resumable(), 0, "a fresh campaign loads nothing");
        let outcomes = run_parallel_outcomes_with(part, &opts, Some(&c));
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, JobOutcome::Completed { resumed: false, .. })));
    }
    let c = Campaign::begin_with("camp", &dir, true);
    assert_eq!(c.resumable(), 3);
    let outcomes = run_parallel_outcomes_with(&all, &opts, Some(&c));
    let replayed = outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Completed { resumed: true, .. }))
        .count();
    assert_eq!(replayed, all.len(), "resume over X∪Y simulated a job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprints_are_stable_across_processes_in_spirit() {
    // The fingerprint must not depend on process state (pointer values,
    // hash seeds): two identically built jobs agree.
    let a = &jobs()[0];
    let b = &jobs()[0];
    assert_eq!(fingerprint(a), fingerprint(b));
}

#[test]
fn torn_checkpoint_tail_is_skipped() {
    let dir = tmpdir("torn");
    let c1 = Campaign::begin_with("camp", &dir, false);
    let outcomes =
        run_parallel_outcomes_with(&jobs()[..1], &PoolOptions::with_workers(1), Some(&c1));
    assert_eq!(outcomes[0].status(), "completed");
    let path = c1.path().to_path_buf();
    drop(c1);
    // Simulate a crash mid-write: append half a record.
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("{\"record\":\"ckpt\",\"fingerprint\":\"xapian|trunc");
    std::fs::write(&path, text).unwrap();
    let c2 = Campaign::begin_with("camp", &dir, true);
    assert_eq!(
        c2.resumable(),
        1,
        "torn tail line ignored, good record kept"
    );
}
