//! Recovery from real failures, through `Campaign`: crash-safe
//! checkpoint salvage (truncation at *any* byte offset), recovery of a
//! failed job by resume, memo-only degradation when the checkpoint
//! cannot be opened, and poison recovery.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::pool::{run_parallel_outcomes_with, JobOutcome, PoolOptions};
use emissary_bench::results::take_ckpt_errors;
use emissary_bench::{lock_unpoisoned, FaultInjection, Job};
use emissary_cache::rng::XorShift64;
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_recovery_{}_{tag}", std::process::id()));
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

/// A healthy three-job checkpoint file's bytes, built once and shared by
/// every truncation case (resume itself is cheap; the simulations are
/// not).
fn golden_checkpoint() -> String {
    let dir = tmpdir("golden");
    let c = Campaign::begin_with("camp", &dir, false);
    let outcomes = run_parallel_outcomes_with(&jobs(), &PoolOptions::with_workers(2), Some(&c));
    assert!(outcomes.iter().all(|o| o.status() == "completed"));
    let text = std::fs::read_to_string(c.path()).expect("checkpoint written");
    assert_eq!(text.lines().count(), 3);
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// What a resume over `prefix` must reconstruct: full surviving lines are
/// replayable records; a non-empty trailing fragment (no newline) is
/// quarantined unless the truncation landed exactly at a line boundary.
fn expected_salvage(prefix: &str) -> (usize, u64) {
    let (complete, fragment) = match prefix.rfind('\n') {
        Some(i) => (&prefix[..i + 1], &prefix[i + 1..]),
        None => ("", prefix),
    };
    let good = complete.lines().filter(|l| !l.trim().is_empty()).count();
    let quarantined = u64::from(!fragment.is_empty());
    (good, quarantined)
}

/// Truncating `campaign.ckpt.jsonl` at ANY byte offset
/// still resumes — every record that fully survived is replayed, the
/// torn remainder is quarantined, and the rewritten checkpoint is
/// clean (a second resume finds nothing left to quarantine). The
/// checkpoint is several KB, so 64 cuts are drawn from `0..=len`.
#[test]
fn truncated_checkpoint_resumes_at_any_offset() {
    let text = golden_checkpoint();
    let mut rng = XorShift64::new(1);
    for case in 0..64 {
        let cut = rng.next_below(text.len() as u64 + 1) as usize;
        let prefix = &text[..cut];
        let (expect_good, expect_quarantined) = expected_salvage(prefix);

        let dir = tmpdir(&format!("trunc{case}"));
        let path = dir.join("camp.ckpt.jsonl");
        std::fs::write(&path, prefix).unwrap();

        let at = format!("case {case}: cut at byte {cut}");
        let c = Campaign::begin_with("camp", &dir, true);
        assert_eq!(c.resumable(), expect_good, "{at}");
        assert_eq!(c.quarantined(), expect_quarantined, "{at}");
        if expect_quarantined > 0 {
            let q = std::fs::read_to_string(c.quarantine_path()).unwrap_or_default();
            assert_eq!(q.lines().count() as u64, expect_quarantined, "{at}");
            // The quarantined line is the torn fragment, verbatim.
            let fragment = &prefix[prefix.rfind('\n').map_or(0, |i| i + 1)..];
            assert_eq!(q.lines().next().unwrap(), fragment, "{at}");
        }
        drop(c);

        // The salvage rewrote the checkpoint to only the good lines, so a
        // second resume replays the same records and quarantines nothing.
        let c2 = Campaign::begin_with("camp", &dir, true);
        assert_eq!(c2.resumable(), expect_good, "{at}");
        assert_eq!(
            c2.quarantined(),
            0,
            "{at}: salvage must leave a clean segment"
        );
        drop(c2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_job_runs_once_and_a_resume_recovers_it() {
    let mut job = jobs().remove(0);
    let fp = fingerprint(&job);
    job.inject = Some(FaultInjection::Panic);
    let dir = tmpdir("recover");
    let opts = PoolOptions::with_workers(1);

    // The failing job runs once and is recorded once.
    let c = Campaign::begin_with("camp", &dir, false);
    let outcomes = run_parallel_outcomes_with(std::slice::from_ref(&job), &opts, Some(&c));
    assert_eq!(outcomes[0].status(), "panicked");
    drop(c);
    let text = std::fs::read_to_string(dir.join("camp.ckpt.jsonl")).unwrap();
    assert_eq!(text.lines().count(), 1, "one run, one record: {text}");
    assert!(text.contains(&format!("\"fingerprint\":\"{fp}\"")));
    assert!(text.contains("\"status\":\"panicked\""), "{text}");
    assert!(!text.contains("attempt"), "no attempt counter: {text}");

    // A resume without the injection re-runs it: the failure record is
    // kept for provenance but never replayed.
    job.inject = None;
    let c = Campaign::begin_with("camp", &dir, true);
    assert_eq!(c.resumable(), 0);
    let outcomes = run_parallel_outcomes_with(std::slice::from_ref(&job), &opts, Some(&c));
    assert!(
        matches!(&outcomes[0], JobOutcome::Completed { resumed: false, .. }),
        "resume must simulate the failed job, got {}",
        outcomes[0].status()
    );
    drop(c);

    // The completion appends after the failure; the next resume replays
    // it (last-wins) and quarantines nothing.
    let c = Campaign::begin_with("camp", &dir, true);
    assert_eq!(c.resumable(), 1);
    assert_eq!(c.quarantined(), 0);
    let outcomes = run_parallel_outcomes_with(std::slice::from_ref(&job), &opts, Some(&c));
    assert!(matches!(
        &outcomes[0],
        JobOutcome::Completed { resumed: true, .. }
    ));
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_checkpoint_degrades_to_memo_only() {
    // A directory where the checkpoint should be: the salvage read and
    // the append open both fail with EISDIR.
    let dir = tmpdir("memo_only");
    std::fs::create_dir(dir.join("camp.ckpt.jsonl")).unwrap();
    let c = Campaign::begin_with("camp", &dir, true);
    assert!(!c.persistent(), "no writer means memo-only mode");
    assert_eq!(c.resumable(), 0);
    let ops: Vec<String> = take_ckpt_errors()
        .into_iter()
        .filter(|e| std::path::Path::new(&e.path) == c.path())
        .map(|e| e.op)
        .collect();
    assert_eq!(ops, ["read", "open"], "each failure leaves a ckpt_error");

    // The in-process memo still dedups: jobs complete and replay.
    let opts = PoolOptions::with_workers(1);
    let job = &jobs()[..1];
    let first = run_parallel_outcomes_with(job, &opts, Some(&c));
    assert_eq!(first[0].status(), "completed");
    let again = run_parallel_outcomes_with(job, &opts, Some(&c));
    assert!(
        matches!(&again[0], JobOutcome::Completed { resumed: true, .. }),
        "memo replay must survive the missing writer"
    );
    assert!(
        c.path().is_dir(),
        "memo-only mode must leave the checkpoint path alone"
    );
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_locks_recover() {
    // A panic while holding a campaign-stack mutex must not wedge later
    // users.
    let m = Arc::new(Mutex::new(vec![1u32]));
    let m2 = Arc::clone(&m);
    let _ = std::thread::spawn(move || {
        let _guard = m2.lock().unwrap();
        panic!("poison the lock");
    })
    .join();
    assert!(m.is_poisoned());
    assert_eq!(*lock_unpoisoned(&m), vec![1u32]);

    // End to end: a panicking job (which poisons shared pool state in the
    // worst case) leaves the campaign fully usable — later jobs simulate,
    // memoize, and persist.
    let dir = tmpdir("poison");
    let c = Campaign::begin_with("camp", &dir, false);
    let mut broken = jobs();
    broken[0].inject = Some(FaultInjection::Panic);
    let opts = PoolOptions::with_workers(2);
    let outcomes = run_parallel_outcomes_with(&broken, &opts, Some(&c));
    assert_eq!(outcomes[0].status(), "panicked");
    assert_eq!(outcomes[1].status(), "completed");
    assert_eq!(outcomes[2].status(), "completed");
    assert_eq!(c.memoized(), 2);
    assert!(c.persistent());
    let text = std::fs::read_to_string(c.path()).unwrap();
    assert_eq!(text.lines().count(), 3, "all outcomes recorded post-panic");
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}
