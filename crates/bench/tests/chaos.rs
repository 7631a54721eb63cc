//! Chaos-hardening integration tests: crash-safe checkpoint salvage
//! (truncation at *any* byte offset), deterministic fault injection,
//! recovery of a failed job by resume, memo-only degradation, and poison
//! recovery.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use emissary_bench::chaos::{self, CkptIo, FaultPlan, RealIo};
use emissary_bench::checkpoint::{fingerprint, Campaign};
use emissary_bench::pool::{run_parallel_outcomes_with, JobOutcome, PoolOptions};
use emissary_bench::{FaultInjection, Job};
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_chaos_{}_{tag}", std::process::id()));
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
fn golden_checkpoint() -> &'static str {
    static CKPT: OnceLock<String> = OnceLock::new();
    CKPT.get_or_init(|| {
        let dir = tmpdir("golden");
        let c = Campaign::begin_with("camp", &dir, false);
        let outcomes = run_parallel_outcomes_with(&jobs(), &PoolOptions::with_workers(2), Some(&c));
        assert!(outcomes.iter().all(|o| o.status() == "completed"));
        let text = std::fs::read_to_string(c.path()).expect("checkpoint written");
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 4: truncating `campaign.ckpt.jsonl` at ANY byte offset
    /// still resumes — every record that fully survived is replayed, the
    /// torn remainder is quarantined, and the rewritten checkpoint is
    /// clean (a second resume finds nothing left to quarantine).
    #[test]
    fn truncated_checkpoint_resumes_at_any_offset(cut in 0usize..golden_checkpoint().len() + 1) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let text = golden_checkpoint();
        let prefix = &text[..cut];
        let (expect_good, expect_quarantined) = expected_salvage(prefix);

        let dir = tmpdir(&format!("trunc{}", CASE.fetch_add(1, Ordering::Relaxed)));
        let path = dir.join("camp.ckpt.jsonl");
        std::fs::write(&path, prefix).unwrap();

        let c = Campaign::begin_with_io("camp", &dir, true, Box::new(RealIo));
        prop_assert_eq!(c.resumable(), expect_good, "cut at byte {}", cut);
        prop_assert_eq!(c.quarantined(), expect_quarantined, "cut at byte {}", cut);
        if expect_quarantined > 0 {
            let q = std::fs::read_to_string(c.quarantine_path()).unwrap();
            prop_assert_eq!(q.lines().count() as u64, expect_quarantined);
            // The quarantined line is the torn fragment, verbatim.
            prop_assert_eq!(q.lines().next().unwrap(), &prefix[prefix.rfind('\n').map_or(0, |i| i + 1)..]);
        }
        drop(c);

        // The salvage rewrote the checkpoint to only the good lines, so a
        // second resume replays the same records and quarantines nothing.
        let c2 = Campaign::begin_with_io("camp", &dir, true, Box::new(RealIo));
        prop_assert_eq!(c2.resumable(), expect_good);
        prop_assert_eq!(c2.quarantined(), 0, "salvage must leave a clean segment");
        drop(c2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_at_rate_zero_is_byte_identical_to_no_chaos() {
    let dir_plain = tmpdir("ident_plain");
    let dir_chaos = tmpdir("ident_chaos");
    let opts = PoolOptions::with_workers(1);

    let c_plain = Campaign::begin_with_io("camp", &dir_plain, false, Box::new(RealIo));
    let out_plain = run_parallel_outcomes_with(&jobs(), &opts, Some(&c_plain));

    let plan = Arc::new(FaultPlan::new(42, 0.0));
    let c_chaos = Campaign::begin_with_io(
        "camp",
        &dir_chaos,
        false,
        Box::new(chaos::ChaosIo::new(Arc::clone(&plan))),
    );
    let chaos_opts = PoolOptions {
        chaos: Some(Arc::clone(&plan)),
        ..PoolOptions::with_workers(1)
    };
    let out_chaos = run_parallel_outcomes_with(&jobs(), &chaos_opts, Some(&c_chaos));

    let reports = |outs: &[JobOutcome]| -> Vec<String> {
        outs.iter()
            .map(|o| o.run().expect("completed").report.to_json())
            .collect()
    };
    assert_eq!(reports(&out_plain), reports(&out_chaos));
    assert_eq!(plan.injected(), 0, "rate 0 must never fire");
    // Checkpoint bytes match up to `host_seconds`, the one field that is
    // wall-clock (not simulation) time and so differs run to run.
    let sans_timing = |path: &std::path::Path| -> String {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| match l.find(",\"host_seconds\":") {
                Some(i) => format!("{}}}", &l[..i]),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        sans_timing(c_plain.path()),
        sans_timing(c_chaos.path()),
        "checkpoint bytes must match with chaos enabled at rate 0"
    );
    drop((c_plain, c_chaos));
    let _ = std::fs::remove_dir_all(&dir_plain);
    let _ = std::fs::remove_dir_all(&dir_chaos);
}

#[test]
fn failed_job_runs_once_and_a_resume_recovers_it() {
    let mut job = jobs().remove(0);
    let fp = fingerprint(&job);
    job.inject = Some(FaultInjection::Panic);
    let dir = tmpdir("recover");
    let opts = PoolOptions::with_workers(1);

    // The failing job runs once and is recorded once.
    let c = Campaign::begin_with_io("camp", &dir, false, Box::new(RealIo));
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
    let c = Campaign::begin_with_io("camp", &dir, true, Box::new(RealIo));
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
    let c = Campaign::begin_with_io("camp", &dir, true, Box::new(RealIo));
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

/// A [`CkptIo`] whose writer can never open — the full-disk / read-only
/// filesystem case.
#[derive(Debug)]
struct NoWriterIo;

impl CkptIo for NoWriterIo {
    fn create_dir_all(&self, dir: &std::path::Path) -> std::io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn read_to_string(&self, path: &std::path::Path) -> std::io::Result<String> {
        RealIo.read_to_string(path)
    }
    fn open_writer(&self, _: &std::path::Path) -> std::io::Result<std::fs::File> {
        Err(std::io::Error::other("test: no writer"))
    }
    fn append_line(&self, w: &mut dyn std::io::Write, line: &str) -> std::io::Result<()> {
        RealIo.append_line(w, line)
    }
    fn replace_file(&self, path: &std::path::Path, contents: &str) -> std::io::Result<()> {
        RealIo.replace_file(path, contents)
    }
}

#[test]
fn unopenable_checkpoint_degrades_to_memo_only() {
    let dir = tmpdir("memo_only");
    let c = Campaign::begin_with_io("camp", &dir, false, Box::new(NoWriterIo));
    assert!(!c.persistent(), "no writer means memo-only mode");

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
        !c.path().exists(),
        "memo-only mode must not create the checkpoint file"
    );
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_locks_recover() {
    // Satellite 3 regression: a panic while holding a campaign-stack
    // mutex must not wedge later users.
    let m = Arc::new(Mutex::new(vec![1u32]));
    let m2 = Arc::clone(&m);
    let _ = std::thread::spawn(move || {
        let _guard = m2.lock().unwrap();
        panic!("poison the lock");
    })
    .join();
    assert!(m.is_poisoned());
    assert_eq!(*chaos::lock_unpoisoned(&m), vec![1u32]);

    // End to end: a panicking job (which poisons shared pool state in the
    // worst case) leaves the campaign fully usable — later jobs simulate,
    // memoize, and persist.
    let dir = tmpdir("poison");
    let c = Campaign::begin_with_io("camp", &dir, false, Box::new(RealIo));
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
