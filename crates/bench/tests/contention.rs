//! Contention stress: 8 workers hammering the program store and the
//! campaign checkpoint while chaos tears appends at the checkpoint site —
//! no `SimRun` record may be lost or duplicated.

use std::collections::HashSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use emissary_bench::chaos::{CkptIo, FaultPlan, RealIo};
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

/// A [`CkptIo`] that tears appends (half the line lands, then the write
/// fails) per the plan's `ckpt.append` schedule, and leaves every other
/// operation healthy — so the campaign file stays open and the log's
/// salvage path runs under fire, without the open/mkdir faults
/// [`emissary_bench::chaos::ChaosIo`] would add.
#[derive(Debug)]
struct TearAppends {
    plan: Arc<FaultPlan>,
}

impl CkptIo for TearAppends {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealIo.create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }

    fn open_writer(&self, path: &Path, append: bool) -> io::Result<std::fs::File> {
        RealIo.open_writer(path, append)
    }

    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        if self.plan.fires("ckpt.append") {
            let _ = w.write_all(&line.as_bytes()[..line.len() / 2]);
            let _ = w.flush();
            return Err(FaultPlan::io_error("ckpt.append"));
        }
        RealIo.append_line(w, line)
    }

    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        RealIo.replace_file(path, contents)
    }
}

#[test]
fn torn_appends_under_8_workers_lose_and_duplicate_no_records() {
    let dir = tmpdir("drain");
    let plan = Arc::new(FaultPlan::new(9, 0.3));
    let c = Campaign::begin_with_io(
        "stress",
        &dir,
        false,
        Box::new(TearAppends { plan: plan.clone() }),
    );
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

    // The torn-append schedule is a pure function of (seed, site, key):
    // the live injection count must match the precomputed schedule.
    let torn = (0..jobs.len() as u64)
        .filter(|&k| plan.would_fire("ckpt.append", k))
        .count();
    assert_eq!(plan.injected(), torn as u64);
    assert!(torn > 0, "seed 9 at rate 0.3 must tear some appends");
    assert!(torn < jobs.len(), "...but not all of them");

    // File accounting: every line is either a unique completed record or
    // torn debris, and the counts reconcile exactly — no duplicates, no
    // silently missing lines.
    let text = std::fs::read_to_string(c.path()).expect("checkpoint readable");
    let mut fps = HashSet::new();
    let mut debris = 0usize;
    for line in text.lines() {
        match JsonValue::parse(line) {
            Ok(v) if v.get("status").and_then(|s| s.as_str()) == Some("completed") => {
                let fp = v
                    .get("fingerprint")
                    .and_then(|f| f.as_str())
                    .expect("completed record has a fingerprint")
                    .to_string();
                assert!(fps.insert(fp), "duplicate record in checkpoint");
            }
            _ => debris += 1,
        }
    }
    assert_eq!(fps.len(), jobs.len() - torn);
    assert_eq!(debris, torn);
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
