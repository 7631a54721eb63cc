//! Experiment harness regenerating every table and figure in the paper's
//! evaluation (§5–§6). See DESIGN.md's per-experiment index.
//!
//! Every experiment is a plan plus a pure render ([`experiments`]), and
//! `all_experiments [NAME…]` runs them all one way: it plans the selected
//! experiments, prefetches their deduplicated union once ([`campaign`]),
//! and renders each table from those runs as an aligned text table plus
//! TSV. Run lengths, parallelism, observability and fault tolerance are
//! tuned through `EMISSARY_*` environment variables, all parsed once by
//! [`scale`] (the knob table; README "Environment variables" documents
//! each one). A malformed value stops any binary with exit status 2
//! before it touches a checkpoint.

pub mod append_log;
pub mod campaign;
pub mod checkpoint;
pub mod experiments;
pub mod metrics;
pub mod pool;
pub mod results;
pub mod scale;

pub use pool::{JobOutcome, PoolOptions};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use emissary_core::spec::PolicySpec;
use emissary_obs::{JsonlSink, MetricsRegistry, Tracer};
use emissary_sim::{
    run_sim_checked_on, FaultConfig, ObsConfig, SimAbort, SimConfig, SimReport, SimRun,
};
use emissary_workloads::{Profile, Program};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every shared-state lock in the campaign stack goes through this helper:
/// a job that panics under `catch_unwind` while holding (or racing) a memo
/// or log lock must not wedge the rest of the campaign. All guarded state
/// here is valid after an interrupted mutation (maps and vecs of owned
/// values; the worst case is one lost insertion), so adopting a poisoned
/// guard is safe.
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The default experiment configuration: Alderlake-like model, TPLRU
/// recency, run lengths from the environment.
pub fn base_config() -> SimConfig {
    SimConfig {
        warmup_instrs: scale::knobs().warmup_instrs,
        measure_instrs: scale::knobs().measure_instrs,
        ..SimConfig::default()
    }
}

/// A deliberately induced failure, for testing the harness's isolation
/// paths without corrupting real simulator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// The job panics before simulating (exercises `catch_unwind`).
    Panic,
    /// The job runs with a 1-cycle stall threshold, guaranteeing the
    /// forward-progress watchdog fires (exercises [`SimAbort::Stalled`]).
    Stall,
}

/// One simulation job: a benchmark under a configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark profile.
    pub profile: Profile,
    /// Full configuration (policy included).
    pub config: SimConfig,
    /// Optional fault-injection drill.
    pub inject: Option<FaultInjection>,
}

impl Job {
    /// Builds a job from a profile and a policy over a config template.
    pub fn new(profile: Profile, template: &SimConfig, policy: PolicySpec) -> Self {
        Self {
            profile,
            config: template.clone().with_policy(policy),
            inject: None,
        }
    }

    /// Runs the job with no fault detection and no metrics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation aborts (it cannot with fault detection
    /// disabled, as here).
    pub fn run(&self) -> SimReport {
        self.run_checked_metered(&FaultConfig::none(), None, "main")
            .expect("FaultConfig::none() disables every abort path")
            .report
    }

    /// Runs the job under a fault detector, with observability configured
    /// from the environment: `EMISSARY_SAMPLE_INTERVAL` enables interval
    /// sampling and `EMISSARY_TRACE_OUT=<dir>` streams the job's event
    /// trace to `<dir>/<config-hash>_<benchmark>_<policy>.jsonl`. The
    /// leading config hash is the job's stable fingerprint hash (see
    /// [`checkpoint::config_hash`]), so re-running a campaign overwrites
    /// each job's trace file in place instead of minting a fresh sequence
    /// number per process.
    ///
    /// Program build, warmup, and measurement host time land in
    /// `registry`'s `emissary_stage_ns_total` series under the given
    /// `worker` label (the pool passes each worker's index). `None`
    /// records no metrics.
    pub fn run_checked_metered(
        &self,
        fault: &FaultConfig,
        registry: Option<&MetricsRegistry>,
        worker: &str,
    ) -> Result<SimRun, SimAbort> {
        self.run_pinned(&mut ProgramPin::default(), fault, registry, worker)
    }

    /// [`Self::run_checked_metered`] on `pin`'s program when it is this
    /// job's, leaving this job's program pinned for the caller's next
    /// job. A `build` span is recorded only when the program comes from
    /// the store.
    pub(crate) fn run_pinned(
        &self,
        pin: &mut ProgramPin,
        fault: &FaultConfig,
        registry: Option<&MetricsRegistry>,
        worker: &str,
    ) -> Result<SimRun, SimAbort> {
        let mut fault = fault.clone();
        match self.inject {
            Some(FaultInjection::Panic) => panic!(
                "injected panic for {}/{}",
                self.profile.name, self.config.l2_policy
            ),
            Some(FaultInjection::Stall) => fault.stall_cycles = Some(1),
            None => {}
        }
        let (tracer, trace_path) = match &scale::knobs().trace_out {
            Some(dir) => {
                let path = dir.join(self.trace_file_name());
                let _ = std::fs::create_dir_all(dir);
                match std::fs::File::create(&path).map(std::io::BufWriter::new) {
                    Ok(w) => (Tracer::new(JsonlSink::new(w)), Some(path)),
                    Err(e) => {
                        // Degrade to an untraced run, but leave a record
                        // in the campaign's results file.
                        results::log_trace_error(
                            self.profile.name,
                            &self.config.l2_policy.to_string(),
                            &path.display().to_string(),
                            &e.to_string(),
                        );
                        eprintln!("trace: cannot open sink under {}: {e}", dir.display());
                        (Tracer::disabled(), None)
                    }
                }
            }
            None => (Tracer::disabled(), None),
        };
        // The guard flushes the sink and surfaces any degradation as a
        // trace_error record on *every* exit path — normal return, abort,
        // or a panic unwinding through `catch_unwind` in the pool. The
        // previous explicit flush-then-check was skipped on unwind, so a
        // sink error during the final flush at drop was silently lost.
        let guard = TraceGuard {
            tracer,
            path: trace_path,
            benchmark: self.profile.name,
            policy: self.config.l2_policy.to_string(),
        };
        let program = pin.program(&self.profile, registry, worker);
        let obs = ObsConfig::new(guard.tracer.clone(), scale::knobs().sample_interval);
        let result = run_sim_checked_on(program, &self.profile, &self.config, &obs, &fault);
        if let Some(m) = registry {
            if let Ok(run) = &result {
                let ns = |s: f64| (s * 1e9) as u64;
                metrics::record_stage(m, worker, "warmup", ns(run.warmup_seconds));
                metrics::record_stage(m, worker, "measure", ns(run.measure_seconds));
            }
        }
        result
    }

    /// The job's event-trace file name:
    /// `<config-hash>_<benchmark>_<policy>.jsonl`. A pure function of the
    /// job's config fingerprint — independent of which experiment runs
    /// the job, which process runs it, or whether it was deduplicated —
    /// so campaign-level dedup and re-runs overwrite each job's trace in
    /// place instead of scattering copies.
    pub fn trace_file_name(&self) -> String {
        format!(
            "{:016x}_{}_{}.jsonl",
            checkpoint::config_hash(self),
            sanitize(self.profile.name),
            sanitize(&self.config.l2_policy.to_string())
        )
    }
}

/// The program of the last job a pool worker simulated, held so that
/// the worker's next job on the same profile reuses it. The program store
/// keeps no program alive by itself (see [`emissary_workloads::store`]),
/// so the pins decide which programs are resident: at most one per
/// worker between jobs.
#[derive(Debug, Default)]
pub(crate) struct ProgramPin(Option<(Profile, Arc<Program>)>);

impl ProgramPin {
    /// Drops the pinned program unless it is `profile`'s.
    pub(crate) fn release_unless(&mut self, profile: &Profile) {
        if self.0.as_ref().is_some_and(|(pinned, _)| pinned != profile) {
            self.0 = None;
        }
    }

    /// `profile`'s program: the pinned one, or else the store's, which
    /// replaces the pin and is timed as a `build` span into `registry`.
    fn program(
        &mut self,
        profile: &Profile,
        registry: Option<&MetricsRegistry>,
        worker: &str,
    ) -> &Program {
        self.release_unless(profile);
        let (_, program) = self.0.get_or_insert_with(|| {
            let start = std::time::Instant::now();
            let program = profile.shared_program();
            if let Some(m) = registry {
                metrics::record_stage(m, worker, "build", metrics::elapsed_ns(start));
            }
            (profile.clone(), program)
        });
        program
    }
}

/// Flushes a job's trace sink and surfaces its error state when the job
/// ends — however it ends. Held across the simulation call so a panic
/// unwinding to the pool's `catch_unwind` still flushes and still leaves
/// a `trace_error` record, instead of the sink's `Drop` discarding the
/// final flush result.
struct TraceGuard {
    tracer: Tracer,
    path: Option<std::path::PathBuf>,
    benchmark: &'static str,
    policy: String,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        self.tracer.flush();
        if let (Some(path), Some(err)) = (&self.path, self.tracer.sink_error()) {
            results::log_trace_error(
                self.benchmark,
                &self.policy,
                &path.display().to_string(),
                &err,
            );
        }
    }
}

/// Replaces filesystem-hostile characters in policy notation
/// (`P(8):S&E&R(1/32)`) for use in trace file names.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_runs_end_to_end() {
        let cfg = SimConfig {
            warmup_instrs: 2_000,
            measure_instrs: 8_000,
            ..SimConfig::default()
        };
        let job = Job::new(
            Profile::by_name("xapian").unwrap(),
            &cfg,
            PolicySpec::BASELINE,
        );
        let r = job.run();
        assert!(r.committed >= 8_000);
    }

    #[test]
    fn injected_panic_names_the_job() {
        let job = Job {
            inject: Some(FaultInjection::Panic),
            ..Job::new(
                Profile::by_name("xapian").unwrap(),
                &SimConfig::default(),
                PolicySpec::BASELINE,
            )
        };
        let caught = std::panic::catch_unwind(|| {
            job.run_checked_metered(&FaultConfig::none(), None, "main")
        });
        let payload = caught.expect_err("injection must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("xapian/M:1"), "payload was {msg:?}");
    }

    #[test]
    fn a_full_disk_under_a_trace_sink_leaves_a_trace_error() {
        // `/dev/full` opens like a file and fails every write with
        // ENOSPC; the events sit in the sink's buffer until the guard's
        // flush, which must surface the failure.
        let path = std::path::PathBuf::from("/dev/full");
        let file = std::fs::File::create(&path).expect("open /dev/full");
        let guard = TraceGuard {
            tracer: Tracer::new(JsonlSink::new(std::io::BufWriter::new(file))),
            path: Some(path),
            benchmark: "xapian",
            policy: "M:1".to_string(),
        };
        for line in 0..16 {
            guard
                .tracer
                .emit_with(|cycle| emissary_obs::TraceEvent::PriorityMark {
                    cycle,
                    line,
                    deferred: false,
                });
        }
        drop(guard);
        // The log is process-global, so keep only this sink's entries.
        let errors: Vec<_> = results::take_trace_errors()
            .into_iter()
            .filter(|e| e.path == "/dev/full")
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(
            (errors[0].benchmark.as_str(), errors[0].policy.as_str()),
            ("xapian", "M:1")
        );
        assert!(
            errors[0].error.contains("No space left on device"),
            "{errors:?}"
        );
    }
}
