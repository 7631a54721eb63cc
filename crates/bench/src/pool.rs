//! A minimal scoped thread pool for running simulation jobs in parallel,
//! with fault isolation.
//!
//! Simulations are CPU-bound and independent; a shared atomic cursor over
//! the job list gives near-perfect load balancing without external
//! dependencies: each worker claims one job at a time with a
//! `fetch_add`, so the LPT order the campaign engine hands in also
//! balances the tail. Every job runs under `catch_unwind` plus the
//! simulator's fault detector, so one panicking, stalling or
//! audit-failing simulation produces a [`JobOutcome`] describing the
//! failure instead of tearing down the whole campaign — the worker that
//! caught it moves straight on to the next job.
//!
//! Each job runs once. A job's outcome is a pure function of its config,
//! so running it again in the same process would fail the same way; a
//! failed job is recovered by resuming the campaign
//! (`EMISSARY_RESUME=1`), which re-runs exactly the jobs that did not
//! complete.
//!
//! Each worker pins the program of the last job it simulated and drops
//! the pin when it claims a job on another profile, so a run of jobs on
//! one profile builds its program once and a worker holds at most one
//! program between jobs. Replays from the checkpoint build nothing. The
//! campaign scheduler keeps each profile's jobs contiguous
//! ([`crate::campaign::schedule`]), which is what makes the pins hit.
//!
//! Each outcome is recorded to the campaign as its job finishes
//! ([`Campaign::record`] appends and flushes before it returns), so every
//! record is on disk before the pool returns — the visibility the
//! recovery and resume suites assume.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use emissary_sim::{ConfigError, FaultConfig, SimAbort, SimRun};

use emissary_obs::metrics::global;
use emissary_obs::MetricsRegistry;

use crate::checkpoint::{fingerprint, Campaign};
use crate::{metrics, scale, Job, ProgramPin};

/// What happened to one pool job. The pool always returns one outcome per
/// job, in job order — failures never drop rows or abort the campaign.
#[derive(Debug)]
pub enum JobOutcome {
    /// The simulation ran to completion (possibly replayed from the
    /// campaign checkpoint, in which case `resumed` is set).
    Completed {
        /// The run and its observability by-products (boxed — a `SimRun`
        /// dwarfs the failure variants).
        run: Box<SimRun>,
        /// Replayed from a checkpoint instead of simulated.
        resumed: bool,
    },
    /// The job's worker caught a panic.
    Panicked {
        /// Benchmark name (job identity — the run produced no report).
        benchmark: String,
        /// L2 policy notation (job identity).
        policy: String,
        /// Rendered panic payload.
        message: String,
    },
    /// The fault detector aborted the run (stall watchdog or invariant
    /// audit).
    Aborted {
        /// Benchmark name.
        benchmark: String,
        /// L2 policy notation.
        policy: String,
        /// The structured abort, including diagnostics.
        abort: SimAbort,
    },
    /// Config validation rejected the job before it ran.
    Rejected {
        /// Benchmark name.
        benchmark: String,
        /// L2 policy notation.
        policy: String,
        /// Why the configuration is degenerate.
        error: ConfigError,
    },
}

impl JobOutcome {
    /// The completed run, if any.
    pub fn run(&self) -> Option<&SimRun> {
        match self {
            JobOutcome::Completed { run, .. } => Some(run),
            _ => None,
        }
    }

    /// Consumes the outcome into its completed run, if any.
    pub fn into_run(self) -> Option<SimRun> {
        match self {
            JobOutcome::Completed { run, .. } => Some(*run),
            _ => None,
        }
    }

    /// Machine-readable status ("completed" / "panicked" / the abort kind
    /// / "rejected").
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Aborted { abort, .. } => abort.kind(),
            JobOutcome::Rejected { .. } => "rejected",
        }
    }

    /// The job's benchmark name.
    pub fn benchmark(&self) -> &str {
        match self {
            JobOutcome::Completed { run, .. } => &run.report.benchmark,
            JobOutcome::Panicked { benchmark, .. }
            | JobOutcome::Aborted { benchmark, .. }
            | JobOutcome::Rejected { benchmark, .. } => benchmark,
        }
    }

    /// The job's L2 policy notation.
    pub fn policy(&self) -> &str {
        match self {
            JobOutcome::Completed { run, .. } => &run.report.policy,
            JobOutcome::Panicked { policy, .. }
            | JobOutcome::Aborted { policy, .. }
            | JobOutcome::Rejected { policy, .. } => policy,
        }
    }

    /// One-line human-readable description of a failure (empty for
    /// completed runs).
    pub fn describe(&self) -> String {
        match self {
            JobOutcome::Completed { .. } => String::new(),
            JobOutcome::Panicked { message, .. } => format!("panicked: {message}"),
            JobOutcome::Aborted { abort, .. } => abort.to_string(),
            JobOutcome::Rejected { error, .. } => error.to_string(),
        }
    }
}

/// Pool-wide execution options. Every job runs under the
/// forward-progress watchdog at
/// [`emissary_sim::fault::DEFAULT_STALL_CYCLES`].
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads (clamped to the job count).
    pub workers: usize,
    /// Run the invariant auditor at epoch boundaries.
    pub audit: bool,
}

impl PoolOptions {
    /// The options the process's knobs ([`scale::knobs`]) describe:
    /// threads and audit.
    pub fn from_env() -> Self {
        let k = scale::knobs();
        Self {
            workers: k.threads,
            audit: k.audit,
        }
    }

    /// Explicit worker count, no audit — the deterministic test
    /// configuration.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            audit: false,
        }
    }

    fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            audit: self.audit,
            ..FaultConfig::watchdog()
        }
    }
}

/// Runs all jobs on `opts.workers` threads under fault isolation:
///
/// 1. jobs whose fingerprint is completed in `campaign` are replayed from
///    the checkpoint without simulating;
/// 2. jobs failing [`emissary_sim::SimConfig::validate`] are rejected
///    up front;
/// 3. everything else runs under `catch_unwind` and the fault detector.
///
/// Every fresh outcome (success or failure) is recorded to `campaign` as
/// it finishes. The returned vector has exactly one outcome per job, in
/// job order.
pub fn run_parallel_outcomes_with(
    jobs: &[Job],
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
) -> Vec<JobOutcome> {
    run_parallel_outcomes_hooked(jobs, opts, campaign, |_, _| {})
}

/// [`run_parallel_outcomes_with`] invoking `hook(index, outcome)` from
/// the worker thread as each job finishes, before the outcome is
/// collected. The campaign engine uses this for progress reporting; the
/// hook must not panic.
pub fn run_parallel_outcomes_hooked(
    jobs: &[Job],
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    hook: impl Fn(usize, &JobOutcome) + Sync,
) -> Vec<JobOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = opts.workers.clamp(1, jobs.len());
    let cursor = AtomicUsize::new(0);
    // Workers collect (index, outcome) pairs locally; results are put
    // back in job order single-threaded after the scope joins.
    let hook = &hook;
    let mut results: Vec<(usize, JobOutcome)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                // Metrics are recorded at job boundaries and at exit;
                // nothing here executes inside the cycle loop.
                let registry = global();
                let worker = w.to_string();
                let wall_start = Instant::now();
                let mut busy_ns = 0u64;
                let mut local = Vec::new();
                let mut pin = ProgramPin::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    pin.release_unless(&job.profile);
                    let job_start = Instant::now();
                    let outcome = run_job(job, &mut pin, opts, campaign, registry, &worker);
                    busy_ns += metrics::elapsed_ns(job_start);
                    registry.add_counter(
                        metrics::JOBS_TOTAL,
                        &[("worker", &worker), ("status", outcome.status())],
                        1,
                    );
                    hook(i, &outcome);
                    local.push((i, outcome));
                }
                registry.add_counter(metrics::WORKER_BUSY_NS, &[("worker", &worker)], busy_ns);
                registry.add_counter(
                    metrics::WORKER_WALL_NS,
                    &[("worker", &worker)],
                    metrics::elapsed_ns(wall_start),
                );
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panics are caught per job"))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    assert_eq!(results.len(), jobs.len(), "every job is claimed once");
    results.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Executes one job under the full isolation stack (checkpoint replay →
/// validation → catch_unwind + fault detector) and records the outcome.
/// Pool workers run every job through this, simulating on the worker's
/// `pin`; `worker` labels the per-stage metric spans recorded into
/// `registry`.
fn run_job(
    job: &Job,
    pin: &mut ProgramPin,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    registry: &MetricsRegistry,
    worker: &str,
) -> JobOutcome {
    let fp = fingerprint(job);
    if let Some(run) = campaign.and_then(|c| c.cached(&fp)) {
        return JobOutcome::Completed {
            run: Box::new(run),
            resumed: true,
        };
    }
    let benchmark = job.profile.name.to_string();
    let policy = job.config.l2_policy.to_string();
    let outcome = if let Err(error) = job.config.validate() {
        JobOutcome::Rejected {
            benchmark,
            policy,
            error,
        }
    } else {
        // The job only reads its inputs and builds all simulator state
        // locally, so resuming the pool after a caught panic cannot
        // observe broken invariants.
        match catch_unwind(AssertUnwindSafe(|| {
            job.run_pinned(pin, &opts.fault_config(), Some(registry), worker)
        })) {
            Ok(Ok(run)) => JobOutcome::Completed {
                run: Box::new(run),
                resumed: false,
            },
            Ok(Err(abort)) => JobOutcome::Aborted {
                benchmark,
                policy,
                abort,
            },
            Err(payload) => JobOutcome::Panicked {
                benchmark,
                policy,
                message: panic_message(payload.as_ref()),
            },
        }
    };
    if let Some(c) = campaign {
        let t0 = Instant::now();
        c.record(&fp, &outcome);
        metrics::record_stage(registry, worker, "checkpoint", metrics::elapsed_ns(t0));
    }
    outcome
}

/// Renders a caught panic payload (the two shapes `panic!` produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultInjection;
    use emissary_core::spec::PolicySpec;
    use emissary_sim::SimConfig;
    use emissary_workloads::Profile;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 5_000,
            ..SimConfig::default()
        }
    }

    fn quick_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|_| {
                Job::new(
                    Profile::by_name("xapian").unwrap(),
                    &quick_cfg(),
                    PolicySpec::BASELINE,
                )
            })
            .collect()
    }

    #[test]
    fn preserves_job_order_and_count() {
        let jobs = quick_jobs(5);
        let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(3), None);
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert_eq!(o.run().expect("completed").report.benchmark, "xapian");
        }
    }

    #[test]
    fn empty_jobs_return_empty() {
        assert!(run_parallel_outcomes_with(&[], &PoolOptions::with_workers(2), None).is_empty());
    }

    #[test]
    fn parallel_equals_serial() {
        let jobs = quick_jobs(3);
        let serial: Vec<u64> = jobs.iter().map(|j| j.run().cycles).collect();
        let parallel: Vec<u64> =
            run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(3), None)
                .iter()
                .map(|o| o.run().expect("completed").report.cycles)
                .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn claiming_covers_every_job_exactly_once() {
        // Four workers racing on the cursor: every job must come back
        // completed, none skipped or run twice.
        let jobs = quick_jobs(40);
        let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(4), None);
        assert_eq!(outcomes.len(), 40);
        assert!(outcomes.iter().all(|o| o.status() == "completed"));
    }

    #[test]
    fn injected_panic_is_isolated_and_workers_survive() {
        // worker 1, jobs [panic, ok, panic, ok]: the single worker must
        // survive both panics and still complete the healthy jobs.
        let mut jobs = quick_jobs(4);
        jobs[0].inject = Some(FaultInjection::Panic);
        jobs[2].inject = Some(FaultInjection::Panic);
        let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(1), None);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].status(), "panicked");
        assert_eq!(outcomes[1].status(), "completed");
        assert_eq!(outcomes[2].status(), "panicked");
        assert_eq!(outcomes[3].status(), "completed");
        assert_eq!(outcomes[0].benchmark(), "xapian");
        assert!(outcomes[0].describe().contains("injected panic"));
    }

    #[test]
    fn injected_stall_aborts_without_poisoning_the_pool() {
        let mut jobs = quick_jobs(3);
        jobs[1].inject = Some(FaultInjection::Stall);
        let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(2), None);
        assert_eq!(outcomes[0].status(), "completed");
        assert_eq!(outcomes[1].status(), "stalled");
        assert!(outcomes[1].describe().contains("no commit"));
        assert_eq!(outcomes[2].status(), "completed");
    }

    #[test]
    fn degenerate_config_is_rejected_up_front() {
        let mut jobs = quick_jobs(1);
        jobs[0].config.measure_instrs = 0;
        let outcomes = run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(1), None);
        assert_eq!(outcomes[0].status(), "rejected");
        assert!(outcomes[0].describe().contains("measure_instrs"));
    }

    #[test]
    fn parallel_equals_serial_for_mixed_outcomes() {
        let mut jobs = quick_jobs(4);
        jobs[1].inject = Some(FaultInjection::Panic);
        jobs[2].config.measure_instrs = 0;
        let serial: Vec<(String, Option<u64>)> =
            run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(1), None)
                .iter()
                .map(|o| (o.status().to_string(), o.run().map(|r| r.report.cycles)))
                .collect();
        let parallel: Vec<(String, Option<u64>)> =
            run_parallel_outcomes_with(&jobs, &PoolOptions::with_workers(4), None)
                .iter()
                .map(|o| (o.status().to_string(), o.run().map(|r| r.report.cycles)))
                .collect();
        assert_eq!(serial, parallel);
        assert_eq!(serial[0].0, "completed");
        assert_eq!(serial[1].0, "panicked");
        assert_eq!(serial[2].0, "rejected");
        assert_eq!(serial[3].0, "completed");
    }
}
