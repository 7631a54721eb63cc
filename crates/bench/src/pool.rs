//! A minimal scoped thread pool for running simulation jobs in parallel,
//! with fault isolation.
//!
//! Simulations are CPU-bound and independent; a shared atomic cursor over
//! the job list gives near-perfect load balancing without external
//! dependencies: each worker claims one job at a time with a
//! `fetch_add`, so the LPT order the campaign engine hands in also
//! balances the tail. Every job runs under `catch_unwind` plus the
//! simulator's fault detector, so one panicking, stalling, or
//! over-budget simulation produces a [`JobOutcome`] describing the
//! failure instead of tearing down the whole campaign — the worker that
//! caught it moves straight on to the next job.
//!
//! Each outcome is recorded to the campaign as its job finishes
//! ([`Campaign::record`] appends and flushes before it returns), so every
//! record is on disk before the pool returns — the visibility the
//! chaos/resume suites assume.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emissary_sim::{ConfigError, FaultConfig, SimAbort, SimRun};

use emissary_obs::MetricsRegistry;

use crate::chaos::{self, FaultPlan};
use crate::checkpoint::{self, fingerprint, Campaign};
use crate::{metrics, scale, Job};

/// Default backoff unit between retry attempts (overridable via
/// `EMISSARY_RETRY_BACKOFF_MS`): attempt `n` sleeps roughly `n × 25 ms`
/// before attempt `n + 1`, jittered deterministically per job so
/// simultaneous retries spread out (see [`chaos::retry_backoff`]). Long
/// enough to ride out transient host contention (the usual cause of a
/// retryable timeout), short enough to be invisible at campaign scale.
pub const RETRY_BACKOFF_MS: u64 = 25;

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
        /// Which attempt completed (1-based; 0 for replays, which did not
        /// execute at all this process).
        attempts: u32,
    },
    /// The job's worker caught a panic.
    Panicked {
        /// Benchmark name (job identity — the run produced no report).
        benchmark: String,
        /// L2 policy notation (job identity).
        policy: String,
        /// Rendered panic payload.
        message: String,
        /// Which attempt panicked (1-based).
        attempts: u32,
    },
    /// The fault detector aborted the run (wall-clock budget, stall
    /// watchdog, or invariant audit).
    Aborted {
        /// Benchmark name.
        benchmark: String,
        /// L2 policy notation.
        policy: String,
        /// The structured abort, including diagnostics.
        abort: SimAbort,
        /// Which attempt aborted (1-based).
        attempts: u32,
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
    /// A cooperative shutdown (SIGINT/SIGTERM) stopped scheduling before
    /// this job started. Never recorded to the checkpoint: the job is
    /// simply still pending, and `EMISSARY_RESUME=1` runs it next time.
    Interrupted {
        /// Benchmark name.
        benchmark: String,
        /// L2 policy notation.
        policy: String,
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
    /// / "rejected" / "interrupted").
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Aborted { abort, .. } => abort.kind(),
            JobOutcome::Rejected { .. } => "rejected",
            JobOutcome::Interrupted { .. } => "interrupted",
        }
    }

    /// The job's benchmark name.
    pub fn benchmark(&self) -> &str {
        match self {
            JobOutcome::Completed { run, .. } => &run.report.benchmark,
            JobOutcome::Panicked { benchmark, .. }
            | JobOutcome::Aborted { benchmark, .. }
            | JobOutcome::Rejected { benchmark, .. }
            | JobOutcome::Interrupted { benchmark, .. } => benchmark,
        }
    }

    /// The job's L2 policy notation.
    pub fn policy(&self) -> &str {
        match self {
            JobOutcome::Completed { run, .. } => &run.report.policy,
            JobOutcome::Panicked { policy, .. }
            | JobOutcome::Aborted { policy, .. }
            | JobOutcome::Rejected { policy, .. }
            | JobOutcome::Interrupted { policy, .. } => policy,
        }
    }

    /// How many execution attempts this outcome represents (1-based; 0
    /// for checkpoint replays and interrupted jobs, which never ran, and
    /// 1 for rejections, which were refused before running).
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { attempts, .. }
            | JobOutcome::Panicked { attempts, .. }
            | JobOutcome::Aborted { attempts, .. } => *attempts,
            JobOutcome::Rejected { .. } => 1,
            JobOutcome::Interrupted { .. } => 0,
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
            JobOutcome::Interrupted { .. } => {
                "interrupted: cooperative shutdown before the job started".to_string()
            }
        }
    }
}

/// Pool-wide execution options. Unlike [`FaultConfig`], the wall-clock
/// budget here is per *job*: each job's deadline starts when a worker
/// picks it up.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads (clamped to the job count).
    pub workers: usize,
    /// Per-job wall-clock budget (per *attempt* under retry: each attempt
    /// gets a fresh deadline).
    pub timeout: Option<Duration>,
    /// Forward-progress watchdog threshold in cycles (`None` disables).
    pub stall_cycles: Option<u64>,
    /// Run the invariant auditor at epoch boundaries.
    pub audit: bool,
    /// Retry budget for panicked / retryable-aborted jobs: a job runs at
    /// most `1 + retries` attempts, with deterministic jittered backoff
    /// ([`chaos::retry_backoff`]) between them.
    pub retries: u32,
    /// Backoff base in milliseconds between retry attempts
    /// (`EMISSARY_RETRY_BACKOFF_MS`, default [`RETRY_BACKOFF_MS`]; `0`
    /// disables the sleep).
    pub backoff_ms: u64,
    /// Chaos fault plan injecting job panics/stalls ([`FaultPlan::job_fault`]);
    /// `None` disables job-level injection.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl PoolOptions {
    /// The options the process's knobs ([`scale::knobs`]) describe:
    /// threads, job budget, watchdog, audit, retry, backoff, and the
    /// chaos plan.
    pub fn from_env() -> Self {
        let k = scale::knobs();
        Self {
            workers: k.threads,
            timeout: k.job_timeout_ms.map(Duration::from_millis),
            stall_cycles: k.stall_cycles,
            audit: k.audit,
            retries: k.job_retries,
            backoff_ms: k.retry_backoff_ms,
            chaos: chaos::plan_from_env(),
        }
    }

    /// Explicit worker count, no budget, default watchdog, no audit, no
    /// retry, no chaos — the deterministic test/legacy configuration.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            timeout: None,
            stall_cycles: Some(emissary_sim::fault::DEFAULT_STALL_CYCLES),
            audit: false,
            retries: 0,
            backoff_ms: RETRY_BACKOFF_MS,
            chaos: None,
        }
    }

    fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            deadline: self.timeout.map(|t| Instant::now() + t),
            stall_cycles: self.stall_cycles,
            audit: self.audit,
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
/// collected. The campaign engine uses this for progress reporting and
/// for feeding observed per-benchmark throughput back into its cost
/// model; the hook must not panic.
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
    let mut slots: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    // Workers collect (index, outcome) pairs locally; results are written
    // back single-threaded after the scope joins.
    let hook = &hook;
    let results: Vec<(usize, JobOutcome)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                // Metrics are recorded at job boundaries and at exit;
                // nothing here executes inside the cycle loop.
                let registry = metrics::registry();
                let worker = w.to_string();
                let wall_start = Instant::now();
                let mut busy_ns = 0u64;
                let mut local = Vec::new();
                // Cooperative shutdown: stop claiming jobs; everything
                // already completed is in the checkpoint, and unclaimed
                // jobs surface as `Interrupted` outcomes.
                while !chaos::shutdown_requested() {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let job_start = Instant::now();
                    let outcome = run_job(job, opts, campaign, registry, &worker);
                    let job_ns = metrics::elapsed_ns(job_start);
                    busy_ns += job_ns;
                    if let Some(m) = registry {
                        m.observe(metrics::JOB_NS, &[("worker", &worker)], job_ns);
                        m.add_counter(
                            metrics::JOBS_TOTAL,
                            &[("worker", &worker), ("status", outcome.status())],
                            1,
                        );
                    }
                    hook(i, &outcome);
                    local.push((i, outcome));
                }
                if let Some(m) = registry {
                    m.add_counter(metrics::WORKER_BUSY_NS, &[("worker", &worker)], busy_ns);
                    m.add_counter(
                        metrics::WORKER_WALL_NS,
                        &[("worker", &worker)],
                        metrics::elapsed_ns(wall_start),
                    );
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panics are caught per job"))
            .collect()
    });
    for (i, r) in results {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            // A slot is empty only when shutdown stopped the workers
            // before this job was claimed.
            s.unwrap_or_else(|| JobOutcome::Interrupted {
                benchmark: jobs[i].profile.name.to_string(),
                policy: jobs[i].config.l2_policy.to_string(),
            })
        })
        .collect()
}

/// Executes one job under the full isolation stack (checkpoint replay →
/// validation → catch_unwind + fault detector → bounded retry) and
/// records the outcome. Pool workers run every job through this; `worker`
/// labels the per-stage metric spans recorded into `registry` (`None`
/// records nothing; see [`crate::metrics::registry`]).
///
/// Panicked and retryable-aborted attempts (see [`SimAbort::retryable`])
/// are retried up to `opts.retries` times with deterministic backoff;
/// each failed-but-retried attempt is recorded to the checkpoint before
/// the next attempt, so the attempt history survives there even when the
/// job eventually completes. The returned outcome is the final one.
fn run_job(
    job: &Job,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    registry: Option<&'static MetricsRegistry>,
    worker: &str,
) -> JobOutcome {
    let fp = fingerprint(job);
    if let Some(run) = campaign.and_then(|c| c.cached(&fp)) {
        return JobOutcome::Completed {
            run: Box::new(run),
            resumed: true,
            attempts: 0,
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
        let hash = checkpoint::config_hash(job);
        let max_attempts = opts.retries.saturating_add(1);
        let mut attempt: u32 = 1;
        loop {
            // Chaos injects per (config, attempt): retries of a chaos-hit
            // job roll a fresh, still-deterministic decision.
            let mut attempt_job = job.clone();
            if attempt_job.inject.is_none() {
                if let Some(plan) = &opts.chaos {
                    attempt_job.inject = plan.job_fault(hash, attempt);
                }
            }
            // The job only reads its inputs and builds all simulator
            // state locally, so resuming the pool after a caught panic
            // cannot observe broken invariants.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                attempt_job.run_checked_metered(&opts.fault_config(), registry, worker)
            })) {
                Ok(Ok(run)) => JobOutcome::Completed {
                    run: Box::new(run),
                    resumed: false,
                    attempts: attempt,
                },
                Ok(Err(abort)) => JobOutcome::Aborted {
                    benchmark: benchmark.clone(),
                    policy: policy.clone(),
                    abort,
                    attempts: attempt,
                },
                Err(payload) => JobOutcome::Panicked {
                    benchmark: benchmark.clone(),
                    policy: policy.clone(),
                    message: panic_message(payload.as_ref()),
                    attempts: attempt,
                },
            };
            let retryable = match &outcome {
                JobOutcome::Panicked { .. } => true,
                JobOutcome::Aborted { abort, .. } => abort.retryable(),
                _ => false,
            };
            if !retryable || attempt >= max_attempts {
                break outcome;
            }
            if let Some(c) = campaign {
                let t0 = Instant::now();
                c.record(&fp, &outcome);
                metrics::record_stage(registry, worker, "checkpoint", metrics::elapsed_ns(t0));
            }
            eprintln!(
                "pool: {benchmark}/{policy} attempt {attempt} {}; retrying ({}/{max_attempts})",
                outcome.status(),
                attempt + 1
            );
            std::thread::sleep(chaos::retry_backoff(
                opts.backoff_ms,
                attempt,
                hash,
                opts.chaos.as_deref(),
            ));
            attempt += 1;
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
        // Four workers racing on the cursor: every slot must be filled,
        // with no job skipped (an empty slot would surface as
        // `Interrupted`).
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
    fn expired_job_budget_times_out() {
        let jobs = quick_jobs(1);
        let mut opts = PoolOptions::with_workers(1);
        opts.timeout = Some(Duration::ZERO);
        let outcomes = run_parallel_outcomes_with(&jobs, &opts, None);
        assert_eq!(outcomes[0].status(), "timeout");
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
