//! Campaign-level execution engine: cross-experiment job dedup and a
//! global cost-aware scheduler.
//!
//! A full reproduction sweep (`all_experiments`) is ten experiments whose
//! job matrices overlap heavily — the 13-benchmark baseline and
//! EMISSARY-preferred rows recur across fig2/fig3/fig4/fig6/fig7/table5.
//! Running the figures one at a time wastes work twice over: duplicated
//! configs re-simulate per figure, and each figure's pool is a barrier —
//! its last straggler idles every other worker before the next figure
//! starts.
//!
//! The engine removes both:
//!
//! 1. **Dedup** — [`dedup_jobs`] collapses the union of all experiments'
//!    jobs to one job per config fingerprint ([`crate::checkpoint::fingerprint`]).
//! 2. **Global scheduling** — [`prefetch`] feeds the deduped set to one
//!    pool in longest-processing-time order, so the most expensive
//!    (benchmark, policy, window) combinations start first and stragglers
//!    overlap with the tail of short jobs instead of running alone.
//!    Job cost comes from a [`CostModel`]: `warmup+measure` instructions
//!    scaled by the per-benchmark host MIPS observed so far in this
//!    process, falling back to a footprint-based estimate before any run
//!    of that benchmark completes.
//! 3. **Render from the runs** — [`prefetch_runs`] hands back every
//!    job's final outcome as [`Runs`], keyed by fingerprint, and each
//!    experiment renders its tables from them
//!    ([`crate::experiments`]) without calling the pool again. Completed
//!    runs also land in the campaign memo ([`crate::checkpoint`]), so a
//!    resumed or repeated campaign replays them instead of simulating.
//!
//! A stderr progress line (`campaign: 123/1148 jobs, 40 replayed, eta
//! 93s`) tracks long sweeps; silence it with `EMISSARY_PROGRESS=0`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::checkpoint::{fingerprint, Campaign};
use crate::pool::{run_parallel_outcomes_hooked, JobOutcome, PoolOptions};
use crate::{lock_unpoisoned, scale, Job};

/// Host-throughput estimates feeding the scheduler: observed MIPS per
/// benchmark (updated as jobs complete), with a footprint-scaled fallback
/// for benchmarks not yet measured.
///
/// Observations accumulate as fixed-point milli-MIPS sums, so the mean
/// is exact for the precisions fed to it.
#[derive(Debug, Default)]
pub struct CostModel {
    /// benchmark name → (sum of observed milli-MIPS, observation count).
    observed: Mutex<HashMap<String, (u64, u64)>>,
}

/// Baseline host MIPS assumed for a small-footprint benchmark before any
/// observation (the `BENCH_throughput.json` xapian figure, rounded down).
const FALLBACK_MIPS: f64 = 2.5;

/// Fixed-point scale for observed MIPS (milli-MIPS). At ~1e3 MIPS max,
/// the scaled sum overflows `u64` after ~1e13 observations — unreachable.
const MIPS_SCALE: f64 = 1_000.0;

impl CostModel {
    /// An empty model (footprint fallback for every benchmark).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed run's observed host MIPS for `benchmark`.
    /// Zero/negative observations (e.g. replayed runs that carried no
    /// fresh timing) are ignored.
    pub fn observe(&self, benchmark: &str, mips: f64) {
        if mips <= 0.0 {
            return;
        }
        let mut observed = lock_unpoisoned(&self.observed);
        let (sum_milli, n) = observed.entry(benchmark.to_string()).or_default();
        *sum_milli += (mips * MIPS_SCALE).round() as u64;
        *n += 1;
    }

    /// The model's current MIPS estimate for a benchmark: mean of the
    /// observations, else the footprint fallback (bigger instruction
    /// footprints miss more and simulate slower).
    pub fn mips(&self, benchmark: &str, code_kb: u32) -> f64 {
        match lock_unpoisoned(&self.observed).get(benchmark) {
            Some(&(sum_milli, n)) if n > 0 => sum_milli as f64 / MIPS_SCALE / n as f64,
            _ => FALLBACK_MIPS / (1.0 + f64::from(code_kb) / 2048.0),
        }
    }

    /// Estimated host seconds for one job: its total simulated
    /// instructions over the benchmark's estimated MIPS.
    pub fn estimate_seconds(&self, job: &Job) -> f64 {
        let instrs = job.config.warmup_instrs + job.config.measure_instrs;
        instrs as f64 / (self.mips(job.profile.name, job.profile.shape.code_kb) * 1e6)
    }
}

/// Deduplicates jobs by config fingerprint, keeping the first occurrence
/// (order is otherwise preserved). Identical configs requested by
/// different experiments are the same job.
pub fn dedup_jobs(jobs: Vec<Job>) -> Vec<Job> {
    let mut seen = HashSet::new();
    jobs.into_iter()
        .filter(|j| seen.insert(fingerprint(j)))
        .collect()
}

/// Orders jobs longest-first under the cost model (LPT scheduling). With
/// one shared pool this minimizes the idle tail: expensive jobs start
/// early and the short ones pack around them. Ties keep their input
/// order, so the ordering is deterministic.
pub fn schedule(mut jobs: Vec<Job>, model: &CostModel) -> Vec<Job> {
    let mut keyed: Vec<(f64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (model.estimate_seconds(j), i))
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut by_index: Vec<Option<Job>> = jobs.drain(..).map(Some).collect();
    keyed
        .into_iter()
        .map(|(_, i)| by_index[i].take().expect("each index scheduled once"))
        .collect()
}

/// What [`prefetch`] did: how many jobs were requested, deduped, freshly
/// simulated, replayed from the memo, and failed, plus wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchSummary {
    /// Jobs requested (before dedup).
    pub requested: usize,
    /// Unique jobs after dedup.
    pub unique: usize,
    /// Jobs freshly simulated by this prefetch.
    pub simulated: u64,
    /// Jobs served from the campaign memo/checkpoint.
    pub replayed: u64,
    /// Jobs that panicked, aborted, or were rejected.
    pub failed: u64,
    /// Host seconds the prefetch took.
    pub wall_seconds: f64,
}

/// Shared state behind the stderr progress line. Entirely atomic — the
/// per-job tick never takes a lock, so progress accounting cannot become
/// a worker convoy point.
struct Progress<'m> {
    total: usize,
    done: AtomicUsize,
    replayed: AtomicUsize,
    /// Each job's estimated cost in microseconds, fixed when the pass
    /// starts: the model keeps learning, but done and total must stay in
    /// the same units for the ETA to converge.
    cost_us: Vec<u64>,
    /// Estimated cost of completed jobs, in microseconds.
    done_cost_us: AtomicU64,
    total_cost_us: u64,
    started: Instant,
    /// Milliseconds since `started` when the last line printed; updated
    /// by CAS so exactly one worker claims each print interval.
    last_line_ms: AtomicU64,
    enabled: bool,
    model: &'m CostModel,
}

impl<'m> Progress<'m> {
    fn new(jobs: &[Job], model: &'m CostModel, enabled: bool) -> Self {
        let cost_us: Vec<u64> = jobs
            .iter()
            .map(|j| (model.estimate_seconds(j) * 1e6) as u64)
            .collect();
        Progress {
            total: jobs.len(),
            done: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            total_cost_us: cost_us.iter().sum(),
            cost_us,
            done_cost_us: AtomicU64::new(0),
            started: Instant::now(),
            last_line_ms: AtomicU64::new(0),
            enabled,
            model,
        }
    }

    /// Ticks finished job `i` and prints a throttled progress line.
    fn tick(&self, i: usize, outcome: &JobOutcome) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let mut replayed = self.replayed.load(Ordering::Relaxed);
        match outcome {
            JobOutcome::Completed { resumed: true, .. } => {
                replayed = self.replayed.fetch_add(1, Ordering::Relaxed) + 1;
            }
            JobOutcome::Completed { run, .. } => {
                self.model.observe(&run.report.benchmark, run.mips());
            }
            _ => {}
        }
        self.done_cost_us
            .fetch_add(self.cost_us[i], Ordering::Relaxed);
        if !self.enabled {
            return;
        }
        // One line per second at most (plus the final one), so a
        // thousand-job sweep does not drown stderr. The throttle is a
        // CAS on a millisecond timestamp: losers of the race (too soon,
        // or another worker claimed the interval) return without a lock.
        let now_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        if done < self.total {
            let last = self.last_line_ms.load(Ordering::Relaxed);
            if now_ms < last.saturating_add(1_000)
                || self
                    .last_line_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let done_cost = self.done_cost_us.load(Ordering::Relaxed);
        let eta = if done_cost > 0 && elapsed > 0.0 {
            let rate = done_cost as f64 / elapsed; // estimated-us per real-second
            let remaining = self.total_cost_us.saturating_sub(done_cost);
            format!(", eta {:.0}s", remaining as f64 / rate)
        } else {
            String::new()
        };
        eprintln!(
            "campaign: {done}/{} jobs, {replayed} replayed{eta}",
            self.total
        );
    }
}

/// Every planned job's final outcome, keyed by config fingerprint: what
/// the experiments render from. A render reads it and never runs a job.
#[derive(Debug, Default)]
pub struct Runs {
    outcomes: HashMap<String, JobOutcome>,
}

impl Runs {
    /// Pairs each job with its outcome, as the pool returns them (one per
    /// job, in job order). A repeated fingerprint keeps the last outcome.
    pub fn from_outcomes(jobs: &[Job], outcomes: Vec<JobOutcome>) -> Runs {
        assert_eq!(jobs.len(), outcomes.len(), "one outcome per job");
        Runs {
            outcomes: jobs.iter().map(fingerprint).zip(outcomes).collect(),
        }
    }

    /// The outcome of a planned job.
    ///
    /// # Panics
    ///
    /// Panics, naming the job, if `job` was not planned: a render that
    /// reads outside its experiment's plan is a planner bug.
    pub fn get(&self, job: &Job) -> &JobOutcome {
        let fp = fingerprint(job);
        self.outcomes.get(&fp).unwrap_or_else(|| {
            panic!("planner bug: the render read {fp}, which its experiment's plan does not list")
        })
    }
}

/// Runs the union of a campaign's jobs through one globally scheduled
/// pool: dedup → LPT order under `model` → one pass with no per-figure
/// barriers. Completed runs land in `campaign`'s memo. Failures are
/// isolated per job exactly as in [`crate::pool`].
pub fn prefetch(
    jobs: Vec<Job>,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    model: &CostModel,
) -> PrefetchSummary {
    run_unique(jobs, opts, campaign, model).0
}

/// [`prefetch`], also returning every unique job's final outcome for the
/// experiments to render from.
pub fn prefetch_runs(
    jobs: Vec<Job>,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    model: &CostModel,
) -> (PrefetchSummary, Runs) {
    let (summary, ordered, outcomes) = run_unique(jobs, opts, campaign, model);
    (summary, Runs::from_outcomes(&ordered, outcomes))
}

/// The body of [`prefetch`]: the summary, the unique jobs in the order
/// they ran, and their outcomes. Keying the outcomes by fingerprint is
/// left to [`prefetch_runs`], so a prefetch that only warms the memo
/// pays nothing for it.
fn run_unique(
    jobs: Vec<Job>,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    model: &CostModel,
) -> (PrefetchSummary, Vec<Job>, Vec<JobOutcome>) {
    let start = Instant::now();
    let requested = jobs.len();
    let ordered = schedule(dedup_jobs(jobs), model);
    let progress = Progress::new(&ordered, model, scale::knobs().progress);
    let outcomes = run_parallel_outcomes_hooked(&ordered, opts, campaign, |i, outcome| {
        progress.tick(i, outcome);
    });
    let mut summary = PrefetchSummary {
        requested,
        unique: ordered.len(),
        simulated: 0,
        replayed: 0,
        failed: 0,
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    for outcome in &outcomes {
        let count = match outcome {
            JobOutcome::Completed { resumed: true, .. } => &mut summary.replayed,
            JobOutcome::Completed { .. } => &mut summary.simulated,
            _ => &mut summary.failed,
        };
        *count += 1;
    }
    (summary, ordered, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_sim::SimConfig;
    use emissary_workloads::Profile;

    fn job(bench: &str, policy: &str, measure: u64) -> Job {
        let cfg = SimConfig {
            warmup_instrs: 500,
            measure_instrs: measure,
            ..SimConfig::default()
        };
        Job::new(
            Profile::by_name(bench).unwrap(),
            &cfg,
            policy.parse().unwrap(),
        )
    }

    #[test]
    fn dedup_keeps_first_occurrence_of_each_config() {
        let jobs = vec![
            job("xapian", "M:1", 2_000),
            job("tomcat", "M:1", 2_000),
            job("xapian", "M:1", 2_000), // dup of [0]
            job("xapian", "M:1", 4_000), // different window: distinct
            job("xapian", "M:0", 2_000), // different policy: distinct
        ];
        let unique = dedup_jobs(jobs);
        assert_eq!(unique.len(), 4);
        assert_eq!(unique[0].profile.name, "xapian");
        assert_eq!(unique[1].profile.name, "tomcat");
        assert_eq!(unique[2].config.measure_instrs, 4_000);
        assert_eq!(unique[3].config.l2_policy.to_string(), "M:0");
    }

    #[test]
    fn schedule_orders_longest_first_with_footprint_fallback() {
        // Same window: the larger-footprint benchmark (tomcat, 2.6 MB vs
        // xapian's 0.3 MB) is estimated slower, so it runs first. A much
        // longer xapian window outranks both.
        let model = CostModel::new();
        let jobs = vec![
            job("xapian", "M:1", 2_000),
            job("tomcat", "M:1", 2_000),
            job("xapian", "M:0", 400_000),
        ];
        let ordered = schedule(jobs, &model);
        assert_eq!(ordered[0].config.measure_instrs, 400_000);
        assert_eq!(ordered[1].profile.name, "tomcat");
        assert_eq!(ordered[2].profile.name, "xapian");
    }

    #[test]
    fn observed_mips_overrides_the_fallback() {
        let model = CostModel::new();
        let fallback = model.mips("xapian", 300);
        model.observe("xapian", 10.0);
        model.observe("xapian", 20.0);
        assert_eq!(model.mips("xapian", 300), 15.0);
        assert_ne!(model.mips("xapian", 300), fallback);
        // Replays carry no timing; zero observations are ignored.
        model.observe("xapian", 0.0);
        assert_eq!(model.mips("xapian", 300), 15.0);
    }

    #[test]
    fn progress_cost_stays_in_the_units_it_started_in() {
        // The model learns mid-pass; ticking every job must still add
        // up to exactly the total the ETA divides by.
        let model = CostModel::new();
        let jobs = vec![job("xapian", "M:1", 2_000), job("tomcat", "M:1", 8_000)];
        let progress = Progress::new(&jobs, &model, false);
        model.observe("xapian", 500.0);
        model.observe("tomcat", 0.01);
        for (i, j) in jobs.iter().enumerate() {
            let outcome = JobOutcome::Panicked {
                benchmark: j.profile.name.to_string(),
                policy: j.config.l2_policy.to_string(),
                message: "boom".to_string(),
            };
            progress.tick(i, &outcome);
        }
        assert_eq!(
            progress.done_cost_us.load(Ordering::Relaxed),
            progress.total_cost_us
        );
    }

    #[test]
    fn schedule_is_deterministic_on_ties() {
        let model = CostModel::new();
        let jobs = vec![
            job("xapian", "M:1", 2_000),
            job("xapian", "M:0", 2_000),
            job("xapian", "SRRIP", 2_000),
        ];
        let a: Vec<String> = schedule(jobs.clone(), &model)
            .iter()
            .map(|j| j.config.l2_policy.to_string())
            .collect();
        let b: Vec<String> = schedule(jobs, &model)
            .iter()
            .map(|j| j.config.l2_policy.to_string())
            .collect();
        assert_eq!(a, b);
        assert_eq!(a, ["M:1", "M:0", "SRRIP"]);
    }
}
