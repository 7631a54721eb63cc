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
//!    jobs to one job per config fingerprint ([`checkpoint::fingerprint`]).
//! 2. **Global scheduling** — [`prefetch`] feeds the deduped set to one
//!    pool in longest-processing-time order, so the most expensive
//!    (benchmark, policy, window) combinations start first and stragglers
//!    overlap with the tail of short jobs instead of running alone.
//!    Job cost comes from a [`CostModel`]: `warmup+measure` instructions
//!    scaled by the per-benchmark host MIPS observed so far in this
//!    process, falling back to a footprint-based estimate before any run
//!    of that benchmark completes.
//! 3. **Replay** — completed runs land in the campaign memo
//!    ([`crate::checkpoint`]), so when each experiment then renders its
//!    tables through the ordinary per-figure path, every job replays
//!    bit-identically from the memo and simulates nothing.
//!
//! A stderr progress line (`campaign: 123/1148 jobs, 40 replayed, eta
//! 93s`) tracks long sweeps; silence it with `EMISSARY_PROGRESS=0`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::checkpoint::{self, Campaign};
use crate::pool::{run_parallel_outcomes_hooked, JobOutcome, PoolOptions};
use crate::shard::SlotRegistry;
use crate::{scale, Job};

/// Host-throughput estimates feeding the scheduler: observed MIPS per
/// benchmark (updated as jobs complete), with a footprint-scaled fallback
/// for benchmarks not yet measured.
///
/// Observations accumulate in lock-free [`SlotRegistry`] slots as
/// fixed-point milli-MIPS (cell A = scaled sum, cell B = count), so
/// workers recording a finished run never contend on a mutex.
#[derive(Debug, Default)]
pub struct CostModel {
    /// benchmark name → (sum of observed milli-MIPS, observation count).
    observed: SlotRegistry,
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
        self.observed
            .add_pair(benchmark, (mips * MIPS_SCALE).round() as u64, 1);
    }

    /// The model's current MIPS estimate for a benchmark: mean of the
    /// observations, else the footprint fallback (bigger instruction
    /// footprints miss more and simulate slower).
    pub fn mips(&self, benchmark: &str, code_kb: u32) -> f64 {
        match self.observed.get_pair(benchmark) {
            Some((sum_milli, n)) if n > 0 => sum_milli as f64 / MIPS_SCALE / n as f64,
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
        .filter(|j| seen.insert(checkpoint::fingerprint(j)))
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
    /// Jobs never started because a cooperative shutdown stopped the
    /// pool; they remain pending and run on the next `EMISSARY_RESUME=1`.
    pub interrupted: u64,
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
    /// Estimated cost of completed jobs, in microseconds (atomic f64
    /// stand-in; precision loss is irrelevant for an ETA).
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
        let total_cost_us = jobs
            .iter()
            .map(|j| (model.estimate_seconds(j) * 1e6) as u64)
            .sum();
        Progress {
            total: jobs.len(),
            done: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            done_cost_us: AtomicU64::new(0),
            total_cost_us,
            started: Instant::now(),
            last_line_ms: AtomicU64::new(0),
            enabled,
            model,
        }
    }

    /// Ticks one finished job and prints a throttled progress line.
    fn tick(&self, job: &Job, outcome: &JobOutcome) {
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
        self.done_cost_us.fetch_add(
            (self.model.estimate_seconds(job) * 1e6) as u64,
            Ordering::Relaxed,
        );
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

/// Runs the union of a campaign's jobs through one globally scheduled
/// pool: dedup → LPT order under `model` → one pass with no per-figure
/// barriers. Completed runs land in `campaign`'s memo, so subsequent
/// per-experiment pools replay instead of simulating. Failures are
/// isolated per job exactly as in [`crate::pool`]; the experiments
/// re-encounter (and report) them when they run.
pub fn prefetch(
    jobs: Vec<Job>,
    opts: &PoolOptions,
    campaign: Option<&Campaign>,
    model: &CostModel,
) -> PrefetchSummary {
    let start = Instant::now();
    let requested = jobs.len();
    let unique = dedup_jobs(jobs);
    let unique_count = unique.len();
    let ordered = schedule(unique, model);
    let before = checkpoint::counters();
    let progress = Progress::new(&ordered, model, scale::knobs().progress);
    let outcomes = run_parallel_outcomes_hooked(&ordered, opts, campaign, |i, outcome| {
        progress.tick(&ordered[i], outcome);
    });
    let interrupted = outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Interrupted { .. }))
        .count() as u64;
    let after = checkpoint::counters();
    PrefetchSummary {
        requested,
        unique: unique_count,
        simulated: after.simulated - before.simulated,
        replayed: after.replayed - before.replayed,
        failed: after.failed - before.failed,
        interrupted,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
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
