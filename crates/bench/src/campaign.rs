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
//!    over a host MIPS estimate that falls with the benchmark's
//!    instruction footprint.
//! 3. **Render from the runs** — [`prefetch_runs`] hands back every
//!    job's final outcome as [`Runs`], keyed by fingerprint, and each
//!    experiment renders its tables from them
//!    ([`crate::experiments`]) without calling the pool again. Completed
//!    runs also land in the campaign memo ([`crate::checkpoint`]), so a
//!    resumed or repeated campaign replays them instead of simulating.
//!
//! [`run_plan`] wraps the three around one checkpoint, the results
//! files and the stderr summary; it is how both binaries
//! (`all_experiments` and the `emissary` CLI) run their jobs.
//!
//! A stderr progress line (`campaign: 123/1148 jobs, 40 replayed, eta
//! 93s`) tracks long sweeps; silence it with `EMISSARY_PROGRESS=0`.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use emissary_obs::metrics::global;
use emissary_workloads::Profile;

use crate::checkpoint::{fingerprint, Campaign, UNIFIED_CAMPAIGN};
use crate::pool::{run_parallel_outcomes_hooked, JobOutcome, PoolOptions};
use crate::{metrics, results, scale, Job};

/// The scheduler's job-cost estimate: a pure function of the job. The
/// whole schedule is fixed before any job finishes, so nothing a pass
/// observes could change it.
#[derive(Debug, Default)]
pub struct CostModel;

/// Host MIPS assumed for a small-footprint benchmark (the
/// `BENCH_throughput.json` xapian figure, rounded down).
const SMALL_FOOTPRINT_MIPS: f64 = 2.5;

impl CostModel {
    /// The model (it holds no state).
    pub fn new() -> Self {
        Self
    }

    /// Estimated host seconds for one job: its total simulated
    /// instructions over a host MIPS that falls as the benchmark's
    /// instruction footprint grows (bigger footprints miss more and
    /// simulate slower).
    pub fn estimate_seconds(&self, job: &Job) -> f64 {
        let instrs = job.config.warmup_instrs + job.config.measure_instrs;
        let mips = SMALL_FOOTPRINT_MIPS / (1.0 + f64::from(job.profile.shape.code_kb) / 2048.0);
        instrs as f64 / (mips * 1e6)
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
/// early and the short ones pack around them. Cost ties go by profile, in
/// order of first appearance, then by input order: each profile's
/// equal-cost jobs run back to back, so a pool worker's pinned program
/// serves them all ([`crate::pool`]), and the ordering is deterministic.
pub fn schedule(mut jobs: Vec<Job>, model: &CostModel) -> Vec<Job> {
    let mut profiles: Vec<&Profile> = Vec::new();
    let mut keyed: Vec<(f64, usize, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let rank = match profiles.iter().position(|p| **p == j.profile) {
                Some(rank) => rank,
                None => {
                    profiles.push(&j.profile);
                    profiles.len() - 1
                }
            };
            (model.estimate_seconds(j), rank, i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
    let mut by_index: Vec<Option<Job>> = jobs.drain(..).map(Some).collect();
    keyed
        .into_iter()
        .map(|(_, _, i)| by_index[i].take().expect("each index scheduled once"))
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
struct Progress {
    total: usize,
    done: AtomicUsize,
    replayed: AtomicUsize,
    /// Each job's estimated cost in microseconds.
    cost_us: Vec<u64>,
    /// Estimated cost of completed jobs, in microseconds.
    done_cost_us: AtomicU64,
    total_cost_us: u64,
    started: Instant,
    /// Milliseconds since `started` when the last line printed; updated
    /// by CAS so exactly one worker claims each print interval.
    last_line_ms: AtomicU64,
    enabled: bool,
}

impl Progress {
    fn new(jobs: &[Job], model: &CostModel, enabled: bool) -> Self {
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
        }
    }

    /// Ticks finished job `i` and prints a throttled progress line.
    fn tick(&self, i: usize, outcome: &JobOutcome) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let replayed = if let JobOutcome::Completed { resumed: true, .. } = outcome {
            self.replayed.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.replayed.load(Ordering::Relaxed)
        };
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

/// Runs `plan` as one campaign and hands its runs to `render`: the one
/// way the `all_experiments` and `emissary` binaries run a job.
///
/// Resolves the knobs first, so a malformed value exits 2 before the
/// unified checkpoint (`results/campaign.ckpt.jsonl`, replayed under
/// `EMISSARY_RESUME=1`) is opened. Then it prefetches the plan on the
/// knobs' pool ([`prefetch_runs`]), writes the run's fault records
/// ([`results::write_campaign_faults`]), calls `render`, and closes with
/// the `campaign summary:` line on stderr and the run's metrics snapshot
/// ([`metrics::path`]).
///
/// `run` names those two files. The sweep passes [`UNIFIED_CAMPAIGN`]
/// (`results/campaign.jsonl` and `results/metrics.jsonl`, which CI and
/// `emissary-inspect` read); any other name keeps a command from
/// replacing the sweep's files. Every run shares the checkpoint, so each
/// replays the jobs the others completed.
pub fn run_plan(run: &str, plan: Vec<Job>, render: impl FnOnce(&Runs)) -> PrefetchSummary {
    let start = Instant::now();
    let resume = scale::knobs().resume;
    let campaign = Campaign::begin_with(UNIFIED_CAMPAIGN, Path::new("results"), resume);
    if campaign.resumable() > 0 || campaign.quarantined() > 0 {
        eprintln!(
            "checkpoint: {UNIFIED_CAMPAIGN}: {} completed record(s) loaded for resume, \
             {} unusable line(s) quarantined",
            campaign.resumable(),
            campaign.quarantined()
        );
    }
    let opts = PoolOptions::from_env();
    let (prefetch, runs) = prefetch_runs(plan, &opts, Some(&campaign), &CostModel::new());
    let PrefetchSummary {
        requested,
        unique,
        simulated,
        replayed,
        failed,
        wall_seconds,
    } = prefetch;
    eprintln!(
        "campaign: prefetched {unique} unique of {requested} requested jobs \
         ({simulated} simulated, {replayed} replayed, {failed} failed) in {wall_seconds:.1}s"
    );
    results::write_campaign_faults(run);
    render(&runs);
    // Metrics aggregates append strictly after the pre-existing fields:
    // CI's campaign-smoke job greps this line for ` failed=0 ` and
    // ` replayed=N`. Dedup runs before the pool, so `replayed` counts
    // exactly the unique jobs served from the loaded checkpoint.
    let (quarantined, wall) = (campaign.quarantined(), start.elapsed().as_secs_f64());
    eprintln!(
        "campaign summary: requests={requested} unique={unique} simulated={simulated} \
         replayed={replayed} failed={failed} ckpt_quarantined={quarantined} wall={wall:.1}s{}",
        metrics::summary_suffix()
    );
    let path = metrics::path(run);
    match metrics::write_jsonl(&path, &global().snapshot()) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
    prefetch
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
    fn estimate_depends_on_window_and_footprint_only() {
        let model = CostModel::new();
        let est = |bench: &str, policy: &str, measure: u64| {
            model.estimate_seconds(&job(bench, policy, measure))
        };
        // 2.5 MIPS scaled down by xapian's footprint, over 500 + 1500
        // instructions.
        let code_kb = f64::from(Profile::by_name("xapian").unwrap().shape.code_kb);
        let mips = 2.5 / (1.0 + code_kb / 2048.0);
        assert_eq!(est("xapian", "M:1", 1_500), 2_000.0 / (mips * 1e6));
        assert_eq!(est("xapian", "M:1", 2_000), est("xapian", "SRRIP", 2_000));
        assert!(est("tomcat", "M:1", 2_000) > est("xapian", "M:1", 2_000));
    }

    #[test]
    fn progress_cost_adds_up_to_its_total() {
        // Ticking every job must add up to exactly the total the ETA
        // divides by.
        let model = CostModel::new();
        let jobs = vec![job("xapian", "M:1", 2_000), job("tomcat", "M:1", 8_000)];
        let progress = Progress::new(&jobs, &model, false);
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

    #[test]
    fn schedule_keeps_each_profiles_ties_together() {
        // data-serving and speedometer2.0 share a footprint, so their
        // jobs cost the same: the first-seen profile's run first, each
        // in input order, and the longer window still leads.
        let model = CostModel::new();
        let jobs = vec![
            job("data-serving", "M:1", 2_000),
            job("speedometer2.0", "M:1", 2_000),
            job("data-serving", "M:0", 2_000),
            job("speedometer2.0", "M:0", 2_000),
            job("speedometer2.0", "SRRIP", 4_000),
        ];
        assert_eq!(
            model.estimate_seconds(&jobs[0]),
            model.estimate_seconds(&jobs[1])
        );
        let order: Vec<String> = schedule(jobs, &model)
            .iter()
            .map(|j| format!("{}/{}", j.profile.name, j.config.l2_policy))
            .collect();
        assert_eq!(
            order,
            [
                "speedometer2.0/SRRIP",
                "data-serving/M:1",
                "data-serving/M:0",
                "speedometer2.0/M:1",
                "speedometer2.0/M:0",
            ]
        );
    }
}
