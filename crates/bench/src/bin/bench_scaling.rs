//! Thread-scaling harness: the same job matrix at several worker counts.
//!
//! Runs all 13 profiles × {baseline, preferred EMISSARY} once per thread
//! count (default `1 2 4 <available parallelism>`, or the counts given as
//! CLI arguments), with the campaign memo disabled so every round really
//! simulates. Each round's aggregate throughput (MIPS over round wall
//! time) and per-stage span totals (from the metrics registry) land in
//! `BENCH_scaling.json`, and the round's full Prometheus snapshot is kept
//! next to it as `results/scaling_t<n>.prom` — `emissary-inspect scaling`
//! cross-checks the JSON against those snapshots and names the
//! bottleneck stage.
//!
//! Run lengths scale through the usual `EMISSARY_MEASURE_INSNS` /
//! `EMISSARY_WARMUP_INSNS` knobs. Requires metrics (the default); under
//! `EMISSARY_METRICS=0` the stage totals would all be zero, so the
//! harness refuses to run.
//!
//! MIPS here is **wall-clock** throughput (committed instructions over
//! round wall time), so it reflects what more threads actually buy.
//! Each round past the first also records `parallel_efficiency` —
//! speedup over the first round divided by the thread ratio. With
//! `EMISSARY_SCALING_GATE=<x>` set, the harness exits 3 if any later
//! round's MIPS falls below `x ×` the first round's — CI runs the 1- and
//! 2-thread rounds under `EMISSARY_SCALING_GATE=1.0` as a regression
//! tripwire.

use std::io::Write as _;
use std::time::Instant;

use emissary_bench::pool::run_parallel_outcomes_with;
use emissary_bench::{metrics, scale, Job, JobOutcome, PoolOptions};
use emissary_core::spec::PolicySpec;
use emissary_obs::{render_prometheus, JsonObject, Metric};
use emissary_workloads::Profile;

/// One measured round: everything `BENCH_scaling.json` records per
/// thread count.
struct Round {
    threads: usize,
    jobs: usize,
    wall_seconds: f64,
    host_seconds: f64,
    committed: u64,
    stage_seconds: Vec<(&'static str, f64)>,
    busy_seconds: f64,
    workers_wall_seconds: f64,
    prom: String,
}

impl Round {
    fn mips(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.committed as f64 / self.wall_seconds / 1e6
        } else {
            0.0
        }
    }

    fn utilization(&self) -> f64 {
        if self.workers_wall_seconds > 0.0 {
            self.busy_seconds / self.workers_wall_seconds
        } else {
            0.0
        }
    }

    /// Speedup over the base round divided by the thread ratio: 1.0 is
    /// perfect linear scaling, below 1.0 is contention or serial tail.
    fn parallel_efficiency(&self, base: &Round) -> f64 {
        if base.mips() > 0.0 && base.threads > 0 && self.threads > 0 {
            (self.mips() / base.mips()) / (self.threads as f64 / base.threads as f64)
        } else {
            0.0
        }
    }

    fn to_json(&self, base: &Round) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("threads", self.threads as u64)
            .field_u64("jobs", self.jobs as u64)
            .field_f64("wall_seconds", self.wall_seconds)
            .field_f64("host_seconds", self.host_seconds)
            .field_u64("committed", self.committed)
            .field_f64("mips", self.mips())
            .field_f64("parallel_efficiency", self.parallel_efficiency(base));
        for (stage, secs) in &self.stage_seconds {
            obj.field_f64(&format!("{stage}_seconds"), *secs);
        }
        obj.field_f64("busy_seconds", self.busy_seconds)
            .field_f64("workers_wall_seconds", self.workers_wall_seconds)
            .field_f64("utilization", self.utilization())
            .field_str("prom", &self.prom);
        obj.finish()
    }
}

/// Thread counts to measure: CLI arguments, or `1 2 4 <parallelism>`
/// deduplicated and sorted.
fn thread_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if counts.is_empty() {
        counts = vec![1, 2, 4, scale::knobs().threads];
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The fixed matrix every round runs: all profiles under the baseline
/// and the paper's preferred EMISSARY policy.
fn jobs() -> Vec<Job> {
    let cfg = emissary_bench::base_config();
    let mut jobs = Vec::new();
    for profile in Profile::all() {
        for policy in [PolicySpec::BASELINE, PolicySpec::PREFERRED] {
            jobs.push(Job::new(profile.clone(), &cfg, policy));
        }
    }
    jobs
}

fn run_round(jobs: &[Job], threads: usize) -> Round {
    emissary_obs::metrics::global().clear();
    let t0 = Instant::now();
    let outcomes = run_parallel_outcomes_with(jobs, &PoolOptions::with_workers(threads), None);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let mut committed = 0u64;
    let mut host_seconds = 0.0f64;
    let mut failed = 0usize;
    for outcome in &outcomes {
        match outcome {
            JobOutcome::Completed { run, .. } => {
                committed += run.report.committed;
                host_seconds += run.host_seconds;
            }
            _ => failed += 1,
        }
    }
    if failed > 0 {
        eprintln!("bench_scaling: warning: {failed} job(s) failed at {threads} thread(s)");
    }
    let snapshot = emissary_obs::metrics::global().snapshot();
    let (busy, wall, _) = metrics::utilization(&snapshot).unwrap_or((0.0, 0.0, 0.0));
    let prom = format!("results/scaling_t{threads}.prom");
    write_snapshot(&prom, &snapshot);
    Round {
        threads,
        jobs: jobs.len(),
        wall_seconds,
        host_seconds,
        committed,
        stage_seconds: metrics::STAGES
            .iter()
            .map(|&s| (s, metrics::stage_seconds(&snapshot, s)))
            .collect(),
        busy_seconds: busy,
        workers_wall_seconds: wall,
        prom,
    }
}

fn write_snapshot(path: &str, snapshot: &[Metric]) {
    let _ = std::fs::create_dir_all("results");
    if let Err(e) = std::fs::write(path, render_prometheus(snapshot)) {
        eprintln!("bench_scaling: cannot write {path}: {e}");
    }
}

fn write_json(rounds: &[Round]) -> std::io::Result<()> {
    let Some(base) = rounds.first() else {
        return Ok(());
    };
    let entries: Vec<String> = rounds.iter().map(|r| r.to_json(base)).collect();
    let mut obj = JsonObject::new();
    obj.field_str("benchmark", "scaling")
        .field_u64("warmup_instrs", scale::knobs().warmup_instrs)
        .field_u64("measure_instrs", scale::knobs().measure_instrs)
        .field_raw("entries", &format!("[{}]", entries.join(",")));
    let mut f = std::fs::File::create("BENCH_scaling.json")?;
    writeln!(f, "{}", obj.finish())
}

fn main() {
    let knobs = scale::knobs();
    if !knobs.metrics {
        eprintln!("bench_scaling: EMISSARY_METRICS=0 would zero every stage total; unset it");
        std::process::exit(2);
    }
    let counts = thread_counts();
    let jobs = jobs();
    eprintln!(
        "bench_scaling: {} jobs (warmup={} measure={}) at {counts:?} thread(s)",
        jobs.len(),
        knobs.warmup_instrs,
        knobs.measure_instrs
    );
    // Pre-build every program once so round 1's build stage measures the
    // same Arc-lookup work as every later round (the shared store caches
    // per process), keeping stage totals comparable across rounds.
    for job in &jobs {
        let _ = job.profile.shared_program();
    }
    let mut rounds: Vec<Round> = Vec::new();
    for &threads in &counts {
        let round = run_round(&jobs, threads);
        let eff = rounds
            .first()
            .map(|b| round.parallel_efficiency(b))
            .unwrap_or(1.0);
        eprintln!(
            "bench_scaling: threads={} wall={:.1}s mips={:.2} eff={eff:.2} util={:.0}% \
             measure={:.1}s",
            round.threads,
            round.wall_seconds,
            round.mips(),
            round.utilization() * 100.0,
            round
                .stage_seconds
                .iter()
                .find(|(s, _)| *s == "measure")
                .map(|(_, v)| *v)
                .unwrap_or(0.0),
        );
        rounds.push(round);
    }
    match write_json(&rounds) {
        Ok(()) => eprintln!("bench_scaling: wrote BENCH_scaling.json"),
        Err(e) => {
            eprintln!("bench_scaling: cannot write BENCH_scaling.json: {e}");
            std::process::exit(1);
        }
    }
    // Regression gate: every round past the first must hold at least
    // `gate ×` the first round's wall-clock MIPS. The JSON is written
    // first so a failing run still leaves its evidence on disk.
    if let (Some(gate), Some(base)) = (knobs.scaling_gate, rounds.first()) {
        for r in &rounds[1..] {
            if r.mips() < gate * base.mips() {
                eprintln!(
                    "bench_scaling: GATE FAILED: {} thread(s) ran {:.2} MIPS, below {gate:.2}x \
                     of the {}-thread round's {:.2} MIPS",
                    r.threads,
                    r.mips(),
                    base.threads,
                    base.mips()
                );
                std::process::exit(3);
            }
        }
        eprintln!(
            "bench_scaling: gate passed (every round >= {gate:.2}x of the {}-thread round)",
            base.threads
        );
    }
}
