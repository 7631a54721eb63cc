//! One workload in one child process: set-up, the timed passes and —
//! traced — the deep passes and layer probes. Its only stdout output is
//! the result line the parent process reads.
//!
//! A pass is what a user of the harness does: feed the workload's plan
//! through `campaign::prefetch` into a fresh on-disk `Campaign`, then
//! resume that checkpoint the way a re-render does
//! (`Campaign::begin_with(.., true)` + `prefetch` + `sync`).

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use emissary_bench::campaign::{dedup_jobs, prefetch, CostModel};
use emissary_bench::checkpoint::{fingerprint, fnv1a64, Campaign};
use emissary_bench::metrics::{counter_sum, WORKER_BUSY_NS, WORKER_WALL_NS};
use emissary_bench::{Job, PoolOptions};
use emissary_obs::{JsonObject, JsonValue};
use emissary_sim::SimRun;
use emissary_workloads::Profile;

use crate::layers::{self, Deep};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Trace};
use crate::workload::Workload;
use crate::Options;

/// Set-ups per run; `setup_s` is their median. A set-up takes
/// milliseconds, so many repetitions cost little and steady the median.
const SETUP_REPS: usize = 15;

/// The compiled-in pinned digests (see [`pinned_digests`]).
const DIGESTS_JSON: &str = include_str!("../digests.json");

/// Report digests by benchmark name, as 16 hex digits.
type Digests = BTreeMap<String, String>;

/// The workload's plan and what setting it up cost.
struct Setup {
    jobs: Vec<Job>,
    seconds: Vec<f64>,
    build_seconds: Vec<f64>,
}

/// Builds the plan and every program it needs, `SETUP_REPS` times. The
/// first repetition fills the process-wide program store the passes use;
/// the others build the same programs afresh, so each repetition does
/// the same work.
fn setup(w: &Workload, o: &Options, trace: &Trace) -> Setup {
    let mut out = Setup {
        jobs: Vec::new(),
        seconds: Vec::new(),
        build_seconds: Vec::new(),
    };
    for rep in 0..SETUP_REPS {
        let span = trace.open("setup", None);
        let started = Instant::now();
        let jobs = w.jobs(o.quick, o.seed);
        let builds = Instant::now();
        for profile in distinct_profiles(&jobs) {
            let build = trace.open("workloads.build", Some(span));
            let code_bytes = if rep == 0 {
                profile.shared_program().code_bytes()
            } else {
                black_box(profile.build()).code_bytes()
            };
            trace.close(build, &[("code_bytes", code_bytes)]);
        }
        out.build_seconds.push(builds.elapsed().as_secs_f64());
        out.seconds.push(started.elapsed().as_secs_f64());
        trace.close(span, &[("jobs", jobs.len() as u64)]);
        out.jobs = jobs;
    }
    out
}

/// Each benchmark's profile in `jobs`, once, in first-use order.
fn distinct_profiles(jobs: &[Job]) -> Vec<&Profile> {
    let mut profiles: Vec<&Profile> = Vec::new();
    for job in jobs {
        if !profiles.iter().any(|p| p.name == job.profile.name) {
            profiles.push(&job.profile);
        }
    }
    profiles
}

/// The fixed inputs of every pass.
struct Ctx<'a> {
    w: &'a Workload,
    quick: bool,
    jobs: Vec<Job>,
    /// Deduplicated jobs with their fingerprints.
    unique: Vec<(String, Job)>,
    pool: PoolOptions,
    dir: PathBuf,
    pinned: Option<Digests>,
}

/// Everything the timed passes measured.
#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    mips: Vec<f64>,
    prefetch_s: Vec<f64>,
    sync_s: Vec<f64>,
    resume_s: Vec<f64>,
    resume_load_s: Vec<f64>,
    replay_s: Vec<f64>,
    fingerprint_us: Vec<f64>,
    worker_util: Vec<f64>,
    harness_overhead: Vec<f64>,
    job_host_s: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    simulated: u64,
    replayed: u64,
    failed_jobs: u64,
    attempted: u64,
    failed: u64,
    first_digests: Option<BTreeMap<String, u64>>,
    /// The latest pass's runs, keyed by fingerprint.
    runs: BTreeMap<String, SimRun>,
}

/// Summed busy and wall seconds of every pool worker so far.
fn worker_seconds() -> (f64, f64) {
    let snapshot = emissary_obs::metrics::global().snapshot();
    (
        counter_sum(&snapshot, WORKER_BUSY_NS, None) as f64 / 1e9,
        counter_sum(&snapshot, WORKER_WALL_NS, None) as f64 / 1e9,
    )
}

/// FNV-1a over each benchmark's (fingerprint, report JSON) records in
/// fingerprint order (the map's): one digest per benchmark.
fn digests(runs: &BTreeMap<String, SimRun>) -> BTreeMap<String, u64> {
    let mut records: BTreeMap<&str, String> = BTreeMap::new();
    for (fp, run) in runs {
        let text = records.entry(&run.report.benchmark).or_default();
        text.push_str(fp);
        text.push('\n');
        text.push_str(&run.report.to_json());
        text.push('\n');
    }
    records
        .into_iter()
        .map(|(bench, text)| (bench.to_string(), fnv1a64(text.as_bytes())))
        .collect()
}

/// Runs `f` inside a span under `parent` and returns its seconds.
fn timed<T>(trace: &Trace, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
    let span = trace.open(name, Some(parent));
    let started = Instant::now();
    let out = f();
    let seconds = started.elapsed().as_secs_f64();
    trace.close(span, &[]);
    (out, seconds)
}

impl Passes {
    /// One pass: the cold campaign, then its resumes.
    fn run(&mut self, ctx: &Ctx<'_>, trace: &Trace) {
        let _ = std::fs::remove_dir_all(&ctx.dir);
        let unique = ctx.unique.len() as u64;
        let span = trace.open("pass", None);

        let (_, fp_s) = timed(trace, "bench.fingerprint", span, || {
            for job in &ctx.jobs {
                black_box(fingerprint(job));
            }
        });
        self.fingerprint_us.push(fp_s * 1e6);

        let plan = ctx.jobs.clone();
        let started = Instant::now();
        let (campaign, _) = timed(trace, "bench.begin", span, || {
            Campaign::begin_with("campaign", &ctx.dir, false)
        });
        let (busy0, wall0) = worker_seconds();
        let (summary, prefetch_s) = timed(trace, "bench.prefetch", span, || {
            prefetch(plan, &ctx.pool, Some(&campaign), &CostModel::new())
        });
        let (busy1, wall1) = worker_seconds();
        let ((), sync_s) = timed(trace, "bench.sync", span, || campaign.sync());
        let cold_s = started.elapsed().as_secs_f64();

        let runs: BTreeMap<String, SimRun> = ctx
            .unique
            .iter()
            .filter_map(|(fp, _)| campaign.cached(fp).map(|run| (fp.clone(), run)))
            .collect();
        drop(campaign);
        let instrs: u64 = ctx
            .unique
            .iter()
            .filter_map(|(fp, job)| Some(job.config.warmup_instrs + runs.get(fp)?.report.committed))
            .sum();
        let host_s: f64 = runs.values().map(|r| r.host_seconds).sum();
        let workers = ctx.pool.workers.min(ctx.unique.len()).max(1) as f64;
        self.prefetch_s.push(prefetch_s);
        self.sync_s.push(sync_s);
        self.worker_util.push((busy1 - busy0) / (wall1 - wall0));
        self.harness_overhead
            .push(1.0 - host_s / (workers * summary.wall_seconds));
        self.job_host_s
            .extend(runs.values().map(|r| r.host_seconds));
        self.ckpt_bytes.push(
            std::fs::metadata(ctx.dir.join("campaign.ckpt.jsonl")).map_or(0.0, |m| m.len() as f64),
        );
        self.simulated += summary.simulated;
        self.attempted += ctx.jobs.len() as u64;
        let missing = unique - runs.len() as u64;
        self.failed_jobs += missing;
        self.failed += missing + self.check_digests(&runs, ctx.pinned.as_ref());

        let mut resume_total = 0.0;
        for _ in 0..ctx.w.resumes(ctx.quick) {
            let plan = ctx.jobs.clone();
            let resume = trace.open("bench.resume", Some(span));
            let started = Instant::now();
            let (campaign, load_s) = timed(trace, "bench.resume_load", resume, || {
                Campaign::begin_with("campaign", &ctx.dir, true)
            });
            let (summary, replay_s) = timed(trace, "bench.replay", resume, || {
                prefetch(plan, &ctx.pool, Some(&campaign), &CostModel::new())
            });
            let ((), sync_s) = timed(trace, "bench.sync", resume, || campaign.sync());
            drop(campaign);
            let resume_s = started.elapsed().as_secs_f64();
            trace.close(resume, &[("replayed", summary.replayed)]);
            resume_total += resume_s;
            self.resume_s.push(resume_s);
            self.resume_load_s.push(load_s);
            self.replay_s.push(replay_s);
            self.sync_s.push(sync_s);
            self.replayed += summary.replayed;
            self.attempted += 1;
            // A resume must replay every job and re-simulate none.
            if summary.simulated > 0 || summary.replayed != unique {
                self.failed += 1;
            }
        }
        trace.close(span, &[("instrs", instrs)]);

        let wall = cold_s + resume_total;
        self.wall_s.push(wall);
        self.mips.push(instrs as f64 / wall / 1e6);
        self.runs = runs;
        eprintln!(
            "{}: pass {} {wall:.2}s, {} jobs, {} resumes",
            ctx.w.name,
            self.wall_s.len(),
            summary.simulated,
            ctx.w.resumes(ctx.quick)
        );
    }

    /// Failed ops among this pass's digests: each benchmark whose digest
    /// differs from the first pass's, or from the pinned one.
    fn check_digests(&mut self, runs: &BTreeMap<String, SimRun>, pinned: Option<&Digests>) -> u64 {
        let now = digests(runs);
        let first = self.first_digests.get_or_insert_with(|| now.clone());
        let benches: BTreeSet<&String> = first.keys().chain(now.keys()).collect();
        let mut failed = benches
            .into_iter()
            .filter(|b| first.get(*b) != now.get(*b))
            .count() as u64;
        if let Some(pinned) = pinned {
            failed += pinned
                .iter()
                .filter(|(bench, hex)| {
                    now.get(*bench).map(|d| format!("{d:016x}")) != Some(hex.to_string())
                })
                .count() as u64;
        }
        failed
    }
}

/// The pinned seed-0 digests for this workload and window size, from
/// `--digests FILE` or the compiled-in `digests.json`. `None` for other
/// seeds, or when nothing is pinned for this key.
fn pinned_digests(w: &Workload, o: &Options) -> Result<Option<Digests>, String> {
    if o.seed != 0 {
        return Ok(None);
    }
    let text = match &o.digests {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => DIGESTS_JSON.to_string(),
    };
    let root = JsonValue::parse(&text).map_err(|e| format!("digest file: {e:?}"))?;
    let key = digest_key(w, o.quick);
    let Some(JsonValue::Obj(fields)) = root.get(&key) else {
        eprintln!("{}: no digests pinned under {key:?}", w.name);
        return Ok(None);
    };
    fields
        .iter()
        .map(|(bench, hex)| {
            let hex = hex
                .as_str()
                .ok_or(format!("digest file: {key}.{bench} is not a string"))?;
            Ok((bench.clone(), hex.to_string()))
        })
        .collect::<Result<Digests, String>>()
        .map(Some)
}

/// `digests.json` key of a workload's seed-0 digests.
fn digest_key(w: &Workload, quick: bool) -> String {
    if quick {
        format!("{}@quick", w.name)
    } else {
        w.name.to_string()
    }
}

/// The child's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs workload `w` for `seconds` of passes and returns the result line
/// for the parent.
pub fn run(w: &Workload, o: &Options, seconds: f64, out_dir: &Path) -> Result<String, String> {
    let trace = Trace::new(o.trace);
    let setup = setup(w, o, &trace);
    let unique: Vec<(String, Job)> = dedup_jobs(setup.jobs.clone())
        .into_iter()
        .map(|job| (fingerprint(&job), job))
        .collect();
    let pairs: Vec<Job> = unique
        .iter()
        .map(|(_, job)| job)
        .filter(|job| w.is_pair_job(job, o.quick))
        .cloned()
        .collect();
    let ctx = Ctx {
        w,
        quick: o.quick,
        jobs: setup.jobs.clone(),
        unique,
        pool: PoolOptions::with_workers(w.workers),
        dir: out_dir.join(format!("ckpt-{}-{}", w.name, std::process::id())),
        pinned: pinned_digests(w, o)?,
    };

    // Untraced, passes repeat until `seconds` have passed (at least two,
    // so determinism is checked across passes). Traced, they alternate
    // with deep passes, which need the untraced runs before them.
    let mut passes = Passes::default();
    let mut deep: Vec<Deep> = Vec::new();
    let started = Instant::now();
    for step in 1.. {
        if o.trace && step % 2 == 0 {
            let d = layers::deep_pass(&pairs, &passes.runs, &trace);
            passes.attempted += pairs.len() as u64;
            passes.failed += d.failed;
            deep.push(d);
        } else {
            passes.run(&ctx, &trace);
        }
        let min_steps = if o.quick && !o.trace { 1 } else { 2 };
        if step >= min_steps && (o.quick || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.dir);

    let metrics = if o.trace {
        layers::probe(
            &distinct_profiles(&pairs),
            &w.template(o.quick),
            w.probe_instrs(o.quick),
            &trace,
        );
        let mut m = layers::metrics(
            &trace,
            &passes.runs,
            &pairs,
            &deep,
            median(&setup.build_seconds),
        );
        m.extend(bench_metrics(&ctx, &passes));
        let path = out_dir.join(format!("{}.trace.jsonl", w.name));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        m
    } else {
        vec![
            ("mips", median(&passes.mips)),
            ("wall_s", median(&passes.wall_s)),
            ("setup_s", median(&setup.seconds)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };

    let mut values = JsonObject::new();
    for (name, value) in metrics {
        values.field_f64(name, value);
    }
    let mut pinned = JsonObject::new();
    for (bench, digest) in passes.first_digests.iter().flatten() {
        pinned.field_str(bench, &format!("{digest:016x}"));
    }
    let windows = w.windows(o.quick);
    let mut line = JsonObject::new();
    line.field_str("workload", w.name)
        .field_u64("warmup", windows.warmup)
        .field_u64("measure", windows.measure)
        .field_u64("passes", passes.wall_s.len() as u64)
        .field_u64("attempted", passes.attempted)
        .field_u64("failed", passes.failed)
        .field_raw("metrics", &values.finish())
        .field_raw("digests", &pinned.finish());
    Ok(line.finish())
}

/// The `bench` layer's metrics: the harness calls of every pass.
fn bench_metrics(ctx: &Ctx<'_>, p: &Passes) -> Vec<(&'static str, f64)> {
    let passes = p.wall_s.len().max(1) as f64;
    let resumes = p.resume_s.len().max(1) as f64;
    vec![
        ("bench.requested", ctx.jobs.len() as f64),
        ("bench.unique", ctx.unique.len() as f64),
        ("bench.simulated", p.simulated as f64 / passes),
        ("bench.replayed", p.replayed as f64 / resumes),
        ("bench.failed", p.failed_jobs as f64),
        ("bench.prefetch_s", median(&p.prefetch_s)),
        ("bench.sync_s", median(&p.sync_s)),
        ("bench.worker_util", median(&p.worker_util)),
        ("bench.job_host_s_p50", percentile(&p.job_host_s, 50.0)),
        ("bench.job_host_s_p99", percentile(&p.job_host_s, 99.0)),
        ("bench.harness_overhead_frac", median(&p.harness_overhead)),
        ("bench.fingerprint_us", median(&p.fingerprint_us)),
        ("bench.resume_s", median(&p.resume_s)),
        ("bench.resume_load_s", median(&p.resume_load_s)),
        ("bench.replay_s", median(&p.replay_s)),
        ("bench.ckpt_bytes", median(&p.ckpt_bytes)),
    ]
}
