//! `emissary-inspect`: offline analyzer for the harness's observability
//! by-products.
//!
//! Subcommands, each consuming files the campaign already writes:
//!
//! * `trace <file.jsonl>...` — event traces (`EMISSARY_TRACE_OUT`):
//!   event-kind counts, starvation-episode breakdown (count, cycle-length
//!   histogram, per-source residency), and Algorithm 1 protection
//!   decisions by resident high-priority line count.
//! * `checkpoint [file]` — a campaign checkpoint
//!   (default `results/campaign.ckpt.jsonl`): records by status and
//!   experiment, replayable memo size, host-time totals.
//! * `metrics [file]` — a Prometheus snapshot
//!   (default `results/metrics.prom`): flame-style per-stage span table
//!   and per-worker scheduler utilization.
//!
//! Everything prints to stdout; exit code 2 flags unusable input.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use emissary_bench::metrics::{self, STAGES};
use emissary_obs::{
    bucket_bound, jsonl_lines, parse_prometheus, JsonValue, Log2Hist, PromSample, TraceEvent,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, files) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest.to_vec()),
        None => ("", Vec::new()),
    };
    match cmd {
        "trace" if !files.is_empty() => run_on_files(&files, |name, text| {
            print!("{}", analyze_trace(name, text));
        }),
        "checkpoint" => {
            let default = "results/campaign.ckpt.jsonl".to_string();
            run_on_files(&or_default(files, default), |name, text| {
                print!("{}", analyze_checkpoint(name, text));
            })
        }
        "metrics" => {
            let default = metrics::default_prom_path().display().to_string();
            run_on_files(&or_default(files, default), |name, text| {
                print!("{}", analyze_metrics(name, text));
            })
        }
        _ => {
            eprintln!(
                "usage: emissary-inspect trace <file.jsonl>...\n\
                 \x20      emissary-inspect checkpoint [file]\n\
                 \x20      emissary-inspect metrics [file.prom]"
            );
            ExitCode::from(2)
        }
    }
}

fn or_default(files: Vec<String>, default: String) -> Vec<String> {
    if files.is_empty() {
        vec![default]
    } else {
        files
    }
}

fn run_on_files(files: &[String], f: impl Fn(&str, &str)) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for path in files {
        match std::fs::read_to_string(path) {
            Ok(text) => f(path, &text),
            Err(e) => {
                eprintln!("emissary-inspect: cannot read {path}: {e}");
                code = ExitCode::from(2);
            }
        }
    }
    code
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn analyze_trace(name: &str, text: &str) -> String {
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unparsed = 0u64;
    let mut episodes = 0u64;
    let mut durations = Log2Hist::default();
    // Episode residency per blamed hierarchy level, `(episodes, cycles)`.
    let mut by_source: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    // Algorithm 1 decisions keyed by resident high-priority line count:
    // `(protected, forced-high-victim)`.
    let mut protect_by_high: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut marks = (0u64, 0u64); // (resident, deferred)
    for line in jsonl_lines(text) {
        let event = line.parsed.ok().as_ref().and_then(TraceEvent::parse);
        let Some(event) = event else {
            unparsed += 1;
            continue;
        };
        *kinds.entry(event.kind()).or_default() += 1;
        match event {
            TraceEvent::StarveEnd {
                cycle,
                source,
                start_cycle,
                ..
            } => {
                let dur = cycle.saturating_sub(start_cycle);
                episodes += 1;
                durations.observe(dur);
                let slot = by_source.entry(source.as_str()).or_default();
                slot.0 += 1;
                slot.1 += dur;
            }
            TraceEvent::Protect {
                high_lines,
                protected,
                ..
            } => {
                let slot = protect_by_high.entry(high_lines).or_default();
                if protected {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
            TraceEvent::PriorityMark { deferred, .. } => {
                if deferred {
                    marks.1 += 1;
                } else {
                    marks.0 += 1;
                }
            }
            _ => {}
        }
    }
    let mut out = format!("== trace {name} ==\n");
    out.push_str("events:\n");
    for (kind, n) in &kinds {
        let _ = writeln!(out, "  {kind:<16} {n}");
    }
    if unparsed > 0 {
        let _ = writeln!(out, "  (unparsed lines)  {unparsed}");
    }
    let _ = writeln!(
        out,
        "starvation: {episodes} episode(s), {} cycle(s) total, mean {:.1}",
        durations.sum,
        durations.mean()
    );
    if episodes > 0 {
        out.push_str("  cycle-length histogram:\n");
        out.push_str(&render_hist(&durations));
        out.push_str("  residency by blamed source:\n");
        for (source, (n, cycles)) in &by_source {
            let _ = writeln!(
                out,
                "    {source:<8} {n:>6} episode(s) {cycles:>10} cycle(s)"
            );
        }
    }
    if !protect_by_high.is_empty() {
        out.push_str("protect decisions by resident high-priority lines:\n");
        for (high, (protected, forced)) in &protect_by_high {
            let _ = writeln!(
                out,
                "    high={high:<3} protected={protected:<8} forced_high_victim={forced}"
            );
        }
    }
    if marks.0 + marks.1 > 0 {
        let _ = writeln!(
            out,
            "priority marks: {} resident, {} deferred onto in-flight fills",
            marks.0, marks.1
        );
    }
    out
}

/// Renders a log-2 histogram's non-empty buckets with inclusive upper
/// bounds and a proportional bar.
fn render_hist(hist: &Log2Hist) -> String {
    let max = hist.buckets.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::new();
    for (i, &n) in hist.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bar = "#".repeat(((n * 40).div_ceil(max)) as usize);
        let _ = writeln!(out, "    <= {:>12} {n:>8} {bar}", bound_label(i));
    }
    out
}

fn bound_label(bucket: usize) -> String {
    let b = bucket_bound(bucket);
    if b == u64::MAX {
        "inf".to_string()
    } else {
        b.to_string()
    }
}

// ---------------------------------------------------------------------------
// checkpoint
// ---------------------------------------------------------------------------

fn analyze_checkpoint(name: &str, text: &str) -> String {
    let mut by_status: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_experiment: BTreeMap<String, u64> = BTreeMap::new();
    let mut memo: BTreeMap<String, bool> = BTreeMap::new(); // fp -> completed
    let mut bad = 0u64;
    let (mut host, mut warmup, mut measure) = (0.0f64, 0.0f64, 0.0f64);
    let seconds = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    for line in jsonl_lines(text) {
        let Ok(v) = line.parsed else {
            bad += 1;
            continue;
        };
        let (Some(fp), Some(status)) = (
            v.get("fingerprint").and_then(JsonValue::as_str),
            v.get("status").and_then(JsonValue::as_str),
        ) else {
            bad += 1;
            continue;
        };
        *by_status.entry(status.to_string()).or_default() += 1;
        if let Some(exp) = v.get("experiment").and_then(JsonValue::as_str) {
            *by_experiment.entry(exp.to_string()).or_default() += 1;
        }
        let completed = status == "completed";
        if completed {
            host += seconds(&v, "host_seconds");
            warmup += seconds(&v, "warmup_seconds");
            measure += seconds(&v, "measure_seconds");
        }
        // Same last-wins-per-fingerprint rule as resume, except failures
        // never displace an earlier completed record.
        let entry = memo.entry(fp.to_string()).or_insert(completed);
        *entry = *entry || completed;
    }
    let replayable = memo.values().filter(|&&c| c).count();
    let mut out = format!("== checkpoint {name} ==\n");
    out.push_str("records by status:\n");
    for (status, n) in &by_status {
        let _ = writeln!(out, "  {status:<12} {n}");
    }
    if bad > 0 {
        let _ = writeln!(out, "  (unusable)   {bad}");
    }
    let _ = writeln!(
        out,
        "memo: {replayable} replayable of {} distinct fingerprint(s)",
        memo.len()
    );
    if !by_experiment.is_empty() {
        out.push_str("records by experiment:\n");
        for (exp, n) in &by_experiment {
            let _ = writeln!(out, "  {exp:<12} {n}");
        }
    }
    let _ = writeln!(
        out,
        "completed host time: {host:.1}s ({warmup:.1}s warmup, {measure:.1}s measure)"
    );
    out
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

/// Sums `family` samples, optionally filtered by one label pair.
fn sample_sum(samples: &[PromSample], family: &str, label: Option<(&str, &str)>) -> f64 {
    let sum: f64 = samples
        .iter()
        .filter(|s| s.name == family)
        .filter(|s| match label {
            Some((k, v)) => s.label(k) == Some(v),
            None => true,
        })
        .map(|s| s.value)
        .sum();
    // An empty f64 sum is IEEE -0.0; normalize so reports never print
    // "-0.00" for an absent family.
    sum + 0.0
}

/// Distinct values of `key` across `family` samples, sorted.
fn label_values(samples: &[PromSample], family: &str, key: &str) -> Vec<String> {
    let mut values: Vec<String> = samples
        .iter()
        .filter(|s| s.name == family)
        .filter_map(|s| s.label(key).map(str::to_string))
        .collect();
    values.sort();
    values.dedup();
    values
}

fn analyze_metrics(name: &str, text: &str) -> String {
    let samples = parse_prometheus(text);
    let mut out = format!("== metrics {name} ==\n");
    if samples.is_empty() {
        out.push_str("no samples (metrics disabled, or not a Prometheus snapshot)\n");
        return out;
    }
    // Flame-style stage table: total seconds per stage, widest first.
    let mut stages: Vec<(&str, f64)> = STAGES
        .iter()
        .map(|&s| {
            (
                s,
                sample_sum(&samples, metrics::STAGE_NS, Some(("stage", s))) / 1e9,
            )
        })
        .collect();
    let total: f64 = stages.iter().map(|(_, s)| s).sum();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str("stage spans (all workers):\n");
    for (stage, secs) in &stages {
        let share = if total > 0.0 { secs / total } else { 0.0 };
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "  {stage:<10} {secs:>9.2}s {:>5.1}% {bar}",
            share * 100.0
        );
    }
    // Per-worker scheduler utilization.
    let workers = label_values(&samples, metrics::WORKER_WALL_NS, "worker");
    if !workers.is_empty() {
        out.push_str("workers:\n");
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>9} {:>6} {:>6} {:>6}",
            "worker", "busy_s", "wall_s", "util", "jobs", "failed"
        );
        for w in &workers {
            let busy = sample_sum(&samples, metrics::WORKER_BUSY_NS, Some(("worker", w))) / 1e9;
            let wall = sample_sum(&samples, metrics::WORKER_WALL_NS, Some(("worker", w))) / 1e9;
            let jobs = sample_sum(&samples, metrics::JOBS_TOTAL, Some(("worker", w)));
            let ok: f64 = samples
                .iter()
                .filter(|s| {
                    s.name == metrics::JOBS_TOTAL
                        && s.label("worker") == Some(w)
                        && s.label("status") == Some("completed")
                })
                .map(|s| s.value)
                .sum();
            let util = if wall > 0.0 { busy / wall * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {w:<8} {busy:>9.2} {wall:>9.2} {util:>5.1}% {ok:>6} {:>6}",
                jobs - ok
            );
        }
    }
    // Simulator aggregates, when the snapshot carries them.
    let cycles = sample_sum(&samples, "emissary_sim_cycles_total", None);
    if cycles > 0.0 {
        let committed = sample_sum(&samples, "emissary_sim_committed_instrs_total", None);
        let starved = sample_sum(&samples, "emissary_sim_starvation_cycles_total", None);
        let _ = writeln!(
            out,
            "simulated: {cycles:.0} cycle(s), {committed:.0} committed, \
             {:.2}% cycles starved",
            if cycles > 0.0 {
                starved / cycles * 100.0
            } else {
                0.0
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_analysis_counts_episodes_and_protects() {
        let text = "\
{\"event\":\"starve_start\",\"cycle\":100,\"line\":7,\"source\":\"l2\"}\n\
{\"event\":\"starve_end\",\"cycle\":140,\"line\":7,\"source\":\"l2\",\"start_cycle\":100,\"duration\":40}\n\
{\"event\":\"starve_end\",\"cycle\":300,\"line\":9,\"source\":\"memory\",\"start_cycle\":200,\"duration\":100}\n\
{\"event\":\"protect\",\"cycle\":5,\"set\":1,\"high_lines\":3,\"protected\":true}\n\
{\"event\":\"protect\",\"cycle\":6,\"set\":1,\"high_lines\":8,\"protected\":false}\n\
garbage\n";
        let report = analyze_trace("t", text);
        assert!(report.contains("starvation: 2 episode(s), 140 cycle(s) total, mean 70.0"));
        assert!(report.contains("l2"));
        assert!(report.contains("memory"));
        assert!(report.contains("high=3   protected=1"));
        assert!(report.contains("forced_high_victim=1"));
        assert!(report.contains("(unparsed lines)  1"));
    }

    #[test]
    fn checkpoint_analysis_separates_statuses_and_memo() {
        let text = "\
{\"record\":\"ckpt\",\"fingerprint\":\"a\",\"experiment\":\"fig1\",\"status\":\"panicked\"}\n\
{\"record\":\"ckpt\",\"fingerprint\":\"a\",\"experiment\":\"fig1\",\"status\":\"completed\",\"host_seconds\":2.5,\"warmup_seconds\":1.0,\"measure_seconds\":1.5}\n\
{\"record\":\"ckpt\",\"fingerprint\":\"b\",\"experiment\":\"fig2\",\"status\":\"aborted\"}\n";
        let report = analyze_checkpoint("c", text);
        assert!(report.contains("completed    1"));
        assert!(report.contains("panicked     1"));
        assert!(report.contains("memo: 1 replayable of 2 distinct fingerprint(s)"));
        assert!(report.contains("completed host time: 2.5s (1.0s warmup, 1.5s measure)"));
    }

    #[test]
    fn metrics_analysis_reports_stages_and_workers() {
        let text = "\
emissary_stage_ns_total{stage=\"measure\",worker=\"0\"} 3000000000\n\
emissary_stage_ns_total{stage=\"build\",worker=\"0\"} 1000000000\n\
emissary_worker_busy_ns_total{worker=\"0\"} 3500000000\n\
emissary_worker_wall_ns_total{worker=\"0\"} 7000000000\n\
emissary_jobs_total{worker=\"0\",status=\"completed\"} 12\n";
        let report = analyze_metrics("m", text);
        assert!(report.contains("measure"), "{report}");
        assert!(report.contains("50.0%"), "{report}"); // worker util
        assert!(report.contains("12"), "{report}");
    }
}
