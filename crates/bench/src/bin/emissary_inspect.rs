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
//!   experiment, replayable memo size, host-time totals, and the
//!   simulated cycles, committed instructions and starved-cycle share
//!   summed over the completed records' reports (the last one per job).
//! * `metrics [file]` — a campaign's host-time counters
//!   (default `results/metrics.jsonl`): flame-style per-stage span table
//!   and per-worker scheduler utilization.
//!
//! Everything prints to stdout; exit code 2 flags unusable input.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

use emissary_bench::checkpoint::UNIFIED_CAMPAIGN;
use emissary_bench::metrics::{self, counter_sum, stage_seconds, utilization, STAGES};
use emissary_obs::{bucket_bound, jsonl_lines, JsonValue, Log2Hist, TraceEvent};

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
            let default = metrics::path(UNIFIED_CAMPAIGN).display().to_string();
            run_on_files(&or_default(files, default), |name, text| {
                print!("{}", analyze_metrics(name, text));
            })
        }
        _ => {
            eprintln!(
                "usage: emissary-inspect trace <file.jsonl>...\n\
                 \x20      emissary-inspect checkpoint [file]\n\
                 \x20      emissary-inspect metrics [file.jsonl]"
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
    // fp -> the replayable (last completed) record, `None` while the job
    // has only failed: a job re-simulated by a later run is one job of
    // the campaign.
    let mut memo: BTreeMap<String, Option<JsonValue>> = BTreeMap::new();
    let mut bad = 0u64;
    let seconds = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let count = |v: &JsonValue, key: &str| {
        let report = v.get("report");
        report.and_then(|r| r.get(key)?.as_u64()).unwrap_or(0)
    };
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
        // Same last-wins-per-fingerprint rule as resume, except failures
        // never displace an earlier completed record.
        let fp = fp.to_string();
        if status == "completed" {
            memo.insert(fp, Some(v));
        } else {
            memo.entry(fp).or_insert(None);
        }
    }
    let replayable = memo.values().flatten().count();
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
    let total_seconds = |key| {
        memo.values()
            .flatten()
            .map(|v| seconds(v, key))
            .sum::<f64>()
    };
    let [host, warmup, measure] =
        ["host_seconds", "warmup_seconds", "measure_seconds"].map(total_seconds);
    let _ = writeln!(
        out,
        "completed host time: {host:.1}s ({warmup:.1}s warmup, {measure:.1}s measure)"
    );
    let total_count = |key| memo.values().flatten().map(|v| count(v, key)).sum::<u64>();
    let [cycles, committed, starved] =
        ["cycles", "committed", "starvation_cycles"].map(total_count);
    let share = if cycles > 0 {
        starved as f64 / cycles as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "simulated: {cycles} cycle(s), {committed} committed, {share:.2}% cycles starved"
    );
    out
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

fn analyze_metrics(name: &str, text: &str) -> String {
    let snapshot = metrics::parse_jsonl(text);
    let mut out = format!("== metrics {name} ==\n");
    if snapshot.is_empty() {
        out.push_str("no metric records\n");
        return out;
    }
    // Flame-style stage table: total seconds per stage, widest first, at
    // the precision the `campaign summary:` line prints them.
    let mut stages: Vec<(&str, f64)> = STAGES
        .iter()
        .map(|&s| (s, stage_seconds(&snapshot, s)))
        .collect();
    let total: f64 = stages.iter().map(|(_, s)| s).sum();
    stages.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push_str("stage spans (all workers):\n");
    for (stage, secs) in &stages {
        let share = if total > 0.0 { secs / total } else { 0.0 };
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "  {stage:<10} {secs:>9.1}s {:>5.1}% {bar}",
            share * 100.0
        );
    }
    // Per-worker scheduler utilization.
    let workers: BTreeSet<&str> = snapshot
        .iter()
        .filter(|m| m.name == metrics::WORKER_WALL_NS)
        .filter_map(|m| m.label("worker"))
        .collect();
    if let Some((busy, wall, ratio)) = utilization(&snapshot) {
        out.push_str("workers:\n");
        let _ = writeln!(
            out,
            "  {:<8} {:>9} {:>9} {:>6} {:>6} {:>6}",
            "worker", "busy_s", "wall_s", "util", "jobs", "failed"
        );
        let seconds = |family, w| counter_sum(&snapshot, family, Some(("worker", w))) as f64 / 1e9;
        for &w in &workers {
            let (busy, wall) = (
                seconds(metrics::WORKER_BUSY_NS, w),
                seconds(metrics::WORKER_WALL_NS, w),
            );
            let jobs = counter_sum(&snapshot, metrics::JOBS_TOTAL, Some(("worker", w)));
            let ok: u64 = snapshot
                .iter()
                .filter(|m| m.name == metrics::JOBS_TOTAL && m.label("worker") == Some(w))
                .filter(|m| m.label("status") == Some("completed"))
                .map(|m| m.value)
                .sum();
            let util = if wall > 0.0 { busy / wall * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {w:<8} {busy:>9.2} {wall:>9.2} {util:>5.1}% {ok:>6} {:>6}",
                jobs - ok
            );
        }
        let jobs = counter_sum(&snapshot, metrics::JOBS_TOTAL, None);
        let _ = writeln!(
            out,
            "  {:<8} {busy:>9.2} {wall:>9.2} {:>5.1}% {jobs:>6}",
            "all",
            ratio * 100.0
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
        assert!(report.contains("simulated: 0 cycle(s), 0 committed, 0.00% cycles starved"));
    }

    #[test]
    fn checkpoint_totals_sum_the_completed_reports() {
        // A failed record's report-shaped fields must not count, and a
        // re-simulated job counts once, from its last completed record.
        let record = |fp: &str, status: &str, cycles: u64, committed: u64, starved: u64| {
            format!(
                "{{\"record\":\"ckpt\",\"fingerprint\":\"{fp}\",\"status\":\"{status}\",\
                 \"report\":{{\"cycles\":{cycles},\"committed\":{committed},\
                 \"starvation_cycles\":{starved}}}}}\n"
            )
        };
        let text = [
            record("a", "completed", 1_000, 800, 100),
            record("b", "completed", 5_000, 5_000, 500),
            record("b", "completed", 3_000, 2_000, 300),
            record("c", "aborted", 9_000, 9_000, 9_000),
        ]
        .concat();
        let report = analyze_checkpoint("c", &text);
        assert!(
            report.contains("simulated: 4000 cycle(s), 2800 committed, 10.00% cycles starved"),
            "{report}"
        );
    }

    #[test]
    fn checkpoint_host_time_counts_a_rerun_job_once() {
        // A fresh rerun appends a second completed record for the same
        // job; until the next open compacts the file, only the last one
        // is the job's.
        let record = |fp: &str, host: f64, warmup: f64, measure: f64| {
            format!(
                "{{\"record\":\"ckpt\",\"fingerprint\":\"{fp}\",\"status\":\"completed\",\
                 \"host_seconds\":{host},\"warmup_seconds\":{warmup},\"measure_seconds\":{measure}}}\n"
            )
        };
        let text = [
            record("a", 4.0, 1.5, 2.5),
            record("b", 1.0, 0.3, 0.7),
            record("a", 2.0, 0.5, 1.5),
        ]
        .concat();
        let report = analyze_checkpoint("c", &text);
        assert!(
            report.contains("completed host time: 3.0s (0.8s warmup, 2.2s measure)"),
            "{report}"
        );
    }

    #[test]
    fn metrics_analysis_reports_stages_and_workers() {
        let text = "\
{\"record\":\"metric\",\"name\":\"emissary_stage_ns_total\",\"labels\":{\"stage\":\"measure\",\"worker\":\"0\"},\"value\":3000000000}\n\
{\"record\":\"metric\",\"name\":\"emissary_stage_ns_total\",\"labels\":{\"stage\":\"build\",\"worker\":\"0\"},\"value\":1000000000}\n\
{\"record\":\"metric\",\"name\":\"emissary_worker_busy_ns_total\",\"labels\":{\"worker\":\"0\"},\"value\":3500000000}\n\
{\"record\":\"metric\",\"name\":\"emissary_worker_wall_ns_total\",\"labels\":{\"worker\":\"0\"},\"value\":7000000000}\n\
{\"record\":\"metric\",\"name\":\"emissary_jobs_total\",\"labels\":{\"worker\":\"0\",\"status\":\"completed\"},\"value\":12}\n\
{\"record\":\"metric\",\"name\":\"emissary_jobs_total\",\"labels\":{\"worker\":\"0\",\"status\":\"panicked\"},\"value\":1}\n";
        let report = analyze_metrics("m", text);
        assert!(report.contains("measure          3.0s  75.0%"), "{report}");
        assert!(report.contains("build            1.0s  25.0%"), "{report}");
        assert!(report.contains("50.0%     12      1"), "{report}"); // worker 0
        assert!(
            report.contains("all           3.50      7.00  50.0%     13"),
            "{report}"
        );
        assert!(analyze_metrics("e", "").contains("no metric records"));
    }
}
