//! Structured JSONL results emission shared by the experiment harness.
//!
//! Every experiment renders its tables to stdout and, through [`emit`],
//! additionally writes `results/<name>.jsonl` containing:
//!
//! * one `meta` record — experiment name, title, and every resolved
//!   knob ([`scale::Knobs::to_json`], keyed by variable name), so a
//!   result names the settings that produced it;
//! * one `report` record per simulation the experiment drew on (the full
//!   [`SimReport`](emissary_sim::SimReport));
//! * one `sample` record per interval sample (when
//!   `EMISSARY_SAMPLE_INTERVAL` is set);
//! * one `job_failure` record per job of the experiment whose outcome
//!   was a panic, abort, or config rejection (see
//!   [`crate::pool::JobOutcome`]);
//! * one `table_row` record per rendered table row, keyed by column
//!   header — these carry exactly the values printed in the `.txt`
//!   tables, so downstream tooling never has to re-derive or re-parse
//!   the text output.
//!
//! The runs and failures travel with the [`Experiment`] itself. Faults
//! that belong to the whole campaign rather than to one experiment go to
//! `results/campaign.jsonl` once, after the prefetch
//! ([`write_campaign_faults`]): one `trace_error` record per event-trace
//! sink that failed (the affected run proceeded untraced) and one
//! `ckpt_error` record per checkpoint I/O failure.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use emissary_obs::JsonObject;
use emissary_sim::SimRun;

use crate::checkpoint::UNIFIED_CAMPAIGN;
use crate::experiments::Experiment;
use crate::{lock_unpoisoned, metrics, scale};

static TRACE_ERRORS: Mutex<Vec<TraceError>> = Mutex::new(Vec::new());
static CKPT_ERRORS: Mutex<Vec<CkptError>> = Mutex::new(Vec::new());

/// A failed attempt to open a per-job event-trace sink: the run proceeded
/// untraced, and the campaign's results file records the degradation.
#[derive(Debug, Clone)]
pub struct TraceError {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 policy notation.
    pub policy: String,
    /// The sink path that could not be created.
    pub path: String,
    /// The I/O error message.
    pub error: String,
}

/// A job whose outcome did not complete (panicked, aborted, or
/// rejected), rendered as a `job_failure` record in the
/// experiment's results file. A resume re-runs it.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 policy notation.
    pub policy: String,
    /// Machine-readable status (`panicked`/`stalled`/`audit`/
    /// `rejected`).
    pub status: String,
    /// Human-readable failure description.
    pub detail: String,
}

/// A checkpoint I/O failure the campaign degraded around (memo-only
/// mode, quarantine trouble, failed rotation), rendered as a
/// `ckpt_error` record in the campaign's results file.
#[derive(Debug, Clone)]
pub struct CkptError {
    /// The checkpoint (or quarantine) path involved.
    pub path: String,
    /// The failed operation (`mkdir`/`read`/`open`/`append`/`rotate`/
    /// `quarantine`).
    pub op: String,
    /// The I/O error message.
    pub error: String,
}

/// Records a failed trace-sink open (or a sink that degraded mid-run).
pub fn log_trace_error(benchmark: &str, policy: &str, path: &str, error: &str) {
    lock_unpoisoned(&TRACE_ERRORS).push(TraceError {
        benchmark: benchmark.to_string(),
        policy: policy.to_string(),
        path: path.to_string(),
        error: error.to_string(),
    });
}

/// Records a checkpoint I/O failure.
pub fn log_ckpt_error(path: &Path, op: &str, error: &io::Error) {
    lock_unpoisoned(&CKPT_ERRORS).push(CkptError {
        path: path.display().to_string(),
        op: op.to_string(),
        error: error.to_string(),
    });
}

impl JobFailure {
    /// Extracts the failure description from an outcome (`None` for
    /// completed runs).
    pub fn from_outcome(outcome: &crate::pool::JobOutcome) -> Option<JobFailure> {
        if outcome.run().is_some() {
            return None;
        }
        Some(JobFailure {
            benchmark: outcome.benchmark().to_string(),
            policy: outcome.policy().to_string(),
            status: outcome.status().to_string(),
            detail: outcome.describe(),
        })
    }
}

/// Drains the process-global trace-error log.
pub fn take_trace_errors() -> Vec<TraceError> {
    std::mem::take(&mut *lock_unpoisoned(&TRACE_ERRORS))
}

/// Drains the process-global checkpoint-error log.
pub fn take_ckpt_errors() -> Vec<CkptError> {
    std::mem::take(&mut *lock_unpoisoned(&CKPT_ERRORS))
}

/// Renders the host-side throughput footer for a set of runs: aggregate
/// simulated cycles/sec and host MIPS over the whole campaign, so the
/// cost of producing a table is visible without profiling. `None` when
/// no run carried timing (e.g. everything replayed from a pre-timing
/// checkpoint).
pub fn throughput_footer(runs: &[SimRun]) -> Option<String> {
    let timed: Vec<&SimRun> = runs.iter().filter(|r| r.host_seconds > 0.0).collect();
    if timed.is_empty() {
        return None;
    }
    let host: f64 = timed.iter().map(|r| r.host_seconds).sum();
    let cycles: u64 = timed.iter().map(|r| r.report.cycles).sum();
    let committed: u64 = timed.iter().map(|r| r.report.committed).sum();
    Some(format!(
        "host throughput: {} run(s), {} thread(s), {:.1}s host time, {:.2} Mcycles/s, {:.2} MIPS",
        timed.len(),
        scale::knobs().threads,
        host,
        cycles as f64 / host / 1e6,
        committed as f64 / host / 1e6,
    ))
}

/// Aggregate host timing over `runs`: (host seconds summed over timed
/// runs, host MIPS). Both zero when nothing carried timing.
fn host_aggregates(runs: &[SimRun]) -> (f64, f64) {
    let timed: Vec<&SimRun> = runs.iter().filter(|r| r.host_seconds > 0.0).collect();
    let host: f64 = timed.iter().map(|r| r.host_seconds).sum();
    if host <= 0.0 {
        return (0.0, 0.0);
    }
    let committed: u64 = timed.iter().map(|r| r.report.committed).sum();
    (host, committed as f64 / host / 1e6)
}

/// Renders `exp` to stdout and writes `results/<name>.jsonl`
/// (reporting the outcome on stderr). The standard tail of every
/// experiment. The host-throughput footer goes to stderr with
/// the other diagnostics: stdout carries only deterministic simulation
/// output, so byte-comparing it across runs stays a valid check.
pub fn emit(name: &str, exp: &Experiment) {
    metrics::time_stage("main", "render", || {
        print!("{}", exp.render());
        if let Some(footer) = throughput_footer(&exp.runs) {
            eprintln!("{footer}");
        }
        report_written(name, write_experiment(name, exp));
    });
}

/// Reports a results-file write on stderr.
fn report_written(name: &str, written: io::Result<PathBuf>) {
    match written {
        Ok(path) => eprintln!("results: wrote {}", path.display()),
        Err(e) => eprintln!("results: failed to write {name}.jsonl: {e}"),
    }
}

/// Writes `results/<name>.jsonl` for `exp`: its runs, failures and rows.
pub fn write_experiment(name: &str, exp: &Experiment) -> io::Result<PathBuf> {
    write_file(name, |out| write_records(out, name, exp, &[], &[]))
}

/// Writes `results/campaign.jsonl`: a meta record plus every `trace_error`
/// and `ckpt_error` logged so far, draining both logs, and reports the
/// write on stderr. Call it once, after the prefetch; nothing goes to
/// stdout.
pub fn write_campaign_faults() {
    let exp = Experiment::new("Campaign-wide faults".into(), Vec::new());
    let (trace_errors, ckpt_errors) = (take_trace_errors(), take_ckpt_errors());
    let written = write_file(UNIFIED_CAMPAIGN, |out| {
        write_records(out, UNIFIED_CAMPAIGN, &exp, &trace_errors, &ckpt_errors)
    });
    report_written(UNIFIED_CAMPAIGN, written);
}

/// Fills `results/<name>.jsonl` with `write`, replacing any previous
/// file atomically ([`write_atomic`]): a kill mid-render leaves the old
/// file or the new one, never a torn one.
fn write_file(
    name: &str,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    write_atomic(&path, write)?;
    Ok(path)
}

/// Replaces `path` with what `write` produces, so that a reader (or a
/// process killed mid-write) sees either the old file or the new one,
/// never a torn one: `write` fills a sibling `<path>.tmp`, which is
/// fsynced and renamed over `path`.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::new(fs::File::create(&tmp)?);
    write(&mut out)?;
    out.into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .sync_all()?;
    fs::rename(&tmp, path)
}

/// Streams the records for one experiment to `out` (see module docs for
/// the schema). Separated from the file handling for testability.
pub fn write_records(
    out: &mut impl Write,
    name: &str,
    exp: &Experiment,
    trace_errors: &[TraceError],
    ckpt_errors: &[CkptError],
) -> io::Result<()> {
    let runs = &exp.runs;
    let (host_seconds, host_mips) = host_aggregates(runs);
    let mut meta = JsonObject::new();
    meta.field_str("record", "meta")
        .field_str("experiment", name)
        .field_str("title", &exp.title)
        .field_raw("knobs", &scale::knobs().to_json())
        .field_u64("runs", runs.len() as u64)
        .field_f64("host_seconds", host_seconds)
        .field_f64("host_mips", host_mips);
    writeln!(out, "{}", meta.finish())?;
    for run in runs {
        let mut obj = JsonObject::new();
        obj.field_str("record", "report")
            .field_raw("report", &run.report.to_json())
            .field_f64("host_seconds", run.host_seconds)
            .field_f64("cycles_per_sec", run.cycles_per_sec())
            .field_f64("mips", run.mips());
        writeln!(out, "{}", obj.finish())?;
        for sample in &run.samples {
            let mut obj = JsonObject::new();
            obj.field_str("record", "sample")
                .field_str("benchmark", &run.report.benchmark)
                .field_str("policy", &run.report.policy)
                .field_raw("sample", &sample.to_json());
            writeln!(out, "{}", obj.finish())?;
        }
    }
    for te in trace_errors {
        let mut obj = JsonObject::new();
        obj.field_str("record", "trace_error")
            .field_str("benchmark", &te.benchmark)
            .field_str("policy", &te.policy)
            .field_str("path", &te.path)
            .field_str("error", &te.error);
        writeln!(out, "{}", obj.finish())?;
    }
    for f in &exp.failures {
        let mut obj = JsonObject::new();
        obj.field_str("record", "job_failure")
            .field_str("benchmark", &f.benchmark)
            .field_str("policy", &f.policy)
            .field_str("status", &f.status)
            .field_str("detail", &f.detail);
        writeln!(out, "{}", obj.finish())?;
    }
    for ce in ckpt_errors {
        let mut obj = JsonObject::new();
        obj.field_str("record", "ckpt_error")
            .field_str("path", &ce.path)
            .field_str("op", &ce.op)
            .field_str("error", &ce.error);
        writeln!(out, "{}", obj.finish())?;
    }
    for (caption, table) in &exp.tables {
        for row in table.rows() {
            let mut obj = JsonObject::new();
            obj.field_str("record", "table_row")
                .field_str("table", caption);
            for (header, cell) in table.headers().iter().zip(row) {
                obj.field_str(header, cell);
            }
            writeln!(out, "{}", obj.finish())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_core::spec::PolicySpec;
    use emissary_sim::{FaultConfig, SimConfig};
    use emissary_stats::table::Table;
    use emissary_workloads::Profile;

    fn tiny_run() -> SimRun {
        let cfg = SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..SimConfig::default()
        };
        crate::Job::new(
            Profile::by_name("xapian").unwrap(),
            &cfg,
            PolicySpec::BASELINE,
        )
        .run_checked_metered(&FaultConfig::none(), None, "main")
        .unwrap()
    }

    #[test]
    fn records_cover_meta_reports_and_table_rows() {
        let mut t = Table::with_headers(&["benchmark", "speedup"]);
        t.row(vec!["xapian".into(), "1.25%".into()]);
        let run = tiny_run();
        let mut exp = Experiment::new("Test experiment".into(), vec![("caption".into(), t)]);
        exp.runs.push(run.clone());
        let mut buf = Vec::new();
        write_records(&mut buf, "test_exp", &exp, &[], &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + 1 report (no samples without the env var) + 1 table row.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"record\":\"meta\""));
        assert!(lines[0].contains("\"experiment\":\"test_exp\""));
        assert!(lines[0].contains("\"runs\":1"));
        // The meta record names every resolved knob, keyed by variable.
        let meta = emissary_obs::JsonValue::parse(lines[0]).unwrap();
        let knobs = meta.get("knobs").expect("meta carries the knobs");
        assert_eq!(
            knobs.get("EMISSARY_MEASURE_INSNS").and_then(|v| v.as_u64()),
            Some(scale::knobs().measure_instrs)
        );
        assert_eq!(
            knobs.get("EMISSARY_THREADS").and_then(|v| v.as_u64()),
            Some(scale::knobs().threads as u64)
        );
        for name in scale::names() {
            assert!(knobs.get(name).is_some(), "meta lacks {name}: {}", lines[0]);
        }
        assert!(lines[1].contains("\"record\":\"report\""));
        assert!(lines[1].contains(&format!("\"cycles\":{}", run.report.cycles)));
        assert!(lines[2].contains("\"record\":\"table_row\""));
        assert!(lines[2].contains("\"speedup\":\"1.25%\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("emissary_atomic_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.jsonl");
        fs::write(&path, "old\n").unwrap();
        write_atomic(&path, |out| out.write_all(b"new contents\n")).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "new contents\n");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp file left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_and_trace_error_records_are_emitted() {
        let mut exp = Experiment::new("Failure test".into(), Vec::new());
        exp.failures.push(JobFailure {
            benchmark: "verilator".into(),
            policy: "P(8):S".into(),
            status: "panicked".into(),
            detail: "panicked: injected panic".into(),
        });
        let trace_errors = vec![TraceError {
            benchmark: "xapian".into(),
            policy: "M:1".into(),
            path: "traces/x.jsonl".into(),
            error: "permission denied".into(),
        }];
        let ckpt_errors = vec![CkptError {
            path: "results/campaign.ckpt.jsonl".into(),
            op: "append".into(),
            error: "disk full".into(),
        }];
        let mut buf = Vec::new();
        write_records(&mut buf, "fail_exp", &exp, &trace_errors, &ckpt_errors).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"record\":\"trace_error\""));
        assert!(lines[1].contains("\"error\":\"permission denied\""));
        assert!(lines[2].contains("\"record\":\"job_failure\""));
        assert!(lines[2].contains("\"status\":\"panicked\""));
        assert!(lines[2].contains("\"benchmark\":\"verilator\""));
        assert!(!lines[2].contains("attempt"), "{}", lines[2]);
        assert!(lines[3].contains("\"record\":\"ckpt_error\""));
        assert!(lines[3].contains("\"op\":\"append\""));
        assert!(lines[3].contains("\"error\":\"disk full\""));
    }
}
