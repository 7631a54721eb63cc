//! Structured JSONL results emission shared by the experiment binaries.
//!
//! Every binary renders its tables to stdout (unchanged) and, through
//! [`emit`], additionally writes `results/<name>.jsonl` containing:
//!
//! * one `meta` record — experiment name, title, run lengths, sampling
//!   interval;
//! * one `report` record per simulation (the full [`SimReport`]);
//! * one `sample` record per interval sample (when
//!   `EMISSARY_SAMPLE_INTERVAL` is set);
//! * one `trace_error` record per event-trace sink that failed to open
//!   (the affected run proceeded untraced);
//! * one `job_failure` record per job that panicked, aborted, or was
//!   rejected by config validation (see [`crate::pool::JobOutcome`]);
//! * one `table_row` record per rendered table row, keyed by column
//!   header — these carry exactly the values printed in the `.txt`
//!   tables, so downstream tooling never has to re-derive or re-parse
//!   the text output.
//!
//! Simulations executed through [`crate::experiments::run_matrix`] are
//! collected automatically; binaries that drive [`crate::Job`] directly
//! call [`log_run`] themselves. The log is process-global and drained by
//! each [`emit`]/[`write_experiment`], matching the
//! one-experiment-at-a-time structure of the binaries.

use std::cell::{Cell, RefCell};
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use emissary_obs::JsonObject;
use emissary_sim::SimRun;

use crate::experiments::Experiment;
use crate::{metrics, scale};

use crate::chaos::lock_unpoisoned;

static RUN_LOG: Mutex<Vec<SimRun>> = Mutex::new(Vec::new());
static TRACE_ERRORS: Mutex<Vec<TraceError>> = Mutex::new(Vec::new());
static FAILURES: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
static CKPT_ERRORS: Mutex<Vec<CkptError>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-worker result buffer, installed by [`worker_log_scope`]. When
    /// present, every `log_*` call on this thread appends here — no
    /// global mutex — and the buffer drains into the process-global logs
    /// exactly once, when the scope drops at worker exit.
    static LOCAL_LOG: RefCell<Option<Box<LocalLog>>> = const { RefCell::new(None) };
    /// Whether this thread is a pool/serve worker. A worker that reaches
    /// a global log mutex anyway (a regression re-introducing shared
    /// state on the job path) trips the
    /// `emissary_worker_global_lock_acquisitions_total` counter.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

#[derive(Default)]
struct LocalLog {
    runs: Vec<SimRun>,
    trace_errors: Vec<TraceError>,
    failures: Vec<JobFailure>,
    ckpt_errors: Vec<CkptError>,
}

/// Runs `f` against this thread's local buffer, or returns `None` (take
/// the global path) when no worker scope is installed.
fn with_local<T>(f: impl FnOnce(&mut LocalLog) -> T) -> Option<T> {
    LOCAL_LOG.with(|l| l.borrow_mut().as_deref_mut().map(f))
}

/// Tripwire for the global fallback path: counts the acquisition when
/// taken from a worker thread. Structurally zero — workers always have a
/// local buffer — so a nonzero count is a contention regression, and the
/// scaling stress test asserts exactly that.
fn note_global_path() {
    if IS_WORKER.with(Cell::get) {
        metrics::note_worker_global_lock();
    }
}

/// Marks this thread as a pool worker and installs its private result
/// buffer. On drop the buffer drains into the process-global logs in one
/// lock acquisition per log — the only time a worker touches them.
/// Returned guard must outlive every job the worker runs.
pub fn worker_log_scope() -> WorkerLogScope {
    LOCAL_LOG.with(|l| *l.borrow_mut() = Some(Box::default()));
    IS_WORKER.with(|w| w.set(true));
    WorkerLogScope { _priv: () }
}

/// RAII guard for a worker's private result buffer (see
/// [`worker_log_scope`]).
pub struct WorkerLogScope {
    _priv: (),
}

impl Drop for WorkerLogScope {
    fn drop(&mut self) {
        let buf = LOCAL_LOG.with(|l| l.borrow_mut().take());
        IS_WORKER.with(|w| w.set(false));
        let Some(buf) = buf else { return };
        // The end-of-scope drain is the sanctioned global touch: one
        // acquisition per non-empty log per worker, after the last job.
        if !buf.runs.is_empty() {
            lock_unpoisoned(&RUN_LOG).extend(buf.runs);
        }
        if !buf.trace_errors.is_empty() {
            lock_unpoisoned(&TRACE_ERRORS).extend(buf.trace_errors);
        }
        if !buf.failures.is_empty() {
            lock_unpoisoned(&FAILURES).extend(buf.failures);
        }
        if !buf.ckpt_errors.is_empty() {
            lock_unpoisoned(&CKPT_ERRORS).extend(buf.ckpt_errors);
        }
    }
}

/// A failed attempt to open a per-job event-trace sink: the run proceeded
/// untraced, and the experiment's results file records the degradation.
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

/// A job attempt that did not complete (panicked, aborted, rejected, or
/// interrupted), rendered as a `job_failure` record in the experiment's
/// results file. With bounded retry active a job can contribute several
/// records: each retried attempt (with `retried: true` and its attempt
/// number) plus the final one — the full attempt history, in order.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 policy notation.
    pub policy: String,
    /// Machine-readable status (`panicked`/`timeout`/`stalled`/`audit`/
    /// `rejected`/`interrupted`).
    pub status: String,
    /// Human-readable failure description.
    pub detail: String,
    /// Which attempt failed (1-based).
    pub attempt: u32,
    /// Whether the pool retried the job after this failure.
    pub retried: bool,
}

/// A checkpoint I/O failure the campaign degraded around (memo-only
/// mode, quarantine trouble, failed rotation), rendered as a
/// `ckpt_error` record in the experiment's results file.
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

/// Appends one run to this worker's buffer, or the process-global run
/// log outside a worker scope.
pub fn log_run(run: &SimRun) {
    if with_local(|l| l.runs.push(run.clone())).is_some() {
        return;
    }
    note_global_path();
    lock_unpoisoned(&RUN_LOG).push(run.clone());
}

/// Records a failed trace-sink open (or a sink that degraded mid-run) in
/// this worker's buffer, or the process-global log outside a scope.
pub fn log_trace_error(benchmark: &str, policy: &str, path: &str, error: &str) {
    let te = TraceError {
        benchmark: benchmark.to_string(),
        policy: policy.to_string(),
        path: path.to_string(),
        error: error.to_string(),
    };
    match with_local(|l| l.trace_errors.push(te.clone())) {
        Some(()) => {}
        None => {
            note_global_path();
            lock_unpoisoned(&TRACE_ERRORS).push(te);
        }
    }
}

/// Records a checkpoint I/O failure in this worker's buffer, or the
/// process-global log outside a scope (the checkpoint drain thread and
/// campaign open both land here).
pub fn log_ckpt_error(path: &Path, op: &str, error: &io::Error) {
    let ce = CkptError {
        path: path.display().to_string(),
        op: op.to_string(),
        error: error.to_string(),
    };
    match with_local(|l| l.ckpt_errors.push(ce.clone())) {
        Some(()) => {}
        None => {
            note_global_path();
            lock_unpoisoned(&CKPT_ERRORS).push(ce);
        }
    }
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
            attempt: outcome.attempts(),
            retried: false,
        })
    }
}

/// Records a failed job outcome in this worker's buffer, or the
/// process-global log outside a scope (completed outcomes are ignored).
pub fn log_failure(outcome: &crate::pool::JobOutcome) {
    if let Some(f) = JobFailure::from_outcome(outcome) {
        push_failure(f);
    }
}

/// Records a failed attempt that the pool is about to retry, so the
/// attempt history stays visible in the results JSONL even when the job
/// eventually completes.
pub fn log_retried_failure(outcome: &crate::pool::JobOutcome) {
    if let Some(mut f) = JobFailure::from_outcome(outcome) {
        f.retried = true;
        push_failure(f);
    }
}

fn push_failure(f: JobFailure) {
    match with_local(|l| l.failures.push(f.clone())) {
        Some(()) => {}
        None => {
            note_global_path();
            lock_unpoisoned(&FAILURES).push(f);
        }
    }
}

/// Appends runs to the process-global run log (in the given order).
pub fn log_runs(runs: &[SimRun]) {
    if with_local(|l| l.runs.extend_from_slice(runs)).is_some() {
        return;
    }
    note_global_path();
    lock_unpoisoned(&RUN_LOG).extend_from_slice(runs);
}

/// Drains the process-global run log.
pub fn take_logged_runs() -> Vec<SimRun> {
    std::mem::take(&mut *lock_unpoisoned(&RUN_LOG))
}

/// Drains the process-global trace-error log.
pub fn take_trace_errors() -> Vec<TraceError> {
    std::mem::take(&mut *lock_unpoisoned(&TRACE_ERRORS))
}

/// Drains the process-global job-failure log.
pub fn take_failures() -> Vec<JobFailure> {
    std::mem::take(&mut *lock_unpoisoned(&FAILURES))
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
/// experiment binary. The host-throughput footer goes to stderr with
/// the other diagnostics: stdout carries only deterministic simulation
/// output, so byte-comparing it across runs stays a valid check.
pub fn emit(name: &str, exp: &Experiment) {
    metrics::time_stage("main", "render", || {
        print!("{}", exp.render());
        if let Some(footer) = throughput_footer(&lock_unpoisoned(&RUN_LOG)) {
            eprintln!("{footer}");
        }
        match write_experiment(name, exp) {
            Ok(path) => eprintln!("results: wrote {}", path.display()),
            Err(e) => eprintln!("results: failed to write {name}.jsonl: {e}"),
        }
    });
}

/// Writes `results/<name>.jsonl` for `exp`, consuming the logged runs.
pub fn write_experiment(name: &str, exp: &Experiment) -> io::Result<PathBuf> {
    let runs = take_logged_runs();
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let trace_errors = take_trace_errors();
    let failures = take_failures();
    let ckpt_errors = take_ckpt_errors();
    let mut out = BufWriter::new(fs::File::create(&path)?);
    write_records(
        &mut out,
        name,
        exp,
        &runs,
        &trace_errors,
        &failures,
        &ckpt_errors,
    )?;
    out.flush()?;
    Ok(path)
}

/// Streams the records for one experiment to `out` (see module docs for
/// the schema). Separated from the file handling for testability.
pub fn write_records(
    out: &mut impl Write,
    name: &str,
    exp: &Experiment,
    runs: &[SimRun],
    trace_errors: &[TraceError],
    failures: &[JobFailure],
    ckpt_errors: &[CkptError],
) -> io::Result<()> {
    let (host_seconds, host_mips) = host_aggregates(runs);
    let mut meta = JsonObject::new();
    meta.field_str("record", "meta")
        .field_str("experiment", name)
        .field_str("title", &exp.title)
        .field_u64("warmup_instrs", scale::knobs().warmup_instrs)
        .field_u64("measure_instrs", scale::knobs().measure_instrs)
        .field_u64(
            "sample_interval",
            scale::knobs().sample_interval.unwrap_or(0),
        )
        .field_u64("runs", runs.len() as u64)
        .field_u64("threads", scale::knobs().threads as u64)
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
    for f in failures {
        let mut obj = JsonObject::new();
        obj.field_str("record", "job_failure")
            .field_str("benchmark", &f.benchmark)
            .field_str("policy", &f.policy)
            .field_str("status", &f.status)
            .field_str("detail", &f.detail)
            .field_u64("attempt", u64::from(f.attempt))
            .field_bool("retried", f.retried);
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
    use emissary_sim::SimConfig;
    use emissary_stats::table::Table;
    use emissary_workloads::Profile;

    fn tiny_run() -> SimRun {
        let cfg = SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..SimConfig::default()
        }
        .with_policy(PolicySpec::BASELINE);
        let job = crate::Job {
            profile: Profile::by_name("xapian").unwrap(),
            config: cfg,
            inject: None,
        };
        job.run_observed()
    }

    #[test]
    fn records_cover_meta_reports_and_table_rows() {
        let mut t = Table::with_headers(&["benchmark", "speedup"]);
        t.row(vec!["xapian".into(), "1.25%".into()]);
        let exp = Experiment {
            title: "Test experiment".into(),
            tables: vec![("caption".into(), t)],
        };
        let run = tiny_run();
        let mut buf = Vec::new();
        write_records(
            &mut buf,
            "test_exp",
            &exp,
            std::slice::from_ref(&run),
            &[],
            &[],
            &[],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // meta + 1 report (no samples without the env var) + 1 table row.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"record\":\"meta\""));
        assert!(lines[0].contains("\"experiment\":\"test_exp\""));
        assert!(lines[1].contains("\"record\":\"report\""));
        assert!(lines[1].contains(&format!("\"cycles\":{}", run.report.cycles)));
        assert!(lines[2].contains("\"record\":\"table_row\""));
        assert!(lines[2].contains("\"speedup\":\"1.25%\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn failure_and_trace_error_records_are_emitted() {
        let exp = Experiment {
            title: "Failure test".into(),
            tables: Vec::new(),
        };
        let trace_errors = vec![TraceError {
            benchmark: "xapian".into(),
            policy: "M:1".into(),
            path: "traces/x.jsonl".into(),
            error: "permission denied".into(),
        }];
        let failures = vec![JobFailure {
            benchmark: "verilator".into(),
            policy: "P(8):S".into(),
            status: "panicked".into(),
            detail: "panicked: injected panic".into(),
            attempt: 2,
            retried: false,
        }];
        let ckpt_errors = vec![CkptError {
            path: "results/campaign.ckpt.jsonl".into(),
            op: "append".into(),
            error: "disk full".into(),
        }];
        let mut buf = Vec::new();
        write_records(
            &mut buf,
            "fail_exp",
            &exp,
            &[],
            &trace_errors,
            &failures,
            &ckpt_errors,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"record\":\"trace_error\""));
        assert!(lines[1].contains("\"error\":\"permission denied\""));
        assert!(lines[2].contains("\"record\":\"job_failure\""));
        assert!(lines[2].contains("\"status\":\"panicked\""));
        assert!(lines[2].contains("\"benchmark\":\"verilator\""));
        assert!(lines[2].contains("\"attempt\":2"));
        assert!(lines[2].contains("\"retried\":false"));
        assert!(lines[3].contains("\"record\":\"ckpt_error\""));
        assert!(lines[3].contains("\"op\":\"append\""));
        assert!(lines[3].contains("\"error\":\"disk full\""));
    }

    #[test]
    fn worker_scope_buffers_until_drop() {
        let marker = format!("scope-test-{}", std::process::id());
        let m2 = marker.clone();
        std::thread::spawn(move || {
            let _scope = worker_log_scope();
            log_trace_error("bench", "M:1", &m2, "buffered");
            // Still buffered: the global log must not hold it yet.
            assert!(!lock_unpoisoned(&TRACE_ERRORS).iter().any(|t| t.path == m2));
        })
        .join()
        .unwrap();
        // Scope dropped at thread exit → drained into the global log.
        let mut all = take_trace_errors();
        assert_eq!(all.iter().filter(|t| t.path == marker).count(), 1);
        // Re-log everything that belongs to concurrently running tests.
        all.retain(|t| t.path != marker);
        for t in all {
            log_trace_error(&t.benchmark, &t.policy, &t.path, &t.error);
        }
    }

    #[test]
    fn run_log_accumulates_and_drains() {
        // The log is process-global and other tests may interleave with
        // this one, so assert containment rather than exact counts.
        let run = tiny_run();
        log_run(&run);
        log_runs(std::slice::from_ref(&run));
        let drained = take_logged_runs();
        let ours = drained.iter().filter(|r| r.report == run.report).count();
        assert!(ours >= 2, "logged runs missing: {ours}");
    }
}
