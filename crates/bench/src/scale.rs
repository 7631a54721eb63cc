//! The knob table: every `EMISSARY_*` environment variable the harness
//! recognises, parsed once per process into one typed [`Knobs`] value.
//!
//! This module is the only code in the workspace that reads the process
//! environment (a tripwire test holds that). [`parse`] is a pure function
//! of the variables it is given: a malformed value is an error naming the
//! variable, and an `EMISSARY_*` name missing from the table is collected
//! in [`Knobs::unknown`] instead of being silently ignored. [`knobs`]
//! resolves the real environment once; on an error it prints the message
//! and exits with status 2, so every entry point refuses a bad
//! configuration before it opens a checkpoint or a journal.
//!
//! Value rules, shared by every knob:
//!
//! * an empty value means unset;
//! * numbers may use `_` separators (`8_000_000`);
//! * flags are exactly `0` or `1`;
//! * where a knob documents `0` as "off", `0` switches it off.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Every harness knob, resolved. Field docs name the variable and its
/// default; README "Environment variables" is the user-facing table.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Measurement window in committed instructions
    /// (`EMISSARY_MEASURE_INSNS`, default 8,000,000). EMISSARY's `R(1/r)`
    /// filter accumulates protected lines over tens of millions of
    /// instructions (the paper simulates 100M); shorter windows shift the
    /// best `r` toward larger probabilities — see EXPERIMENTS.md.
    pub measure_instrs: u64,
    /// Warmup in committed instructions (`EMISSARY_WARMUP_INSNS`, default
    /// 4,000,000). Warmup also accumulates EMISSARY priority marks
    /// (microarchitectural state persists across the measurement
    /// boundary, as in the paper's checkpoint-restore protocol).
    pub warmup_instrs: u64,
    /// Worker threads (`EMISSARY_THREADS`, default: available
    /// parallelism).
    pub threads: usize,
    /// Interval-sampling period in committed instructions
    /// (`EMISSARY_SAMPLE_INTERVAL`; unset or `0` disables). Every job
    /// snapshots IPC, L1I/L2I MPKI, starvation cycles, and the per-set
    /// priority-occupancy histogram at this period into the experiment's
    /// `results/<name>.jsonl`.
    pub sample_interval: Option<u64>,
    /// Event-trace output directory (`EMISSARY_TRACE_OUT`; unset
    /// disables). Every job streams its cycle-stamped event trace to one
    /// `.jsonl` file under this directory.
    pub trace_out: Option<PathBuf>,
    /// Whether the metrics subsystem records (`EMISSARY_METRICS`, default
    /// on). Metrics are recorded at job boundaries and exported only after
    /// each simulation finishes, so leaving them on cannot perturb
    /// simulated behaviour.
    pub metrics: bool,
    /// Per-job wall-clock budget in milliseconds
    /// (`EMISSARY_JOB_TIMEOUT_MS`; unset or `0` disables). The deadline
    /// starts when the job starts, not when the campaign does.
    pub job_timeout_ms: Option<u64>,
    /// Forward-progress watchdog threshold in cycles
    /// (`EMISSARY_STALL_CYCLES`, default
    /// [`emissary_sim::fault::DEFAULT_STALL_CYCLES`]; `0` disables).
    pub stall_cycles: Option<u64>,
    /// Run the invariant auditor at epoch boundaries (`EMISSARY_AUDIT`).
    pub audit: bool,
    /// Resume campaigns from their checkpoint files (`EMISSARY_RESUME`).
    /// Off truncates the checkpoint, so a mistyped value must never read
    /// as off: it is a parse error instead.
    pub resume: bool,
    /// Retry budget for panicked / retryable-aborted jobs
    /// (`EMISSARY_JOB_RETRIES`, default 1; `0` disables retry). A job is
    /// attempted at most `1 + retries` times.
    pub job_retries: u32,
    /// Base retry backoff in milliseconds (`EMISSARY_RETRY_BACKOFF_MS`,
    /// default [`crate::pool::RETRY_BACKOFF_MS`]; `0` disables the
    /// sleep), jittered per job by [`crate::chaos::retry_backoff`].
    pub retry_backoff_ms: u64,
    /// Fire drill (`EMISSARY_INJECT_PANIC=<benchmark>/<policy>`): the
    /// matching job panics instead of running.
    pub inject_panic: Option<String>,
    /// Chaos seed (`EMISSARY_CHAOS_SEED`; unset disables fault
    /// injection, see [`crate::chaos`]).
    pub chaos_seed: Option<u64>,
    /// Per-site chaos fault probability in `[0, 1]`
    /// (`EMISSARY_CHAOS_RATE`, default
    /// [`crate::chaos::DEFAULT_CHAOS_RATE`]).
    pub chaos_rate: f64,
    /// Whether the campaign scheduler prints its stderr progress line
    /// (`EMISSARY_PROGRESS`, default on).
    pub progress: bool,
    /// Golden-report bless mode (`EMISSARY_BLESS`): print the digests
    /// the current build produces instead of failing on a mismatch.
    pub bless: bool,
    /// `emissary-serve` listen address (`EMISSARY_SERVE_ADDR`, default
    /// `127.0.0.1:7464`).
    pub serve_addr: String,
    /// `emissary-serve` journal/checkpoint directory
    /// (`EMISSARY_SERVE_DIR`, default `results`).
    pub serve_dir: PathBuf,
    /// Queued-job bound (`EMISSARY_SERVE_QUEUE_DEPTH`, default 256).
    pub serve_queue_depth: usize,
    /// Per-tenant unfinished-job bound (`EMISSARY_SERVE_TENANT_INFLIGHT`,
    /// default 8).
    pub serve_tenant_inflight: usize,
    /// Concurrent-connection cap (`EMISSARY_SERVE_MAX_CONNS`, default 64).
    pub serve_max_conns: usize,
    /// Request-body byte cap (`EMISSARY_SERVE_MAX_BODY`, default 65,536).
    pub serve_max_body: usize,
    /// Per-connection socket timeout in milliseconds
    /// (`EMISSARY_SERVE_IO_TIMEOUT_MS`, default 10,000).
    pub serve_io_timeout_ms: u64,
    /// Raw `tenant=token,...` auth table (`EMISSARY_SERVE_TOKENS`; empty
    /// means one anonymous tenant).
    pub serve_tokens: String,
    /// `EMISSARY_*` names that are not in the table, in input order.
    /// [`knobs`] warns once on stderr for each.
    pub unknown: Vec<String>,
}

impl Default for Knobs {
    fn default() -> Self {
        Self {
            measure_instrs: 8_000_000,
            warmup_instrs: 4_000_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            sample_interval: None,
            trace_out: None,
            metrics: true,
            job_timeout_ms: None,
            stall_cycles: Some(emissary_sim::fault::DEFAULT_STALL_CYCLES),
            audit: false,
            resume: false,
            job_retries: 1,
            retry_backoff_ms: crate::pool::RETRY_BACKOFF_MS,
            inject_panic: None,
            chaos_seed: None,
            chaos_rate: crate::chaos::DEFAULT_CHAOS_RATE,
            progress: true,
            bless: false,
            serve_addr: "127.0.0.1:7464".to_string(),
            serve_dir: PathBuf::from("results"),
            serve_queue_depth: 256,
            serve_tenant_inflight: 8,
            serve_max_conns: 64,
            serve_max_body: 65_536,
            serve_io_timeout_ms: 10_000,
            serve_tokens: String::new(),
            unknown: Vec::new(),
        }
    }
}

/// A malformed knob value, naming the variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The variable (`EMISSARY_…`).
    pub name: String,
    /// Its rejected value.
    pub value: String,
    /// What the value should have been.
    pub reason: String,
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.name, self.value, self.reason)
    }
}

impl std::error::Error for KnobError {}

type Setter = fn(&mut Knobs, &str) -> Result<(), String>;

/// The knob table: every recognised name and how its value sets a field.
#[rustfmt::skip]
const TABLE: &[(&str, Setter)] = &[
    ("EMISSARY_MEASURE_INSNS", |k, v| positive(v).map(|x| k.measure_instrs = x)),
    ("EMISSARY_WARMUP_INSNS", |k, v| positive(v).map(|x| k.warmup_instrs = x)),
    ("EMISSARY_THREADS", |k, v| positive(v).map(|x| k.threads = x)),
    ("EMISSARY_SAMPLE_INTERVAL", |k, v| zero_off(v).map(|x| k.sample_interval = x)),
    ("EMISSARY_TRACE_OUT", |k, v| text(v).map(|x| k.trace_out = Some(x.into()))),
    ("EMISSARY_METRICS", |k, v| flag(v).map(|x| k.metrics = x)),
    ("EMISSARY_JOB_TIMEOUT_MS", |k, v| zero_off(v).map(|x| k.job_timeout_ms = x)),
    ("EMISSARY_STALL_CYCLES", |k, v| zero_off(v).map(|x| k.stall_cycles = x)),
    ("EMISSARY_AUDIT", |k, v| flag(v).map(|x| k.audit = x)),
    ("EMISSARY_RESUME", |k, v| flag(v).map(|x| k.resume = x)),
    ("EMISSARY_JOB_RETRIES", |k, v| number(v).map(|x| k.job_retries = x)),
    ("EMISSARY_RETRY_BACKOFF_MS", |k, v| number(v).map(|x| k.retry_backoff_ms = x)),
    ("EMISSARY_INJECT_PANIC", |k, v| text(v).map(|x| k.inject_panic = Some(x))),
    ("EMISSARY_CHAOS_SEED", |k, v| number(v).map(|x| k.chaos_seed = Some(x))),
    ("EMISSARY_CHAOS_RATE", |k, v| fraction(v).map(|x| k.chaos_rate = x)),
    ("EMISSARY_PROGRESS", |k, v| flag(v).map(|x| k.progress = x)),
    ("EMISSARY_BLESS", |k, v| flag(v).map(|x| k.bless = x)),
    ("EMISSARY_SERVE_ADDR", |k, v| text(v).map(|x| k.serve_addr = x)),
    ("EMISSARY_SERVE_DIR", |k, v| text(v).map(|x| k.serve_dir = x.into())),
    ("EMISSARY_SERVE_QUEUE_DEPTH", |k, v| number(v).map(|x| k.serve_queue_depth = x)),
    ("EMISSARY_SERVE_TENANT_INFLIGHT", |k, v| number(v).map(|x| k.serve_tenant_inflight = x)),
    ("EMISSARY_SERVE_MAX_CONNS", |k, v| number(v).map(|x| k.serve_max_conns = x)),
    ("EMISSARY_SERVE_MAX_BODY", |k, v| number(v).map(|x| k.serve_max_body = x)),
    ("EMISSARY_SERVE_IO_TIMEOUT_MS", |k, v| number(v).map(|x| k.serve_io_timeout_ms = x)),
    ("EMISSARY_SERVE_TOKENS", |k, v| text(v).map(|x| k.serve_tokens = x)),
];

/// Every recognised `EMISSARY_*` name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|(name, _)| *name)
}

/// The numeric parser every knob shares: `_` separators are allowed.
fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.replace('_', "")
        .parse()
        .map_err(|_| "expected a number".to_string())
}

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Result<T, String> {
    let n: T = number(v)?;
    if n > T::default() {
        Ok(n)
    } else {
        Err("expected a number above 0".to_string())
    }
}

fn zero_off(v: &str) -> Result<Option<u64>, String> {
    number(v).map(|n: u64| (n > 0).then_some(n))
}

fn fraction(v: &str) -> Result<f64, String> {
    let x: f64 = number(v)?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err("expected a probability in [0, 1]".to_string())
    }
}

fn flag(v: &str) -> Result<bool, String> {
    match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("expected 0 or 1".to_string()),
    }
}

/// Resolves knobs from `(name, value)` pairs, starting from the defaults.
/// Names outside the `EMISSARY_` prefix are ignored; empty values count
/// as unset. Pure: the result depends only on `vars` (and, for the
/// `EMISSARY_THREADS` default, the host's parallelism).
pub fn parse<I, K, V>(vars: I) -> Result<Knobs, KnobError>
where
    I: IntoIterator<Item = (K, V)>,
    K: AsRef<str>,
    V: AsRef<str>,
{
    let mut knobs = Knobs::default();
    for (name, value) in vars {
        let (name, value) = (name.as_ref(), value.as_ref());
        if !name.starts_with("EMISSARY_") {
            continue;
        }
        match TABLE.iter().find(|(known, _)| *known == name) {
            None => knobs.unknown.push(name.to_string()),
            Some(_) if value.is_empty() => {}
            Some((_, set)) => set(&mut knobs, value).map_err(|reason| KnobError {
                name: name.to_string(),
                value: value.to_string(),
                reason,
            })?,
        }
    }
    Ok(knobs)
}

/// The process's knobs, parsed from the environment on first use. Warns
/// once on stderr per unknown `EMISSARY_*` name; on a malformed value,
/// prints the error and exits with status 2.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let vars = std::env::vars_os().map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        });
        match parse(vars) {
            Ok(knobs) => {
                for name in &knobs.unknown {
                    eprintln!(
                        "warning: unknown knob {name} ignored \
                         (README \"Environment variables\" lists the recognised ones)"
                    );
                }
                knobs
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(vars: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        parse(vars.iter().copied())
    }

    fn rejects(name: &str, value: &str) {
        let err = parsed(&[(name, value)]).expect_err(&format!("{name}={value:?} must fail"));
        assert_eq!(err.name, name);
        assert_eq!(err.value, value);
        assert!(err.to_string().contains(name), "{err}");
    }

    #[test]
    fn empty_environment_yields_the_documented_defaults() {
        let k = parsed(&[]).unwrap();
        assert_eq!(k.measure_instrs, 8_000_000);
        assert_eq!(k.warmup_instrs, 4_000_000);
        assert!(k.threads > 0);
        assert_eq!(k.sample_interval, None);
        assert_eq!(k.trace_out, None);
        assert!(k.metrics);
        assert_eq!(k.job_timeout_ms, None);
        assert_eq!(
            k.stall_cycles,
            Some(emissary_sim::fault::DEFAULT_STALL_CYCLES)
        );
        assert!(!k.audit);
        assert!(!k.resume);
        assert_eq!(k.job_retries, 1);
        assert_eq!(k.retry_backoff_ms, crate::pool::RETRY_BACKOFF_MS);
        assert_eq!(k.inject_panic, None);
        assert_eq!(k.chaos_seed, None);
        assert_eq!(k.chaos_rate, crate::chaos::DEFAULT_CHAOS_RATE);
        assert!(k.progress);
        assert!(!k.bless);
        assert_eq!(k.serve_addr, "127.0.0.1:7464");
        assert_eq!(k.serve_dir, PathBuf::from("results"));
        assert!(k.unknown.is_empty());
    }

    #[test]
    fn every_flag_takes_exactly_0_or_1() {
        type Get = fn(&Knobs) -> bool;
        let flags: &[(&str, Get)] = &[
            ("EMISSARY_METRICS", |k| k.metrics),
            ("EMISSARY_AUDIT", |k| k.audit),
            ("EMISSARY_RESUME", |k| k.resume),
            ("EMISSARY_PROGRESS", |k| k.progress),
            ("EMISSARY_BLESS", |k| k.bless),
        ];
        for &(name, get) in flags {
            assert!(get(&parsed(&[(name, "1")]).unwrap()), "{name}=1");
            assert!(!get(&parsed(&[(name, "0")]).unwrap()), "{name}=0");
            for bad in ["true", "yes", "on", "2", " 1"] {
                rejects(name, bad);
            }
        }
    }

    #[test]
    fn numbers_accept_underscore_separators() {
        let k = parsed(&[
            ("EMISSARY_MEASURE_INSNS", "1_000_000"),
            ("EMISSARY_WARMUP_INSNS", "250_000"),
            ("EMISSARY_THREADS", "3"),
            ("EMISSARY_JOB_RETRIES", "1_0"),
            ("EMISSARY_CHAOS_SEED", "12_345"),
            ("EMISSARY_SERVE_MAX_BODY", "1_048_576"),
            ("EMISSARY_SERVE_IO_TIMEOUT_MS", "2_500"),
        ])
        .unwrap();
        assert_eq!(k.measure_instrs, 1_000_000);
        assert_eq!(k.warmup_instrs, 250_000);
        assert_eq!(k.threads, 3);
        assert_eq!(k.job_retries, 10);
        assert_eq!(k.chaos_seed, Some(12_345));
        assert_eq!(k.serve_max_body, 1_048_576);
        assert_eq!(k.serve_io_timeout_ms, 2_500);
    }

    #[test]
    fn zero_switches_off_the_knobs_that_document_it() {
        let zero = |name| parsed(&[(name, "0")]).unwrap();
        assert_eq!(zero("EMISSARY_STALL_CYCLES").stall_cycles, None);
        assert_eq!(zero("EMISSARY_JOB_TIMEOUT_MS").job_timeout_ms, None);
        assert_eq!(zero("EMISSARY_SAMPLE_INTERVAL").sample_interval, None);
        assert_eq!(zero("EMISSARY_RETRY_BACKOFF_MS").retry_backoff_ms, 0);
        assert_eq!(zero("EMISSARY_JOB_RETRIES").job_retries, 0);
        let on = parsed(&[
            ("EMISSARY_STALL_CYCLES", "500"),
            ("EMISSARY_JOB_TIMEOUT_MS", "9_000"),
            ("EMISSARY_SAMPLE_INTERVAL", "50_000"),
        ])
        .unwrap();
        assert_eq!(on.stall_cycles, Some(500));
        assert_eq!(on.job_timeout_ms, Some(9_000));
        assert_eq!(on.sample_interval, Some(50_000));
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (name, bad) in [
            ("EMISSARY_MEASURE_INSNS", "8M"),
            ("EMISSARY_MEASURE_INSNS", "0"),
            ("EMISSARY_WARMUP_INSNS", "-1"),
            ("EMISSARY_THREADS", "0"),
            ("EMISSARY_STALL_CYCLES", "never"),
            ("EMISSARY_JOB_RETRIES", "-1"),
            ("EMISSARY_CHAOS_SEED", "0x10"),
            ("EMISSARY_CHAOS_RATE", "1.5"),
            ("EMISSARY_CHAOS_RATE", "NaN"),
            ("EMISSARY_SERVE_QUEUE_DEPTH", "lots"),
        ] {
            rejects(name, bad);
        }
    }

    #[test]
    fn a_mistyped_resume_value_is_an_error_not_a_fresh_campaign() {
        let err = parsed(&[("EMISSARY_RESUME", "true")]).unwrap_err();
        assert_eq!(err.name, "EMISSARY_RESUME");
        assert_eq!(
            err.to_string(),
            "invalid EMISSARY_RESUME=\"true\": expected 0 or 1"
        );
    }

    #[test]
    fn unknown_names_are_collected_and_otherwise_ignored() {
        let k = parsed(&[
            ("EMISSARY_RESUMEE", "1"),
            ("PATH", "/usr/bin"),
            ("EMISSARY_SEQUENTIAL", "1"),
            ("EMISSARY_SCALING_GATE", "1.0"),
        ])
        .unwrap();
        assert!(!k.resume);
        assert_eq!(
            k.unknown,
            [
                "EMISSARY_RESUMEE",
                "EMISSARY_SEQUENTIAL",
                "EMISSARY_SCALING_GATE"
            ]
        );
    }

    #[test]
    fn strings_paths_and_empty_values() {
        let k = parsed(&[
            ("EMISSARY_TRACE_OUT", "traces"),
            ("EMISSARY_INJECT_PANIC", "tomcat/P(8):S&E"),
            ("EMISSARY_CHAOS_RATE", "0.02"),
            ("EMISSARY_SERVE_TOKENS", "a=x,b=y"),
            ("EMISSARY_MEASURE_INSNS", ""),
        ])
        .unwrap();
        assert_eq!(k.trace_out, Some(PathBuf::from("traces")));
        assert_eq!(k.inject_panic.as_deref(), Some("tomcat/P(8):S&E"));
        assert_eq!(k.chaos_rate, 0.02);
        assert_eq!(k.serve_tokens, "a=x,b=y");
        assert_eq!(k.measure_instrs, 8_000_000, "empty means unset");
    }

    #[test]
    fn table_names_are_unique_and_prefixed() {
        let all: Vec<&str> = names().collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate knob name");
        assert!(all.iter().all(|n| n.starts_with("EMISSARY_")));
    }
}
