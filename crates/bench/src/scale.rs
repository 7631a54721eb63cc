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
//! configuration before it opens a checkpoint.
//!
//! Value rules, shared by every knob:
//!
//! * an empty value means unset;
//! * numbers may use `_` separators (`8_000_000`);
//! * flags are exactly `0` or `1`;
//! * where a knob documents `0` as "off", `0` switches it off.
//!
//! [`Knobs::to_json`] renders every resolved value back out, keyed by
//! its variable; each `results/<name>.jsonl` `meta` record carries it, so
//! a result names the settings that produced it.

use std::path::PathBuf;
use std::sync::OnceLock;

use emissary_obs::JsonObject;

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
    /// Run the invariant auditor at epoch boundaries (`EMISSARY_AUDIT`).
    pub audit: bool,
    /// Resume campaigns from their checkpoint files (`EMISSARY_RESUME`):
    /// replay the completed jobs and re-run the rest, which is how a
    /// failed job is recovered. Off re-simulates everything, so a
    /// mistyped value must never read as off: it is a parse error
    /// instead.
    pub resume: bool,
    /// Chaos seed (`EMISSARY_CHAOS_SEED`; unset disables fault
    /// injection, see [`crate::chaos`]; the rate is
    /// [`crate::chaos::CHAOS_RATE`]).
    pub chaos_seed: Option<u64>,
    /// Whether the campaign scheduler prints its stderr progress line
    /// (`EMISSARY_PROGRESS`, default on).
    pub progress: bool,
    /// Golden-report bless mode (`EMISSARY_BLESS`): print the digests
    /// the current build produces instead of failing on a mismatch.
    pub bless: bool,
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
            audit: false,
            resume: false,
            chaos_seed: None,
            progress: true,
            bless: false,
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

/// Renders a knob's resolved value as raw JSON (`null` when unset).
type Getter = fn(&Knobs) -> String;

/// The knob table: every recognised name, how its value sets a field,
/// and how the field renders back out.
#[rustfmt::skip]
const TABLE: &[(&str, Setter, Getter)] = &[
    ("EMISSARY_MEASURE_INSNS", |k, v| positive(v).map(|x| k.measure_instrs = x), |k| k.measure_instrs.to_string()),
    ("EMISSARY_WARMUP_INSNS", |k, v| positive(v).map(|x| k.warmup_instrs = x), |k| k.warmup_instrs.to_string()),
    ("EMISSARY_THREADS", |k, v| positive(v).map(|x| k.threads = x), |k| k.threads.to_string()),
    ("EMISSARY_SAMPLE_INTERVAL", |k, v| zero_off(v).map(|x| k.sample_interval = x), |k| or_null(k.sample_interval)),
    ("EMISSARY_TRACE_OUT", |k, v| text(v).map(|x| k.trace_out = Some(x.into())), |k| or_null(k.trace_out.as_ref().map(|p| quoted(&p.to_string_lossy())))),
    ("EMISSARY_METRICS", |k, v| flag(v).map(|x| k.metrics = x), |k| k.metrics.to_string()),
    ("EMISSARY_AUDIT", |k, v| flag(v).map(|x| k.audit = x), |k| k.audit.to_string()),
    ("EMISSARY_RESUME", |k, v| flag(v).map(|x| k.resume = x), |k| k.resume.to_string()),
    ("EMISSARY_CHAOS_SEED", |k, v| number(v).map(|x| k.chaos_seed = Some(x)), |k| or_null(k.chaos_seed)),
    ("EMISSARY_PROGRESS", |k, v| flag(v).map(|x| k.progress = x), |k| k.progress.to_string()),
    ("EMISSARY_BLESS", |k, v| flag(v).map(|x| k.bless = x), |k| k.bless.to_string()),
];

/// Every recognised `EMISSARY_*` name, in table order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().map(|(name, ..)| *name)
}

impl Knobs {
    /// Every knob's resolved value as one JSON object keyed by its
    /// variable name, in table order: numbers and flags as JSON numbers
    /// and booleans, an unset optional knob as `null`.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, _, get) in TABLE {
            obj.field_raw(name, &get(self));
        }
        obj.finish()
    }
}

fn or_null(v: Option<impl ToString>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    emissary_obs::json::escape_into(&mut out, s);
    out.push('"');
    out
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
        match TABLE.iter().find(|(known, ..)| *known == name) {
            None => knobs.unknown.push(name.to_string()),
            Some(_) if value.is_empty() => {}
            Some((_, set, _)) => set(&mut knobs, value).map_err(|reason| KnobError {
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
        assert!(!k.audit);
        assert!(!k.resume);
        assert_eq!(k.chaos_seed, None);
        assert!(k.progress);
        assert!(!k.bless);
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
            ("EMISSARY_CHAOS_SEED", "12_345"),
            ("EMISSARY_SAMPLE_INTERVAL", "1_048_576"),
        ])
        .unwrap();
        assert_eq!(k.measure_instrs, 1_000_000);
        assert_eq!(k.warmup_instrs, 250_000);
        assert_eq!(k.threads, 3);
        assert_eq!(k.chaos_seed, Some(12_345));
        assert_eq!(k.sample_interval, Some(1_048_576));
    }

    #[test]
    fn zero_switches_off_the_knobs_that_document_it() {
        let zero = |name| parsed(&[(name, "0")]).unwrap();
        assert_eq!(zero("EMISSARY_SAMPLE_INTERVAL").sample_interval, None);
        let on = parsed(&[("EMISSARY_SAMPLE_INTERVAL", "50_000")]).unwrap();
        assert_eq!(on.sample_interval, Some(50_000));
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (name, bad) in [
            ("EMISSARY_MEASURE_INSNS", "8M"),
            ("EMISSARY_MEASURE_INSNS", "0"),
            ("EMISSARY_WARMUP_INSNS", "-1"),
            ("EMISSARY_THREADS", "0"),
            ("EMISSARY_SAMPLE_INTERVAL", "never"),
            ("EMISSARY_CHAOS_SEED", "0x10"),
            ("EMISSARY_CHAOS_SEED", "-1"),
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
    fn retired_knobs_are_unknown() {
        let retired = [
            ("EMISSARY_INJECT_PANIC", "tomcat/P(8):S&E"),
            ("EMISSARY_RETRY_BACKOFF_MS", "25"),
            ("EMISSARY_JOB_TIMEOUT_MS", "9_000"),
            ("EMISSARY_STALL_CYCLES", "500"),
            ("EMISSARY_JOB_RETRIES", "2"),
            ("EMISSARY_CHAOS_RATE", "0.02"),
        ];
        let k = parsed(&retired).unwrap();
        let names: Vec<&str> = retired.iter().map(|&(name, _)| name).collect();
        assert_eq!(k.unknown, names);
        assert_eq!(
            k,
            Knobs {
                unknown: k.unknown.clone(),
                ..Knobs::default()
            }
        );
    }

    #[test]
    fn strings_paths_and_empty_values() {
        let k = parsed(&[
            ("EMISSARY_TRACE_OUT", "traces"),
            ("EMISSARY_MEASURE_INSNS", ""),
        ])
        .unwrap();
        assert_eq!(k.trace_out, Some(PathBuf::from("traces")));
        assert_eq!(k.measure_instrs, 8_000_000, "empty means unset");
    }

    #[test]
    fn to_json_renders_every_knob_by_name() {
        let k = parsed(&[
            ("EMISSARY_MEASURE_INSNS", "4_000"),
            ("EMISSARY_TRACE_OUT", "tr\"aces"),
            ("EMISSARY_CHAOS_SEED", "7"),
            ("EMISSARY_RESUME", "1"),
        ])
        .unwrap();
        let v = emissary_obs::JsonValue::parse(&k.to_json()).unwrap();
        for name in names() {
            assert!(v.get(name).is_some(), "{name} missing from {}", k.to_json());
        }
        let get = |name| v.get(name).unwrap();
        assert_eq!(get("EMISSARY_MEASURE_INSNS").as_u64(), Some(4_000));
        assert_eq!(get("EMISSARY_TRACE_OUT").as_str(), Some("tr\"aces"));
        assert_eq!(get("EMISSARY_CHAOS_SEED").as_u64(), Some(7));
        assert_eq!(get("EMISSARY_RESUME").as_bool(), Some(true));
        assert_eq!(get("EMISSARY_BLESS").as_bool(), Some(false));
        assert_eq!(
            get("EMISSARY_SAMPLE_INTERVAL"),
            &emissary_obs::JsonValue::Null
        );
    }

    #[test]
    fn table_names_are_unique_and_prefixed() {
        let all: Vec<&str> = names().collect();
        assert_eq!(all.len(), 11);
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate knob name");
        assert!(all.iter().all(|n| n.starts_with("EMISSARY_")));
    }
}
