//! Campaign checkpointing and the cross-experiment job memo.
//!
//! Completed jobs stream to a checkpoint file keyed by a stable job
//! fingerprint, and the same map doubles as an **in-process memo**: once
//! any experiment in the process has simulated a config, every later
//! request for the same fingerprint — from the same figure or a different
//! one — replays the stored [`SimRun`] bit-identically instead of
//! re-simulating. The 13-benchmark baseline and EMISSARY-preferred rows
//! recur across fig2/fig3/fig4/fig6/fig7/table5; the memo collapses them
//! to one simulation each.
//!
//! A fingerprint is `<benchmark>|<policy notation>|<config hash>` — the
//! hash covers the *entire* [`SimConfig`](emissary_sim::SimConfig) (via
//! its `Debug` rendering), so two jobs that differ in any knob (run
//! lengths, hierarchy geometry, reset interval, seed, …) never collide.
//! With interval sampling on, `|s<N>` follows, so a run recorded without
//! samples never replays into a sampled campaign.
//! The campaign name is **metadata only**: it is recorded on each
//! checkpoint line (`"experiment":"campaign"` for a sweep) but takes no
//! part in the key, so resume state is shared by every experiment.
//!
//! `all_experiments` opens one campaign, the unified
//! `results/campaign.ckpt.jsonl` ([`UNIFIED_CAMPAIGN`]), for the whole
//! sweep. `EMISSARY_RESUME=1` loads completed jobs at open, so a second
//! campaign over a warm checkpoint simulates nothing. A run without it
//! re-simulates every job and appends its records after the old ones;
//! the file is never truncated, so deleting it is the one way to start
//! over.
//!
//! The checkpoint file is append-only JSONL. Failed jobs are recorded too
//! (with their failure kind), but only `"status":"completed"` records
//! are replayed on resume — a resumed campaign re-runs exactly the jobs
//! that did not finish, which is how a failed job is recovered. Records
//! are replayed last-wins per fingerprint.
//!
//! The file itself is an [`AppendLog`], which owns salvage, quarantine
//! and torn-append handling: at every open, lines that do not decode as
//! checkpoint records are moved verbatim to `<name>.ckpt.quarantine`
//! and the checkpoint is atomically rewritten without them. This module
//! keeps only the record codec and its answer to a log that stops
//! persisting: the campaign degrades to memo-only (in-process) mode
//! instead of failing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use emissary_obs::{JsonObject, JsonValue};
use emissary_sim::{SimReport, SimRun};

use crate::append_log::AppendLog;
use crate::chaos::{lock_unpoisoned, CkptIo};
use crate::pool::JobOutcome;
use crate::Job;

/// FNV-1a 64-bit: tiny, dependency-free, stable across runs (unlike
/// `DefaultHasher`, whose output may change between Rust releases).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable hash of a job's full configuration.
pub fn config_hash(job: &Job) -> u64 {
    fnv1a64(format!("{:?}", job.config).as_bytes())
}

/// Stable identity of one simulation job within a campaign: its memo key
/// under this process's `EMISSARY_SAMPLE_INTERVAL`.
/// Deliberately excludes the experiment name — identical configs in
/// different figures are the same job.
pub fn fingerprint(job: &Job) -> String {
    memo_key(job, crate::scale::knobs().sample_interval)
}

/// `<benchmark>|<policy>|<config hash>`, with `|s<N>` appended when
/// interval sampling every `N` instructions is on. A run's samples are
/// part of what the memo replays, so a run recorded unsampled (or at
/// another interval) must not stand in for a sampled one; unsampled keys
/// keep the plain form every existing checkpoint uses.
fn memo_key(job: &Job, sample_interval: Option<u64>) -> String {
    let key = format!(
        "{}|{}|{:016x}",
        job.profile.name,
        job.config.l2_policy,
        config_hash(job)
    );
    match sample_interval {
        Some(n) => format!("{key}|s{n}"),
        None => key,
    }
}

/// One campaign's dedup state: the fingerprint → run memo (seeded from
/// the checkpoint file on resume, grown by every fresh completion) and
/// the campaign's [`AppendLog`], behind one lock. [`record`] inserts
/// into the memo, then appends and flushes the record line before it
/// returns, so a record is durable when `record` returns and a
/// duplicate submission replays at once. Appends under the one lock
/// also keep the lines (and a chaos plan's `ckpt.append` decisions) in
/// file order.
///
/// [`record`]: Campaign::record
pub struct Campaign {
    /// The label written on each record (`"experiment"`).
    name: String,
    path: PathBuf,
    quarantine_path: PathBuf,
    loaded: usize,
    quarantined: u64,
    state: Mutex<State>,
}

/// What [`Campaign`]'s lock guards.
struct State {
    memo: HashMap<String, SimRun>,
    /// Non-persistent once the campaign is memo-only (the log failed to
    /// open, or stopped persisting after an unsalvageable append).
    log: AppendLog,
}

/// Renders one checkpoint record line.
fn render_record(fp: &str, outcome: &JobOutcome, experiment: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("record", "ckpt")
        .field_str("fingerprint", fp)
        .field_str("experiment", experiment)
        .field_str("benchmark", outcome.benchmark())
        .field_str("policy", outcome.policy())
        .field_str("status", outcome.status());
    match outcome {
        JobOutcome::Completed { run, .. } => {
            let samples: Vec<String> = run.samples.iter().map(|s| s.to_json()).collect();
            obj.field_raw("report", &run.report.to_json());
            obj.field_raw("samples", &format!("[{}]", samples.join(",")));
            // Timing fields stay last: the chaos byte-identity test (and
            // any reader comparing records sans wall-clock noise) strips
            // the record tail starting at `host_seconds`.
            obj.field_raw("host_seconds", &format!("{:.6}", run.host_seconds));
            obj.field_raw("warmup_seconds", &format!("{:.6}", run.warmup_seconds));
            obj.field_raw("measure_seconds", &format!("{:.6}", run.measure_seconds));
        }
        failed => {
            obj.field_str("error", &failed.describe());
        }
    }
    obj.finish()
}

impl Campaign {
    /// Opens the campaign `<dir>/<name>.ckpt.jsonl` with I/O from the
    /// environment ([`crate::chaos::io_from_env`]: chaos-injected when
    /// `EMISSARY_CHAOS_SEED` is set, plain `std::fs` otherwise). With
    /// `resume` set, previously completed jobs are loaded into the memo
    /// and replayed; otherwise every job is simulated afresh. Either way
    /// the existing file is kept and new records append after it.
    pub fn begin_with(name: &str, dir: &Path, resume: bool) -> Campaign {
        Self::begin_with_io(name, dir, resume, crate::chaos::io_from_env())
    }

    /// [`Campaign::begin_with`] over an explicit [`CkptIo`].
    ///
    /// Every failure degrades instead of aborting (see [`AppendLog`]):
    /// an unreadable checkpoint resumes empty, unusable lines are
    /// quarantined to `<name>.ckpt.quarantine`, and an unopenable file
    /// leaves the campaign in memo-only mode — in-process dedup still
    /// works, nothing persists.
    pub fn begin_with_io(name: &str, dir: &Path, resume: bool, io: Box<dyn CkptIo>) -> Campaign {
        let path = dir.join(format!("{name}.ckpt.jsonl"));
        let quarantine_path = dir.join(format!("{name}.ckpt.quarantine"));
        let mut memo = HashMap::new();
        let log = AppendLog::open(io, &path, &quarantine_path, |v| match decode_record(v) {
            Ok(Some((fp, run))) => {
                if resume {
                    memo.insert(fp, run);
                }
                true
            }
            Ok(None) => true,
            Err(()) => false,
        });
        if !log.persistent() {
            eprintln!(
                "checkpoint: continuing memo-only (in-process dedup still active, \
                 nothing will persist)"
            );
        }
        Campaign {
            name: name.to_string(),
            path,
            quarantine_path,
            loaded: memo.len(),
            quarantined: log.quarantined(),
            state: Mutex::new(State { memo, log }),
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The quarantine file path (`<name>.ckpt.quarantine`).
    pub fn quarantine_path(&self) -> &Path {
        &self.quarantine_path
    }

    /// Number of distinct completed jobs loaded from the checkpoint file
    /// on resume (0 for a fresh campaign; the memo grows past this as
    /// fresh jobs complete). Loaded is not replayed: a job is replayed
    /// only if the campaign asks for it.
    pub fn resumable(&self) -> usize {
        self.loaded
    }

    /// Number of unusable checkpoint lines quarantined at open.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Whether outcomes are persisting to the checkpoint file (false
    /// after degradation to memo-only mode).
    pub fn persistent(&self) -> bool {
        lock_unpoisoned(&self.state).log.persistent()
    }

    /// Number of completed jobs currently replayable (loaded + fresh).
    pub fn memoized(&self) -> usize {
        lock_unpoisoned(&self.state).memo.len()
    }

    /// Looks up a completed run for this fingerprint.
    pub fn cached(&self, fp: &str) -> Option<SimRun> {
        lock_unpoisoned(&self.state).memo.get(fp).cloned()
    }

    /// Records one outcome: a completed run enters the in-process memo
    /// (a duplicate submission replays the instant this returns), and
    /// the record line is appended and flushed before this returns.
    ///
    /// A failed append is salvaged by the [`AppendLog`]; if the log
    /// stops persisting, the campaign continues memo-only.
    pub fn record(&self, fp: &str, outcome: &JobOutcome) {
        let mut state = lock_unpoisoned(&self.state);
        if let JobOutcome::Completed { run, .. } = outcome {
            state.memo.insert(fp.to_string(), (**run).clone());
        }
        if state.log.persistent() {
            let line = render_record(fp, outcome, &self.name);
            // The log reports a failed append itself.
            let _ = state.log.append(&line);
        }
    }

    /// Flushes the checkpoint file. [`Campaign::record`] already flushes
    /// each line, so this is only a flush; the benchmark times it as its
    /// `bench.sync` span.
    pub fn sync(&self) {
        lock_unpoisoned(&self.state).log.flush();
    }
}

/// Decodes one parsed checkpoint record. `Ok(Some(..))` is a completed
/// run to memoize, `Ok(None)` a valid non-completed record (failures are
/// kept for provenance but never replayed), `Err(())` an object that is
/// not a usable checkpoint record — quarantine it.
fn decode_record(v: &JsonValue) -> Result<Option<(String, SimRun)>, ()> {
    let fp = v.get("fingerprint").and_then(|f| f.as_str()).ok_or(())?;
    let status = v.get("status").and_then(|s| s.as_str()).ok_or(())?;
    if status != "completed" {
        // A later failure record does not invalidate an earlier
        // completed one: keep whatever we have.
        return Ok(None);
    }
    let report = v.get("report").and_then(SimReport::from_json).ok_or(())?;
    let samples: Vec<_> = match v.get("samples").and_then(|s| s.as_array()) {
        Some(items) => items
            .iter()
            .map(emissary_obs::IntervalSample::from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or(())?,
        None => Vec::new(),
    };
    let seconds = |key: &str| v.get(key).and_then(|h| h.as_f64()).unwrap_or(0.0);
    Ok(Some((
        fp.to_string(),
        SimRun {
            report,
            samples,
            host_seconds: seconds("host_seconds"),
            // Absent on pre-metrics checkpoints: stage attribution is
            // simply unknown for replayed runs, not an error.
            warmup_seconds: seconds("warmup_seconds"),
            measure_seconds: seconds("measure_seconds"),
        },
    )))
}

/// The name of the one campaign `all_experiments` runs: its checkpoint
/// is `results/campaign.ckpt.jsonl` and its campaign-wide fault records
/// go to `results/campaign.jsonl`.
pub const UNIFIED_CAMPAIGN: &str = "campaign";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // Reference vector: FNV-1a 64 of "a".
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_is_stable() {
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..emissary_sim::SimConfig::default()
        };
        let profile = emissary_workloads::Profile::by_name("xapian").unwrap();
        let a = Job::new(
            profile.clone(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        let mut b = a.clone();
        b.config.seed ^= 1;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // Pinned literals: a change to the key encoding (or to the `Debug`
        // text of any `SimConfig` field) would orphan every checkpoint, so
        // it must show up here first.
        assert_eq!(fingerprint(&a), "xapian|M:1|dcfc32e070af01c6");
        let preferred = Job::new(profile, &cfg, emissary_core::spec::PolicySpec::PREFERRED);
        assert_eq!(
            fingerprint(&preferred),
            "xapian|P(8):S&E&R(1/32)|79433d7a7fc27ddf"
        );
    }

    #[test]
    fn memo_key_covers_the_sample_interval_only_when_sampling() {
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..emissary_sim::SimConfig::default()
        };
        let job = Job::new(
            emissary_workloads::Profile::by_name("xapian").unwrap(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        // Off (`EMISSARY_SAMPLE_INTERVAL` unset or 0): the pinned literal.
        assert_eq!(memo_key(&job, None), "xapian|M:1|dcfc32e070af01c6");
        let sampled = memo_key(&job, Some(1_000));
        assert_eq!(sampled, "xapian|M:1|dcfc32e070af01c6|s1000");
        assert_ne!(sampled, memo_key(&job, Some(2_000)));
    }

    #[test]
    fn campaign_label_is_metadata_not_key() {
        let dir = std::env::temp_dir().join(format!("emissary_ckpt_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = emissary_sim::SimConfig {
            warmup_instrs: 500,
            measure_instrs: 2_000,
            ..emissary_sim::SimConfig::default()
        };
        let job = Job::new(
            emissary_workloads::Profile::by_name("xapian").unwrap(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        let fp = fingerprint(&job);
        let run = job
            .run_checked_metered(&emissary_sim::FaultConfig::none(), None, "main")
            .unwrap();
        let c = Campaign::begin_with("label_a", &dir, false);
        c.record(
            &fp,
            &JobOutcome::Completed {
                run: Box::new(run.clone()),
                resumed: false,
            },
        );
        // Metadata on the line, not in the key.
        let text = std::fs::read_to_string(c.path()).unwrap();
        assert!(text.contains("\"experiment\":\"label_a\""));
        assert!(!fp.contains("label_a"));
        drop(c);
        // A campaign under another label replays the record.
        std::fs::rename(
            dir.join("label_a.ckpt.jsonl"),
            dir.join("label_b.ckpt.jsonl"),
        )
        .unwrap();
        let c = Campaign::begin_with("label_b", &dir, true);
        let replayed = c.cached(&fp).expect("memoized");
        assert_eq!(replayed.report, run.report);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_is_on_disk_when_record_returns() {
        // A process killed right after a record must not lose it: the
        // line is already in the file, with no `sync` in between.
        let dir = std::env::temp_dir().join(format!("emissary_ckpt_sync_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Campaign::begin_with("durable", &dir, false);
        let cfg = emissary_sim::SimConfig::default();
        let job = Job::new(
            emissary_workloads::Profile::by_name("xapian").unwrap(),
            &cfg,
            emissary_core::spec::PolicySpec::BASELINE,
        );
        let fp = fingerprint(&job);
        c.record(
            &fp,
            &JobOutcome::Panicked {
                benchmark: "xapian".into(),
                policy: "M:1".into(),
                message: "boom".into(),
            },
        );
        let text = std::fs::read_to_string(c.path()).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains(&format!("\"fingerprint\":\"{fp}\"")));
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
