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
//! The experiment (figure) name is **metadata only**: it is recorded on
//! each checkpoint line for provenance but takes no part in the key, so
//! resume state is shared across figures instead of siloed per binary.
//!
//! The process-global campaign spans experiments: [`begin`] opens the
//! unified `results/campaign.ckpt.jsonl` once and later calls merely
//! relabel the experiment metadata. `EMISSARY_RESUME=1` loads completed
//! jobs at open, so a second campaign over a warm checkpoint simulates
//! nothing.
//!
//! The checkpoint file is append-only JSONL. Failed jobs are recorded too
//! (with their failure kind and attempt number), but only
//! `"status":"completed"` records are replayed on resume — a resumed
//! campaign re-runs exactly the jobs that did not finish. Records are
//! replayed last-wins per fingerprint.
//!
//! The file itself is an [`AppendLog`], which owns salvage, quarantine
//! and torn-append handling: on resume, lines that do not decode as
//! checkpoint records are moved verbatim to `<name>.ckpt.quarantine`
//! and the checkpoint is atomically rewritten without them. This module
//! keeps only the record codec and its answer to a log that stops
//! persisting: the campaign degrades to memo-only (in-process) mode
//! instead of failing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Stable identity of one simulation job within a campaign:
/// `<benchmark>|<policy>|<config hash>`. Deliberately excludes the
/// experiment name — identical configs in different figures are the same
/// job.
pub fn fingerprint(job: &Job) -> String {
    format!(
        "{}|{}|{:016x}",
        job.profile.name,
        job.config.l2_policy,
        config_hash(job)
    )
}

/// Process-wide counters of how jobs were satisfied, across every pool
/// run (with or without an active campaign). `simulated` counts fresh
/// completed simulations, `replayed` counts memo/checkpoint hits, and
/// `failed` counts panicked/aborted/rejected jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounters {
    /// Fresh completed simulations.
    pub simulated: u64,
    /// Jobs served from the campaign memo or checkpoint.
    pub replayed: u64,
    /// Jobs that panicked, aborted, or were rejected.
    pub failed: u64,
}

static SIMULATED: AtomicU64 = AtomicU64::new(0);
static REPLAYED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide job counters.
pub fn counters() -> JobCounters {
    JobCounters {
        simulated: SIMULATED.load(Ordering::Relaxed),
        replayed: REPLAYED.load(Ordering::Relaxed),
        failed: FAILED.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_simulated() {
    SIMULATED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_replayed() {
    REPLAYED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_failed() {
    FAILED.fetch_add(1, Ordering::Relaxed);
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
    /// The experiment label written on each record.
    experiment: String,
}

/// Renders one checkpoint record line.
fn render_record(fp: &str, outcome: &JobOutcome, experiment: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_str("record", "ckpt")
        .field_str("fingerprint", fp)
        .field_str("experiment", experiment)
        .field_str("benchmark", outcome.benchmark())
        .field_str("policy", outcome.policy())
        .field_str("status", outcome.status())
        .field_u64("attempts", u64::from(outcome.attempts()));
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
    /// `resume` set, previously completed jobs are loaded and will be
    /// replayed; otherwise any existing checkpoint file is truncated (a
    /// fresh campaign records from scratch).
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
        let log = AppendLog::open(
            io,
            &path,
            &quarantine_path,
            resume,
            |v| match decode_record(v) {
                Ok(Some((fp, run))) => {
                    memo.insert(fp, run);
                    true
                }
                Ok(None) => true,
                Err(()) => false,
            },
        );
        if !log.persistent() {
            eprintln!(
                "checkpoint: continuing memo-only (in-process dedup still active, \
                 nothing will persist)"
            );
        }
        Campaign {
            path,
            quarantine_path,
            loaded: memo.len(),
            quarantined: log.quarantined(),
            state: Mutex::new(State {
                memo,
                log,
                experiment: name.to_string(),
            }),
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

    /// Number of completed jobs loaded from the checkpoint file for
    /// replay (the memo grows past this as fresh jobs complete).
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

    /// Relabels the experiment recorded on subsequent checkpoint lines.
    /// Metadata only: the memo and fingerprints are unaffected.
    pub fn set_experiment(&self, name: &str) {
        lock_unpoisoned(&self.state).experiment = name.to_string();
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
            let line = render_record(fp, outcome, &state.experiment);
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

/// The name of the unified cross-experiment campaign file under
/// `results/`: `campaign.ckpt.jsonl`.
pub const UNIFIED_CAMPAIGN: &str = "campaign";

/// The process-global campaign, shared by every experiment the process
/// runs (mirroring the process-global run log in [`crate::results`]).
static CAMPAIGN: Mutex<Option<Campaign>> = Mutex::new(None);

/// Opens (or relabels) the global campaign for experiment `name`.
///
/// All experiments in a process share one campaign file,
/// `results/campaign.ckpt.jsonl`, keyed purely by config fingerprint: the
/// first call opens it (resuming when `EMISSARY_RESUME=1`) and later
/// calls only update the experiment metadata, so resume state and the
/// in-process memo span figures.
pub fn begin(name: &str) {
    let mut slot = global();
    if let Some(c) = slot.as_ref() {
        c.set_experiment(name);
        return;
    }
    let resume = crate::scale::knobs().resume;
    let campaign = Campaign::begin_with(UNIFIED_CAMPAIGN, Path::new("results"), resume);
    campaign.set_experiment(name);
    if campaign.resumable() > 0 || campaign.quarantined() > 0 {
        eprintln!(
            "checkpoint: resuming {UNIFIED_CAMPAIGN}: {} completed job(s) will be replayed, \
             {} unusable line(s) quarantined",
            campaign.resumable(),
            campaign.quarantined()
        );
    }
    *slot = Some(campaign);
}

/// Installs `campaign` as the process-global campaign (used by the
/// campaign engine and tests to control the checkpoint location
/// explicitly), returning the previous one.
pub fn begin_global_with(campaign: Campaign) -> Option<Campaign> {
    global().replace(campaign)
}

/// Closes the process-global campaign, returning it (flushed) so callers
/// can inspect its state. Later pool runs see no campaign until the next
/// [`begin`].
pub fn end() -> Option<Campaign> {
    global().take()
}

/// Locks the global campaign for the duration of a pool run. A panic
/// while the lock is held cannot corrupt the campaign, so poisoning is
/// ignored.
pub(crate) fn global() -> std::sync::MutexGuard<'static, Option<Campaign>> {
    CAMPAIGN.lock().unwrap_or_else(|p| p.into_inner())
}

/// Locks and returns the process-global campaign for direct use — e.g.
/// handing `Option<&Campaign>` to [`crate::campaign::prefetch`]. Drop the
/// guard before running experiments through the ordinary pool APIs (they
/// take the same lock).
pub fn global_handle() -> std::sync::MutexGuard<'static, Option<Campaign>> {
    global()
}

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
    fn experiment_label_is_metadata_not_key() {
        let dir = std::env::temp_dir().join(format!("emissary_ckpt_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = Campaign::begin_with("label_a", &dir, false);
        c.set_experiment("fig_x");
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
        let run = job.run_observed();
        c.record(
            &fp,
            &JobOutcome::Completed {
                run: Box::new(run.clone()),
                resumed: false,
                attempts: 1,
            },
        );
        // Metadata on the line, not in the key.
        c.sync();
        let text = std::fs::read_to_string(c.path()).unwrap();
        assert!(text.contains("\"experiment\":\"fig_x\""));
        assert!(!fp.contains("fig_x"));
        // The memo replays under any later experiment label.
        c.set_experiment("fig_y");
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
                attempts: 1,
            },
        );
        let text = std::fs::read_to_string(c.path()).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains(&format!("\"fingerprint\":\"{fp}\"")));
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
