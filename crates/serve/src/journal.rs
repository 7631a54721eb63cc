//! The admission journal: the durability half of the server's
//! journal-before-ack contract.
//!
//! The journal is an [`AppendLog`], the same file protocol as the
//! campaign checkpoint; this module keeps only the record codec. Every
//! accepted job appends one `job` record, flushed, **before** the 201
//! acknowledgment is written to the socket. Terminal transitions append
//! `done`/`cancel` records. Recovery replays the journal into a
//! last-state-wins map: jobs with no terminal record re-queue, jobs whose
//! `done` landed replay their result from the campaign checkpoint, and
//! unusable lines (torn tails from a `kill -9` or a failed append) are
//! quarantined verbatim to `serve.jobs.quarantine` with the journal
//! atomically rewritten.
//!
//! Losing a `done`/`cancel` record is benign (the job re-queues and
//! replays instantly from the checkpoint memo); losing a `job` record is
//! not, which is exactly why only `job` appends gate the acknowledgment.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use emissary_bench::append_log::AppendLog;
use emissary_bench::chaos::{lock_unpoisoned, CkptIo};
use emissary_obs::{JsonObject, JsonValue};

use crate::jobspec::JobSpec;

/// Journal file name inside the serve directory.
pub const JOURNAL_FILE: &str = "serve.jobs.jsonl";
/// Quarantine sibling for unusable journal lines.
pub const QUARANTINE_FILE: &str = "serve.jobs.quarantine";

/// One job's journaled state after recovery replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Job id (`j<n>`).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Checkpoint fingerprint recorded at admission.
    pub fingerprint: String,
    /// The resolved spec as admitted.
    pub spec: JobSpec,
    /// Terminal status from a `done` record, if one landed.
    pub terminal: Option<String>,
    /// Whether a `cancel` record landed.
    pub cancelled: bool,
}

/// The append-side journal handle plus what recovery found.
#[derive(Debug)]
pub struct Journal {
    log: Mutex<AppendLog>,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`, replaying any
    /// existing records into per-job last-state-wins entries. Returns the
    /// handle and the recovered jobs in admission order.
    ///
    /// A journal that cannot be read resumes empty; one that cannot be
    /// opened for append leaves the handle degraded — [`Journal::persistent`]
    /// turns false, and the server refuses admissions (503) rather than
    /// acknowledging jobs it cannot make durable.
    pub fn open(dir: &Path, io: Box<dyn CkptIo>) -> (Journal, Vec<RecoveredJob>) {
        let mut order: Vec<String> = Vec::new();
        let mut jobs: HashMap<String, RecoveredJob> = HashMap::new();
        let log = AppendLog::open(
            io,
            &dir.join(JOURNAL_FILE),
            &dir.join(QUARANTINE_FILE),
            true,
            |v| {
                match Self::decode(v) {
                    Some(Record::Job(job)) => {
                        if !jobs.contains_key(&job.id) {
                            order.push(job.id.clone());
                        }
                        jobs.insert(job.id.clone(), job);
                    }
                    Some(Record::Done { id, status }) => {
                        if let Some(j) = jobs.get_mut(&id) {
                            j.terminal = Some(status);
                        }
                    }
                    Some(Record::Cancel { id }) => {
                        if let Some(j) = jobs.get_mut(&id) {
                            j.cancelled = true;
                        }
                    }
                    None => return false,
                }
                true
            },
        );
        let recovered = order
            .into_iter()
            .filter_map(|id| jobs.remove(&id))
            .collect();
        (
            Journal {
                log: Mutex::new(log),
            },
            recovered,
        )
    }

    fn decode(v: &JsonValue) -> Option<Record> {
        let id = v.get("id")?.as_str()?.to_string();
        match v.get("record")?.as_str()? {
            "job" => {
                let spec = JobSpec::from_json(v.get("spec")?).ok()?;
                // A journal record must rebuild into a runnable job, or
                // recovery could acknowledge work it cannot execute.
                spec.build().ok()?;
                Some(Record::Job(RecoveredJob {
                    id,
                    tenant: v.get("tenant")?.as_str()?.to_string(),
                    fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
                    spec,
                    terminal: None,
                    cancelled: false,
                }))
            }
            "done" => Some(Record::Done {
                id,
                status: v.get("status")?.as_str()?.to_string(),
            }),
            "cancel" => Some(Record::Cancel { id }),
            _ => None,
        }
    }

    fn append(&self, line: &str) -> io::Result<()> {
        lock_unpoisoned(&self.log).append(line)
    }

    /// Journals an admission. **Must succeed before the job is
    /// acknowledged** — an error here means the caller rejects the
    /// submission (503) instead of acking work that would vanish in a
    /// crash.
    pub fn append_job(
        &self,
        id: &str,
        tenant: &str,
        fingerprint: &str,
        spec: &JobSpec,
    ) -> io::Result<()> {
        let mut o = JsonObject::new();
        o.field_str("record", "job")
            .field_str("id", id)
            .field_str("tenant", tenant)
            .field_str("fingerprint", fingerprint)
            .field_raw("spec", &spec.to_json());
        self.append(&o.finish())
    }

    /// Journals a terminal status (best-effort: losing it only costs an
    /// instant checkpoint replay after the next restart).
    pub fn append_done(&self, id: &str, status: &str) {
        let mut o = JsonObject::new();
        o.field_str("record", "done")
            .field_str("id", id)
            .field_str("status", status);
        let _ = self.append(&o.finish());
    }

    /// Journals a cancellation (best-effort, same contract as
    /// [`Journal::append_done`] — an un-journaled cancel re-queues the
    /// job, it never un-cancels an executed one).
    pub fn append_cancel(&self, id: &str) {
        let mut o = JsonObject::new();
        o.field_str("record", "cancel").field_str("id", id);
        let _ = self.append(&o.finish());
    }

    /// Whether the append side is live. When false the server refuses
    /// admissions rather than acknowledging non-durable work.
    pub fn persistent(&self) -> bool {
        lock_unpoisoned(&self.log).persistent()
    }

    /// Unusable lines quarantined during recovery.
    pub fn quarantined(&self) -> u64 {
        lock_unpoisoned(&self.log).quarantined()
    }
}

enum Record {
    Job(RecoveredJob),
    Done { id: String, status: String },
    Cancel { id: String },
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_bench::chaos::RealIo;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emissary_serve_journal_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> JobSpec {
        JobSpec {
            benchmark: "xapian".into(),
            policy: "M:1".into(),
            warmup_instrs: Some(1000),
            measure_instrs: Some(5000),
            seed: Some(7),
        }
    }

    #[test]
    fn journal_round_trips_admissions_and_terminals() {
        let dir = tmpdir("roundtrip");
        {
            let (j, recovered) = Journal::open(&dir, Box::new(RealIo));
            assert!(recovered.is_empty());
            assert!(j.persistent());
            j.append_job("j1", "acme", "fp1", &spec()).unwrap();
            j.append_job("j2", "acme", "fp2", &spec()).unwrap();
            j.append_job("j3", "beta", "fp3", &spec()).unwrap();
            j.append_done("j1", "completed");
            j.append_cancel("j3");
        }
        let (j, recovered) = Journal::open(&dir, Box::new(RealIo));
        assert_eq!(j.quarantined(), 0);
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[0].terminal.as_deref(), Some("completed"));
        assert_eq!(recovered[1].terminal, None);
        assert!(!recovered[1].cancelled);
        assert!(recovered[2].cancelled);
        assert_eq!(recovered[1].spec, spec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_and_journal_rewritten() {
        let dir = tmpdir("torn");
        {
            let (j, _) = Journal::open(&dir, Box::new(RealIo));
            j.append_job("j1", "acme", "fp1", &spec()).unwrap();
        }
        // Simulate a kill -9 mid-append: a torn half record.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        f.write_all(b"{\"record\":\"job\",\"id\":\"j2\",\"tena")
            .unwrap();
        drop(f);
        let (j, recovered) = Journal::open(&dir, Box::new(RealIo));
        assert_eq!(recovered.len(), 1);
        assert_eq!(j.quarantined(), 1);
        let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(quarantine.contains("\"j2\""));
        // Rewritten journal is clean: a third open quarantines nothing.
        let (j, recovered) = Journal::open(&dir, Box::new(RealIo));
        assert_eq!(recovered.len(), 1);
        assert_eq!(j.quarantined(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
