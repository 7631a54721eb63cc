//! The append-only JSONL log behind the campaign checkpoint
//! ([`crate::checkpoint`]), its one consumer. The checkpoint owns only its
//! record codec; this module owns the file protocol:
//!
//! * **Salvage on open.** The existing file is read as bytes and split on
//!   `\n`. Every line that is UTF-8 and parses is offered to the caller's
//!   `accept`. Lines that are not UTF-8, do not parse, or that `accept`
//!   rejects (torn tails from a killed process, garbage from a bad disk)
//!   are appended verbatim to the quarantine file.
//! * **Compaction on open.** `accept` may give a line a key; of the lines
//!   sharing a key only the last is kept, as a later record supersedes
//!   an earlier one. When anything was quarantined or superseded, the log
//!   is atomically rewritten (temp file + fsync + rename) with only the
//!   kept lines, so the next open starts from a clean segment. The log is
//!   then opened for append: opening never loses a record that counts.
//! * **Append.** One line per call, flushed. A failed write may leave a
//!   prefix of the line on disk, so it is ended with a bare newline: the
//!   torn line quarantines on the next open and the next record starts
//!   its own line. If even that newline cannot be written the writer is
//!   dropped and the log stops persisting ([`AppendLog::persistent`]).
//!
//! Every failure is reported once: a `ckpt_error` record
//! ([`crate::results::log_ckpt_error`]) and one stderr line naming the
//! file and the operation. What a non-persistent log means is the
//! caller's decision (the campaign continues memo-only).

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use emissary_obs::JsonValue;

use crate::results::write_atomic;

/// An append-only JSONL file with crash salvage. See the module docs.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    writer: Option<BufWriter<fs::File>>,
    quarantined: u64,
}

impl AppendLog {
    /// Opens the log at `path`, creating its directory: the existing
    /// lines are salvaged and compacted through `accept` (see the module
    /// docs), then the file is opened for append. An unopenable file
    /// leaves the log non-persistent.
    ///
    /// `accept` returns `Err(())` for a line to quarantine, `Ok(None)`
    /// to keep it, and `Ok(Some(key))` to keep it unless a later line
    /// carries the same key.
    pub fn open(
        path: &Path,
        quarantine: &Path,
        accept: impl FnMut(&JsonValue) -> Result<Option<String>, ()>,
    ) -> AppendLog {
        if let Err(e) = fs::create_dir_all(path.parent().unwrap_or(Path::new(""))) {
            report(path, "mkdir", &e);
        }
        let quarantined = salvage(path, quarantine, accept);
        let writer = match open_append(path) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                report(path, "open", &e);
                None
            }
        };
        AppendLog {
            path: path.to_path_buf(),
            writer,
            quarantined,
        }
    }

    /// Appends one line and flushes it. On a failed write the torn
    /// prefix is ended with a bare newline; if that fails too, the log
    /// stops persisting. Errors when the write failed or the log is not
    /// persistent.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let Some(w) = self.writer.as_mut() else {
            return Err(io::Error::other(format!(
                "{} is not open for append",
                self.path.display()
            )));
        };
        let (result, usable) = append_repairing(w, line);
        if let Err(e) = &result {
            report(&self.path, "append", e);
        }
        if !usable {
            self.writer = None;
        }
        result
    }

    /// Flushes buffered bytes (best-effort: appends already flush per
    /// line).
    pub fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
    }

    /// Whether appends still reach the file.
    pub fn persistent(&self) -> bool {
        self.writer.is_some()
    }

    /// Number of lines quarantined at open.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }
}

/// Opens `path` for appending, creating it if missing.
fn open_append(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new().create(true).append(true).open(path)
}

/// Writes `line` plus a newline to `w` and flushes, so a killed process
/// loses at most the line being written. A failed write is ended with a
/// bare newline (see the module docs). Returns the write's result and
/// whether `w` is still usable: false when even that newline failed.
fn append_repairing(w: &mut impl Write, line: &str) -> (io::Result<()>, bool) {
    let result = writeln!(w, "{line}").and_then(|()| w.flush());
    let usable = result.is_ok() || w.write_all(b"\n").and_then(|()| w.flush()).is_ok();
    (result, usable)
}

/// Reports one failed operation on `path`.
fn report(path: &Path, op: &str, e: &io::Error) {
    crate::results::log_ckpt_error(path, op, e);
    eprintln!("append log: {op} {} failed: {e}", path.display());
}

/// Reads `path`, offers each parsed line to `accept`, quarantines the
/// rest, drops superseded lines, and rewrites the file when anything was
/// dropped (or its last line lacks a newline, which the next append
/// would otherwise extend). A missing file is an empty log. Returns the
/// quarantined-line count.
fn salvage(
    path: &Path,
    quarantine: &Path,
    mut accept: impl FnMut(&JsonValue) -> Result<Option<String>, ()>,
) -> u64 {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            if e.kind() != io::ErrorKind::NotFound {
                report(path, "read", &e);
            }
            return 0;
        }
    };
    let mut kept: Vec<(&[u8], Option<String>)> = Vec::new();
    let mut bad: Vec<&[u8]> = Vec::new();
    for raw in bytes.split(|&b| b == b'\n') {
        if raw.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let parsed = std::str::from_utf8(raw)
            .ok()
            .and_then(|text| JsonValue::parse(text).ok());
        match parsed.ok_or(()).and_then(|v| accept(&v)) {
            Ok(key) => kept.push((raw, key)),
            Err(()) => bad.push(raw),
        }
    }
    let last: HashMap<&str, usize> = kept
        .iter()
        .enumerate()
        .filter_map(|(i, (_, key))| Some((key.as_deref()?, i)))
        .collect();
    let lines: Vec<&[u8]> = kept
        .iter()
        .enumerate()
        .filter(|(i, (_, key))| key.as_deref().is_none_or(|k| last[k] == *i))
        .map(|(_, (raw, _))| *raw)
        .collect();
    if !bad.is_empty() {
        quarantine_lines(quarantine, &bad);
    }
    let superseded = lines.len() < kept.len();
    if superseded || !bad.is_empty() || !(bytes.is_empty() || bytes.ends_with(b"\n")) {
        let rewritten = write_atomic(path, |out| {
            lines.iter().try_for_each(|line| {
                out.write_all(line)?;
                out.write_all(b"\n")
            })
        });
        if let Err(e) = rewritten {
            report(path, "rotate", &e);
        }
    }
    bad.len() as u64
}

/// Appends `lines` verbatim to the quarantine file. Best-effort: the
/// quarantine exists for post-mortems, and losing it must not block the
/// open.
fn quarantine_lines(quarantine: &Path, lines: &[&[u8]]) {
    let written = open_append(quarantine).and_then(|f| {
        let mut w = BufWriter::new(f);
        for line in lines {
            w.write_all(line)?;
            w.write_all(b"\n")?;
        }
        w.flush()
    });
    if let Err(e) = written {
        report(quarantine, "quarantine", &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("emissary_log_unit_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    /// Writes everything to `file` until `budget` bytes have gone, then
    /// fails one write (half a line landed, as on a disk that filled up
    /// mid-append), then writes normally again.
    struct TearOnce {
        file: fs::File,
        budget: Option<usize>,
    }

    impl Write for TearOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.budget.take() {
                Some(0) => Err(io::Error::other("torn append")),
                Some(n) if n < buf.len() => {
                    self.budget = Some(0);
                    self.file.write(&buf[..n])
                }
                Some(n) => {
                    self.budget = Some(n - buf.len());
                    self.file.write(buf)
                }
                None => self.file.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn a_torn_append_is_repaired_and_the_next_record_survives_reopen() {
        let dir = tmpdir("torn");
        let (path, quarantine) = (dir.join("log.jsonl"), dir.join("log.quarantine"));
        let (first, second) = ("{\"n\":1,\"pad\":\"abcdefgh\"}", "{\"n\":2}");
        let fragment = &first[..first.len() / 2];
        let mut w = TearOnce {
            file: open_append(&path).unwrap(),
            budget: Some(fragment.len()),
        };
        let (result, usable) = append_repairing(&mut w, first);
        assert!(result.is_err());
        assert!(usable, "the repair newline keeps the writer");
        let (result, usable) = append_repairing(&mut w, second);
        assert!(result.is_ok() && usable);
        drop(w);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            format!("{fragment}\n{second}\n")
        );

        let mut seen = Vec::new();
        let log = AppendLog::open(&path, &quarantine, |v| {
            seen.push(v.get("n").and_then(JsonValue::as_u64));
            Ok(None)
        });
        assert_eq!(seen, [Some(2)], "the record after a torn one is whole");
        assert_eq!(log.quarantined(), 1);
        assert_eq!(
            fs::read_to_string(&quarantine).unwrap(),
            format!("{fragment}\n")
        );
        assert_eq!(fs::read_to_string(&path).unwrap(), format!("{second}\n"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_disk_drops_the_writer_and_reports_the_append() {
        // `/dev/full` accepts the open and fails every write with
        // ENOSPC, so both the append and its repair newline fail.
        let path = Path::new("/dev/full");
        let mut log = AppendLog {
            path: path.to_path_buf(),
            writer: Some(BufWriter::new(open_append(path).expect("open /dev/full"))),
            quarantined: 0,
        };
        assert!(log.persistent());
        let err = log.append("{\"n\":1}").expect_err("ENOSPC");
        assert!(err.to_string().contains("No space left on device"), "{err}");
        assert!(!log.persistent(), "an unrepairable append drops the writer");
        assert!(log.append("{\"n\":2}").is_err());
        let errors: Vec<_> = crate::results::take_ckpt_errors()
            .into_iter()
            .filter(|e| e.path == "/dev/full")
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].op, "append");
        assert!(errors[0].error.contains("No space left on device"));
    }
}
