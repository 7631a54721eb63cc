//! The append-only JSONL log behind the campaign checkpoint
//! ([`crate::checkpoint`]), its one consumer. The checkpoint owns only its
//! record codec; this module owns the file protocol over [`CkptIo`]:
//!
//! * **Salvage on open.** With `keep` set, every line of the existing
//!   file is parsed and offered to the caller's `accept`. Lines that do
//!   not parse or that `accept` rejects (torn tails from a killed
//!   process, garbage from a bad disk) are appended verbatim to the
//!   quarantine file, and the log is atomically rewritten (temp file +
//!   fsync + rename) with only the accepted lines, so the next open
//!   starts from a clean segment. Without `keep` the log is truncated
//!   and never read.
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

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use emissary_obs::{jsonl_lines, JsonValue};

use crate::chaos::CkptIo;

/// An append-only JSONL file with crash salvage. See the module docs.
#[derive(Debug)]
pub struct AppendLog {
    io: Box<dyn CkptIo>,
    path: PathBuf,
    writer: Option<BufWriter<fs::File>>,
    quarantined: u64,
}

impl AppendLog {
    /// Opens the log at `path`, creating its directory. With `keep`, the
    /// existing lines are salvaged through `accept` (see the module
    /// docs) and the file is opened for append; without it the file is
    /// truncated. An unopenable file leaves the log non-persistent.
    pub fn open(
        io: Box<dyn CkptIo>,
        path: &Path,
        quarantine: &Path,
        keep: bool,
        accept: impl FnMut(&JsonValue) -> bool,
    ) -> AppendLog {
        if let Err(e) = io.create_dir_all(path.parent().unwrap_or(Path::new(""))) {
            report(path, "mkdir", &e);
        }
        let quarantined = if keep {
            salvage(&*io, path, quarantine, accept)
        } else {
            0
        };
        let writer = match io.open_writer(path, keep) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(e) => {
                report(path, "open", &e);
                None
            }
        };
        AppendLog {
            io,
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
        let result = self.io.append_line(w, line);
        if let Err(e) = &result {
            report(&self.path, "append", e);
            if w.write_all(b"\n").and_then(|()| w.flush()).is_err() {
                self.writer = None;
            }
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

/// Reports one failed operation on `path`.
fn report(path: &Path, op: &str, e: &io::Error) {
    crate::results::log_ckpt_error(path, op, e);
    eprintln!("append log: {op} {} failed: {e}", path.display());
}

/// Reads `path`, offers each parsed line to `accept`, quarantines the
/// rest, and rewrites the file when anything was dropped (or its last
/// line lacks a newline, which the next append would otherwise extend).
/// A missing file is an empty log. Returns the quarantined-line count.
fn salvage(
    io: &dyn CkptIo,
    path: &Path,
    quarantine: &Path,
    mut accept: impl FnMut(&JsonValue) -> bool,
) -> u64 {
    let text = match io.read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            if e.kind() != io::ErrorKind::NotFound {
                report(path, "read", &e);
            }
            return 0;
        }
    };
    let mut good: Vec<&str> = Vec::new();
    let mut bad: Vec<&str> = Vec::new();
    for line in jsonl_lines(&text) {
        if line.parsed.as_ref().is_ok_and(&mut accept) {
            good.push(line.raw);
        } else {
            bad.push(line.raw);
        }
    }
    if !bad.is_empty() {
        quarantine_lines(io, quarantine, &bad);
    }
    if !bad.is_empty() || !(text.is_empty() || text.ends_with('\n')) {
        let mut contents = good.join("\n");
        if !contents.is_empty() {
            contents.push('\n');
        }
        if let Err(e) = io.replace_file(path, &contents) {
            report(path, "rotate", &e);
        }
    }
    bad.len() as u64
}

/// Appends `lines` verbatim to the quarantine file. Best-effort: the
/// quarantine exists for post-mortems, and losing it must not block the
/// open.
fn quarantine_lines(io: &dyn CkptIo, quarantine: &Path, lines: &[&str]) {
    let written = io.open_writer(quarantine, true).and_then(|f| {
        let mut w = BufWriter::new(f);
        lines
            .iter()
            .try_for_each(|line| io.append_line(&mut w, line))
    });
    if let Err(e) = written {
        report(quarantine, "quarantine", &e);
    }
}
