//! The shared append-only log: salvage at any truncation offset, torn
//! appends, degraded writers, and a tripwire keeping its file protocol
//! in one module.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use emissary_bench::append_log::AppendLog;
use emissary_bench::chaos::{CkptIo, RealIo};
use emissary_obs::JsonValue;
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emissary_append_log_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Opens `dir/log.jsonl`, accepting every parsed line; returns the log
/// and the accepted lines re-rendered as their `n` fields.
fn open_all(dir: &Path, io: Box<dyn CkptIo>, keep: bool) -> (AppendLog, Vec<u64>) {
    let mut seen = Vec::new();
    let log = AppendLog::open(
        io,
        &dir.join("log.jsonl"),
        &dir.join("log.quarantine"),
        keep,
        |v| {
            seen.push(v.get("n").and_then(JsonValue::as_u64).unwrap_or(u64::MAX));
            true
        },
    );
    (log, seen)
}

fn record(n: u64) -> String {
    format!("{{\"record\":\"test\",\"n\":{n},\"pad\":\"abcdefgh\"}}")
}

/// A healthy four-record log's bytes, written through the log itself.
fn golden_log() -> &'static str {
    static LOG: OnceLock<String> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = tmpdir("golden");
        let (mut log, _) = open_all(&dir, Box::new(RealIo), false);
        for n in 0..4 {
            log.append(&record(n)).unwrap();
        }
        drop(log);
        let text = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating the log at ANY byte offset still opens: every complete
    /// line is accepted, a trailing fragment is quarantined verbatim
    /// unless it is itself a whole record, and the next append lands on
    /// its own line — a further open accepts it and quarantines nothing.
    #[test]
    fn truncated_log_salvages_at_any_offset(cut in 0usize..golden_log().len() + 1) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let prefix = &golden_log()[..cut];
        let (complete, fragment) = match prefix.rfind('\n') {
            Some(i) => (&prefix[..i + 1], &prefix[i + 1..]),
            None => ("", prefix),
        };
        let whole = !fragment.is_empty() && JsonValue::parse(fragment).is_ok();
        let expect_good = complete.lines().count() + usize::from(whole);
        let expect_quarantined = u64::from(!fragment.is_empty() && !whole);

        let dir = tmpdir(&format!("trunc{}", CASE.fetch_add(1, Ordering::Relaxed)));
        std::fs::write(dir.join("log.jsonl"), prefix).unwrap();
        let (mut log, seen) = open_all(&dir, Box::new(RealIo), true);
        prop_assert_eq!(seen.len(), expect_good, "cut at byte {}", cut);
        prop_assert_eq!(log.quarantined(), expect_quarantined, "cut at byte {}", cut);
        if expect_quarantined > 0 {
            let q = std::fs::read_to_string(dir.join("log.quarantine")).unwrap();
            prop_assert_eq!(q, format!("{fragment}\n"));
        }
        log.append(&record(99)).unwrap();
        drop(log);

        let (log, seen) = open_all(&dir, Box::new(RealIo), true);
        prop_assert_eq!(seen.len(), expect_good + 1, "cut at byte {}", cut);
        prop_assert_eq!(seen.last().copied(), Some(99));
        prop_assert_eq!(log.quarantined(), 0, "salvage must leave a clean segment");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The one fault a [`FaultyIo`] injects; every other call is real I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The first `append_line` lands half the line, then fails.
    TearFirstAppend,
    /// The writer never opens (read-only filesystem, full disk).
    NoWriter,
    /// The writer is a read-only handle: every write, the salvage
    /// newline included, fails.
    ReadOnlyWriter,
    /// Reading panics: proof that a fresh log never reads.
    NoRead,
}

#[derive(Debug)]
struct FaultyIo {
    fault: Fault,
    torn: AtomicBool,
}

fn faulty(fault: Fault) -> Box<dyn CkptIo> {
    Box::new(FaultyIo {
        fault,
        torn: AtomicBool::new(false),
    })
}

impl CkptIo for FaultyIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        assert_ne!(
            self.fault,
            Fault::NoRead,
            "keep = false must not read the log"
        );
        RealIo.read_to_string(path)
    }
    fn open_writer(&self, path: &Path, append: bool) -> io::Result<std::fs::File> {
        match self.fault {
            Fault::NoWriter => Err(io::Error::other("test: no writer")),
            Fault::ReadOnlyWriter => {
                drop(RealIo.open_writer(path, append)?);
                std::fs::File::open(path)
            }
            _ => RealIo.open_writer(path, append),
        }
    }
    fn append_line(&self, w: &mut dyn Write, line: &str) -> io::Result<()> {
        if self.fault == Fault::TearFirstAppend && !self.torn.swap(true, Ordering::SeqCst) {
            w.write_all(&line.as_bytes()[..line.len() / 2])?;
            w.flush()?;
            return Err(io::Error::other("test: torn append"));
        }
        RealIo.append_line(w, line)
    }
    fn replace_file(&self, path: &Path, contents: &str) -> io::Result<()> {
        RealIo.replace_file(path, contents)
    }
}

#[test]
fn torn_append_then_good_append_both_survive_reopen() {
    let dir = tmpdir("torn");
    let (mut log, _) = open_all(&dir, faulty(Fault::TearFirstAppend), false);
    assert!(log.append(&record(1)).is_err());
    assert!(log.persistent(), "the salvage newline keeps the log usable");
    log.append(&record(2)).unwrap();
    drop(log);
    let fragment = &record(1)[..record(1).len() / 2];

    let (log, seen) = open_all(&dir, Box::new(RealIo), true);
    assert_eq!(seen, [2], "the record after a torn one starts its own line");
    assert_eq!(log.quarantined(), 1);
    let quarantine = std::fs::read_to_string(dir.join("log.quarantine")).unwrap();
    assert_eq!(quarantine, format!("{fragment}\n"));
    drop(log);

    let (log, seen) = open_all(&dir, Box::new(RealIo), true);
    assert_eq!(seen, [2]);
    assert_eq!(log.quarantined(), 0);
    assert_eq!(
        std::fs::read_to_string(dir.join("log.quarantine")).unwrap(),
        format!("{fragment}\n"),
        "the quarantine survives the reopen"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_writer_is_not_persistent_and_append_errors() {
    let dir = tmpdir("nowriter");
    let (mut log, _) = open_all(&dir, faulty(Fault::NoWriter), true);
    assert!(!log.persistent());
    assert!(log.append(&record(1)).is_err());
    assert!(!dir.join("log.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_salvage_newline_stops_persisting() {
    let dir = tmpdir("readonly");
    let (mut log, _) = open_all(&dir, faulty(Fault::ReadOnlyWriter), false);
    assert!(log.persistent());
    assert!(log.append(&record(1)).is_err());
    assert!(
        !log.persistent(),
        "an unsalvageable append drops the writer"
    );
    assert!(log.append(&record(2)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_false_truncates_without_reading() {
    let dir = tmpdir("fresh");
    std::fs::write(dir.join("log.jsonl"), format!("{}\ntorn", record(1))).unwrap();
    let (log, seen) = open_all(&dir, faulty(Fault::NoRead), false);
    assert!(seen.is_empty());
    assert_eq!(log.quarantined(), 0);
    assert!(log.persistent());
    assert_eq!(std::fs::read_to_string(dir.join("log.jsonl")).unwrap(), "");
    assert!(!dir.join("log.quarantine").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench has a workspace root")
        .to_path_buf()
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates = std::fs::read_dir(workspace_root().join("crates")).expect("crates/");
    let mut stack: Vec<PathBuf> = crates.flatten().map(|e| e.path().join("src")).collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(
        files.len() > 10,
        "source scan found almost nothing — wrong root?"
    );
    files
}

/// Salvage, quarantine and atomic rewrite live in `append_log.rs` alone:
/// outside it, only the `CkptIo` impls in `chaos.rs` may open writers or
/// replace files, and the checkpoint's codec calls no `CkptIo` file method.
#[test]
fn only_the_append_log_owns_the_file_protocol() {
    // Built at run time so this file does not match its own needles.
    let needle = |method: &str| format!(".{method}(");
    let protocol = [needle("open_writer"), needle("replace_file")];
    let offenders: Vec<String> = crate_sources()
        .into_iter()
        .filter(|p| !(p.ends_with("bench/src/chaos.rs") || p.ends_with("bench/src/append_log.rs")))
        .filter(|p| {
            std::fs::read_to_string(p).is_ok_and(|src| protocol.iter().any(|n| src.contains(n)))
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        offenders.is_empty(),
        "open_writer/replace_file outside chaos.rs and append_log.rs (use AppendLog): {offenders:?}"
    );

    let io_methods = [
        "create_dir_all",
        "read_to_string",
        "open_writer",
        "append_line",
        "replace_file",
    ]
    .map(needle);
    let root = workspace_root().join("crates");
    let codec = "bench/src/checkpoint.rs";
    let src = std::fs::read_to_string(root.join(codec)).expect(codec);
    let called: Vec<&String> = io_methods.iter().filter(|n| src.contains(*n)).collect();
    assert!(
        called.is_empty(),
        "{codec} calls CkptIo directly ({called:?}); go through AppendLog"
    );
}
