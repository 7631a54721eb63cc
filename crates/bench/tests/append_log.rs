//! The shared append-only log: salvage at any truncation offset,
//! compaction of superseded lines, a log whose path is a directory, and
//! a tripwire keeping its file protocol in one module. The torn-append
//! repair and the full-disk writer are unit tests in `append_log.rs`.

use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use emissary_bench::append_log::AppendLog;
use emissary_bench::results::take_ckpt_errors;
use emissary_obs::JsonValue;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("emissary_append_log_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Opens `dir/log.jsonl`, accepting every parsed line unkeyed; returns
/// the log and the accepted lines' `n` fields.
fn open_all(dir: &Path) -> (AppendLog, Vec<u64>) {
    let mut seen = Vec::new();
    let log = AppendLog::open(&dir.join("log.jsonl"), &dir.join("log.quarantine"), |v| {
        seen.push(v.get("n").and_then(JsonValue::as_u64).unwrap_or(u64::MAX));
        Ok(None)
    });
    (log, seen)
}

fn record(n: u64) -> String {
    format!("{{\"record\":\"test\",\"n\":{n},\"pad\":\"abcdefgh\"}}")
}

/// A healthy four-record log's bytes, written through the log itself.
fn golden_log() -> String {
    let dir = tmpdir("golden");
    let (mut log, _) = open_all(&dir);
    for n in 0..4 {
        log.append(&record(n)).unwrap();
    }
    drop(log);
    let text = std::fs::read_to_string(dir.join("log.jsonl")).unwrap();
    assert_eq!(text.lines().count(), 4);
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Truncating the log at ANY byte offset still opens: every complete
/// line is accepted, a trailing fragment is quarantined verbatim
/// unless it is itself a whole record, and the next append lands on
/// its own line — a further open accepts it and quarantines nothing.
/// The log is short, so every cut from 0 to its length is checked.
#[test]
fn truncated_log_salvages_at_any_offset() {
    let golden = golden_log();
    for cut in 0..=golden.len() {
        let prefix = &golden[..cut];
        let (complete, fragment) = match prefix.rfind('\n') {
            Some(i) => (&prefix[..i + 1], &prefix[i + 1..]),
            None => ("", prefix),
        };
        let whole = !fragment.is_empty() && JsonValue::parse(fragment).is_ok();
        let expect_good = complete.lines().count() + usize::from(whole);
        let expect_quarantined = u64::from(!fragment.is_empty() && !whole);

        let dir = tmpdir(&format!("trunc{cut}"));
        std::fs::write(dir.join("log.jsonl"), prefix).unwrap();
        let (mut log, seen) = open_all(&dir);
        assert_eq!(seen.len(), expect_good, "cut at byte {cut}");
        assert_eq!(log.quarantined(), expect_quarantined, "cut at byte {cut}");
        if expect_quarantined > 0 {
            let q = std::fs::read_to_string(dir.join("log.quarantine")).unwrap_or_default();
            assert_eq!(q, format!("{fragment}\n"), "cut at byte {cut}");
        }
        log.append(&record(99)).unwrap();
        drop(log);

        let (log, seen) = open_all(&dir);
        assert_eq!(seen.len(), expect_good + 1, "cut at byte {cut}");
        assert_eq!(seen.last().copied(), Some(99), "cut at byte {cut}");
        assert_eq!(
            log.quarantined(),
            0,
            "cut at byte {cut}: salvage must leave a clean segment"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_directory_at_the_log_path_fails_read_and_open_and_leaves_it_alone() {
    // A real EISDIR on both the salvage read and the append open: the
    // log opens non-persistent, reports both, and every append errors.
    let dir = tmpdir("eisdir");
    let path = dir.join("log.jsonl");
    std::fs::create_dir(&path).unwrap();
    let (mut log, seen) = open_all(&dir);
    assert!(seen.is_empty());
    assert!(!log.persistent());
    assert_eq!(log.quarantined(), 0);
    assert!(log.append(&record(1)).is_err());
    assert!(path.is_dir(), "the directory is left as it was");
    let errors: Vec<_> = take_ckpt_errors()
        .into_iter()
        .filter(|e| Path::new(&e.path) == path)
        .collect();
    let ops: Vec<&str> = errors.iter().map(|e| e.op.as_str()).collect();
    assert_eq!(ops, ["read", "open"], "{errors:?}");
    assert!(errors.iter().all(|e| e.error.contains("Is a directory")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opens `dir/log.jsonl` keying each line by its `k` field (unkeyed
/// when absent); returns the accepted `n` fields in file order.
fn open_keyed(dir: &Path) -> Vec<u64> {
    let mut seen = Vec::new();
    AppendLog::open(&dir.join("log.jsonl"), &dir.join("log.quarantine"), |v| {
        seen.push(v.get("n").and_then(JsonValue::as_u64).unwrap_or(u64::MAX));
        Ok(v.get("k").and_then(JsonValue::as_str).map(str::to_string))
    });
    seen
}

#[test]
fn open_keeps_the_last_line_per_key_and_rewrites_only_when_it_dropped_one() {
    let dir = tmpdir("compact");
    let path = dir.join("log.jsonl");
    let line = |n: u64, key: Option<&str>| match key {
        Some(k) => format!("{{\"n\":{n},\"k\":\"{k}\"}}\n"),
        None => format!("{{\"n\":{n}}}\n"),
    };
    let lines = [
        line(0, Some("a")),
        line(1, None),
        line(2, Some("b")),
        line(3, Some("a")),
        line(4, None),
        line(5, Some("a")),
    ];
    std::fs::write(&path, lines.concat()).unwrap();
    assert_eq!(
        open_keyed(&dir),
        [0, 1, 2, 3, 4, 5],
        "every line is offered"
    );
    let compacted = [&lines[1], &lines[2], &lines[4], &lines[5]].map(String::as_str);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), compacted.concat());
    assert!(
        !dir.join("log.quarantine").exists(),
        "superseded is not bad"
    );

    // Nothing left to drop: the file is not rewritten.
    let inode = std::fs::metadata(&path).unwrap().ino();
    assert_eq!(open_keyed(&dir), [1, 2, 4, 5]);
    assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), compacted.concat());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_open_keeps_the_existing_records() {
    // Opening is salvage then append: a log is never truncated, so the
    // records of an earlier run survive every later open.
    let dir = tmpdir("keep");
    std::fs::write(dir.join("log.jsonl"), format!("{}\ntorn", record(1))).unwrap();
    let (mut log, seen) = open_all(&dir);
    assert_eq!(seen, [1]);
    assert_eq!(log.quarantined(), 1, "the torn tail still quarantines");
    log.append(&record(2)).unwrap();
    drop(log);
    let (log, seen) = open_all(&dir);
    assert_eq!(seen, [1, 2], "the new record appends after the old one");
    assert_eq!(log.quarantined(), 0);
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

/// The checkpoint's file protocol lives in `append_log.rs` alone: no
/// other source opens a file for append, and the checkpoint's codec
/// touches no file outside its tests.
#[test]
fn only_the_append_log_owns_the_file_protocol() {
    let offenders: Vec<String> = crate_sources()
        .into_iter()
        .filter(|p| !p.ends_with("bench/src/append_log.rs"))
        .filter(|p| std::fs::read_to_string(p).is_ok_and(|src| src.contains(".append(true)")))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        offenders.is_empty(),
        "files opened for append outside append_log.rs (use AppendLog): {offenders:?}"
    );

    let codec = "bench/src/checkpoint.rs";
    let src = std::fs::read_to_string(workspace_root().join("crates").join(codec)).expect(codec);
    let code = src.split("#[cfg(test)]").next().unwrap_or(&src);
    assert!(
        !code.contains("fs::"),
        "{codec} touches the filesystem directly; go through AppendLog"
    );
}
