//! The `emissary` binary end to end: it runs its jobs through the
//! campaign path (one checkpoint, resume, one summary line) and rejects
//! bad input with exit status 2 before it opens anything. Every case runs
//! in its own temporary directory at 1000 + 4000-instruction windows.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WINDOWS: [&str; 4] = ["--warmup", "1000", "--instrs", "4000"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emissary_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Runs `emissary <args> <WINDOWS>` in `dir`, with `resume` as
/// `EMISSARY_RESUME` (unset when `None`).
fn emissary(dir: &Path, args: &[&str], resume: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_emissary"));
    cmd.args(args)
        .args(WINDOWS)
        .current_dir(dir)
        .env_remove("EMISSARY_RESUME")
        .env_remove("EMISSARY_TRACE_OUT")
        .env("EMISSARY_THREADS", "2");
    if let Some(v) = resume {
        cmd.env("EMISSARY_RESUME", v);
    }
    cmd.output().expect("spawn emissary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// The `campaign summary:` line of `out`'s stderr.
fn summary(out: &Output) -> String {
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    let line = stderr.lines().find(|l| l.starts_with("campaign summary:"));
    line.unwrap_or_else(|| panic!("no summary line in:\n{stderr}"))
        .to_string()
}

#[test]
fn compare_prints_a_named_baseline_once_and_resumes_byte_identically() {
    let dir = tmpdir("compare");
    let args = ["compare", "xapian", "LRU", "P(8):S&E"];
    let first = emissary(&dir, &args, None);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let text = stdout(&first);
    // The title, the header and its rule, then one line per row.
    let rows: Vec<&str> = text.lines().skip(3).collect();
    assert_eq!(
        rows.len(),
        2,
        "one baseline row and one EMISSARY row:\n{text}"
    );
    assert!(
        rows[0].starts_with("M:1 ") && rows[1].starts_with("P(8):S&E "),
        "{text}"
    );
    assert!(
        summary(&first).contains(" simulated=2 "),
        "{}",
        summary(&first)
    );
    assert!(dir.join("results/campaign.ckpt.jsonl").is_file());

    let resumed = emissary(&dir, &args, Some("1"));
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert_eq!(stdout(&resumed), text, "a replay renders the same table");
    let line = summary(&resumed);
    assert!(
        line.contains(" simulated=0 ") && line.contains(" replayed=2 "),
        "{line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_command_leaves_a_sweeps_summaries_byte_identical() {
    let dir = tmpdir("summaries");
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("create results/");
    let sweep = [
        (
            "campaign.jsonl",
            "{\"record\":\"meta\",\"experiment\":\"campaign\"}\n",
        ),
        (
            "metrics.jsonl",
            "{\"record\":\"metric\",\"name\":\"sweep\"}\n",
        ),
    ];
    for (file, text) in sweep {
        std::fs::write(results.join(file), text).expect("write a sweep file");
    }
    let out = emissary(&dir, &["compare", "xapian", "P(8):S&E"], None);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    for (file, text) in sweep {
        let after = std::fs::read(results.join(file)).expect("read a sweep file");
        assert_eq!(after, text.as_bytes(), "results/{file} changed");
    }
    // The command's own summaries sit beside them.
    for file in ["emissary.jsonl", "emissary.metrics.jsonl"] {
        assert!(results.join(file).is_file(), "no results/{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_input_exits_2_before_the_checkpoint_is_opened() {
    let cases: [(&str, &[&str], Option<&str>); 3] = [
        ("too_many", &["compare", "xapian", "P(16):S&E"], None),
        ("unknown", &["compare", "no-such-benchmark"], None),
        ("resume", &["compare", "xapian"], Some("yes")),
    ];
    for (tag, args, resume) in cases {
        let dir = tmpdir(tag);
        let out = emissary(&dir, args, resume);
        assert_eq!(out.status.code(), Some(2), "{tag}: {out:?}");
        assert!(out.stdout.is_empty(), "{tag}: {out:?}");
        assert!(
            !dir.join("results/campaign.ckpt.jsonl").exists(),
            "{tag} opened the checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
