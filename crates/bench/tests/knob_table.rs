//! Tripwires for the knob table in `emissary_bench::scale`.
//!
//! Grep-driven, like `obs/tests/event_roundtrip.rs`: the test scans the
//! workspace sources and the README, so a new environment read outside
//! the table, or a knob added to the table without a README row (or the
//! reverse), fails CI instead of drifting silently.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use emissary_bench::scale;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench has a workspace root")
        .to_path_buf()
}

/// Every `.rs` file under `crates/`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![workspace_root().join("crates")];
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

fn relative(path: &Path) -> String {
    path.strip_prefix(workspace_root())
        .unwrap_or(path)
        .display()
        .to_string()
}

#[test]
fn only_the_knob_table_reads_the_environment() {
    // Split so this file does not match its own needle.
    let needle = concat!("env", "::var");
    let offenders: Vec<String> = crate_sources()
        .into_iter()
        .filter(|p| !p.ends_with("crates/bench/src/scale.rs"))
        .filter(|p| std::fs::read_to_string(p).is_ok_and(|src| src.contains(needle)))
        .map(|p| relative(&p))
        .collect();
    assert!(
        offenders.is_empty(),
        "{needle} outside crates/bench/src/scale.rs (add a knob to the table instead): {offenders:?}"
    );
}

#[test]
fn lower_crates_name_no_knob() {
    let root = workspace_root().join("crates");
    let lower = ["sim", "workloads", "obs"].map(|c| root.join(c));
    let offenders: Vec<String> = crate_sources()
        .into_iter()
        .filter(|p| lower.iter().any(|dir| p.starts_with(dir)))
        .filter(|p| std::fs::read_to_string(p).is_ok_and(|src| src.contains("EMISSARY_")))
        .map(|p| relative(&p))
        .collect();
    assert!(
        offenders.is_empty(),
        "simulator crates must stay environment-free: {offenders:?}"
    );
}

/// The variable names in README's "Environment variables" table.
fn readme_names() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(workspace_root().join("README.md")).expect("README.md");
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an \"Environment variables\" section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .filter(|name| name.starts_with("EMISSARY_"))
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_table_lists_exactly_the_knob_table() {
    let table: BTreeSet<String> = scale::names().map(str::to_string).collect();
    let readme = readme_names();
    let undocumented: Vec<&String> = table.difference(&readme).collect();
    let stale: Vec<&String> = readme.difference(&table).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README \"Environment variables\" and the knob table disagree: \
         missing from README {undocumented:?}, not recognised by the table {stale:?}"
    );
}
