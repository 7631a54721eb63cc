//! The workspace builds from its own crates alone: no registry crate,
//! and no vendored copy of one.

use std::path::Path;

/// The dependency names a manifest's `[dependencies]`,
/// `[dev-dependencies]` and `[build-dependencies]` tables list.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or(line);
            names.push(key.trim().to_string());
        }
    }
    names
}

/// Every package in `Cargo.lock` is an `emissary*` crate, and every
/// manifest names only dependencies `[workspace.dependencies]` declares.
#[test]
fn every_dependency_is_a_workspace_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| std::fs::read_to_string(path).expect("readable manifest");

    let lock = read(&root.join("Cargo.lock"));
    let foreign: Vec<&str> = lock
        .lines()
        .filter_map(|l| l.strip_prefix("name = \""))
        .map(|name| name.trim_end_matches('"'))
        .filter(|name| !name.starts_with("emissary"))
        .collect();
    assert!(foreign.is_empty(), "Cargo.lock pulls in {foreign:?}");

    let workspace = read(&root.join("Cargo.toml"));
    let declared: Vec<&str> = workspace
        .split("[workspace.dependencies]")
        .nth(1)
        .expect("a [workspace.dependencies] table")
        .lines()
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
        .collect();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        manifests.push(entry.path().join("Cargo.toml"));
    }
    let mut undeclared = Vec::new();
    for manifest in &manifests {
        for name in dependency_names(&read(manifest)) {
            if !declared.contains(&name.as_str()) {
                undeclared.push(format!("{}: {name}", manifest.display()));
            }
        }
    }
    assert!(manifests.len() > 5, "found only {manifests:?}");
    assert!(
        undeclared.is_empty(),
        "dependencies outside [workspace.dependencies]: {undeclared:?}"
    );
}
