//! `emissary-benchmark`: the repository benchmark. See README.md.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--trace [0|1]] [--quick]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare [--claim WORKLOAD:METRIC] PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Each workload runs in its own child process (this binary again) with
//! every `EMISSARY_*` variable removed, so no chaos, trace, metrics or
//! resume setting of the caller's shell can leak into a measurement. The
//! parent prints every metric as `workload metric value unit`, writes
//! `out/results.json`, and ends its output with one JSON summary line.

mod compare;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use emissary_obs::{JsonObject, JsonValue};

use crate::spec::Spec;
use crate::workload::{Workload, WORKLOADS};

/// First argument of a child invocation.
const CHILD: &str = "--child";

/// Options of a benchmark run, shared by the parent and its children.
pub struct Options {
    workload: Option<&'static Workload>,
    /// `--seed`: 0 is the reproduction's own inputs; others perturb them.
    pub seed: u64,
    /// `--trace`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--quick`: tiny windows and a single pass, for smoke tests.
    pub quick: bool,
    /// `--digests`: a pinned-digest file replacing `digests.json`.
    pub digests: Option<PathBuf>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..], &spec),
        Some(CHILD) => child(&args[1..], &spec),
        _ => parent(&args, &spec),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("emissary-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// Where runs write `results.json`, traces and scratch checkpoints.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 0,
        trace: false,
        quick: false,
        digests: None,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut args, arg)?;
                o.workload =
                    Some(Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let seed = value(&mut args, arg)?;
                o.seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
            }
            // The run length is `run_seconds` of BENCHMARK.json, the same
            // for every run of a commit. A caller may state it, but not
            // change it.
            "--seconds" => {
                let s = value(&mut args, arg)?;
                if s.parse::<f64>() != Ok(spec.run_seconds) {
                    return Err(format!(
                        "--seconds {s:?}: runs last run_seconds = {} of BENCHMARK.json",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                o.trace = match args.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => o.quick = true,
            "--digests" => o.digests = Some(PathBuf::from(value(&mut args, arg)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn child(args: &[String], spec: &Spec) -> Result<i32, String> {
    let o = parse(args, spec)?;
    let w = o.workload.ok_or("a child needs --workload")?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    println!("{}", run::run(w, &o, spec.run_seconds, &out)?);
    Ok(0)
}

/// Runs `w` in a child process with a clean environment and returns its
/// result line, raw and parsed.
fn spawn(w: &Workload, o: &Options) -> Result<(String, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([CHILD, "--workload", w.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    if let Some(digests) = &o.digests {
        cmd.arg("--digests").arg(digests);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EMISSARY_") {
            cmd.env_remove(&key);
        }
    }
    cmd.env("EMISSARY_PROGRESS", "0");
    // With glibc's default arena count, a short-lived pool thread's
    // machine lands in whichever arena the thread inherits, and the peak
    // RSS of one seed is bimodal (24.5 or 27 MB on l2-resident). One arena
    // makes `peak_rss_mb` repeat.
    cmd.env("MALLOC_ARENA_MAX", "1");
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("the {} child printed no result", w.name))?;
    let parsed =
        JsonValue::parse(line).map_err(|e| format!("the {} child's result: {e:?}", w.name))?;
    Ok((line.to_string(), parsed))
}

fn parent(args: &[String], spec: &Spec) -> Result<i32, String> {
    let o = parse(args, spec)?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let workloads: Vec<&Workload> = match o.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for w in &workloads {
        results.push(spawn(w, &o)?);
    }

    let defs = spec.metrics(o.trace);
    let (mut attempted, mut failed) = (0, 0);
    let mut summary = JsonObject::new();
    for (w, (_, result)) in workloads.iter().zip(&results) {
        let metrics = result.get("metrics").ok_or("result without metrics")?;
        let JsonValue::Obj(fields) = metrics else {
            return Err("result metrics are not an object".into());
        };
        if let Some((extra, _)) = fields
            .iter()
            .find(|(k, _)| !defs.iter().any(|d| d.name == *k))
        {
            return Err(format!(
                "{}: metric {extra} is not in BENCHMARK.json",
                w.name
            ));
        }
        for d in defs {
            let v = metrics
                .get(&d.name)
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite())
                .ok_or(format!("{}: no finite value for {}", w.name, d.name))?;
            println!("{} {} {v} {}", w.name, d.name, d.unit);
            let key = if workloads.len() == 1 {
                d.name.clone()
            } else {
                format!("{}.{}", w.name, d.name)
            };
            let mut entry = JsonObject::new();
            entry.field_f64("value", v).field_str("unit", &d.unit);
            summary.field_raw(&key, &entry.finish());
        }
        let count = |key: &str| result.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        println!("{} ops {} count", w.name, count("attempted"));
        println!("{} failed_ops {} count", w.name, count("failed"));
        attempted += count("attempted");
        failed += count("failed");
    }

    let mut record = JsonObject::new();
    record.field_raw("provenance", &provenance(&o, spec));
    let lines: Vec<&str> = results.iter().map(|(raw, _)| raw.as_str()).collect();
    record.field_raw("workloads", &format!("[{}]", lines.join(",")));
    let path = out.join("results.json");
    std::fs::write(&path, record.finish() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut last = JsonObject::new();
    last.field_bool("correct", failed == 0)
        .field_u64("attempted", attempted)
        .field_u64("failed", failed)
        .field_raw("metrics", &summary.finish());
    println!("{}", last.finish());
    Ok(0)
}

/// Where and with what the numbers were taken.
fn provenance(o: &Options, spec: &Spec) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let mut p = JsonObject::new();
    p.field_str("git_rev", &git_rev(root))
        .field_str("rustc", env!("BENCH_RUSTC_VERSION"))
        .field_u64("nproc", nproc)
        .field_str("cpu", &cpu)
        .field_u64("seed", o.seed)
        .field_f64("seconds", spec.run_seconds)
        .field_bool("trace", o.trace)
        .field_bool("quick", o.quick);
    p.finish()
}

/// The commit checked out at `root`, or "unknown" when `root` is not a
/// git checkout or git is missing. The ceiling stops git from reporting
/// an enclosing repository's commit for an exported source tree.
fn git_rev(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
