//! Smoke test: `--quick` runs (tiny windows, one pass) of every workload,
//! untraced and traced, checked against `BENCHMARK.json` and the pinned
//! digests.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use emissary_obs::{JsonObject, JsonValue};

const WORKLOADS: [&str; 3] = ["miss-heavy", "l2-resident", "campaign"];

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark; returns its stdout lines and its parsed last line.
fn bench(args: &[&str]) -> (Vec<String>, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_emissary-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect();
    let last = JsonValue::parse(lines.last().expect("a result line")).expect("JSON result line");
    (lines, last)
}

/// (name, unit) of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    spec.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_spans(workload: &str) {
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    let text = std::fs::read_to_string(&path).expect("traced run writes its spans");
    let spans: Vec<JsonValue> = text
        .lines()
        .map(|l| JsonValue::parse(l).expect("span line"))
        .collect();
    let ids: HashSet<u64> = spans
        .iter()
        .map(|s| s.get("id").and_then(JsonValue::as_u64).expect("id"))
        .collect();
    let mut names = HashSet::new();
    for s in &spans {
        let name = s.get("name").and_then(JsonValue::as_str).expect("name");
        names.insert(name.to_string());
        match s.get("parent").expect("parent field") {
            JsonValue::Null => {}
            parent => assert!(
                parent.as_u64().is_some_and(|p| ids.contains(&p)),
                "{workload}: span {name} has a dangling parent"
            ),
        }
        let self_ns = s
            .get("self_ns")
            .and_then(JsonValue::as_f64)
            .expect("self_ns");
        assert!(
            self_ns >= 0.0,
            "{workload}: span {name} has negative self time"
        );
    }
    for layer_span in [
        "workloads.build",
        "bench.prefetch",
        "bench.resume_load",
        "sim.run_instrs",
        "cache.replay",
        "core.replay",
        "frontend.predict",
        "workloads.walk",
    ] {
        assert!(
            names.contains(layer_span),
            "{workload}: no {layer_span} span"
        );
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_and_outputs_check() {
    let spec = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let seconds = spec
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds")
        .to_string();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (lines, last) = bench(&["--quick", "--trace", trace, "--seconds", &seconds]);
        for workload in WORKLOADS {
            for (name, unit) in declared(section) {
                let printed = lines.iter().find_map(|l| {
                    let f: Vec<&str> = l.split(' ').collect();
                    (f.len() == 4 && f[0] == workload && f[1] == name).then(|| (f[2], f[3]))
                });
                let (value, printed_unit) =
                    printed.unwrap_or_else(|| panic!("{workload} {name} not printed"));
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{workload} {name}"
                );
                assert_eq!(printed_unit, unit, "{workload} {name}");
            }
            assert!(lines.contains(&format!("{workload} failed_ops 0 count")));
        }
        // Traced, every pair job also reran under the benchmark's own
        // stepping and its window counters matched its untraced report.
        assert_eq!(last.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(last.get("failed").and_then(JsonValue::as_u64), Some(0));
    }
    for workload in WORKLOADS {
        check_spans(workload);
    }
    // Every run of a commit lasts `run_seconds`; another length is refused.
    let refused = Command::new(env!("CARGO_BIN_EXE_emissary-benchmark"))
        .args(["--quick", "--seconds", "1"])
        .output()
        .expect("the benchmark starts");
    assert!(!refused.status.success() && refused.stdout.is_empty());
}

#[test]
fn a_wrong_pinned_digest_is_one_failed_op() {
    let pinned = JsonValue::parse(include_str!("../digests.json")).expect("digests.json");
    let Some(JsonValue::Obj(benches)) = pinned.get("miss-heavy@quick") else {
        panic!("no quick digests pinned for miss-heavy");
    };
    let mut wrong = JsonObject::new();
    for (i, (bench, digest)) in benches.iter().enumerate() {
        let digest = digest.as_str().expect("hex digest");
        wrong.field_str(bench, if i == 0 { "0123456789abcdef" } else { digest });
    }
    let mut file = JsonObject::new();
    file.field_raw("miss-heavy@quick", &wrong.finish());
    std::fs::create_dir_all(out_dir()).expect("out dir");
    let path = out_dir().join("smoke-wrong-digests.json");
    std::fs::write(&path, file.finish()).expect("digest file");

    let path = path.to_str().expect("utf-8 path");
    let (lines, last) = bench(&["--quick", "--workload", "miss-heavy", "--digests", path]);
    assert!(lines.contains(&"miss-heavy failed_ops 1 count".to_string()));
    assert_eq!(last.get("failed").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        last.get("correct").and_then(JsonValue::as_bool),
        Some(false)
    );
}
