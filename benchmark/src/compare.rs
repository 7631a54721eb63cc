//! `compare`: a change's verdict against its parent, from result sets
//! recorded with identical benchmark code and settings.
//!
//! Each input file holds one `out/results.json` line per run; line `i`
//! of the parent file and line `i` of the change file form pair `i`, and
//! the runs should alternate sides. The rules are those of a gain claim
//! in a small sandbox:
//!
//! * a claimed metric improved when the change wins at least nine tenths
//!   of the pairs (ties count for neither) and the medians differ, in the
//!   better direction, by more than the parent's own quartile distance;
//! * every other end-to-end metric is *regressed* when the change's
//!   median is worse than the parent's by more than the metric's bound,
//!   *unresolved* when the quartile spread of either side exceeds the
//!   bound (unless every change run beats every parent run), *improved*
//!   when it passes the gain rule, and *unchanged* otherwise;
//! * digests must be equal pair by pair, and the change may not fail a
//!   larger share of its operations than the parent.

use std::collections::BTreeMap;

use emissary_obs::JsonValue;

use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles, relative_spread};

/// Fewest pairs a comparison accepts.
const MIN_PAIRS: usize = 10;

/// One workload's numbers from one run.
struct WorkloadRun {
    seed: u64,
    metrics: BTreeMap<String, f64>,
    digests: Option<JsonValue>,
    attempted: u64,
    failed: u64,
}

/// One run: its workloads by name.
type Record = BTreeMap<String, WorkloadRun>;

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
            let v = JsonValue::parse(line).map_err(|e| bad(&format!("{e:?}")))?;
            let seed = v
                .get("provenance")
                .and_then(|p| p.get("seed"))
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("no provenance.seed"))?;
            let workloads = v
                .get("workloads")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("no workloads"))?;
            workloads
                .iter()
                .map(|w| {
                    let name = w
                        .get("workload")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| bad("workload without a name"))?;
                    let Some(JsonValue::Obj(fields)) = w.get("metrics") else {
                        return Err(bad("workload without metrics"));
                    };
                    let metrics = fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                    let count = |k: &str| w.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                    Ok((
                        name.to_string(),
                        WorkloadRun {
                            seed,
                            metrics,
                            digests: w.get("digests").cloned(),
                            attempted: count("attempted"),
                            failed: count("failed"),
                        },
                    ))
                })
                .collect()
        })
        .collect()
}

/// `workload`'s numbers from every run of one side.
fn side<'a>(set: &'a [Record], workload: &str) -> Result<Vec<&'a WorkloadRun>, String> {
    set.iter()
        .map(|r| {
            r.get(workload)
                .ok_or(format!("{workload} is missing from a run"))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// How far `change` is worse than `parent`, as a share of `parent`
/// (negative when better).
fn worse_by(def: &MetricDef, parent: f64, change: f64) -> f64 {
    let d = (change - parent) / parent.abs();
    if def.higher_is_better {
        -d
    } else {
        d
    }
}

/// The gain rule: the change wins at least nine tenths of the pairs and
/// its median is better by more than the parent's quartile distance.
fn gained(def: &MetricDef, p: &[f64], c: &[f64]) -> bool {
    let wins = p
        .iter()
        .zip(c)
        .filter(|(p, c)| worse_by(def, **p, **c) < 0.0)
        .count();
    let Some((q1, q3)) = quartiles(p) else {
        return false;
    };
    let delta = median(c) - median(p);
    let better = if def.higher_is_better { delta } else { -delta };
    wins * 10 >= p.len() * 9 && better > q3 - q1
}

fn verdict(def: &MetricDef, bound: f64, p: &[f64], c: &[f64]) -> Verdict {
    let spread = |v: &[f64]| relative_spread(v).unwrap_or(f64::INFINITY);
    let every_run_better = p
        .iter()
        .all(|pv| c.iter().all(|cv| worse_by(def, *pv, *cv) < 0.0));
    if every_run_better {
        Verdict::Improved
    } else if spread(p).max(spread(c)) > bound {
        Verdict::Unresolved
    } else if worse_by(def, median(p), median(c)) > bound {
        Verdict::Regressed
    } else if gained(def, p, c) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `compare [--claim WORKLOAD:METRIC] PARENT CHANGE`; exit code 0 when no
/// pair regressed or is unresolved, the digests match, no larger share of
/// operations failed, and the claim (if any) is met.
pub fn run(args: &[String], spec: &Spec) -> Result<i32, String> {
    let mut claim: Option<(String, String)> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--claim" {
            let c = it.next().ok_or("--claim needs WORKLOAD:METRIC")?;
            let (w, m) = c.split_once(':').ok_or(format!("bad --claim {c:?}"))?;
            spec.find(m)
                .ok_or(format!("--claim: unknown metric {m:?}"))?;
            claim = Some((w.to_string(), m.to_string()));
        } else {
            files.push(arg.as_str());
        }
    }
    let [parent_path, change_path] = files[..] else {
        return Err("usage: compare [--claim WORKLOAD:METRIC] PARENT CHANGE".into());
    };
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "need the same number (at least {MIN_PAIRS}) of parent and change runs; got {} and {}",
            parent.len(),
            change.len()
        ));
    }

    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<28} {:>32} {:>32} {:>9}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    for workload in parent[0].keys() {
        let (p, c) = (side(&parent, workload)?, side(&change, workload)?);
        let values = |runs: &[&WorkloadRun], m: &str| -> Option<Vec<f64>> {
            runs.iter().map(|r| r.metrics.get(m).copied()).collect()
        };
        let mut by_verdict: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut claim_row = String::from("no claim");
        for def in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(pv), Some(cv)) = (values(&p, &def.name), values(&c, &def.name)) else {
                continue;
            };
            let claimed = claim
                .as_ref()
                .is_some_and(|(w, m)| w == workload && *m == def.name);
            let (q1p, q3p) = quartiles(&pv).unwrap_or_default();
            let (q1c, q3c) = quartiles(&cv).unwrap_or_default();
            let mut label = match def.bound {
                Some(bound) => {
                    let v = verdict(def, bound, &pv, &cv);
                    let name = match v {
                        Verdict::Improved => "improved",
                        Verdict::Unchanged => "unchanged",
                        Verdict::Regressed => "regressed",
                        Verdict::Unresolved => "unresolved",
                    };
                    ok &= matches!(v, Verdict::Improved | Verdict::Unchanged);
                    by_verdict.entry(name).or_default().push(&def.name);
                    name.to_string()
                }
                None => "-".to_string(),
            };
            if claimed {
                let wins = pv
                    .iter()
                    .zip(&cv)
                    .filter(|(a, b)| worse_by(def, **a, **b) < 0.0)
                    .count();
                let met = gained(def, &pv, &cv);
                ok &= met;
                claim_row = format!(
                    "claim {} {} ({wins}/{} pairs won)",
                    def.name,
                    if met { "met" } else { "NOT met" },
                    pv.len()
                );
                label = format!("{label}, claim {}", if met { "met" } else { "not met" });
            }
            if def.bound.is_some() || claimed {
                println!(
                    "{:<12} {:<28} {:>32} {:>32} {:>+8.2}%  {label}",
                    workload,
                    def.name,
                    format!("{:.6} [{:.6}, {:.6}]", median(&pv), q1p, q3p),
                    format!("{:.6} [{:.6}, {:.6}]", median(&cv), q1c, q3c),
                    (median(&cv) / median(&pv) - 1.0) * 100.0
                );
            }
        }
        let seeds_match = p.iter().zip(&c).all(|(a, b)| a.seed == b.seed);
        let equal_digests = p
            .iter()
            .zip(&c)
            .filter(|(a, b)| a.digests == b.digests)
            .count();
        let share = |runs: &[&WorkloadRun]| {
            let (f, a) = runs
                .iter()
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            (f, a, f as f64 / a.max(1) as f64)
        };
        let ((pf, pa, ps), (cf, ca, cs)) = (share(&p), share(&c));
        ok &= seeds_match && equal_digests == p.len() && cs <= ps;
        let list = |v: &str| by_verdict.get(v).map_or("-".to_string(), |m| m.join(","));
        rows.push(format!(
            "{workload}: {claim_row}; improved {}; unchanged {}; regressed {}; unresolved {}; \
             digests equal {equal_digests}/{}{}; failed ops {pf}/{pa} vs {cf}/{ca}",
            list("improved"),
            list("unchanged"),
            list("regressed"),
            list("unresolved"),
            p.len(),
            if seeds_match { "" } else { " (SEEDS DIFFER)" },
        ));
    }
    println!();
    for row in rows {
        println!("{row}");
    }
    Ok(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.05),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let same = p.clone();
        assert_eq!(verdict(&def(false), 0.05, &p, &same), Verdict::Unchanged);
        let slower: Vec<f64> = p.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&def(false), 0.05, &p, &slower), Verdict::Regressed);
        // Every slower run is "better" when higher is better.
        assert_eq!(verdict(&def(true), 0.05, &p, &slower), Verdict::Improved);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        assert_eq!(verdict(&def(false), 0.05, &p, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn gain_needs_nine_of_ten_wins() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let mut c: Vec<f64> = p.iter().map(|v| v * 0.9).collect();
        assert!(gained(&def(false), &p, &c));
        c[0] = 20.0;
        c[1] = 20.0;
        assert!(!gained(&def(false), &p, &c));
    }
}
