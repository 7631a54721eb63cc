//! Extension study: the paper's related-work discussion (§7) made
//! executable.
//!
//! * `GHRP` — dead-block prediction alone (§7.2: "orthogonal to ours");
//! * `P(8):S&E&R(1/32)+GHRP` — the paper's suggested combination ("could
//!   be combined with EMISSARY … might further improve performance");
//! * `P(8):S&E&R(1/32)+BYPASS` — §2's rejected bypass variant ("not found
//!   to be effective");
//! * `LIN`, `LACS` — cost-aware *data* policies (§7.1), demonstrating that
//!   data-oriented cost awareness does not transfer to instruction caching.
//!
//! Run length scales via `EMISSARY_MEASURE_INSNS` / `EMISSARY_WARMUP_INSNS`.

use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_stats::summary::{geomean, speedup_pct};
use emissary_stats::table::{fixed, Table};
use emissary_workloads::Profile;

use emissary_bench::experiments::run_matrix;

fn main() {
    let cfg: SimConfig = emissary_bench::base_config();
    eprintln!(
        "extensions: warmup={} measure={} threads={}",
        cfg.warmup_instrs,
        cfg.measure_instrs,
        emissary_bench::scale::knobs().threads
    );
    let policies: Vec<PolicySpec> = [
        "M:1",
        "GHRP",
        "LIN",
        "LACS",
        "P(8):S&E&R(1/32)",
        "P(8):S&E&R(1/32)+GHRP",
        "P(8):S&E&R(1/32)+BYPASS",
        "P(8):S&E",
        "P(8):S&E+GHRP",
    ]
    .iter()
    .map(|s| s.parse().expect("notation"))
    .collect();
    let profiles = Profile::all();
    emissary_bench::checkpoint::begin("extensions");
    let matrix = run_matrix(&profiles, &cfg, &policies);

    let mut headers = vec!["benchmark".to_string()];
    headers.extend(policies[1..].iter().map(|p| p.to_string()));
    let mut t = Table::new(headers);
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); policies.len() - 1];
    for p in &profiles {
        let base = matrix.get(p.name, &policies[0]);
        let mut row = vec![p.name.to_string()];
        for (i, pol) in policies[1..].iter().enumerate() {
            match (base, matrix.get(p.name, pol)) {
                (Some(base), Some(r)) => {
                    let ratio = base.cycles as f64 / r.cycles as f64;
                    ratios[i].push(ratio);
                    row.push(fixed(speedup_pct(ratio), 2));
                }
                _ => row.push(emissary_bench::experiments::FAILED.to_string()),
            }
        }
        t.row(row);
    }
    // Geomeans cover the benchmarks where both runs completed.
    let mut row = vec!["geomean".to_string()];
    for r in &ratios {
        row.push(
            geomean(r)
                .map(|g| fixed(speedup_pct(g), 2))
                .unwrap_or_else(|| emissary_bench::experiments::FAILED.to_string()),
        );
    }
    t.row(row);

    let exp = emissary_bench::experiments::Experiment {
        title: "Extensions — §7 related-work combinations (speedup % vs TPLRU+FDIP)".into(),
        tables: vec![("speedups".into(), t)],
    };
    emissary_bench::results::emit("extensions", &exp);
}
