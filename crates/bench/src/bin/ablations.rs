//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * wrong-path fetch modelling on/off (pollution + accidental prefetch);
//! * FTQ depth (run-ahead distance vs. re-steer exposure);
//! * FDIP prefetch bandwidth;
//! * EMISSARY recency flavor (dual tree-PLRU vs. dual true-LRU, §4.2);
//! * the §6 priority-reset interval.
//!
//! Run length scales via `EMISSARY_MEASURE_INSNS` / `EMISSARY_WARMUP_INSNS`.

use emissary_bench::experiments::Experiment;
use emissary_bench::{results, Job};
use emissary_cache::policy::RecencyBase;
use emissary_core::spec::PolicySpec;
use emissary_sim::{SimConfig, SimReport};
use emissary_stats::summary::speedup_pct;
use emissary_stats::table::{fixed, Table};
use emissary_workloads::Profile;

/// Runs one configuration, logging the run (with any interval samples)
/// for the JSONL results stream.
fn run_logged(profile: &Profile, cfg: &SimConfig) -> SimReport {
    let run = Job {
        profile: profile.clone(),
        config: cfg.clone(),
        inject: None,
    }
    .run_observed();
    results::log_run(&run);
    run.report
}

fn main() {
    let cfg = emissary_bench::base_config();
    eprintln!(
        "ablations: warmup={} measure={}",
        cfg.warmup_instrs, cfg.measure_instrs
    );
    let benches = ["verilator", "finagle-http"];

    let mut tables = Vec::new();
    for bench in benches {
        let profile = Profile::by_name(bench).expect("profile");
        let baseline = run_logged(&profile, &cfg.clone().with_policy(PolicySpec::BASELINE));

        let mut t = Table::with_headers(&[
            "variant",
            "speedup_vs_default%",
            "l2i_mpki",
            "starve_cycles",
        ]);
        let mut row = |name: &str, c: &SimConfig| {
            let r = run_logged(&profile, c);
            t.row(vec![
                name.to_string(),
                fixed(speedup_pct(baseline.cycles as f64 / r.cycles as f64), 2),
                fixed(r.l2i_mpki, 2),
                r.starvation_cycles.to_string(),
            ]);
        };

        // Reference: the preferred EMISSARY configuration as evaluated.
        let emis = cfg.clone().with_policy(PolicySpec::PREFERRED);
        row("P(8):S&E&R(1/32) (default)", &emis);

        // Wrong-path fetch off: no pollution, no accidental prefetch.
        let mut v = emis.clone();
        v.wrong_path_fetch = false;
        row("no wrong-path fetch", &v);

        // FTQ depth: half and double the 24 x 192 default.
        let mut v = emis.clone();
        v.core.ftq_entries = 12;
        v.core.ftq_instrs = 96;
        row("FTQ 12x96 (half run-ahead)", &v);
        let mut v = emis.clone();
        v.core.ftq_entries = 48;
        v.core.ftq_instrs = 384;
        row("FTQ 48x384 (double run-ahead)", &v);

        // FDIP prefetch bandwidth.
        let mut v = emis.clone();
        v.core.fdip_per_cycle = 1;
        row("FDIP 1 line/cycle", &v);
        let mut v = emis.clone();
        v.core.fdip_per_cycle = 4;
        row("FDIP 4 lines/cycle", &v);

        // Recency flavor: exact dual LRU instead of dual tree-PLRU.
        let mut v = emis.clone();
        v.recency = RecencyBase::TrueLru;
        row("dual true-LRU recency", &v);

        // §6 reset at a quarter of the measurement window.
        let mut v = emis.clone();
        v.priority_reset_interval = Some((cfg.measure_instrs / 4).max(1));
        row("P-bit reset every measure/4", &v);

        tables.push((format!("{bench} (speedups vs TPLRU+FDIP baseline)"), t));
    }
    let exp = Experiment {
        title: "Ablations".into(),
        tables,
    };
    results::emit("ablations", &exp);
}
