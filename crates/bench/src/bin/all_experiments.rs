//! Runs the reproduction's experiments: `all_experiments [NAME…]`.
//!
//! With no names it runs the paper's ten figures and tables; otherwise it
//! runs the named experiments, in the order given (`ablations`,
//! `extensions` and `l2_sweep` run only when named; see
//! [`emissary_bench::experiments::EXPERIMENTS`]). An unknown name exits
//! with status 2 before the checkpoint is opened, as does a malformed
//! `EMISSARY_*` value.
//!
//! Every run is one **campaign** ([`emissary_bench::campaign::run_plan`],
//! the same path the `emissary` CLI takes): the selected experiments'
//! plans are joined, deduplicated by config fingerprint and simulated
//! once through a single globally scheduled pool (longest-job-first);
//! each experiment then renders its tables from that prefetch's
//! outcomes, without running a job.
//!
//! The `campaign summary:` line on stderr reports the sweep's job counts
//! and wall-clock, and `results/metrics.jsonl` keeps the sweep's host-time
//! counters (read it with `emissary-inspect metrics`). Expect the sweep to take a while at default run
//! lengths; scale down with `EMISSARY_MEASURE_INSNS` for a quick pass.
//! To stop a sweep, kill it: every signal takes the OS default, and each
//! completed job is already in the checkpoint, so a rerun with
//! `EMISSARY_RESUME=1` simulates only what is left. A job that failed
//! (`FAILED` cells, `failed=` above 0) is recovered the same way.

use emissary_bench::checkpoint::UNIFIED_CAMPAIGN;
use emissary_bench::{campaign, experiments, results, scale};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = experiments::select(&names).unwrap_or_else(|unknown| {
        let known: Vec<&str> = experiments::EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "all_experiments: unknown experiment {unknown:?} (known: {})",
            known.join(", ")
        );
        std::process::exit(2);
    });
    // Resolve the knobs first: a malformed value exits here, before the
    // checkpoint is opened (and its torn lines quarantined).
    let cfg = emissary_bench::base_config();
    eprintln!(
        "running {} experiment(s): warmup={} measure={} threads={}",
        selected.len(),
        cfg.warmup_instrs,
        cfg.measure_instrs,
        scale::knobs().threads,
    );
    let plan = experiments::plan_jobs(&selected, &cfg);
    campaign::run_plan(UNIFIED_CAMPAIGN, plan, |runs| {
        for entry in &selected {
            eprintln!("=== {} ===", entry.name);
            results::emit(entry.name, &entry.render(&cfg, runs));
        }
    });
}
