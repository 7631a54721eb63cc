//! Runs the reproduction's experiments: `all_experiments [NAME…]`.
//!
//! With no names it runs the paper's ten figures and tables; otherwise it
//! runs the named experiments, in the order given (`ablations`,
//! `extensions` and `l2_sweep` run only when named; see
//! [`emissary_bench::experiments::EXPERIMENTS`]). An unknown name exits
//! with status 2 before the checkpoint is opened, as does a malformed
//! `EMISSARY_*` value.
//!
//! Every run is one **campaign**: the selected experiments' plans are
//! joined, deduplicated by config fingerprint and simulated once through
//! a single globally scheduled pool (longest-job-first, see
//! [`emissary_bench::campaign`]); each experiment then renders its tables
//! from that prefetch's outcomes, without running a job.
//!
//! The `campaign summary:` line on stderr reports the sweep's job counts
//! and wall-clock, and `results/metrics.jsonl` keeps the sweep's host-time
//! counters (read it with `emissary-inspect metrics`). Expect the sweep to take a while at default run
//! lengths; scale down with `EMISSARY_MEASURE_INSNS` for a quick pass.
//! To stop a sweep, kill it: every signal takes the OS default, and each
//! completed job is already in the checkpoint, so a rerun with
//! `EMISSARY_RESUME=1` simulates only what is left. A job that failed
//! (`FAILED` cells, `failed=` above 0) is recovered the same way.

use std::path::Path;
use std::time::Instant;

use emissary_bench::campaign::{self, CostModel};
use emissary_bench::checkpoint::{Campaign, UNIFIED_CAMPAIGN};
use emissary_bench::{experiments, metrics, results, scale, PoolOptions};
use emissary_obs::metrics::global;

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
    let knobs = scale::knobs();
    let cfg = emissary_bench::base_config();
    eprintln!(
        "running {} experiment(s): warmup={} measure={} threads={}",
        selected.len(),
        cfg.warmup_instrs,
        cfg.measure_instrs,
        knobs.threads,
    );
    let start = Instant::now();
    let plan = experiments::plan_jobs(&selected, &cfg);

    let campaign = Campaign::begin_with(UNIFIED_CAMPAIGN, Path::new("results"), knobs.resume);
    if campaign.resumable() > 0 || campaign.quarantined() > 0 {
        eprintln!(
            "checkpoint: {UNIFIED_CAMPAIGN}: {} completed record(s) loaded for resume, \
             {} unusable line(s) quarantined",
            campaign.resumable(),
            campaign.quarantined()
        );
    }
    let (prefetch, runs) = campaign::prefetch_runs(
        plan,
        &PoolOptions::from_env(),
        Some(&campaign),
        &CostModel::new(),
    );
    eprintln!(
        "campaign: prefetched {} unique of {} requested jobs ({} simulated, {} replayed, {} failed) in {:.1}s",
        prefetch.unique,
        prefetch.requested,
        prefetch.simulated,
        prefetch.replayed,
        prefetch.failed,
        prefetch.wall_seconds
    );
    results::write_campaign_faults();

    for entry in &selected {
        eprintln!("=== {} ===", entry.name);
        results::emit(entry.name, &(entry.render)(&cfg, &runs));
    }

    let wall = start.elapsed().as_secs_f64();
    // Metrics aggregates append strictly after the pre-existing fields:
    // CI's campaign-smoke job greps this line for ` failed=0 ` and
    // ` replayed=N`. Dedup runs before the pool, so `replayed` counts
    // exactly the unique jobs served from the loaded checkpoint.
    eprintln!(
        "campaign summary: requests={} unique={} simulated={} replayed={} failed={} \
         ckpt_quarantined={} wall={wall:.1}s{}",
        prefetch.requested,
        prefetch.unique,
        prefetch.simulated,
        prefetch.replayed,
        prefetch.failed,
        campaign.quarantined(),
        metrics::summary_suffix()
    );
    let path = metrics::default_path();
    match metrics::write_jsonl(&path, &global().snapshot()) {
        Ok(()) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
    }
}
