//! Runs every experiment in sequence (full reproduction sweep).
//!
//! By default the sweep runs as one **campaign**: the union of all ten
//! experiments' job matrices is deduplicated by config fingerprint and
//! simulated once through a single globally scheduled pool
//! (longest-job-first, see [`emissary_bench::campaign`]); the figures
//! then render by replaying from the campaign memo, bit-identically to
//! running them one at a time.
//!
//! The `campaign summary:` line on stderr reports the sweep's job counts
//! and wall-clock. Expect the sweep to take a while at default run
//! lengths; scale down with `EMISSARY_MEASURE_INSNS` for a quick pass. A
//! malformed `EMISSARY_*` value exits with status 2 before the
//! checkpoint is opened.

use std::time::Instant;

use emissary_bench::campaign::CostModel;
use emissary_bench::{campaign, chaos, checkpoint, experiments, metrics, scale};

/// Reports progress so far and exits with the conventional SIGINT code.
/// Completed jobs are already flushed to the checkpoint, so rerunning
/// with `EMISSARY_RESUME=1` continues exactly where this run stopped.
fn exit_interrupted(done: emissary_bench::checkpoint::JobCounters) -> ! {
    eprintln!(
        "campaign interrupted: {} simulated, {} replayed, {} failed so far; \
         checkpoint flushed — rerun with EMISSARY_RESUME=1 to continue",
        done.simulated, done.replayed, done.failed
    );
    std::process::exit(chaos::EXIT_INTERRUPTED);
}

fn main() {
    // Resolve the knobs first: a malformed value exits here, before the
    // checkpoint is opened (and possibly truncated).
    let threads = scale::knobs().threads;
    chaos::install_signal_handlers();
    // A second SIGINT/SIGTERM during the cooperative drain forces an
    // immediate (still checkpoint-safe) exit with a distinct code.
    chaos::spawn_escalation_watcher();
    let cfg = emissary_bench::base_config();
    eprintln!(
        "running all experiments: warmup={} measure={} threads={threads}",
        cfg.warmup_instrs, cfg.measure_instrs,
    );
    let start = Instant::now();
    let plan = experiments::campaign_jobs(&cfg);
    let requested = plan.len();
    let unique = campaign::dedup_jobs(plan.clone()).len();

    // Simulate the deduplicated union up front through one globally
    // scheduled pool; the per-figure runs below then replay from the memo
    // instead of simulating.
    checkpoint::begin("campaign");
    let prefetch = {
        let global = checkpoint::global_handle();
        campaign::prefetch(
            plan,
            &emissary_bench::PoolOptions::from_env(),
            global.as_ref(),
            &CostModel::new(),
        )
    };
    eprintln!(
        "campaign: prefetched {} unique of {} requested jobs ({} simulated, {} replayed, {} failed, {} interrupted) in {:.1}s",
        prefetch.unique,
        prefetch.requested,
        prefetch.simulated,
        prefetch.replayed,
        prefetch.failed,
        prefetch.interrupted,
        prefetch.wall_seconds
    );
    if prefetch.interrupted > 0 || chaos::shutdown_requested() {
        // Don't render figures from a partial memo: the interrupted jobs
        // would re-simulate during render and the tables would mix this
        // run with the next.
        exit_interrupted(checkpoint::counters());
    }

    type Runner<'a> = Box<dyn Fn() -> experiments::Experiment + 'a>;
    let runs: Vec<(&str, Runner)> = vec![
        ("fig1", Box::new(|| experiments::fig1(&cfg))),
        ("fig2", Box::new(|| experiments::fig2(&cfg))),
        ("fig3", Box::new(|| experiments::fig3(&cfg))),
        ("fig4", Box::new(|| experiments::fig4(&cfg))),
        ("table5", Box::new(|| experiments::table5(&cfg))),
        ("fig5", Box::new(|| experiments::fig5(&cfg))),
        ("fig6", Box::new(|| experiments::fig6(&cfg))),
        ("fig7", Box::new(|| experiments::fig7(&cfg))),
        ("fig8", Box::new(|| experiments::fig8(&cfg, true))),
        ("ideal_l2", Box::new(|| experiments::ideal_l2(&cfg))),
    ];
    let before_render = checkpoint::counters();
    for (name, run) in runs {
        if chaos::shutdown_requested() {
            exit_interrupted(checkpoint::counters());
        }
        eprintln!("=== {name} ===");
        checkpoint::begin(name);
        let exp = run();
        emissary_bench::results::emit(name, &exp);
    }
    let after_render = checkpoint::counters();

    // Every job the figures need was prefetched, so the render phase must
    // simulate nothing: fresh simulations here mean the planner and the
    // figures disagree on some job (drift), which would silently erode
    // the dedup win.
    let drift = after_render.simulated - before_render.simulated;
    let wall = start.elapsed().as_secs_f64();
    let simulated = prefetch.simulated + drift;
    let replayed = after_render.replayed - before_render.replayed + prefetch.replayed;
    let failed = after_render.failed;
    let (ckpt_recovered, ckpt_quarantined) = {
        let global = checkpoint::global_handle();
        global
            .as_ref()
            .map(|c| (c.resumable() as u64, c.quarantined()))
            .unwrap_or((0, 0))
    };
    // Metrics aggregates append strictly after the pre-existing fields:
    // CI's campaign-smoke job greps this line for ` failed=0 `, ` drift=0 `
    // and ` replayed=N`.
    eprintln!(
        "campaign summary: requests={requested} unique={unique} simulated={simulated} \
         replayed={replayed} failed={failed} drift={drift} \
         ckpt_recovered={ckpt_recovered} ckpt_quarantined={ckpt_quarantined} wall={wall:.1}s{}",
        metrics::summary_suffix()
    );
    if scale::knobs().metrics {
        let prom_path = metrics::default_prom_path();
        match metrics::write_prom(&prom_path) {
            Ok(()) => eprintln!("metrics: wrote {}", prom_path.display()),
            Err(e) => eprintln!("metrics: cannot write {}: {e}", prom_path.display()),
        }
    }
}
