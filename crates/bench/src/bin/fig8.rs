//! Regenerates the paper's Figure 8 and the §6 reset study (DESIGN.md §4).
//!
//! Pass `--reset` to additionally measure the §6 periodic P-bit reset.

fn main() {
    let with_reset = std::env::args().any(|a| a == "--reset");
    let cfg = emissary_bench::base_config();
    eprintln!(
        "running with warmup={} measure={} threads={} reset={}",
        cfg.warmup_instrs,
        cfg.measure_instrs,
        emissary_bench::scale::knobs().threads,
        with_reset
    );
    emissary_bench::checkpoint::begin("fig8");
    let exp = emissary_bench::experiments::fig8(&cfg, with_reset);
    emissary_bench::results::emit("fig8", &exp);
}
