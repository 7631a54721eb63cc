//! Regenerates the paper's Figure 4 (see DESIGN.md §4).
//!
//! Run length scales via `EMISSARY_MEASURE_INSNS` / `EMISSARY_WARMUP_INSNS`.

fn main() {
    let cfg = emissary_bench::base_config();
    eprintln!(
        "running with warmup={} measure={} threads={}",
        cfg.warmup_instrs,
        cfg.measure_instrs,
        emissary_bench::scale::knobs().threads
    );
    emissary_bench::checkpoint::begin("fig4");
    let exp = emissary_bench::experiments::fig4(&cfg);
    emissary_bench::results::emit("fig4", &exp);
}
