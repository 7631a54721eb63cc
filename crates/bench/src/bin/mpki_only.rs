//! Fast cache-only policy comparison (classic trace-driven methodology).
//!
//! Replays the committed-path line stream straight into the memory
//! hierarchy — no cycle-level core — and reports L2 instruction/data MPKI
//! per policy. Roughly an order of magnitude faster than the timing model;
//! useful for quick policy iteration, though it cannot measure *speedup*
//! (that needs the decode-starvation feedback loop, which is the paper's
//! whole point). Priority marks are approximated by flagging L2
//! instruction misses through the policy's selection equation.
//!
//! ```sh
//! cargo run --release -p emissary-bench --bin mpki_only [-- <benchmark>]
//! ```

use emissary_bench::experiments::Experiment;
use emissary_cache::addr::line_of;
use emissary_cache::hierarchy::{Hierarchy, ServedBy};
use emissary_cache::rng::XorShift64;
use emissary_core::selection::MissFlags;
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_stats::summary::mpki;
use emissary_stats::table::{fixed, Table};
use emissary_workloads::walker::{DynOp, Walker};
use emissary_workloads::Profile;

fn main() {
    let bench = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "verilator".into());
    let profile = Profile::by_name(&bench).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench:?}");
        std::process::exit(2);
    });
    let instrs = emissary_bench::scale::knobs().measure_instrs;
    eprintln!("mpki-only replay: {bench}, {instrs} instructions per policy");

    let cfg = SimConfig::default();
    let mut t = Table::with_headers(&["policy", "l2i_mpki", "l2d_mpki", "l3_mpki", "protected"]);
    for policy in [
        "M:1",
        "M:0",
        "SRRIP",
        "DRRIP",
        "PDP",
        "DCLIP",
        "GHRP",
        "LIN",
        "LACS",
        "P(8):S&E",
        "P(8):S&E&R(1/32)",
    ] {
        let spec: PolicySpec = policy.parse().expect("notation");
        let l2_policy =
            spec.build_l2_policy(cfg.hierarchy.l2.sets(), cfg.hierarchy.l2.ways, cfg.seed);
        let mut h = Hierarchy::with_l2_policy(cfg.hierarchy.clone(), l2_policy);
        let selection = spec.selection();
        let mark = spec.is_emissary();
        let mut rng = XorShift64::new(cfg.seed ^ 0xF1F1);
        let program = profile.build();
        let mut walker = Walker::new(&program, profile.seed);
        let mut buf = Vec::new();
        let mut now = 0u64;
        let mut committed = 0u64;
        while committed < instrs {
            buf.clear();
            let block = walker.emit_block(&mut buf);
            committed += u64::from(block.num_instrs);
            now += 2 + u64::from(block.num_instrs) / 4;
            // Instruction lines of the block.
            let first = block.start >> 6;
            let last = (block.start + 4 * u64::from(block.num_instrs) - 1) >> 6;
            for line in first..=last {
                let m = h.access_instr(line, now, false);
                if m.needs_resolution {
                    // Without the core there is no starvation signal; treat
                    // every L2 instruction miss as "starving" so the
                    // selection equation's S&E gates collapse to R-only —
                    // an upper bound on marking.
                    let flags = MissFlags {
                        starved_decode: matches!(m.source, ServedBy::L3 | ServedBy::Memory),
                        empty_issue_queue: matches!(m.source, ServedBy::L3 | ServedBy::Memory),
                    };
                    let high = selection
                        .map(|s| s.evaluate(flags, &mut rng))
                        .unwrap_or(false);
                    h.resolve_instr_fill(line, high);
                    if mark && high {
                        h.mark_instr_priority(line);
                    }
                }
            }
            // Data accesses.
            for i in &buf {
                match i.op {
                    DynOp::Load(a) => {
                        h.access_data(line_of(a), now, false, false);
                    }
                    DynOp::Store(a) => {
                        h.access_data(line_of(a), now, true, false);
                    }
                    DynOp::Alu => {}
                }
            }
        }
        let l2 = h.l2.stats();
        let l3 = h.l3.stats();
        let protected: u32 = h.l2.priority_counts_per_set().iter().sum();
        t.row(vec![
            policy.to_string(),
            fixed(mpki(l2.instr_stream_misses(), committed), 2),
            fixed(mpki(l2.data_misses, committed), 2),
            fixed(mpki(l3.demand_misses(), committed), 2),
            protected.to_string(),
        ]);
    }
    let exp = Experiment::new(
        format!("MPKI-only policy replay — {bench}"),
        vec![(format!("{bench} ({instrs} instructions per policy)"), t)],
    );
    emissary_bench::results::emit("mpki_only", &exp);
}
