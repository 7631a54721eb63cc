//! Program generation: dispatcher + services + helpers.
//!
//! Generated programs mimic request-driven servers (§5.3's workload class):
//!
//! * a small, hot **dispatcher** loop (short-reuse lines, L1I-resident);
//! * `num_services` **service routines**, selected per request through an
//!   indirect call with Zipf-skewed popularity — each routine is a long
//!   chain of blocks, so a routine's lines recur only when its request type
//!   recurs (long-reuse lines, the ones that miss in L2 and starve decode);
//! * shared **helper** functions called from service bodies (mid-reuse).
//!
//! Conditional branches mix predictable forward skips, loop backedges, and
//! a configurable fraction of ~50/50 "hard" branches that defeat TAGE and
//! periodically reset FDIP's run-ahead (where starvation concentrates, §3).

use crate::behavior::{BranchBehavior, DataStream};
use crate::program::{
    BasicBlock, IndirectSite, InstrKind, InstrTemplate, Program, Terminator, CODE_BASE, INSTR_BYTES,
};
use crate::rng::Rng;

/// Base byte address of the hot data region.
pub const HOT_BASE: u64 = 0x1000_0000;
/// Base byte address of the L2-warm data region.
pub const WARM_BASE: u64 = 0x2000_0000;
/// Base byte address of the streaming data region.
pub const STREAM_BASE: u64 = 0x3000_0000;

/// Structural knobs for program generation (derived from a
/// [`crate::profiles::Profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramShape {
    /// Total code footprint in KiB (Figure 4 knob).
    pub code_kb: u32,
    /// Number of distinct service routines (request types).
    pub num_services: u32,
    /// Zipf skew of request popularity (0 = uniform).
    pub service_skew: f64,
    /// Fraction of dispatches that take the *next service in rotation*
    /// rather than a random one (cyclic code reuse; see program docs).
    pub service_rotation: f64,
    /// How many times a request executes its service body (an outer loop
    /// around the routine): > 1 adds intra-request code reuse, lowering
    /// instruction MPKI toward server-workload levels.
    pub service_repeat: u32,
    /// Blocks in the dispatcher loop.
    pub dispatcher_blocks: u32,
    /// Number of shared helper functions.
    pub helper_funcs: u32,
    /// Blocks per helper function.
    pub helper_blocks: u32,
    /// Average instructions per block (4..=16).
    pub avg_block_instrs: u32,
    /// Probability a service block ends in a conditional branch.
    pub cond_frac: f64,
    /// Fraction of conditional branches that are ~50/50 hard.
    pub hard_branch_frac: f64,
    /// Probability a service block starts a short loop backedge.
    pub loop_frac: f64,
    /// Trip count of those loops.
    pub loop_trip: u32,
    /// Probability a service block calls a helper.
    pub call_frac: f64,
    /// Per-instruction load probability.
    pub load_frac: f64,
    /// Per-instruction store probability.
    pub store_frac: f64,
    /// Hot data region size (KiB) — L1D-resident.
    pub hot_kb: u32,
    /// Warm data region size (KiB) — L2-contending.
    pub warm_kb: u32,
    /// Streaming data region size (KiB) — DRAM-bound.
    pub stream_kb: u32,
    /// Relative weight of hot / warm / stream for each memory op.
    pub data_weights: (f64, f64, f64),
    /// Generation seed.
    pub seed: u64,
}

impl ProgramShape {
    /// A small, fast-to-simulate shape for tests.
    pub fn tiny() -> Self {
        Self {
            code_kb: 16,
            num_services: 4,
            service_skew: 0.5,
            service_rotation: 0.5,
            service_repeat: 2,
            dispatcher_blocks: 4,
            helper_funcs: 2,
            helper_blocks: 3,
            avg_block_instrs: 8,
            cond_frac: 0.4,
            hard_branch_frac: 0.1,
            loop_frac: 0.08,
            loop_trip: 4,
            call_frac: 0.08,
            load_frac: 0.25,
            store_frac: 0.1,
            hot_kb: 8,
            warm_kb: 64,
            stream_kb: 256,
            data_weights: (0.6, 0.3, 0.1),
            seed: 1,
        }
    }
}

/// Builds a [`Program`] from the shape. Deterministic in `shape.seed`.
///
/// # Panics
///
/// Panics (debug assertions) if the generated program fails
/// [`Program::validate`]; this indicates a builder bug.
pub fn build_program(shape: &ProgramShape) -> Program {
    let mut rng = Rng::new(shape.seed ^ 0xB01D);
    let streams = vec![
        DataStream::Hot {
            base: HOT_BASE,
            bytes: u64::from(shape.hot_kb.max(1)) * 1024,
        },
        DataStream::Warm {
            base: WARM_BASE,
            bytes: u64::from(shape.warm_kb.max(1)) * 1024,
        },
        DataStream::Stream {
            base: STREAM_BASE,
            bytes: u64::from(shape.stream_kb.max(1)) * 1024,
        },
    ];

    // --- Block budget ---------------------------------------------------
    let total_instrs = u64::from(shape.code_kb) * 1024 / INSTR_BYTES;
    let avg = shape.avg_block_instrs.clamp(4, 16) as u64;
    let total_blocks = (total_instrs / avg).max(16) as u32;
    let dispatcher = shape.dispatcher_blocks.clamp(3, 16);
    let helpers = shape.helper_funcs;
    let helper_blocks = shape.helper_blocks.max(2);
    let helper_total = helpers * helper_blocks;
    let services = shape.num_services.max(1);
    let service_blocks =
        ((total_blocks.saturating_sub(dispatcher + helper_total)) / services).max(4);

    // Id layout: [0, dispatcher) dispatcher; then helpers; then services.
    let helper_base = dispatcher;
    let service_base = helper_base + helper_total;
    let helper_entry = |f: u32| helper_base + f * helper_blocks;
    let service_entry = |s: u32| service_base + s * service_blocks;
    let n_blocks = service_base + services * service_blocks;

    let mut blocks: Vec<BasicBlock> = Vec::with_capacity(n_blocks as usize);
    // Block lengths average `avg`; the slack keeps the array from doubling,
    // and the shrink below returns what is left.
    let mut instrs: Vec<InstrTemplate> = Vec::with_capacity(n_blocks as usize * (avg as usize + 1));
    let mut addr = CODE_BASE;
    let mut loop_sites = 0u32;
    let mut loop_behavior = |trip: u32| {
        loop_sites += 1;
        BranchBehavior::Loop {
            trip,
            site: loop_sites - 1,
        }
    };
    // Appends one block: its templates go straight onto `instrs`.
    let mut push_block = |term: Terminator, rng: &mut Rng| {
        let span = 7.min(avg as i64 - 3).max(1) as u64;
        let len = (avg as i64 - 3 + rng.below(2 * span + 1) as i64).clamp(3, 16) as usize;
        let first = instrs.len() as u32;
        instrs.extend((0..len).map(|slot| {
            let r = rng.f64();
            // The last slot is the block's control-transfer instruction
            // and must not be a memory op.
            let kind = if slot + 1 == len {
                InstrKind::Alu
            } else if r < shape.load_frac {
                let (wh, ww, _ws) = shape.data_weights;
                let pick = rng.f64();
                if pick < wh {
                    InstrKind::Load(0)
                } else if pick < wh + ww {
                    InstrKind::Load(1)
                } else {
                    InstrKind::Load(2)
                }
            } else if r < shape.load_frac + shape.store_frac {
                let (wh, ww, _ws) = shape.data_weights;
                let pick = rng.f64();
                if pick < wh {
                    InstrKind::Store(0)
                } else if pick < wh + ww {
                    InstrKind::Store(1)
                } else {
                    InstrKind::Store(2)
                }
            } else {
                InstrKind::Alu
            };
            InstrTemplate {
                kind,
                dep1: 1 + rng.below(5) as u8,
                dep2: if rng.chance(0.3) {
                    2 + rng.below(8) as u8
                } else {
                    0
                },
            }
        }));
        blocks.push(BasicBlock {
            start: addr,
            first,
            len: len as u32,
            terminator: term,
        });
        addr += INSTR_BYTES * len as u64;
    };
    let mut indirect = Vec::with_capacity(1);

    // --- Dispatcher -----------------------------------------------------
    // Chain 0 -> 1 -> ... with a short spin loop, ending in the indirect
    // request dispatch that returns to block 0.
    for i in 0..dispatcher {
        let term = if i == dispatcher - 1 {
            indirect.push(IndirectSite {
                targets: (0..services).map(service_entry).collect(),
                skew: shape.service_skew,
                rr_frac: shape.service_rotation,
            });
            Terminator::IndirectCall {
                site: indirect.len() as u32 - 1,
                ret_to: 0,
            }
        } else if i == dispatcher - 2 && i % LAYOUT_GRANULE != LAYOUT_GRANULE - 1 {
            Terminator::Cond {
                target: 0,
                fallthrough: i + 1,
                behavior: loop_behavior(2),
            }
        } else {
            Terminator::FallThrough { next: i + 1 }
        };
        push_block(term, &mut rng);
    }

    // --- Helpers ----------------------------------------------------------
    for f in 0..helpers {
        let base = helper_entry(f);
        for j in 0..helper_blocks {
            let id = base + j;
            let term = if j == helper_blocks - 1 {
                Terminator::Return
            } else if j == 1 && helper_blocks > 2 && id % LAYOUT_GRANULE != LAYOUT_GRANULE - 1 {
                Terminator::Cond {
                    target: base + j - 1,
                    fallthrough: base + j + 1,
                    behavior: loop_behavior(2 + rng.below(3) as u32),
                }
            } else {
                Terminator::FallThrough { next: base + j + 1 }
            };
            push_block(term, &mut rng);
        }
    }

    // --- Services ---------------------------------------------------------
    for s in 0..services {
        let base = service_entry(s);
        // Place the request's outer loop on the last alignment-eligible
        // block before the return.
        let outer_loop_j = (service_blocks.saturating_sub(4)..service_blocks - 1)
            .rev()
            .find(|j| (base + j) % LAYOUT_GRANULE != LAYOUT_GRANULE - 1);
        for j in 0..service_blocks {
            let id = base + j;
            let next = id + 1;
            let term = if j == service_blocks - 1 {
                Terminator::Return
            } else if Some(j) == outer_loop_j && shape.service_repeat > 1 {
                Terminator::Cond {
                    target: base,
                    fallthrough: next,
                    behavior: loop_behavior(shape.service_repeat),
                }
            } else if id % LAYOUT_GRANULE == LAYOUT_GRANULE - 1 {
                // Granule-ending blocks may not rely on physical adjacency
                // (the layout shuffle below separates granules): chain with
                // an explicit jump or a helper call.
                if rng.chance(shape.call_frac) && helpers > 0 {
                    Terminator::Call {
                        callee: helper_entry(rng.below(u64::from(helpers)) as u32),
                        ret_to: next,
                    }
                } else {
                    Terminator::Jump { target: next }
                }
            } else {
                let roll = rng.f64();
                if roll < shape.loop_frac && j >= 1 {
                    Terminator::Cond {
                        target: id - 1,
                        fallthrough: next,
                        behavior: loop_behavior(shape.loop_trip.max(2)),
                    }
                } else if roll < shape.loop_frac + shape.call_frac && helpers > 0 {
                    Terminator::Call {
                        callee: helper_entry(rng.below(u64::from(helpers)) as u32),
                        ret_to: next,
                    }
                } else if roll < shape.loop_frac + shape.call_frac + shape.cond_frac {
                    // Forward skip within the service.
                    let skip = 2 + rng.below(4) as u32;
                    let target = (id + skip).min(base + service_blocks - 1);
                    let taken_prob = if rng.chance(shape.hard_branch_frac) {
                        0.5
                    } else if rng.chance(0.5) {
                        0.03
                    } else {
                        0.97
                    };
                    Terminator::Cond {
                        target,
                        fallthrough: next,
                        behavior: BranchBehavior::Biased { taken_prob },
                    }
                } else {
                    Terminator::FallThrough { next }
                }
            };
            push_block(term, &mut rng);
        }
    }

    // --- Layout shuffle ---------------------------------------------------
    // Real binaries interleave functions across the address space; without
    // this, generated code would be one giant sequential scan that a
    // next-line prefetcher covers perfectly. Granules of LAYOUT_GRANULE
    // consecutive blocks keep their relative order (intra-function
    // locality); granule order is shuffled, and fall-throughs that are no
    // longer physically adjacent become explicit jumps.
    shuffle_layout(&mut blocks, &mut rng);

    instrs.shrink_to_fit();
    let program = Program::new(blocks, instrs, streams, indirect, loop_sites);
    debug_assert_eq!(program.validate(), Ok(()));
    program
}

/// Number of consecutive blocks kept physically adjacent by the layout
/// shuffle (intra-function spatial locality).
pub const LAYOUT_GRANULE: u32 = 4;

/// Shuffles block addresses granule-wise and converts non-adjacent
/// fall-throughs into jumps. Block ids (and therefore all CFG edges) are
/// unchanged; only `start` addresses move.
fn shuffle_layout(blocks: &mut [BasicBlock], rng: &mut Rng) {
    let g = LAYOUT_GRANULE as usize;
    let n_granules = blocks.len().div_ceil(g);
    // Keep granule 0 (dispatcher head) first so the entry stays hot and
    // early; Fisher-Yates over the rest.
    let mut order: Vec<usize> = (0..n_granules).collect();
    for i in (2..n_granules).rev() {
        // j uniform in [1, i]: granule 0 stays first.
        let j = 1 + rng.below(i as u64) as usize;
        order.swap(i, j);
    }
    // Reassign addresses in the shuffled granule order.
    let mut addr = CODE_BASE;
    for &gi in &order {
        for b in blocks.iter_mut().skip(gi * g).take(g) {
            b.start = addr;
            addr = b.end();
        }
    }
    // Fix up adjacency-dependent terminators.
    let ends: Vec<u64> = blocks.iter().map(|b| b.end()).collect();
    let starts: Vec<u64> = blocks.iter().map(|b| b.start).collect();
    for i in 0..blocks.len() {
        let fixup = match blocks[i].terminator {
            Terminator::FallThrough { next } if starts[next as usize] != ends[i] => {
                Some(Terminator::Jump { target: next })
            }
            _ => None,
        };
        if let Some(term) = fixup {
            blocks[i].terminator = term;
        }
        if let Terminator::Cond { fallthrough, .. } = blocks[i].terminator {
            debug_assert_eq!(
                starts[fallthrough as usize], ends[i],
                "conditional fall-through must stay physically adjacent"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_program_is_valid() {
        let p = build_program(&ProgramShape::tiny());
        assert_eq!(p.validate(), Ok(()));
        assert!(p.blocks.len() >= 16);
    }

    #[test]
    fn footprint_tracks_code_kb() {
        for kb in [16u32, 64, 256, 1024] {
            let shape = ProgramShape {
                code_kb: kb,
                num_services: 8,
                ..ProgramShape::tiny()
            };
            let p = build_program(&shape);
            let bytes = p.code_bytes();
            let target = u64::from(kb) * 1024;
            // Within 30% of the requested footprint.
            let rel_err = (bytes as f64 - target as f64).abs() / target as f64;
            assert!(rel_err < 0.3, "kb={kb}: bytes={bytes} target={target}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = build_program(&ProgramShape::tiny());
        let b = build_program(&ProgramShape::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = build_program(&ProgramShape::tiny());
        let b = build_program(&ProgramShape {
            seed: 2,
            ..ProgramShape::tiny()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn dispatcher_ends_with_indirect_dispatch() {
        let shape = ProgramShape::tiny();
        let p = build_program(&shape);
        let dispatch = &p.blocks[(shape.dispatcher_blocks.clamp(3, 16) - 1) as usize];
        match dispatch.terminator {
            Terminator::IndirectCall { site, ret_to } => {
                assert_eq!(p.indirect.len(), 1, "one dispatch site per program");
                assert_eq!(
                    p.indirect[site as usize].targets.len(),
                    shape.num_services as usize
                );
                assert_eq!(ret_to, 0);
            }
            ref other => panic!("expected indirect dispatch, got {other:?}"),
        }
    }

    #[test]
    fn layout_is_packed_granule_wise_and_entry_first() {
        let p = build_program(&ProgramShape::tiny());
        // Entry granule stays at the base address.
        assert_eq!(p.blocks[0].start, CODE_BASE);
        // Within each granule, blocks are physically contiguous.
        let g = LAYOUT_GRANULE as usize;
        for chunk in p.blocks.chunks(g) {
            for w in chunk.windows(2) {
                assert_eq!(w[0].end(), w[1].start, "granule blocks contiguous");
            }
        }
        // The address space is packed overall: total span == total bytes.
        let max_end = p.blocks.iter().map(|b| b.end()).max().unwrap();
        assert_eq!(max_end - CODE_BASE, p.code_bytes());
        // Templates tile the one array in id order, whatever the addresses.
        let mut next = 0;
        for b in &p.blocks {
            assert_eq!(b.first, next, "template ranges in id order");
            next += b.len;
        }
        assert_eq!(next as usize, p.instrs.len());
    }

    #[test]
    fn loop_sites_and_counters_are_one_per_backedge() {
        let p = build_program(&ProgramShape {
            code_kb: 64,
            ..ProgramShape::tiny()
        });
        let loops = p
            .blocks
            .iter()
            .filter(|b| {
                matches!(
                    b.terminator,
                    Terminator::Cond {
                        behavior: BranchBehavior::Loop { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(loops > 0);
        assert_eq!(loops, p.loop_sites as usize);
        assert!(p.loop_sites as usize * 4 < p.blocks.len());
    }

    #[test]
    fn shuffle_preserves_conditional_adjacency() {
        for seed in 1..6u64 {
            let p = build_program(&ProgramShape {
                seed,
                code_kb: 64,
                ..ProgramShape::tiny()
            });
            for b in &p.blocks {
                if let crate::program::Terminator::Cond { fallthrough, .. } = b.terminator {
                    assert_eq!(
                        p.blocks[fallthrough as usize].start,
                        b.end(),
                        "cond fall-through adjacency (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn shuffle_scatters_consecutive_granules() {
        let p = build_program(&ProgramShape {
            code_kb: 256,
            ..ProgramShape::tiny()
        });
        // Most id-consecutive granule pairs should not be address-adjacent.
        let g = LAYOUT_GRANULE as usize;
        let mut adjacent = 0;
        let mut total = 0;
        for i in (0..p.blocks.len().saturating_sub(2 * g)).step_by(g) {
            total += 1;
            if p.blocks[i + g].start == p.blocks[i + g - 1].end() {
                adjacent += 1;
            }
        }
        assert!(
            adjacent * 4 < total,
            "layout not shuffled: {adjacent}/{total} granule pairs adjacent"
        );
    }

    #[test]
    fn streams_cover_three_regions() {
        let p = build_program(&ProgramShape::tiny());
        assert_eq!(p.streams.len(), 3);
        let (b0, _) = p.streams[0].region();
        let (b1, _) = p.streams[1].region();
        let (b2, _) = p.streams[2].region();
        assert_eq!((b0, b1, b2), (HOT_BASE, WARM_BASE, STREAM_BASE));
    }
}
