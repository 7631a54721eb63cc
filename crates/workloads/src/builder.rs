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
//!
//! The builder writes the packed [`Program`] layout directly. Each
//! template it draws is interned into the program's palette on the spot,
//! through a table indexed by the draw itself (operation, stream and the
//! two dependency distances), and only its 2-byte code is stored. Each
//! branch behavior is interned into [`Program::behaviors`]: every loop
//! backedge gets its own entry (it owns a counter), while the biased
//! branches share one entry per distinct probability. A block's not-taken,
//! fall-through or return successor is the next block id, which the
//! generator always lays out next, and the layout shuffle keeps that
//! adjacency wherever a block falls through.

use crate::behavior::{BranchBehavior, DataStream};
use crate::program::{
    BasicBlock, IndirectSite, InstrKind, InstrTemplate, Program, Terminator, CODE_BASE, INSTR_BYTES,
};
use crate::rng::Rng;

/// Bound (exclusive) on the dependency distances the builder draws, which
/// sizes [`Palette`]'s lookup table.
const DEP_LIMIT: usize = 16;

/// The palette under construction: the distinct templates in first-drawn
/// order, and the code of each possible draw.
struct Palette {
    templates: Vec<InstrTemplate>,
    /// Code per (operation, stream, dep1, dep2), `u16::MAX` while unseen;
    /// the operations are ALU (stream 0), load and store, over the
    /// builder's three streams.
    codes: [[[[u16; DEP_LIMIT]; DEP_LIMIT]; 3]; 3],
}

impl Palette {
    fn new() -> Self {
        Self {
            templates: Vec::new(),
            codes: [[[[u16::MAX; DEP_LIMIT]; DEP_LIMIT]; 3]; 3],
        }
    }

    /// The code of `t`, added to the palette on first sight.
    fn intern(&mut self, t: InstrTemplate) -> u16 {
        let (op, stream) = match t.kind {
            InstrKind::Alu => (0, 0),
            InstrKind::Load(s) => (1, s),
            InstrKind::Store(s) => (2, s),
        };
        let slot =
            &mut self.codes[op][usize::from(stream)][usize::from(t.dep1)][usize::from(t.dep2)];
        if *slot == u16::MAX {
            *slot = self.templates.len() as u16;
            self.templates.push(t);
        }
        *slot
    }
}

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
    let mut codes: Vec<u16> = Vec::with_capacity(n_blocks as usize * (avg as usize + 1));
    let mut palette = Palette::new();
    let mut behaviors = Vec::new();
    let mut loop_sites = 0u32;
    // Each loop backedge gets its own behavior and counter slot.
    let mut loop_behavior = |behaviors: &mut Vec<BranchBehavior>, trip: u32| {
        loop_sites += 1;
        behaviors.push(BranchBehavior::Loop {
            trip,
            site: loop_sites - 1,
        });
        behaviors.len() as u32 - 1
    };
    // Biased branches share one behavior per distinct probability.
    let mut biases: Vec<(u64, u32)> = Vec::with_capacity(3);
    let mut biased_behavior = |behaviors: &mut Vec<BranchBehavior>, taken_prob: f64| {
        let bits = taken_prob.to_bits();
        if let Some(&(_, index)) = biases.iter().find(|&&(b, _)| b == bits) {
            return index;
        }
        behaviors.push(BranchBehavior::Biased { taken_prob });
        biases.push((bits, behaviors.len() as u32 - 1));
        behaviors.len() as u32 - 1
    };
    let mut addr = CODE_BASE;
    // Appends one block: its templates' codes go straight onto `codes`.
    let mut push_block = |term: Terminator, rng: &mut Rng| {
        let span = 7.min(avg as i64 - 3).max(1) as u64;
        let len = (avg as i64 - 3 + rng.below(2 * span + 1) as i64).clamp(3, 16) as usize;
        let first = codes.len() as u32;
        codes.extend((0..len).map(|slot| {
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
            palette.intern(InstrTemplate {
                kind,
                dep1: 1 + rng.below(5) as u8,
                dep2: if rng.chance(0.3) {
                    2 + rng.below(8) as u8
                } else {
                    0
                },
            })
        }));
        blocks.push(BasicBlock::new(addr, first, len as u32, term));
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
                behavior: loop_behavior(&mut behaviors, 2),
            }
        } else {
            Terminator::FallThrough
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
                    behavior: loop_behavior(&mut behaviors, 2 + rng.below(3) as u32),
                }
            } else {
                Terminator::FallThrough
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
            let term = if j == service_blocks - 1 {
                Terminator::Return
            } else if Some(j) == outer_loop_j && shape.service_repeat > 1 {
                Terminator::Cond {
                    target: base,
                    behavior: loop_behavior(&mut behaviors, shape.service_repeat),
                }
            } else if id % LAYOUT_GRANULE == LAYOUT_GRANULE - 1 {
                // Granule-ending blocks may not rely on physical adjacency
                // (the layout shuffle below separates granules): chain with
                // an explicit jump or a helper call.
                if rng.chance(shape.call_frac) && helpers > 0 {
                    Terminator::Call {
                        callee: helper_entry(rng.below(u64::from(helpers)) as u32),
                    }
                } else {
                    Terminator::Jump { target: id + 1 }
                }
            } else {
                let roll = rng.f64();
                if roll < shape.loop_frac && j >= 1 {
                    Terminator::Cond {
                        target: id - 1,
                        behavior: loop_behavior(&mut behaviors, shape.loop_trip.max(2)),
                    }
                } else if roll < shape.loop_frac + shape.call_frac && helpers > 0 {
                    Terminator::Call {
                        callee: helper_entry(rng.below(u64::from(helpers)) as u32),
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
                        behavior: biased_behavior(&mut behaviors, taken_prob),
                    }
                } else {
                    Terminator::FallThrough
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

    codes.shrink_to_fit();
    behaviors.shrink_to_fit();
    let program = Program::new(
        blocks,
        codes,
        palette.templates,
        behaviors,
        streams,
        indirect,
        loop_sites,
    );
    debug_assert_eq!(program.validate(), Ok(()));
    program
}

/// Number of consecutive blocks kept physically adjacent by the layout
/// shuffle (intra-function spatial locality).
pub const LAYOUT_GRANULE: u32 = 4;

/// Shuffles block addresses granule-wise and converts non-adjacent
/// fall-throughs into jumps. Block ids (and therefore all CFG edges) are
/// unchanged; only start addresses move.
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
            b.set_start(addr);
            addr = b.end();
        }
    }
    // A fall-through whose successor moved away becomes a jump to it.
    for i in 1..blocks.len() {
        let (prev, next) = (&blocks[i - 1], &blocks[i]);
        if prev.terminator == Terminator::FallThrough && prev.end() != next.start() {
            blocks[i - 1].terminator = Terminator::Jump { target: i as u32 };
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
        assert_eq!(p.blocks[0].start(), CODE_BASE);
        // Within each granule, blocks are physically contiguous.
        let g = LAYOUT_GRANULE as usize;
        for chunk in p.blocks.chunks(g) {
            for w in chunk.windows(2) {
                assert_eq!(w[0].end(), w[1].start(), "granule blocks contiguous");
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
        assert_eq!(next as usize, p.codes.len());
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
            .filter(|b| match b.terminator {
                Terminator::Cond { behavior, .. } => {
                    matches!(p.behaviors[behavior as usize], BranchBehavior::Loop { .. })
                }
                _ => false,
            })
            .count();
        assert!(loops > 0);
        assert_eq!(loops, p.loop_sites as usize);
        assert!(p.loop_sites as usize * 4 < p.blocks.len());
        // Every loop behavior is its own; the biased ones are shared, one
        // per distinct probability.
        let mut biased: Vec<f64> = p
            .behaviors
            .iter()
            .filter_map(|b| match *b {
                BranchBehavior::Biased { taken_prob } => Some(taken_prob),
                BranchBehavior::Loop { .. } => None,
            })
            .collect();
        assert_eq!(p.behaviors.len(), loops + biased.len());
        biased.sort_by(f64::total_cmp);
        assert_eq!(biased, [0.03, 0.5, 0.97]);
    }

    #[test]
    fn palette_holds_each_distinct_template_once() {
        let p = build_program(&ProgramShape::tiny());
        for (i, t) in p.palette.iter().enumerate() {
            assert!(!p.palette[..i].contains(t), "template {i} repeated");
        }
        let mut used = vec![false; p.palette.len()];
        for &code in &p.codes {
            used[usize::from(code)] = true;
        }
        assert!(used.iter().all(|&u| u), "every palette entry is drawn");
        // 7 operation-stream pairs x 5 first x 9 second distances at most.
        assert!(p.palette.len() <= 315, "{}", p.palette.len());
    }

    #[test]
    fn shuffle_preserves_conditional_adjacency() {
        for seed in 1..6u64 {
            let p = build_program(&ProgramShape {
                seed,
                code_kb: 64,
                ..ProgramShape::tiny()
            });
            for (id, b) in p.blocks.iter().enumerate() {
                if let Terminator::Cond { .. } | Terminator::FallThrough = b.terminator {
                    assert_eq!(
                        p.blocks[id + 1].start(),
                        b.end(),
                        "fall-through adjacency (seed {seed})"
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
            if p.blocks[i + g].start() == p.blocks[i + g - 1].end() {
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
