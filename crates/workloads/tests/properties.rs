//! Property-based tests for the workload generator and walker.

use proptest::prelude::*;

use emissary_workloads::builder::{build_program, ProgramShape, LAYOUT_GRANULE};
use emissary_workloads::program::Terminator;
use emissary_workloads::walker::Walker;

fn shape_strategy() -> impl Strategy<Value = ProgramShape> {
    (
        16u32..128,  // code_kb
        1u32..12,    // num_services
        0.0f64..2.0, // service_skew
        0.0f64..1.0, // service_rotation
        1u32..4,     // service_repeat
        0.0f64..0.3, // hard_branch_frac
        1u64..1000,  // seed
    )
        .prop_map(
            |(code_kb, num_services, skew, rotation, repeat, hard, seed)| ProgramShape {
                code_kb,
                num_services,
                service_skew: skew,
                service_rotation: rotation,
                service_repeat: repeat,
                hard_branch_frac: hard,
                seed,
                ..ProgramShape::tiny()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated program is structurally valid, fully packed, and
    /// lays out block `id + 1` right after every conditional branch and
    /// fall-through `id`.
    #[test]
    fn generated_programs_are_valid(shape in shape_strategy()) {
        let p = build_program(&shape);
        prop_assert_eq!(p.validate(), Ok(()));
        // No overlapping blocks: starts unique and spans disjoint.
        let mut spans: Vec<(u64, u64)> = p.blocks.iter().map(|b| (b.start(), b.end())).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping blocks");
        }
        // Every block's templates sit at its range of the one array, and
        // the start index finds every block and nothing between starts.
        let mut next = 0;
        for b in &p.blocks {
            prop_assert_eq!(b.first, next);
            next += b.len;
            prop_assert_eq!(p.block_at(b.start()), Some(b));
            prop_assert!(p.block_at(b.start() + 4).is_none_or(|f| f.start() == b.start() + 4));
            prop_assert!(p.block_at(b.start() + 2).is_none());
        }
        prop_assert_eq!(next as usize, p.codes.len());
        for (id, b) in p.blocks.iter().enumerate() {
            match b.terminator {
                Terminator::Cond { .. } | Terminator::FallThrough => {
                    prop_assert_eq!(p.blocks[id + 1].start(), b.end());
                }
                Terminator::Call { .. } => prop_assert!(id + 1 < p.blocks.len()),
                _ => {}
            }
        }
        let _ = LAYOUT_GRANULE;
    }

    /// The walker runs without panicking, keeps call depth bounded, and
    /// successor ground truth always names the next emitted block.
    #[test]
    fn walker_ground_truth_consistent(shape in shape_strategy(), steps in 50usize..500) {
        let p = build_program(&shape);
        let mut w = Walker::new(&p, shape.seed);
        let mut buf = Vec::new();
        let mut expected_next = None;
        for _ in 0..steps {
            buf.clear();
            let b = w.emit_block(&mut buf);
            prop_assert_eq!(buf.len() as u32, b.num_instrs);
            if let Some(next) = expected_next {
                prop_assert_eq!(b.start, next);
            }
            if b.taken {
                prop_assert_eq!(b.taken_target, b.next_start);
            } else {
                // Not-taken: successor is the physical fall-through.
                let last_pc = buf.last().unwrap().pc;
                prop_assert_eq!(b.next_start, last_pc + 4);
            }
            expected_next = Some(b.next_start);
        }
        prop_assert_eq!(w.blocks_executed(), steps as u64);
    }

    /// Walkers with the same seed produce identical streams; different
    /// seeds diverge somewhere within a few hundred blocks (for programs
    /// with any randomness).
    #[test]
    fn walker_determinism(shape in shape_strategy()) {
        let p = build_program(&shape);
        let mut a = Walker::new(&p, shape.seed);
        let mut b = Walker::new(&p, shape.seed);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            ba.clear();
            bb.clear();
            let da = a.emit_block(&mut ba);
            let db = b.emit_block(&mut bb);
            prop_assert_eq!(da, db);
            prop_assert_eq!(&ba, &bb);
        }
    }

    /// Instruction PCs of an emitted block are contiguous 4-byte slots
    /// starting at the block start.
    #[test]
    fn emitted_pcs_contiguous(shape in shape_strategy()) {
        let p = build_program(&shape);
        let mut w = Walker::new(&p, 3);
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            for (i, di) in buf.iter().enumerate() {
                prop_assert_eq!(di.pc, b.start + 4 * i as u64);
            }
        }
    }
}
