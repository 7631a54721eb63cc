//! Property tests for the workload generator and walker: each runs a
//! fixed number of cases drawn from a fixed-seed xorshift64*.

use emissary_workloads::builder::{build_program, ProgramShape};
use emissary_workloads::program::Terminator;
use emissary_workloads::rng::Rng;
use emissary_workloads::walker::Walker;

const CASES: u32 = 48;

/// A tiny program shape with its knobs drawn from their ranges.
fn draw_shape(rng: &mut Rng) -> ProgramShape {
    ProgramShape {
        code_kb: 16 + rng.below(112) as u32,
        num_services: 1 + rng.below(11) as u32,
        service_skew: rng.f64() * 2.0,
        service_rotation: rng.f64(),
        service_repeat: 1 + rng.below(3) as u32,
        hard_branch_frac: rng.f64() * 0.3,
        seed: 1 + rng.below(999),
        ..ProgramShape::tiny()
    }
}

/// Every generated program is structurally valid, fully packed, and
/// lays out block `id + 1` right after every conditional branch and
/// fall-through `id`.
#[test]
fn generated_programs_are_valid() {
    let mut rng = Rng::new(1);
    for case in 0..CASES {
        let p = build_program(&draw_shape(&mut rng));
        assert_eq!(p.validate(), Ok(()), "case {case}");
        // No overlapping blocks: starts unique and spans disjoint.
        let mut spans: Vec<(u64, u64)> = p.blocks.iter().map(|b| (b.start(), b.end())).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "case {case}: overlapping blocks");
        }
        // Every block's templates sit at its range of the one array, and
        // the start index finds every block and nothing between starts.
        let mut next = 0;
        for b in &p.blocks {
            assert_eq!(b.first, next, "case {case}");
            next += b.len;
            assert_eq!(p.block_at(b.start()), Some(b), "case {case}");
            assert!(
                p.block_at(b.start() + 4)
                    .is_none_or(|f| f.start() == b.start() + 4),
                "case {case}"
            );
            assert!(p.block_at(b.start() + 2).is_none(), "case {case}");
        }
        assert_eq!(next as usize, p.codes.len(), "case {case}");
        for (id, b) in p.blocks.iter().enumerate() {
            match b.terminator {
                Terminator::Cond { .. } | Terminator::FallThrough => {
                    assert_eq!(p.blocks[id + 1].start(), b.end(), "case {case}: block {id}");
                }
                Terminator::Call { .. } => assert!(id + 1 < p.blocks.len(), "case {case}"),
                _ => {}
            }
        }
    }
}

/// The walker runs without panicking, keeps call depth bounded, and
/// successor ground truth always names the next emitted block.
#[test]
fn walker_ground_truth_consistent() {
    let mut rng = Rng::new(2);
    for case in 0..CASES {
        let shape = draw_shape(&mut rng);
        let steps = 50 + rng.below(450);
        let p = build_program(&shape);
        let mut w = Walker::new(&p, shape.seed);
        let mut buf = Vec::new();
        let mut expected_next = None;
        for _ in 0..steps {
            buf.clear();
            let b = w.emit_block(&mut buf);
            assert_eq!(buf.len() as u32, b.num_instrs, "case {case}");
            if let Some(next) = expected_next {
                assert_eq!(b.start, next, "case {case}");
            }
            if b.taken {
                assert_eq!(b.taken_target, b.next_start, "case {case}");
            } else {
                // Not-taken: successor is the physical fall-through.
                let last_pc = buf.last().unwrap().pc;
                assert_eq!(b.next_start, last_pc + 4, "case {case}");
            }
            expected_next = Some(b.next_start);
        }
        assert_eq!(w.blocks_executed(), steps, "case {case}");
    }
}

/// Walkers with the same seed produce identical streams; different
/// seeds diverge somewhere within a few hundred blocks (for programs
/// with any randomness).
#[test]
fn walker_determinism() {
    let mut rng = Rng::new(3);
    for case in 0..CASES {
        let shape = draw_shape(&mut rng);
        let p = build_program(&shape);
        let mut a = Walker::new(&p, shape.seed);
        let mut b = Walker::new(&p, shape.seed);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            ba.clear();
            bb.clear();
            let da = a.emit_block(&mut ba);
            let db = b.emit_block(&mut bb);
            assert_eq!(da, db, "case {case}");
            assert_eq!(&ba, &bb, "case {case}");
        }
    }
}

/// Instruction PCs of an emitted block are contiguous 4-byte slots
/// starting at the block start.
#[test]
fn emitted_pcs_contiguous() {
    let mut rng = Rng::new(4);
    for case in 0..CASES {
        let p = build_program(&draw_shape(&mut rng));
        let mut w = Walker::new(&p, 3);
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            for (i, di) in buf.iter().enumerate() {
                assert_eq!(di.pc, b.start + 4 * i as u64, "case {case}");
            }
        }
    }
}
