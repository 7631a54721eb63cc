//! Architectural walker: executes a [`Program`], producing the
//! committed-path dynamic instruction stream the simulator consumes.

use crate::behavior::StreamCursor;
use crate::program::{BlockId, InstrKind, Program, TermClass, Terminator, INSTR_BYTES};
use crate::rng::Rng;

/// Maximum call-stack depth the walker tracks; deeper calls drop the oldest
/// frame (matching the generated programs, which never exceed depth 2).
const MAX_CALL_DEPTH: usize = 64;

/// A resolved dynamic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynOp {
    /// Computation.
    Alu,
    /// Load from a byte address.
    Load(u64),
    /// Store to a byte address.
    Store(u64),
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInstr {
    /// Byte address.
    pub pc: u64,
    /// Resolved operation.
    pub op: DynOp,
    /// Dynamic distance to the first producer (0 = none).
    pub dep1: u8,
    /// Dynamic distance to the second producer (0 = none).
    pub dep2: u8,
    /// Whether this is the block's terminating control instruction.
    pub is_terminator: bool,
}

/// Ground truth for one executed basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynBlock {
    /// Static block id.
    pub id: BlockId,
    /// Starting byte address.
    pub start: u64,
    /// Number of instructions emitted.
    pub num_instrs: u32,
    /// Terminator class.
    pub class: TermClass,
    /// Whether the terminator was taken.
    pub taken: bool,
    /// Actual transfer target when taken (callee entry, return address…).
    pub taken_target: u64,
    /// Start address of the actual successor block.
    pub next_start: u64,
}

/// The committed-path executor. See module docs.
#[derive(Debug)]
pub struct Walker<'p> {
    program: &'p Program,
    rng: Rng,
    current: BlockId,
    /// Loop counters, one per [`Program::loop_sites`] backedge.
    loop_counters: Vec<u32>,
    /// Rotation cursors for round-robin dispatch, one per
    /// [`Program::indirect`] site.
    rotations: Vec<u32>,
    /// Per-stream cursors.
    cursors: Vec<StreamCursor>,
    call_stack: Vec<BlockId>,
    blocks_executed: u64,
    instrs_executed: u64,
}

impl<'p> Walker<'p> {
    /// Creates a walker at the program entry.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        Self {
            program,
            rng: Rng::new(seed ^ 0x3A1C),
            current: program.entry,
            loop_counters: vec![0; program.loop_sites as usize],
            rotations: vec![0; program.indirect.len()],
            cursors: vec![StreamCursor::default(); program.streams.len()],
            call_stack: Vec::with_capacity(MAX_CALL_DEPTH),
            blocks_executed: 0,
            instrs_executed: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Dynamic blocks executed so far.
    pub fn blocks_executed(&self) -> u64 {
        self.blocks_executed
    }

    /// Dynamic instructions executed so far.
    pub fn instrs_executed(&self) -> u64 {
        self.instrs_executed
    }

    /// Executes the current block: appends its dynamic instructions to
    /// `out` (which is *not* cleared) and returns the block's ground truth,
    /// advancing to the successor.
    pub fn emit_block(&mut self, out: &mut Vec<DynInstr>) -> DynBlock {
        let id = self.current;
        let block = self.program.block(id);
        let start = block.start();
        let n = block.len as usize;
        for (i, t) in self.program.templates(block).enumerate() {
            let op = match t.kind {
                InstrKind::Alu => DynOp::Alu,
                InstrKind::Load(s) => DynOp::Load(
                    self.program.streams[s as usize]
                        .next_addr(&mut self.cursors[s as usize], &mut self.rng),
                ),
                InstrKind::Store(s) => DynOp::Store(
                    self.program.streams[s as usize]
                        .next_addr(&mut self.cursors[s as usize], &mut self.rng),
                ),
            };
            out.push(DynInstr {
                pc: start + INSTR_BYTES * i as u64,
                op,
                dep1: t.dep1,
                dep2: t.dep2,
                is_terminator: i == n - 1,
            });
        }
        let (taken, taken_target, next) = self.resolve_terminator(id);
        let next_start = self.program.block(next).start();
        let dyn_block = DynBlock {
            id,
            start,
            num_instrs: n as u32,
            class: block.terminator.class(),
            taken,
            taken_target,
            next_start,
        };
        self.current = next;
        self.blocks_executed += 1;
        self.instrs_executed += n as u64;
        dyn_block
    }

    /// Resolves the terminator of `id`: `(taken, taken_target, successor)`.
    /// The successor a terminator implies is block `id + 1`.
    fn resolve_terminator(&mut self, id: BlockId) -> (bool, u64, BlockId) {
        let program = self.program;
        let next = id + 1;
        match program.block(id).terminator {
            Terminator::Cond { target, behavior } => {
                let taken = program.behaviors[behavior as usize]
                    .next_outcome(&mut self.loop_counters, &mut self.rng);
                let successor = if taken { target } else { next };
                (taken, program.block(target).start(), successor)
            }
            Terminator::Jump { target } => (true, program.block(target).start(), target),
            Terminator::Call { callee } => {
                self.push_frame(next);
                (true, program.block(callee).start(), callee)
            }
            Terminator::IndirectCall { site, ret_to } => {
                let table = &program.indirect[site as usize];
                let targets = &table.targets;
                let pick = if self.rng.chance(table.rr_frac) {
                    let cursor = &mut self.rotations[site as usize];
                    let pick = *cursor as usize % targets.len();
                    *cursor = cursor.wrapping_add(1);
                    pick
                } else {
                    self.rng.zipf(targets.len(), table.skew)
                };
                let callee = targets[pick];
                self.push_frame(ret_to);
                (true, program.block(callee).start(), callee)
            }
            Terminator::Return => {
                let ret = self.call_stack.pop().unwrap_or(program.entry);
                (true, program.block(ret).start(), ret)
            }
            Terminator::FallThrough => (false, program.block(next).start(), next),
        }
    }

    fn push_frame(&mut self, ret_to: BlockId) {
        if self.call_stack.len() >= MAX_CALL_DEPTH {
            self.call_stack.remove(0);
        }
        self.call_stack.push(ret_to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_program, ProgramShape};

    #[test]
    fn emits_matching_instruction_counts() {
        let p = build_program(&ProgramShape::tiny());
        let mut w = Walker::new(&p, 1);
        let mut buf = Vec::new();
        for _ in 0..100 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            assert_eq!(buf.len(), b.num_instrs as usize);
            assert!(buf.last().unwrap().is_terminator);
            assert_eq!(buf[0].pc, b.start);
        }
        assert_eq!(w.blocks_executed(), 100);
    }

    #[test]
    fn successor_matches_ground_truth() {
        let p = build_program(&ProgramShape::tiny());
        let mut w = Walker::new(&p, 1);
        let mut buf = Vec::new();
        let mut prev_next = None;
        for _ in 0..500 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            if let Some(expect) = prev_next {
                assert_eq!(b.start, expect, "walker jumped to unexpected block");
            }
            if b.taken {
                assert_eq!(b.taken_target, b.next_start);
            }
            prev_next = Some(b.next_start);
        }
    }

    #[test]
    fn deterministic_across_walkers() {
        let p = build_program(&ProgramShape::tiny());
        let mut a = Walker::new(&p, 7);
        let mut b = Walker::new(&p, 7);
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            ba.clear();
            bb.clear();
            assert_eq!(a.emit_block(&mut ba), b.emit_block(&mut bb));
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let p = build_program(&ProgramShape::tiny());
        let mut w = Walker::new(&p, 3);
        let mut buf = Vec::new();
        let mut depth: i64 = 0;
        let mut max_depth = 0;
        for _ in 0..5000 {
            buf.clear();
            let b = w.emit_block(&mut buf);
            match b.class {
                TermClass::Call | TermClass::IndirectCall => depth += 1,
                TermClass::Return => depth -= 1,
                _ => {}
            }
            max_depth = max_depth.max(depth);
            assert!(depth >= 0, "return without call");
        }
        assert!(max_depth >= 1, "program never called anything");
        assert!(max_depth <= 8, "call depth ran away: {max_depth}");
    }

    #[test]
    fn visits_multiple_services() {
        let shape = ProgramShape::tiny();
        let p = build_program(&shape);
        let mut w = Walker::new(&p, 5);
        let mut buf = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            buf.clear();
            seen.insert(w.emit_block(&mut buf).id);
        }
        // Should cover a healthy fraction of static blocks.
        assert!(
            seen.len() * 2 > p.blocks.len(),
            "visited {}/{}",
            seen.len(),
            p.blocks.len()
        );
    }

    #[test]
    fn loads_resolve_to_configured_regions() {
        let p = build_program(&ProgramShape::tiny());
        let mut w = Walker::new(&p, 9);
        let mut buf = Vec::new();
        let mut loads = 0;
        for _ in 0..2000 {
            buf.clear();
            w.emit_block(&mut buf);
            for i in &buf {
                if let DynOp::Load(a) | DynOp::Store(a) = i.op {
                    loads += 1;
                    assert!(a >= crate::builder::HOT_BASE, "data addr in code region");
                }
            }
        }
        assert!(loads > 500, "too few memory ops: {loads}");
    }
}
