//! Static program representation: a control-flow graph of basic blocks laid
//! out over a byte-addressed code region, with per-instruction templates.
//!
//! The layout is flat so that a program with hundreds of thousands of
//! blocks stays small and owns a handful of allocations: every template
//! lives in one [`Program::instrs`] array that each [`BasicBlock`] indexes
//! by range, the one indirect dispatch's target table sits out of line in
//! [`Program::indirect`], and a block owns no heap memory at all.

use crate::behavior::{BranchBehavior, DataStream};

/// Index of a basic block within [`Program::blocks`].
pub type BlockId = u32;

/// Byte address where generated code begins.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Instruction width in bytes (fixed, ARM-like — §5.2 uses Aarch64).
pub const INSTR_BYTES: u64 = 4;

/// Bytes per line of the start-address index (one cache line).
const INDEX_LINE_BYTES: u64 = 64;

/// Static classification of an instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    /// Integer/FP computation.
    Alu,
    /// Load from the given data stream (index into [`Program::streams`]).
    Load(u8),
    /// Store to the given data stream.
    Store(u8),
}

/// One static instruction slot: kind plus dependency distances (in dynamic
/// instructions; 0 means no register dependency on that operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTemplate {
    /// Operation class.
    pub kind: InstrKind,
    /// Distance to the first producer.
    pub dep1: u8,
    /// Distance to the second producer.
    pub dep2: u8,
}

/// The target table of an indirect call, kept out of line in
/// [`Program::indirect`] so that [`Terminator`] stays small.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectSite {
    /// Candidate callee entries.
    pub targets: Vec<BlockId>,
    /// Zipf skew over `targets` for the random component (0 = uniform).
    pub skew: f64,
    /// Probability of choosing the next target in rotation instead of
    /// randomly: 1.0 models event-loop / simulator-eval style *cyclic*
    /// code reuse (the LRU-adversarial regime of §3's long-reuse lines);
    /// 0.0 models fully random request arrival.
    pub rr_frac: f64,
}

/// The control-transfer ending a block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Conditional direct branch; not-taken falls through to `fallthrough`.
    Cond {
        /// Taken-path successor.
        target: BlockId,
        /// Not-taken successor.
        fallthrough: BlockId,
        /// Dynamic outcome model.
        behavior: BranchBehavior,
    },
    /// Unconditional direct jump.
    Jump {
        /// Successor.
        target: BlockId,
    },
    /// Direct call; execution resumes at `ret_to` after the callee returns.
    Call {
        /// Callee entry block.
        callee: BlockId,
        /// Block control returns to.
        ret_to: BlockId,
    },
    /// Indirect call through a table of possible callees.
    IndirectCall {
        /// Index of the target table in [`Program::indirect`].
        site: u32,
        /// Block control returns to.
        ret_to: BlockId,
    },
    /// Return to the caller.
    Return,
    /// Straight-line fall-through (block split).
    FallThrough {
        /// Next block.
        next: BlockId,
    },
}

/// Mirror of the frontend's branch classes, kept local so this crate stays
/// a leaf; the simulator maps between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermClass {
    /// Conditional direct branch.
    CondDirect,
    /// Unconditional jump.
    Jump,
    /// Direct call.
    Call,
    /// Indirect call.
    IndirectCall,
    /// Return.
    Return,
    /// Fall-through.
    FallThrough,
}

impl Terminator {
    /// The terminator's class.
    pub fn class(&self) -> TermClass {
        match self {
            Terminator::Cond { .. } => TermClass::CondDirect,
            Terminator::Jump { .. } => TermClass::Jump,
            Terminator::Call { .. } => TermClass::Call,
            Terminator::IndirectCall { .. } => TermClass::IndirectCall,
            Terminator::Return => TermClass::Return,
            Terminator::FallThrough { .. } => TermClass::FallThrough,
        }
    }
}

/// One static basic block: an address, a range of [`Program::instrs`], and
/// the control transfer at its end.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Starting byte address.
    pub start: u64,
    /// Index of the block's first template in [`Program::instrs`].
    pub first: u32,
    /// Number of instructions (the last one is the terminator instruction).
    pub len: u32,
    /// Control transfer at the end.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Byte address one past the block.
    pub fn end(&self) -> u64 {
        self.start + INSTR_BYTES * u64::from(self.len)
    }
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// Every block's instruction templates, each block a contiguous range.
    pub instrs: Vec<InstrTemplate>,
    /// Execution entry block.
    pub entry: BlockId,
    /// Data streams referenced by [`InstrKind::Load`]/[`InstrKind::Store`].
    pub streams: Vec<DataStream>,
    /// Target tables of the [`Terminator::IndirectCall`] blocks.
    pub indirect: Vec<IndirectSite>,
    /// Number of [`BranchBehavior::Loop`] backedges; each names its own
    /// counter slot below this.
    pub loop_sites: u32,
    /// Block ids in ascending start order.
    by_start: Vec<BlockId>,
    /// For each [`INDEX_LINE_BYTES`] line of code from [`CODE_BASE`], the
    /// position in `by_start` of the first block starting at or after the
    /// line (one extra entry closes the last line).
    line_first: Vec<u32>,
}

impl Program {
    /// Assembles a program and builds its start-address index. Block
    /// starts must lie at or above [`CODE_BASE`].
    pub fn new(
        blocks: Vec<BasicBlock>,
        instrs: Vec<InstrTemplate>,
        streams: Vec<DataStream>,
        indirect: Vec<IndirectSite>,
        loop_sites: u32,
    ) -> Self {
        let mut by_start: Vec<BlockId> = (0..blocks.len() as BlockId).collect();
        by_start.sort_unstable_by_key(|&id| blocks[id as usize].start);
        let code_end = blocks
            .iter()
            .map(BasicBlock::end)
            .max()
            .unwrap_or(CODE_BASE);
        let lines = (code_end.saturating_sub(CODE_BASE)).div_ceil(INDEX_LINE_BYTES);
        let mut line_first = Vec::with_capacity(lines as usize + 1);
        let mut pos = 0;
        for line in 0..=lines {
            let base = CODE_BASE + line * INDEX_LINE_BYTES;
            while pos < by_start.len() && blocks[by_start[pos] as usize].start < base {
                pos += 1;
            }
            line_first.push(pos as u32);
        }
        Self {
            blocks,
            instrs,
            entry: 0,
            streams,
            indirect,
            loop_sites,
            by_start,
            line_first,
        }
    }

    /// The block starting at `addr`, if any: one index read for the line
    /// holding `addr`, then a scan over the few blocks starting in it.
    pub fn block_at(&self, addr: u64) -> Option<&BasicBlock> {
        let line = (addr.checked_sub(CODE_BASE)? / INDEX_LINE_BYTES) as usize;
        let span = self.line_first.get(line..line + 2)?;
        self.by_start[span[0] as usize..span[1] as usize]
            .iter()
            .map(|&id| &self.blocks[id as usize])
            .find(|b| b.start >= addr)
            .filter(|b| b.start == addr)
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id as usize]
    }

    /// A block's instruction templates.
    pub fn templates(&self, block: &BasicBlock) -> &[InstrTemplate] {
        &self.instrs[block.first as usize..][..block.len as usize]
    }

    /// Total static code bytes.
    pub fn code_bytes(&self) -> u64 {
        INSTR_BYTES * self.instrs.len() as u64
    }

    /// Validates structural invariants (tests and builder debug checks):
    /// blocks tile [`Program::instrs`] in id order, addresses are unique
    /// and above [`CODE_BASE`], every terminator's successors, target
    /// tables, loop counters and streams exist, and no loop counter is
    /// shared.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("program has no blocks".to_string());
        }
        if self.entry as usize >= self.blocks.len() {
            return Err("entry out of range".to_string());
        }
        let n = self.blocks.len() as u32;
        let mut seen_starts = std::collections::HashSet::new();
        let mut loop_seen = vec![false; self.loop_sites as usize];
        let mut next_first = 0u32;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.len == 0 {
                return Err(format!("block {i} is empty"));
            }
            if b.first != next_first {
                return Err(format!("block {i} starts at template {}", b.first));
            }
            next_first += b.len;
            if b.start < CODE_BASE || !seen_starts.insert(b.start) {
                return Err(format!("bad or duplicate start {:#x}", b.start));
            }
            let check = |id: BlockId| -> Result<(), String> {
                if id >= n {
                    Err(format!("block {i} references missing block {id}"))
                } else {
                    Ok(())
                }
            };
            match &b.terminator {
                Terminator::Cond {
                    target,
                    fallthrough,
                    behavior,
                } => {
                    check(*target)?;
                    check(*fallthrough)?;
                    if let BranchBehavior::Loop { site, .. } = *behavior {
                        match loop_seen.get_mut(site as usize) {
                            Some(seen) if !*seen => *seen = true,
                            _ => return Err(format!("block {i} has bad loop site {site}")),
                        }
                    }
                }
                Terminator::Jump { target } => check(*target)?,
                Terminator::Call { callee, ret_to } => {
                    check(*callee)?;
                    check(*ret_to)?;
                }
                Terminator::IndirectCall { site, ret_to } => {
                    let Some(table) = self.indirect.get(*site as usize) else {
                        return Err(format!("block {i} references missing site {site}"));
                    };
                    if table.targets.is_empty() {
                        return Err(format!("block {i} indirect call with no targets"));
                    }
                    for t in &table.targets {
                        check(*t)?;
                    }
                    check(*ret_to)?;
                }
                Terminator::Return => {}
                Terminator::FallThrough { next } => check(*next)?,
            }
        }
        if next_first as usize != self.instrs.len() {
            return Err(format!(
                "blocks cover {next_first} of {} templates",
                self.instrs.len()
            ));
        }
        for (slot, t) in self.instrs.iter().enumerate() {
            match t.kind {
                InstrKind::Load(s) | InstrKind::Store(s) => {
                    if s as usize >= self.streams.len() {
                        return Err(format!("template {slot} references missing stream {s}"));
                    }
                }
                InstrKind::Alu => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dep1: u8) -> InstrTemplate {
        InstrTemplate {
            kind: InstrKind::Alu,
            dep1,
            dep2: 0,
        }
    }

    fn tiny_program() -> Program {
        let b0 = BasicBlock {
            start: CODE_BASE,
            first: 0,
            len: 4,
            terminator: Terminator::Jump { target: 1 },
        };
        let b1 = BasicBlock {
            start: CODE_BASE + 16,
            first: 4,
            len: 1,
            terminator: Terminator::Jump { target: 0 },
        };
        let instrs = vec![alu(0), alu(0), alu(0), alu(0), alu(1)];
        Program::new(vec![b0, b1], instrs, vec![], vec![], 0)
    }

    #[test]
    fn index_and_lookup() {
        let p = tiny_program();
        assert_eq!(p.block_at(CODE_BASE), Some(p.block(0)));
        assert_eq!(p.block_at(CODE_BASE + 16), Some(p.block(1)));
        assert!(p.block_at(0x1).is_none());
        assert!(p.block_at(CODE_BASE + 4).is_none());
        assert!(p.block_at(CODE_BASE + 20).is_none());
        assert!(p.block_at(CODE_BASE + 64).is_none());
        assert_eq!(p.templates(p.block(1)), &[alu(1)]);
    }

    #[test]
    fn index_finds_blocks_across_lines_in_any_id_order() {
        // Three blocks over two lines, laid out in reverse id order, the
        // middle one straddling the line boundary.
        let block = |start: u64, first: u32, len: u32| BasicBlock {
            start,
            first,
            len,
            terminator: Terminator::Return,
        };
        let blocks = vec![
            block(CODE_BASE + 72, 0, 3),
            block(CODE_BASE + 40, 3, 8),
            block(CODE_BASE, 11, 10),
        ];
        let p = Program::new(blocks, vec![alu(0); 21], vec![], vec![], 0);
        assert_eq!(p.validate(), Ok(()));
        for id in 0..3 {
            assert_eq!(p.block_at(p.block(id).start), Some(p.block(id)));
        }
        let starts = [CODE_BASE, CODE_BASE + 40, CODE_BASE + 72];
        for addr in CODE_BASE - 8..CODE_BASE + 200 {
            assert_eq!(
                p.block_at(addr).is_some(),
                starts.contains(&addr),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn code_size_accounting() {
        let p = tiny_program();
        assert_eq!(p.code_bytes(), 20);
    }

    #[test]
    fn layout_records_stay_small() {
        assert_eq!(std::mem::size_of::<InstrTemplate>(), 4);
        assert!(std::mem::size_of::<BasicBlock>() <= 48);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut p = tiny_program();
        p.blocks[1].terminator = Terminator::Jump { target: 99 };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_stream() {
        let mut p = tiny_program();
        p.instrs[0].kind = InstrKind::Load(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_gapped_template_ranges() {
        let mut p = tiny_program();
        p.blocks[1].first = 3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_or_shared_sites() {
        let mut p = tiny_program();
        p.blocks[0].terminator = Terminator::IndirectCall { site: 0, ret_to: 1 };
        assert!(p.validate().is_err());
        let cond = Terminator::Cond {
            target: 0,
            fallthrough: 1,
            behavior: BranchBehavior::Loop { trip: 2, site: 0 },
        };
        let mut p = tiny_program();
        p.loop_sites = 1;
        p.blocks[0].terminator = cond.clone();
        assert_eq!(p.validate(), Ok(()));
        p.blocks[1].terminator = cond;
        assert!(p.validate().is_err());
    }

    #[test]
    fn terminator_classes() {
        assert_eq!(Terminator::Return.class(), TermClass::Return);
        assert_eq!(
            Terminator::FallThrough { next: 0 }.class(),
            TermClass::FallThrough
        );
    }
}
