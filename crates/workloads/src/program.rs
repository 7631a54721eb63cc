//! Static program representation: a control-flow graph of basic blocks laid
//! out over a byte-addressed code region, with per-instruction templates.
//!
//! The layout is packed so that a program with hundreds of thousands of
//! blocks stays small and owns a handful of allocations, and no block owns
//! heap memory:
//!
//! * each static instruction is a 2-byte code in [`Program::codes`] that
//!   indexes the program's palette of distinct templates
//!   ([`Program::palette`], a few hundred entries), and each
//!   [`BasicBlock`] names its codes by range;
//! * a block is 24 bytes: its start as a 32-bit offset from [`CODE_BASE`],
//!   its code range and a 12-byte [`Terminator`];
//! * a conditional branch's outcome model sits out of line in
//!   [`Program::behaviors`], and the one indirect dispatch's target table
//!   in [`Program::indirect`];
//! * the successor a block reaches without naming it is block `id + 1`:
//!   the not-taken path of a [`Terminator::Cond`], a
//!   [`Terminator::FallThrough`] (both physically adjacent, starting where
//!   the block ends) and the return point of a [`Terminator::Call`].

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

/// The control-transfer ending block `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional direct branch; not taken, it falls through to block
    /// `id + 1`.
    Cond {
        /// Taken-path successor.
        target: BlockId,
        /// Index of the dynamic outcome model in [`Program::behaviors`].
        behavior: u32,
    },
    /// Unconditional direct jump.
    Jump {
        /// Successor.
        target: BlockId,
    },
    /// Direct call; execution resumes at block `id + 1` after the callee
    /// returns.
    Call {
        /// Callee entry block.
        callee: BlockId,
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
    /// Straight-line fall-through (block split) to block `id + 1`.
    FallThrough,
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
            Terminator::FallThrough => TermClass::FallThrough,
        }
    }
}

/// One static basic block: an address, a range of [`Program::codes`], and
/// the control transfer at its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// Starting byte address, as an offset from [`CODE_BASE`].
    offset: u32,
    /// Index of the block's first code in [`Program::codes`].
    pub first: u32,
    /// Number of instructions (the last one is the terminator instruction).
    pub len: u32,
    /// Control transfer at the end.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// A block starting at byte address `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies below [`CODE_BASE`] or 4 GiB or more above it.
    pub fn new(start: u64, first: u32, len: u32, terminator: Terminator) -> Self {
        Self {
            offset: code_offset(start),
            first,
            len,
            terminator,
        }
    }

    /// Starting byte address.
    pub fn start(&self) -> u64 {
        CODE_BASE + u64::from(self.offset)
    }

    /// Byte address one past the block.
    pub fn end(&self) -> u64 {
        self.start() + INSTR_BYTES * u64::from(self.len)
    }

    /// Moves the block to byte address `start` (see [`BasicBlock::new`]).
    pub(crate) fn set_start(&mut self, start: u64) {
        self.offset = code_offset(start);
    }
}

/// `start`'s offset from [`CODE_BASE`].
fn code_offset(start: u64) -> u32 {
    start
        .checked_sub(CODE_BASE)
        .and_then(|offset| u32::try_from(offset).ok())
        .unwrap_or_else(|| panic!("block start {start:#x} outside the code region"))
}

/// A complete synthetic program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// One [`Program::palette`] index per static instruction, each block a
    /// contiguous range.
    pub codes: Vec<u16>,
    /// The distinct instruction templates, indexed by [`Program::codes`].
    pub palette: Vec<InstrTemplate>,
    /// Outcome models of the [`Terminator::Cond`] blocks.
    pub behaviors: Vec<BranchBehavior>,
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
    /// For each [`INDEX_LINE_BYTES`] line of code from [`CODE_BASE`] up to
    /// the last one a block starts in, the position in `by_start` of the
    /// first block starting at or after the line (one extra entry closes
    /// the last line).
    line_first: Vec<u32>,
}

impl Program {
    /// Assembles a program and builds its start-address index.
    pub fn new(
        blocks: Vec<BasicBlock>,
        codes: Vec<u16>,
        palette: Vec<InstrTemplate>,
        behaviors: Vec<BranchBehavior>,
        streams: Vec<DataStream>,
        indirect: Vec<IndirectSite>,
        loop_sites: u32,
    ) -> Self {
        // A counting sort by index line: count the blocks starting in each
        // line, turn the counts into each line's first position, scatter
        // the ids, then order the few blocks within each line by start.
        let line_of = |b: &BasicBlock| (u64::from(b.offset) / INDEX_LINE_BYTES) as usize;
        let lines = blocks.iter().map(|b| line_of(b) + 1).max().unwrap_or(0);
        let mut line_first = vec![0u32; lines + 1];
        for b in &blocks {
            line_first[line_of(b)] += 1;
        }
        let mut first = 0;
        for slot in &mut line_first {
            let count = *slot;
            *slot = first;
            first += count;
        }
        let mut by_start = vec![0; blocks.len()];
        for (id, b) in blocks.iter().enumerate() {
            let next = &mut line_first[line_of(b)];
            by_start[*next as usize] = id as BlockId;
            *next += 1;
        }
        // Each line's cursor now sits on the next line's first position.
        line_first.rotate_right(1);
        line_first[0] = 0;
        for span in line_first.windows(2) {
            by_start[span[0] as usize..span[1] as usize]
                .sort_unstable_by_key(|&id| blocks[id as usize].offset);
        }
        Self {
            blocks,
            codes,
            palette,
            behaviors,
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
        let offset = addr.checked_sub(CODE_BASE)?;
        let line = (offset / INDEX_LINE_BYTES) as usize;
        let span = self.line_first.get(line..line + 2)?;
        self.by_start[span[0] as usize..span[1] as usize]
            .iter()
            .map(|&id| &self.blocks[id as usize])
            .find(|b| u64::from(b.offset) >= offset)
            .filter(|b| u64::from(b.offset) == offset)
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id as usize]
    }

    /// A block's instruction templates, in program order.
    pub fn templates(
        &self,
        block: &BasicBlock,
    ) -> impl ExactSizeIterator<Item = InstrTemplate> + '_ {
        self.codes[block.first as usize..][..block.len as usize]
            .iter()
            .map(|&code| self.palette[usize::from(code)])
    }

    /// Total static code bytes.
    pub fn code_bytes(&self) -> u64 {
        INSTR_BYTES * self.codes.len() as u64
    }

    /// Validates structural invariants (tests and builder debug checks):
    /// blocks tile [`Program::codes`] in id order, addresses are unique,
    /// every terminator's successors, behaviors, target tables, loop
    /// counters and streams exist, the implied successor `id + 1` exists
    /// and, after a conditional branch or a fall-through, starts where the
    /// block ends, no loop counter is shared, and every code names a
    /// palette entry.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("program has no blocks".to_string());
        }
        if self.entry as usize >= self.blocks.len() {
            return Err("entry out of range".to_string());
        }
        if self.palette.len() > 1 << u16::BITS {
            return Err(format!(
                "palette has {} templates, codes reach {}",
                self.palette.len(),
                1 << u16::BITS
            ));
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
                return Err(format!("block {i} starts at code {}", b.first));
            }
            next_first += b.len;
            if !seen_starts.insert(b.offset) {
                return Err(format!("duplicate start {:#x}", b.start()));
            }
            let check = |id: BlockId| -> Result<(), String> {
                if id >= n {
                    Err(format!("block {i} references missing block {id}"))
                } else {
                    Ok(())
                }
            };
            let next = i as BlockId + 1;
            let falls_into_next = || -> Result<(), String> {
                check(next)?;
                if self.block(next).start() == b.end() {
                    Ok(())
                } else {
                    Err(format!("block {i} does not end where block {next} starts"))
                }
            };
            match b.terminator {
                Terminator::Cond { target, behavior } => {
                    check(target)?;
                    falls_into_next()?;
                    let Some(model) = self.behaviors.get(behavior as usize) else {
                        return Err(format!("block {i} references missing behavior {behavior}"));
                    };
                    if let BranchBehavior::Loop { site, .. } = *model {
                        match loop_seen.get_mut(site as usize) {
                            Some(seen) if !*seen => *seen = true,
                            _ => return Err(format!("block {i} has bad loop site {site}")),
                        }
                    }
                }
                Terminator::Jump { target } => check(target)?,
                Terminator::Call { callee } => {
                    check(callee)?;
                    check(next)?;
                }
                Terminator::IndirectCall { site, ret_to } => {
                    let Some(table) = self.indirect.get(site as usize) else {
                        return Err(format!("block {i} references missing site {site}"));
                    };
                    if table.targets.is_empty() {
                        return Err(format!("block {i} indirect call with no targets"));
                    }
                    for &t in &table.targets {
                        check(t)?;
                    }
                    check(ret_to)?;
                }
                Terminator::Return => {}
                Terminator::FallThrough => falls_into_next()?,
            }
        }
        if next_first as usize != self.codes.len() {
            return Err(format!(
                "blocks cover {next_first} of {} codes",
                self.codes.len()
            ));
        }
        if let Some(slot) = self
            .codes
            .iter()
            .position(|&code| usize::from(code) >= self.palette.len())
        {
            return Err(format!(
                "code {slot} names template {} of {}",
                self.codes[slot],
                self.palette.len()
            ));
        }
        for (code, t) in self.palette.iter().enumerate() {
            match t.kind {
                InstrKind::Load(s) | InstrKind::Store(s) => {
                    if s as usize >= self.streams.len() {
                        return Err(format!("template {code} references missing stream {s}"));
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
        let b0 = BasicBlock::new(CODE_BASE, 0, 4, Terminator::Jump { target: 1 });
        let b1 = BasicBlock::new(CODE_BASE + 16, 4, 1, Terminator::Jump { target: 0 });
        let palette = vec![alu(0), alu(1)];
        Program::new(
            vec![b0, b1],
            vec![0, 0, 0, 0, 1],
            palette,
            vec![],
            vec![],
            vec![],
            0,
        )
    }

    /// Three one-instruction blocks back to back: two fall-throughs and a
    /// return, with one loop behavior available.
    fn chain() -> Program {
        let terms = [
            Terminator::FallThrough,
            Terminator::FallThrough,
            Terminator::Return,
        ];
        let blocks = (0..3)
            .map(|i| BasicBlock::new(CODE_BASE + 4 * u64::from(i), i, 1, terms[i as usize]))
            .collect();
        let behaviors = vec![BranchBehavior::Loop { trip: 2, site: 0 }];
        Program::new(
            blocks,
            vec![0; 3],
            vec![alu(0)],
            behaviors,
            vec![],
            vec![],
            1,
        )
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
        assert_eq!(p.templates(p.block(1)).collect::<Vec<_>>(), [alu(1)]);
        assert_eq!(p.templates(p.block(0)).len(), 4);
    }

    #[test]
    fn index_finds_blocks_across_lines_in_any_id_order() {
        // Three blocks over two lines, laid out in reverse id order, the
        // middle one straddling the line boundary.
        let block = |start: u64, first: u32, len: u32| {
            BasicBlock::new(start, first, len, Terminator::Return)
        };
        let blocks = vec![
            block(CODE_BASE + 72, 0, 3),
            block(CODE_BASE + 40, 3, 8),
            block(CODE_BASE, 11, 10),
        ];
        let p = Program::new(blocks, vec![0; 21], vec![alu(0)], vec![], vec![], vec![], 0);
        assert_eq!(p.validate(), Ok(()));
        for id in 0..3 {
            assert_eq!(p.block_at(p.block(id).start()), Some(p.block(id)));
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
    fn index_orders_many_blocks_within_a_line() {
        // Sixteen one-instruction blocks fill one line, ids running down
        // the addresses, then a block in the third line with a gap before.
        let mut blocks: Vec<BasicBlock> = (0..16)
            .map(|i| BasicBlock::new(CODE_BASE + 60 - 4 * u64::from(i), i, 1, Terminator::Return))
            .collect();
        blocks.push(BasicBlock::new(CODE_BASE + 132, 16, 2, Terminator::Return));
        let p = Program::new(blocks, vec![0; 18], vec![alu(0)], vec![], vec![], vec![], 0);
        assert_eq!(p.validate(), Ok(()));
        for addr in CODE_BASE..CODE_BASE + 200 {
            let want = p.blocks.iter().find(|b| b.start() == addr);
            assert_eq!(p.block_at(addr), want, "{addr:#x}");
        }
    }

    #[test]
    fn code_size_accounting() {
        let p = tiny_program();
        assert_eq!(p.code_bytes(), 20);
    }

    #[test]
    fn layout_records_stay_small() {
        assert_eq!(std::mem::size_of::<BasicBlock>(), 24);
        assert_eq!(std::mem::size_of::<Terminator>(), 12);
        assert_eq!(std::mem::size_of_val(&tiny_program().codes[0]), 2);
        assert_eq!(std::mem::size_of::<InstrTemplate>(), 4);
    }

    #[test]
    fn block_start_round_trips_through_its_offset() {
        let top = CODE_BASE + u64::from(u32::MAX);
        assert_eq!(BasicBlock::new(top, 0, 1, Terminator::Return).start(), top);
        let mut b = BasicBlock::new(CODE_BASE, 0, 2, Terminator::Return);
        b.set_start(CODE_BASE + 0x1234);
        assert_eq!(
            (b.start(), b.end()),
            (CODE_BASE + 0x1234, CODE_BASE + 0x123c)
        );
    }

    #[test]
    #[should_panic(expected = "outside the code region")]
    fn block_below_code_base_is_refused() {
        BasicBlock::new(CODE_BASE - 4, 0, 1, Terminator::Return);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(tiny_program().validate(), Ok(()));
        assert_eq!(chain().validate(), Ok(()));
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
        p.palette[0].kind = InstrKind::Load(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_gapped_template_ranges() {
        let mut p = tiny_program();
        p.blocks[1].first = 3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_code_past_the_palette() {
        let mut p = tiny_program();
        p.codes[2] = 2;
        assert_eq!(
            p.validate(),
            Err("code 2 names template 2 of 2".to_string())
        );
        let mut p = tiny_program();
        p.palette = vec![alu(0); (1 << 16) + 1];
        assert!(p.validate().unwrap_err().contains("palette"));
    }

    #[test]
    fn validate_rejects_a_missing_behavior() {
        let mut p = chain();
        p.blocks[0].terminator = Terminator::Cond {
            target: 2,
            behavior: 0,
        };
        assert_eq!(p.validate(), Ok(()));
        p.blocks[0].terminator = Terminator::Cond {
            target: 2,
            behavior: 1,
        };
        assert_eq!(
            p.validate(),
            Err("block 0 references missing behavior 1".to_string())
        );
    }

    #[test]
    fn validate_rejects_an_implied_successor_that_is_not_adjacent() {
        // Block 1 moves a line away: block 0's fall-through, and then its
        // not-taken path, no longer run into it.
        let mut p = chain();
        p.blocks[1].set_start(CODE_BASE + 64);
        let detached = Err("block 0 does not end where block 1 starts".to_string());
        assert_eq!(p.validate(), detached);
        p.blocks[0].terminator = Terminator::Cond {
            target: 2,
            behavior: 0,
        };
        assert_eq!(p.validate(), detached);
        // A jump does not need adjacency, and neither does a call's return.
        p.blocks[0].terminator = Terminator::Jump { target: 1 };
        p.blocks[1].terminator = Terminator::Return;
        assert_eq!(p.validate(), Ok(()));
        p.blocks[0].terminator = Terminator::Call { callee: 2 };
        assert_eq!(p.validate(), Ok(()));
        // The last block has no implied successor at all.
        for term in [
            Terminator::FallThrough,
            Terminator::Call { callee: 0 },
            Terminator::Cond {
                target: 0,
                behavior: 0,
            },
        ] {
            let mut p = chain();
            p.blocks[2].terminator = term;
            assert_eq!(
                p.validate(),
                Err("block 2 references missing block 3".to_string()),
                "{term:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_missing_or_shared_sites() {
        let mut p = tiny_program();
        p.blocks[0].terminator = Terminator::IndirectCall { site: 0, ret_to: 1 };
        assert!(p.validate().is_err());
        let cond = Terminator::Cond {
            target: 0,
            behavior: 0,
        };
        let mut p = chain();
        p.blocks[0].terminator = cond;
        assert_eq!(p.validate(), Ok(()));
        // Two branches on one loop behavior share its counter.
        p.blocks[1].terminator = cond;
        assert!(p.validate().unwrap_err().contains("bad loop site 0"));
        // So do two loop behaviors naming one site.
        p.behaviors.push(BranchBehavior::Loop { trip: 3, site: 0 });
        p.blocks[1].terminator = Terminator::Cond {
            target: 0,
            behavior: 1,
        };
        assert!(p.validate().unwrap_err().contains("bad loop site 0"));
    }

    #[test]
    fn terminator_classes() {
        assert_eq!(Terminator::Return.class(), TermClass::Return);
        assert_eq!(Terminator::FallThrough.class(), TermClass::FallThrough);
    }
}
