//! Per-line cache metadata.

/// Whether a line holds instructions or data.
///
/// The unified L2 and L3 hold both; the paper's policies treat the two kinds
/// differently (EMISSARY protects only instruction lines; DCLIP prioritizes
/// instruction lines; the `M:` treatments apply to instruction lines while
/// data lines keep normal MRU insertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineKind {
    /// An instruction cache line.
    Instruction,
    /// A data cache line.
    Data,
}

impl LineKind {
    /// True for [`LineKind::Instruction`].
    pub fn is_instruction(self) -> bool {
        matches!(self, LineKind::Instruction)
    }
}

impl std::fmt::Display for LineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineKind::Instruction => f.write_str("instruction"),
            LineKind::Data => f.write_str("data"),
        }
    }
}

/// State of one cache way.
///
/// `tag` stores the full line address rather than a truncated tag; this
/// simplifies back-invalidation and victim propagation between levels and
/// costs nothing in a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Full line address of the resident line (meaningful when `valid`).
    pub tag: u64,
    /// Whether the way holds a line.
    pub valid: bool,
    /// Whether the line was written (needs writeback on eviction).
    pub dirty: bool,
    /// Instruction or data line.
    pub kind: LineKind,
    /// EMISSARY priority bit (`P`). Set when the line's miss caused a
    /// selected decode starvation; preserved in L2 on L1I eviction (§3).
    pub priority: bool,
    /// L2-only "Served From Last-level" bit: set when the fill was served by
    /// the L3 rather than memory; controls L3 re-insertion position (§5.1).
    pub sfl: bool,
    /// Whether the fill was triggered by a prefetch rather than a demand.
    pub prefetched: bool,
}

impl LineState {
    /// An invalid (empty) way.
    pub const fn invalid() -> Self {
        Self {
            tag: 0,
            valid: false,
            dirty: false,
            kind: LineKind::Data,
            priority: false,
            sfl: false,
            prefetched: false,
        }
    }

    /// True when the way holds a valid high-priority (`P = 1`) line.
    pub fn is_high_priority(&self) -> bool {
        self.valid && self.priority
    }

    /// True when the way holds a valid instruction line.
    pub fn is_instruction(&self) -> bool {
        self.valid && self.kind.is_instruction()
    }
}

impl Default for LineState {
    fn default() -> Self {
        Self::invalid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_line_has_no_priority() {
        let mut l = LineState::invalid();
        l.priority = true; // stale metadata on an invalid way must not count
        assert!(!l.is_high_priority());
        assert!(!l.is_instruction());
    }

    #[test]
    fn kind_display_and_predicate() {
        assert!(LineKind::Instruction.is_instruction());
        assert!(!LineKind::Data.is_instruction());
        assert_eq!(LineKind::Instruction.to_string(), "instruction");
    }
}
