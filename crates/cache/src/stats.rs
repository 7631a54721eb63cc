//! Per-cache event counters.

use crate::line::LineKind;

/// Counters maintained by a single [`crate::cache::Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand instruction hits.
    pub instr_hits: u64,
    /// Demand instruction misses.
    pub instr_misses: u64,
    /// Demand data hits.
    pub data_hits: u64,
    /// Demand data misses.
    pub data_misses: u64,
    /// Instruction prefetch hits (already present).
    pub prefetch_instr_hits: u64,
    /// Instruction prefetch misses (triggered a fill).
    pub prefetch_instr_misses: u64,
    /// Data prefetch hits.
    pub prefetch_data_hits: u64,
    /// Data prefetch misses.
    pub prefetch_data_misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced (writeback traffic).
    pub writebacks: u64,
    /// Lines removed by external invalidation.
    pub invalidations: u64,
    /// Hits (demand or prefetch) on high-priority (`P = 1`) lines.
    pub priority_hits: u64,
    /// Fills refused by a bypassing policy.
    pub bypasses: u64,
}

impl CacheStats {
    /// Records a demand access outcome.
    pub fn record_demand(&mut self, kind: LineKind, hit: bool) {
        match (kind, hit) {
            (LineKind::Instruction, true) => self.instr_hits += 1,
            (LineKind::Instruction, false) => self.instr_misses += 1,
            (LineKind::Data, true) => self.data_hits += 1,
            (LineKind::Data, false) => self.data_misses += 1,
        }
    }

    /// Records a prefetch access outcome.
    pub fn record_prefetch(&mut self, kind: LineKind, hit: bool) {
        match (kind, hit) {
            (LineKind::Instruction, true) => self.prefetch_instr_hits += 1,
            (LineKind::Instruction, false) => self.prefetch_instr_misses += 1,
            (LineKind::Data, true) => self.prefetch_data_hits += 1,
            (LineKind::Data, false) => self.prefetch_data_misses += 1,
        }
    }

    /// Total prefetch hits (both kinds).
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_instr_hits + self.prefetch_data_hits
    }

    /// Total prefetch misses (both kinds).
    pub fn prefetch_misses(&self) -> u64 {
        self.prefetch_instr_misses + self.prefetch_data_misses
    }

    /// Instruction-side misses including fetch-directed prefetch misses;
    /// with an FDIP front-end most instruction-line fills are initiated by
    /// the prefetcher just ahead of the demand fetch, so instruction MPKI
    /// counts both (the demand would have missed without the prefetch).
    pub fn instr_stream_misses(&self) -> u64 {
        self.instr_misses + self.prefetch_instr_misses
    }

    /// Total demand misses (both kinds).
    pub fn demand_misses(&self) -> u64 {
        self.instr_misses + self.data_misses
    }

    /// Total demand accesses (both kinds).
    pub fn demand_accesses(&self) -> u64 {
        self.instr_hits + self.instr_misses + self.data_hits + self.data_misses
    }

    /// Total accesses including prefetches.
    pub fn total_accesses(&self) -> u64 {
        self.demand_accesses() + self.prefetch_hits() + self.prefetch_misses()
    }

    /// Demand miss ratio in `[0, 1]` (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.demand_accesses();
        if a == 0 {
            0.0
        } else {
            self.demand_misses() as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_counters_split_by_kind() {
        let mut s = CacheStats::default();
        s.record_demand(LineKind::Instruction, true);
        s.record_demand(LineKind::Instruction, false);
        s.record_demand(LineKind::Data, false);
        assert_eq!(s.instr_hits, 1);
        assert_eq!(s.instr_misses, 1);
        assert_eq!(s.data_misses, 1);
        assert_eq!(s.demand_misses(), 2);
        assert_eq!(s.demand_accesses(), 3);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefetches_do_not_affect_demand_ratio() {
        let mut s = CacheStats::default();
        s.record_prefetch(LineKind::Instruction, false);
        s.record_prefetch(LineKind::Data, true);
        assert_eq!(s.demand_accesses(), 0);
        assert_eq!(s.total_accesses(), 2);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.instr_stream_misses(), 1);
    }
}
