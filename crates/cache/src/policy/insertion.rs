//! The `M:` insertion treatments (Table 2) over a recency base.
//!
//! `M` bimodality "comes from inserting high-priority lines into the cache's
//! MRU position while placing low-priority lines into the cache's LRU
//! position" (Qureshi et al.'s LIP/BIP generalized with the paper's
//! selection notation). Combined with a selection equation evaluated by the
//! caller this yields:
//!
//! * `M:0` — LIP: never high-priority, always LRU insert;
//! * `M:R(1/32)` — BIP;
//! * `M:S&E`, `M:S&E&R(1/32)` — the paper's starvation-gated variants.
//!
//! Because starvation flags resolve after the structural fill (see
//! [`crate::policy`] module docs), instruction lines are placed at LRU in
//! `on_fill` and promoted to MRU in `on_fill_resolved` when selected. Data
//! lines are not subject to the treatment ("all policies apply only to L2
//! instruction lines") and insert at MRU directly.

use crate::line::LineState;
use crate::policy::plru::valid_mask;
use crate::policy::{AccessInfo, RecencyBase, ReplacementPolicy, TreePlruPolicy, TrueLruPolicy};

#[derive(Debug)]
enum Base {
    TrueLru(TrueLruPolicy),
    TreePlru(TreePlruPolicy),
}

/// `M:` treatment policy; see module docs.
#[derive(Debug)]
pub struct InsertionPolicy {
    base: Base,
}

impl InsertionPolicy {
    /// Creates the treatment over the given base for `sets` x `ways`.
    pub fn new(base: RecencyBase, sets: usize, ways: usize) -> Self {
        let base = match base {
            RecencyBase::TrueLru => Base::TrueLru(TrueLruPolicy::new(sets, ways)),
            RecencyBase::TreePlru => Base::TreePlru(TreePlruPolicy::new(sets, ways)),
        };
        Self { base }
    }

    fn touch_mru(&mut self, set: usize, way: usize) {
        match &mut self.base {
            Base::TrueLru(b) => b.touch_mru(set, way),
            Base::TreePlru(b) => b.tree_mut(set).touch(way),
        }
    }

    fn set_lru(&mut self, set: usize, way: usize) {
        match &mut self.base {
            Base::TrueLru(b) => b.set_lru(set, way),
            Base::TreePlru(b) => b.tree_mut(set).point_to(way),
        }
    }
}

impl ReplacementPolicy for InsertionPolicy {
    fn name(&self) -> &'static str {
        match &self.base {
            Base::TrueLru(_) => "m-insert(lru)",
            Base::TreePlru(_) => "m-insert(tplru)",
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        // LIP/BIP promote to MRU on hit.
        self.touch_mru(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _lines: &[LineState], info: &AccessInfo) {
        if info.kind.is_instruction() {
            // Position unknown until the miss's flags resolve: park at LRU.
            self.set_lru(set, way);
        } else {
            self.touch_mru(set, way);
        }
    }

    fn on_fill_resolved(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo) {
        // The line may have been evicted/replaced during the miss window.
        if !lines[way].valid {
            return;
        }
        if info.kind.is_instruction() && info.high_priority {
            self.touch_mru(set, way);
        }
    }

    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        match &mut self.base {
            Base::TrueLru(b) => b
                .lru_way(set, lines, |_, l| l.valid)
                .expect("victim() requires at least one valid line"),
            Base::TreePlru(b) => b
                .tree(set)
                .victim_masked(valid_mask(lines))
                .expect("victim() requires at least one valid line"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;

    fn full_set(ways: usize, kind: LineKind) -> Vec<LineState> {
        (0..ways)
            .map(|i| LineState {
                tag: i as u64,
                valid: true,
                kind,
                ..LineState::invalid()
            })
            .collect()
    }

    fn instr() -> AccessInfo {
        AccessInfo::demand(LineKind::Instruction)
    }

    fn data() -> AccessInfo {
        AccessInfo::demand(LineKind::Data)
    }

    #[test]
    fn unresolved_instruction_fill_sits_at_lru() {
        for base in [RecencyBase::TrueLru, RecencyBase::TreePlru] {
            let mut p = InsertionPolicy::new(base, 1, 4);
            let lines = full_set(4, LineKind::Instruction);
            for w in 0..4 {
                p.on_fill(0, w, &lines, &instr());
            }
            // Way 3 filled last but parked at LRU; it must be the victim.
            assert_eq!(p.victim(0, &lines, &instr()), 3, "base {base:?}");
        }
    }

    #[test]
    fn resolved_high_priority_promotes_to_mru() {
        for base in [RecencyBase::TrueLru, RecencyBase::TreePlru] {
            let mut p = InsertionPolicy::new(base, 1, 4);
            let lines = full_set(4, LineKind::Instruction);
            for w in 0..4 {
                p.on_fill(0, w, &lines, &instr());
                p.on_fill_resolved(0, w, &lines, &instr().with_priority(w != 3));
            }
            // Ways 0..=2 promoted, way 3 resolved low: still the victim.
            assert_eq!(p.victim(0, &lines, &instr()), 3, "base {base:?}");
        }
    }

    #[test]
    fn resolved_low_priority_stays_lru() {
        let mut p = InsertionPolicy::new(RecencyBase::TrueLru, 1, 4);
        let lines = full_set(4, LineKind::Instruction);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &instr());
            p.on_fill_resolved(0, w, &lines, &instr().with_priority(false));
        }
        // All parked LRU in order; last parked (3) is deepest-LRU.
        assert_eq!(p.victim(0, &lines, &instr()), 3);
    }

    #[test]
    fn data_lines_insert_mru_immediately() {
        let mut p = InsertionPolicy::new(RecencyBase::TrueLru, 1, 4);
        let lines = full_set(4, LineKind::Data);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &data());
        }
        // Normal MRU insertion: way 0 is LRU.
        assert_eq!(p.victim(0, &lines, &data()), 0);
    }

    #[test]
    fn hits_promote_to_mru() {
        let mut p = InsertionPolicy::new(RecencyBase::TrueLru, 1, 4);
        let lines = full_set(4, LineKind::Instruction);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &instr());
        }
        p.on_hit(0, 3, &lines, &instr());
        // Way 3 was deepest-LRU but the hit rescued it; victim is now 2.
        assert_eq!(p.victim(0, &lines, &instr()), 2);
    }

    #[test]
    fn resolve_on_replaced_way_is_ignored() {
        let mut p = InsertionPolicy::new(RecencyBase::TrueLru, 1, 2);
        let mut lines = full_set(2, LineKind::Instruction);
        p.on_fill(0, 0, &lines, &instr());
        p.on_fill(0, 1, &lines, &instr());
        lines[1].valid = false;
        // Must not panic or corrupt recency.
        p.on_fill_resolved(0, 1, &lines, &instr().with_priority(true));
        lines[1].valid = true;
        assert_eq!(p.victim(0, &lines, &instr()), 1);
    }
}
