//! True LRU with exact per-line timestamps.

use crate::line::LineState;
use crate::policy::{AccessInfo, ReplacementPolicy};

/// Exact least-recently-used replacement.
///
/// Keeps a monotonically increasing stamp per way; the victim is the valid
/// way with the smallest stamp. Also exposes [`TrueLruPolicy::touch_mru`] /
/// [`TrueLruPolicy::set_lru`] so the `M:` insertion treatments can reuse it
/// as their recency base.
#[derive(Debug, Clone)]
pub struct TrueLruPolicy {
    ways: usize,
    stamps: Vec<u64>,
    /// Next stamp to hand out (global across sets; only relative order
    /// within a set matters).
    clock: u64,
    /// Strictly decreasing counter for forced-LRU placement.
    floor: u64,
}

impl TrueLruPolicy {
    /// Creates LRU state for `sets` x `ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            stamps: vec![0; sets * ways],
            clock: 1u64 << 32,
            floor: 1u64 << 32,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Marks `way` most recently used.
    pub fn touch_mru(&mut self, set: usize, way: usize) {
        self.clock += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.clock;
    }

    /// Forces `way` into the least-recently-used position of its set.
    pub fn set_lru(&mut self, set: usize, way: usize) {
        self.floor -= 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.floor;
    }

    /// The recency stamp of `way`: smaller is less recently used, so
    /// [`Self::lru_way`] picks the eligible way with the smallest
    /// `(stamp, way)`.
    #[inline]
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.stamps[self.idx(set, way)]
    }

    /// The valid way with the smallest stamp, restricted by `eligible`.
    ///
    /// Returns `None` if no way satisfies the predicate.
    pub fn lru_way<F>(&self, set: usize, lines: &[LineState], eligible: F) -> Option<usize>
    where
        F: Fn(usize, &LineState) -> bool,
    {
        let mut best: Option<(u64, usize)> = None;
        for (way, line) in lines.iter().enumerate() {
            if !eligible(way, line) {
                continue;
            }
            let stamp = self.stamps[self.idx(set, way)];
            if best.is_none_or(|(s, _)| stamp < s) {
                best = Some((stamp, way));
            }
        }
        best.map(|(_, w)| w)
    }
}

impl ReplacementPolicy for TrueLruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_hit(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        self.touch_mru(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        self.touch_mru(set, way);
    }

    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        self.lru_way(set, lines, |_, l| l.valid)
            .expect("victim() requires at least one valid line")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;

    fn full_set(ways: usize) -> Vec<LineState> {
        (0..ways)
            .map(|i| LineState {
                tag: i as u64,
                valid: true,
                kind: LineKind::Instruction,
                ..LineState::invalid()
            })
            .collect()
    }

    fn info() -> AccessInfo {
        AccessInfo::demand(LineKind::Instruction)
    }

    #[test]
    fn evicts_least_recently_touched() {
        let mut p = TrueLruPolicy::new(1, 4);
        let lines = full_set(4);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        p.on_hit(0, 0, &lines, &info()); // 1 is now LRU
        assert_eq!(p.victim(0, &lines, &info()), 1);
    }

    #[test]
    fn stack_property_order_of_touches() {
        let mut p = TrueLruPolicy::new(1, 4);
        let lines = full_set(4);
        for w in [2, 0, 3, 1] {
            p.on_fill(0, w, &lines, &info());
        }
        // Eviction order must be 2, 0, 3, 1.
        assert_eq!(p.victim(0, &lines, &info()), 2);
        p.on_hit(0, 2, &lines, &info());
        assert_eq!(p.victim(0, &lines, &info()), 0);
    }

    #[test]
    fn set_lru_forces_next_victim() {
        let mut p = TrueLruPolicy::new(1, 4);
        let lines = full_set(4);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        p.set_lru(0, 3);
        assert_eq!(p.victim(0, &lines, &info()), 3);
    }

    #[test]
    fn successive_set_lru_stack_below_each_other() {
        let mut p = TrueLruPolicy::new(1, 4);
        let lines = full_set(4);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        p.set_lru(0, 1);
        p.set_lru(0, 2); // 2 placed *below* 1
        assert_eq!(p.victim(0, &lines, &info()), 2);
    }

    #[test]
    fn lru_way_respects_eligibility() {
        let mut p = TrueLruPolicy::new(1, 4);
        let lines = full_set(4);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        let v = p.lru_way(0, &lines, |w, _| w % 2 == 1);
        assert_eq!(v, Some(1));
        assert_eq!(p.lru_way(0, &lines, |_, _| false), None);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = TrueLruPolicy::new(2, 2);
        let lines = full_set(2);
        p.on_fill(0, 0, &lines, &info());
        p.on_fill(0, 1, &lines, &info());
        p.on_fill(1, 1, &lines, &info());
        p.on_fill(1, 0, &lines, &info());
        assert_eq!(p.victim(0, &lines, &info()), 0);
        assert_eq!(p.victim(1, &lines, &info()), 1);
    }

    #[test]
    #[should_panic]
    fn victim_panics_on_all_invalid() {
        let mut p = TrueLruPolicy::new(1, 2);
        let lines = vec![LineState::invalid(); 2];
        p.victim(0, &lines, &info());
    }
}
