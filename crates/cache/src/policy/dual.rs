//! Dual-class recency structures for the `P(N)` treatment.
//!
//! §4.2: "With a pseudo-LRU (PLRU) algorithm … keeping separate PLRU's for
//! low- and high-priority lines limits the imprecision. … When a
//! high-priority line is accessed, only the high-priority tree is updated."
//! For the true-LRU variant used in Figure 1, exact per-class LRU falls out
//! of a single global timestamp order filtered by class, which is what
//! [`DualRecency::TrueLru`] implements.

use crate::policy::{PlruTree, RecencyBase};

/// Per-set dual-class recency state.
#[derive(Debug, Clone)]
pub enum DualRecency {
    /// Single stamp array; per-class LRU is the class-filtered global order.
    TrueLru {
        /// Per-(set, way) last-touch stamps.
        stamps: Vec<u64>,
        /// Monotonic clock.
        clock: u64,
        /// Ways per set.
        ways: usize,
    },
    /// One tree per priority class per set.
    TreePlru {
        /// `(low, high)` priority trees per set.
        trees: Vec<(PlruTree, PlruTree)>,
        /// Ways per set.
        ways: usize,
    },
}

impl DualRecency {
    /// Allocates recency state for `sets` x `ways`: one stamp array for
    /// true LRU, or two trees per set (`2 * (ways - 1)` bits, §4.2's TPLRU).
    pub fn new(base: RecencyBase, sets: usize, ways: usize) -> Self {
        match base {
            RecencyBase::TrueLru => DualRecency::TrueLru {
                stamps: vec![0; sets * ways],
                clock: 0,
                ways,
            },
            RecencyBase::TreePlru => DualRecency::TreePlru {
                trees: vec![(PlruTree::new(ways), PlruTree::new(ways)); sets],
                ways,
            },
        }
    }

    /// Ways per set this structure was sized for.
    pub fn ways(&self) -> usize {
        match self {
            DualRecency::TrueLru { ways, .. } | DualRecency::TreePlru { ways, .. } => *ways,
        }
    }

    /// Number of sets this structure was sized for.
    pub fn sets(&self) -> usize {
        match self {
            DualRecency::TrueLru { stamps, ways, .. } => {
                stamps.len().checked_div(*ways).unwrap_or(0)
            }
            DualRecency::TreePlru { trees, .. } => trees.len(),
        }
    }

    /// Records an access to `way` of `set`, updating only the structure of
    /// the accessed line's class (`high`).
    pub fn touch(&mut self, set: usize, way: usize, high: bool) {
        match self {
            DualRecency::TrueLru {
                stamps,
                clock,
                ways,
            } => {
                *clock += 1;
                stamps[set * *ways + way] = *clock;
            }
            DualRecency::TreePlru { trees, .. } => {
                let (low_tree, high_tree) = &mut trees[set];
                if high {
                    high_tree.touch(way);
                } else {
                    low_tree.touch(way);
                }
            }
        }
    }

    /// Least-recently-used way among those selected by `mask`, consulting
    /// the recency structure of class `high`.
    ///
    /// Returns `None` when the mask is empty.
    pub fn lru_among(&self, set: usize, mask: u32, high: bool) -> Option<usize> {
        if mask == 0 {
            return None;
        }
        match self {
            DualRecency::TrueLru { stamps, ways, .. } => {
                let base = set * *ways;
                (0..*ways)
                    .filter(|w| mask & (1 << w) != 0)
                    .min_by_key(|&w| stamps[base + w])
            }
            DualRecency::TreePlru { trees, .. } => {
                let (low_tree, high_tree) = &trees[set];
                if high {
                    high_tree.victim_masked(mask)
                } else {
                    low_tree.victim_masked(mask)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_lru_orders_across_classes_consistently() {
        let mut d = DualRecency::new(RecencyBase::TrueLru, 1, 4);
        d.touch(0, 2, false);
        d.touch(0, 0, true);
        d.touch(0, 3, false);
        d.touch(0, 1, true);
        // Low-class LRU among {2, 3} is 2; high-class among {0, 1} is 0.
        assert_eq!(d.lru_among(0, (1 << 2) | (1 << 3), false), Some(2));
        assert_eq!(d.lru_among(0, (1 << 0) | (1 << 1), true), Some(0));
        assert_eq!(d.lru_among(0, 0, false), None);
    }

    #[test]
    fn tree_classes_are_isolated() {
        let mut d = DualRecency::new(RecencyBase::TreePlru, 1, 8);
        // High-class touches must not move the low tree.
        for w in 0..8 {
            d.touch(0, w, true);
        }
        // Low tree untouched: victim walk starts at way 0.
        assert_eq!(d.lru_among(0, 0xff, false), Some(0));
        // High tree fully touched; its victim is defined but way 7 (last
        // touched) cannot be it.
        assert_ne!(d.lru_among(0, 0xff, true), Some(7));
    }

    #[test]
    fn masked_query_respects_mask() {
        let mut d = DualRecency::new(RecencyBase::TreePlru, 2, 8);
        d.touch(1, 0, false);
        let v = d.lru_among(1, 0b0011_0000, false).unwrap();
        assert!(v == 4 || v == 5);
    }

    #[test]
    fn sets_independent() {
        let mut d = DualRecency::new(RecencyBase::TrueLru, 2, 2);
        d.touch(0, 0, false);
        d.touch(0, 1, false);
        d.touch(1, 1, false);
        d.touch(1, 0, false);
        assert_eq!(d.lru_among(0, 0b11, false), Some(0));
        assert_eq!(d.lru_among(1, 0b11, false), Some(1));
    }
}
