//! The one recency substrate: true LRU and tree pseudo-LRU, with one or two
//! priority classes, and the plain and `M:` policies built on it.
//!
//! Every recency-ordered policy in the paper sits on the same decision:
//! the baseline evicts the least recently used line, Table 2's `M:`
//! treatments choose where a fill enters that order (LIP/BIP-style), and
//! §4.2's `P(N)` keeps one order per priority class, "skipping any lines
//! that do not match the priority criteria". Figure 1 swaps the tree for
//! true LRU. [`Recency`] holds that order for every set over either
//! [`RecencyBase`]:
//!
//! * true LRU keeps one stamp per way, from a rising clock on a touch and a
//!   falling floor on a demote. A class's order is the class-filtered
//!   global order, so one stamp array serves both classes;
//! * tree PLRU keeps one [`PlruTree`] per class per set (`ways - 1` bits
//!   each, §4.2), and a touch updates only its class's tree.
//!
//! [`RecencyPolicy`] is the one-class policy: plain true LRU or TPLRU, or
//! with the `M:` rule on, an insertion treatment. `EmissaryPolicy` holds a
//! two-class [`Recency`], and LIN and LACS a one-class true-LRU one.
//!
//! The `M:` rule: `M` bimodality "comes from inserting high-priority lines
//! into the cache's MRU position while placing low-priority lines into the
//! cache's LRU position". Because starvation flags resolve after the
//! structural fill (see [`crate::policy`] module docs), instruction lines
//! are parked at LRU in `on_fill` and promoted to MRU in `on_fill_resolved`
//! when selected. Data lines are not subject to the treatment ("all
//! policies apply only to L2 instruction lines") and insert at MRU.

use crate::line::LineState;
use crate::policy::{AccessInfo, PolicyImpl, ReplacementPolicy};

/// Which recency structure backs a recency-ordered policy: the plain
/// baseline, the `M:` insertion treatments and EMISSARY's dual classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecencyBase {
    /// Exact LRU (Figure 1's "true LRU" environment).
    TrueLru,
    /// Tree pseudo-LRU (the main evaluation, §4.2).
    TreePlru,
}

impl RecencyBase {
    /// The plain recency policy over this base for `sets` x `ways` (the
    /// `M:1` baseline and the L1s).
    pub fn build(self, sets: usize, ways: usize) -> PolicyImpl {
        PolicyImpl::Recency(RecencyPolicy::new(self, false, sets, ways))
    }

    /// Why a recency order over this base cannot hold `ways` ways: way
    /// masks cover 1 to 32 ways, and a tree needs a power of two. `None`
    /// when it can. The constructors assert this rule, and
    /// `SimConfig::validate` checks it before a machine is built.
    pub fn ways_error(self, ways: usize) -> Option<String> {
        if !(1..=32).contains(&ways) {
            Some(format!("recency masks cover 1..=32 ways, got {ways}"))
        } else if self == RecencyBase::TreePlru && !ways.is_power_of_two() {
            Some(format!("TPLRU requires power-of-two ways, got {ways}"))
        } else {
            None
        }
    }

    /// Panics with [`Self::ways_error`]'s reason when there is one.
    fn assert_holds(self, ways: usize) {
        if let Some(msg) = self.ways_error(ways) {
            panic!("{msg}");
        }
    }
}

/// One pseudo-LRU tree over a power-of-two number of ways.
///
/// Internal nodes are stored as a bitset: node 0 is the root, node `i` has
/// children `2i + 1` / `2i + 2`; a bit of 0 means "the colder (victim) side
/// is the left subtree".
///
/// # Example
///
/// ```
/// use emissary_cache::policy::PlruTree;
///
/// let mut t = PlruTree::new(4);
/// t.touch(0);
/// t.touch(1);
/// // Ways 2..3 untouched; the victim walk lands on one of them.
/// assert!(t.victim_masked(0b1111).unwrap() >= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlruTree {
    ways: usize,
    /// Bit `i` = direction bit of internal node `i` (1 = victim side is right).
    bits: u32,
}

impl PlruTree {
    /// Creates a tree over `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `1..=32`
    /// ([`RecencyBase::ways_error`]).
    pub fn new(ways: usize) -> Self {
        RecencyBase::TreePlru.assert_holds(ways);
        Self { ways, bits: 0 }
    }

    /// Points every node on the root-to-leaf path of `way` toward it
    /// (`toward`) or away from it.
    #[inline]
    fn steer(&mut self, way: usize, toward: bool) {
        debug_assert!(way < self.ways);
        let mut node = 0usize;
        for level in (0..self.ways.trailing_zeros()).rev() {
            let go_right = (way >> level) & 1 == 1;
            if go_right == toward {
                self.bits |= 1 << node;
            } else {
                self.bits &= !(1 << node);
            }
            node = 2 * node + 1 + usize::from(go_right);
        }
    }

    /// Records an access to `way`: every node on the root-to-leaf path is
    /// pointed *away* from the accessed side.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        self.steer(way, false);
    }

    /// Points every node on the path *toward* `way`, making it the next
    /// victim of its subtree (the "LRU insert" used by LIP-style policies).
    pub fn point_to(&mut self, way: usize) {
        self.steer(way, true);
    }

    /// Walks the tree toward the victim, restricted to ways whose bit is set
    /// in `eligible`. At each node the pointed-to side is preferred; if that
    /// subtree contains no eligible way the other side is taken.
    ///
    /// Returns `None` when `eligible` selects no way.
    pub fn victim_masked(&self, eligible: u32) -> Option<usize> {
        let eligible = eligible & Self::range_mask(0, self.ways);
        if eligible == 0 {
            return None;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut width = self.ways;
        while width > 1 {
            let half = width / 2;
            let go_right = if self.bits & (1 << node) != 0 {
                Self::range_mask(lo + half, half) & eligible != 0
            } else {
                Self::range_mask(lo, half) & eligible == 0
            };
            node = 2 * node + 1 + usize::from(go_right);
            if go_right {
                lo += half;
            }
            width = half;
        }
        Some(lo)
    }

    /// Victim among all ways.
    pub fn victim(&self) -> usize {
        self.victim_masked(u32::MAX)
            .expect("ways >= 1, full mask cannot be empty")
    }

    #[inline]
    fn range_mask(lo: usize, width: usize) -> u32 {
        let m = if width >= 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        m << lo
    }
}

/// Per-set recency state over a [`RecencyBase`], with one or two priority
/// classes. Class `high` is the high-priority class of a two-class
/// structure; a one-class structure is always asked about `high = false`.
#[derive(Debug)]
pub(crate) struct Recency {
    sets: usize,
    ways: usize,
    classes: usize,
    state: State,
}

#[derive(Debug)]
enum State {
    /// Per-(set, way) stamps: the smallest is the least recently used.
    Stamps {
        stamps: Vec<u64>,
        /// Next touch stamp (global across sets; only the order within a
        /// set matters).
        clock: u64,
        /// Strictly falling stamp for LRU insertion.
        floor: u64,
    },
    /// `classes` trees per set, the low class first.
    Trees(Vec<PlruTree>),
}

impl Recency {
    /// Allocates `classes` (1 or 2) recency orders for `sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `base` cannot hold `ways` ([`RecencyBase::ways_error`]).
    pub(crate) fn new(base: RecencyBase, classes: usize, sets: usize, ways: usize) -> Self {
        assert!((1..=2).contains(&classes), "1 or 2 classes, got {classes}");
        base.assert_holds(ways);
        let state = match base {
            RecencyBase::TrueLru => State::Stamps {
                stamps: vec![0; sets * ways],
                clock: 1 << 32,
                floor: 1 << 32,
            },
            RecencyBase::TreePlru => State::Trees(vec![PlruTree::new(ways); sets * classes]),
        };
        Self {
            sets,
            ways,
            classes,
            state,
        }
    }

    /// The structure's base.
    pub(crate) fn base(&self) -> RecencyBase {
        match self.state {
            State::Stamps { .. } => RecencyBase::TrueLru,
            State::Trees(_) => RecencyBase::TreePlru,
        }
    }

    /// Number of sets this structure was sized for.
    pub(crate) fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set this structure was sized for.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn tree_index(&self, set: usize, high: bool) -> usize {
        debug_assert!(usize::from(high) < self.classes);
        set * self.classes + usize::from(high)
    }

    /// Records an access to `way` of `set`, making it the most recently
    /// used of class `high` (only that class's tree moves).
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize, high: bool) {
        let t = self.tree_index(set, high);
        match &mut self.state {
            State::Stamps { stamps, clock, .. } => {
                *clock += 1;
                stamps[set * self.ways + way] = *clock;
            }
            State::Trees(trees) => trees[t].touch(way),
        }
    }

    /// The LRU insert: makes `way` the next victim of its set (of the low
    /// class's tree). Successive demotes stack, the latest coldest.
    pub(crate) fn demote(&mut self, set: usize, way: usize) {
        let t = self.tree_index(set, false);
        match &mut self.state {
            State::Stamps { stamps, floor, .. } => {
                *floor -= 1;
                stamps[set * self.ways + way] = *floor;
            }
            State::Trees(trees) => trees[t].point_to(way),
        }
    }

    /// The least recently used way among those selected by `mask`, in the
    /// order of class `high`. Over true LRU that is the first way with the
    /// smallest stamp. Returns `None` when `mask` selects no way.
    #[inline]
    pub(crate) fn coldest(&self, set: usize, mask: u32, high: bool) -> Option<usize> {
        match &self.state {
            State::Stamps { stamps, .. } => {
                let row = &stamps[set * self.ways..][..self.ways];
                (0..self.ways)
                    .filter(|w| mask & (1 << w) != 0)
                    .min_by_key(|&w| row[w])
            }
            State::Trees(trees) => trees[self.tree_index(set, high)].victim_masked(mask),
        }
    }

    /// The true-LRU stamp of `way`: smaller is less recently used (LIN
    /// ranks a set by it).
    ///
    /// # Panics
    ///
    /// Panics over tree PLRU, which keeps no stamps.
    #[inline]
    pub(crate) fn stamp(&self, set: usize, way: usize) -> u64 {
        match &self.state {
            State::Stamps { stamps, .. } => stamps[set * self.ways + way],
            State::Trees(_) => panic!("tree PLRU keeps no recency stamps"),
        }
    }
}

/// Bitmask of valid ways in a set.
pub(crate) fn valid_mask(lines: &[LineState]) -> u32 {
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.valid)
        .fold(0u32, |m, (w, _)| m | (1 << w))
}

/// Plain true LRU or TPLRU (`M:1`, the L1s), or with the `M:` rule on, an
/// insertion treatment (`M:0` is LIP, `M:R(1/32)` BIP, `M:S&E` …): an
/// instruction fill parks at LRU and moves to MRU when its miss resolves
/// selected (see [`crate::policy`] on deferred insertion updates); data
/// fills and hits go to MRU.
#[derive(Debug)]
pub struct RecencyPolicy {
    recency: Recency,
    /// The `M:` rule: instruction fills park at LRU until they resolve.
    insertion: bool,
}

impl RecencyPolicy {
    /// Creates the policy over `base` for `sets` x `ways`, with the `M:`
    /// rule on when `insertion` is set.
    pub fn new(base: RecencyBase, insertion: bool, sets: usize, ways: usize) -> Self {
        Self {
            recency: Recency::new(base, 1, sets, ways),
            insertion,
        }
    }
}

impl ReplacementPolicy for RecencyPolicy {
    fn name(&self) -> &'static str {
        match (self.recency.base(), self.insertion) {
            (RecencyBase::TrueLru, false) => "lru",
            (RecencyBase::TreePlru, false) => "tplru",
            (RecencyBase::TrueLru, true) => "m-insert(lru)",
            (RecencyBase::TreePlru, true) => "m-insert(tplru)",
        }
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        self.recency.touch(set, way, false);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _lines: &[LineState], info: &AccessInfo) {
        if self.insertion && info.kind.is_instruction() {
            // Position unknown until the miss's flags resolve: park at LRU.
            self.recency.demote(set, way);
        } else {
            self.recency.touch(set, way, false);
        }
    }

    fn on_fill_resolved(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo) {
        // The line may have been evicted or replaced during the miss window.
        if self.insertion && lines[way].valid && info.kind.is_instruction() && info.high_priority {
            self.recency.touch(set, way, false);
        }
    }

    #[inline]
    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        self.recency
            .coldest(set, valid_mask(lines), false)
            .expect("victim() requires at least one valid line")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;

    const BASES: [RecencyBase; 2] = [RecencyBase::TrueLru, RecencyBase::TreePlru];

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

    fn lru(sets: usize, ways: usize) -> RecencyPolicy {
        RecencyPolicy::new(RecencyBase::TrueLru, false, sets, ways)
    }

    // True LRU: the stack order.

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut p = lru(1, 4);
        let lines = full_set(4, LineKind::Instruction);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &instr());
        }
        p.on_hit(0, 0, &lines, &instr()); // 1 is now LRU
        assert_eq!(p.victim(0, &lines, &instr()), 1);
    }

    #[test]
    fn lru_stack_property_order_of_touches() {
        let mut p = lru(1, 4);
        let lines = full_set(4, LineKind::Instruction);
        for w in [2, 0, 3, 1] {
            p.on_fill(0, w, &lines, &instr());
        }
        // Eviction order must be 2, 0, 3, 1.
        assert_eq!(p.victim(0, &lines, &instr()), 2);
        p.on_hit(0, 2, &lines, &instr());
        assert_eq!(p.victim(0, &lines, &instr()), 0);
    }

    #[test]
    fn lru_demote_forces_next_victim() {
        let mut r = Recency::new(RecencyBase::TrueLru, 1, 1, 4);
        for w in 0..4 {
            r.touch(0, w, false);
        }
        r.demote(0, 3);
        assert_eq!(r.coldest(0, 0b1111, false), Some(3));
    }

    #[test]
    fn successive_demotes_stack_below_each_other() {
        for base in BASES {
            let mut r = Recency::new(base, 1, 1, 4);
            for w in 0..4 {
                r.touch(0, w, false);
            }
            r.demote(0, 1);
            r.demote(0, 2); // 2 placed *below* 1
            assert_eq!(r.coldest(0, 0b1111, false), Some(2), "base {base:?}");
        }
    }

    #[test]
    fn lru_coldest_respects_the_mask() {
        let mut r = Recency::new(RecencyBase::TrueLru, 1, 1, 4);
        for w in 0..4 {
            r.touch(0, w, false);
        }
        assert_eq!(r.coldest(0, 0b1010, false), Some(1));
        assert_eq!(r.coldest(0, 0, false), None);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = lru(2, 2);
        let lines = full_set(2, LineKind::Instruction);
        p.on_fill(0, 0, &lines, &instr());
        p.on_fill(0, 1, &lines, &instr());
        p.on_fill(1, 1, &lines, &instr());
        p.on_fill(1, 0, &lines, &instr());
        assert_eq!(p.victim(0, &lines, &instr()), 0);
        assert_eq!(p.victim(1, &lines, &instr()), 1);
    }

    #[test]
    #[should_panic]
    fn victim_panics_on_all_invalid() {
        let mut p = lru(1, 2);
        let lines = vec![LineState::invalid(); 2];
        p.victim(0, &lines, &instr());
    }

    // Tree PLRU.

    #[test]
    fn untouched_tree_victims_way_zero() {
        let t = PlruTree::new(8);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    fn touch_moves_victim_away() {
        let mut t = PlruTree::new(8);
        t.touch(0);
        assert_ne!(t.victim(), 0);
        // Tree PLRU is approximate, so an untouched way is only guaranteed
        // to be the victim when the path bits still point at it: touching
        // its sibling (4), its cousin subtree (6), then the other half (0)
        // leaves every node on the path directed at way 5.
        let mut t = PlruTree::new(8);
        for w in [4, 6, 0] {
            t.touch(w);
        }
        assert_eq!(t.victim(), 5);
    }

    #[test]
    fn point_to_makes_way_the_victim() {
        let mut t = PlruTree::new(16);
        for w in 0..16 {
            t.touch(w);
        }
        t.point_to(11);
        assert_eq!(t.victim(), 11);
    }

    #[test]
    fn masked_victim_skips_ineligible_subtrees() {
        let mut t = PlruTree::new(8);
        for w in 0..8 {
            t.touch(w);
        }
        // Only ways 2 and 6 eligible.
        let v = t.victim_masked((1 << 2) | (1 << 6)).unwrap();
        assert!(v == 2 || v == 6);
        assert_eq!(t.victim_masked(0), None);
    }

    #[test]
    fn masked_victim_single_way() {
        let t = PlruTree::new(8);
        for w in 0..8 {
            assert_eq!(t.victim_masked(1 << w), Some(w));
        }
    }

    #[test]
    fn recently_touched_way_is_not_victim_under_full_mask() {
        let mut t = PlruTree::new(16);
        let mut state = 0x1234_5678u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let w = (state >> 33) as usize % 16;
            t.touch(w);
            assert_ne!(t.victim(), w, "victim equals just-touched way");
        }
    }

    #[test]
    fn plru_never_evicts_most_recent_among_eligible() {
        let mut t = PlruTree::new(8);
        t.touch(3);
        // 3 was just touched; with >=2 eligible ways, victim must differ.
        let v = t.victim_masked(0b1111_1111).unwrap();
        assert_ne!(v, 3);
    }

    #[test]
    fn victims_only_valid_ways() {
        for base in BASES {
            let mut p = RecencyPolicy::new(base, false, 1, 8);
            let mut lines = full_set(8, LineKind::Instruction);
            lines[0].valid = false;
            // Even though way 0 is the cold way, it's invalid: skip it.
            let v = p.victim(0, &lines, &instr());
            assert_ne!(v, 0, "base {base:?}");
            assert!(lines[v].valid);
        }
    }

    #[test]
    fn ways_one_tree_degenerates() {
        let mut t = PlruTree::new(1);
        t.touch(0);
        assert_eq!(t.victim(), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        PlruTree::new(6);
    }

    #[test]
    fn ways_rule_matches_what_each_base_can_hold() {
        for ways in [1, 2, 16, 32] {
            assert_eq!(RecencyBase::TreePlru.ways_error(ways), None, "{ways}");
        }
        for ways in [1, 12, 24, 32] {
            assert_eq!(RecencyBase::TrueLru.ways_error(ways), None, "{ways}");
        }
        for base in [RecencyBase::TrueLru, RecencyBase::TreePlru] {
            for ways in [0, 33, 64] {
                assert!(base.ways_error(ways).unwrap().contains("1..=32"));
            }
        }
        assert!(RecencyBase::TreePlru
            .ways_error(12)
            .unwrap()
            .contains("power-of-two"));
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn true_lru_rejects_more_ways_than_a_mask_covers() {
        Recency::new(RecencyBase::TrueLru, 1, 1, 33);
    }

    // Two classes.

    #[test]
    fn true_lru_orders_across_classes_consistently() {
        let mut r = Recency::new(RecencyBase::TrueLru, 2, 1, 4);
        r.touch(0, 2, false);
        r.touch(0, 0, true);
        r.touch(0, 3, false);
        r.touch(0, 1, true);
        // Low-class LRU among {2, 3} is 2; high-class among {0, 1} is 0.
        assert_eq!(r.coldest(0, (1 << 2) | (1 << 3), false), Some(2));
        assert_eq!(r.coldest(0, (1 << 0) | (1 << 1), true), Some(0));
        assert_eq!(r.coldest(0, 0, false), None);
    }

    #[test]
    fn tree_classes_are_isolated() {
        let mut r = Recency::new(RecencyBase::TreePlru, 2, 1, 8);
        // High-class touches must not move the low tree.
        for w in 0..8 {
            r.touch(0, w, true);
        }
        // Low tree untouched: victim walk starts at way 0.
        assert_eq!(r.coldest(0, 0xff, false), Some(0));
        // High tree fully touched; its victim is defined but way 7 (last
        // touched) cannot be it.
        assert_ne!(r.coldest(0, 0xff, true), Some(7));
    }

    #[test]
    fn tree_coldest_respects_the_mask() {
        let mut r = Recency::new(RecencyBase::TreePlru, 2, 2, 8);
        r.touch(1, 0, false);
        let v = r.coldest(1, 0b0011_0000, false).unwrap();
        assert!(v == 4 || v == 5);
    }

    #[test]
    fn two_class_sets_are_independent() {
        let mut r = Recency::new(RecencyBase::TrueLru, 2, 2, 2);
        r.touch(0, 0, false);
        r.touch(0, 1, false);
        r.touch(1, 1, false);
        r.touch(1, 0, false);
        assert_eq!(r.coldest(0, 0b11, false), Some(0));
        assert_eq!(r.coldest(1, 0b11, false), Some(1));
    }

    // The `M:` rule.

    #[test]
    fn unresolved_instruction_fill_sits_at_lru() {
        for base in BASES {
            let mut p = RecencyPolicy::new(base, true, 1, 4);
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
        for base in BASES {
            let mut p = RecencyPolicy::new(base, true, 1, 4);
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
        let mut p = RecencyPolicy::new(RecencyBase::TrueLru, true, 1, 4);
        let lines = full_set(4, LineKind::Instruction);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &instr());
            p.on_fill_resolved(0, w, &lines, &instr().with_priority(false));
        }
        // All parked LRU in order; last parked (3) is deepest-LRU.
        assert_eq!(p.victim(0, &lines, &instr()), 3);
    }

    #[test]
    fn plain_policy_ignores_resolution_and_fills_at_mru() {
        for base in BASES {
            let mut p = RecencyPolicy::new(base, false, 1, 4);
            let lines = full_set(4, LineKind::Instruction);
            for w in 0..4 {
                p.on_fill(0, w, &lines, &instr());
                p.on_fill_resolved(0, w, &lines, &instr().with_priority(true));
            }
            assert_ne!(p.victim(0, &lines, &instr()), 3, "base {base:?}");
        }
    }

    #[test]
    fn data_lines_insert_mru_immediately() {
        let mut p = RecencyPolicy::new(RecencyBase::TrueLru, true, 1, 4);
        let lines = full_set(4, LineKind::Data);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &data());
        }
        // Normal MRU insertion: way 0 is LRU.
        assert_eq!(p.victim(0, &lines, &data()), 0);
    }

    #[test]
    fn hits_promote_to_mru() {
        let mut p = RecencyPolicy::new(RecencyBase::TrueLru, true, 1, 4);
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
        let mut p = RecencyPolicy::new(RecencyBase::TrueLru, true, 1, 2);
        let mut lines = full_set(2, LineKind::Instruction);
        p.on_fill(0, 0, &lines, &instr());
        p.on_fill(0, 1, &lines, &instr());
        lines[1].valid = false;
        // Must not panic or corrupt recency.
        p.on_fill_resolved(0, 1, &lines, &instr().with_priority(true));
        lines[1].valid = true;
        assert_eq!(p.victim(0, &lines, &instr()), 1);
    }

    #[test]
    fn names_follow_base_and_rule() {
        let names: Vec<_> = [false, true]
            .into_iter()
            .flat_map(|m| BASES.map(|b| RecencyPolicy::new(b, m, 1, 4).name()))
            .collect();
        assert_eq!(names, ["lru", "tplru", "m-insert(lru)", "m-insert(tplru)"]);
    }
}
