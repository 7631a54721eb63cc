//! The EMISSARY `P(N)` replacement policy (paper §4.2, Algorithm 1).
//!
//! `P(N)` "techniques do not act on priority at insertion. Instead, the
//! priority is recorded as a priority bit (`P`) associated with each line
//! that impacts eviction":
//!
//! ```text
//! if number of high-priority (P = 1) lines <= N then
//!     evict the LRU among the low-priority (P = 0) lines
//! else
//!     evict the LRU among high-priority lines
//! ```
//!
//! The `P` bits themselves live in the cache's [`LineState`]; they are set
//! by the starvation plumbing (L1I marks on selected misses, the bit
//! transfers to the L2 copy on L1I eviction) and are *persistent*: once a
//! set accumulates `N` high-priority lines it can go below `N` only through
//! invalidations or the §6 reset mechanism.
//!
//! This is the only `P(N)` implementation. Its variants are options on it:
//! §2's rejected bypass ([`EmissaryPolicy::with_bypass`]), §7.2's GHRP
//! combination ([`EmissaryPolicy::with_dead_block_prediction`]), and
//! standalone GHRP ([`EmissaryPolicy::ghrp`]).

use emissary_obs::{TraceEvent, Tracer};

use crate::line::LineState;
use crate::policy::ghrp::DeadBlocks;
use crate::policy::{AccessInfo, Recency, RecencyBase, ReplacementPolicy};

/// The EMISSARY `P(N)` eviction policy. See module docs.
#[derive(Debug)]
pub struct EmissaryPolicy {
    n_protect: usize,
    /// One recency order per priority class (§4.2).
    recency: Recency,
    display_name: &'static str,
    /// §2's rejected variant: low-priority fills bypass the cache once the
    /// set holds `n_protect` high-priority lines. "Having low-priority
    /// lines bypass the cache was not found to be effective" — kept to
    /// reproduce that negative result.
    bypass_saturated: bool,
    /// §7.2's GHRP refinement: within Algorithm 1's class, predicted-dead
    /// lines are preferred victims.
    dead_blocks: Option<DeadBlocks>,
    /// Observability handle; emits one `Protect` event per Algorithm 1
    /// victim decision when enabled.
    tracer: Tracer,
}

impl EmissaryPolicy {
    /// Creates a `P(n_protect)` policy for `sets` x `ways`.
    ///
    /// `display_name` is the full notation (e.g. `"P(8):S&E&R(1/32)"`) so
    /// reports show the complete policy, selection included.
    ///
    /// # Panics
    ///
    /// Panics if `n_protect >= ways`: at least one way must remain available
    /// to low-priority lines, since all insertions start low-priority.
    pub fn new(
        n_protect: usize,
        base: RecencyBase,
        sets: usize,
        ways: usize,
        display_name: &'static str,
    ) -> Self {
        assert!(
            n_protect < ways,
            "P(N) requires N < ways (got N = {n_protect}, ways = {ways})"
        );
        Self {
            n_protect,
            recency: Recency::new(base, 2, sets, ways),
            display_name,
            bypass_saturated: false,
            dead_blocks: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Standalone GHRP (§7.2 related work): dead-block prediction over
    /// tree-PLRU at `N = 0`. Its selection marks no line, so Algorithm 1's
    /// low class is the whole set.
    pub fn ghrp(sets: usize, ways: usize) -> Self {
        Self::new(0, RecencyBase::TreePlru, sets, ways, "ghrp").with_dead_block_prediction()
    }

    /// Enables the §2 bypass variant (see the `bypass_saturated` field).
    pub fn with_bypass(mut self) -> Self {
        self.bypass_saturated = true;
        self
    }

    /// Enables §7.2's GHRP refinement: a compact dead-block predictor
    /// trained on whether evicted lines were reused.
    pub fn with_dead_block_prediction(mut self) -> Self {
        self.dead_blocks = Some(DeadBlocks::new(self.recency.sets(), self.recency.ways()));
        self
    }

    /// Maximum number of protected high-priority lines per set.
    pub fn n_protect(&self) -> usize {
        self.n_protect
    }

    /// The coldest way of `mask` in class `high`, narrowed to its
    /// predicted-dead ways when the GHRP refinement is on.
    fn coldest(&self, set: usize, mask: u32, high: bool) -> Option<usize> {
        let mask = match &self.dead_blocks {
            Some(dead) => dead.narrow(set, mask),
            None => mask,
        };
        self.recency.coldest(set, mask, high)
    }
}

impl ReplacementPolicy for EmissaryPolicy {
    fn name(&self) -> &'static str {
        self.display_name
    }

    fn on_hit(&mut self, set: usize, way: usize, lines: &[LineState], _info: &AccessInfo) {
        if let Some(dead) = &mut self.dead_blocks {
            dead.on_hit(set, way);
        }
        // "When a high-priority line is accessed, only the high-priority
        // tree is updated. Likewise for a low-priority line and tree."
        self.recency.touch(set, way, lines[way].priority);
    }

    fn on_fill(&mut self, set: usize, way: usize, lines: &[LineState], _info: &AccessInfo) {
        if let Some(dead) = &mut self.dead_blocks {
            dead.on_fill(set, way, lines[way].tag);
        }
        self.recency.touch(set, way, lines[way].priority);
    }

    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        let (mut high, mut low) = (0u32, 0u32);
        for (w, l) in lines.iter().enumerate().filter(|(_, l)| l.valid) {
            if l.priority {
                high |= 1 << w;
            } else {
                low |= 1 << w;
            }
        }
        let high_count = high.count_ones();
        // Algorithm 1, with a fallback to the other class in case the
        // preferred one is empty (possible only via invalidations or N edge
        // cases).
        let protecting = high_count as usize <= self.n_protect;
        let (first, second) = if protecting {
            ((low, false), (high, true))
        } else {
            ((high, true), (low, false))
        };
        let victim = self
            .coldest(set, first.0, first.1)
            .or_else(|| self.coldest(set, second.0, second.1))
            .expect("victim() requires at least one valid line");
        if let Some(dead) = &mut self.dead_blocks {
            dead.on_evict(set, victim);
        }
        self.tracer.emit_with(|cycle| TraceEvent::Protect {
            cycle,
            set: set as u32,
            high_lines: high_count,
            protected: protecting,
        });
        victim
    }

    fn should_bypass(&mut self, _set: usize, lines: &[LineState], info: &AccessInfo) -> bool {
        if !self.bypass_saturated || !info.kind.is_instruction() || info.high_priority {
            return false;
        }
        // Bypass low-priority instruction fills once the set is saturated
        // with protected lines and completely valid.
        let high = lines.iter().filter(|l| l.is_high_priority()).count();
        high >= self.n_protect && lines.iter().all(|l| l.valid)
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        if let Some(dead) = &mut self.dead_blocks {
            dead.on_evict(set, way);
        }
    }

    fn on_priority_change(&mut self, set: usize, way: usize, lines: &[LineState]) {
        // The line migrated classes (normally low -> high when the L1I
        // communicates P on eviction): refresh it in its new class's
        // structure so it starts as that class's MRU.
        self.recency.touch(set, way, lines[way].priority);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn audit_set(&self, set: usize, lines: &[LineState]) -> Option<String> {
        // N < ways is the constructor invariant: every insertion starts
        // low-priority, so at least one way must be claimable by them.
        if self.n_protect >= lines.len() {
            return Some(format!(
                "n_protect = {} does not leave a low-priority way in a {}-way set",
                self.n_protect,
                lines.len()
            ));
        }
        // The recency structure must be sized to the cache it serves.
        if self.recency.ways() != lines.len() {
            return Some(format!(
                "recency sized for {} ways but the set has {}",
                self.recency.ways(),
                lines.len()
            ));
        }
        if set >= self.recency.sets() {
            return Some(format!(
                "recency covers {} sets but was asked about set {set}",
                self.recency.sets()
            ));
        }
        // No count-vs-N check here: P bits are persistent and not capped at
        // mark time (Algorithm 1's over-N branch exists precisely because
        // sets saturate, §6), so high-priority occupancy above N between
        // evictions is legal state, bounded only by the associativity.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;

    fn mk_lines(priorities: &[Option<bool>]) -> Vec<LineState> {
        priorities
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                Some(high) => LineState {
                    tag: i as u64,
                    valid: true,
                    kind: LineKind::Instruction,
                    priority: *high,
                    ..LineState::invalid()
                },
                None => LineState::invalid(),
            })
            .collect()
    }

    fn policy(n: usize, ways: usize) -> EmissaryPolicy {
        EmissaryPolicy::new(
            n,
            RecencyBase::TrueLru,
            1,
            ways,
            crate::policy::intern_name(&format!("P({n}):test")),
        )
    }

    fn info() -> AccessInfo {
        AccessInfo::demand(LineKind::Instruction)
    }

    #[test]
    fn protects_high_priority_when_under_limit() {
        let mut p = policy(2, 4);
        let lines = mk_lines(&[Some(true), Some(false), Some(true), Some(false)]);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        // 2 high-priority lines <= N = 2: must evict a low-priority line,
        // specifically the LRU one (way 1 filled before way 3).
        assert_eq!(p.victim(0, &lines, &info()), 1);
    }

    #[test]
    fn evicts_high_priority_lru_when_over_limit() {
        let mut p = policy(2, 4);
        let lines = mk_lines(&[Some(true), Some(true), Some(true), Some(false)]);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        // 3 high > N = 2: evict LRU among high (way 0).
        assert_eq!(p.victim(0, &lines, &info()), 0);
    }

    #[test]
    fn boundary_exactly_n_still_protects() {
        let mut p = policy(3, 4);
        let lines = mk_lines(&[Some(true), Some(true), Some(true), Some(false)]);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        // high_count == N: condition is <=, so low-priority way 3 goes.
        assert_eq!(p.victim(0, &lines, &info()), 3);
    }

    #[test]
    fn falls_back_when_preferred_class_empty() {
        let mut p = policy(3, 4);
        // All high but count (4) > N (3): evict among high — fine. Now all
        // high with count <= N can only happen with invalid ways, and then
        // victim() isn't called. Exercise the other fallback: no high lines
        // with the over-limit branch can't happen; instead check all-high
        // under-limit via N = 3 and 3 valid high lines + 1 invalid.
        let lines = mk_lines(&[Some(true), Some(true), Some(true), None]);
        for w in 0..3 {
            p.on_fill(0, w, &lines, &info());
        }
        // 3 high <= 3, no low-priority line exists: falls back to high LRU.
        assert_eq!(p.victim(0, &lines, &info()), 0);
    }

    #[test]
    fn hit_refreshes_only_its_class() {
        let mut p = policy(2, 4);
        let lines = mk_lines(&[Some(false), Some(false), Some(true), Some(true)]);
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        p.on_hit(0, 0, &lines, &info());
        // Low LRU is now way 1.
        assert_eq!(p.victim(0, &lines, &info()), 1);
    }

    #[test]
    fn priority_change_moves_line_to_high_class() {
        let mut p = policy(1, 2);
        let mut lines = mk_lines(&[Some(false), Some(false)]);
        p.on_fill(0, 0, &lines, &info());
        p.on_fill(0, 1, &lines, &info());
        lines[0].priority = true;
        p.on_priority_change(0, 0, &lines);
        // One high (way 0) <= N = 1: evict LRU among low = way 1.
        assert_eq!(p.victim(0, &lines, &info()), 1);
    }

    #[test]
    fn data_lines_participate_as_low_priority() {
        let mut p = policy(2, 4);
        let mut lines = mk_lines(&[Some(true), Some(true), Some(false), Some(false)]);
        lines[2].kind = LineKind::Data;
        lines[3].kind = LineKind::Data;
        for w in 0..4 {
            p.on_fill(0, w, &lines, &info());
        }
        let v = p.victim(0, &lines, &info());
        assert!(
            v == 2 || v == 3,
            "data (low-priority) line expected, got {v}"
        );
    }

    #[test]
    fn tplru_flavor_respects_algorithm_one() {
        let mut p = EmissaryPolicy::new(2, RecencyBase::TreePlru, 1, 8, "P(2):tplru-test");
        let lines = mk_lines(&[
            Some(true),
            Some(false),
            Some(true),
            Some(false),
            Some(false),
            Some(false),
            Some(false),
            Some(true),
        ]);
        for w in 0..8 {
            p.on_fill(0, w, &lines, &info());
        }
        // 3 high > N = 2: victim must be high-priority.
        let v = p.victim(0, &lines, &info());
        assert!(lines[v].priority, "victim {v} should be high-priority");
    }

    #[test]
    fn name_carries_full_notation() {
        let p = policy(8, 16);
        assert_eq!(p.name(), "P(8):test");
        assert_eq!(p.n_protect(), 8);
    }

    #[test]
    #[should_panic]
    fn rejects_n_equal_ways() {
        policy(4, 4);
    }

    #[test]
    fn audit_accepts_consistent_state_and_catches_mis_sizing() {
        let p = policy(2, 4);
        let lines = mk_lines(&[Some(true), Some(false), Some(true), Some(false)]);
        assert_eq!(p.audit_set(0, &lines), None);
        // Saturation above N is legal standing state, not a violation.
        let saturated = mk_lines(&[Some(true), Some(true), Some(true), Some(true)]);
        assert_eq!(p.audit_set(0, &saturated), None);
        // A set the recency structure does not cover is a violation.
        assert!(p.audit_set(5, &lines).unwrap().contains("covers 1 sets"));
        // A slice of the wrong width is a violation.
        let narrow = mk_lines(&[Some(true), Some(false), Some(false)]);
        assert!(p
            .audit_set(0, &narrow)
            .unwrap()
            .contains("sized for 4 ways"));
        // As is an N that no longer fits the slice it is audited against.
        let tiny = mk_lines(&[Some(false), Some(false)]);
        assert!(p.audit_set(0, &tiny).unwrap().contains("low-priority way"));
    }
}

#[cfg(test)]
mod dead_block_tests {
    use super::*;
    use crate::line::LineKind;

    fn lines(n: usize) -> Vec<LineState> {
        (0..n)
            .map(|i| LineState {
                tag: 0x1000 + i as u64,
                valid: true,
                kind: LineKind::Instruction,
                ..LineState::invalid()
            })
            .collect()
    }

    fn info() -> AccessInfo {
        AccessInfo::demand(LineKind::Instruction)
    }

    /// Trains `way`'s fill signature dead: two evictions without a hit.
    fn train_dead(p: &mut EmissaryPolicy, way: usize) {
        let dead = p.dead_blocks.as_mut().expect("dead-block prediction on");
        dead.on_evict(0, way);
        dead.on_evict(0, way);
    }

    #[test]
    fn ghrp_prefers_predicted_dead_victims() {
        let mut p = EmissaryPolicy::ghrp(1, 4);
        assert_eq!(p.name(), "ghrp");
        let ls = lines(4);
        for w in 0..4 {
            p.on_fill(0, w, &ls, &info());
        }
        train_dead(&mut p, 2);
        // Touch everything else so recency alone would pick way 2 last.
        for w in [0, 1, 3] {
            p.on_hit(0, w, &ls, &info());
        }
        assert_eq!(p.victim(0, &ls, &info()), 2);
    }

    #[test]
    fn ghrp_falls_back_to_recency_when_nothing_dead() {
        let mut p = EmissaryPolicy::ghrp(1, 4);
        let ls = lines(4);
        for w in 0..4 {
            p.on_fill(0, w, &ls, &info());
        }
        p.on_hit(0, 0, &ls, &info());
        let v = p.victim(0, &ls, &info());
        assert_ne!(v, 0, "the most recent touch is never the PLRU victim");
    }

    #[test]
    fn combo_respects_algorithm_one_classes() {
        let mut p = EmissaryPolicy::new(2, RecencyBase::TreePlru, 1, 4, "P(2):S+GHRP")
            .with_dead_block_prediction();
        let mut ls = lines(4);
        ls[0].priority = true;
        ls[1].priority = true;
        ls[2].priority = true; // 3 high > N = 2
        for w in 0..4 {
            p.on_fill(0, w, &ls, &info());
        }
        // Way 3 is predicted dead, but the over-limit branch evicts high.
        train_dead(&mut p, 3);
        let v = p.victim(0, &ls, &info());
        assert!(
            ls[v].priority,
            "over-limit eviction must come from high class"
        );

        let mut ls2 = lines(4);
        ls2[0].priority = true; // 1 high <= N = 2
        for w in 0..4 {
            p.on_fill(0, w, &ls2, &info());
        }
        train_dead(&mut p, 0);
        let v = p.victim(0, &ls2, &info());
        assert!(
            !ls2[v].priority,
            "under-limit eviction must come from low class"
        );
    }

    #[test]
    fn combo_prefers_dead_low_priority_lines() {
        let mut p = EmissaryPolicy::new(1, RecencyBase::TrueLru, 1, 4, "P(1):S+GHRP")
            .with_dead_block_prediction();
        let mut ls = lines(4);
        ls[0].priority = true;
        for w in 0..4 {
            p.on_fill(0, w, &ls, &info());
        }
        // Recency alone would evict way 1 (oldest low-priority line).
        train_dead(&mut p, 3);
        assert_eq!(p.victim(0, &ls, &info()), 3);
    }

    #[test]
    fn invalidation_and_eviction_train_the_predictor() {
        let mut p = EmissaryPolicy::ghrp(1, 2);
        let ls = lines(2);
        p.on_fill(0, 0, &ls, &info());
        p.on_fill(0, 1, &ls, &info());
        // Way 0 leaves unreused twice: once invalidated, once evicted.
        p.on_invalidate(0, 0);
        p.on_hit(0, 1, &ls, &info());
        assert_eq!(p.victim(0, &ls, &info()), 0);
        assert_eq!(
            p.dead_blocks.as_ref().unwrap().narrow(0, 0b11),
            0b01,
            "way 0's signature must now predict dead"
        );
    }
}

#[cfg(test)]
mod bypass_tests {
    use super::*;
    use crate::line::LineKind;

    fn full(high_count: usize, ways: usize) -> Vec<LineState> {
        (0..ways)
            .map(|i| LineState {
                tag: i as u64,
                valid: true,
                kind: LineKind::Instruction,
                priority: i < high_count,
                ..LineState::invalid()
            })
            .collect()
    }

    #[test]
    fn bypass_only_when_saturated_and_enabled() {
        let info = AccessInfo::demand(LineKind::Instruction);
        let mut plain = EmissaryPolicy::new(2, RecencyBase::TrueLru, 1, 4, "p");
        assert!(!plain.should_bypass(0, &full(4, 4), &info));
        let mut byp = EmissaryPolicy::new(2, RecencyBase::TrueLru, 1, 4, "p").with_bypass();
        assert!(byp.should_bypass(0, &full(2, 4), &info));
        assert!(!byp.should_bypass(0, &full(1, 4), &info));
        // High-priority fills and data fills always insert.
        assert!(!byp.should_bypass(0, &full(2, 4), &info.with_priority(true)));
        assert!(!byp.should_bypass(0, &full(2, 4), &AccessInfo::demand(LineKind::Data)));
    }

    #[test]
    fn bypass_requires_full_set() {
        let mut byp = EmissaryPolicy::new(1, RecencyBase::TrueLru, 1, 4, "p").with_bypass();
        let mut lines = full(2, 4);
        lines[3].valid = false;
        let info = AccessInfo::demand(LineKind::Instruction);
        assert!(!byp.should_bypass(0, &lines, &info));
    }
}
