//! Cost-aware *data-cache* replacement policies from the paper's related
//! work (§7.1), approximated for comparison:
//!
//! * [`LinPolicy`] — MLP-aware LIN (Qureshi et al., ISCA 2006): misses that
//!   occur with little memory-level parallelism are costlier; the victim
//!   choice is recency biased by a per-line cost estimated from the number
//!   of outstanding misses when the line was filled
//!   ([`AccessInfo::outstanding_misses`]).
//! * [`LacsPolicy`] — LACS (Kharbutli & Sheikh, IEEE TC 2014): cost is
//!   derived from how long the fill took ([`AccessInfo::fill_latency`]; the
//!   original counts instructions issued under the miss) and adjusted by
//!   reference behaviour after insertion.
//!
//! Both are faithful to the *shape* of the original proposals — cost
//! estimation hardware replaced by the simulator's equivalents — and exist
//! so the reproduction can demonstrate the paper's claim that data-oriented
//! cost-aware policies do not transfer to instruction caching.

use crate::line::LineState;
use crate::policy::{AccessInfo, Recency, RecencyBase, ReplacementPolicy};

/// Maximum per-line cost value (3 bits).
const COST_MAX: u8 = 7;

/// MLP-aware LIN approximation. See module docs.
#[derive(Debug)]
pub struct LinPolicy {
    ways: usize,
    base: Recency,
    cost: Vec<u8>,
    /// Weight of cost relative to one recency-rank step.
    lambda: usize,
}

impl LinPolicy {
    /// Creates LIN state for `sets` x `ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            base: Recency::new(RecencyBase::TrueLru, 1, sets, ways),
            cost: vec![0; sets * ways],
            lambda: 2,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for LinPolicy {
    fn name(&self) -> &'static str {
        "lin"
    }

    fn on_hit(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        self.base.touch(set, way, false);
    }

    fn on_fill(&mut self, set: usize, way: usize, _lines: &[LineState], info: &AccessInfo) {
        // Isolated misses (few outstanding) are the costly ones (no MLP to
        // amortize them): cost = COST_MAX - min(outstanding, COST_MAX).
        let i = self.idx(set, way);
        self.cost[i] = COST_MAX - info.outstanding_misses.min(COST_MAX);
        self.base.touch(set, way, false);
    }

    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        // Rank valid ways by recency (0 = LRU) in the order repeated
        // `coldest` queries would give, (stamp, way), then pick the
        // lowest rank plus cost bias; ties go to the lower way.
        let mut order: Vec<usize> = (0..lines.len()).filter(|&w| lines[w].valid).collect();
        order.sort_unstable_by_key(|&w| (self.base.stamp(set, w), w));
        let biased = |(rank, &w): (usize, &usize)| {
            (rank + self.lambda * self.cost[self.idx(set, w)] as usize, w)
        };
        let (_, victim) = order
            .iter()
            .enumerate()
            .map(biased)
            .min()
            .expect("victim() requires at least one valid line");
        victim
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.cost[i] = 0;
    }
}

/// LACS approximation. See module docs.
#[derive(Debug)]
pub struct LacsPolicy {
    ways: usize,
    base: Recency,
    cost: Vec<u8>,
}

impl LacsPolicy {
    /// Creates LACS state for `sets` x `ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            base: Recency::new(RecencyBase::TrueLru, 1, sets, ways),
            cost: vec![0; sets * ways],
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }
}

impl ReplacementPolicy for LacsPolicy {
    fn name(&self) -> &'static str {
        "lacs"
    }

    fn on_hit(&mut self, set: usize, way: usize, _lines: &[LineState], _info: &AccessInfo) {
        // Reuse raises a line's value (LACS's reference adjustment).
        let i = self.idx(set, way);
        self.cost[i] = (self.cost[i] + 1).min(COST_MAX);
        self.base.touch(set, way, false);
    }

    fn on_fill(&mut self, set: usize, way: usize, _lines: &[LineState], info: &AccessInfo) {
        // Longer fills are costlier to lose (the core covered fewer
        // instructions under them).
        let i = self.idx(set, way);
        self.cost[i] = ((info.fill_latency / 32) as u8).min(COST_MAX);
        self.base.touch(set, way, false);
    }

    fn victim(&mut self, set: usize, lines: &[LineState], _info: &AccessInfo) -> usize {
        // Lowest cost first; recency (true LRU) breaks ties.
        let cost = |w: usize| self.cost[self.idx(set, w)];
        let min_cost = (0..lines.len())
            .filter(|&w| lines[w].valid)
            .map(cost)
            .min()
            .expect("victim() requires at least one valid line");
        let cheapest = (0..lines.len())
            .filter(|&w| lines[w].valid && cost(w) == min_cost)
            .fold(0u32, |m, w| m | (1 << w));
        self.base
            .coldest(set, cheapest, false)
            .expect("some way has the minimum cost")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        let i = self.idx(set, way);
        self.cost[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;

    fn lines(n: usize) -> Vec<LineState> {
        (0..n)
            .map(|i| LineState {
                tag: i as u64,
                valid: true,
                kind: LineKind::Data,
                ..LineState::invalid()
            })
            .collect()
    }

    fn info() -> AccessInfo {
        AccessInfo::demand(LineKind::Data)
    }

    #[test]
    fn lin_prefers_evicting_high_mlp_fills() {
        let mut p = LinPolicy::new(1, 4);
        let ls = lines(4);
        // Way 0: isolated miss (cost 7); ways 1-3: high MLP (cost 0).
        let mut isolated = info();
        isolated.outstanding_misses = 0;
        let mut mlp = info();
        mlp.outstanding_misses = COST_MAX;
        p.on_fill(0, 0, &ls, &isolated);
        for w in 1..4 {
            p.on_fill(0, w, &ls, &mlp);
        }
        // Way 0 is oldest AND costly: bias keeps it; way 1 (cheap, old) goes.
        assert_eq!(p.victim(0, &ls, &info()), 1);
    }

    #[test]
    fn lin_degenerates_to_lru_for_equal_costs() {
        let mut p = LinPolicy::new(1, 4);
        let ls = lines(4);
        for w in 0..4 {
            p.on_fill(0, w, &ls, &info());
        }
        assert_eq!(p.victim(0, &ls, &info()), 0);
    }

    /// LIN's victim as first written: rank by repeated `coldest`
    /// queries over the remaining ways, then a stable sort by rank plus
    /// cost bias.
    fn reference_lin_victim(p: &LinPolicy, set: usize, lines: &[LineState]) -> usize {
        let mut order: Vec<usize> = (0..lines.len()).filter(|&w| lines[w].valid).collect();
        let mut rank = vec![0usize; lines.len()];
        let mut remaining: Vec<usize> = order.clone();
        let mut r = 0;
        while !remaining.is_empty() {
            let mask = remaining.iter().fold(0u32, |m, &w| m | (1 << w));
            let v = p
                .base
                .coldest(set, mask, false)
                .expect("non-empty remaining");
            rank[v] = r;
            r += 1;
            remaining.retain(|&w| w != v);
        }
        order.sort_by_key(|&w| rank[w] + p.lambda * p.cost[p.idx(set, w)] as usize);
        order[0]
    }

    #[test]
    fn lin_victim_matches_the_repeated_lru_reference() {
        use crate::rng::XorShift64;
        const SETS: usize = 4;
        const WAYS: usize = 8;
        let mut rng = XorShift64::new(0x11_7a_c0);
        let mut p = LinPolicy::new(SETS, WAYS);
        let mut ls: Vec<Vec<LineState>> = (0..SETS).map(|_| lines(WAYS)).collect();
        let mut checked = 0;
        for _ in 0..20_000 {
            let set = rng.next_below(SETS as u64) as usize;
            let way = rng.next_below(WAYS as u64) as usize;
            let mut access = info();
            access.outstanding_misses = rng.next_below(10) as u8;
            match rng.next_below(6) {
                0 | 1 => p.on_fill(set, way, &ls[set], &access),
                2 => p.on_hit(set, way, &ls[set], &access),
                3 => p.base.demote(set, way),
                4 => {
                    // Invalid ways leave the ranking; keep one valid.
                    let valid = ls[set].iter().filter(|l| l.valid).count();
                    if ls[set][way].valid && valid > 1 {
                        ls[set][way].valid = false;
                        p.on_invalidate(set, way);
                    } else {
                        ls[set][way].valid = true;
                        p.on_fill(set, way, &ls[set], &access);
                    }
                }
                _ => {
                    let expected = reference_lin_victim(&p, set, &ls[set]);
                    assert_eq!(p.victim(set, &ls[set], &info()), expected);
                    checked += 1;
                }
            }
        }
        assert!(checked > 3_000);
    }

    #[test]
    fn lacs_keeps_expensive_fills() {
        let mut p = LacsPolicy::new(1, 2);
        let ls = lines(2);
        let mut slow = info();
        slow.fill_latency = 150;
        let mut fast = info();
        fast.fill_latency = 12;
        p.on_fill(0, 0, &ls, &slow);
        p.on_fill(0, 1, &ls, &fast);
        assert_eq!(p.victim(0, &ls, &info()), 1, "cheap fill goes first");
    }

    #[test]
    fn lacs_reuse_raises_value() {
        let mut p = LacsPolicy::new(1, 2);
        let ls = lines(2);
        let mut fast = info();
        fast.fill_latency = 12;
        p.on_fill(0, 0, &ls, &fast);
        p.on_fill(0, 1, &ls, &fast);
        for _ in 0..3 {
            p.on_hit(0, 0, &ls, &info());
        }
        assert_eq!(p.victim(0, &ls, &info()), 1);
    }

    #[test]
    fn invalidate_clears_cost() {
        let mut p = LacsPolicy::new(1, 2);
        let ls = lines(2);
        let mut slow = info();
        slow.fill_latency = 200;
        p.on_fill(0, 0, &ls, &slow);
        p.on_invalidate(0, 0);
        assert_eq!(p.cost[0], 0);
        let _ = ls;
    }
}
