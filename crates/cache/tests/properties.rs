//! Property-based tests for the cache substrate.

use proptest::prelude::*;

use emissary_cache::cache::Cache;
use emissary_cache::config::{CacheConfig, HierarchyConfig};
use emissary_cache::hierarchy::Hierarchy;
use emissary_cache::line::LineKind;
use emissary_cache::policy::{AccessInfo, PlruTree, RecencyBase};

/// Reference model: a plain set of resident lines per (set, line) — used to
/// check the cache's residency bookkeeping against arbitrary op sequences.
#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    Invalidate(u64),
    SetPriority(u64),
}

fn op_strategy(max_line: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..max_line).prop_map(Op::Access),
        1 => (0..max_line).prop_map(Op::Invalidate),
        1 => (0..max_line).prop_map(Op::SetPriority),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any op sequence: at most `ways` valid lines per set, a line
    /// just accessed is resident, and `valid_lines` matches the per-set sum.
    #[test]
    fn cache_residency_invariants(
        ops in proptest::collection::vec(op_strategy(256), 1..400),
    ) {
        let cfg = CacheConfig::new("t", 8 * 4 * 64, 4, 1);
        let policy = RecencyBase::TreePlru.build(cfg.sets(), cfg.ways);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Instruction);
        for op in &ops {
            match *op {
                Op::Access(line) => {
                    if cache.lookup(line, &info).is_none() {
                        cache.fill(line, &info);
                    }
                    prop_assert!(cache.contains(line));
                }
                Op::Invalidate(line) => {
                    cache.invalidate(line);
                    prop_assert!(!cache.contains(line));
                }
                Op::SetPriority(line) => {
                    let found = cache.set_priority(line, true);
                    prop_assert_eq!(found, cache.contains(line));
                }
            }
            for set in 0..cache.sets() {
                let valid = cache.set_slice(set).iter().filter(|l| l.valid).count();
                prop_assert!(valid <= cache.ways());
            }
        }
        let total: usize = (0..cache.sets())
            .map(|s| cache.set_slice(s).iter().filter(|l| l.valid).count())
            .sum();
        prop_assert_eq!(total, cache.valid_lines());
    }

    /// True LRU never evicts the most recently accessed line of a set.
    #[test]
    fn lru_never_evicts_most_recent(
        accesses in proptest::collection::vec(0u64..64, 2..200),
    ) {
        let cfg = CacheConfig::new("t", 4 * 4 * 64, 4, 1);
        let policy = RecencyBase::TrueLru.build(cfg.sets(), cfg.ways);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Data);
        let mut last: Option<u64> = None;
        for &line in &accesses {
            if cache.lookup(line, &info).is_none() {
                let out = cache.fill(line, &info);
                if let (Some(prev), Some(evicted)) = (last, out.evicted) {
                    prop_assert_ne!(
                        evicted.tag, prev,
                        "evicted the immediately preceding access"
                    );
                }
            }
            last = Some(line);
        }
    }

    /// PLRU tree: the victim is always inside the eligibility mask, and a
    /// just-touched way is never the victim while >= 2 ways are eligible.
    #[test]
    fn plru_victim_respects_mask(
        touches in proptest::collection::vec(0usize..16, 1..200),
        mask in 1u32..0xffff,
    ) {
        let mut tree = PlruTree::new(16);
        for &w in &touches {
            tree.touch(w);
            if mask.count_ones() >= 2 {
                if let Some(v) = tree.victim_masked(mask) {
                    prop_assert!(mask & (1 << v) != 0, "victim outside mask");
                    if mask & (1 << w) != 0 && mask.count_ones() >= 2 {
                        prop_assert_ne!(v, w, "victim equals just-touched way");
                    }
                }
            }
        }
        let v = tree.victim_masked(mask);
        prop_assert!(v.is_some());
        prop_assert!(mask & (1 << v.unwrap()) != 0);
    }

    /// Hierarchy invariants hold under arbitrary interleaved traffic:
    /// inclusion (L1 ⊆ L2) and L2/L3 exclusivity.
    #[test]
    fn hierarchy_invariants_under_traffic(
        ops in proptest::collection::vec((0u64..3, 0u64..128), 1..300),
        seed in 0u64..100,
    ) {
        let cfg = HierarchyConfig {
            l1i: CacheConfig::new("l1i", 2 * 2 * 64, 2, 2),
            l1d: CacheConfig::new("l1d", 2 * 2 * 64, 2, 2),
            l2: CacheConfig::new("l2", 4 * 4 * 64, 4, 12),
            l3: CacheConfig::new("l3", 8 * 4 * 64, 4, 32),
            dram_latency: 100,
            l1d_nlp: seed % 2 == 0,
            l2_nlp: seed % 3 == 0,
            l3_nlp: seed % 5 == 0,
            ideal_l2_instr: false,
            seed,
        };
        let policy = RecencyBase::TreePlru.build(cfg.l2.sets(), cfg.l2.ways);
        let mut h = Hierarchy::with_l2_policy(cfg, policy);
        let mut now = 0;
        for &(kind, addr) in &ops {
            now += 5;
            match kind {
                0 => {
                    h.access_instr(addr, now, false);
                }
                1 => {
                    h.access_data(0x1000 + addr, now, false, false);
                }
                _ => {
                    h.access_data(0x1000 + addr, now, true, false);
                }
            }
        }
        prop_assert!(h.check_inclusion(), "inclusion violated");
        prop_assert!(h.check_exclusivity(), "exclusivity violated");
    }

    /// `ready_at` is monotone in the serving level: an access can never be
    /// ready before its hit latency, and a memory access never beats L2.
    #[test]
    fn access_latency_sane(addrs in proptest::collection::vec(0u64..512, 1..200)) {
        let cfg = HierarchyConfig::alderlake_like();
        let policy = RecencyBase::TreePlru.build(cfg.l2.sets(), cfg.l2.ways);
        let l1_lat = cfg.l1i.hit_latency;
        let mut h = Hierarchy::with_l2_policy(cfg, policy);
        let mut now = 0;
        for &a in &addrs {
            now += 200; // past any outstanding miss
            let m = h.access_instr(a, now, false);
            prop_assert!(m.ready_at >= now + l1_lat);
            prop_assert!(m.ready_at <= now + 150);
        }
    }
}
