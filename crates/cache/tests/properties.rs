//! Property tests for the cache substrate: each runs a fixed number of
//! cases drawn from a fixed-seed xorshift64*.

use emissary_cache::cache::Cache;
use emissary_cache::config::{CacheConfig, HierarchyConfig};
use emissary_cache::hierarchy::Hierarchy;
use emissary_cache::line::LineKind;
use emissary_cache::policy::{AccessInfo, PlruTree, RecencyBase};
use emissary_cache::rng::XorShift64;

const CASES: u32 = 64;

/// After any op sequence (access, invalidate and set-priority, weighted
/// 4:1:1): at most `ways` valid lines per set, a line just accessed is
/// resident, and `valid_lines` matches the per-set sum.
#[test]
fn cache_residency_invariants() {
    let mut rng = XorShift64::new(1);
    for case in 0..CASES {
        let cfg = CacheConfig::new("t", 8 * 4 * 64, 4, 1);
        let policy = RecencyBase::TreePlru.build(cfg.sets(), cfg.ways);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Instruction);
        for _ in 0..1 + rng.next_below(399) {
            let op = rng.next_below(6);
            let line = rng.next_below(256);
            match op {
                0..4 => {
                    if cache.lookup(line, &info).is_none() {
                        cache.fill(line, &info);
                    }
                    assert!(cache.contains(line), "case {case}: access {line}");
                }
                4 => {
                    cache.invalidate(line);
                    assert!(!cache.contains(line), "case {case}: invalidate {line}");
                }
                _ => {
                    let found = cache.set_priority(line, true);
                    assert_eq!(found, cache.contains(line), "case {case}: priority {line}");
                }
            }
            for set in 0..cache.sets() {
                let valid = cache.set_slice(set).iter().filter(|l| l.valid).count();
                assert!(valid <= cache.ways(), "case {case}: set {set}");
            }
        }
        let total: usize = (0..cache.sets())
            .map(|s| cache.set_slice(s).iter().filter(|l| l.valid).count())
            .sum();
        assert_eq!(total, cache.valid_lines(), "case {case}");
    }
}

/// True LRU never evicts the most recently accessed line of a set.
#[test]
fn lru_never_evicts_most_recent() {
    let mut rng = XorShift64::new(2);
    for case in 0..CASES {
        let cfg = CacheConfig::new("t", 4 * 4 * 64, 4, 1);
        let policy = RecencyBase::TrueLru.build(cfg.sets(), cfg.ways);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Data);
        let mut last: Option<u64> = None;
        for _ in 0..2 + rng.next_below(198) {
            let line = rng.next_below(64);
            if cache.lookup(line, &info).is_none() {
                let out = cache.fill(line, &info);
                if let (Some(prev), Some(evicted)) = (last, out.evicted) {
                    assert_ne!(
                        evicted.tag, prev,
                        "case {case}: evicted the immediately preceding access"
                    );
                }
            }
            last = Some(line);
        }
    }
}

/// PLRU tree: the victim is always inside the eligibility mask, and a
/// just-touched way is never the victim while >= 2 ways are eligible.
#[test]
fn plru_victim_respects_mask() {
    let mut rng = XorShift64::new(3);
    for case in 0..CASES {
        let touches = 1 + rng.next_below(199);
        let mask = 1 + rng.next_below(0xfffe) as u32;
        let mut tree = PlruTree::new(16);
        for _ in 0..touches {
            let w = rng.next_below(16) as usize;
            tree.touch(w);
            if mask.count_ones() >= 2 {
                if let Some(v) = tree.victim_masked(mask) {
                    assert!(mask & (1 << v) != 0, "case {case}: victim outside mask");
                    if mask & (1 << w) != 0 {
                        assert_ne!(v, w, "case {case}: victim equals just-touched way");
                    }
                }
            }
        }
        let v = tree.victim_masked(mask);
        assert!(
            v.is_some_and(|v| mask & (1 << v) != 0),
            "case {case}: {v:?} outside {mask:#x}"
        );
    }
}

/// Hierarchy invariants hold under arbitrary interleaved traffic:
/// inclusion (L1 ⊆ L2) and L2/L3 exclusivity.
#[test]
fn hierarchy_invariants_under_traffic() {
    let mut rng = XorShift64::new(4);
    for case in 0..CASES {
        let ops = 1 + rng.next_below(299);
        let seed = rng.next_below(100);
        let cfg = HierarchyConfig {
            l1i: CacheConfig::new("l1i", 2 * 2 * 64, 2, 2),
            l1d: CacheConfig::new("l1d", 2 * 2 * 64, 2, 2),
            l2: CacheConfig::new("l2", 4 * 4 * 64, 4, 12),
            l3: CacheConfig::new("l3", 8 * 4 * 64, 4, 32),
            dram_latency: 100,
            l1d_nlp: seed.is_multiple_of(2),
            l2_nlp: seed.is_multiple_of(3),
            l3_nlp: seed.is_multiple_of(5),
            ideal_l2_instr: false,
            seed,
        };
        let policy = RecencyBase::TreePlru.build(cfg.l2.sets(), cfg.l2.ways);
        let mut h = Hierarchy::with_l2_policy(cfg, policy);
        let mut now = 0;
        for _ in 0..ops {
            let kind = rng.next_below(3);
            let addr = rng.next_below(128);
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
        assert!(h.check_inclusion(), "case {case}: inclusion violated");
        assert!(h.check_exclusivity(), "case {case}: exclusivity violated");
    }
}

/// `ready_at` is monotone in the serving level: an access can never be
/// ready before its hit latency, and a memory access never beats L2.
#[test]
fn access_latency_sane() {
    let mut rng = XorShift64::new(5);
    for case in 0..CASES {
        let cfg = HierarchyConfig::alderlake_like();
        let policy = RecencyBase::TreePlru.build(cfg.l2.sets(), cfg.l2.ways);
        let l1_lat = cfg.l1i.hit_latency;
        let mut h = Hierarchy::with_l2_policy(cfg, policy);
        let mut now = 0;
        for _ in 0..1 + rng.next_below(199) {
            let a = rng.next_below(512);
            now += 200; // past any outstanding miss
            let m = h.access_instr(a, now, false);
            assert!(m.ready_at >= now + l1_lat, "case {case}: line {a}");
            assert!(m.ready_at <= now + 150, "case {case}: line {a}");
        }
    }
}
