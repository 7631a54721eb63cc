//! Property-based tests of the EMISSARY policy family.

use proptest::prelude::*;

use emissary_cache::cache::Cache;
use emissary_cache::config::CacheConfig;
use emissary_cache::line::{LineKind, LineState};
use emissary_cache::policy::{AccessInfo, EmissaryPolicy, RecencyBase, ReplacementPolicy};
use emissary_cache::rng::XorShift64;
use emissary_core::selection::{MissFlags, SelectionExpr};
use emissary_core::spec::PolicySpec;

fn lines_from_mask(high_mask: u16, valid_mask: u16, ways: usize) -> Vec<LineState> {
    (0..ways)
        .map(|w| LineState {
            tag: w as u64,
            valid: valid_mask & (1 << w) != 0,
            priority: high_mask & (1 << w) != 0,
            kind: LineKind::Instruction,
            ..LineState::invalid()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Algorithm 1: with at least one valid line, the victim is valid; when
    /// the high-priority count is within the protection limit and a
    /// low-priority line exists, the victim is low-priority; when the limit
    /// is exceeded, the victim is high-priority.
    #[test]
    fn algorithm_one_truth_table(
        high_mask in 0u16..0xffff,
        n_protect in 0usize..15,
        flavor in prop_oneof![Just(RecencyBase::TrueLru), Just(RecencyBase::TreePlru)],
        touches in proptest::collection::vec(0usize..16, 0..64),
    ) {
        let ways = 16;
        let lines = lines_from_mask(high_mask, 0xffff, ways);
        let mut policy = EmissaryPolicy::new(n_protect, flavor, 1, ways, "P(test)");
        let info = AccessInfo::demand(LineKind::Instruction);
        for w in 0..ways {
            policy.on_fill(0, w, &lines, &info);
        }
        for &w in &touches {
            policy.on_hit(0, w, &lines, &info);
        }
        let victim = policy.victim(0, &lines, &info);
        prop_assert!(victim < ways);
        prop_assert!(lines[victim].valid);
        let high_count = high_mask.count_ones() as usize;
        let low_exists = high_count < ways;
        if high_count <= n_protect && low_exists {
            prop_assert!(
                !lines[victim].priority,
                "protected high-priority line evicted (count {high_count} <= N {n_protect})"
            );
        }
        if high_count > n_protect {
            prop_assert!(
                lines[victim].priority,
                "low-priority line evicted while over the protection limit"
            );
        }
    }

    /// In a full EMISSARY cache, the number of high-priority lines per set
    /// never decreases except when the count exceeds N (Algorithm 1's
    /// eviction from the high class) — i.e. persistence holds.
    #[test]
    fn protected_count_is_persistent(
        accesses in proptest::collection::vec((0u64..96, any::<bool>()), 1..400),
    ) {
        let cfg = CacheConfig::new("l2", 2 * 8 * 64, 8, 1); // 2 sets x 8 ways
        let spec: PolicySpec = "P(4):S".parse().unwrap();
        let policy = spec.build_l2_policy(cfg.sets(), cfg.ways, 7);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Instruction);
        let mut prev_counts = vec![0u32; cache.sets()];
        for &(line, mark) in &accesses {
            if cache.lookup(line, &info).is_none() {
                cache.fill(line, &info);
            }
            if mark {
                cache.set_priority(line, true);
            }
            let counts = cache.priority_counts_per_set();
            for (s, (&now, &before)) in counts.iter().zip(&prev_counts).enumerate() {
                // The count may only drop when it was above N (= 4), and by
                // at most one per eviction.
                if now < before {
                    prop_assert!(
                        before > 4,
                        "set {s}: high count fell {before} -> {now} while <= N"
                    );
                }
            }
            prev_counts = counts;
        }
    }

    /// Selection-expression parser round-trips over every equation the
    /// grammar can produce.
    #[test]
    fn selection_roundtrip(
        s in any::<bool>(),
        e in any::<bool>(),
        r in proptest::option::of(1u32..1024),
    ) {
        let expr = SelectionExpr::Conj {
            starvation: s,
            empty_iq: e,
            random_one_in: r,
        };
        let text = expr.to_string();
        if !text.is_empty() {
            let parsed = SelectionExpr::parse(&text).unwrap();
            prop_assert_eq!(parsed, expr);
        }
    }

    /// Policy-spec parser round-trips for P(N) and M policies.
    #[test]
    fn policy_spec_roundtrip(
        n in 0usize..16,
        s in any::<bool>(),
        e in any::<bool>(),
        r in proptest::option::of(1u32..256),
        mru in any::<bool>(),
    ) {
        let sel = SelectionExpr::Conj { starvation: s, empty_iq: e, random_one_in: r };
        if sel.to_string().is_empty() {
            return Ok(());
        }
        let spec = if mru {
            PolicySpec::MruInsert(sel)
        } else {
            PolicySpec::Protect { n, selection: sel }
        };
        let parsed: PolicySpec = spec.to_string().parse().unwrap();
        prop_assert_eq!(parsed, spec);
    }

    /// Selection evaluation is monotone in the flags: adding observed
    /// signals can only turn a rejection into an acceptance, never the
    /// reverse (for non-random equations).
    #[test]
    fn selection_monotone_in_flags(s in any::<bool>(), e in any::<bool>()) {
        let expr = SelectionExpr::Conj {
            starvation: s,
            empty_iq: e,
            random_one_in: None,
        };
        let mut rng = XorShift64::new(1);
        let none = expr.evaluate(MissFlags::NONE, &mut rng);
        let both = expr.evaluate(
            MissFlags { starved_decode: true, empty_issue_queue: true },
            &mut rng,
        );
        prop_assert!(both || !none, "flags removal increased acceptance");
        prop_assert!(both, "full flags must satisfy any S/E conjunction");
    }

    /// `R(1/r)` acceptance rate is close to `1/r` for satisfied S&E flags.
    #[test]
    fn random_filter_rate(r in 1u32..64) {
        let expr = SelectionExpr::Conj {
            starvation: true,
            empty_iq: true,
            random_one_in: Some(r),
        };
        let flags = MissFlags { starved_decode: true, empty_issue_queue: true };
        let mut rng = XorShift64::new(42);
        let n = 20_000u32;
        let hits = (0..n).filter(|_| expr.evaluate(flags, &mut rng)).count() as f64;
        let expect = n as f64 / r as f64;
        // Loose binomial bound: within 5 sigma.
        let sigma = (n as f64 * (1.0 / r as f64) * (1.0 - 1.0 / r as f64)).sqrt();
        prop_assert!(
            (hits - expect).abs() <= 5.0 * sigma + 1.0,
            "rate off: {hits} vs {expect} (r = {r})"
        );
    }
}
