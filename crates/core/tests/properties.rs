//! Property tests of the EMISSARY policy family: each runs a fixed
//! number of cases drawn from a fixed-seed xorshift64*.

use emissary_cache::cache::Cache;
use emissary_cache::config::CacheConfig;
use emissary_cache::line::{LineKind, LineState};
use emissary_cache::policy::{AccessInfo, EmissaryPolicy, RecencyBase, ReplacementPolicy};
use emissary_cache::rng::XorShift64;
use emissary_core::selection::{MissFlags, SelectionExpr};
use emissary_core::spec::PolicySpec;

const CASES: u32 = 256;

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

/// An `R(1/r)` term: none one time in four, else `r` in `1..end`.
fn draw_random_one_in(rng: &mut XorShift64, end: u64) -> Option<u32> {
    (!rng.one_in(4)).then(|| 1 + rng.next_below(end - 1) as u32)
}

/// Algorithm 1: with at least one valid line, the victim is valid; when
/// the high-priority count is within the protection limit and a
/// low-priority line exists, the victim is low-priority; when the limit
/// is exceeded, the victim is high-priority.
#[test]
fn algorithm_one_truth_table() {
    let mut rng = XorShift64::new(1);
    for case in 0..CASES {
        let high_mask = rng.next_below(0xffff) as u16;
        let n_protect = rng.next_below(15) as usize;
        let flavor = if rng.one_in(2) {
            RecencyBase::TrueLru
        } else {
            RecencyBase::TreePlru
        };
        let ways = 16;
        let lines = lines_from_mask(high_mask, 0xffff, ways);
        let mut policy = EmissaryPolicy::new(n_protect, flavor, 1, ways, "P(test)");
        let info = AccessInfo::demand(LineKind::Instruction);
        for w in 0..ways {
            policy.on_fill(0, w, &lines, &info);
        }
        for _ in 0..rng.next_below(64) {
            policy.on_hit(0, rng.next_below(16) as usize, &lines, &info);
        }
        let victim = policy.victim(0, &lines, &info);
        assert!(victim < ways && lines[victim].valid, "case {case}");
        let high_count = high_mask.count_ones() as usize;
        let low_exists = high_count < ways;
        if high_count <= n_protect && low_exists {
            assert!(
                !lines[victim].priority,
                "case {case}: protected high-priority line evicted (count {high_count} <= N {n_protect})"
            );
        }
        if high_count > n_protect {
            assert!(
                lines[victim].priority,
                "case {case}: low-priority line evicted while over the protection limit"
            );
        }
    }
}

/// In a full EMISSARY cache, the number of high-priority lines per set
/// never decreases except when the count exceeds N (Algorithm 1's
/// eviction from the high class) — i.e. persistence holds.
#[test]
fn protected_count_is_persistent() {
    let mut rng = XorShift64::new(2);
    for case in 0..CASES {
        let cfg = CacheConfig::new("l2", 2 * 8 * 64, 8, 1); // 2 sets x 8 ways
        let spec: PolicySpec = "P(4):S".parse().unwrap();
        let policy = spec.build_l2_policy(cfg.sets(), cfg.ways, 7);
        let mut cache = Cache::new(cfg, policy);
        let info = AccessInfo::demand(LineKind::Instruction);
        let mut prev_counts = vec![0u32; cache.sets()];
        for _ in 0..1 + rng.next_below(399) {
            let line = rng.next_below(96);
            if cache.lookup(line, &info).is_none() {
                cache.fill(line, &info);
            }
            if rng.one_in(2) {
                cache.set_priority(line, true);
            }
            let counts = cache.priority_counts_per_set();
            for (s, (&now, &before)) in counts.iter().zip(&prev_counts).enumerate() {
                // The count may only drop when it was above N (= 4), and by
                // at most one per eviction.
                assert!(
                    now >= before || before > 4,
                    "case {case}: set {s}: high count fell {before} -> {now} while <= N"
                );
            }
            prev_counts = counts;
        }
    }
}

/// Selection-expression parser round-trips over every equation the
/// grammar can produce.
#[test]
fn selection_roundtrip() {
    let mut rng = XorShift64::new(3);
    for case in 0..CASES {
        let expr = SelectionExpr::Conj {
            starvation: rng.one_in(2),
            empty_iq: rng.one_in(2),
            random_one_in: draw_random_one_in(&mut rng, 1024),
        };
        let text = expr.to_string();
        if !text.is_empty() {
            let parsed = SelectionExpr::parse(&text).unwrap();
            assert_eq!(parsed, expr, "case {case}: {text}");
        }
    }
}

/// Policy-spec parser round-trips for P(N) and M policies.
#[test]
fn policy_spec_roundtrip() {
    let mut rng = XorShift64::new(4);
    for case in 0..CASES {
        let n = rng.next_below(16) as usize;
        let sel = SelectionExpr::Conj {
            starvation: rng.one_in(2),
            empty_iq: rng.one_in(2),
            random_one_in: draw_random_one_in(&mut rng, 256),
        };
        let mru = rng.one_in(2);
        if sel.to_string().is_empty() {
            continue;
        }
        let spec = if mru {
            PolicySpec::MruInsert(sel)
        } else {
            PolicySpec::Protect { n, selection: sel }
        };
        let parsed: PolicySpec = spec.to_string().parse().unwrap();
        assert_eq!(parsed, spec, "case {case}");
    }
}

/// Selection evaluation is monotone in the flags: adding observed
/// signals can only turn a rejection into an acceptance, never the
/// reverse (for non-random equations).
#[test]
fn selection_monotone_in_flags() {
    let mut rng = XorShift64::new(5);
    for case in 0..CASES {
        let expr = SelectionExpr::Conj {
            starvation: rng.one_in(2),
            empty_iq: rng.one_in(2),
            random_one_in: None,
        };
        let mut hw = XorShift64::new(1);
        let none = expr.evaluate(MissFlags::NONE, &mut hw);
        let both = expr.evaluate(
            MissFlags {
                starved_decode: true,
                empty_issue_queue: true,
            },
            &mut hw,
        );
        assert!(
            both || !none,
            "case {case}: flags removal increased acceptance"
        );
        assert!(
            both,
            "case {case}: full flags must satisfy any S/E conjunction"
        );
    }
}

/// `R(1/r)` acceptance rate is close to `1/r` for satisfied S&E flags.
#[test]
fn random_filter_rate() {
    let mut rng = XorShift64::new(6);
    for case in 0..CASES {
        let r = 1 + rng.next_below(63) as u32;
        let expr = SelectionExpr::Conj {
            starvation: true,
            empty_iq: true,
            random_one_in: Some(r),
        };
        let flags = MissFlags {
            starved_decode: true,
            empty_issue_queue: true,
        };
        let mut hw = XorShift64::new(42);
        let n = 20_000u32;
        let hits = (0..n).filter(|_| expr.evaluate(flags, &mut hw)).count() as f64;
        let expect = n as f64 / r as f64;
        // Loose binomial bound: within 5 sigma.
        let sigma = (n as f64 * (1.0 / r as f64) * (1.0 - 1.0 / r as f64)).sqrt();
        assert!(
            (hits - expect).abs() <= 5.0 * sigma + 1.0,
            "case {case}: rate off: {hits} vs {expect} (r = {r})"
        );
    }
}
