//! Property-based tests for the statistics utilities.

use proptest::prelude::*;

use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
use emissary_stats::summary::{geomean, mpki, pct_change, speedup, speedup_pct};

/// O(n^2) reference for unique-lines reuse buckets.
fn naive_buckets(stream: &[u64]) -> Vec<Option<ReuseBucket>> {
    let mut out = Vec::new();
    for (i, &line) in stream.iter().enumerate() {
        if i > 0 && stream[i - 1] == line {
            out.push(None);
            continue;
        }
        let mut seen = std::collections::HashSet::new();
        let mut found = None;
        for j in (0..i).rev() {
            if stream[j] == line {
                found = Some(ReuseBucket::classify(seen.len() as u64));
                break;
            }
            seen.insert(stream[j]);
        }
        out.push(found);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The tracker matches the naive reference exactly, over streams of up
    /// to 160 lines whose reuses straddle the Short/Mid boundary.
    #[test]
    fn reuse_matches_reference(stream in proptest::collection::vec(0u64..160, 1..400)) {
        let expect = naive_buckets(&stream);
        let mut t = ReuseTracker::new();
        for (i, &line) in stream.iter().enumerate() {
            prop_assert_eq!(t.access(line), expect[i], "at access {}", i);
        }
    }

    /// Bucket counts plus cold touches partition the non-repeat accesses.
    #[test]
    fn reuse_counts_partition(stream in proptest::collection::vec(0u64..16, 1..200)) {
        let mut t = ReuseTracker::new();
        let mut non_repeat = 0u64;
        let mut prev = None;
        for &line in &stream {
            t.access(line);
            if prev != Some(line) {
                non_repeat += 1;
            }
            prev = Some(line);
        }
        prop_assert_eq!(t.counts().total(), non_repeat);
    }

    /// Geomean lies between min and max of its inputs.
    #[test]
    fn geomean_bounded(values in proptest::collection::vec(0.01f64..100.0, 1..20)) {
        let g = geomean(&values).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= lo * 0.999 && g <= hi * 1.001, "g = {g}, [{lo}, {hi}]");
    }

    /// speedup/speedup_pct/pct_change are mutually consistent.
    #[test]
    fn speedup_consistency(base in 1u64..1_000_000, pol in 1u64..1_000_000) {
        let s = speedup(base, pol).unwrap();
        let pct = speedup_pct(s);
        // pct_change of cycles has the opposite sign of speedup.
        let d = pct_change(base as f64, pol as f64);
        prop_assert_eq!(pct > 0.0, (d < 0.0) || base == pol);
        prop_assert!((speedup_pct(1.0)).abs() < 1e-12);
    }

    /// MPKI scales linearly in misses.
    #[test]
    fn mpki_linear(m in 0u64..1_000_000, i in 1u64..10_000_000) {
        let one = mpki(m, i);
        let two = mpki(2 * m, i);
        prop_assert!((two - 2.0 * one).abs() < 1e-9);
    }
}
