//! Property tests for the statistics utilities: each runs a fixed number
//! of cases drawn from a fixed-seed xorshift64*.

use emissary_cache::rng::XorShift64;
use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
use emissary_stats::summary::{geomean, mpki, pct_change, speedup, speedup_pct};

const CASES: u32 = 128;

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

/// A stream of `1..max_len` lines, each in `0..lines`.
fn stream(rng: &mut XorShift64, lines: u64, max_len: u64) -> Vec<u64> {
    let len = 1 + rng.next_below(max_len - 1);
    (0..len).map(|_| rng.next_below(lines)).collect()
}

/// The tracker matches the naive reference exactly, over streams of up
/// to 160 lines whose reuses straddle the Short/Mid boundary.
#[test]
fn reuse_matches_reference() {
    let mut rng = XorShift64::new(1);
    for case in 0..CASES {
        let stream = stream(&mut rng, 160, 400);
        let expect = naive_buckets(&stream);
        let mut t = ReuseTracker::new();
        for (i, &line) in stream.iter().enumerate() {
            assert_eq!(t.access(line), expect[i], "case {case}: at access {i}");
        }
    }
}

/// Bucket counts plus cold touches partition the non-repeat accesses.
#[test]
fn reuse_counts_partition() {
    let mut rng = XorShift64::new(2);
    for case in 0..CASES {
        let mut t = ReuseTracker::new();
        let mut non_repeat = 0u64;
        let mut prev = None;
        for line in stream(&mut rng, 16, 200) {
            t.access(line);
            if prev != Some(line) {
                non_repeat += 1;
            }
            prev = Some(line);
        }
        assert_eq!(t.counts().total(), non_repeat, "case {case}");
    }
}

/// Geomean lies between min and max of its inputs.
#[test]
fn geomean_bounded() {
    let mut rng = XorShift64::new(3);
    for case in 0..CASES {
        let len = 1 + rng.next_below(19);
        let values: Vec<f64> = (0..len).map(|_| 0.01 + rng.next_f64() * 99.99).collect();
        let g = geomean(&values).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            g >= lo * 0.999 && g <= hi * 1.001,
            "case {case}: g = {g}, [{lo}, {hi}]"
        );
    }
}

/// speedup/speedup_pct/pct_change are mutually consistent.
#[test]
fn speedup_consistency() {
    let mut rng = XorShift64::new(4);
    for case in 0..CASES {
        let base = 1 + rng.next_below(999_999);
        let pol = 1 + rng.next_below(999_999);
        let s = speedup(base, pol).unwrap();
        let pct = speedup_pct(s);
        // pct_change of cycles has the opposite sign of speedup.
        let d = pct_change(base as f64, pol as f64);
        assert_eq!(
            pct > 0.0,
            (d < 0.0) || base == pol,
            "case {case}: {base} vs {pol}"
        );
        assert!((speedup_pct(1.0)).abs() < 1e-12);
    }
}

/// MPKI scales linearly in misses.
#[test]
fn mpki_linear() {
    let mut rng = XorShift64::new(5);
    for case in 0..CASES {
        let m = rng.next_below(1_000_000);
        let i = 1 + rng.next_below(9_999_999);
        let one = mpki(m, i);
        let two = mpki(2 * m, i);
        assert!((two - 2.0 * one).abs() < 1e-9, "case {case}: {m} / {i}");
    }
}
