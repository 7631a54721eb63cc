//! Online unique-lines reuse-distance measurement (paper §3, Figure 2).
//!
//! Reuse distance is "the number of unique lines accessed between two
//! accesses to the same line"; consecutive accesses to the same line do not
//! count. Distances are bucketed into Short `[0, 100)`, Mid `[100, 5000)`
//! and Long `[5000, ∞)` exactly as in the paper.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::fenwick::Fenwick;

/// Lower bound of the Mid reuse bucket (inclusive).
pub const MID_REUSE_MIN: u64 = 100;
/// Lower bound of the Long reuse bucket (inclusive).
pub const LONG_REUSE_MIN: u64 = 5000;

/// The tracker compacts its timestamps when they reach this many times the
/// number of distinct lines, so its tree holds at most that many slots per
/// line while each compaction's `O(n log n)` is spread over `3n` accesses.
const COMPACT_FACTOR: usize = 4;

/// Figure 2's three reuse-distance classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseBucket {
    /// Distance in `[0, 100)`: likely to hit in L1I.
    Short,
    /// Distance in `[100, 5000)`: likely to miss L1I and hit L2.
    Mid,
    /// Distance `>= 5000`: likely to miss in L2.
    Long,
}

impl ReuseBucket {
    /// Classifies a unique-lines reuse distance.
    pub fn classify(distance: u64) -> Self {
        if distance < MID_REUSE_MIN {
            ReuseBucket::Short
        } else if distance < LONG_REUSE_MIN {
            ReuseBucket::Mid
        } else {
            ReuseBucket::Long
        }
    }

    /// All buckets in ascending distance order.
    pub const ALL: [ReuseBucket; 3] = [ReuseBucket::Short, ReuseBucket::Mid, ReuseBucket::Long];

    /// Human-readable label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            ReuseBucket::Short => "Short Reuse [0-100)",
            ReuseBucket::Mid => "Mid Reuse [100-5000)",
            ReuseBucket::Long => "Long Reuse [>5000)",
        }
    }
}

impl std::fmt::Display for ReuseBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-bucket access counts plus first-touch (cold) accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounts {
    /// Accesses whose distance fell in the Short bucket.
    pub short: u64,
    /// Accesses whose distance fell in the Mid bucket.
    pub mid: u64,
    /// Accesses whose distance fell in the Long bucket.
    pub long: u64,
    /// First-ever accesses to a line (no defined reuse distance).
    pub cold: u64,
}

impl ReuseCounts {
    /// Total classified accesses, excluding cold first touches.
    pub fn reused_total(&self) -> u64 {
        self.short + self.mid + self.long
    }

    /// Total including cold first touches.
    pub fn total(&self) -> u64 {
        self.reused_total() + self.cold
    }

    /// Count in the given bucket.
    pub fn bucket(&self, b: ReuseBucket) -> u64 {
        match b {
            ReuseBucket::Short => self.short,
            ReuseBucket::Mid => self.mid,
            ReuseBucket::Long => self.long,
        }
    }

    /// Fraction of reused accesses in `b` (0 if nothing reused yet).
    pub fn fraction(&self, b: ReuseBucket) -> f64 {
        let t = self.reused_total();
        if t == 0 {
            0.0
        } else {
            self.bucket(b) as f64 / t as f64
        }
    }

    fn record(&mut self, b: ReuseBucket) {
        match b {
            ReuseBucket::Short => self.short += 1,
            ReuseBucket::Mid => self.mid += 1,
            ReuseBucket::Long => self.long += 1,
        }
    }
}

/// Multiplicative hasher for the tracker's line keys: one multiply per key
/// in place of SipHash. The rotate moves the product's well-mixed high
/// bits down to where the table picks its bucket.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(32);
    }
}

/// Streaming unique-lines reuse-distance tracker.
///
/// `access` costs `O(log n)` in the number of distinct lines seen (Fenwick
/// tree over last-access timestamps), making it cheap enough to run inline
/// with the simulator's fetch stage. Memory is bounded by the distinct
/// lines, not the accesses: once the timestamps reach
/// [`COMPACT_FACTOR`] times the line count, the live last-access stamps
/// are renumbered densely in order. Distances stay exact, because a
/// distance only counts the marked stamps between two points, and
/// renumbering keeps their order.
///
/// # Example
///
/// ```
/// use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
///
/// let mut t = ReuseTracker::new();
/// assert_eq!(t.access(10), None); // cold
/// t.access(11);
/// t.access(12);
/// assert_eq!(t.access(10), Some(2)); // lines 11 and 12 in between
/// assert_eq!(t.access(10), None); // consecutive same-line access ignored
/// assert_eq!(t.counts().short, 1);
/// ```
#[derive(Debug, Default)]
pub struct ReuseTracker {
    /// line -> timestamp of its most recent access.
    last_access: HashMap<u64, usize, BuildHasherDefault<LineHasher>>,
    /// Marks timestamps that are the *latest* access of some line.
    marks: Fenwick,
    /// Next logical timestamp.
    now: usize,
    /// Most recently accessed line (to skip consecutive repeats).
    prev_line: Option<u64>,
    /// Distance produced by the most recent non-cold, non-repeat access.
    last_distance: Option<u64>,
    counts: ReuseCounts,
}

impl ReuseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `line` and returns its unique-lines reuse
    /// distance, or `None` for first touches and consecutive repeats.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        if self.prev_line == Some(line) {
            // "The same line accessed consecutively is not counted."
            return None;
        }
        self.prev_line = Some(line);
        let distance = match self.last_access.get(&line).copied() {
            Some(t) => {
                // Unique lines touched since `t` = marked timestamps in (t, now).
                let d = self.marks.range_sum(t + 1, self.now) as u64;
                self.marks.add(t, -1);
                Some(d)
            }
            None => {
                self.counts.cold += 1;
                None
            }
        };
        self.last_access.insert(line, self.now);
        self.marks.add(self.now, 1);
        self.now += 1;
        if self.now >= COMPACT_FACTOR * self.last_access.len() {
            self.compact();
        }
        if let Some(d) = distance {
            self.counts.record(ReuseBucket::classify(d));
            self.last_distance = Some(d);
        }
        distance
    }

    /// Renumbers the live last-access stamps `0..unique_lines()` in their
    /// order; every one of them is marked, so the tree becomes all ones.
    fn compact(&mut self) {
        let mut live: Vec<(usize, u64)> = self
            .last_access
            .iter()
            .map(|(&line, &stamp)| (stamp, line))
            .collect();
        live.sort_unstable();
        for (stamp, &(_, line)) in live.iter().enumerate() {
            self.last_access.insert(line, stamp);
        }
        self.now = live.len();
        self.marks = Fenwick::ones(self.now, COMPACT_FACTOR * self.now);
    }

    /// The distance of the most recent reused access.
    pub fn last_distance(&self) -> Option<u64> {
        self.last_distance
    }

    /// Number of distinct lines seen so far.
    pub fn unique_lines(&self) -> usize {
        self.last_access.len()
    }

    /// Aggregate bucket counts.
    pub fn counts(&self) -> ReuseCounts {
        self.counts
    }

    /// Looks up the bucket a line's *next* access would currently fall in,
    /// i.e. the number of unique lines touched since its last access.
    ///
    /// Returns `None` for never-seen lines.
    pub fn current_distance(&self, line: u64) -> Option<u64> {
        let t = self.last_access.get(&line).copied()?;
        Some(self.marks.range_sum(t + 1, self.now) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference: scan back through an explicit access log.
    fn naive_distances(stream: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        let mut log: Vec<u64> = Vec::new();
        for (i, &line) in stream.iter().enumerate() {
            if i > 0 && stream[i - 1] == line {
                out.push(None);
                log.push(line);
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            let mut found = None;
            for &past in log.iter().rev() {
                if past == line {
                    found = Some(seen.len() as u64);
                    break;
                }
                seen.insert(past);
            }
            out.push(found);
            log.push(line);
        }
        out
    }

    #[test]
    fn cold_access_has_no_distance() {
        let mut t = ReuseTracker::new();
        assert_eq!(t.access(1), None);
        assert_eq!(t.counts().cold, 1);
    }

    #[test]
    fn simple_distance() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        t.access(3);
        assert_eq!(t.access(1), Some(2));
    }

    #[test]
    fn consecutive_repeats_ignored() {
        let mut t = ReuseTracker::new();
        t.access(1);
        assert_eq!(t.access(1), None);
        assert_eq!(t.access(1), None);
        t.access(2);
        assert_eq!(t.access(1), Some(1));
    }

    #[test]
    fn duplicate_intervening_lines_count_once() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        t.access(3);
        t.access(2);
        t.access(3);
        t.access(2);
        // Unique lines since last access of 1: {2, 3} => 2.
        assert_eq!(t.access(1), Some(2));
    }

    #[test]
    fn buckets_classify_at_boundaries() {
        assert_eq!(ReuseBucket::classify(0), ReuseBucket::Short);
        assert_eq!(ReuseBucket::classify(99), ReuseBucket::Short);
        assert_eq!(ReuseBucket::classify(100), ReuseBucket::Mid);
        assert_eq!(ReuseBucket::classify(4999), ReuseBucket::Mid);
        assert_eq!(ReuseBucket::classify(5000), ReuseBucket::Long);
        assert_eq!(ReuseBucket::classify(u64::MAX), ReuseBucket::Long);
    }

    #[test]
    fn matches_naive_reference_on_random_stream() {
        // A fixed set of 40 lines, and a working set that drifts upward so
        // the line count grows between compactions and old lines go cold.
        // Both force repeated compactions.
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let fixed: Vec<u64> = (0..800).map(|_| next() % 40).collect();
        let drifting: Vec<u64> = (0..3000u64).map(|i| i / 20 + next() % 60).collect();
        for stream in [fixed, drifting] {
            let expect = naive_distances(&stream);
            let mut t = ReuseTracker::new();
            let mut compactions = 0;
            for (i, &line) in stream.iter().enumerate() {
                let before = t.now;
                assert_eq!(t.access(line), expect[i], "mismatch at access {i}");
                compactions += usize::from(t.now < before);
                assert!(t.marks.len() <= 2 * COMPACT_FACTOR * t.unique_lines().max(8));
            }
            assert!(compactions >= 3, "only {compactions} compactions");
        }
    }

    #[test]
    fn counts_partition_accesses() {
        let mut t = ReuseTracker::new();
        for i in 0..200u64 {
            t.access(i);
        }
        for i in 0..200u64 {
            t.access(i); // distance 199 each => Mid
        }
        let c = t.counts();
        assert_eq!(c.cold, 200);
        assert_eq!(c.mid, 200);
        assert_eq!(c.total(), 400);
        assert!((c.fraction(ReuseBucket::Mid) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn current_distance_peeks_without_recording() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        assert_eq!(t.current_distance(1), Some(1));
        assert_eq!(t.current_distance(1), Some(1)); // unchanged
        assert_eq!(t.current_distance(99), None);
    }
}
