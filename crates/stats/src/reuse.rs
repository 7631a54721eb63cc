//! Online unique-lines reuse-distance classification (paper §3, Figure 2).
//!
//! Reuse distance is "the number of unique lines accessed between two
//! accesses to the same line"; consecutive accesses to the same line do not
//! count. Distances are bucketed into Short `[0, 100)`, Mid `[100, 5000)`
//! and Long `[5000, ∞)` exactly as in the paper. The tracker finds each
//! access's bucket without computing the distance itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Lower bound of the Mid reuse bucket (inclusive).
pub const MID_REUSE_MIN: u64 = 100;
/// Lower bound of the Long reuse bucket (inclusive).
pub const LONG_REUSE_MIN: u64 = 5000;

/// The tracker compacts its timestamps when they reach this many times the
/// number of distinct lines, so its bitmap holds at most that many bits per
/// line while each compaction's `O(n log n)` is spread over `3n` accesses.
const COMPACT_FACTOR: usize = 4;

/// The bucket boundaries, as unique-line counts.
const THRESHOLDS: [usize; 2] = [MID_REUSE_MIN as usize, LONG_REUSE_MIN as usize];

/// Lines per stamp-table page: one page is 16 KB of `u32` stamps.
const PAGE_LINES: u64 = 4096;

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

/// Multiplicative hasher for the tracker's page keys: one multiply per key
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

/// Streaming unique-lines reuse-bucket tracker.
///
/// Every access gets a logical timestamp, and a line's *live* stamp is
/// its latest one. A re-access of a line last touched at stamp `t` has
/// distance `d` = the number of live stamps after `t`. So for a threshold
/// `K`, `d < K` exactly when `t` is one of the `K` newest live stamps,
/// i.e. when `t >= θ_K`, the `K`-th newest live stamp (or when fewer than
/// `K` lines are live at all). The tracker keeps `θ_K` for both bucket
/// boundaries over a bitmap of live stamps:
///
/// * a re-access of a line whose stamp is newer than `θ_K` moves that
///   stamp to the front and leaves the `K`-th newest where it was;
/// * any other access (a cold one, or a re-access at or below `θ_K`)
///   pushes a new stamp in front of the `K` newest, so `θ_K` steps to the
///   next live stamp above it.
///
/// `θ_K` only moves forward, so all its steps together scan each stamp's
/// bit at most once: `access` costs amortised `O(1)` plus one lookup in
/// a small page map. Each line's latest stamp sits in a dense `u32` table
/// paged by 4096-line regions, so a footprint of contiguous code costs
/// about 4 bytes a line. Memory is bounded by the distinct lines, not the
/// accesses: once the stamps reach `COMPACT_FACTOR` times the line
/// count, the live stamps are renumbered densely in order, which keeps
/// every rank and so every bucket.
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
/// assert_eq!(t.access(10), Some(ReuseBucket::Short)); // distance 2
/// assert_eq!(t.access(10), None); // consecutive same-line access ignored
/// assert_eq!(t.counts().short, 1);
/// ```
#[derive(Debug, Default)]
pub struct ReuseTracker {
    /// Page number (`line / PAGE_LINES`) -> its offset in `stamps`, over
    /// `PAGE_LINES`.
    pages: HashMap<u64, u32, BuildHasherDefault<LineHasher>>,
    /// Each line's latest stamp plus one (0: never accessed), one
    /// `PAGE_LINES` run per page any access reached.
    stamps: Vec<u32>,
    /// Number of distinct lines seen.
    lines: usize,
    /// Bit `s` is set when stamp `s` is the latest access of some line.
    live: Vec<u64>,
    /// `θ_K` for each of [`THRESHOLDS`]: the `K`-th newest live stamp,
    /// meaningful once at least `K` lines are live.
    theta: [usize; 2],
    /// Next logical timestamp.
    now: usize,
    /// Most recently accessed line (to skip consecutive repeats).
    prev_line: Option<u64>,
    counts: ReuseCounts,
}

impl ReuseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `line` and returns its reuse bucket, or `None`
    /// for first touches and consecutive repeats.
    pub fn access(&mut self, line: u64) -> Option<ReuseBucket> {
        if self.prev_line == Some(line) {
            // "The same line accessed consecutively is not counted."
            return None;
        }
        self.prev_line = Some(line);
        let now = self.now;
        let stamp = u32::try_from(now + 1).expect("stamps stay below 4x the distinct lines");
        let slot = self.slot(line);
        let old = (*slot).checked_sub(1).map(|t| t as usize);
        *slot = stamp;
        self.lines += usize::from(old.is_none());
        let lines = self.lines;
        // Whether the distance is below threshold `i`, before any `θ` moves.
        let below = |i: usize, t: usize| lines <= THRESHOLDS[i] || t >= self.theta[i];
        let bucket = old.map(|t| {
            if below(0, t) {
                ReuseBucket::Short
            } else if below(1, t) {
                ReuseBucket::Mid
            } else {
                ReuseBucket::Long
            }
        });
        if let Some(t) = old {
            self.live[t / 64] &= !(1 << (t % 64));
        }
        if now / 64 == self.live.len() {
            self.live.push(0);
        }
        self.live[now / 64] |= 1 << (now % 64);
        for (i, &k) in THRESHOLDS.iter().enumerate() {
            if lines < k {
                continue;
            }
            if lines == k && old.is_none() {
                // The K-th line just arrived: the oldest live stamp is θ_K.
                self.theta[i] = self.next_live(0);
            } else if old.is_none_or(|t| t <= self.theta[i]) {
                self.theta[i] = self.next_live(self.theta[i] + 1);
            }
        }
        self.now += 1;
        if self.now >= COMPACT_FACTOR * lines {
            self.compact();
        }
        match bucket {
            Some(b) => self.counts.record(b),
            None => self.counts.cold += 1,
        }
        bucket
    }

    /// `line`'s entry in the stamp table, adding its page on first use.
    fn slot(&mut self, line: u64) -> &mut u32 {
        let next = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
        let page = *self.pages.entry(line / PAGE_LINES).or_insert(next);
        if page == next {
            self.stamps
                .resize(self.stamps.len() + PAGE_LINES as usize, 0);
        }
        &mut self.stamps[(u64::from(page) * PAGE_LINES + line % PAGE_LINES) as usize]
    }

    /// The first live stamp at or after `from` (one always exists: the
    /// newest stamp is live).
    fn next_live(&self, from: usize) -> usize {
        let mut word = from / 64;
        let mut bits = self.live[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = self.live[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }

    /// Renumbers the live stamps `0..unique_lines()` in their order, so
    /// the bitmap becomes all ones and each `θ_K` the `K`-th from the top.
    /// Every stamp in the table is live, and its new number is its rank:
    /// the live bits below it.
    fn compact(&mut self) {
        let mut below = 0;
        let words_below: Vec<u32> = self
            .live
            .iter()
            .map(|w| {
                let base = below;
                below += w.count_ones();
                base
            })
            .collect();
        for slot in self.stamps.iter_mut().filter(|s| **s != 0) {
            let t = (*slot - 1) as usize;
            let lower = self.live[t / 64] & ((1 << (t % 64)) - 1);
            *slot = words_below[t / 64] + lower.count_ones() + 1;
        }
        let n = self.lines;
        self.now = n;
        self.live = vec![u64::MAX; n / 64];
        let rest = n % 64;
        if rest > 0 {
            self.live.push((1 << rest) - 1);
        }
        for (theta, k) in self.theta.iter_mut().zip(THRESHOLDS) {
            *theta = n.saturating_sub(k);
        }
    }

    /// Number of distinct lines seen so far.
    pub fn unique_lines(&self) -> usize {
        self.lines
    }

    /// Aggregate bucket counts.
    pub fn counts(&self) -> ReuseCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference: scan back through the stream for the last access
    /// of the same line, counting the distinct lines in between.
    fn naive_buckets(stream: &[u64]) -> Vec<Option<ReuseBucket>> {
        let mut out = Vec::new();
        for (i, &line) in stream.iter().enumerate() {
            if i > 0 && stream[i - 1] == line {
                out.push(None);
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            let mut found = None;
            for &past in stream[..i].iter().rev() {
                if past == line {
                    found = Some(ReuseBucket::classify(seen.len() as u64));
                    break;
                }
                seen.insert(past);
            }
            out.push(found);
        }
        out
    }

    #[test]
    fn cold_access_has_no_bucket() {
        let mut t = ReuseTracker::new();
        assert_eq!(t.access(1), None);
        assert_eq!(t.counts().cold, 1);
    }

    #[test]
    fn consecutive_repeats_ignored() {
        let mut t = ReuseTracker::new();
        t.access(1);
        assert_eq!(t.access(1), None);
        assert_eq!(t.access(1), None);
        t.access(2);
        assert_eq!(t.access(1), Some(ReuseBucket::Short));
        assert_eq!(t.counts().total(), 3);
    }

    #[test]
    fn duplicate_intervening_lines_count_once_at_the_boundary() {
        // 99 distinct lines between two accesses of line 0, each touched
        // twice: distance 99, Short. One more distinct line makes it 100.
        for (between, expect) in [(99u64, ReuseBucket::Short), (100, ReuseBucket::Mid)] {
            let mut t = ReuseTracker::new();
            t.access(0);
            for _ in 0..2 {
                for line in 1..=between {
                    t.access(line);
                }
            }
            assert_eq!(t.access(0), Some(expect), "{between} lines between");
        }
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
        // the line count grows between compactions, old lines go cold and
        // reuses cross the Short/Mid boundary. Both force repeated
        // compactions.
        let mut state = 0xdeadbeefu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let fixed: Vec<u64> = (0..800).map(|_| next() % 40).collect();
        let drifting: Vec<u64> = (0..3000u64).map(|i| i / 20 + next() % 180).collect();
        // The same stream with a line per stamp-table page.
        let scattered: Vec<u64> = drifting.iter().map(|l| l * (PAGE_LINES + 1)).collect();
        for stream in [fixed, drifting, scattered] {
            let expect = naive_buckets(&stream);
            let mut t = ReuseTracker::new();
            let mut compactions = 0;
            for (i, &line) in stream.iter().enumerate() {
                let before = t.now;
                assert_eq!(t.access(line), expect[i], "mismatch at access {i}");
                compactions += usize::from(t.now < before);
                assert!(t.live.len() * 64 <= 2 * COMPACT_FACTOR * t.unique_lines().max(64));
            }
            assert!(compactions >= 3, "only {compactions} compactions");
        }
    }

    #[test]
    fn matches_lru_stack_past_both_thresholds() {
        // The reference is an LRU stack of lines, newest last: a line's
        // unique-lines reuse distance is its depth below the top. The
        // stream is drawn from that stack, re-touching lines at depths on
        // and around both bucket boundaries, while cold lines grow the
        // working set past 5000 and the stamps compact.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut stack: Vec<u64> = Vec::new();
        let mut t = ReuseTracker::new();
        let mut seen = [0u64; 3];
        let mut compactions = 0;
        for i in 0..60_000 {
            let depth = match next(20) {
                // Cold lines: most of the first 8000 accesses, then a few.
                r if (i < 8000 && r >= 8) || r == 0 => None,
                1..=6 => Some(1 + next(150)),
                7..=10 => Some(4900 + next(200)),
                11 => Some([99, 100, 4999, 5000][next(4)]),
                _ => Some(5001 + next(1500)),
            }
            .filter(|&d| d < stack.len());
            let (line, expect) = match depth {
                Some(d) => {
                    let line = stack.remove(stack.len() - 1 - d);
                    (line, Some(ReuseBucket::classify(d as u64)))
                }
                None => ((1 << 32) | i as u64, None),
            };
            stack.push(line);
            let before = t.now;
            assert_eq!(t.access(line), expect, "access {i}, depth {depth:?}");
            compactions += usize::from(t.now < before);
            if let Some(b) = expect {
                seen[b as usize] += 1;
            }
        }
        assert!(t.unique_lines() > 5000, "{} lines", t.unique_lines());
        assert!(seen.iter().all(|&n| n > 1000), "bucket counts {seen:?}");
        assert!(compactions >= 2, "only {compactions} compactions");
        assert_eq!(t.counts().reused_total(), seen.iter().sum::<u64>());
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
}
