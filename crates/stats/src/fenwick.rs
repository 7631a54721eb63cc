//! Binary indexed tree (Fenwick tree) over `u32` counts.
//!
//! Used by [`crate::reuse::ReuseTracker`] to count, in `O(log n)`, how many
//! distinct cache lines have been touched since a given logical timestamp.

/// A growable Fenwick tree holding non-negative counts.
///
/// Indices are 0-based on the public API. The tree grows automatically when
/// an index past the current capacity is updated.
///
/// # Example
///
/// ```
/// use emissary_stats::Fenwick;
///
/// let mut f = Fenwick::with_capacity(8);
/// f.add(3, 1);
/// f.add(5, 2);
/// assert_eq!(f.prefix_sum(3), 0); // sum of [0, 3)
/// assert_eq!(f.prefix_sum(6), 3); // sum of [0, 6)
/// assert_eq!(f.range_sum(4, 8), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fenwick {
    /// 1-based internal storage; `tree[0]` is unused.
    tree: Vec<i64>,
}

impl Fenwick {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tree able to hold indices `0..capacity` without regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tree: vec![0; capacity + 1],
        }
    }

    /// A tree holding a count of one at each index in `0..ones` and zero
    /// elsewhere, with room for indices `0..capacity`. Built in `O(capacity)`.
    pub fn ones(ones: usize, capacity: usize) -> Self {
        let len = capacity.max(ones) + 1;
        // Node `i` covers the indices `(i - lowbit(i), i]` (1-based).
        let tree = (0..len)
            .map(|i| {
                let low = i - (i & i.wrapping_neg());
                i.min(ones).saturating_sub(low) as i64
            })
            .collect();
        Self { tree }
    }

    /// Number of addressable slots.
    pub fn len(&self) -> usize {
        self.tree.len().saturating_sub(1)
    }

    /// Whether the tree has no addressable slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to the count at `index`, growing the tree if needed.
    pub fn add(&mut self, index: usize, delta: i64) {
        if index + 1 >= self.tree.len() {
            self.grow(index + 1);
        }
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts over `[0, end)`.
    pub fn prefix_sum(&self, end: usize) -> i64 {
        let mut i = end.min(self.len());
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of counts over `[start, end)`.
    pub fn range_sum(&self, start: usize, end: usize) -> i64 {
        if start >= end {
            return 0;
        }
        self.prefix_sum(end) - self.prefix_sum(start)
    }

    /// Total of all counts.
    pub fn total(&self) -> i64 {
        self.prefix_sum(self.len())
    }

    fn grow(&mut self, min_slots: usize) {
        let new_len = (min_slots + 1).next_power_of_two().max(16);
        let old = std::mem::take(&mut self.tree);
        self.tree = vec![0; new_len];
        // Rebuild by re-adding per-index values extracted from the old tree.
        // Extract point values of old tree first.
        let old_len = old.len().saturating_sub(1);
        let mut point = vec![0i64; old_len];
        // point value at i = prefix(i+1) - prefix(i); compute via temporary view.
        let prefix = |tree: &Vec<i64>, mut i: usize| -> i64 {
            let mut s = 0;
            while i > 0 {
                s += tree[i];
                i -= i & i.wrapping_neg();
            }
            s
        };
        for (i, p) in point.iter_mut().enumerate() {
            *p = prefix(&old, i + 1) - prefix(&old, i);
        }
        for (i, v) in point.into_iter().enumerate() {
            if v != 0 {
                let mut j = i + 1;
                while j < self.tree.len() {
                    self.tree[j] += v;
                    j += j & j.wrapping_neg();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_sums_to_zero() {
        let f = Fenwick::new();
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(100), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn point_updates_accumulate() {
        let mut f = Fenwick::with_capacity(10);
        f.add(0, 5);
        f.add(9, 7);
        f.add(0, 1);
        assert_eq!(f.prefix_sum(1), 6);
        assert_eq!(f.prefix_sum(10), 13);
        assert_eq!(f.total(), 13);
    }

    #[test]
    fn range_sum_excludes_ends_correctly() {
        let mut f = Fenwick::with_capacity(16);
        for i in 0..16 {
            f.add(i, 1);
        }
        assert_eq!(f.range_sum(4, 8), 4);
        assert_eq!(f.range_sum(8, 4), 0);
        assert_eq!(f.range_sum(0, 16), 16);
    }

    #[test]
    fn negative_deltas_supported() {
        let mut f = Fenwick::with_capacity(4);
        f.add(2, 3);
        f.add(2, -3);
        assert_eq!(f.total(), 0);
    }

    #[test]
    fn grows_transparently() {
        let mut f = Fenwick::with_capacity(2);
        f.add(1000, 4);
        assert_eq!(f.prefix_sum(1001), 4);
        assert_eq!(f.prefix_sum(1000), 0);
    }

    #[test]
    fn grow_preserves_existing_counts() {
        let mut f = Fenwick::with_capacity(4);
        f.add(0, 1);
        f.add(3, 2);
        f.add(64, 5); // triggers grow
        assert_eq!(f.prefix_sum(4), 3);
        assert_eq!(f.total(), 8);
    }

    #[test]
    fn ones_matches_point_adds() {
        for (ones, capacity) in [(0, 0), (0, 5), (1, 1), (5, 16), (13, 13), (100, 300)] {
            let f = Fenwick::ones(ones, capacity);
            let mut expect = Fenwick::with_capacity(capacity);
            for i in 0..ones {
                expect.add(i, 1);
            }
            assert_eq!(f.len(), capacity.max(ones));
            for end in 0..=f.len() {
                assert_eq!(
                    f.prefix_sum(end),
                    expect.prefix_sum(end),
                    "{ones}/{capacity} at {end}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_reference() {
        let mut f = Fenwick::new();
        let mut naive = vec![0i64; 200];
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state % 200) as usize;
            let delta = ((state >> 32) % 5) as i64 - 2;
            f.add(idx, delta);
            naive[idx] += delta;
            let q = ((state >> 16) % 201) as usize;
            let expect: i64 = naive[..q].iter().sum();
            assert_eq!(f.prefix_sum(q), expect);
        }
    }
}
