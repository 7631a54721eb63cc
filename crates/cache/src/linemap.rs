//! Line-keyed maps and sets for the simulator's miss path.
//!
//! The miss path tracks small, hot, integer-keyed state: the in-flight
//! (MSHR) tables in the hierarchy and the pending-miss flag table in the
//! machine. `std::collections::HashMap` pays SipHash plus a
//! cache-unfriendly bucket layout on every probe, which shows up directly
//! in end-to-end simulator throughput. [`LineMap`] replaces it on those
//! paths with a flat `Vec` of slots, a single multiply-based hash
//! (Fibonacci hashing by `0x9E37_79B9_7F4A_7C15`), linear probing, and
//! backward-shift deletion (no tombstones, so long-running maps with
//! constant insert/remove churn never degrade). Its tables are sized by
//! the entries they hold, so it suits maps that stay small: the in-flight
//! tables hold only the misses not yet pruned, at most a few dozen.
//!
//! [`LineSet`] holds sets that grow with a footprint instead: the
//! instruction lines ever touched (52k lines on tomcat) and the lines
//! whose in-flight entry expired without a later access. It is a bitmap
//! paged by 4096-line regions: a small `LineMap<u32>` from page number to
//! a 512-byte page, plus a count. A member costs one bit instead of a
//! hashed slot of 16 or 24 bytes, and a probe is one page-map lookup
//! plus a bit test.
//!
//! Neither is a general-purpose container: keys are `u64` line
//! addresses, there is no entry API beyond [`LineMap::get_or_insert`],
//! and [`LineMap::iter`]'s order is unspecified. Determinism is preserved
//! because the simulator never iterates these tables in a way that feeds
//! back into simulated behaviour (only the hierarchy's audit iterates).

/// Multiplicative hash constant (2^64 / φ, the Fibonacci hashing ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial slot count; must be a power of two.
const INITIAL_CAPACITY: usize = 16;

/// An open-addressing map from line address to `V` with linear probing
/// and backward-shift deletion. See the module docs for the rationale.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    /// Power-of-two slot array; `None` is an empty slot.
    slots: Vec<Option<(u64, V)>>,
    /// Number of occupied slots.
    len: usize,
}

impl<V> Default for LineMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LineMap<V> {
    /// Creates an empty map with the default initial capacity.
    pub fn new() -> Self {
        LineMap {
            slots: (0..INITIAL_CAPACITY).map(|_| None).collect(),
            len: 0,
        }
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry, keeping the allocated table.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Home slot index for `key` in the current table.
    #[inline]
    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(HASH_MUL);
        // High bits carry the multiply's mixing; shift them into range.
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Every `(key, value)` entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (*k, v))
    }

    /// Index of the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("found slot occupied").1)
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key)
            .map(|i| &mut self.slots[i].as_mut().expect("found slot occupied").1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.grow_if_needed();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, value)),
                Some(_) => i = (i + 1) & mask,
                empty @ None => {
                    *empty = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default` first if absent (the map's only entry-style API).
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, default: V) -> &mut V {
        self.grow_if_needed();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some((key, default));
                    self.len += 1;
                    break;
                }
            }
        }
        &mut self.slots[i].as_mut().expect("slot just filled").1
    }

    /// Removes `key`, returning its value if present. Uses backward-shift
    /// deletion: subsequent probe-chain entries slide back so lookups
    /// never cross a tombstone.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole].take().expect("found slot occupied");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some((k, _)) = self.slots[i] else { break };
            // Move the entry back iff the hole lies between its home slot
            // and its current slot (cyclically); otherwise the entry is
            // already as close to home as it can get.
            let home = self.home(k);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
        Some(value)
    }

    /// Doubles the table when load reaches 7/8, reinserting every entry.
    fn grow_if_needed(&mut self) {
        if (self.len + 1) * 8 < self.slots.len() * 7 {
            return;
        }
        let doubled = (0..self.slots.len() * 2).map(|_| None).collect();
        let old = std::mem::replace(&mut self.slots, doubled);
        self.len = 0;
        let mask = self.slots.len() - 1;
        for (key, value) in old.into_iter().flatten() {
            let mut i = self.home(key);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some((key, value));
            self.len += 1;
        }
    }
}

/// Lines per [`LineSet`] page: one page is a 512-byte bitmap.
const PAGE_LINES: u64 = 4096;

/// 64-bit words per [`LineSet`] page.
const PAGE_WORDS: usize = (PAGE_LINES / 64) as usize;

/// A set of line addresses: a bitmap paged by 4096-line regions, found
/// through a small [`LineMap`] from page number to page. See the module
/// docs for where it pays off.
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    /// Page number (`line / PAGE_LINES`) -> index into `pages`.
    index: LineMap<u32>,
    /// One bitmap per page any insert reached; pages are never freed.
    pages: Vec<[u64; PAGE_WORDS]>,
    /// Number of set bits over all pages.
    len: usize,
}

impl LineSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LineSet::default()
    }

    /// Number of lines in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page holding `line`, its word index and its bit mask.
    #[inline]
    fn locate(line: u64) -> (u64, usize, u64) {
        let bit = line % PAGE_LINES;
        (line / PAGE_LINES, (bit / 64) as usize, 1 << (bit % 64))
    }

    /// Adds `line`; returns `true` if it was not already present
    /// (matching `HashSet::insert`).
    #[inline]
    pub fn insert(&mut self, line: u64) -> bool {
        let (page, word, mask) = Self::locate(line);
        let next = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
        let i = *self.index.get_or_insert(page, next);
        if i == next {
            self.pages.push([0; PAGE_WORDS]);
        }
        let w = &mut self.pages[i as usize][word];
        let added = *w & mask == 0;
        *w |= mask;
        self.len += usize::from(added);
        added
    }

    /// Whether `line` is in the set.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let (page, word, mask) = Self::locate(line);
        self.index
            .get(page)
            .is_some_and(|&i| self.pages[i as usize][word] & mask != 0)
    }

    /// Removes `line`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, line: u64) -> bool {
        let (page, word, mask) = Self::locate(line);
        let Some(&i) = self.index.get(page) else {
            return false;
        };
        let w = &mut self.pages[i as usize][word];
        let removed = *w & mask != 0;
        *w &= !mask;
        self.len -= usize::from(removed);
        removed
    }

    /// Removes every line, keeping the allocated pages.
    pub fn clear(&mut self) {
        self.pages.fill([0; PAGE_WORDS]);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(0x40, 1u64), None);
        assert_eq!(m.insert(0x80, 2), None);
        assert_eq!(m.insert(0x40, 3), Some(1));
        assert_eq!(m.get(0x40), Some(&3));
        assert_eq!(m.get(0x80), Some(&2));
        assert_eq!(m.get(0xc0), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(0x40), Some(3));
        assert_eq!(m.remove(0x40), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_key_is_a_valid_line_address() {
        let mut m = LineMap::new();
        m.insert(0, 7u32);
        assert_eq!(m.get(0), Some(&7));
        assert_eq!(m.remove(0), Some(7));
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_insert_inserts_once_then_returns_existing() {
        let mut m = LineMap::new();
        *m.get_or_insert(5, 10u64) += 1;
        *m.get_or_insert(5, 99) += 1;
        assert_eq!(m.get(5), Some(&12));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut m = LineMap::new();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 64), Some(&i), "key {i} lost in growth");
        }
    }

    #[test]
    fn clear_keeps_table_usable() {
        let mut m = LineMap::new();
        for i in 0..100u64 {
            m.insert(i, i);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        m.insert(5, 50);
        assert_eq!(m.get(5), Some(&50));
    }

    /// Backward-shift deletion is the subtle part: drive the map with a
    /// deterministic random op mix over a small key space (to force long
    /// probe chains and wrap-around) and mirror every op into `HashMap`.
    #[test]
    fn random_ops_match_std_hashmap() {
        let mut rng = XorShift64::new(0xbeef);
        let mut ours: LineMap<u64> = LineMap::new();
        let mut theirs: HashMap<u64, u64> = HashMap::new();
        for step in 0..100_000u64 {
            // 48 distinct keys cluster around the 16..128-slot tables.
            let key = rng.next_u64() % 48;
            match rng.next_u64() % 4 {
                0 | 1 => {
                    assert_eq!(
                        ours.insert(key, step),
                        theirs.insert(key, step),
                        "insert({key}) at step {step}"
                    );
                }
                2 => {
                    assert_eq!(
                        ours.remove(key),
                        theirs.remove(&key),
                        "remove({key}) at step {step}"
                    );
                }
                _ => {
                    assert_eq!(ours.get(key), theirs.get(&key), "get({key}) at step {step}");
                }
            }
            assert_eq!(ours.len(), theirs.len(), "len at step {step}");
        }
        for (k, v) in &theirs {
            assert_eq!(ours.get(*k), Some(v), "final check key {k}");
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut m = LineMap::new();
        for i in 0..100u64 {
            m.insert(i * 3, i);
        }
        m.remove(30);
        let mut seen: Vec<(u64, u64)> = m.iter().map(|(k, &v)| (k, v)).collect();
        seen.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..100u64)
            .filter(|&i| i != 10)
            .map(|i| (i * 3, i))
            .collect();
        assert_eq!(seen, expected);
    }

    /// Mirror a random op mix into `HashSet`. The keys sit in clusters
    /// that straddle page boundaries (including the first and last page
    /// of the address space) and lie far apart, so the page map grows
    /// and a probe can hit an unmapped page.
    #[test]
    fn line_set_random_ops_match_std_hashset() {
        let mut rng = XorShift64::new(0x5e7);
        let mut ours = LineSet::new();
        let mut theirs: HashSet<u64> = HashSet::new();
        let centres = [
            0,
            PAGE_LINES,
            7 * PAGE_LINES,
            (1 << 30) * PAGE_LINES,
            u64::MAX - 200,
        ];
        for step in 0..200_000u64 {
            let centre = centres[(rng.next_u64() % centres.len() as u64) as usize];
            let key = centre.wrapping_add(rng.next_u64() % 400).wrapping_sub(200);
            match rng.next_u64() % 4 {
                0 | 1 => assert_eq!(
                    ours.insert(key),
                    theirs.insert(key),
                    "insert({key}) at {step}"
                ),
                2 => assert_eq!(
                    ours.remove(key),
                    theirs.remove(&key),
                    "remove({key}) at {step}"
                ),
                _ => assert_eq!(
                    ours.contains(key),
                    theirs.contains(&key),
                    "contains({key}) at {step}"
                ),
            }
            assert_eq!(ours.len(), theirs.len(), "len at step {step}");
        }
        for &key in &theirs {
            assert!(ours.contains(key), "final check key {key}");
        }
        ours.clear();
        assert!(ours.is_empty());
        assert!(theirs.iter().all(|&k| !ours.contains(k)));
    }

    #[test]
    fn line_set_matches_hashset_semantics() {
        let mut s = LineSet::new();
        assert!(s.insert(0x1000));
        assert!(!s.insert(0x1000));
        assert!(s.contains(0x1000));
        assert!(!s.contains(0x2000));
        assert_eq!(s.len(), 1);
        assert!(s.remove(0x1000));
        assert!(!s.remove(0x1000));
        assert!(s.is_empty());
    }
}
