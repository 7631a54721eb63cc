//! TAGE-style conditional branch direction predictor (Table 4's "TAGE").
//!
//! A compact but faithful TAGE: a bimodal base predictor plus `N` tagged
//! tables indexed by geometrically longer global-history folds. Prediction
//! comes from the longest-history matching table; allocation on
//! misprediction targets a longer table with a not-useful entry; `u` bits
//! age periodically.

/// One tagged-table entry.
#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    /// 3-bit signed counter; taken when `>= 0` is encoded as `ctr >= 4`.
    ctr: u8,
    useful: u8,
}

/// Geometric history lengths for the default 4-table configuration.
const HIST_LENGTHS: [u32; 4] = [8, 16, 32, 64];
/// log2 entries per tagged table.
const TAGGED_BITS: u32 = 12;
/// log2 entries in the bimodal base table.
const BASE_BITS: u32 = 16;
/// Useful-bit aging period (predictions).
const AGE_PERIOD: u64 = 256 * 1024;

/// TAGE conditional direction predictor.
#[derive(Debug)]
pub struct Tage {
    base: Vec<u8>,
    tables: Vec<Vec<TaggedEntry>>,
    /// Global history, newest outcome in bit 0.
    ghist: u64,
    predictions: u64,
    mispredictions: u64,
    /// Simple deterministic allocation tie-breaker.
    alloc_seed: u64,
}

impl Tage {
    /// Creates the predictor with the default geometry.
    pub fn new() -> Self {
        Self {
            base: vec![2; 1 << BASE_BITS], // weakly taken
            tables: (0..HIST_LENGTHS.len())
                .map(|_| vec![TaggedEntry::default(); 1 << TAGGED_BITS])
                .collect(),
            ghist: 0,
            predictions: 0,
            mispredictions: 0,
            alloc_seed: 0x1234_5678_9abc_def0,
        }
    }

    fn fold(history: u64, bits: u32, out_bits: u32) -> u64 {
        let mut h = history
            & if bits >= 64 {
                u64::MAX
            } else {
                (1 << bits) - 1
            };
        let mut folded = 0u64;
        while h != 0 {
            folded ^= h & ((1 << out_bits) - 1);
            h >>= out_bits;
        }
        folded
    }

    fn index(&self, table: usize, pc: u64) -> usize {
        let fold = Self::fold(self.ghist, HIST_LENGTHS[table], TAGGED_BITS);
        ((pc >> 2) ^ fold ^ (pc >> (5 + table as u64))) as usize & ((1 << TAGGED_BITS) - 1)
    }

    fn tag(&self, table: usize, pc: u64) -> u16 {
        let fold = Self::fold(self.ghist, HIST_LENGTHS[table], 9);
        (((pc >> 2) ^ (fold << 1) ^ (pc >> 11)) & 0x1ff) as u16 | 0x200
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << BASE_BITS) - 1)
    }

    /// Finds the longest matching tagged table, if any.
    fn provider(&self, pc: u64) -> Option<(usize, usize)> {
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, pc);
            if self.tables[t][idx].tag == self.tag(t, pc) {
                return Some((t, idx));
            }
        }
        None
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        match self.provider(pc) {
            Some((t, idx)) => self.tables[t][idx].ctr >= 4,
            None => self.base[self.base_index(pc)] >= 2,
        }
    }

    /// Trains on the actual outcome and advances global history. Returns
    /// the pre-update prediction, the direction [`Tage::predict`] would
    /// have given.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        self.predictions += 1;
        let provider = self.provider(pc);
        let predicted = match provider {
            Some((t, idx)) => self.tables[t][idx].ctr >= 4,
            None => self.base[self.base_index(pc)] >= 2,
        };
        let correct = predicted == taken;
        if !correct {
            self.mispredictions += 1;
        }
        match provider {
            Some((t, idx)) => {
                let e = &mut self.tables[t][idx];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if correct {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
                // Allocate in a longer table on misprediction.
                if !correct && t + 1 < self.tables.len() {
                    self.allocate(t + 1, pc, taken);
                }
            }
            None => {
                let idx = self.base_index(pc);
                if taken {
                    self.base[idx] = (self.base[idx] + 1).min(3);
                } else {
                    self.base[idx] = self.base[idx].saturating_sub(1);
                }
                if !correct {
                    self.allocate(0, pc, taken);
                }
            }
        }
        if self.predictions.is_multiple_of(AGE_PERIOD) {
            self.age_useful();
        }
        self.ghist = (self.ghist << 1) | u64::from(taken);
        predicted
    }

    fn allocate(&mut self, from_table: usize, pc: u64, taken: bool) {
        self.alloc_seed = self
            .alloc_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let start = from_table + (self.alloc_seed >> 62) as usize % 2;
        for t in start.min(self.tables.len() - 1)..self.tables.len() {
            let idx = self.index(t, pc);
            let tag = self.tag(t, pc);
            let e = &mut self.tables[t][idx];
            if e.useful == 0 {
                *e = TaggedEntry {
                    tag,
                    ctr: if taken { 4 } else { 3 },
                    useful: 0,
                };
                return;
            }
        }
        // No victim found: decay usefulness along the path.
        for t in from_table..self.tables.len() {
            let idx = self.index(t, pc);
            let e = &mut self.tables[t][idx];
            e.useful = e.useful.saturating_sub(1);
        }
    }

    fn age_useful(&mut self) {
        for table in &mut self.tables {
            for e in table.iter_mut() {
                e.useful = e.useful.saturating_sub(1);
            }
        }
    }

    /// `(predictions, mispredictions)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Resets counters; tables and history are preserved.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_strongly_biased_branch() {
        let mut t = Tage::new();
        for _ in 0..200 {
            t.update(0x4000, true);
        }
        assert!(t.predict(0x4000));
        let (p, m) = t.stats();
        assert!(m * 10 < p, "miss rate too high: {m}/{p}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut t = Tage::new();
        let mut flip = false;
        let mut last_100_misses = 0;
        for i in 0..4000 {
            flip = !flip;
            let correct = t.update(0x8000, flip) == flip;
            if i >= 3900 && !correct {
                last_100_misses += 1;
            }
        }
        assert!(
            last_100_misses <= 5,
            "alternating branch not learned: {last_100_misses} misses in last 100"
        );
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // Taken 7 times then not-taken once, repeating.
        let mut t = Tage::new();
        let mut last_misses = 0;
        let mut n = 0;
        for rep in 0..600 {
            for i in 0..8 {
                let taken = i != 7;
                let correct = t.update(0xc000, taken) == taken;
                if rep >= 550 {
                    n += 1;
                    if !correct {
                        last_misses += 1;
                    }
                }
            }
        }
        assert!(
            (last_misses as f64) / (n as f64) < 0.1,
            "loop pattern not learned: {last_misses}/{n}"
        );
    }

    #[test]
    fn random_branch_stays_hard() {
        let mut t = Tage::new();
        let mut state = 0x2545f491u64;
        let mut misses = 0;
        const N: usize = 4000;
        for _ in 0..N {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let taken = state & 1 == 1;
            if t.update(0x1_0000, taken) != taken {
                misses += 1;
            }
        }
        // Roughly half mispredicted; anything above 30% proves it isn't
        // cheating (and below 70% that it isn't anti-learning).
        assert!(
            (N * 3 / 10..N * 7 / 10).contains(&misses),
            "misses = {misses}"
        );
    }

    #[test]
    fn update_returns_the_prediction_it_trained_on() {
        let mut t = Tage::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pc = 0x4000 + 4 * (state % 64);
            let taken = state & (1 << 40) != 0;
            let predicted = t.predict(pc);
            assert_eq!(t.update(pc, taken), predicted);
        }
    }

    #[test]
    fn distinct_pcs_do_not_destructively_interfere() {
        let mut t = Tage::new();
        for _ in 0..300 {
            t.update(0x111000, true);
            t.update(0x222000, false);
        }
        assert!(t.predict(0x111000));
        assert!(!t.predict(0x222000));
    }
}
