//! ITTAGE-style indirect branch target predictor (Table 4's "ITTAGE").
//!
//! A base target cache (last-target per PC) plus tagged tables indexed with
//! folded global *target* history, predicting the full target address of
//! indirect jumps and calls.

/// One tagged entry: a tag, a target, and a confidence counter.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u16,
    target: u64,
    conf: u8,
}

const HIST_LENGTHS: [u32; 2] = [8, 32];
const TABLE_BITS: u32 = 11;
const BASE_BITS: u32 = 14;

/// ITTAGE indirect target predictor.
#[derive(Debug)]
pub struct Ittage {
    base: Vec<Entry>,
    tables: Vec<Vec<Entry>>,
    /// Path history of recent indirect targets.
    thist: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Ittage {
    /// Creates the predictor with the default geometry.
    pub fn new() -> Self {
        Self {
            base: vec![Entry::default(); 1 << BASE_BITS],
            tables: (0..HIST_LENGTHS.len())
                .map(|_| vec![Entry::default(); 1 << TABLE_BITS])
                .collect(),
            thist: 0,
            predictions: 0,
            mispredictions: 0,
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
        let fold = Self::fold(self.thist, HIST_LENGTHS[table], TABLE_BITS);
        ((pc >> 2) ^ fold) as usize & ((1 << TABLE_BITS) - 1)
    }

    fn tag(&self, table: usize, pc: u64) -> u16 {
        let fold = Self::fold(self.thist, HIST_LENGTHS[table], 8);
        (((pc >> 2) ^ (fold << 2)) & 0xff) as u16 | 0x100
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << BASE_BITS) - 1)
    }

    /// Predicts the target of the indirect branch at `pc`; `None` when the
    /// predictor has no information at all (cold).
    pub fn predict(&self, pc: u64) -> Option<u64> {
        for t in (0..self.tables.len()).rev() {
            let e = &self.tables[t][self.index(t, pc)];
            if e.tag == self.tag(t, pc) {
                return Some(e.target);
            }
        }
        let b = &self.base[self.base_index(pc)];
        (b.target != 0).then_some(b.target)
    }

    /// Trains on the actual target; returns the pre-update prediction,
    /// the target [`Ittage::predict`] would have given.
    pub fn update(&mut self, pc: u64, target: u64) -> Option<u64> {
        self.predictions += 1;
        let predicted = self.predict(pc);
        let correct = predicted == Some(target);
        if !correct {
            self.mispredictions += 1;
        }
        // Update the matching tagged entry (or allocate one on a miss).
        let mut matched = false;
        for t in (0..self.tables.len()).rev() {
            let idx = self.index(t, pc);
            let tag = self.tag(t, pc);
            let e = &mut self.tables[t][idx];
            if e.tag == tag {
                matched = true;
                if e.target == target {
                    e.conf = (e.conf + 1).min(3);
                } else if e.conf > 0 {
                    e.conf -= 1;
                } else {
                    e.target = target;
                }
                break;
            }
        }
        if !correct && !matched {
            // Allocate in the shortest table with zero confidence.
            for t in 0..self.tables.len() {
                let idx = self.index(t, pc);
                let tag = self.tag(t, pc);
                let e = &mut self.tables[t][idx];
                if e.conf == 0 {
                    *e = Entry {
                        tag,
                        target,
                        conf: 1,
                    };
                    break;
                }
                e.conf -= 1;
            }
        }
        // Base table: last-target with hysteresis.
        let bi = self.base_index(pc);
        let b = &mut self.base[bi];
        if b.target == target {
            b.conf = (b.conf + 1).min(3);
        } else if b.conf > 0 {
            b.conf -= 1;
        } else {
            b.target = target;
        }
        self.thist = (self.thist << 4) ^ (target >> 2);
        predicted
    }

    /// `(predictions, mispredictions)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.predictions, self.mispredictions)
    }

    /// Resets counters only.
    pub fn reset_stats(&mut self) {
        self.predictions = 0;
        self.mispredictions = 0;
    }
}

impl Default for Ittage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_returns_none() {
        let i = Ittage::new();
        assert_eq!(i.predict(0x4000), None);
    }

    #[test]
    fn learns_monomorphic_target() {
        let mut i = Ittage::new();
        for _ in 0..50 {
            i.update(0x4000, 0xbeef00);
        }
        assert_eq!(i.predict(0x4000), Some(0xbeef00));
        let (_, m) = i.stats();
        assert!(m <= 3, "mispredictions = {m}");
    }

    #[test]
    fn learns_history_correlated_targets() {
        // Target alternates A, B, A, B — correlated with target history.
        let mut i = Ittage::new();
        let (a, b) = (0xaaaa00u64, 0xbbbb00u64);
        let mut late_misses = 0;
        for rep in 0..3000 {
            let tgt = if rep % 2 == 0 { a } else { b };
            let correct = i.update(0x8000, tgt) == Some(tgt);
            if rep >= 2900 && !correct {
                late_misses += 1;
            }
        }
        assert!(late_misses <= 20, "late misses = {late_misses}");
    }

    #[test]
    fn update_returns_the_prediction_it_trained_on() {
        let mut i = Ittage::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pc = 0x4000 + 4 * (state % 32);
            let target = 0x10_0000 + 64 * ((state >> 32) % 4);
            let predicted = i.predict(pc);
            assert_eq!(i.update(pc, target), predicted);
        }
    }

    #[test]
    fn distinct_pcs_learn_independently() {
        let mut i = Ittage::new();
        for _ in 0..60 {
            i.update(0x111000, 0x1111);
            i.update(0x222000, 0x2222);
        }
        assert_eq!(i.predict(0x111000), Some(0x1111));
        assert_eq!(i.predict(0x222000), Some(0x2222));
    }
}
