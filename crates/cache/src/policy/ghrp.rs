//! GHRP-style dead-block prediction, the refinement behind `GHRP` and
//! `P(N):<sel>+GHRP`.
//!
//! §7.2 discusses GHRP (Ajorpaz et al., ISCA 2018), "an instruction cache
//! replacement policy focused on minimizing the number of misses by
//! identifying dead blocks", and notes that "GHRP's dead-block prediction
//! mechanism could be combined with EMISSARY to identify the low-priority
//! dead blocks for eviction. Doing so might further improve the performance
//! of EMISSARY." Both are one [`crate::policy::EmissaryPolicy`] with
//! [`DeadBlocks`] attached: Algorithm 1 chooses the priority class, and
//! within it predicted-dead lines are preferred victims, recency breaking
//! ties. Standalone GHRP is the same policy at `N = 0` with no line ever
//! marked, so its one class is the whole set.
//!
//! The predictor here is a deliberately compact GHRP: one table of 2-bit
//! counters trained on eviction outcomes (dead = evicted without a hit
//! since fill), indexed by `hash(line, folded global history)`. The
//! original uses multiple tables and sampled training; this captures the
//! mechanism the paper's discussion relies on.

/// log2 of the predictor table size.
const TABLE_BITS: u32 = 14;
/// Counter value at/above which a signature predicts "dead".
const DEAD_THRESHOLD: u8 = 2;
/// Counter maximum (2-bit).
const COUNTER_MAX: u8 = 3;

/// Compact dead-block predictor: signature-indexed saturating counters.
#[derive(Debug, Clone)]
struct DeadBlockPredictor {
    counters: Vec<u8>,
    /// Folded history of recently filled line addresses.
    history: u64,
}

impl DeadBlockPredictor {
    /// Creates an untrained predictor (everything predicted live).
    fn new() -> Self {
        Self {
            counters: vec![0; 1 << TABLE_BITS],
            history: 0,
        }
    }

    /// Signature of a line under the current global history.
    fn signature(&self, line_addr: u64) -> u32 {
        let h = line_addr ^ (line_addr >> 13) ^ (self.history & 0xffff);
        (h as u32 ^ (h >> 17) as u32) & ((1 << TABLE_BITS) - 1)
    }

    /// Advances the global history with a filled line address.
    fn record_fill(&mut self, line_addr: u64) {
        self.history = (self.history << 3) ^ (line_addr & 0xfff);
    }

    /// Whether `sig` currently predicts dead-on-fill.
    fn predicts_dead(&self, sig: u32) -> bool {
        self.counters[sig as usize] >= DEAD_THRESHOLD
    }

    /// Trains the signature with an eviction outcome.
    fn train(&mut self, sig: u32, was_dead: bool) {
        let c = &mut self.counters[sig as usize];
        if was_dead {
            *c = (*c + 1).min(COUNTER_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Per-line predictor bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    /// Signature captured at fill time (trained at eviction).
    sig: u32,
    /// Whether the line has hit since it was filled.
    reused: bool,
}

/// The predictor plus the per-line state it trains from, for `sets` x
/// `ways`.
#[derive(Debug, Clone)]
pub struct DeadBlocks {
    ways: usize,
    predictor: DeadBlockPredictor,
    meta: Vec<LineMeta>,
}

impl DeadBlocks {
    /// Untrained state for `sets` x `ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            predictor: DeadBlockPredictor::new(),
            meta: vec![LineMeta::default(); sets * ways],
        }
    }

    /// The line in `way` hit: it is not dead.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        self.meta[set * self.ways + way].reused = true;
    }

    /// Line `tag` was filled into `way`: capture its signature, then fold
    /// it into the global history.
    pub fn on_fill(&mut self, set: usize, way: usize, tag: u64) {
        let sig = self.predictor.signature(tag);
        self.meta[set * self.ways + way] = LineMeta { sig, reused: false };
        self.predictor.record_fill(tag);
    }

    /// The line in `way` left the cache: train its signature with whether
    /// it was reused.
    pub fn on_evict(&mut self, set: usize, way: usize) {
        let m = self.meta[set * self.ways + way];
        self.predictor.train(m.sig, !m.reused);
    }

    /// The predicted-dead ways of `mask`, or `mask` itself when none is.
    pub fn narrow(&self, set: usize, mask: u32) -> u32 {
        let base = set * self.ways;
        let dead = (0..self.ways)
            .filter(|&w| mask & (1 << w) != 0)
            .filter(|&w| self.predictor.predicts_dead(self.meta[base + w].sig))
            .fold(0u32, |m, w| m | (1 << w));
        if dead != 0 {
            dead
        } else {
            mask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_dead_signatures() {
        let mut p = DeadBlockPredictor::new();
        let sig = p.signature(0x42);
        assert!(!p.predicts_dead(sig));
        p.train(sig, true);
        p.train(sig, true);
        assert!(p.predicts_dead(sig));
        p.train(sig, false);
        p.train(sig, false);
        assert!(!p.predicts_dead(sig), "live training must clear prediction");
    }

    #[test]
    fn eviction_without_reuse_trains_dead() {
        let mut d = DeadBlocks::new(1, 2);
        d.on_fill(0, 0, 0x1000);
        d.on_fill(0, 1, 0x1001);
        assert_eq!(d.narrow(0, 0b11), 0b11, "untrained: nothing dead");
        // Way 0 leaves twice without a hit: its signature turns dead.
        d.on_evict(0, 0);
        d.on_evict(0, 0);
        assert_eq!(d.narrow(0, 0b11), 0b01);
        // The narrowing never leaves the mask it was given.
        assert_eq!(d.narrow(0, 0b10), 0b10);
    }

    #[test]
    fn reused_lines_train_live() {
        let mut d = DeadBlocks::new(1, 2);
        d.on_fill(0, 0, 0x1000);
        d.on_evict(0, 0);
        d.on_evict(0, 0);
        assert_eq!(d.narrow(0, 0b01), 0b01);
        d.on_hit(0, 0);
        d.on_evict(0, 0);
        d.on_evict(0, 0);
        assert_eq!(d.narrow(0, 0b11), 0b11, "reuse must clear the prediction");
    }
}
