//! The combined fetch engine: BTB + TAGE + ITTAGE + RAS (§5.2).
//!
//! "The branch predictor and BTB enqueue up to one basic block prediction
//! per cycle to the FTQ." The simulator feeds the engine ground-truth
//! [`BlockDesc`]s in program order; the engine produces a [`Prediction`]
//! stating whether the front-end would have steered correctly, where a
//! wrong prediction would have steered instead (for wrong-path fetch
//! modelling), and whether the BTB missed (enqueue stall + pre-decode
//! repair + next-two-line fall-through prefetch).

pub use crate::btb::BranchClass;
use crate::btb::{Btb, BtbEntry};
use crate::ittage::Ittage;
use crate::ras::ReturnAddressStack;
use crate::tage::Tage;

/// Ground truth for one dynamic basic block, supplied by the workload
/// walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDesc {
    /// Starting byte address.
    pub start: u64,
    /// Number of fixed-width (4-byte) instructions.
    pub num_instrs: u32,
    /// Terminating control-flow class.
    pub kind: BranchClass,
    /// The actual target control transfers to when taken (the actual return
    /// address for [`BranchClass::Return`]). Ignored for fall-throughs.
    pub taken_target: u64,
    /// Whether the terminator was actually taken (always true for
    /// unconditional classes, false for fall-through blocks).
    pub taken: bool,
}

impl BlockDesc {
    /// Address of the terminating instruction.
    pub fn branch_pc(&self) -> u64 {
        self.start + 4 * u64::from(self.num_instrs.saturating_sub(1))
    }

    /// Address of the instruction after the block.
    pub fn fallthrough(&self) -> u64 {
        self.start + 4 * u64::from(self.num_instrs)
    }

    /// Where control actually went.
    pub fn actual_next(&self) -> u64 {
        if self.taken {
            self.taken_target
        } else {
            self.fallthrough()
        }
    }
}

/// The engine's verdict for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The BTB had no entry for this block (enqueue stall; pre-decoder
    /// repaired it).
    pub btb_miss: bool,
    /// The predicted next-PC differs from the actual one: the machine will
    /// flush and re-steer when this block's terminator resolves.
    pub mispredicted: bool,
    /// Where the front-end would have steered (the wrong path start when
    /// `mispredicted`).
    pub predicted_next: u64,
}

/// Engine sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Total BTB entries (Table 4: 16K).
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// RAS depth.
    pub ras_depth: usize,
    /// Cycles the FTQ enqueue stalls on a BTB miss while the pre-decoder
    /// repairs the entry.
    pub btb_miss_penalty: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            btb_entries: 16 * 1024,
            btb_ways: 8,
            ras_depth: 32,
            btb_miss_penalty: 3,
        }
    }
}

/// Aggregate front-end counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Blocks predicted (one per FTQ enqueue attempt).
    pub blocks: u64,
    /// BTB misses among those.
    pub btb_misses: u64,
    /// Conditional branches seen / mispredicted.
    pub cond_branches: u64,
    /// Conditional mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect jumps/calls seen.
    pub indirect_branches: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
    /// Returns seen.
    pub returns: u64,
    /// Return target mispredictions.
    pub return_mispredicts: u64,
}

impl FrontendStats {
    /// All mispredictions that cause a pipeline flush.
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_mispredicts + self.indirect_mispredicts + self.return_mispredicts
    }
}

/// The decoupled fetch engine. See module docs.
#[derive(Debug)]
pub struct FetchEngine {
    cfg: FrontendConfig,
    btb: Btb,
    tage: Tage,
    ittage: Ittage,
    ras: ReturnAddressStack,
    stats: FrontendStats,
}

impl FetchEngine {
    /// Creates the engine from a config.
    pub fn new(cfg: FrontendConfig) -> Self {
        let btb = Btb::new(cfg.btb_entries, cfg.btb_ways);
        let ras = ReturnAddressStack::new(cfg.ras_depth);
        Self {
            cfg,
            btb,
            tage: Tage::new(),
            ittage: Ittage::new(),
            ras,
            stats: FrontendStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// Predicts (and trains on) one ground-truth block.
    ///
    /// Training happens inline because the simulator replays the committed
    /// path; wrong-path blocks (see [`FetchEngine::steer_wrong_path`]) do
    /// not train.
    pub fn predict_block(&mut self, block: &BlockDesc) -> Prediction {
        self.stats.blocks += 1;
        let btb_entry = self.btb.lookup(block.start);
        let btb_miss = btb_entry.is_none();
        if btb_miss {
            self.stats.btb_misses += 1;
            // Pre-decoder repair: install the entry for next time.
            self.btb.insert(BtbEntry {
                start: block.start,
                num_instrs: block.num_instrs,
                kind: block.kind,
                target: block.taken_target,
            });
        }
        let branch_pc = block.branch_pc();
        let (mispredicted, predicted_next) = match block.kind {
            BranchClass::FallThrough => (false, block.fallthrough()),
            BranchClass::Jump | BranchClass::Call => {
                if block.kind == BranchClass::Call {
                    self.ras.push(block.fallthrough());
                }
                // Static target: correct whenever the BTB knows the block.
                (false, block.taken_target)
            }
            BranchClass::CondDirect => {
                self.stats.cond_branches += 1;
                let pred_taken = self.tage.predict(branch_pc);
                self.tage.update(branch_pc, block.taken);
                let correct = pred_taken == block.taken;
                if !correct {
                    self.stats.cond_mispredicts += 1;
                }
                let next = if pred_taken {
                    block.taken_target
                } else {
                    block.fallthrough()
                };
                (!correct, next)
            }
            BranchClass::IndirectJump | BranchClass::IndirectCall => {
                self.stats.indirect_branches += 1;
                let pred = self.ittage.predict(branch_pc);
                self.ittage.update(branch_pc, block.taken_target);
                if block.kind == BranchClass::IndirectCall {
                    self.ras.push(block.fallthrough());
                }
                // A cold predictor falls back to the (stale) BTB target.
                let pred = pred.or(btb_entry.map(|e| e.target));
                let correct = pred == Some(block.taken_target);
                if !correct {
                    self.stats.indirect_mispredicts += 1;
                }
                (!correct, pred.unwrap_or_else(|| block.fallthrough()))
            }
            BranchClass::Return => {
                self.stats.returns += 1;
                let pred = self.ras.pop();
                let correct = pred == Some(block.taken_target);
                if !correct {
                    self.stats.return_mispredicts += 1;
                }
                (!correct, pred.unwrap_or_else(|| block.fallthrough()))
            }
        };
        Prediction {
            btb_miss,
            mispredicted,
            predicted_next,
        }
    }

    /// Looks up the BTB along a *wrong* path (no training, no repair):
    /// returns the next block's entry if the BTB knows it. The simulator
    /// uses this to walk wrong-path fetch for cache-pollution modelling.
    pub fn wrong_path_lookup(&mut self, start: u64) -> Option<BtbEntry> {
        self.btb.lookup(start)
    }

    /// Clears transient speculation state after a pipeline flush. The RAS
    /// is repaired conservatively (cleared); predictors keep their tables.
    pub fn steer_wrong_path(&mut self) {
        // Intentionally empty: wrong-path effects are modelled by the
        // simulator touching the caches; predictor state is only trained on
        // the committed path. Kept as an explicit hook for symmetry and
        // future checkpoint/restore models.
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// Resets counters at the warmup boundary; predictor state persists.
    pub fn reset_stats(&mut self) {
        self.stats = FrontendStats::default();
        self.btb.reset_stats();
        self.tage.reset_stats();
        self.ittage.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FrontendConfig {
        FrontendConfig {
            btb_entries: 256,
            btb_ways: 4,
            ras_depth: 8,
            btb_miss_penalty: 3,
        }
    }

    fn cond(start: u64, taken: bool) -> BlockDesc {
        BlockDesc {
            start,
            num_instrs: 4,
            kind: BranchClass::CondDirect,
            taken_target: start + 0x100,
            taken,
        }
    }

    #[test]
    fn first_sight_is_btb_miss_then_hit() {
        let mut e = FetchEngine::new(cfg());
        let b = cond(0x1000, true);
        assert!(e.predict_block(&b).btb_miss);
        assert!(!e.predict_block(&b).btb_miss);
        assert_eq!(e.stats().btb_misses, 1);
    }

    #[test]
    fn biased_branch_becomes_predictable() {
        let mut e = FetchEngine::new(cfg());
        let b = cond(0x2000, true);
        let mut late_misp = 0;
        for i in 0..300 {
            let p = e.predict_block(&b);
            if i >= 250 && p.mispredicted {
                late_misp += 1;
            }
        }
        assert_eq!(late_misp, 0);
        // Correct prediction steers to the taken target.
        assert_eq!(e.predict_block(&b).predicted_next, 0x2000 + 0x100);
    }

    #[test]
    fn mispredicted_conditional_reports_wrong_path() {
        let mut e = FetchEngine::new(cfg());
        // Train taken, then flip.
        for _ in 0..100 {
            e.predict_block(&cond(0x3000, true));
        }
        let flipped = cond(0x3000, false);
        let p = e.predict_block(&flipped);
        assert!(p.mispredicted);
        // The wrong path is the *taken* target.
        assert_eq!(p.predicted_next, 0x3000 + 0x100);
    }

    #[test]
    fn calls_and_returns_pair_through_ras() {
        let mut e = FetchEngine::new(cfg());
        let call = BlockDesc {
            start: 0x5000,
            num_instrs: 2,
            kind: BranchClass::Call,
            taken_target: 0x9000,
            taken: true,
        };
        let ret = BlockDesc {
            start: 0x9000,
            num_instrs: 3,
            kind: BranchClass::Return,
            taken_target: call.fallthrough(),
            taken: true,
        };
        let p = e.predict_block(&call);
        assert!(!p.mispredicted);
        let p = e.predict_block(&ret);
        assert!(!p.mispredicted, "RAS should predict the return");
        assert_eq!(p.predicted_next, call.fallthrough());
    }

    #[test]
    fn return_without_call_mispredicts() {
        let mut e = FetchEngine::new(cfg());
        let ret = BlockDesc {
            start: 0x9000,
            num_instrs: 1,
            kind: BranchClass::Return,
            taken_target: 0x1234,
            taken: true,
        };
        assert!(e.predict_block(&ret).mispredicted);
        assert_eq!(e.stats().return_mispredicts, 1);
    }

    #[test]
    fn indirect_learns_target() {
        let mut e = FetchEngine::new(cfg());
        let ind = BlockDesc {
            start: 0x7000,
            num_instrs: 2,
            kind: BranchClass::IndirectJump,
            taken_target: 0xaaaa00,
            taken: true,
        };
        e.predict_block(&ind); // cold: mispredict (or BTB-target luck)
        let mut late = 0;
        for i in 0..50 {
            if e.predict_block(&ind).mispredicted && i > 10 {
                late += 1;
            }
        }
        assert_eq!(late, 0, "monomorphic indirect should be learned");
    }

    #[test]
    fn jump_with_btb_hit_never_mispredicts() {
        let mut e = FetchEngine::new(cfg());
        let j = BlockDesc {
            start: 0x8000,
            num_instrs: 1,
            kind: BranchClass::Jump,
            taken_target: 0xf000,
            taken: true,
        };
        let p1 = e.predict_block(&j);
        assert!(p1.btb_miss && !p1.mispredicted);
        let p2 = e.predict_block(&j);
        assert!(!p2.btb_miss && !p2.mispredicted);
        assert_eq!(p2.predicted_next, 0xf000);
    }

    #[test]
    fn stats_reset_preserves_learning() {
        let mut e = FetchEngine::new(cfg());
        for _ in 0..100 {
            e.predict_block(&cond(0x2000, true));
        }
        e.reset_stats();
        assert_eq!(e.stats().blocks, 0);
        assert!(!e.predict_block(&cond(0x2000, true)).mispredicted);
    }
}
