//! Branch outcome models and data-address stream generators.

use crate::rng::Rng;

/// How a conditional branch behaves dynamically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBehavior {
    /// A loop backedge: taken `trip - 1` consecutive times, then not taken
    /// once (exits). Highly predictable by TAGE after warmup.
    Loop {
        /// Loop trip count (>= 1).
        trip: u32,
        /// This backedge's slot among the program's loop counters (see
        /// [`crate::program::Program::loop_sites`]).
        site: u32,
    },
    /// Taken with fixed probability each execution. `p` near 0 or 1 is
    /// easy; `p` near 0.5 models data-dependent, hard branches.
    Biased {
        /// Probability of being taken.
        taken_prob: f64,
    },
}

impl BranchBehavior {
    /// Computes the next outcome, advancing this branch's slot of
    /// `loop_counters` (per-loop dynamic state owned by the walker) and
    /// consuming randomness if needed.
    pub fn next_outcome(&self, loop_counters: &mut [u32], rng: &mut Rng) -> bool {
        match *self {
            BranchBehavior::Loop { trip, site } => {
                let counter = &mut loop_counters[site as usize];
                *counter += 1;
                if *counter >= trip.max(1) {
                    *counter = 0;
                    false // exit iteration: not taken
                } else {
                    true
                }
            }
            BranchBehavior::Biased { taken_prob } => rng.chance(taken_prob),
        }
    }
}

/// A data address stream. Addresses are *byte* addresses; the simulator
/// converts to lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataStream {
    /// Uniform-random accesses within a small hot region (L1D-resident).
    Hot {
        /// Region base byte address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
    },
    /// Uniform-random accesses within a mid-size region that misses L1D but
    /// lives in L2 — this is the data that competes with instruction lines
    /// for L2 capacity.
    Warm {
        /// Region base byte address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
    },
    /// Sequential streaming over a large circular region (DRAM-bound,
    /// next-line-prefetch friendly).
    Stream {
        /// Region base byte address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
    },
}

/// Walker-side cursor state for the stream kinds that need one.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamCursor {
    /// Byte offset for sequential streams.
    pub offset: u64,
}

impl DataStream {
    /// Zipf skew of line popularity within the warm region: real heaps
    /// have hot objects, and uniform-random reuse is pathologically
    /// recency-hostile in a way server data is not.
    pub const WARM_SKEW: f64 = 1.2;

    /// Produces the next byte address of this stream.
    pub fn next_addr(&self, cursor: &mut StreamCursor, rng: &mut Rng) -> u64 {
        match *self {
            DataStream::Hot { base, bytes } => {
                // Align to 8 bytes like scalar loads.
                base + (rng.below(bytes.max(8)) & !7)
            }
            DataStream::Warm { base, bytes } => {
                let lines = (bytes / 64).max(1) as usize;
                let line = rng.zipf(lines, Self::WARM_SKEW) as u64;
                base + line * 64 + rng.below(8) * 8
            }
            DataStream::Stream { base, bytes } => {
                let a = base + cursor.offset;
                cursor.offset = (cursor.offset + 64) % bytes.max(64);
                a
            }
        }
    }

    /// The region this stream touches, `(base, bytes)`.
    pub fn region(&self) -> (u64, u64) {
        match *self {
            DataStream::Hot { base, bytes }
            | DataStream::Warm { base, bytes }
            | DataStream::Stream { base, bytes } => (base, bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_behavior_exits_every_trip() {
        let b = BranchBehavior::Loop { trip: 4, site: 0 };
        let mut c = [0];
        let mut rng = Rng::new(1);
        let outcomes: Vec<bool> = (0..8).map(|_| b.next_outcome(&mut c, &mut rng)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn loop_trip_one_never_taken() {
        let b = BranchBehavior::Loop { trip: 1, site: 0 };
        let mut c = [0];
        let mut rng = Rng::new(1);
        for _ in 0..5 {
            assert!(!b.next_outcome(&mut c, &mut rng));
        }
    }

    #[test]
    fn biased_branch_matches_probability() {
        let b = BranchBehavior::Biased { taken_prob: 0.9 };
        let mut c = [];
        let mut rng = Rng::new(3);
        let taken = (0..10_000)
            .filter(|_| b.next_outcome(&mut c, &mut rng))
            .count();
        assert!((8_700..9_300).contains(&taken), "taken = {taken}");
    }

    #[test]
    fn hot_stream_stays_in_region() {
        let s = DataStream::Hot {
            base: 0x1000,
            bytes: 4096,
        };
        let mut cur = StreamCursor::default();
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let a = s.next_addr(&mut cur, &mut rng);
            assert!((0x1000..0x2000).contains(&a));
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn sequential_stream_advances_by_lines_and_wraps() {
        let s = DataStream::Stream {
            base: 0x8000,
            bytes: 128,
        };
        let mut cur = StreamCursor::default();
        let mut rng = Rng::new(5);
        let a0 = s.next_addr(&mut cur, &mut rng);
        let a1 = s.next_addr(&mut cur, &mut rng);
        let a2 = s.next_addr(&mut cur, &mut rng);
        assert_eq!(a0, 0x8000);
        assert_eq!(a1, 0x8040);
        assert_eq!(a2, 0x8000); // wrapped
    }
}
