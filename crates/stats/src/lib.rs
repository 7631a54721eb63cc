//! Statistics utilities for the EMISSARY reproduction.
//!
//! This crate hosts the measurement machinery that the simulator and the
//! experiment harness share:
//!
//! * [`reuse::ReuseTracker`] — online classification of *unique-lines*
//!   reuse distances, as defined in §3 of the paper ("the number of unique
//!   lines accessed between two accesses to the same line"), into Figure
//!   2's three buckets.
//! * [`summary`] — geometric means, speedups and percent deltas.
//! * [`table`] — plain-text/TSV table rendering for the harness binaries.
//!
//! # Example
//!
//! ```
//! use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
//!
//! let mut t = ReuseTracker::new();
//! t.access(0x40);
//! t.access(0x80);
//! // One unique line (0x80) in between: distance 1, the Short bucket.
//! assert_eq!(t.access(0x40), Some(ReuseBucket::Short));
//! assert_eq!(ReuseBucket::classify(1), ReuseBucket::Short);
//! ```

pub mod reuse;
pub mod summary;
pub mod table;

pub use reuse::{ReuseBucket, ReuseTracker};
