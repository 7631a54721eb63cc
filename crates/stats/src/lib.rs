//! Statistics utilities for the EMISSARY reproduction.
//!
//! This crate hosts the measurement machinery that the simulator and the
//! experiment harness share:
//!
//! * [`fenwick::Fenwick`] — a binary indexed tree used by the
//!   reuse-distance tracker.
//! * [`reuse::ReuseTracker`] — online *unique-lines* reuse-distance
//!   measurement exactly as defined in §3 of the paper ("the number of
//!   unique lines accessed between two accesses to the same line"), used to
//!   regenerate Figure 2.
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
//! t.access(0x40); // one unique line (0x80) in between => distance 1
//! assert_eq!(t.last_distance(), Some(1));
//! assert_eq!(ReuseBucket::classify(1), ReuseBucket::Short);
//! ```

pub mod fenwick;
pub mod reuse;
pub mod summary;
pub mod table;

pub use fenwick::Fenwick;
pub use reuse::{ReuseBucket, ReuseTracker};
