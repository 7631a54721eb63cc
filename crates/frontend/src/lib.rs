//! Decoupled fetch-engine substrate for the EMISSARY reproduction.
//!
//! Models the aggressive FDIP front-end of the paper's §5.2:
//!
//! * [`btb::Btb`] — a 16K-entry BTB whose entries describe *dynamic basic
//!   blocks* (start address, size, terminating control-flow kind, target),
//!   indexed by block start address.
//! * [`tage::Tage`] — a TAGE-style conditional branch direction predictor.
//! * [`ittage::Ittage`] — an ITTAGE-style indirect target predictor.
//! * [`ras::ReturnAddressStack`] — return address prediction.
//! * [`fdip::PrefetchQueue`] — FDIP's prefetch stream: cache-line requests
//!   generated as blocks enter the FTQ, drained by the simulator with a
//!   per-cycle bandwidth budget.
//! * [`engine::FetchEngine`] — combines the above: one basic-block
//!   prediction per cycle, BTB-miss enqueue stalls with pre-decode repair
//!   and next-two-line prefetch, and misprediction detection against the
//!   architectural (ground-truth) path.
//!
//! The Fetch Target Queue (24 blocks / 192 instructions) that decouples
//! prediction from fetch is not a type here: the simulator keeps it as a
//! cursor range of its instruction window, next to the decode queue and
//! the ROB (`emissary_sim`'s machine module).
//!
//! The crate is self-contained: the simulator supplies ground-truth block
//! descriptors and consumes prediction outcomes; no cache or workload types
//! appear in this API.

pub mod btb;
pub mod engine;
pub mod fdip;
pub mod ittage;
pub mod ras;
pub mod tage;

pub use btb::BranchClass;
pub use btb::{Btb, BtbEntry};
pub use engine::{BlockDesc, FetchEngine, FrontendConfig, FrontendStats, Prediction};
pub use fdip::PrefetchQueue;
pub use ittage::Ittage;
pub use ras::ReturnAddressStack;
pub use tage::Tage;
