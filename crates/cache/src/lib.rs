//! Set-associative cache and hierarchy substrate for the EMISSARY
//! reproduction (ISCA 2023).
//!
//! This crate provides everything the paper's machine model (Table 4) needs
//! below the core pipeline:
//!
//! * [`cache::Cache`] — a set-associative cache with per-line metadata
//!   (validity, dirtiness, instruction/data kind, the EMISSARY priority bit,
//!   the L2 "served-from-L3" SFL bit) and a pluggable
//!   [`policy::ReplacementPolicy`].
//! * [`policy`] — every replacement mechanism, statically dispatched through
//!   [`policy::PolicyImpl`]: the paper's EMISSARY `P(N)` policy
//!   (Algorithm 1 over dual recency, with §2's bypass and §7.2's GHRP
//!   variants) and the prior work it is compared against — true LRU, tree
//!   pseudo-LRU (TPLRU), the `M:` insertion-treatment family (LIP, BIP,
//!   `M:S&E`, …), SRRIP/BRRIP/DRRIP, PDP, DCLIP, GHRP, LIN and LACS. The
//!   `emissary-core` crate maps the paper's notation onto them.
//! * [`hierarchy::Hierarchy`] — the three-level hierarchy of the paper:
//!   private L1I/L1D, a unified *inclusive* L2, and an *exclusive victim* L3
//!   running DRRIP with the SFL insertion hint, plus next-line prefetchers
//!   and the §5.6 "zero-cycle-miss ideal L2 instruction cache" mode.
//! * [`rng::XorShift64`] — the deterministic RNG used on all simulated
//!   hardware paths (e.g. the `R(1/32)` random selection signal).
//!
//! # Example
//!
//! ```
//! use emissary_cache::config::CacheConfig;
//! use emissary_cache::cache::Cache;
//! use emissary_cache::line::LineKind;
//! use emissary_cache::policy::{AccessInfo, RecencyBase};
//!
//! let cfg = CacheConfig::new("l1i", 32 * 1024, 8, 2);
//! let mut cache = Cache::new(cfg.clone(), RecencyBase::TreePlru.build(cfg.sets(), 8));
//! let info = AccessInfo::demand(LineKind::Instruction);
//! assert!(cache.lookup(0x40, &info).is_none()); // cold miss
//! cache.fill(0x40, &info);
//! assert!(cache.lookup(0x40, &info).is_some());
//! ```

pub mod addr;
pub mod audit;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod line;
pub mod linemap;
pub mod policy;
pub mod rng;
pub mod stats;

pub use crate::audit::AuditViolation;
pub use crate::cache::Cache;
pub use crate::config::{CacheConfig, HierarchyConfig};
pub use crate::hierarchy::{Hierarchy, MemAccess, ServedBy};
pub use crate::line::{LineKind, LineState};
pub use crate::policy::{AccessInfo, RecencyBase, ReplacementPolicy};
pub use crate::rng::XorShift64;
