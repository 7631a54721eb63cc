//! EMISSARY — Enhanced MISS-Awareness Replacement Policy (ISCA 2023):
//! the paper's notation and mode selection.
//!
//! The paper contributes a family of *cost-aware* cache replacement
//! policies for L2 **instruction** caching. The key observation is that
//! modern decoupled front-ends tolerate most L1I misses; only the misses
//! that cause **decode starvation** (optionally gated on an **empty issue
//! queue** and a **random filter**) are costly. EMISSARY marks such lines
//! high-priority with a single `P` bit and **persistently** protects up to
//! `N` high-priority lines per L2 set from eviction (Algorithm 1).
//!
//! This crate decides *which* misses are costly and *which* policy a
//! notation names; every eviction mechanism, Algorithm 1 included
//! (`emissary_cache::policy::EmissaryPolicy`, over dual true-LRU or dual
//! tree-PLRU recency), lives in `emissary-cache`. The building blocks
//! mirror the paper's notation (§4):
//!
//! * [`selection::SelectionExpr`] — Table 1's mode-selection equations
//!   (`1`, `0`, `S`, `E`, `R(1/r)` and conjunctions like `S&E&R(1/32)`).
//! * [`spec::PolicySpec`] — Table 3's policy notation: `M:<sel>` insertion
//!   treatments, `P(N):<sel>` EMISSARY treatments, and the named prior-work
//!   policies (SRRIP/BRRIP/DRRIP/PDP/DCLIP). Parses from and displays to
//!   the paper's strings, and builds each as a statically-dispatched
//!   `PolicyImpl`.
//! * [`reset::ResetSchedule`] — §6's periodic `P`-bit reset mechanism.
//!
//! # Example
//!
//! ```
//! use emissary_core::spec::PolicySpec;
//!
//! let spec: PolicySpec = "P(8):S&E&R(1/32)".parse()?;
//! assert!(spec.is_emissary());
//! // Build the actual L2 policy for a 1 MB, 16-way cache:
//! let policy = spec.build_l2_policy(1024, 16, 42);
//! assert_eq!(policy.name(), "P(8):S&E&R(1/32)");
//! # Ok::<(), emissary_core::spec::ParsePolicyError>(())
//! ```

pub mod reset;
pub mod selection;
pub mod spec;

pub use reset::ResetSchedule;
pub use selection::{MissFlags, SelectionExpr};
pub use spec::{ParsePolicyError, PolicySpec, PolicySpecError};
