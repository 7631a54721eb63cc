//! EMISSARY — a full reproduction of *"EMISSARY: Enhanced Miss Awareness
//! Replacement Policy for L2 Instruction Caching"* (ISCA 2023).
//!
//! EMISSARY is a family of **cost-aware** replacement policies for L2
//! instruction caching: lines whose misses caused *decode starvation*
//! (optionally gated on an empty issue queue and a random filter) are
//! marked high-priority with a single `P` bit and **persistently**
//! protected — up to `N` per set — from eviction, for the line's entire
//! lifetime in the cache.
//!
//! This crate is a facade re-exporting the whole workspace:
//!
//! * [`core`] — the EMISSARY policy notation (`P(N):S&E&R(1/32)`), mode
//!   selection and the §6 reset mechanism;
//! * [`cache`] — the cache/hierarchy substrate (inclusive L2, exclusive
//!   victim L3 with DRRIP + SFL, NLP prefetchers) and every policy on one
//!   recency substrate: Algorithm 1 over two classes (TPLRU or true LRU)
//!   and the prior-work comparison policies (LIP, BIP, SRRIP/BRRIP/DRRIP,
//!   PDP, DCLIP);
//! * [`frontend`] — the FDIP decoupled fetch engine (basic-block BTB,
//!   TAGE, ITTAGE, RAS, FTQ);
//! * [`sim`] — the cycle-level out-of-order core model (Table 4's
//!   Alderlake-like machine) with starvation detection and stall
//!   attribution;
//! * [`workloads`] — synthetic datacenter programs standing in for the
//!   paper's 13 server benchmarks;
//! * [`energy`] — the McPAT-lite energy model;
//! * [`stats`] — reuse-distance tracking and reporting utilities;
//! * [`obs`] — observability: the zero-overhead-when-disabled event
//!   tracer, interval sampler, and hand-rolled JSONL emission;
//! * [`mod@bench`] — the experiment harness regenerating every table/figure.
//!
//! # Quickstart
//!
//! Compare the paper's preferred EMISSARY configuration against the
//! TPLRU+FDIP baseline on one benchmark:
//!
//! ```
//! use emissary::prelude::*;
//!
//! let profile = Profile::by_name("xapian").unwrap();
//! let mut cfg = SimConfig::default();
//! cfg.warmup_instrs = 5_000;
//! cfg.measure_instrs = 20_000;
//!
//! let baseline = run_sim(&profile, &cfg.clone().with_policy(PolicySpec::BASELINE));
//! let emissary = run_sim(&profile, &cfg.with_policy(PolicySpec::PREFERRED));
//! println!(
//!     "speedup: {:.2}%",
//!     emissary.speedup_pct_vs(&baseline)
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and `all_experiments`
//! (`crates/bench/src/bin/`) for the reproduction harness.

pub use emissary_bench as bench;
pub use emissary_cache as cache;
pub use emissary_core as core;
pub use emissary_energy as energy;
pub use emissary_frontend as frontend;
pub use emissary_obs as obs;
pub use emissary_sim as sim;
pub use emissary_stats as stats;
pub use emissary_workloads as workloads;

/// The types most programs need, in one import.
pub mod prelude {
    pub use emissary_cache::config::HierarchyConfig;
    pub use emissary_core::reset::ResetSchedule;
    pub use emissary_core::selection::{MissFlags, SelectionExpr};
    pub use emissary_core::spec::PolicySpec;
    pub use emissary_energy::EnergyParams;
    pub use emissary_obs::{RingSink, TraceEvent, Tracer};
    pub use emissary_sim::{
        run_sim, run_sim_observed, run_sim_on, ObsConfig, SimConfig, SimReport, SimRun,
    };
    pub use emissary_stats::summary::{geomean, speedup_pct};
    pub use emissary_stats::table::Table;
    pub use emissary_workloads::Profile;
}
