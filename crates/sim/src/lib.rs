//! Cycle-level decoupled-front-end out-of-order core model for the
//! EMISSARY reproduction.
//!
//! This crate stands in for the paper's gem5 O3 full-system setup (§5.1,
//! Table 4). It wires together:
//!
//! * the synthetic workload walker (`emissary-workloads`) supplying the
//!   committed path,
//! * the FDIP front-end (`emissary-frontend`): TAGE/ITTAGE/BTB prediction,
//!   FTQ run-ahead, FDIP line prefetching, BTB-miss enqueue stalls,
//!   wrong-path fetch after mispredictions,
//! * the cache hierarchy (`emissary-cache`) with the L2 policy under test
//!   (`emissary-core` policies or prior work),
//! * a back-end with ROB/IQ/LQ/SQ occupancy, dependency-limited issue, and
//!   in-order commit with front-end/back-end stall attribution,
//! * decode-starvation detection and the EMISSARY priority plumbing
//!   (starvation flags accumulate per in-flight line; the Table 1 selection
//!   equation is evaluated once when the miss resolves),
//! * measurement: MPKIs, decode/issue rates, starvation cycles, Figure 2
//!   reuse/starvation attribution, Figure 8 priority histograms, and
//!   activity counts for the energy model.
//!
//! # Example
//!
//! ```
//! use emissary_sim::{SimConfig, run_sim};
//! use emissary_workloads::Profile;
//!
//! let mut cfg = SimConfig::default();
//! cfg.warmup_instrs = 5_000;
//! cfg.measure_instrs = 20_000;
//! cfg.l2_policy = "P(8):S&E&R(1/32)".parse().unwrap();
//! let profile = Profile::by_name("xapian").unwrap();
//! let report = run_sim(&profile, &cfg);
//! assert!(report.ipc() > 0.0);
//! ```

pub mod config;
pub mod fault;
pub mod machine;
pub mod report;
pub mod runner;

pub use config::{ConfigError, CoreConfig, SimConfig};
pub use fault::{FaultConfig, SimAbort};
pub use report::SimReport;
pub use runner::{run_sim, run_sim_checked_on, run_sim_observed, run_sim_on, ObsConfig, SimRun};
