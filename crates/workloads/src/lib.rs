//! Synthetic datacenter workloads for the EMISSARY reproduction.
//!
//! The paper evaluates on 13 real server applications (tomcat, kafka, tpcc,
//! wikipedia, media-streaming, web-search, data-serving, xapian, specjbb,
//! finagle-http, finagle-chirper, verilator, speedometer2.0) running under
//! gem5 full-system simulation. Those applications and checkpoints are not
//! reproducible here, so this crate substitutes *synthetic CFG programs*
//! that preserve the properties the paper's §3 identifies as the reason
//! EMISSARY works:
//!
//! * large instruction footprints (tuned per benchmark to Figure 4's
//!   megabyte-scale values) exceeding the 1 MB L2;
//! * a short-reuse hot dispatcher loop, mid-reuse shared helpers, and
//!   long-reuse service routines cycled request-by-request (Figure 2's
//!   short/mid/long reuse mix);
//! * a controllable fraction of hard-to-predict branches, so decoupled
//!   run-ahead is periodically reset by re-steers (where starvation
//!   concentrates);
//! * data-side pressure on the shared L2 (hot / L2-warm / streaming
//!   regions), so over-protecting instruction lines hurts (§5.8, Table 5's
//!   large-`N` collapse).
//!
//! The pipeline is: [`profiles::Profile`] (per-benchmark knobs) →
//! [`builder::build_program`] (a static [`program::Program`] CFG) →
//! [`walker::Walker`] (the committed-path instruction stream the simulator
//! consumes).
//!
//! # Example
//!
//! ```
//! use emissary_workloads::profiles::Profile;
//! use emissary_workloads::walker::Walker;
//!
//! let profile = Profile::by_name("xapian").unwrap();
//! let program = profile.build();
//! let mut walker = Walker::new(&program, profile.seed);
//! let mut buf = Vec::new();
//! let block = walker.emit_block(&mut buf);
//! assert_eq!(buf.len(), block.num_instrs as usize);
//! ```

pub mod behavior;
pub mod builder;
pub mod profiles;
pub mod program;
pub mod rng;
pub mod store;
pub mod walker;

pub use behavior::{BranchBehavior, DataStream};
pub use builder::build_program;
pub use builder::ProgramShape;
pub use profiles::Profile;
pub use program::{
    BasicBlock, BlockId, IndirectSite, InstrKind, InstrTemplate, Program, TermClass, Terminator,
};
pub use store::shared_program;
pub use walker::{DynBlock, DynInstr, DynOp, Walker};
