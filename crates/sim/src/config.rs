//! Simulation configuration (paper Table 4's Alderlake-like model).

use emissary_cache::config::HierarchyConfig;
use emissary_cache::policy::RecencyBase;
use emissary_core::spec::{PolicySpec, PolicySpecError};
use emissary_frontend::FrontendConfig;

use crate::machine::{COMP_RING, MAX_DEP_DISTANCE};

/// Why a [`SimConfig`] was rejected before simulation started.
///
/// Returned by [`SimConfig::validate`]; the experiment harness rejects a
/// job carrying a degenerate configuration up front instead of letting it
/// panic (or silently misbehave) deep inside the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A cache's geometry is degenerate (zero ways, zero sets, or a
    /// non-power-of-two set count), or has more ways, or a way count
    /// other than a power of two, than its recency policy can hold
    /// ([`RecencyBase::ways_error`]).
    Geometry(String),
    /// A core structure is degenerate: a zero width or capacity (the
    /// pipeline would never make progress), or a ROB deep enough that live
    /// slots of the completion-time ring alias.
    Core(String),
    /// The L2 policy is inconsistent with the L2 geometry or carries a
    /// degenerate selection expression.
    Policy(PolicySpecError),
    /// `measure_instrs == 0`: the measurement window would never end a
    /// sample and every rate metric would divide by zero.
    ZeroMeasureWindow,
    /// The warmup exceeds the measurement window — almost always a swapped
    /// pair of arguments, and never a configuration the paper's §5.1
    /// protocol (short warmup, long measurement) would produce.
    WarmupExceedsMeasure {
        /// Configured warmup instructions.
        warmup: u64,
        /// Configured measurement instructions.
        measure: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Geometry(msg) => write!(f, "cache geometry: {msg}"),
            ConfigError::Core(msg) => write!(f, "core: {msg}"),
            ConfigError::Policy(e) => write!(f, "l2 policy: {e}"),
            ConfigError::ZeroMeasureWindow => {
                f.write_str("measure_instrs is zero; the measurement window would be empty")
            }
            ConfigError::WarmupExceedsMeasure { warmup, measure } => write!(
                f,
                "warmup_instrs ({warmup}) exceeds measure_instrs ({measure})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<PolicySpecError> for ConfigError {
    fn from(e: PolicySpecError) -> Self {
        ConfigError::Policy(e)
    }
}

/// Core pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Fetch width — blocks are fetched whole; this gates per-cycle flow.
    pub fetch_width: u32,
    /// Decode width (8, Table 4).
    pub decode_width: u32,
    /// Issue width (8).
    pub issue_width: u32,
    /// Commit width (8).
    pub commit_width: u32,
    /// Reorder buffer entries (512).
    pub rob_entries: usize,
    /// Issue queue entries (240).
    pub iq_entries: usize,
    /// Load queue entries (128).
    pub lq_entries: usize,
    /// Store queue entries (72).
    pub sq_entries: usize,
    /// FTQ entries (24).
    pub ftq_entries: usize,
    /// FTQ instruction budget (192).
    pub ftq_instrs: u32,
    /// Decode-queue capacity (instructions fetched but not yet decoded).
    pub decode_queue: usize,
    /// FDIP prefetches issued per cycle.
    pub fdip_per_cycle: usize,
    /// Front-end re-steer penalty after a mispredicted branch resolves.
    pub resteer_penalty: u64,
    /// ALU/branch execution latency.
    pub alu_latency: u64,
    /// How many instructions beyond the issue-queue head the scheduler
    /// examines per cycle (models select logic reach).
    pub scheduler_window: usize,
    /// Wrong-path blocks fetched per cycle while a mispredict is unresolved.
    pub wrong_path_blocks_per_cycle: usize,
    /// Front-end predictor structures.
    pub frontend: FrontendConfig,
}

impl CoreConfig {
    /// Why this core cannot run, if it cannot: a zero-sized structure
    /// stops the pipeline for good, and a ROB within `MAX_DEP_DISTANCE` of
    /// the completion-time ring lets a newly dispatched instruction
    /// overwrite a producer's completion time that an older in-flight
    /// consumer still reads.
    fn shape_error(&self) -> Option<String> {
        let sizes = [
            ("decode_width", self.decode_width as usize),
            ("issue_width", self.issue_width as usize),
            ("commit_width", self.commit_width as usize),
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
            ("ftq_entries", self.ftq_entries),
            ("ftq_instrs", self.ftq_instrs as usize),
            ("decode_queue", self.decode_queue),
            ("scheduler_window", self.scheduler_window),
        ];
        if let Some((name, _)) = sizes.iter().find(|&&(_, v)| v == 0) {
            return Some(format!(
                "{name} is zero; the pipeline would never make progress"
            ));
        }
        if self.rob_entries >= COMP_RING - MAX_DEP_DISTANCE {
            return Some(format!(
                "rob_entries ({}) + the largest dependence distance ({MAX_DEP_DISTANCE}) \
                 must stay below the {COMP_RING}-slot completion ring",
                self.rob_entries
            ));
        }
        None
    }

    /// Table 4's Alderlake-like configuration.
    pub fn alderlake_like() -> Self {
        Self {
            fetch_width: 8,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 512,
            iq_entries: 240,
            lq_entries: 128,
            sq_entries: 72,
            ftq_entries: 24,
            ftq_instrs: 192,
            decode_queue: 96,
            fdip_per_cycle: 2,
            resteer_penalty: 6,
            alu_latency: 1,
            scheduler_window: 64,
            wrong_path_blocks_per_cycle: 1,
            frontend: FrontendConfig::default(),
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::alderlake_like()
    }
}

/// A complete simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Replacement policy for the L1 caches (TPLRU by default; Figure 1
    /// uses true LRU).
    pub l1_policy: RecencyBase,
    /// The L2 policy under test.
    pub l2_policy: PolicySpec,
    /// Recency flavor for LRU-family L2 policies.
    pub recency: RecencyBase,
    /// Committed instructions of cache/predictor warmup before measuring.
    pub warmup_instrs: u64,
    /// Committed instructions in the measurement window.
    pub measure_instrs: u64,
    /// §6 priority-bit reset interval (committed instructions), if enabled.
    pub priority_reset_interval: Option<u64>,
    /// Model wrong-path fetch after mispredictions (pollution/prefetch).
    pub wrong_path_fetch: bool,
    /// Track reuse distances for Figure 2 metrics (small overhead).
    pub track_reuse: bool,
    /// Master seed for hardware RNG streams (selection `R`, policies).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::default(),
            hierarchy: HierarchyConfig::alderlake_like(),
            l1_policy: RecencyBase::TreePlru,
            l2_policy: PolicySpec::BASELINE,
            recency: RecencyBase::TreePlru,
            warmup_instrs: 200_000,
            measure_instrs: 2_000_000,
            priority_reset_interval: None,
            wrong_path_fetch: true,
            track_reuse: true,
            seed: 0x5EED,
        }
    }
}

impl SimConfig {
    /// Figure 1's environment: true LRU everywhere, no NLP prefetchers.
    pub fn figure1() -> Self {
        Self {
            hierarchy: HierarchyConfig::figure1(),
            l1_policy: RecencyBase::TrueLru,
            recency: RecencyBase::TrueLru,
            ..Self::default()
        }
    }

    /// Returns a copy with the given L2 policy.
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.l2_policy = policy;
        self
    }

    /// Checks the configuration for degenerate values that would panic (or
    /// quietly corrupt metrics) deep inside the machine: bad cache
    /// geometry, an L1 or L2 way count its recency policy cannot hold, a
    /// zero-sized or ring-aliasing core, a protect-`N` at or above the L2
    /// associativity, invalid selection expressions, an empty measurement
    /// window, or a warmup longer than the window it is supposed to warm
    /// up for.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(msg) = self.hierarchy.geometry_error() {
            return Err(ConfigError::Geometry(msg));
        }
        let h = &self.hierarchy;
        let recency = [
            (&h.l1i, Some(self.l1_policy)),
            (&h.l1d, Some(self.l1_policy)),
            (&h.l2, self.l2_policy.recency_base(self.recency)),
        ];
        for (cache, base) in recency {
            if let Some(msg) = base.and_then(|b| b.ways_error(cache.ways)) {
                return Err(ConfigError::Geometry(format!("{}: {msg}", cache.name)));
            }
        }
        if let Some(msg) = self.core.shape_error() {
            return Err(ConfigError::Core(msg));
        }
        self.l2_policy.validate(self.hierarchy.l2.ways)?;
        if self.measure_instrs == 0 {
            return Err(ConfigError::ZeroMeasureWindow);
        }
        if self.warmup_instrs > self.measure_instrs {
            return Err(ConfigError::WarmupExceedsMeasure {
                warmup: self.warmup_instrs,
                measure: self.measure_instrs,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_cache::config::CacheConfig;

    #[test]
    fn table4_values() {
        let c = CoreConfig::alderlake_like();
        assert_eq!(c.decode_width, 8);
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.iq_entries, 240);
        assert_eq!(c.lq_entries, 128);
        assert_eq!(c.sq_entries, 72);
        assert_eq!(c.ftq_entries, 24);
        assert_eq!(c.ftq_instrs, 192);
    }

    #[test]
    fn figure1_uses_true_lru_and_no_nlp() {
        let f = SimConfig::figure1();
        assert_eq!(f.l1_policy, RecencyBase::TrueLru);
        assert_eq!(f.recency, RecencyBase::TrueLru);
        assert!(!f.hierarchy.l2_nlp);
    }

    #[test]
    fn with_policy_builder() {
        let cfg = SimConfig::default().with_policy(PolicySpec::PREFERRED);
        assert_eq!(cfg.l2_policy, PolicySpec::PREFERRED);
    }

    #[test]
    fn validate_accepts_shipped_configurations() {
        for cfg in [
            SimConfig::default(),
            SimConfig::figure1(),
            SimConfig::default().with_policy(PolicySpec::PREFERRED),
            SimConfig::default().with_policy("DRRIP".parse().unwrap()),
            SimConfig::default().with_policy("P(8):S&E&R(1/32)+BYPASS".parse().unwrap()),
            SimConfig::default().with_policy("P(8):S&E&R(1/32)+GHRP".parse().unwrap()),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "rejected {:?}", cfg.l2_policy);
        }
    }

    #[test]
    fn validate_accepts_way_counts_the_policies_hold() {
        // A 12-way L2 needs no tree under RRIP or over true LRU, and a
        // configuration that validates builds and runs.
        let twelve_way = |mut c: SimConfig| {
            c.hierarchy.l2 = CacheConfig::new("l2", 768 * 1024, 12, 12);
            c.warmup_instrs = 500;
            c.measure_instrs = 2_000;
            c
        };
        let profile = emissary_workloads::Profile::by_name("xapian").unwrap();
        let program = profile.shared_program();
        for cfg in [
            twelve_way(SimConfig::default().with_policy(PolicySpec::Srrip)),
            twelve_way(SimConfig::default().with_policy(PolicySpec::Lacs)),
            twelve_way(SimConfig::figure1().with_policy(PolicySpec::PREFERRED)),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "rejected {:?}", cfg.l2_policy);
            let report = crate::run_sim_on(&program, &profile, &cfg);
            assert!(report.committed >= 2_000, "{:?}", cfg.l2_policy);
        }
    }

    /// One rejection case: label, mutated config, expected-error check.
    type RejectCase = (&'static str, SimConfig, fn(&ConfigError) -> bool);

    #[test]
    fn validate_rejects_degenerate_inputs() {
        // Table-driven: one mutation per row, with the variant we expect.
        let base = SimConfig::default;
        let cases: Vec<RejectCase> = vec![
            (
                "zero ways",
                {
                    let mut c = base();
                    c.hierarchy.l2.ways = 0;
                    c
                },
                |e| matches!(e, ConfigError::Geometry(_)),
            ),
            (
                "zero sets",
                {
                    let mut c = base();
                    c.hierarchy.l1i.capacity_bytes = 0;
                    c
                },
                |e| matches!(e, ConfigError::Geometry(_)),
            ),
            (
                "non-power-of-two sets",
                {
                    let mut c = base();
                    c.hierarchy.l3.capacity_bytes = 3 * 64 * c.hierarchy.l3.ways as u64;
                    c
                },
                |e| matches!(e, ConfigError::Geometry(_)),
            ),
            (
                "12-way TPLRU L2 (768 KB)",
                {
                    let mut c = base();
                    c.hierarchy.l2 = CacheConfig::new("l2", 768 * 1024, 12, 12);
                    c
                },
                |e| matches!(e, ConfigError::Geometry(m) if m.contains("power-of-two")),
            ),
            (
                "12-way TPLRU L1I",
                {
                    let mut c = base();
                    c.hierarchy.l1i = CacheConfig::new("l1i", 48 * 1024, 12, 2);
                    c
                },
                |e| matches!(e, ConfigError::Geometry(m) if m.starts_with("l1i")),
            ),
            (
                "64-way true-LRU L1D",
                {
                    let mut c = SimConfig::figure1();
                    c.hierarchy.l1d = CacheConfig::new("l1d", 64 * 1024, 64, 2);
                    c
                },
                |e| matches!(e, ConfigError::Geometry(m) if m.contains("1..=32")),
            ),
            (
                "64-way L2 under LIN's true LRU",
                {
                    let mut c = base().with_policy(PolicySpec::Lin);
                    c.hierarchy.l2 = CacheConfig::new("l2", 1024 * 1024, 64, 12);
                    c
                },
                |e| matches!(e, ConfigError::Geometry(m) if m.starts_with("l2")),
            ),
            (
                "protect-N at associativity",
                {
                    let mut c = base().with_policy(PolicySpec::PREFERRED);
                    c.hierarchy.l2.ways = 8;
                    c.l2_policy = "P(8):S".parse().unwrap();
                    c
                },
                |e| matches!(e, ConfigError::Policy(_)),
            ),
            (
                "zero issue width",
                {
                    let mut c = base();
                    c.core.issue_width = 0;
                    c
                },
                |e| matches!(e, ConfigError::Core(_)),
            ),
            (
                "rob aliases the completion ring",
                {
                    let mut c = base();
                    c.core.rob_entries = COMP_RING - MAX_DEP_DISTANCE;
                    c
                },
                |e| matches!(e, ConfigError::Core(_)),
            ),
            (
                "zero measurement window",
                {
                    let mut c = base();
                    c.measure_instrs = 0;
                    c
                },
                |e| matches!(e, ConfigError::ZeroMeasureWindow),
            ),
            (
                "warmup exceeds measure",
                {
                    let mut c = base();
                    c.warmup_instrs = c.measure_instrs + 1;
                    c
                },
                |e| matches!(e, ConfigError::WarmupExceedsMeasure { .. }),
            ),
        ];
        for (label, cfg, expect) in cases {
            let err = cfg.validate().expect_err(label);
            assert!(expect(&err), "{label}: unexpected error {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn validate_rejects_every_zero_core_size() {
        let zeroes: [fn(&mut CoreConfig); 11] = [
            |c| c.decode_width = 0,
            |c| c.issue_width = 0,
            |c| c.commit_width = 0,
            |c| c.rob_entries = 0,
            |c| c.iq_entries = 0,
            |c| c.lq_entries = 0,
            |c| c.sq_entries = 0,
            |c| c.ftq_entries = 0,
            |c| c.ftq_instrs = 0,
            |c| c.decode_queue = 0,
            |c| c.scheduler_window = 0,
        ];
        for zero in zeroes {
            let mut cfg = SimConfig::default();
            zero(&mut cfg.core);
            let err = cfg.validate().expect_err("zero core size accepted");
            assert!(
                matches!(&err, ConfigError::Core(msg) if msg.contains("is zero")),
                "unexpected error {err}"
            );
        }
        // The largest ROB the completion ring holds is accepted.
        let mut cfg = SimConfig::default();
        cfg.core.rob_entries = COMP_RING - MAX_DEP_DISTANCE - 1;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn geometry_error_reported_before_policy_error() {
        // P(15) on a 0-way L2 must fail on geometry, not panic computing
        // sets() or report the policy mismatch first.
        let mut c = SimConfig::default().with_policy("P(15):S".parse().unwrap());
        c.hierarchy.l2.ways = 0;
        assert!(matches!(c.validate(), Err(ConfigError::Geometry(_))));
    }
}
