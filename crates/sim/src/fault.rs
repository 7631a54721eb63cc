//! Fault detection for long-running simulations: a forward-progress
//! watchdog and the opt-in invariant auditor.
//!
//! A cycle-level simulator that deadlocks (a scheduling bug, a lost miss
//! resolution) spins forever inside [`crate::machine::Machine::step`] with
//! no output. The watchdog turns that hang into a structured
//! [`SimAbort`] carrying a diagnostic dump of the pipeline (FTQ depth, ROB
//! head, outstanding misses), so a campaign reports a `FAILED` row instead
//! of wedging a worker thread.
//!
//! All checks are read-only: a run under an armed watchdog that does not
//! fire is cycle-for-cycle identical to an unchecked run. Every check
//! depends on simulated state alone, so whether a run aborts is a pure
//! function of its configuration, never of the host.

/// Default forward-progress threshold: no real configuration keeps an
/// 8-wide machine from committing for this many consecutive cycles (a full
/// DRAM round-trip is ~150 cycles; mispredict re-steers are single-digit).
pub const DEFAULT_STALL_CYCLES: u64 = 4_000_000;

/// Fault-detection options for one simulation run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Abort when this many cycles elapse without a single commit.
    /// `None` disables the forward-progress watchdog.
    pub stall_cycles: Option<u64>,
    /// Run the invariant auditor at epoch boundaries (warmup end, sample
    /// boundaries, measurement end) and abort on any violation.
    pub audit: bool,
}

impl FaultConfig {
    /// Everything disabled: behaves exactly like the unchecked runner.
    pub fn none() -> Self {
        Self {
            stall_cycles: None,
            audit: false,
        }
    }

    /// The stall watchdog at its default threshold, no auditing — a
    /// sensible default for interactive runs.
    pub fn watchdog() -> Self {
        Self {
            stall_cycles: Some(DEFAULT_STALL_CYCLES),
            audit: false,
        }
    }

    /// Returns a copy with the forward-progress threshold set.
    pub fn with_stall_cycles(mut self, cycles: u64) -> Self {
        self.stall_cycles = Some(cycles);
        self
    }

    /// Returns a copy with auditing enabled.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }
}

/// Why a checked simulation was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimAbort {
    /// The forward-progress watchdog fired: no instruction committed for
    /// the configured number of cycles.
    Stalled {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Configured threshold that was exceeded.
        stall_cycles: u64,
        /// Pipeline-state dump at abort time.
        diagnostics: String,
    },
    /// The invariant auditor found violations at an epoch boundary.
    AuditFailed {
        /// Cycle of the failing epoch boundary.
        cycle: u64,
        /// Rendered violations (see `emissary_cache::audit`).
        violations: Vec<String>,
    },
}

impl SimAbort {
    /// Short machine-readable kind ("stalled" / "audit").
    pub fn kind(&self) -> &'static str {
        match self {
            SimAbort::Stalled { .. } => "stalled",
            SimAbort::AuditFailed { .. } => "audit",
        }
    }
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimAbort::Stalled {
                cycle,
                stall_cycles,
                diagnostics,
            } => write!(
                f,
                "no commit for {stall_cycles} cycles (now at cycle {cycle}): {diagnostics}"
            ),
            SimAbort::AuditFailed { cycle, violations } => {
                write!(
                    f,
                    "invariant audit failed at cycle {cycle} ({} violations): {}",
                    violations.len(),
                    violations.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for SimAbort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_disables_everything() {
        let f = FaultConfig::none();
        assert!(f.stall_cycles.is_none());
        assert!(!f.audit);
    }

    #[test]
    fn watchdog_arms_stall_detection_only() {
        let f = FaultConfig::watchdog();
        assert_eq!(f.stall_cycles, Some(DEFAULT_STALL_CYCLES));
        assert!(!f.audit);
    }

    #[test]
    fn builders_compose() {
        let f = FaultConfig::none().with_stall_cycles(123).with_audit();
        assert_eq!(f.stall_cycles, Some(123));
        assert!(f.audit);
    }

    #[test]
    fn abort_kinds_and_display() {
        let s = SimAbort::Stalled {
            cycle: 100,
            stall_cycles: 50,
            diagnostics: "dq=1".into(),
        };
        assert_eq!(s.kind(), "stalled");
        assert!(s.to_string().contains("50 cycles"));
        let a = SimAbort::AuditFailed {
            cycle: 7,
            violations: vec!["x".into(), "y".into()],
        };
        assert_eq!(a.kind(), "audit");
        assert!(a.to_string().contains("2 violations"));
    }
}
