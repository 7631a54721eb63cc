//! Fault detection for long-running simulations: wall-clock budgets, a
//! forward-progress watchdog, and the opt-in invariant auditor.
//!
//! A cycle-level simulator that deadlocks (a scheduling bug, a lost miss
//! resolution) spins forever inside [`crate::machine::Machine::step`] with
//! no output. The watchdog turns that hang into a structured
//! [`SimAbort`] carrying a diagnostic dump of the pipeline (FTQ depth, ROB
//! head, outstanding misses), so a campaign reports a `FAILED` row instead
//! of wedging a worker thread.
//!
//! All checks are read-only: a run under an armed watchdog that does not
//! fire is cycle-for-cycle identical to an unchecked run.

use std::time::Instant;

/// Default forward-progress threshold: no real configuration keeps an
/// 8-wide machine from committing for this many consecutive cycles (a full
/// DRAM round-trip is ~150 cycles; mispredict re-steers are single-digit).
pub const DEFAULT_STALL_CYCLES: u64 = 4_000_000;

/// Fault-detection options for one simulation run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Abort when `Instant::now()` passes this deadline (checked every
    /// 65 536 cycles to keep `Instant::now` off the hot path).
    pub deadline: Option<Instant>,
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
            deadline: None,
            stall_cycles: None,
            audit: false,
        }
    }

    /// The stall watchdog at its default threshold, no wall-clock budget,
    /// no auditing — a sensible default for interactive runs.
    pub fn watchdog() -> Self {
        Self {
            deadline: None,
            stall_cycles: Some(DEFAULT_STALL_CYCLES),
            audit: false,
        }
    }

    /// Returns a copy with a wall-clock budget starting now.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + std::time::Duration::from_millis(ms));
        self
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

impl Default for FaultConfig {
    fn default() -> Self {
        Self::watchdog()
    }
}

/// Why a checked simulation was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimAbort {
    /// The wall-clock budget expired mid-run.
    Timeout {
        /// Cycle at which the deadline check fired.
        cycle: u64,
        /// Pipeline-state dump at abort time.
        diagnostics: String,
    },
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
    /// Short machine-readable kind ("timeout" / "stalled" / "audit").
    pub fn kind(&self) -> &'static str {
        match self {
            SimAbort::Timeout { .. } => "timeout",
            SimAbort::Stalled { .. } => "stalled",
            SimAbort::AuditFailed { .. } => "audit",
        }
    }

    /// Whether retrying the job could plausibly change the outcome.
    /// Timeouts depend on host load and stalls can be injected
    /// (chaos/watchdog-threshold) artifacts, so both are worth one more
    /// attempt; an audit failure is a deterministic property of the
    /// simulated state and will reproduce exactly.
    pub fn retryable(&self) -> bool {
        !matches!(self, SimAbort::AuditFailed { .. })
    }
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimAbort::Timeout { cycle, diagnostics } => {
                write!(
                    f,
                    "wall-clock budget expired at cycle {cycle}: {diagnostics}"
                )
            }
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
        assert!(f.deadline.is_none());
        assert!(f.stall_cycles.is_none());
        assert!(!f.audit);
    }

    #[test]
    fn watchdog_arms_stall_detection_only() {
        let f = FaultConfig::watchdog();
        assert_eq!(f.stall_cycles, Some(DEFAULT_STALL_CYCLES));
        assert!(f.deadline.is_none());
    }

    #[test]
    fn builders_compose() {
        let f = FaultConfig::none()
            .with_timeout_ms(5)
            .with_stall_cycles(123)
            .with_audit();
        assert!(f.deadline.is_some());
        assert_eq!(f.stall_cycles, Some(123));
        assert!(f.audit);
    }

    #[test]
    fn abort_kinds_and_display() {
        let t = SimAbort::Timeout {
            cycle: 9,
            diagnostics: "rob=0".into(),
        };
        assert_eq!(t.kind(), "timeout");
        assert!(t.to_string().contains("cycle 9"));
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
        // Host-load and injection artifacts retry; deterministic
        // invariant violations do not.
        assert!(t.retryable());
        assert!(s.retryable());
        assert!(!a.retryable());
    }
}
