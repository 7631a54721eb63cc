//! Structural invariant auditing (the `EMISSARY_AUDIT=1` checker).
//!
//! The auditor walks cache state *read-only* at epoch boundaries (warmup
//! end, sample boundaries, measurement end) and reports anything that
//! violates a structural invariant of the model:
//!
//! * `set_occupancy` — valid lines in a set never exceed the associativity.
//! * `line_placement` — a resident line's address maps to the set holding it.
//! * `duplicate_line` — a line address is resident at most once per cache.
//! * `priority_on_data` — the EMISSARY `P` bit is only ever set on
//!   instruction lines (every marking path is instruction-side).
//! * `policy_state` — the replacement policy's own metadata is in range
//!   (RRPV values within 2 bits; EMISSARY dual-recency sized to the cache),
//!   via [`crate::policy::ReplacementPolicy::audit_set`].
//! * `inclusion` / `exclusivity` — hierarchy-level pairings (every valid L1
//!   line resident in the inclusive L2; the exclusive victim L3 disjoint
//!   from L2).
//! * `inflight_record` / `inflight_expired` — every in-flight (MSHR) table
//!   entry has a ready-cycle heap record with its ready cycle, and no line
//!   is both in flight and in its side's expired set.
//!
//! Note on Algorithm 1's protection bound: the paper caps *protection*, not
//! *marking* — `P` bits are set unconditionally when a selected starvation
//! occurs, and a set's high-priority population may transiently exceed `N`
//! between evictions (that saturation is §6's motivation for the periodic
//! reset). The auditor therefore bounds priority occupancy by the
//! associativity and leaves the `count <= N` decision rule to the
//! [`Protect`](emissary_obs::TraceEvent::Protect) event stream, where it is
//! a per-decision fact rather than a standing-state invariant.

use emissary_obs::Level;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Stable snake_case invariant name (matches the
    /// [`emissary_obs::TraceEvent::AuditViolation`] `invariant` field).
    pub invariant: &'static str,
    /// Hierarchy level the violation was found at.
    pub level: Level,
    /// Set index involved (0 for whole-cache invariants).
    pub set: usize,
    /// Invariant-specific numeric detail (offending count, way, or line
    /// address).
    pub detail: u64,
    /// Human-readable description for diagnostics.
    pub message: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} set {}: {}",
            self.level.as_str(),
            self.invariant,
            self.set,
            self.message
        )
    }
}
