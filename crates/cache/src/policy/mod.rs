//! Replacement-policy abstraction, the EMISSARY `P(N)` policy (Algorithm 1)
//! and the prior-work policies from Table 3.
//!
//! Every recency-ordered policy sits on one substrate, the crate's
//! `Recency` (true LRU or tree PLRU, one or two priority classes): the
//! plain baseline and the `M:` insertion treatments are [`RecencyPolicy`],
//! `P(N)` keeps a two-class `Recency` in [`EmissaryPolicy`], and LIN and
//! LACS rank their cost-biased victims over a one-class true-LRU one.
//! `emissary-core`'s `PolicySpec` builds each policy from its notation.
//!
//! A [`ReplacementPolicy`] owns only *recency/prediction metadata*; line
//! contents and flag bits (validity, the EMISSARY `P` bit, …) live in the
//! [`crate::cache::Cache`] and are presented to the policy as a read-only
//! slice of [`LineState`] for the relevant set.
//!
//! ## Deferred insertion updates
//!
//! The paper's `M:` treatments place a line's insertion position using the
//! decode-starvation / issue-queue-empty flags of the miss, which are known
//! *before the line is inserted* in real hardware but only at miss
//! resolution in this eager-fill simulator. The cache therefore calls
//! [`ReplacementPolicy::on_fill`] at structural fill time (flags unknown,
//! `high_priority == false`) and [`ReplacementPolicy::on_fill_resolved`]
//! when the miss's flags become known. Insertion-treatment policies place
//! the line pessimistically (LRU) at fill and promote it at resolution;
//! plain policies do all their work in `on_fill`.

mod clip;
mod costaware;
mod emissary;
mod ghrp;
mod pdp;
mod recency;
mod rrip;

pub use clip::DclipPolicy;
pub use costaware::{LacsPolicy, LinPolicy};
pub use emissary::EmissaryPolicy;
pub use pdp::PdpPolicy;
pub(crate) use recency::Recency;
pub use recency::{PlruTree, RecencyBase, RecencyPolicy};
pub use rrip::{RripMode, RripPolicy};

use crate::line::{LineKind, LineState};

/// Metadata accompanying a cache access, consumed by policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// Instruction or data access.
    pub kind: LineKind,
    /// True for prefetcher-generated accesses.
    pub is_prefetch: bool,
    /// True for stores.
    pub is_write: bool,
    /// Mode-selection outcome for the incoming line (Table 1 equations,
    /// evaluated by the caller). Only meaningful in `on_fill_resolved` for
    /// `M:` treatments and in the EMISSARY `P(N)` policy's priority plumbing.
    pub high_priority: bool,
    /// Hint to insert at the most-protected position regardless of other
    /// rules; used by the L3's SFL mechanism (§5.1).
    pub mru_hint: bool,
    /// Outstanding misses when this fill was initiated (MLP estimate for
    /// LIN-style cost-aware policies). 0 when unknown.
    pub outstanding_misses: u8,
    /// Latency of the fill's source in cycles (LACS-style cost input).
    /// 0 when unknown or on hits.
    pub fill_latency: u16,
}

impl AccessInfo {
    /// A demand access of the given kind with no special flags.
    pub fn demand(kind: LineKind) -> Self {
        Self {
            kind,
            is_prefetch: false,
            is_write: false,
            high_priority: false,
            mru_hint: false,
            outstanding_misses: 0,
            fill_latency: 0,
        }
    }

    /// A prefetch access of the given kind.
    pub fn prefetch(kind: LineKind) -> Self {
        Self {
            is_prefetch: true,
            ..Self::demand(kind)
        }
    }

    /// Returns a copy with `high_priority` set as given.
    pub fn with_priority(self, high_priority: bool) -> Self {
        Self {
            high_priority,
            ..self
        }
    }

    /// Returns a copy with `mru_hint` set as given.
    pub fn with_mru_hint(self, mru_hint: bool) -> Self {
        Self { mru_hint, ..self }
    }
}

/// A cache replacement policy: the per-policy contract that each
/// [`PolicyImpl`] variant fulfils.
///
/// Implementations must be deterministic given their seed; all randomness
/// goes through [`crate::rng::XorShift64`].
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Short name for reports ("lru", "drrip", "P(8):S&E&R(1/32)", …).
    /// Returned as `&'static str` because stats/trace paths call it per
    /// event; policies with computed notation intern it once at
    /// construction (see [`intern_name`]).
    fn name(&self) -> &'static str;

    /// Called on every hit to `way` in `set`.
    fn on_hit(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo);

    /// Called when a new line is structurally placed into `way` of `set`.
    /// The `lines` slice already reflects the inserted line.
    fn on_fill(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo);

    /// Called when the miss that filled `way` resolves and its
    /// starvation-derived flags are known (see module docs). Default: no-op.
    fn on_fill_resolved(
        &mut self,
        _set: usize,
        _way: usize,
        _lines: &[LineState],
        _info: &AccessInfo,
    ) {
    }

    /// Chooses the way to evict from a completely valid set.
    ///
    /// The cache guarantees every way in `lines` is valid; policies may
    /// panic otherwise.
    fn victim(&mut self, set: usize, lines: &[LineState], info: &AccessInfo) -> usize;

    /// Whether the incoming line should bypass the cache instead of
    /// filling (consulted by [`crate::cache::Cache::fill`] before victim
    /// selection). Default: never. The paper found bypass ineffective for
    /// EMISSARY (§2) — the variant exists to reproduce that negative
    /// result.
    fn should_bypass(&mut self, _set: usize, _lines: &[LineState], _info: &AccessInfo) -> bool {
        false
    }

    /// Called when a way is invalidated (back-invalidation, exclusive-L3
    /// promotion). Default: no-op.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Called when a resident line's EMISSARY priority bit changes (e.g. the
    /// L1I communicates `P = 1` to the L2 copy on eviction). Default: no-op.
    fn on_priority_change(&mut self, _set: usize, _way: usize, _lines: &[LineState]) {}

    /// Hands the policy an observability tracer so it can emit per-decision
    /// events (the EMISSARY policy reports Algorithm 1 outcomes through
    /// this). Default: the tracer is dropped — policies without
    /// decision-level telemetry ignore it.
    fn set_tracer(&mut self, _tracer: emissary_obs::Tracer) {}

    /// Read-only self-check of the policy's metadata for `set` against the
    /// cache's line states, run by the opt-in invariant auditor
    /// (`EMISSARY_AUDIT=1`) at epoch boundaries. Returns a description of
    /// the first inconsistency found, or `None` when the state is sound.
    /// Default: no policy-specific state to check.
    fn audit_set(&self, _set: usize, _lines: &[LineState]) -> Option<String> {
        None
    }
}

/// Interns a policy-notation string, returning a `&'static str` for
/// [`ReplacementPolicy::name`]. Deduplicated so repeated constructions of
/// the same notation (sweeps build thousands of policies) never grow the
/// leaked pool beyond the set of distinct notations.
pub fn intern_name(s: &str) -> &'static str {
    use std::sync::Mutex;
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().expect("intern pool poisoned");
    if let Some(hit) = pool.iter().find(|p| **p == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// A replacement policy with enum dispatch on the per-access hot path.
///
/// Every policy has its own variant, so [`crate::cache::Cache`] calls
/// resolve to direct (inlinable) method calls instead of a vtable lookup
/// per access. A new policy implements [`ReplacementPolicy`] in this module
/// and adds a variant here.
#[derive(Debug)]
pub enum PolicyImpl {
    /// Plain true LRU or TPLRU, or an `M:` insertion treatment over either.
    Recency(RecencyPolicy),
    /// SRRIP/BRRIP/DRRIP.
    Rrip(RripPolicy),
    /// Protecting-distance policy.
    Pdp(PdpPolicy),
    /// DCLIP/CLIP.
    Dclip(DclipPolicy),
    /// MLP-aware LIN approximation.
    Lin(LinPolicy),
    /// LACS approximation.
    Lacs(LacsPolicy),
    /// EMISSARY `P(N)` with its bypass and GHRP variants, and standalone
    /// GHRP.
    Emissary(EmissaryPolicy),
}

/// Expands to a match over every variant, binding the inner policy as `$p`.
macro_rules! dispatch {
    ($self:expr, $p:ident => $call:expr) => {
        match $self {
            PolicyImpl::Recency($p) => $call,
            PolicyImpl::Rrip($p) => $call,
            PolicyImpl::Pdp($p) => $call,
            PolicyImpl::Dclip($p) => $call,
            PolicyImpl::Lin($p) => $call,
            PolicyImpl::Lacs($p) => $call,
            PolicyImpl::Emissary($p) => $call,
        }
    };
}

impl PolicyImpl {
    /// See [`ReplacementPolicy::name`].
    #[inline]
    pub fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    /// See [`ReplacementPolicy::on_hit`].
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo) {
        dispatch!(self, p => p.on_hit(set, way, lines, info))
    }

    /// See [`ReplacementPolicy::on_fill`].
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize, lines: &[LineState], info: &AccessInfo) {
        dispatch!(self, p => p.on_fill(set, way, lines, info))
    }

    /// See [`ReplacementPolicy::on_fill_resolved`].
    #[inline]
    pub fn on_fill_resolved(
        &mut self,
        set: usize,
        way: usize,
        lines: &[LineState],
        info: &AccessInfo,
    ) {
        dispatch!(self, p => p.on_fill_resolved(set, way, lines, info))
    }

    /// See [`ReplacementPolicy::victim`].
    #[inline]
    pub fn victim(&mut self, set: usize, lines: &[LineState], info: &AccessInfo) -> usize {
        dispatch!(self, p => p.victim(set, lines, info))
    }

    /// See [`ReplacementPolicy::should_bypass`].
    #[inline]
    pub fn should_bypass(&mut self, set: usize, lines: &[LineState], info: &AccessInfo) -> bool {
        dispatch!(self, p => p.should_bypass(set, lines, info))
    }

    /// See [`ReplacementPolicy::on_invalidate`].
    #[inline]
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way))
    }

    /// See [`ReplacementPolicy::on_priority_change`].
    #[inline]
    pub fn on_priority_change(&mut self, set: usize, way: usize, lines: &[LineState]) {
        dispatch!(self, p => p.on_priority_change(set, way, lines))
    }

    /// See [`ReplacementPolicy::set_tracer`].
    pub fn set_tracer(&mut self, tracer: emissary_obs::Tracer) {
        dispatch!(self, p => p.set_tracer(tracer))
    }

    /// See [`ReplacementPolicy::audit_set`].
    pub fn audit_set(&self, set: usize, lines: &[LineState]) -> Option<String> {
        dispatch!(self, p => p.audit_set(set, lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_info_builders() {
        let d = AccessInfo::demand(LineKind::Data);
        assert!(!d.is_prefetch && !d.high_priority);
        let p = AccessInfo::prefetch(LineKind::Instruction);
        assert!(p.is_prefetch);
        assert!(p.with_priority(true).high_priority);
        assert!(p.with_mru_hint(true).mru_hint);
    }
}
