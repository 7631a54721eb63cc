//! Policy notation (paper Table 3): parsing, display, and construction.
//!
//! Every policy evaluated in the paper is one of:
//!
//! * `M:<sel>` — an insertion treatment over the recency base (`M:1` is
//!   classic LRU/TPLRU and the baseline; `M:0` is LIP; `M:R(1/32)` is BIP;
//!   `M:S&E` and `M:S&E&R(1/32)` are the starvation-gated insertion
//!   policies of Figure 1/7);
//! * `P(N):<sel>` — an EMISSARY treatment (`P(8):S&E&R(1/32)` is the
//!   paper's preferred configuration);
//! * a named prior-work policy: `SRRIP`, `BRRIP`, `DRRIP`, `PDP`, `DCLIP`.

use std::str::FromStr;

use emissary_cache::policy::{
    intern_name, DclipPolicy, EmissaryPolicy, LacsPolicy, LinPolicy, PdpPolicy, PolicyImpl,
    RecencyBase, RecencyPolicy, RripMode, RripPolicy,
};

use crate::selection::SelectionExpr;

/// A parsed cache replacement policy specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// `M:<sel>` insertion treatment (Table 2's `M`).
    MruInsert(SelectionExpr),
    /// `P(N):<sel>` EMISSARY treatment (Table 2's `P(N)`).
    Protect {
        /// Maximum protected high-priority lines per set.
        n: usize,
        /// Mode-selection equation.
        selection: SelectionExpr,
    },
    /// `P(N):<sel>+BYPASS` — the §2 rejected variant where low-priority
    /// fills bypass a saturated set ("not found to be effective").
    ProtectBypass {
        /// Maximum protected high-priority lines per set.
        n: usize,
        /// Mode-selection equation.
        selection: SelectionExpr,
    },
    /// `P(N):<sel>+GHRP` — §7.2's suggested combination of EMISSARY with
    /// GHRP dead-block prediction inside the low-priority class.
    ProtectGhrp {
        /// Maximum protected high-priority lines per set.
        n: usize,
        /// Mode-selection equation.
        selection: SelectionExpr,
    },
    /// Static RRIP.
    Srrip,
    /// Bimodal RRIP (1/32).
    Brrip,
    /// Dynamic RRIP.
    Drrip,
    /// Static protecting-distance policy.
    Pdp,
    /// Dynamic code line preservation.
    Dclip,
    /// GHRP-style dead-block predicting policy (§7.2 related work).
    Ghrp,
    /// MLP-aware LIN approximation (§7.1 related work).
    Lin,
    /// LACS approximation (§7.1 related work).
    Lacs,
}

impl PolicySpec {
    /// The baseline policy, `M:1` (classic LRU/TPLRU).
    pub const BASELINE: PolicySpec = PolicySpec::MruInsert(SelectionExpr::Always);

    /// LIP (`M:0`).
    pub const LIP: PolicySpec = PolicySpec::MruInsert(SelectionExpr::Never);

    /// The paper's preferred EMISSARY configuration, `P(8):S&E&R(1/32)`.
    pub const PREFERRED: PolicySpec = PolicySpec::Protect {
        n: 8,
        selection: SelectionExpr::PREFERRED,
    };

    /// BIP with ratio `1/r` (`M:R(1/r)`).
    pub fn bip(r: u32) -> PolicySpec {
        PolicySpec::MruInsert(SelectionExpr::random(r))
    }

    /// An EMISSARY `P(n):<sel>` spec.
    pub fn emissary(n: usize, selection: SelectionExpr) -> PolicySpec {
        PolicySpec::Protect { n, selection }
    }

    /// True for `P(N):` treatments (the policies this paper contributes,
    /// including the bypass and GHRP variants).
    pub fn is_emissary(&self) -> bool {
        matches!(
            self,
            PolicySpec::Protect { .. }
                | PolicySpec::ProtectBypass { .. }
                | PolicySpec::ProtectGhrp { .. }
        )
    }

    /// The mode-selection equation, if the policy uses one.
    pub fn selection(&self) -> Option<SelectionExpr> {
        match self {
            PolicySpec::MruInsert(sel) => Some(*sel),
            PolicySpec::Protect { selection, .. }
            | PolicySpec::ProtectBypass { selection, .. }
            | PolicySpec::ProtectGhrp { selection, .. } => Some(*selection),
            _ => None,
        }
    }

    /// Whether the simulator must plumb decode-starvation signals for this
    /// policy.
    pub fn uses_starvation(&self) -> bool {
        self.selection().is_some_and(|s| s.uses_starvation())
    }

    /// Validates the spec against the target L2 geometry, returning the
    /// typed error that [`Self::build_l2_policy_with`] would otherwise
    /// panic over (or that a hand-constructed selection would trip deep
    /// inside the machine).
    ///
    /// `P(0)` is valid — "An N of 0 is equivalent to the baseline" (§5.5) —
    /// but a positive `N` must leave at least one way for low-priority
    /// insertions (`N < ways`).
    pub fn validate(&self, ways: usize) -> Result<(), PolicySpecError> {
        if let Some(selection) = self.selection() {
            selection
                .validate()
                .map_err(|message| PolicySpecError::InvalidSelection { message })?;
        }
        match *self {
            PolicySpec::Protect { n, .. }
            | PolicySpec::ProtectBypass { n, .. }
            | PolicySpec::ProtectGhrp { n, .. }
                if n > 0 && n >= ways =>
            {
                Err(PolicySpecError::ProtectExceedsAssociativity { n, ways })
            }
            _ => Ok(()),
        }
    }

    /// The recency order the built L2 policy keeps, over the evaluation's
    /// `flavor`: the `M:` and `P(N)` policies keep `flavor`'s, standalone
    /// GHRP a tree, LIN and LACS true LRU. The RRIP family, PDP and DCLIP
    /// keep none.
    pub fn recency_base(&self, flavor: RecencyBase) -> Option<RecencyBase> {
        match self {
            PolicySpec::MruInsert(_)
            | PolicySpec::Protect { .. }
            | PolicySpec::ProtectBypass { .. }
            | PolicySpec::ProtectGhrp { .. } => Some(flavor),
            PolicySpec::Ghrp => Some(RecencyBase::TreePlru),
            PolicySpec::Lin | PolicySpec::Lacs => Some(RecencyBase::TrueLru),
            PolicySpec::Srrip
            | PolicySpec::Brrip
            | PolicySpec::Drrip
            | PolicySpec::Pdp
            | PolicySpec::Dclip => None,
        }
    }

    /// The paper notation for this spec ("P(8):S&E&R(1/32)", …), interned
    /// so policies can expose it as a `&'static str` name.
    pub fn notation(&self) -> &'static str {
        intern_name(&self.to_string())
    }

    /// Builds the L2 policy with the evaluation default (TPLRU recency).
    pub fn build_l2_policy(&self, sets: usize, ways: usize, seed: u64) -> PolicyImpl {
        self.build_l2_policy_with(RecencyBase::TreePlru, sets, ways, seed)
    }

    /// Builds the L2 policy over the chosen recency flavor (Figure 1 uses
    /// [`RecencyBase::TrueLru`]). Standalone GHRP ignores the flavor and
    /// always runs over tree-PLRU.
    ///
    /// # Panics
    ///
    /// Panics if an EMISSARY spec has `n >= ways` (see
    /// [`EmissaryPolicy::new`]).
    pub fn build_l2_policy_with(
        &self,
        flavor: RecencyBase,
        sets: usize,
        ways: usize,
        seed: u64,
    ) -> PolicyImpl {
        let emissary = |n| EmissaryPolicy::new(n, flavor, sets, ways, self.notation());
        let rrip = |mode| PolicyImpl::Rrip(RripPolicy::new(mode, sets, ways, seed));
        match *self {
            // M:1 is the plain recency policy (every line MRU); any other
            // selection parks instruction fills at LRU until they resolve.
            PolicySpec::MruInsert(sel) => PolicyImpl::Recency(RecencyPolicy::new(
                flavor,
                sel != SelectionExpr::Always,
                sets,
                ways,
            )),
            // "An N of 0 is equivalent to the baseline" (§5.5).
            PolicySpec::Protect { n: 0, .. }
            | PolicySpec::ProtectBypass { n: 0, .. }
            | PolicySpec::ProtectGhrp { n: 0, .. } => flavor.build(sets, ways),
            PolicySpec::Protect { n, .. } => PolicyImpl::Emissary(emissary(n)),
            PolicySpec::ProtectBypass { n, .. } => PolicyImpl::Emissary(emissary(n).with_bypass()),
            PolicySpec::ProtectGhrp { n, .. } => {
                PolicyImpl::Emissary(emissary(n).with_dead_block_prediction())
            }
            PolicySpec::Ghrp => PolicyImpl::Emissary(EmissaryPolicy::ghrp(sets, ways)),
            PolicySpec::Srrip => rrip(RripMode::Static),
            PolicySpec::Brrip => rrip(RripMode::Bimodal),
            PolicySpec::Drrip => rrip(RripMode::Dynamic),
            PolicySpec::Pdp => {
                PolicyImpl::Pdp(PdpPolicy::new(sets, ways, PdpPolicy::DEFAULT_DISTANCE))
            }
            PolicySpec::Dclip => PolicyImpl::Dclip(DclipPolicy::new(sets, ways, seed)),
            PolicySpec::Lin => PolicyImpl::Lin(LinPolicy::new(sets, ways)),
            PolicySpec::Lacs => PolicyImpl::Lacs(LacsPolicy::new(sets, ways)),
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::MruInsert(sel) => write!(f, "M:{sel}"),
            PolicySpec::Protect { n, selection } => write!(f, "P({n}):{selection}"),
            PolicySpec::ProtectBypass { n, selection } => {
                write!(f, "P({n}):{selection}+BYPASS")
            }
            PolicySpec::ProtectGhrp { n, selection } => write!(f, "P({n}):{selection}+GHRP"),
            PolicySpec::Srrip => f.write_str("SRRIP"),
            PolicySpec::Brrip => f.write_str("BRRIP"),
            PolicySpec::Drrip => f.write_str("DRRIP"),
            PolicySpec::Pdp => f.write_str("PDP"),
            PolicySpec::Dclip => f.write_str("DCLIP"),
            PolicySpec::Ghrp => f.write_str("GHRP"),
            PolicySpec::Lin => f.write_str("LIN"),
            PolicySpec::Lacs => f.write_str("LACS"),
        }
    }
}

/// Why a [`PolicySpec`] is invalid for a target cache geometry (see
/// [`PolicySpec::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpecError {
    /// `P(N)` with a positive `N >= ways`: every insertion starts
    /// low-priority, so protecting all ways would leave fills nowhere to go.
    ProtectExceedsAssociativity {
        /// The requested protection count.
        n: usize,
        /// The target associativity.
        ways: usize,
    },
    /// The selection expression is degenerate (empty conjunction or an
    /// `R(1/0)` random filter).
    InvalidSelection {
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for PolicySpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpecError::ProtectExceedsAssociativity { n, ways } => {
                write!(f, "P({n}) requires N < ways, but the L2 is only {ways}-way")
            }
            PolicySpecError::InvalidSelection { message } => {
                write!(f, "invalid selection expression: {message}")
            }
        }
    }
}

impl std::error::Error for PolicySpecError {}

/// Error parsing a [`PolicySpec`] from its notation string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    message: String,
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid policy notation: {}", self.message)
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicySpec {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: String| ParsePolicyError { message: m };
        let s = s.trim();
        match s.to_ascii_uppercase().as_str() {
            "SRRIP" => return Ok(PolicySpec::Srrip),
            "BRRIP" => return Ok(PolicySpec::Brrip),
            "DRRIP" => return Ok(PolicySpec::Drrip),
            "PDP" => return Ok(PolicySpec::Pdp),
            "DCLIP" => return Ok(PolicySpec::Dclip),
            "GHRP" => return Ok(PolicySpec::Ghrp),
            "LIN" => return Ok(PolicySpec::Lin),
            "LACS" => return Ok(PolicySpec::Lacs),
            "LRU" | "TPLRU" => return Ok(PolicySpec::BASELINE),
            "LIP" => return Ok(PolicySpec::LIP),
            _ => {}
        }
        if let Some(sel) = s.strip_prefix("M:") {
            let sel = SelectionExpr::parse(sel).map_err(err)?;
            return Ok(PolicySpec::MruInsert(sel));
        }
        if let Some(rest) = s.strip_prefix("P(") {
            let (n_str, sel_str) = rest
                .split_once("):")
                .ok_or_else(|| err(format!("expected P(N):<sel>, got {s:?}")))?;
            let n: usize = n_str
                .trim()
                .parse()
                .map_err(|_| err(format!("bad protection count {n_str:?}")))?;
            if let Some(sel_str) = sel_str.strip_suffix("+GHRP") {
                let selection = SelectionExpr::parse(sel_str).map_err(err)?;
                return Ok(PolicySpec::ProtectGhrp { n, selection });
            }
            if let Some(sel_str) = sel_str.strip_suffix("+BYPASS") {
                let selection = SelectionExpr::parse(sel_str).map_err(err)?;
                return Ok(PolicySpec::ProtectBypass { n, selection });
            }
            let selection = SelectionExpr::parse(sel_str).map_err(err)?;
            return Ok(PolicySpec::Protect { n, selection });
        }
        Err(err(format!("unrecognized policy {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_notations_roundtrip() {
        for s in [
            "M:1",
            "M:0",
            "M:R(1/32)",
            "M:S&E",
            "M:S&E&R(1/32)",
            "P(8):R(1/32)",
            "P(8):S",
            "P(8):S&E",
            "P(8):S&E&R(1/32)",
            "P(14):S&E&R(1/64)",
            "SRRIP",
            "BRRIP",
            "DRRIP",
            "PDP",
            "DCLIP",
            "GHRP",
            "LIN",
            "LACS",
            "P(8):S&E&R(1/32)+GHRP",
            "P(8):S&E+BYPASS",
        ] {
            let spec: PolicySpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn aliases_parse() {
        assert_eq!("LRU".parse::<PolicySpec>().unwrap(), PolicySpec::BASELINE);
        assert_eq!("lip".parse::<PolicySpec>().unwrap(), PolicySpec::LIP);
        assert_eq!("drrip".parse::<PolicySpec>().unwrap(), PolicySpec::Drrip);
    }

    #[test]
    fn rejects_malformed() {
        for s in ["", "P(8)", "P(8):", "P(x):S", "M:", "Q:1", "P(8)S&E"] {
            assert!(s.parse::<PolicySpec>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn classification_helpers() {
        assert!(PolicySpec::PREFERRED.is_emissary());
        assert!(!PolicySpec::BASELINE.is_emissary());
        assert!(PolicySpec::PREFERRED.uses_starvation());
        assert!(!PolicySpec::bip(32).uses_starvation());
        assert_eq!(PolicySpec::Drrip.selection(), None);
    }

    #[test]
    fn validate_accepts_paper_policies_and_rejects_degenerates() {
        for spec in [
            PolicySpec::BASELINE,
            PolicySpec::LIP,
            PolicySpec::PREFERRED,
            PolicySpec::bip(32),
            PolicySpec::Drrip,
            PolicySpec::emissary(15, SelectionExpr::PREFERRED),
        ] {
            assert_eq!(spec.validate(16), Ok(()), "{spec}");
        }
        // P(0) is the baseline (§5.5), valid at any associativity.
        assert_eq!(
            PolicySpec::emissary(0, SelectionExpr::PREFERRED).validate(1),
            Ok(())
        );
        // Positive N must stay below the associativity, for every variant.
        for spec in [
            PolicySpec::emissary(16, SelectionExpr::PREFERRED),
            PolicySpec::ProtectBypass {
                n: 20,
                selection: SelectionExpr::PREFERRED,
            },
            PolicySpec::ProtectGhrp {
                n: 16,
                selection: SelectionExpr::PREFERRED,
            },
        ] {
            match spec.validate(16) {
                Err(PolicySpecError::ProtectExceedsAssociativity { ways: 16, .. }) => {}
                other => panic!("{spec}: expected associativity error, got {other:?}"),
            }
        }
        // Degenerate selections are caught even when constructed directly.
        let zero_r = PolicySpec::emissary(
            8,
            SelectionExpr::Conj {
                starvation: true,
                empty_iq: true,
                random_one_in: Some(0),
            },
        );
        assert!(matches!(
            zero_r.validate(16),
            Err(PolicySpecError::InvalidSelection { .. })
        ));
    }

    #[test]
    fn baseline_builds_plain_recency() {
        let p = PolicySpec::BASELINE.build_l2_policy(64, 16, 1);
        assert_eq!(p.name(), "tplru");
        let p = PolicySpec::BASELINE.build_l2_policy_with(RecencyBase::TrueLru, 64, 16, 1);
        assert_eq!(p.name(), "lru");
    }

    #[test]
    fn protect_zero_builds_baseline() {
        let spec = PolicySpec::emissary(0, SelectionExpr::PREFERRED);
        let p = spec.build_l2_policy(64, 16, 1);
        assert_eq!(p.name(), "tplru");
    }

    #[test]
    fn emissary_build_carries_notation() {
        let p = PolicySpec::PREFERRED.build_l2_policy(64, 16, 1);
        assert_eq!(p.name(), "P(8):S&E&R(1/32)");
    }

    #[test]
    fn named_policies_build() {
        for (spec, name) in [
            (PolicySpec::Srrip, "srrip"),
            (PolicySpec::Brrip, "brrip"),
            (PolicySpec::Drrip, "drrip"),
            (PolicySpec::Pdp, "pdp"),
            (PolicySpec::Dclip, "dclip"),
            (PolicySpec::Ghrp, "ghrp"),
            (PolicySpec::Lin, "lin"),
            (PolicySpec::Lacs, "lacs"),
        ] {
            assert_eq!(spec.build_l2_policy(64, 16, 1).name(), name);
        }
    }

    #[test]
    fn every_notation_builds_with_todays_name() {
        // (notation, name over TPLRU, name over true LRU); standalone GHRP
        // always runs over TPLRU and the rest ignore the flavor.
        for (notation, tplru, lru) in [
            ("M:1", "tplru", "lru"),
            ("M:0", "m-insert(tplru)", "m-insert(lru)"),
            ("M:R(1/32)", "m-insert(tplru)", "m-insert(lru)"),
            ("M:S&E&R(1/32)", "m-insert(tplru)", "m-insert(lru)"),
            ("P(0):S&E", "tplru", "lru"),
            ("P(8):S", "P(8):S", "P(8):S"),
            ("P(8):S&E+BYPASS", "P(8):S&E+BYPASS", "P(8):S&E+BYPASS"),
            ("P(8):S&E+GHRP", "P(8):S&E+GHRP", "P(8):S&E+GHRP"),
            ("GHRP", "ghrp", "ghrp"),
            ("SRRIP", "srrip", "srrip"),
            ("BRRIP", "brrip", "brrip"),
            ("DRRIP", "drrip", "drrip"),
            ("PDP", "pdp", "pdp"),
            ("DCLIP", "dclip", "dclip"),
            ("LIN", "lin", "lin"),
            ("LACS", "lacs", "lacs"),
        ] {
            let spec: PolicySpec = notation.parse().unwrap();
            for (flavor, name) in [(RecencyBase::TreePlru, tplru), (RecencyBase::TrueLru, lru)] {
                let p = spec.build_l2_policy_with(flavor, 64, 16, 1);
                assert_eq!(p.name(), name, "{notation} over {flavor:?}");
            }
        }
    }

    #[test]
    fn emissary_variants_build_and_classify() {
        let ghrp: PolicySpec = "P(8):S&E+GHRP".parse().unwrap();
        assert!(ghrp.is_emissary());
        assert!(ghrp.uses_starvation());
        assert_eq!(ghrp.build_l2_policy(64, 16, 1).name(), "P(8):S&E+GHRP");
        let byp: PolicySpec = "P(8):S&E&R(1/32)+BYPASS".parse().unwrap();
        assert!(byp.is_emissary());
        assert_eq!(
            byp.build_l2_policy(64, 16, 1).name(),
            "P(8):S&E&R(1/32)+BYPASS"
        );
    }
}
