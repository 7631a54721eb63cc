//! The trace event vocabulary.
//!
//! Events are `Copy` so the hot path never allocates; serialization to
//! JSON happens only inside sinks that asked for it.

use crate::json::JsonObject;
use crate::parse::JsonValue;

/// Which level of the memory hierarchy served (or absorbed) an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level cache.
    L1,
    /// Second-level cache (the EMISSARY target).
    L2,
    /// Victim L3.
    L3,
    /// Main memory.
    Memory,
    /// Joined an in-flight fill (MSHR hit).
    InFlight,
}

impl Level {
    /// Stable lower-case name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::L1 => "l1",
            Level::L2 => "l2",
            Level::L3 => "l3",
            Level::Memory => "memory",
            Level::InFlight => "inflight",
        }
    }

    /// Parses the name produced by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "l1" => Level::L1,
            "l2" => Level::L2,
            "l3" => Level::L3,
            "memory" => Level::Memory,
            "inflight" => Level::InFlight,
            _ => return None,
        })
    }
}

/// Every audit-invariant name emitted anywhere in the workspace.
/// `TraceEvent::AuditViolation` carries `&'static str`, so parsing a
/// trace back must intern against this list; the exhaustive-coverage
/// test in `tests/event_roundtrip.rs` asserts it stays in sync with the
/// emit sites.
pub const KNOWN_INVARIANTS: &[&str] = &[
    "inclusion",
    "exclusivity",
    "set_occupancy",
    "line_placement",
    "duplicate_line",
    "priority_on_data",
    "policy_state",
    "inflight_record",
    "inflight_expired",
];

/// Maps an invariant name from a parsed trace back to its static
/// spelling (`None` for names no emit site uses).
pub fn intern_invariant(name: &str) -> Option<&'static str> {
    KNOWN_INVARIANTS.iter().find(|&&k| k == name).copied()
}

/// One cycle-stamped simulator event.
///
/// `line` fields are line addresses (byte address >> line-offset bits), the
/// unit the cache hierarchy operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction line was installed in L2.
    L2Fill {
        /// Cycle of the fill.
        cycle: u64,
        /// Line address installed.
        line: u64,
        /// Level that supplied the data.
        source: Level,
        /// Whether the line arrived carrying EMISSARY high priority.
        high_priority: bool,
    },
    /// A line was evicted from L2 (to the victim L3).
    L2Evict {
        /// Cycle of the eviction.
        cycle: u64,
        /// Line address evicted.
        line: u64,
        /// Whether the evicted line held EMISSARY high priority.
        high_priority: bool,
    },
    /// The replacement policy declined to cache a fill in L2.
    L2Bypass {
        /// Cycle of the bypassed fill.
        cycle: u64,
        /// Line address that bypassed L2.
        line: u64,
    },
    /// A line was marked high-priority (EMISSARY's cost-awareness bit).
    PriorityMark {
        /// Cycle of the mark.
        cycle: u64,
        /// Line address marked.
        line: u64,
        /// False when the mark was applied to a resident line, true when
        /// it was deferred onto an in-flight fill and applied at
        /// fill-resolution time.
        deferred: bool,
    },
    /// An Algorithm 1 victim decision in an EMISSARY-managed set.
    Protect {
        /// Cycle of the eviction decision.
        cycle: u64,
        /// Set index the decision was made in.
        set: u32,
        /// High-priority lines resident in the set at decision time.
        high_lines: u32,
        /// True when the high-priority class was protected (victim taken
        /// from the low-priority class); false when saturation forced a
        /// high-priority victim.
        protected: bool,
    },
    /// Decode starved with a backend ready to accept (episode start).
    StarveStart {
        /// First starved cycle of the episode.
        cycle: u64,
        /// Line address the decode head is waiting on.
        line: u64,
        /// Level serving the blamed miss.
        source: Level,
    },
    /// The starvation episode ended.
    StarveEnd {
        /// First non-starved cycle after the episode.
        cycle: u64,
        /// Line address that was blamed at episode start.
        line: u64,
        /// Level that served the blamed miss.
        source: Level,
        /// Cycle the episode started (duration = cycle - start_cycle).
        start_cycle: u64,
    },
    /// The invariant auditor (opt-in, at epoch boundaries) found simulated state
    /// violating a structural invariant.
    AuditViolation {
        /// Cycle the audit ran.
        cycle: u64,
        /// Stable name of the violated invariant (e.g.
        /// `"set_occupancy"`, `"inclusion"`, `"rrip_range"`).
        invariant: &'static str,
        /// Hierarchy level the violation was found at.
        level: Level,
        /// Set index involved (0 for whole-cache invariants).
        set: u32,
        /// Invariant-specific detail (an offending count, way, or line
        /// address).
        detail: u64,
    },
}

impl TraceEvent {
    /// Every event kind name [`TraceEvent::kind`] can return, in variant
    /// order. The round-trip test asserts this list matches the emit
    /// sites found by grepping the workspace.
    pub const KINDS: &'static [&'static str] = &[
        "l2_fill",
        "l2_evict",
        "l2_bypass",
        "priority_mark",
        "protect",
        "starve_start",
        "starve_end",
        "audit_violation",
    ];

    /// The cycle stamp carried by the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::L2Fill { cycle, .. }
            | TraceEvent::L2Evict { cycle, .. }
            | TraceEvent::L2Bypass { cycle, .. }
            | TraceEvent::PriorityMark { cycle, .. }
            | TraceEvent::Protect { cycle, .. }
            | TraceEvent::StarveStart { cycle, .. }
            | TraceEvent::StarveEnd { cycle, .. }
            | TraceEvent::AuditViolation { cycle, .. } => cycle,
        }
    }

    /// Stable snake_case event name used in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::L2Fill { .. } => "l2_fill",
            TraceEvent::L2Evict { .. } => "l2_evict",
            TraceEvent::L2Bypass { .. } => "l2_bypass",
            TraceEvent::PriorityMark { .. } => "priority_mark",
            TraceEvent::Protect { .. } => "protect",
            TraceEvent::StarveStart { .. } => "starve_start",
            TraceEvent::StarveEnd { .. } => "starve_end",
            TraceEvent::AuditViolation { .. } => "audit_violation",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_str("event", self.kind());
        obj.field_u64("cycle", self.cycle());
        match *self {
            TraceEvent::L2Fill {
                line,
                source,
                high_priority,
                ..
            } => {
                obj.field_u64("line", line);
                obj.field_str("source", source.as_str());
                obj.field_bool("high_priority", high_priority);
            }
            TraceEvent::L2Evict {
                line,
                high_priority,
                ..
            } => {
                obj.field_u64("line", line);
                obj.field_bool("high_priority", high_priority);
            }
            TraceEvent::L2Bypass { line, .. } => {
                obj.field_u64("line", line);
            }
            TraceEvent::PriorityMark { line, deferred, .. } => {
                obj.field_u64("line", line);
                obj.field_bool("deferred", deferred);
            }
            TraceEvent::Protect {
                set,
                high_lines,
                protected,
                ..
            } => {
                obj.field_u64("set", u64::from(set));
                obj.field_u64("high_lines", u64::from(high_lines));
                obj.field_bool("protected", protected);
            }
            TraceEvent::StarveStart { line, source, .. } => {
                obj.field_u64("line", line);
                obj.field_str("source", source.as_str());
            }
            TraceEvent::StarveEnd {
                line,
                source,
                start_cycle,
                cycle,
            } => {
                obj.field_u64("line", line);
                obj.field_str("source", source.as_str());
                obj.field_u64("start_cycle", start_cycle);
                obj.field_u64("duration", cycle.saturating_sub(start_cycle));
            }
            TraceEvent::AuditViolation {
                invariant,
                level,
                set,
                detail,
                ..
            } => {
                obj.field_str("invariant", invariant);
                obj.field_str("level", level.as_str());
                obj.field_u64("set", u64::from(set));
                obj.field_u64("detail", detail);
            }
        }
        obj.finish()
    }

    /// Parses one event back from the JSON object [`TraceEvent::to_json`]
    /// produces. Returns `None` for unknown kinds, missing fields, or an
    /// `audit_violation` naming an invariant no emit site uses (see
    /// [`intern_invariant`]).
    pub fn parse(v: &JsonValue) -> Option<TraceEvent> {
        let kind = v.get("event")?.as_str()?;
        let cycle = v.get("cycle")?.as_u64()?;
        let line = |key: &str| v.get(key).and_then(JsonValue::as_u64);
        let level = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .and_then(Level::parse)
        };
        let flag = |key: &str| v.get(key).and_then(JsonValue::as_bool);
        Some(match kind {
            "l2_fill" => TraceEvent::L2Fill {
                cycle,
                line: line("line")?,
                source: level("source")?,
                high_priority: flag("high_priority")?,
            },
            "l2_evict" => TraceEvent::L2Evict {
                cycle,
                line: line("line")?,
                high_priority: flag("high_priority")?,
            },
            "l2_bypass" => TraceEvent::L2Bypass {
                cycle,
                line: line("line")?,
            },
            "priority_mark" => TraceEvent::PriorityMark {
                cycle,
                line: line("line")?,
                deferred: flag("deferred")?,
            },
            "protect" => TraceEvent::Protect {
                cycle,
                set: u32::try_from(line("set")?).ok()?,
                high_lines: u32::try_from(line("high_lines")?).ok()?,
                protected: flag("protected")?,
            },
            "starve_start" => TraceEvent::StarveStart {
                cycle,
                line: line("line")?,
                source: level("source")?,
            },
            "starve_end" => TraceEvent::StarveEnd {
                cycle,
                line: line("line")?,
                source: level("source")?,
                start_cycle: line("start_cycle")?,
            },
            "audit_violation" => TraceEvent::AuditViolation {
                cycle,
                invariant: intern_invariant(v.get("invariant")?.as_str()?)?,
                level: level("level")?,
                set: u32::try_from(line("set")?).ok()?,
                detail: line("detail")?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_and_kind_cover_all_variants() {
        let ev = TraceEvent::StarveEnd {
            cycle: 120,
            line: 7,
            source: Level::Memory,
            start_cycle: 100,
        };
        assert_eq!(ev.cycle(), 120);
        assert_eq!(ev.kind(), "starve_end");
        let json = ev.to_json();
        assert!(json.contains("\"duration\":20"));
        assert!(json.contains("\"source\":\"memory\""));
    }

    #[test]
    fn audit_violation_serializes_invariant_name() {
        let ev = TraceEvent::AuditViolation {
            cycle: 9,
            invariant: "set_occupancy",
            level: Level::L2,
            set: 3,
            detail: 17,
        };
        assert_eq!(ev.kind(), "audit_violation");
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"audit_violation\",\"cycle\":9,\
             \"invariant\":\"set_occupancy\",\"level\":\"l2\",\"set\":3,\"detail\":17}"
        );
    }

    #[test]
    fn json_is_one_object_per_event() {
        let ev = TraceEvent::Protect {
            cycle: 5,
            set: 12,
            high_lines: 3,
            protected: true,
        };
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"protect\",\"cycle\":5,\"set\":12,\"high_lines\":3,\"protected\":true}"
        );
    }
}
