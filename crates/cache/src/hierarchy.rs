//! The paper's three-level memory hierarchy (Table 4, §5.1).
//!
//! * Private L1I / L1D (TPLRU by default; true LRU for Figure 1's setup).
//! * Unified **inclusive** L2 whose replacement policy is the experimental
//!   variable — injected by the caller (TPLRU baseline, `M:` treatments,
//!   RRIP family, PDP, DCLIP, or the EMISSARY `P(N)` family).
//! * Shared **exclusive victim** L3 running DRRIP with the SFL bit: an L2
//!   line that was served from L3 re-enters L3 at the MRU position on
//!   eviction; lines fetched from memory enter L3 only when evicted from L2.
//! * Next-line prefetchers (NLP) for L1D, L2 and L3, as in the
//!   Alderlake-like model.
//!
//! # Timing model
//!
//! The hierarchy is trace-driven with *eager fills*: a miss structurally
//! installs the line immediately but reports a `ready_at` cycle in the
//! future; an in-flight table coalesces later requests to the same line (an
//! MSHR equivalent), so a demand fetch that arrives while an FDIP prefetch
//! is outstanding observes the remaining latency — the "late prefetch"
//! behaviour that produces decode starvation in the paper's §3.
//!
//! The §5.6 ideal model ("zero-cycle miss latency for all capacity and
//! conflict instruction misses in the L2") is implemented by serving
//! non-compulsory L2 instruction misses at L2-hit latency while leaving all
//! structural behaviour unchanged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use emissary_obs::{Level, TraceEvent, Tracer};

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::line::{LineKind, LineState};
use crate::linemap::{LineMap, LineSet};
use crate::policy::{AccessInfo, PolicyImpl, PolicyKind};

/// Which level ultimately supplied the requested line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Hit in the relevant L1.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// L2 miss, L3 hit.
    L3,
    /// Missed the whole hierarchy.
    Memory,
    /// Joined an outstanding miss to the same line (MSHR hit).
    InFlight,
}

impl ServedBy {
    /// True when the request left the private L1.
    pub fn missed_l1(self) -> bool {
        !matches!(self, ServedBy::L1)
    }

    /// The observability [`Level`] naming this serving level.
    pub fn level(self) -> Level {
        match self {
            ServedBy::L1 => Level::L1,
            ServedBy::L2 => Level::L2,
            ServedBy::L3 => Level::L3,
            ServedBy::Memory => Level::Memory,
            ServedBy::InFlight => Level::InFlight,
        }
    }
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Cycle at which the data is available to the requester.
    pub ready_at: u64,
    /// Level that served the request.
    pub served_by: ServedBy,
    /// For [`ServedBy::InFlight`] joins, the level serving the original
    /// request; equals `served_by` otherwise.
    pub source: ServedBy,
    /// True when this access installed a new line on the instruction path;
    /// the caller must later invoke
    /// [`Hierarchy::resolve_instr_fill`] with the miss's resolved
    /// starvation flags (see [`crate::policy`] docs).
    pub needs_resolution: bool,
}

/// Hierarchy-wide counters not attributable to a single cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Lines read from main memory.
    pub dram_reads: u64,
    /// Dirty lines written back to main memory.
    pub dram_writes: u64,
    /// Next-line prefetches issued (all levels).
    pub nlp_issued: u64,
    /// Ideal-L2 mode: non-compulsory instruction misses served at hit
    /// latency.
    pub ideal_l2_saves: u64,
    /// Demand requests that joined an in-flight miss.
    pub inflight_joins: u64,
}

/// The three-level hierarchy. See module docs.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified inclusive L2.
    pub l2: Cache,
    /// Shared exclusive victim L3.
    pub l3: Cache,
    /// line -> (ready cycle, original serving level). An entry leaves only
    /// when its line is accessed again at or after its ready cycle, so
    /// expired entries stay; the next-line prefetchers' gating reads them.
    inflight_instr: LineMap<(u64, ServedBy)>,
    inflight_data: LineMap<(u64, ServedBy)>,
    /// Ready cycles of the entries put in flight, earliest first, pruned
    /// of those not after the current cycle at every fill and every new
    /// entry. No entry is removed or overwritten before its ready cycle, so
    /// after a prune the heap's size is exactly the number of misses still
    /// outstanding.
    inflight_ready: BinaryHeap<Reverse<u64>>,
    /// Every instruction line ever requested (compulsory-miss tracking and
    /// the Figure 4 footprint metric).
    touched_instr: LineSet,
    stats: HierarchyStats,
    /// Observability handle; disabled by default (one branch per emit site).
    tracer: Tracer,
}

impl Hierarchy {
    /// Builds the hierarchy with the given L2 policy. L1s use `l1_policy`
    /// (TPLRU in the main evaluation, true LRU in Figure 1); the L3 always
    /// runs DRRIP (§5.1).
    pub fn new(cfg: HierarchyConfig, l1_policy: PolicyKind, l2_policy: PolicyImpl) -> Self {
        let l1i = Cache::new(
            cfg.l1i.clone(),
            l1_policy.build(cfg.l1i.sets(), cfg.l1i.ways, cfg.seed ^ 1),
        );
        let l1d = Cache::new(
            cfg.l1d.clone(),
            l1_policy.build(cfg.l1d.sets(), cfg.l1d.ways, cfg.seed ^ 2),
        );
        let l2 = Cache::new(cfg.l2.clone(), l2_policy);
        let l3 = Cache::new(
            cfg.l3.clone(),
            PolicyKind::Drrip.build(cfg.l3.sets(), cfg.l3.ways, cfg.seed ^ 3),
        );
        Self {
            cfg,
            l1i,
            l1d,
            l2,
            l3,
            inflight_instr: LineMap::new(),
            inflight_data: LineMap::new(),
            inflight_ready: BinaryHeap::new(),
            touched_instr: LineSet::new(),
            stats: HierarchyStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Enables event tracing for this hierarchy and its L2 policy. The
    /// tracer's cycle stamp is refreshed on every timed access, so events
    /// emitted below the access API carry the right cycle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.l2.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The hierarchy's tracer handle (disabled unless
    /// [`set_tracer`](Self::set_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Convenience constructor with TPLRU L1s (the paper's default).
    pub fn with_l2_policy(cfg: HierarchyConfig, l2_policy: PolicyImpl) -> Self {
        Self::new(cfg, PolicyKind::TreePlru, l2_policy)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Hierarchy-wide counters.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Number of distinct instruction lines ever requested (Figure 4's
    /// footprint metric is this count times the line size).
    pub fn instr_footprint_lines(&self) -> usize {
        self.touched_instr.len()
    }

    /// Resets per-cache and hierarchy counters (warmup boundary). Footprint
    /// tracking is *not* reset: compulsory misses stay compulsory.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// An instruction-side access (demand fetch or FDIP prefetch) to a line
    /// address at cycle `now`.
    pub fn access_instr(&mut self, line: u64, now: u64, is_prefetch: bool) -> MemAccess {
        self.tracer.set_now(now);
        // In-flight coalescing.
        if let Some(&(ready, source)) = self.inflight_instr.get(line) {
            if now < ready {
                // L2 next-line prefetch puts lines in flight without
                // recording them, so an access here may be the first touch.
                self.touched_instr.insert(line);
                if !is_prefetch {
                    self.stats.inflight_joins += 1;
                    // The demand observes an L1I miss served by the MSHR.
                    self.l1i.stats_mut().instr_misses += 1;
                }
                return MemAccess {
                    ready_at: ready.max(now + self.cfg.l1i.hit_latency),
                    served_by: ServedBy::InFlight,
                    source,
                    needs_resolution: false,
                };
            }
            self.inflight_instr.remove(line);
        }
        let info = if is_prefetch {
            AccessInfo::prefetch(LineKind::Instruction)
        } else {
            AccessInfo::demand(LineKind::Instruction)
        };
        if self.l1i.lookup(line, &info).is_some() {
            // Only this function fills the L1I, and it records the line
            // first, so an L1I hit is never a first touch.
            debug_assert!(self.touched_instr.contains(line));
            return MemAccess {
                ready_at: now + self.cfg.l1i.hit_latency,
                served_by: ServedBy::L1,
                source: ServedBy::L1,
                needs_resolution: false,
            };
        }
        let first_touch = self.touched_instr.insert(line);
        // L1I miss: descend to L2.
        let (served_by, mut latency, installed) = if self.l2.lookup(line, &info).is_some() {
            (ServedBy::L2, self.cfg.l2.hit_latency, true)
        } else {
            let (src, lat, filled) = self.fetch_into_l2(line, &info, now);
            if self.cfg.l2_nlp && !is_prefetch {
                self.nlp_into_l2(line + 1, LineKind::Instruction, now);
            }
            (src, lat, filled)
        };
        // §5.6 ideal-L2 override: capacity/conflict (non-compulsory) L2
        // instruction misses are served at L2-hit latency.
        if self.cfg.ideal_l2_instr
            && matches!(served_by, ServedBy::L3 | ServedBy::Memory)
            && !first_touch
        {
            latency = self.cfg.l2.hit_latency;
            self.stats.ideal_l2_saves += 1;
        }
        // Fill L1I; an evicted line communicates its priority bit to the
        // inclusive L2 copy (§3). A bypassed L2 fill skips the L1I fill too
        // (inclusion): the fetch is streamed to the core uncached.
        if installed {
            let out = self.l1i.fill(line, &info);
            if let Some(evicted) = out.evicted {
                if evicted.priority {
                    self.l2.set_priority(evicted.tag, true);
                }
            }
        }
        let ready_at = now + latency;
        if installed && latency > self.cfg.l1i.hit_latency {
            self.put_in_flight(LineKind::Instruction, line, now, ready_at, served_by);
        }
        MemAccess {
            ready_at,
            served_by,
            source: served_by,
            needs_resolution: installed,
        }
    }

    /// A data-side access (load, store, or L1D NLP prefetch).
    pub fn access_data(
        &mut self,
        line: u64,
        now: u64,
        is_write: bool,
        is_prefetch: bool,
    ) -> MemAccess {
        self.tracer.set_now(now);
        if let Some(&(ready, source)) = self.inflight_data.get(line) {
            if now < ready {
                if !is_prefetch {
                    self.stats.inflight_joins += 1;
                    self.l1d.stats_mut().data_misses += 1;
                    if is_write {
                        self.l1d.set_dirty(line, true);
                    }
                }
                return MemAccess {
                    ready_at: ready.max(now + self.cfg.l1d.hit_latency),
                    served_by: ServedBy::InFlight,
                    source,
                    needs_resolution: false,
                };
            }
            self.inflight_data.remove(line);
        }
        let mut info = if is_prefetch {
            AccessInfo::prefetch(LineKind::Data)
        } else {
            AccessInfo::demand(LineKind::Data)
        };
        info.is_write = is_write;
        if self.l1d.lookup(line, &info).is_some() {
            return MemAccess {
                ready_at: now + self.cfg.l1d.hit_latency,
                served_by: ServedBy::L1,
                source: ServedBy::L1,
                needs_resolution: false,
            };
        }
        let (served_by, latency, installed) = if self.l2.lookup(line, &info).is_some() {
            (ServedBy::L2, self.cfg.l2.hit_latency, true)
        } else {
            let (src, lat, filled) = self.fetch_into_l2(line, &info, now);
            if self.cfg.l2_nlp && !is_prefetch {
                self.nlp_into_l2(line + 1, LineKind::Data, now);
            }
            (src, lat, filled)
        };
        if installed {
            let out = self.l1d.fill(line, &info);
            if let Some(evicted) = out.evicted {
                if evicted.dirty {
                    // Write back into the inclusive L2 copy.
                    if !self.l2.set_dirty(evicted.tag, true) {
                        // Inclusion was broken only by an intervening L2
                        // eviction in this same call; the data goes to memory.
                        self.stats.dram_writes += 1;
                    }
                }
            }
        }
        if self.cfg.l1d_nlp && !is_prefetch && served_by.missed_l1() {
            self.nlp_into_l1d(line + 1, now);
        }
        let ready_at = now + latency;
        if installed && latency > self.cfg.l1d.hit_latency {
            self.put_in_flight(LineKind::Data, line, now, ready_at, served_by);
        }
        MemAccess {
            ready_at,
            served_by,
            source: served_by,
            needs_resolution: false,
        }
    }

    /// Records `line` as in flight from cycle `now` until cycle `ready`.
    fn put_in_flight(&mut self, kind: LineKind, line: u64, now: u64, ready: u64, source: ServedBy) {
        let inflight = match kind {
            LineKind::Instruction => &mut self.inflight_instr,
            LineKind::Data => &mut self.inflight_data,
        };
        inflight.insert(line, (ready, source));
        self.live_misses(now);
        self.inflight_ready.push(Reverse(ready));
    }

    /// Misses still outstanding at cycle `now`: entries whose ready cycle
    /// is after it. Prunes the rest, so `now` must not go backwards.
    fn live_misses(&mut self, now: u64) -> usize {
        while self
            .inflight_ready
            .peek()
            .is_some_and(|&Reverse(ready)| ready <= now)
        {
            self.inflight_ready.pop();
        }
        self.inflight_ready.len()
    }

    /// Brings `line` into the L2 from L3 or memory at cycle `now`,
    /// maintaining exclusivity, inclusion and the SFL bit. Returns the
    /// serving level, the latency, and whether the line was actually
    /// installed (a bypassing policy may refuse the fill; the data is still
    /// delivered to the requester).
    fn fetch_into_l2(&mut self, line: u64, info: &AccessInfo, now: u64) -> (ServedBy, u64, bool) {
        let (served_by, latency, sfl) = if self.l3.lookup(line, info).is_some() {
            // Exclusive victim cache: the line moves out of L3.
            self.l3.invalidate(line);
            (ServedBy::L3, self.cfg.l3.hit_latency, true)
        } else {
            self.stats.dram_reads += 1;
            if self.cfg.l3_nlp && !info.is_prefetch {
                self.nlp_into_l3(line + 1);
            }
            (ServedBy::Memory, self.cfg.dram_latency, false)
        };
        let mut fill_info = *info;
        fill_info.outstanding_misses = self.live_misses(now).min(255) as u8;
        fill_info.fill_latency = latency.min(u64::from(u16::MAX)) as u16;
        let out = self.l2.fill(line, &fill_info);
        if out.filled() {
            self.l2.set_sfl(line, sfl);
            self.tracer.emit_with(|cycle| TraceEvent::L2Fill {
                cycle,
                line,
                source: served_by.level(),
                high_priority: fill_info.high_priority,
            });
        } else {
            self.tracer
                .emit_with(|cycle| TraceEvent::L2Bypass { cycle, line });
        }
        if let Some(evicted) = out.evicted {
            self.handle_l2_eviction(evicted);
        }
        (served_by, latency, out.filled())
    }

    /// Back-invalidates L1 copies (inclusion) and installs the victim into
    /// the exclusive L3, honouring the SFL MRU hint.
    fn handle_l2_eviction(&mut self, evicted: LineState) {
        self.tracer.emit_with(|cycle| TraceEvent::L2Evict {
            cycle,
            line: evicted.tag,
            high_priority: evicted.priority,
        });
        let mut dirty = evicted.dirty;
        match evicted.kind {
            LineKind::Instruction => {
                self.l1i.invalidate(evicted.tag);
            }
            LineKind::Data => {
                if let Some(l1_copy) = self.l1d.invalidate(evicted.tag) {
                    dirty |= l1_copy.dirty;
                }
            }
        }
        let mut info = AccessInfo::demand(evicted.kind).with_mru_hint(evicted.sfl);
        info.is_write = dirty;
        debug_assert!(!self.l3.contains(evicted.tag), "exclusivity violated");
        let out = self.l3.fill(evicted.tag, &info);
        if let Some(l3_victim) = out.evicted {
            if l3_victim.dirty {
                self.stats.dram_writes += 1;
            }
        }
    }

    /// L1D next-line prefetch through the full data path.
    fn nlp_into_l1d(&mut self, line: u64, now: u64) {
        if self.l1d.contains(line) || self.inflight_data.contains_key(line) {
            return;
        }
        self.stats.nlp_issued += 1;
        self.access_data(line, now, false, true);
    }

    /// L2 next-line prefetch. The fill is structural-immediate but its
    /// *timing* is honest: the line is registered in the in-flight table
    /// with the latency of its true source, so a demand that arrives before
    /// the prefetch completes waits out the remainder (late prefetch).
    fn nlp_into_l2(&mut self, line: u64, kind: LineKind, now: u64) {
        if self.l2.contains(line) {
            return;
        }
        let inflight = match kind {
            LineKind::Instruction => &mut self.inflight_instr,
            LineKind::Data => &mut self.inflight_data,
        };
        if inflight.contains_key(line) {
            return;
        }
        self.stats.nlp_issued += 1;
        let info = AccessInfo::prefetch(kind);
        // Count the L2 prefetch lookup miss, then fetch.
        self.l2.lookup(line, &info);
        let (src, lat, filled) = self.fetch_into_l2(line, &info, now);
        if filled {
            self.put_in_flight(kind, line, now, now + lat, src);
        }
    }

    /// L3 next-line prefetch. Skipped when the line is already above L3
    /// (exclusivity).
    fn nlp_into_l3(&mut self, line: u64) {
        if self.l3.contains(line) || self.l2.contains(line) {
            return;
        }
        self.stats.nlp_issued += 1;
        self.stats.dram_reads += 1;
        let info = AccessInfo::prefetch(LineKind::Data);
        self.l3.fill(line, &info);
    }

    /// Marks the L1I copy of `line` high-priority; if the line is no longer
    /// in L1I the inclusive L2 copy is marked directly. Returns true if a
    /// copy was found.
    pub fn mark_instr_priority(&mut self, line: u64) -> bool {
        let marked = if self.l1i.set_priority(line, true) {
            true
        } else {
            self.l2.set_priority(line, true)
        };
        if marked {
            self.tracer.emit_with(|cycle| TraceEvent::PriorityMark {
                cycle,
                line,
                deferred: false,
            });
        }
        marked
    }

    /// Applies the deferred insertion update for an instruction miss whose
    /// starvation flags are now known (`high` = the selection outcome).
    pub fn resolve_instr_fill(&mut self, line: u64, high: bool) {
        let info = AccessInfo::demand(LineKind::Instruction).with_priority(high);
        self.l1i.resolve_fill(line, &info);
        self.l2.resolve_fill(line, &info);
        if high {
            self.tracer.emit_with(|cycle| TraceEvent::PriorityMark {
                cycle,
                line,
                deferred: true,
            });
        }
    }

    /// §6 reset mechanism: clears all priority bits in L1I and L2.
    pub fn reset_instr_priorities(&mut self) {
        self.l1i.reset_priorities();
        self.l2.reset_priorities();
    }

    /// Number of misses outstanding at cycle `now` (in-flight entries,
    /// instruction and data, whose ready cycle is after it): the count LIN
    /// is filled with, and the MSHR population of watchdog state dumps.
    pub fn outstanding_misses(&self, now: u64) -> usize {
        self.inflight_ready
            .iter()
            .filter(|&&Reverse(ready)| ready > now)
            .count()
    }

    /// Read-only structural audit of the whole hierarchy: every cache's
    /// per-set invariants (see [`Cache::audit`]) plus the cross-level
    /// inclusion and exclusivity pairings. Returns every violation found.
    pub fn audit(&self) -> Vec<crate::audit::AuditViolation> {
        use crate::audit::AuditViolation;
        let mut violations = Vec::new();
        violations.extend(self.l1i.audit(Level::L1));
        violations.extend(self.l1d.audit(Level::L1));
        violations.extend(self.l2.audit(Level::L2));
        violations.extend(self.l3.audit(Level::L3));
        for l1_line in self.l1i.iter_valid().chain(self.l1d.iter_valid()) {
            if !self.l2.contains(l1_line.tag) {
                violations.push(AuditViolation {
                    invariant: "inclusion",
                    level: Level::L1,
                    set: 0,
                    detail: l1_line.tag,
                    message: format!("L1 line {:#x} has no copy in the inclusive L2", l1_line.tag),
                });
            }
        }
        for l3_line in self.l3.iter_valid() {
            if self.l2.contains(l3_line.tag) {
                violations.push(AuditViolation {
                    invariant: "exclusivity",
                    level: Level::L3,
                    set: 0,
                    detail: l3_line.tag,
                    message: format!(
                        "line {:#x} resident in both L2 and the exclusive victim L3",
                        l3_line.tag
                    ),
                });
            }
        }
        violations
    }

    /// Checks the inclusion invariant (every valid L1 line resident in L2).
    /// Intended for tests; O(L1 lines) with L2 probes.
    pub fn check_inclusion(&self) -> bool {
        self.l1i
            .iter_valid()
            .chain(self.l1d.iter_valid())
            .all(|l| self.l2.contains(l.tag))
    }

    /// Checks the L2/L3 exclusivity invariant.
    pub fn check_exclusivity(&self) -> bool {
        self.l3.iter_valid().all(|l| !self.l2.contains(l.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig};

    /// A tiny hierarchy so evictions happen quickly in tests.
    fn tiny_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("l1i", 2 * 2 * 64, 2, 2),
            l1d: CacheConfig::new("l1d", 2 * 2 * 64, 2, 2),
            l2: CacheConfig::new("l2", 4 * 4 * 64, 4, 12),
            l3: CacheConfig::new("l3", 8 * 4 * 64, 4, 32),
            dram_latency: 150,
            l1d_nlp: false,
            l2_nlp: false,
            l3_nlp: false,
            ideal_l2_instr: false,
            seed: 7,
        }
    }

    fn tiny() -> Hierarchy {
        let cfg = tiny_cfg();
        let pol = PolicyKind::TreePlru.build(cfg.l2.sets(), cfg.l2.ways, 9);
        Hierarchy::with_l2_policy(cfg, pol)
    }

    #[test]
    fn cold_instr_access_goes_to_memory() {
        let mut h = tiny();
        let a = h.access_instr(100, 0, false);
        assert_eq!(a.served_by, ServedBy::Memory);
        assert_eq!(a.ready_at, 150);
        assert!(a.needs_resolution);
        assert_eq!(h.stats().dram_reads, 1);
        // Filled into both L1I and L2 (inclusive).
        assert!(h.l1i.contains(100));
        assert!(h.l2.contains(100));
        assert!(h.check_inclusion());
    }

    #[test]
    fn second_access_after_ready_hits_l1() {
        let mut h = tiny();
        h.access_instr(100, 0, false);
        let a = h.access_instr(100, 200, false);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(a.ready_at, 202);
    }

    #[test]
    fn outstanding_misses_count_only_live_entries() {
        let mut h = tiny();
        let a = h.access_data(100, 0, false, false);
        assert_eq!(a.ready_at, 150);
        assert_eq!(h.outstanding_misses(0), 1);
        assert_eq!(h.outstanding_misses(149), 1);
        assert_eq!(h.outstanding_misses(150), 0);
        assert_eq!(h.live_misses(149), 1);
        assert_eq!(h.live_misses(150), 0);
        // The expired entry stays in its table for the prefetchers' gating.
        assert!(h.inflight_data.contains_key(100));
        // A second miss filled after the first expired counts only itself.
        h.access_instr(200, 150, false);
        assert_eq!(h.outstanding_misses(150), 1);
    }

    #[test]
    fn lin_fills_see_only_live_misses() {
        // L2 set 0 gets line 400 while nothing is in flight (LIN cost 7),
        // then 404, 408 and 412 while at least seven misses are (cost 0).
        // Eight misses that expired long before stay in the tables, so a
        // count of table entries would give 400 cost 0 too, and LRU would
        // evict it.
        let cfg = tiny_cfg();
        let pol = PolicyKind::Lin.build(cfg.l2.sets(), cfg.l2.ways, 9);
        let mut h = Hierarchy::with_l2_policy(cfg, pol);
        let other_sets = |base: u64| (0..).map(move |i| base + i).filter(|l| l % 4 != 0);
        for line in other_sets(1).take(8) {
            h.access_data(line, 0, false, false);
        }
        h.access_data(400, 1000, false, false);
        for line in other_sets(21).take(7) {
            h.access_data(line, 2000, false, false);
        }
        for line in [404, 408, 412] {
            h.access_data(line, 2000, false, false);
        }
        h.access_data(416, 3000, false, false);
        assert!(h.l2.contains(400), "the isolated miss was evicted");
        assert!(!h.l2.contains(404), "LRU among the cheap lines goes");
    }

    #[test]
    fn demand_joins_inflight_prefetch() {
        let mut h = tiny();
        let p = h.access_instr(100, 0, true); // prefetch, ready at 150
        let d = h.access_instr(100, 10, false); // demand joins
        assert_eq!(d.served_by, ServedBy::InFlight);
        assert_eq!(d.ready_at, p.ready_at);
        assert_eq!(h.stats().inflight_joins, 1);
        // The join counted an L1I demand miss but no extra DRAM read.
        assert_eq!(h.l1i.stats().instr_misses, 1);
        assert_eq!(h.stats().dram_reads, 1);
    }

    #[test]
    fn l2_hit_after_l1i_eviction() {
        let mut h = tiny();
        // L1I: 2 sets x 2 ways. Lines 0, 2, 4 map to L1I set 0.
        h.access_instr(0, 0, false);
        h.access_instr(2, 200, false);
        h.access_instr(4, 400, false); // evicts line 0 from L1I
        assert!(!h.l1i.contains(0));
        assert!(h.l2.contains(0));
        let a = h.access_instr(0, 600, false);
        assert_eq!(a.served_by, ServedBy::L2);
        assert_eq!(a.ready_at, 612);
    }

    #[test]
    fn exclusive_l3_receives_l2_victims_and_gives_them_back() {
        let mut h = tiny();
        // L2: 4 sets x 4 ways. Lines 0,4,8,12,16 map to L2 set 0.
        let lines = [0u64, 4, 8, 12, 16];
        let mut t = 0;
        for &l in &lines {
            h.access_instr(l, t, false);
            t += 1000;
        }
        // One of the first lines got evicted from L2 into L3.
        assert!(h.check_exclusivity());
        let in_l3: Vec<u64> = h.l3.iter_valid().map(|l| l.tag).collect();
        assert_eq!(in_l3.len(), 1);
        let victim = in_l3[0];
        // Re-access: must be served by L3 and move back (exclusivity).
        let a = h.access_instr(victim, t, false);
        assert_eq!(a.served_by, ServedBy::L3);
        assert!(!h.l3.contains(victim));
        assert!(h.l2.contains(victim));
        // SFL bit set on the L2 copy.
        let set = (victim as usize) & (h.l2.sets() - 1);
        let sfl =
            h.l2.set_slice(set)
                .iter()
                .find(|l| l.tag == victim)
                .unwrap()
                .sfl;
        assert!(sfl);
        assert!(h.check_exclusivity());
        assert!(h.check_inclusion());
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        let mut h = tiny();
        let lines = [0u64, 4, 8, 12, 16];
        let mut t = 0;
        for &l in &lines {
            h.access_instr(l, t, false);
            t += 1000;
        }
        assert!(h.check_inclusion());
        // Whichever line left L2 must not be in L1I.
        for &l in &lines {
            if !h.l2.contains(l) {
                assert!(!h.l1i.contains(l), "line {l} violates inclusion");
            }
        }
    }

    #[test]
    fn priority_transfers_to_l2_on_l1i_eviction() {
        let mut h = tiny();
        h.access_instr(0, 0, false);
        assert!(h.mark_instr_priority(0)); // sets P in L1I
        assert_eq!(h.l1i.priority_of(0), Some(true));
        assert_eq!(h.l2.priority_of(0), Some(false));
        // Evict line 0 from L1I (set 0 holds lines 0, 2, 4).
        h.access_instr(2, 1000, false);
        h.access_instr(4, 2000, false);
        assert!(!h.l1i.contains(0));
        assert_eq!(h.l2.priority_of(0), Some(true), "P bit must transfer");
    }

    #[test]
    fn mark_priority_falls_back_to_l2() {
        let mut h = tiny();
        h.access_instr(0, 0, false);
        h.access_instr(2, 1000, false);
        h.access_instr(4, 2000, false); // line 0 now only in L2
        assert!(h.mark_instr_priority(0));
        assert_eq!(h.l2.priority_of(0), Some(true));
        assert!(!h.mark_instr_priority(0xdead));
    }

    #[test]
    fn reset_clears_all_priorities() {
        let mut h = tiny();
        h.access_instr(0, 0, false);
        h.mark_instr_priority(0);
        h.reset_instr_priorities();
        assert_eq!(h.l1i.priority_of(0), Some(false));
    }

    #[test]
    fn dirty_data_writes_back_through_hierarchy() {
        let mut h = tiny();
        // Store to line 1000.
        h.access_data(1000, 0, true, false);
        // L1D set of 1000: evict it by touching two more lines of that set.
        h.access_data(1000 + 2, 1000, false, false);
        h.access_data(1000 + 4, 2000, false, false);
        if !h.l1d.contains(1000) {
            // Dirty bit must have migrated to the L2 copy.
            let set = (1000usize) & (h.l2.sets() - 1);
            let l = h.l2.set_slice(set).iter().find(|l| l.tag == 1000).unwrap();
            assert!(l.dirty);
        }
    }

    #[test]
    fn ideal_l2_serves_non_compulsory_misses_fast() {
        let mut cfg = tiny_cfg();
        cfg.ideal_l2_instr = true;
        let pol = PolicyKind::TreePlru.build(cfg.l2.sets(), cfg.l2.ways, 9);
        let mut h = Hierarchy::with_l2_policy(cfg, pol);
        // Compulsory miss: full latency.
        let a = h.access_instr(0, 0, false);
        assert_eq!(a.ready_at, 150);
        // Push line 0 out of L2 (and thus L1I) with conflicting lines.
        let mut t = 1000;
        for l in [4u64, 8, 12, 16, 20] {
            h.access_instr(l, t, false);
            t += 1000;
        }
        assert!(!h.l2.contains(0));
        // Non-compulsory L2 miss: served at L2-hit latency.
        let b = h.access_instr(0, t, false);
        assert_eq!(b.ready_at - t, 12);
        assert!(h.stats().ideal_l2_saves >= 1);
    }

    #[test]
    fn nlp_l2_prefetches_next_line() {
        let mut cfg = tiny_cfg();
        cfg.l2_nlp = true;
        let pol = PolicyKind::TreePlru.build(cfg.l2.sets(), cfg.l2.ways, 9);
        let mut h = Hierarchy::with_l2_policy(cfg, pol);
        h.access_instr(100, 0, false);
        assert!(
            h.l2.contains(101),
            "NLP should have pulled line 101 into L2"
        );
        assert!(!h.l1i.contains(101), "L2 NLP must not fill L1I");
        assert!(h.stats().nlp_issued >= 1);
    }

    #[test]
    fn nlp_l1d_prefetches_full_path() {
        let mut cfg = tiny_cfg();
        cfg.l1d_nlp = true;
        let pol = PolicyKind::TreePlru.build(cfg.l2.sets(), cfg.l2.ways, 9);
        let mut h = Hierarchy::with_l2_policy(cfg, pol);
        h.access_data(500, 0, false, false);
        assert!(h.l1d.contains(501));
        assert!(h.l2.contains(501));
        assert!(h.check_inclusion());
    }

    #[test]
    fn footprint_counts_unique_instruction_lines() {
        let mut h = tiny();
        h.access_instr(1, 0, false);
        h.access_instr(2, 10, false);
        h.access_instr(1, 20, false);
        h.access_data(999, 30, false, false);
        assert_eq!(h.instr_footprint_lines(), 2);
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        let mut h = tiny();
        let mut rng = crate::rng::XorShift64::new(0xabcdef);
        let mut t = 0u64;
        for _ in 0..5000 {
            t += 3;
            match rng.next_below(4) {
                0 => {
                    h.access_instr(rng.next_below(64), t, false);
                }
                1 => {
                    h.access_instr(rng.next_below(64), t, true);
                }
                2 => {
                    h.access_data(1000 + rng.next_below(64), t, false, false);
                }
                _ => {
                    h.access_data(1000 + rng.next_below(64), t, true, false);
                }
            }
        }
        assert!(h.check_inclusion(), "inclusion violated");
        assert!(h.check_exclusivity(), "exclusivity violated");
    }

    #[test]
    fn audit_is_clean_under_random_traffic_and_detects_breakage() {
        let mut h = tiny();
        let mut rng = crate::rng::XorShift64::new(0x517e);
        let mut t = 0u64;
        for _ in 0..3000 {
            t += 3;
            match rng.next_below(3) {
                0 => {
                    h.access_instr(rng.next_below(64), t, false);
                }
                1 => {
                    h.access_data(1000 + rng.next_below(64), t, false, false);
                }
                _ => {
                    h.access_data(1000 + rng.next_below(64), t, true, false);
                }
            }
        }
        assert_eq!(h.audit(), Vec::new());
        // Break inclusion through the public API: drop an L2 line out from
        // under its L1I copy.
        let l1_line = h.l1i.iter_valid().next().expect("L1I populated").tag;
        h.l2.invalidate(l1_line);
        let violations = h.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "inclusion" && v.detail == l1_line),
            "expected an inclusion violation for line {l1_line:#x}: {violations:?}"
        );
    }
}

#[cfg(test)]
mod bypass_tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::{EmissaryPolicy, RecencyBase};

    fn tiny_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("l1i", 2 * 2 * 64, 2, 2),
            l1d: CacheConfig::new("l1d", 2 * 2 * 64, 2, 2),
            l2: CacheConfig::new("l2", 4 * 4 * 64, 4, 12),
            l3: CacheConfig::new("l3", 8 * 4 * 64, 4, 32),
            dram_latency: 150,
            l1d_nlp: false,
            l2_nlp: false,
            l3_nlp: false,
            ideal_l2_instr: false,
            seed: 7,
        }
    }

    /// §2's bypass variant at `N = 0` over an L2 whose set 0 is full of
    /// data lines: with no line marked, the set counts as saturated, so
    /// every low-priority instruction fill into it bypasses.
    fn saturated_bypass_hierarchy() -> Hierarchy {
        let cfg = tiny_cfg();
        let policy = EmissaryPolicy::new(
            0,
            RecencyBase::TreePlru,
            cfg.l2.sets(),
            cfg.l2.ways,
            "P(0):1+BYPASS",
        )
        .with_bypass();
        let mut h = Hierarchy::with_l2_policy(cfg, PolicyImpl::Emissary(policy));
        for (t, line) in [4u64, 8, 12, 16].into_iter().enumerate() {
            h.access_data(line, t as u64 * 1_000, false, false);
        }
        assert_eq!(h.l2.iter_valid().count(), 4, "L2 set 0 pre-filled");
        h
    }

    #[test]
    fn bypassed_instruction_fetch_streams_uncached() {
        let mut h = saturated_bypass_hierarchy();
        let m = h.access_instr(100, 10_000, false);
        // Served from memory, full latency, but installed nowhere.
        assert_eq!(m.served_by, ServedBy::Memory);
        assert!(
            !m.needs_resolution,
            "bypassed fills have nothing to resolve"
        );
        assert!(!h.l1i.contains(100), "L1I fill must be skipped (inclusion)");
        assert!(!h.l2.contains(100));
        assert!(h.check_inclusion());
        // A repeat access misses again (nothing was cached).
        let m2 = h.access_instr(100, 11_000, false);
        assert_eq!(m2.served_by, ServedBy::Memory);
        assert!(h.l2.stats().bypasses >= 2);
    }

    #[test]
    fn bypassing_policy_still_caches_data() {
        let mut h = saturated_bypass_hierarchy();
        h.access_data(500, 10_000, false, false);
        assert!(h.l1d.contains(500));
        assert!(h.l2.contains(500));
        assert!(h.check_inclusion());
        assert_eq!(h.l2.stats().bypasses, 0);
    }

    #[test]
    fn sfl_victim_reinserts_at_mru_in_l3() {
        // A line served from L3 gets its SFL bit; when evicted from L2 it
        // re-enters L3 "at the MRU position" (RRPV 0 under DRRIP), so it
        // must survive a subsequent L3 eviction round against distant lines.
        let cfg = tiny_cfg();
        let pol = PolicyKind::TreePlru.build(cfg.l2.sets(), cfg.l2.ways, 9);
        let mut h = Hierarchy::with_l2_policy(cfg, pol);
        let mut t = 0;
        // Fill L2 set 0 and push line 0 out to L3, then bring it back
        // (SFL set), then evict it again.
        for &l in &[0u64, 4, 8, 12, 16] {
            h.access_instr(l, t, false);
            t += 1000;
        }
        let victim =
            h.l3.iter_valid()
                .map(|l| l.tag)
                .next()
                .expect("one L2 victim in L3");
        h.access_instr(victim, t, false); // L3 hit -> SFL on L2 copy
        t += 1000;
        // Force it out of L2 again: it should land in L3 at MRU.
        for &l in &[20u64, 24, 28, 32, 36] {
            h.access_instr(l, t, false);
            t += 1000;
        }
        assert!(
            h.l3.contains(victim),
            "SFL victim must be back in L3 after its second L2 eviction"
        );
        assert!(h.check_exclusivity());
    }
}
