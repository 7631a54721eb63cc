//! A single set-associative cache with pluggable replacement.

use crate::addr::set_index;
use crate::config::CacheConfig;
use crate::line::LineState;
use crate::policy::{AccessInfo, PolicyImpl};
use crate::stats::CacheStats;

/// Result of inserting a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The way the new line now occupies; `None` when the policy chose to
    /// bypass the fill entirely.
    pub way: Option<usize>,
    /// The valid line that was displaced, if any.
    pub evicted: Option<LineState>,
}

impl FillOutcome {
    /// Whether the line was actually installed.
    pub fn filled(&self) -> bool {
        self.way.is_some()
    }
}

/// A set-associative cache.
///
/// The cache owns line metadata and statistics; recency/prediction state
/// lives in the injected [`PolicyImpl`]. All addresses passed in are
/// *line* addresses (see [`crate::addr`]).
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: usize,
    lines: Vec<LineState>,
    policy: PolicyImpl,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache from a validated config and a policy sized for it.
    pub fn new(cfg: CacheConfig, policy: PolicyImpl) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        Self {
            cfg,
            sets,
            ways,
            lines: vec![LineState::invalid(); sets * ways],
            policy,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The replacement policy's report name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Hands the replacement policy an observability tracer (see
    /// [`crate::policy::ReplacementPolicy::set_tracer`]).
    pub fn set_tracer(&mut self, tracer: emissary_obs::Tracer) {
        self.policy.set_tracer(tracer);
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        set_index(line_addr, self.sets)
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// Read-only view of a set's ways.
    pub fn set_slice(&self, set: usize) -> &[LineState] {
        &self.lines[self.base(set)..self.base(set) + self.ways]
    }

    /// Side-effect-free residency probe.
    pub fn probe(&self, line_addr: u64) -> Option<usize> {
        let set = self.set_of(line_addr);
        self.set_slice(set)
            .iter()
            .position(|l| l.valid && l.tag == line_addr)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line_addr: u64) -> bool {
        self.probe(line_addr).is_some()
    }

    /// Looks the line up, updating recency and statistics.
    ///
    /// Returns the hit way, or `None` on miss (the caller decides whether
    /// and how to fill).
    pub fn lookup(&mut self, line_addr: u64, info: &AccessInfo) -> Option<usize> {
        let set = self.set_of(line_addr);
        let way = self.probe(line_addr);
        if info.is_prefetch {
            self.stats.record_prefetch(info.kind, way.is_some());
        } else {
            self.stats.record_demand(info.kind, way.is_some());
        }
        if let Some(way) = way {
            let idx = self.base(set) + way;
            if self.lines[idx].priority {
                self.stats.priority_hits += 1;
            }
            if info.is_write {
                self.lines[idx].dirty = true;
            }
            if !info.is_prefetch {
                self.lines[idx].prefetched = false;
            }
            let base = self.base(set);
            self.policy
                .on_hit(set, way, &self.lines[base..base + self.ways], info);
        }
        way
    }

    /// Inserts `line_addr`, evicting if the set is full.
    ///
    /// Invalid ways are used first; only a completely valid set consults the
    /// policy's victim selection. The policy's `on_fill` is invoked with the
    /// post-insertion set contents.
    pub fn fill(&mut self, line_addr: u64, info: &AccessInfo) -> FillOutcome {
        debug_assert!(
            self.probe(line_addr).is_none(),
            "fill() of resident line {line_addr:#x} in {}",
            self.cfg.name
        );
        let set = self.set_of(line_addr);
        {
            let base = self.base(set);
            if self
                .policy
                .should_bypass(set, &self.lines[base..base + self.ways], info)
            {
                self.stats.bypasses += 1;
                return FillOutcome {
                    way: None,
                    evicted: None,
                };
            }
        }
        let (way, evicted) = match self.set_slice(set).iter().position(|l| !l.valid) {
            Some(way) => (way, None),
            None => {
                let base = self.base(set);
                let way = self
                    .policy
                    .victim(set, &self.lines[base..base + self.ways], info);
                let old = self.lines[base + way];
                debug_assert!(way < self.ways && old.valid);
                self.stats.evictions += 1;
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                (way, Some(old))
            }
        };
        let idx = self.base(set) + way;
        self.lines[idx] = LineState {
            tag: line_addr,
            valid: true,
            dirty: info.is_write,
            kind: info.kind,
            priority: info.high_priority,
            sfl: false,
            prefetched: info.is_prefetch,
        };
        self.stats.fills += 1;
        let base = self.base(set);
        self.policy
            .on_fill(set, way, &self.lines[base..base + self.ways], info);
        FillOutcome {
            way: Some(way),
            evicted,
        }
    }

    /// Applies the deferred insertion update once the miss that filled
    /// `line_addr` has resolved (see [`crate::policy`] module docs).
    ///
    /// No-op if the line has already been displaced.
    pub fn resolve_fill(&mut self, line_addr: u64, info: &AccessInfo) {
        let set = self.set_of(line_addr);
        if let Some(way) = self.probe(line_addr) {
            let base = self.base(set);
            self.policy
                .on_fill_resolved(set, way, &self.lines[base..base + self.ways], info);
        }
    }

    /// Removes the line (back-invalidation / exclusive promotion).
    ///
    /// Returns the removed state so the caller can propagate dirty data or
    /// priority bits.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<LineState> {
        let set = self.set_of(line_addr);
        let way = self.probe(line_addr)?;
        let idx = self.base(set) + way;
        let old = self.lines[idx];
        self.lines[idx] = LineState::invalid();
        self.stats.invalidations += 1;
        self.policy.on_invalidate(set, way);
        Some(old)
    }

    /// Sets or clears the EMISSARY priority bit of a resident line.
    ///
    /// Returns true if the line was found. The policy is notified so
    /// priority-class recency structures can migrate the line.
    pub fn set_priority(&mut self, line_addr: u64, high: bool) -> bool {
        let set = self.set_of(line_addr);
        let Some(way) = self.probe(line_addr) else {
            return false;
        };
        let idx = self.base(set) + way;
        if self.lines[idx].priority != high {
            self.lines[idx].priority = high;
            let base = self.base(set);
            self.policy
                .on_priority_change(set, way, &self.lines[base..base + self.ways]);
        }
        true
    }

    /// Marks a resident line dirty (e.g. a dirty L1D eviction writing back
    /// into the inclusive L2 copy).
    pub fn set_dirty(&mut self, line_addr: u64, dirty: bool) -> bool {
        let set = self.set_of(line_addr);
        let Some(way) = self.probe(line_addr) else {
            return false;
        };
        let idx = self.base(set) + way;
        self.lines[idx].dirty = dirty;
        true
    }

    /// Marks a resident line's SFL ("served from last-level") bit.
    pub fn set_sfl(&mut self, line_addr: u64, sfl: bool) -> bool {
        let set = self.set_of(line_addr);
        let Some(way) = self.probe(line_addr) else {
            return false;
        };
        let idx = self.base(set) + way;
        self.lines[idx].sfl = sfl;
        true
    }

    /// Returns the priority bit of a resident line.
    pub fn priority_of(&self, line_addr: u64) -> Option<bool> {
        let set = self.set_of(line_addr);
        self.probe(line_addr)
            .map(|w| self.lines[self.base(set) + w].priority)
    }

    /// Clears every priority bit (§6's periodic reset mechanism).
    pub fn reset_priorities(&mut self) {
        for set in 0..self.sets {
            for way in 0..self.ways {
                let idx = self.base(set) + way;
                if self.lines[idx].priority {
                    self.lines[idx].priority = false;
                    let base = self.base(set);
                    self.policy
                        .on_priority_change(set, way, &self.lines[base..base + self.ways]);
                }
            }
        }
    }

    /// Per-set count of valid high-priority lines (Figure 8's metric).
    pub fn priority_counts_per_set(&self) -> Vec<u32> {
        (0..self.sets)
            .map(|s| {
                self.set_slice(s)
                    .iter()
                    .filter(|l| l.is_high_priority())
                    .count() as u32
            })
            .collect()
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Iterates over all valid lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = &LineState> {
        self.lines.iter().filter(|l| l.valid)
    }

    /// Event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable event counters (used by the hierarchy to account MSHR joins
    /// as demand misses).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Resets event counters (e.g. at the warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Read-only structural audit of every set (see [`crate::audit`]).
    ///
    /// `level` tags the violations with this cache's position in the
    /// hierarchy. Returns every violation found, so one corrupted set does
    /// not mask another.
    pub fn audit(&self, level: emissary_obs::Level) -> Vec<crate::audit::AuditViolation> {
        use crate::audit::AuditViolation;
        let mut violations = Vec::new();
        for set in 0..self.sets {
            let lines = self.set_slice(set);
            let valid = lines.iter().filter(|l| l.valid).count();
            if valid > self.ways {
                violations.push(AuditViolation {
                    invariant: "set_occupancy",
                    level,
                    set,
                    detail: valid as u64,
                    message: format!(
                        "{} valid lines in a {}-way set of {}",
                        valid, self.ways, self.cfg.name
                    ),
                });
            }
            for (way, line) in lines.iter().enumerate() {
                if !line.valid {
                    continue;
                }
                let home = self.set_of(line.tag);
                if home != set {
                    violations.push(AuditViolation {
                        invariant: "line_placement",
                        level,
                        set,
                        detail: line.tag,
                        message: format!(
                            "line {:#x} in way {} of set {} maps to set {} of {}",
                            line.tag, way, set, home, self.cfg.name
                        ),
                    });
                }
                if lines[..way].iter().any(|l| l.valid && l.tag == line.tag) {
                    violations.push(AuditViolation {
                        invariant: "duplicate_line",
                        level,
                        set,
                        detail: line.tag,
                        message: format!(
                            "line {:#x} resident in two ways of set {} of {}",
                            line.tag, set, self.cfg.name
                        ),
                    });
                }
                if line.priority && !line.kind.is_instruction() {
                    violations.push(AuditViolation {
                        invariant: "priority_on_data",
                        level,
                        set,
                        detail: line.tag,
                        message: format!(
                            "data line {:#x} carries the P bit in set {} of {} \
                             (every marking path is instruction-side)",
                            line.tag, set, self.cfg.name
                        ),
                    });
                }
            }
            if let Some(message) = self.policy.audit_set(set, lines) {
                violations.push(AuditViolation {
                    invariant: "policy_state",
                    level,
                    set,
                    detail: 0,
                    message: format!("{}: {}", self.policy_name(), message),
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineKind;
    use crate::policy::{RecencyBase, RripMode, RripPolicy};

    fn small_cache(base: RecencyBase) -> Cache {
        // 4 sets x 2 ways.
        let cfg = CacheConfig::new("t", 4 * 2 * 64, 2, 1);
        let policy = base.build(cfg.sets(), cfg.ways);
        Cache::new(cfg, policy)
    }

    /// Mutable access to a way's raw line state, for corrupting state in
    /// auditor tests.
    fn line_mut(c: &mut Cache, set: usize, way: usize) -> &mut LineState {
        let idx = c.base(set) + way;
        &mut c.lines[idx]
    }

    fn instr() -> AccessInfo {
        AccessInfo::demand(LineKind::Instruction)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(RecencyBase::TrueLru);
        assert!(c.lookup(5, &instr()).is_none());
        c.fill(5, &instr());
        assert!(c.lookup(5, &instr()).is_some());
        assert_eq!(c.stats().instr_misses, 1);
        assert_eq!(c.stats().instr_hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn fills_use_invalid_ways_before_evicting() {
        let mut c = small_cache(RecencyBase::TrueLru);
        // Lines 0 and 4 map to set 0 (4 sets).
        let a = c.fill(0, &instr());
        assert!(a.evicted.is_none());
        let b = c.fill(4, &instr());
        assert!(b.evicted.is_none());
        assert_ne!(a.way, b.way);
        assert!(a.filled() && b.filled());
        // Third line in set 0 must evict.
        let d = c.fill(8, &instr());
        assert!(d.evicted.is_some());
        assert_eq!(d.evicted.unwrap().tag, 0); // LRU
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache(RecencyBase::TrueLru);
        let mut wr = AccessInfo::demand(LineKind::Data);
        wr.is_write = true;
        c.fill(0, &wr);
        c.fill(4, &instr());
        let out = c.fill(8, &instr());
        assert!(out.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.fill(0, &AccessInfo::demand(LineKind::Data));
        let mut wr = AccessInfo::demand(LineKind::Data);
        wr.is_write = true;
        c.lookup(0, &wr);
        let set = 0;
        let l = c.set_slice(set).iter().find(|l| l.tag == 0).unwrap();
        assert!(l.dirty);
    }

    #[test]
    fn invalidate_removes_and_reports() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.fill(0, &instr());
        let old = c.invalidate(0).unwrap();
        assert_eq!(old.tag, 0);
        assert!(!c.contains(0));
        assert!(c.invalidate(0).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn priority_bit_roundtrip_and_histogram() {
        let mut c = small_cache(RecencyBase::TreePlru);
        c.fill(0, &instr());
        c.fill(1, &instr());
        assert!(c.set_priority(0, true));
        assert!(!c.set_priority(99, true));
        assert_eq!(c.priority_of(0), Some(true));
        assert_eq!(c.priority_of(1), Some(false));
        let counts = c.priority_counts_per_set();
        assert_eq!(counts.iter().sum::<u32>(), 1);
        c.reset_priorities();
        assert_eq!(c.priority_of(0), Some(false));
    }

    #[test]
    fn demand_hit_clears_prefetched_flag() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.fill(0, &AccessInfo::prefetch(LineKind::Instruction));
        assert!(c.iter_valid().next().unwrap().prefetched);
        c.lookup(0, &instr());
        assert!(!c.iter_valid().next().unwrap().prefetched);
    }

    #[test]
    fn prefetch_stats_separate_from_demand() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.lookup(0, &AccessInfo::prefetch(LineKind::Instruction));
        c.fill(0, &AccessInfo::prefetch(LineKind::Instruction));
        c.lookup(0, &AccessInfo::prefetch(LineKind::Instruction));
        assert_eq!(c.stats().prefetch_misses(), 1);
        assert_eq!(c.stats().prefetch_hits(), 1);
        assert_eq!(c.stats().demand_accesses(), 0);
    }

    #[test]
    fn valid_line_count_tracks_occupancy() {
        let mut c = small_cache(RecencyBase::TrueLru);
        assert_eq!(c.valid_lines(), 0);
        c.fill(0, &instr());
        c.fill(1, &instr());
        assert_eq!(c.valid_lines(), 2);
        c.invalidate(1);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn audit_is_clean_after_normal_traffic() {
        let cfg = CacheConfig::new("t", 4 * 2 * 64, 2, 1);
        let srrip = RripPolicy::new(RripMode::Static, cfg.sets(), cfg.ways, 1);
        let mut c = Cache::new(cfg, PolicyImpl::Rrip(srrip));
        for l in 0..32u64 {
            c.lookup(l, &instr());
            c.fill(l, &instr());
        }
        assert!(c.audit(emissary_obs::Level::L2).is_empty());
    }

    #[test]
    fn audit_catches_misplaced_and_duplicate_lines() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.fill(0, &instr());
        c.fill(4, &instr());
        // Corrupt: retag way 1 of set 0 so it duplicates way 0 (line 0
        // belongs to set 0, so this is a duplicate, not a misplacement).
        line_mut(&mut c, 0, 1).tag = 0;
        let v = c.audit(emissary_obs::Level::L2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "duplicate_line");
        assert_eq!(v[0].detail, 0);
        // Corrupt differently: a tag that maps to another set.
        line_mut(&mut c, 0, 1).tag = 1;
        let v = c.audit(emissary_obs::Level::L2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "line_placement");
        assert!(v[0].message.contains("maps to set 1"));
    }

    #[test]
    fn audit_catches_priority_bit_on_data_line() {
        let mut c = small_cache(RecencyBase::TreePlru);
        c.fill(8, &AccessInfo::demand(LineKind::Data));
        c.set_priority(8, true);
        let v = c.audit(emissary_obs::Level::L2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "priority_on_data");
        assert_eq!(v[0].detail, 8);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut c = small_cache(RecencyBase::TrueLru);
        c.lookup(0, &instr());
        c.fill(0, &instr());
        c.reset_stats();
        assert_eq!(*c.stats(), CacheStats::default());
    }
}
