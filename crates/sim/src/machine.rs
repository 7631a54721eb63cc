//! The cycle-level machine: decoupled front-end + OoO back-end.
//!
//! One [`Machine::step`] models one cycle, processing stages in reverse
//! pipeline order (commit → issue → decode/dispatch → fetch → wrong-path →
//! FDIP → predict/enqueue → miss resolution) so data moves at most one
//! stage per cycle.
//!
//! ## Misprediction model
//!
//! The front-end follows the architectural (true) path supplied by the
//! workload walker. When the predictor would have mispredicted a block's
//! terminator, the machine enters *wrong-path mode*: no further true-path
//! blocks are enqueued, and a wrong-path fetcher walks the predicted path
//! through the real CFG via BTB lookups, issuing real L1I/L2 accesses
//! (pollution and accidental prefetching — §3's near-target mispredict
//! effect). When the mispredicted branch executes, a re-steer penalty is
//! paid and true-path prediction resumes. Because wrong-path instructions
//! never enter decode, no ROB squash is needed; the cost materializes as
//! the fetch bubble plus the drained run-ahead — exactly the mechanism the
//! paper identifies as the source of decode starvation.
//!
//! ## Starvation and priority plumbing
//!
//! A cycle is a *decode starvation* when decode could make progress (ROB
//! and IQ have room) but the decode-queue head instruction is not yet
//! available; the cache line being waited on is blamed, and the
//! issue-queue-empty signal is sampled. The accumulated flags for an
//! in-flight line are evaluated against the policy's Table 1 selection
//! equation once, when the miss resolves; the result drives both the `M:`
//! insertion-resolution path and the EMISSARY `P` bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use emissary_cache::addr::line_of;
use emissary_cache::hierarchy::{Hierarchy, ServedBy};
use emissary_cache::linemap::LineMap;
use emissary_cache::rng::XorShift64;
use emissary_core::reset::ResetSchedule;
use emissary_core::selection::{MissFlags, SelectionExpr};
use emissary_frontend::ftq::{Ftq, FtqEntry};
use emissary_frontend::{BlockDesc, BranchClass, FetchEngine, PrefetchQueue};
use emissary_obs::{SampleCounters, TraceEvent, Tracer};
use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
use emissary_workloads::program::TermClass;
use emissary_workloads::walker::{DynBlock, DynInstr, DynOp, Walker};

use crate::config::SimConfig;
use crate::fault::{FaultConfig, SimAbort};
use crate::report::ReuseAttribution;

/// Completion-time ring size; must exceed ROB size + max dep distance
/// (`SimConfig::validate` rejects ROBs that would alias live slots).
pub(crate) const COMP_RING: usize = 4096;
/// Largest producer distance a [`DynInstr`] dependence can encode.
pub(crate) const MAX_DEP_DISTANCE: usize = u8::MAX as usize;
/// Sentinel for "not yet completed" / "not yet known".
const PENDING: u64 = u64::MAX;

/// Operation class of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Alu,
    Load(u64),
    Store(u64),
    Branch,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    op: OpClass,
    issued: bool,
    completed_at: u64,
    /// Terminator of a mispredicted block: triggers the re-steer.
    mispredict: bool,
    /// Producers (seq 0 = none).
    dep1: u64,
    dep2: u64,
    /// First cycle both operands are available, or [`PENDING`] while a
    /// producer has not issued. A producer's completion time is fixed when
    /// it issues, so once known this never changes.
    ready_at: u64,
}

/// The cycle both producers' results are available, or [`PENDING`] while
/// either has not issued (`PENDING` is `u64::MAX`, so it wins the `max`).
fn operands_ready_at(comp_time: &[u64], dep1: u64, dep2: u64) -> u64 {
    let at = |dep: u64| {
        if dep == 0 {
            0
        } else {
            comp_time[ring_slot(dep)]
        }
    };
    at(dep1).max(at(dep2))
}

/// A seq's slot in the completion ring and its parallel arrays.
fn ring_slot(seq: u64) -> usize {
    (seq as usize) & (COMP_RING - 1)
}

/// End of a waiter list.
const NO_EDGE: u32 = u32::MAX;

/// Entries with seq in `[from, to)` whose bit is set in the ring bitset
/// `bits`. The range spans at most one ROB, so it never laps the ring.
fn count_set(bits: &[u64], from: u64, to: u64) -> usize {
    let mut count = 0;
    let mut pos = from;
    while pos < to {
        let slot = ring_slot(pos);
        let (word, offset) = (slot / 64, slot % 64);
        // COMP_RING is a multiple of 64, so a chunk never crosses its end.
        let take = (64 - offset).min((to - pos) as usize);
        let mask = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << offset
        };
        count += (bits[word] & mask).count_ones() as usize;
        pos += take as u64;
    }
    count
}

/// Inserts `seq` into the ascending `list`. An entry that becomes ready is
/// usually younger than every entry already waiting, so this is mostly a
/// push; the list holds only ready entries, never the whole IQ.
fn insert_sorted(list: &mut VecDeque<u64>, seq: u64) {
    if list.back().is_none_or(|&last| last < seq) {
        list.push_back(seq);
    } else {
        let at = list.partition_point(|&s| s < seq);
        list.insert(at, seq);
    }
}

/// An instruction sitting in the decode queue waiting for its line.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    instr: DynInstr,
    ready_at: u64,
    line: u64,
    mispredict: bool,
    /// Reuse bucket of the line at demand-fetch time (Figure 2); cold
    /// first touches classify as long reuse.
    bucket: ReuseBucket,
    /// Level that served (or is serving) the line.
    source: ServedBy,
}

/// FTQ payload: the block's dynamic instructions plus prediction verdicts.
#[derive(Debug)]
struct BlockPayload {
    instrs: Vec<DynInstr>,
    mispredicted: bool,
}

/// Counters accumulated during the measurement window.
#[derive(Debug, Default, Clone)]
pub(crate) struct WindowStats {
    pub cycles: u64,
    pub committed: u64,
    pub decoded: u64,
    pub issued: u64,
    pub starvation_cycles: u64,
    pub starvation_empty_iq_cycles: u64,
    pub fe_stall_cycles: u64,
    pub be_stall_cycles: u64,
    pub branch_mispredicts: u64,
    /// High-priority marks issued (selection accepted a starving miss).
    pub priority_marks: u64,
    pub reuse_attr: ReuseAttribution,
    /// Starvation cycles split by the blamed line's serving level.
    pub starve_by_source: [u64; 4],
}

/// The simulated machine. See module docs.
pub struct Machine<'p> {
    cfg: SimConfig,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) engine: FetchEngine,
    walker: Walker<'p>,
    ftq: Ftq<BlockPayload>,
    pfq: PrefetchQueue,
    decode_queue: VecDeque<Fetched>,
    rob: VecDeque<RobEntry>,
    /// Dispatched but not yet issued instructions (issue-queue occupancy).
    iq_count: usize,
    /// One bit per completion-ring slot, set while that seq is dispatched
    /// and unissued; a popcount gives an entry's age rank in the IQ.
    unissued: Vec<u64>,
    /// Per producer slot: first edge of the list of consumers waiting on
    /// it, or [`NO_EDGE`]. Edge `2 * consumer_slot + k` is the consumer's
    /// `k`-th operand.
    waiter_head: Vec<u32>,
    /// Per edge: the next edge on the same producer's list.
    waiter_next: Vec<u32>,
    /// Unissued entries whose operands are available, ascending by seq.
    ready: VecDeque<u64>,
    /// Unissued entries with a known future `ready_at`: `(ready_at, seq)`.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    lq_count: usize,
    sq_count: usize,
    comp_time: Vec<u64>,
    next_seq: u64,
    now: u64,
    /// Staged (already predicted) block waiting for FTQ room.
    staged: Option<(DynBlock, Vec<DynInstr>, bool)>,
    btb_stall_until: u64,
    /// Wrong-path mode: an unresolved misprediction is in flight.
    wp_active: bool,
    wp_pc: u64,
    resteer_done_at: Option<u64>,
    /// Flags accumulated for in-flight instruction lines.
    pending_flags: LineMap<MissFlags>,
    /// Instruction fills awaiting selection resolution: (ready, line).
    pending_resolutions: BinaryHeap<Reverse<(u64, u64)>>,
    selection: Option<SelectionExpr>,
    mark_priority: bool,
    sel_rng: XorShift64,
    reset_schedule: Option<ResetSchedule>,
    reuse: Option<ReuseTracker>,
    pub(crate) stats: WindowStats,
    total_committed: u64,
    /// Observability handle; disabled by default.
    tracer: Tracer,
    /// Open decode-starvation episode: (start cycle, blamed line, level).
    /// Tracked only while tracing is enabled.
    starve_episode: Option<(u64, u64, ServedBy)>,
    /// Recycled block-instruction buffers: `predict_enqueue` pops one for
    /// the walker to fill and `fetch` returns it after draining, so the
    /// steady-state cycle loop never allocates payload `Vec`s. Bounded by
    /// the FTQ depth plus the staged block.
    instr_pool: Vec<Vec<DynInstr>>,
    /// Per-fetch scratch: (line, ready cycle, reuse bucket, serving level)
    /// for each distinct line the current block touches. Linear scan — a
    /// block spans a handful of lines — and reused across cycles.
    line_ready_scratch: Vec<(u64, u64, ReuseBucket, ServedBy)>,
}

impl<'p> Machine<'p> {
    /// Builds a machine for `walker`'s program under `cfg`.
    pub fn new(walker: Walker<'p>, cfg: &SimConfig) -> Self {
        let l2_policy = cfg.l2_policy.build_l2_policy_with(
            cfg.recency,
            cfg.hierarchy.l2.sets(),
            cfg.hierarchy.l2.ways,
            cfg.seed ^ 0x9999,
        );
        let hierarchy = Hierarchy::new(cfg.hierarchy.clone(), cfg.l1_policy, l2_policy);
        let engine = FetchEngine::new(cfg.core.frontend.clone());
        let ftq = Ftq::new(cfg.core.ftq_entries, cfg.core.ftq_instrs);
        Self {
            hierarchy,
            engine,
            walker,
            ftq,
            pfq: PrefetchQueue::new(64),
            decode_queue: VecDeque::with_capacity(cfg.core.decode_queue),
            rob: VecDeque::with_capacity(cfg.core.rob_entries),
            iq_count: 0,
            unissued: vec![0; COMP_RING / 64],
            waiter_head: vec![NO_EDGE; COMP_RING],
            waiter_next: vec![NO_EDGE; 2 * COMP_RING],
            ready: VecDeque::with_capacity(cfg.core.iq_entries),
            timers: BinaryHeap::with_capacity(cfg.core.iq_entries),
            lq_count: 0,
            sq_count: 0,
            comp_time: vec![0; COMP_RING],
            next_seq: 1,
            now: 0,
            staged: None,
            btb_stall_until: 0,
            wp_active: false,
            wp_pc: 0,
            resteer_done_at: None,
            pending_flags: LineMap::new(),
            pending_resolutions: BinaryHeap::new(),
            selection: cfg.l2_policy.selection(),
            mark_priority: cfg.l2_policy.is_emissary(),
            sel_rng: XorShift64::new(cfg.seed ^ 0x517),
            reset_schedule: cfg.priority_reset_interval.map(ResetSchedule::every),
            reuse: cfg.track_reuse.then(ReuseTracker::new),
            stats: WindowStats::default(),
            total_committed: 0,
            tracer: Tracer::disabled(),
            starve_episode: None,
            instr_pool: Vec::new(),
            line_ready_scratch: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    /// Enables event tracing: the tracer is shared with the hierarchy and
    /// the L2 policy, and the machine stamps it with the current cycle and
    /// emits decode-starvation episode events. Call before running;
    /// tracing must never change simulated behavior (a regression test
    /// holds this).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.hierarchy.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The memory hierarchy (for invariant checks and inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The fetch engine (for predictor statistics).
    pub fn engine(&self) -> &FetchEngine {
        &self.engine
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total instructions committed since construction.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// Runs until `n` more instructions commit. Returns cycles elapsed.
    pub fn run_instrs(&mut self, n: u64) -> u64 {
        self.run_instrs_checked(n, &FaultConfig::none())
            .expect("FaultConfig::none() disables every abort path")
    }

    /// [`Machine::run_instrs`] under the fault detector: aborts with
    /// [`SimAbort::Stalled`] when no instruction commits for
    /// `fault.stall_cycles` consecutive cycles.
    ///
    /// The check only reads simulator state; a run that does not abort is
    /// cycle-for-cycle identical to [`Machine::run_instrs`].
    pub fn run_instrs_checked(&mut self, n: u64, fault: &FaultConfig) -> Result<u64, SimAbort> {
        let target = self.total_committed + n;
        let start_cycle = self.now;
        let mut last_commit_cycle = self.now;
        let mut last_committed = self.total_committed;
        while self.total_committed < target {
            self.step();
            if self.total_committed != last_committed {
                last_committed = self.total_committed;
                last_commit_cycle = self.now;
            } else if let Some(limit) = fault.stall_cycles {
                if self.now - last_commit_cycle >= limit {
                    return Err(SimAbort::Stalled {
                        cycle: self.now,
                        stall_cycles: limit,
                        diagnostics: self.debug_state(),
                    });
                }
            }
        }
        Ok(self.now - start_cycle)
    }

    /// Runs the hierarchy invariant auditor (see `emissary_cache::audit`),
    /// emitting one [`TraceEvent::AuditViolation`] per finding when tracing
    /// is enabled, then checks the issue scheduler's invariants, and
    /// returns the rendered violations (empty = clean). Scheduler findings
    /// name no cache level, so they appear only in the returned list.
    /// Read-only with respect to simulated state.
    pub fn run_audit(&mut self) -> Vec<String> {
        let violations = self.hierarchy.audit();
        for v in &violations {
            let (invariant, level, set, detail) = (v.invariant, v.level, v.set as u32, v.detail);
            self.tracer.emit_with(|cycle| TraceEvent::AuditViolation {
                cycle,
                invariant,
                level,
                set,
                detail,
            });
        }
        let mut found: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        found.extend(self.scheduler_violations());
        found
    }

    /// The wakeup scheduler's invariants:
    /// - every unissued ROB entry is in exactly one place: the ready list,
    ///   the timer heap, or the waiter list of each producer that has not
    ///   issued;
    /// - the ready list is strictly ascending by seq;
    /// - every known `ready_at` is the producers' completion time, and a
    ///   timer's key is its entry's `ready_at`;
    /// - the unissued bitset marks exactly the unissued ROB entries, and
    ///   its popcount is the IQ count.
    fn scheduler_violations(&self) -> Vec<String> {
        let mut found = Vec::new();
        let front_seq = self.rob.front().map_or(self.next_seq, |e| e.seq);
        let index = |seq: u64| {
            seq.checked_sub(front_seq)
                .map(|idx| idx as usize)
                .filter(|&idx| self.rob.get(idx).is_some_and(|r| r.seq == seq && !r.issued))
        };
        // Per ROB index: places on the ready list or timer heap, and
        // producer lists it sits on.
        let mut queued = vec![0usize; self.rob.len()];
        let mut linked = vec![0usize; self.rob.len()];
        let mut prev = 0;
        for &seq in &self.ready {
            if seq <= prev {
                found.push(format!(
                    "scheduler: ready list is not ascending: {seq} follows {prev}"
                ));
            }
            prev = seq;
            match index(seq) {
                Some(idx) => queued[idx] += 1,
                None => found.push(format!(
                    "scheduler: ready seq {seq} is not an unissued rob entry"
                )),
            }
        }
        for &Reverse((at, seq)) in &self.timers {
            match index(seq) {
                Some(idx) => {
                    queued[idx] += 1;
                    if self.rob[idx].ready_at != at {
                        found.push(format!(
                            "scheduler: timer ({at}, {seq}) but the entry's ready_at is {}",
                            self.rob[idx].ready_at
                        ));
                    }
                }
                None => found.push(format!(
                    "scheduler: timer seq {seq} is not an unissued rob entry"
                )),
            }
        }
        for producer in self.rob.iter().filter(|e| !e.issued) {
            let mut edge = self.waiter_head[ring_slot(producer.seq)];
            // A corrupted list may cycle; no list is longer than the ROB.
            for _ in 0..self.rob.len() {
                if edge == NO_EDGE {
                    break;
                }
                let slot = edge as usize / 2;
                let seq = producer.seq
                    + (slot.wrapping_sub(ring_slot(producer.seq)) & (COMP_RING - 1)) as u64;
                match index(seq) {
                    Some(idx)
                        if [self.rob[idx].dep1, self.rob[idx].dep2].contains(&producer.seq) =>
                    {
                        linked[idx] += 1;
                    }
                    _ => found.push(format!(
                        "scheduler: seq {} has a waiter {seq} that does not wait on it",
                        producer.seq
                    )),
                }
                edge = self.waiter_next[edge as usize];
            }
        }
        let mut unissued = 0;
        for (idx, e) in self.rob.iter().enumerate() {
            let bit = count_set(&self.unissued, e.seq, e.seq + 1) == 1;
            if bit == e.issued {
                found.push(format!(
                    "scheduler: seq {} unissued bit is {bit} but issued is {}",
                    e.seq, e.issued
                ));
            }
            if e.issued {
                continue;
            }
            unissued += 1;
            let waiting_on = [e.dep1, e.dep2]
                .iter()
                .enumerate()
                .filter(|&(k, &dep)| {
                    dep != 0
                        && !(k == 1 && dep == e.dep1)
                        && self.comp_time[ring_slot(dep)] == PENDING
                })
                .count();
            let places = queued[idx] + usize::from(linked[idx] > 0);
            if places != 1 || linked[idx] != waiting_on {
                found.push(format!(
                    "scheduler: seq {} is in {places} places (ready list and timer heap: {}, \
                     waiter lists: {} of its {waiting_on} unissued producers)",
                    e.seq, queued[idx], linked[idx]
                ));
            }
            let ready_at = operands_ready_at(&self.comp_time, e.dep1, e.dep2);
            if e.ready_at != PENDING && e.ready_at != ready_at {
                found.push(format!(
                    "scheduler: seq {} ready_at {} but its producers complete at {ready_at}",
                    e.seq, e.ready_at
                ));
            }
        }
        let popcount: usize = self.unissued.iter().map(|w| w.count_ones() as usize).sum();
        if popcount != self.iq_count || unissued != self.iq_count {
            found.push(format!(
                "scheduler: unissued popcount {popcount} and unissued rob entries {unissued} \
                 but iq count {}",
                self.iq_count
            ));
        }
        found
    }

    /// Zeroes window counters (warmup boundary). Microarchitectural state
    /// (caches, predictors, in-flight work) is preserved.
    pub fn reset_window(&mut self) {
        self.stats = WindowStats::default();
        self.hierarchy.reset_stats();
        self.engine.reset_stats();
    }

    /// One cycle.
    pub fn step(&mut self) {
        self.tracer.set_now(self.now);
        self.commit();
        self.issue();
        self.decode_dispatch();
        self.fetch();
        self.wrong_path_fetch();
        self.fdip();
        self.predict_enqueue();
        self.resolve_misses();
        self.now += 1;
        self.stats.cycles += 1;
    }

    // --- Commit -----------------------------------------------------------

    fn commit(&mut self) {
        let width = self.cfg.core.commit_width;
        let mut committed = 0;
        while committed < width {
            match self.rob.front() {
                Some(e) if e.completed_at <= self.now => {
                    let e = self.rob.pop_front().expect("front checked");
                    match e.op {
                        OpClass::Load(_) => self.lq_count -= 1,
                        OpClass::Store(_) => self.sq_count -= 1,
                        _ => {}
                    }
                    committed += 1;
                }
                _ => break,
            }
        }
        self.stats.committed += u64::from(committed);
        self.total_committed += u64::from(committed);
        if committed == 0 {
            if self.rob.is_empty() {
                self.stats.fe_stall_cycles += 1;
            } else {
                self.stats.be_stall_cycles += 1;
            }
        }
        if let Some(sched) = &mut self.reset_schedule {
            if sched.due(self.total_committed) {
                self.hierarchy.reset_instr_priorities();
            }
        }
    }

    // --- Issue ------------------------------------------------------------

    /// Oldest-first select over the oldest `scheduler_window` IQ entries,
    /// up to `issue_width` whose operands are ready this cycle.
    ///
    /// Event-driven: an entry's `ready_at` is computed once, when its last
    /// producer issues, and the entry then waits on the timer heap until
    /// that cycle. So a cycle looks only at the due entries, oldest first,
    /// and never rescans the window. An entry issued this cycle wakes its
    /// consumers at once, so an `alu_latency` 0 chain issues in one cycle,
    /// as in the scan this replaces.
    fn issue(&mut self) {
        let now = self.now;
        while let Some(&Reverse((at, seq))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            insert_sorted(&mut self.ready, seq);
        }
        if self.ready.is_empty() {
            return;
        }
        let width = self.cfg.core.issue_width as usize;
        let window = self.cfg.core.scheduler_window;
        let alu_latency = self.cfg.core.alu_latency;
        let resteer_penalty = self.cfg.core.resteer_penalty;
        // A ready entry is unissued, so the ROB holds it and is non-empty.
        let front_seq = self.rob[0].seq;
        let mut issued = 0usize;
        while issued < width {
            let Some(&seq) = self.ready.front() else {
                break;
            };
            // An entry's rank is the number of unissued entries older than
            // it. The window is the oldest `window` entries as the cycle
            // began: the entries issued so far this cycle are all older
            // than `seq`, so they count towards its rank. An entry fewer than
            // `window` places behind the ROB head has fewer older entries
            // than that, so its rank needs no popcount.
            if (seq - front_seq) as usize >= window
                && count_set(&self.unissued, front_seq, seq) + issued >= window
            {
                break;
            }
            self.ready.pop_front();
            let Machine {
                rob,
                hierarchy,
                comp_time,
                unissued,
                waiter_head,
                waiter_next,
                ready,
                timers,
                stats,
                resteer_done_at,
                iq_count,
                ..
            } = self;
            let e = &mut rob[(seq - front_seq) as usize];
            let completed_at = match e.op {
                OpClass::Alu | OpClass::Branch => now + alu_latency,
                OpClass::Load(addr) => {
                    hierarchy
                        .access_data(line_of(addr), now, false, false)
                        .ready_at
                }
                OpClass::Store(addr) => {
                    // Write-allocate now; retire through the store buffer.
                    hierarchy.access_data(line_of(addr), now, true, false);
                    now + 1
                }
            };
            e.issued = true;
            e.completed_at = completed_at;
            if e.mispredict {
                // The mispredicted branch resolves: schedule the re-steer.
                *resteer_done_at = Some(completed_at + resteer_penalty);
            }
            let slot = ring_slot(seq);
            comp_time[slot] = completed_at;
            unissued[slot / 64] &= !(1u64 << (slot % 64));
            *iq_count -= 1;
            issued += 1;
            stats.issued += 1;
            // Wake the consumers whose last unissued producer this was.
            let mut edge = std::mem::replace(&mut waiter_head[slot], NO_EDGE);
            while edge != NO_EDGE {
                let consumer_slot = edge as usize / 2;
                // Consumers sit within MAX_DEP_DISTANCE after their
                // producer, so the ring offset recovers the seq.
                let consumer = seq + (consumer_slot.wrapping_sub(slot) & (COMP_RING - 1)) as u64;
                let c = &mut rob[(consumer - front_seq) as usize];
                let at = operands_ready_at(comp_time, c.dep1, c.dep2);
                if at != PENDING {
                    c.ready_at = at;
                    if at <= now {
                        insert_sorted(ready, consumer);
                    } else {
                        timers.push(Reverse((at, consumer)));
                    }
                }
                edge = waiter_next[edge as usize];
            }
        }
    }

    // --- Decode / dispatch --------------------------------------------------

    fn decode_dispatch(&mut self) {
        let width = self.cfg.core.decode_width;
        let (rob_cap, iq_cap, lq_cap, sq_cap) = (
            self.cfg.core.rob_entries,
            self.cfg.core.iq_entries,
            self.cfg.core.lq_entries,
            self.cfg.core.sq_entries,
        );
        let backend_can_accept = self.rob.len() < rob_cap && self.iq_count < iq_cap;
        let mut decoded = 0;
        while decoded < width {
            let Some(head) = self.decode_queue.front() else {
                break;
            };
            if head.ready_at > self.now {
                break;
            }
            if self.rob.len() >= rob_cap || self.iq_count >= iq_cap {
                break;
            }
            match head.instr.op {
                DynOp::Load(_) if self.lq_count >= lq_cap => break,
                DynOp::Store(_) if self.sq_count >= sq_cap => break,
                _ => {}
            }
            let f = self.decode_queue.pop_front().expect("front checked");
            let seq = self.next_seq;
            self.next_seq += 1;
            let op = match f.instr.op {
                DynOp::Alu if f.instr.is_terminator => OpClass::Branch,
                DynOp::Alu => OpClass::Alu,
                DynOp::Load(a) => {
                    self.lq_count += 1;
                    OpClass::Load(a)
                }
                DynOp::Store(a) => {
                    self.sq_count += 1;
                    OpClass::Store(a)
                }
            };
            let dep = |d: u8| -> u64 {
                if d == 0 || u64::from(d) >= seq {
                    0
                } else {
                    seq - u64::from(d)
                }
            };
            let (dep1, dep2) = (dep(f.instr.dep1), dep(f.instr.dep2));
            let slot = ring_slot(seq);
            self.comp_time[slot] = PENDING;
            self.unissued[slot / 64] |= 1u64 << (slot % 64);
            self.iq_count += 1;
            // The slot's last occupant issued long ago, emptying its list.
            debug_assert_eq!(self.waiter_head[slot], NO_EDGE);
            // Link onto the waiter list of each distinct unissued producer.
            for (k, producer) in [dep1, dep2].into_iter().enumerate() {
                if producer == 0 || (k == 1 && producer == dep1) {
                    continue;
                }
                let p = ring_slot(producer);
                if self.comp_time[p] == PENDING {
                    let edge = (2 * slot + k) as u32;
                    self.waiter_next[edge as usize] = self.waiter_head[p];
                    self.waiter_head[p] = edge;
                }
            }
            // PENDING exactly when it was linked above.
            let ready_at = operands_ready_at(&self.comp_time, dep1, dep2);
            if ready_at <= self.now {
                // The youngest entry: appending keeps the list ascending.
                self.ready.push_back(seq);
            } else if ready_at != PENDING {
                self.timers.push(Reverse((ready_at, seq)));
            }
            self.rob.push_back(RobEntry {
                seq,
                op,
                issued: false,
                completed_at: PENDING,
                mispredict: f.mispredict,
                dep1,
                dep2,
                ready_at,
            });
            decoded += 1;
            self.stats.decoded += 1;
        }
        // Starvation: decode made zero progress, the back-end had room, and
        // the head instruction exists but its line is still in flight.
        let mut starved_on: Option<(u64, ServedBy)> = None;
        if decoded == 0 && backend_can_accept {
            if let Some(head) = self.decode_queue.front() {
                if head.ready_at > self.now {
                    starved_on = Some((head.line, head.source));
                    let empty_iq = self.iq_count == 0;
                    self.stats.starvation_cycles += 1;
                    if empty_iq {
                        self.stats.starvation_empty_iq_cycles += 1;
                    }
                    let line = head.line;
                    let bucket = head.bucket;
                    let src_idx = match head.source {
                        ServedBy::L1 | ServedBy::InFlight => 0,
                        ServedBy::L2 => 1,
                        ServedBy::L3 => 2,
                        ServedBy::Memory => 3,
                    };
                    self.stats.starve_by_source[src_idx] += 1;
                    self.pending_flags
                        .get_or_insert(line, MissFlags::NONE)
                        .merge(MissFlags {
                            starved_decode: true,
                            empty_issue_queue: empty_iq,
                        });
                    // Figure 2: attribute the starvation cycle to the
                    // blamed line's reuse bucket as observed when the line
                    // was fetched (the fetch itself already refreshed the
                    // tracker, so the current distance would read ~0).
                    match bucket {
                        ReuseBucket::Short => self.stats.reuse_attr.starve_short += 1,
                        ReuseBucket::Mid => self.stats.reuse_attr.starve_mid += 1,
                        ReuseBucket::Long => self.stats.reuse_attr.starve_long += 1,
                    }
                }
            }
        }
        // Episode bookkeeping is observability-only: it reads simulator
        // state but never writes it, so tracing cannot perturb a run.
        if self.tracer.enabled() {
            match (starved_on, self.starve_episode) {
                (Some((line, source)), None) => {
                    self.starve_episode = Some((self.now, line, source));
                    self.tracer.emit_with(|cycle| TraceEvent::StarveStart {
                        cycle,
                        line,
                        source: source.level(),
                    });
                }
                (None, Some((start_cycle, line, source))) => {
                    self.starve_episode = None;
                    self.tracer.emit_with(|cycle| TraceEvent::StarveEnd {
                        cycle,
                        line,
                        source: source.level(),
                        start_cycle,
                    });
                }
                _ => {}
            }
        }
    }

    // --- Fetch --------------------------------------------------------------

    fn fetch(&mut self) {
        if self.decode_queue.len() >= self.cfg.core.decode_queue {
            return;
        }
        let Some(entry) = self.ftq.pop() else {
            return;
        };
        let FtqEntry {
            start: _,
            num_instrs: _,
            payload,
        } = entry;
        let BlockPayload {
            instrs,
            mispredicted,
        } = payload;
        // Demand-access each distinct line the block touches. The scratch
        // is a reused linear-scan buffer (blocks span a handful of lines),
        // so the steady-state fetch path performs no heap allocation.
        self.line_ready_scratch.clear();
        let n = instrs.len();
        for (i, di) in instrs.iter().enumerate() {
            let line = line_of(di.pc);
            let cached = self
                .line_ready_scratch
                .iter()
                .position(|&(l, _, _, _)| l == line);
            let (ready_at, bucket, source) = match cached {
                Some(idx) => {
                    let (_, r, b, s) = self.line_ready_scratch[idx];
                    (r, b, s)
                }
                None => {
                    let m = self.hierarchy.access_instr(line, self.now, false);
                    if m.needs_resolution {
                        self.pending_resolutions.push(Reverse((m.ready_at, line)));
                    }
                    let bucket = self.record_fetch_line(line, m.source);
                    self.line_ready_scratch
                        .push((line, m.ready_at, bucket, m.source));
                    (m.ready_at, bucket, m.source)
                }
            };
            self.decode_queue.push_back(Fetched {
                instr: *di,
                ready_at,
                line,
                mispredict: mispredicted && i == n - 1,
                bucket,
                source,
            });
        }
        // Recycle the payload buffer for the next emitted block.
        let mut instrs = instrs;
        instrs.clear();
        self.instr_pool.push(instrs);
    }

    /// Figure 2 accounting for one demand-fetched line; returns the line's
    /// reuse bucket at this access (cold first touches classify as long).
    fn record_fetch_line(&mut self, line: u64, served_by: ServedBy) -> ReuseBucket {
        let Some(tracker) = &mut self.reuse else {
            return ReuseBucket::Long;
        };
        let bucket = tracker.access(line);
        let attr = &mut self.stats.reuse_attr;
        match bucket {
            Some(ReuseBucket::Long) => attr.long_accesses += 1,
            Some(_) => attr.other_accesses += 1,
            None => attr.long_accesses += 1, // cold lines behave as long reuse
        }
        if matches!(served_by, ServedBy::L3 | ServedBy::Memory) {
            match bucket {
                Some(ReuseBucket::Long) | None => attr.l2_miss_long += 1,
                Some(_) => attr.l2_miss_other += 1,
            }
        }
        bucket.unwrap_or(ReuseBucket::Long)
    }

    // --- Wrong-path fetch -----------------------------------------------------

    fn wrong_path_fetch(&mut self) {
        // Leave wrong-path mode once the re-steer completes.
        if let Some(done) = self.resteer_done_at {
            if self.now >= done {
                self.wp_active = false;
                self.wp_pc = 0;
                self.resteer_done_at = None;
            }
        }
        if !self.wp_active || !self.cfg.wrong_path_fetch || self.wp_pc == 0 {
            return;
        }
        for _ in 0..self.cfg.core.wrong_path_blocks_per_cycle {
            let Some(block) = self.walker.program().block_at(self.wp_pc) else {
                self.wp_pc = 0;
                return;
            };
            // Touch the block's lines (pollution / accidental prefetch).
            let first = block.start() >> 6;
            let last = (block.end() - 1) >> 6;
            for line in first..=last {
                let m = self.hierarchy.access_instr(line, self.now, true);
                if m.needs_resolution {
                    self.pending_resolutions.push(Reverse((m.ready_at, line)));
                }
            }
            // Steer via the BTB, as real wrong-path fetch would.
            self.wp_pc = match self.engine.wrong_path_lookup(block.start()) {
                Some(e) if matches!(e.kind, BranchClass::Jump | BranchClass::Call) => e.target,
                Some(e) if e.kind == BranchClass::CondDirect => {
                    // No oracle on the wrong path: alternate directions.
                    if self.now & 1 == 0 {
                        e.target
                    } else {
                        block.end()
                    }
                }
                // Returns/indirects and BTB misses end the wrong-path walk.
                _ => 0,
            };
            if self.wp_pc == 0 {
                return;
            }
        }
    }

    // --- FDIP ----------------------------------------------------------------

    fn fdip(&mut self) {
        let budget = self.cfg.core.fdip_per_cycle;
        // Split borrows: drain the prefetch queue directly into the
        // hierarchy without collecting into a temporary.
        let Machine {
            pfq,
            hierarchy,
            pending_resolutions,
            now,
            ..
        } = self;
        for line in pfq.drain(budget) {
            let m = hierarchy.access_instr(line, *now, true);
            if m.needs_resolution {
                pending_resolutions.push(Reverse((m.ready_at, line)));
            }
        }
    }

    // --- Predict / enqueue ------------------------------------------------------

    fn predict_enqueue(&mut self) {
        if self.wp_active || self.now < self.btb_stall_until {
            return;
        }
        if self.staged.is_none() {
            // Reuse a recycled payload buffer (returned by `fetch`) so the
            // steady-state loop allocates nothing per block.
            let mut instrs = self
                .instr_pool
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(16));
            let block = self.walker.emit_block(&mut instrs);
            let desc = BlockDesc {
                start: block.start,
                num_instrs: block.num_instrs,
                kind: term_to_branch_class(block.class),
                taken_target: block.taken_target,
                taken: block.taken,
            };
            let pred = self.engine.predict_block(&desc);
            if pred.btb_miss {
                // Enqueue stall while the pre-decoder repairs the entry;
                // prefetch the next two fall-through lines (§5.2).
                self.btb_stall_until = self.now + self.engine.config().btb_miss_penalty;
                let line = block.start >> 6;
                self.pfq.enqueue_line(line + 1);
                self.pfq.enqueue_line(line + 2);
            }
            if pred.mispredicted {
                self.stats.branch_mispredicts += 1;
            }
            self.staged = Some((block, instrs, pred.mispredicted));
            if pred.mispredicted {
                // Wrong-path steering starts where the predictor went.
                self.wp_pc = pred.predicted_next;
            }
            if pred.btb_miss {
                return; // stall before enqueuing
            }
        }
        // Try to enqueue the staged block.
        let Some((block, _, _)) = self.staged.as_ref() else {
            return;
        };
        if !self.ftq.can_push(block.num_instrs) {
            return;
        }
        let (block, instrs, mispredicted) = self.staged.take().expect("staged checked");
        self.pfq.enqueue_block(block.start, block.num_instrs);
        let entry = FtqEntry {
            start: block.start,
            num_instrs: block.num_instrs,
            payload: BlockPayload {
                instrs,
                mispredicted,
            },
        };
        self.ftq.push(entry).expect("can_push checked");
        if mispredicted {
            self.wp_active = true;
        }
    }

    // --- Miss resolution ----------------------------------------------------------

    fn resolve_misses(&mut self) {
        while let Some(&Reverse((ready, line))) = self.pending_resolutions.peek() {
            if ready > self.now {
                break;
            }
            self.pending_resolutions.pop();
            let flags = self.pending_flags.remove(line).unwrap_or(MissFlags::NONE);
            let high = match self.selection {
                Some(sel) => sel.evaluate(flags, &mut self.sel_rng),
                None => false,
            };
            self.hierarchy.resolve_instr_fill(line, high);
            if self.mark_priority && high {
                self.stats.priority_marks += 1;
                self.hierarchy.mark_instr_priority(line);
            }
        }
    }

    /// One-line dump of pipeline occupancy for debugging stalls.
    pub fn debug_state(&self) -> String {
        format!(
            "now={} rob={} iq={} iq_wake={:?} iq_window_ready={} dq={} dq_head_ready={:?} \
             ftq={} ftq_instrs={} staged={} wp_active={} wp_pc={:#x} resteer={:?} \
             btb_stall_until={} lq={} sq={} rob_head={:?} outstanding_misses={}",
            self.now,
            self.rob.len(),
            self.iq_count,
            // The earliest timer: when the next waiting entry becomes due.
            self.timers.peek().map(|&Reverse((at, _))| at),
            self.rob
                .iter()
                .filter(|e| !e.issued)
                .take(self.cfg.core.scheduler_window)
                .filter(|e| e.ready_at <= self.now)
                .count(),
            self.decode_queue.len(),
            self.decode_queue.front().map(|f| f.ready_at),
            self.ftq.len(),
            self.ftq.instr_count(),
            self.staged.is_some(),
            self.wp_active,
            self.wp_pc,
            self.resteer_done_at,
            self.btb_stall_until,
            self.lq_count,
            self.sq_count,
            self.rob.front().map(|e| (e.seq, e.issued, e.completed_at)),
            self.hierarchy.outstanding_misses(self.now),
        )
    }

    /// Figure 8: per-set high-priority line counts, clamped to 8+. Nine
    /// buckets (0..=8) cover the 8-way L2 exactly; the paper never
    /// protects more than `ways` lines per set, so counts above 8 would
    /// indicate a bookkeeping bug and are folded into the last bucket.
    pub fn priority_histogram(&self) -> [u64; 9] {
        let mut hist = [0u64; 9];
        for count in self.hierarchy.l2.priority_counts_per_set() {
            let idx = (count as usize).min(hist.len() - 1);
            hist[idx] += 1;
        }
        hist
    }

    /// Cumulative window counters for interval sampling (all relative to
    /// the last [`Machine::reset_window`]).
    pub fn sample_counters(&self) -> SampleCounters {
        SampleCounters {
            instructions: self.stats.committed,
            cycles: self.stats.cycles,
            l1i_misses: self.hierarchy.l1i.stats().instr_stream_misses(),
            l2i_misses: self.hierarchy.l2.stats().instr_stream_misses(),
            starvation_cycles: self.stats.starvation_cycles,
        }
    }

    /// The reuse tracker's aggregate counts (empty when disabled).
    pub fn reuse_counts(&self) -> emissary_stats::reuse::ReuseCounts {
        self.reuse.as_ref().map(|t| t.counts()).unwrap_or_default()
    }
}

fn term_to_branch_class(class: TermClass) -> BranchClass {
    match class {
        TermClass::CondDirect => BranchClass::CondDirect,
        TermClass::Jump => BranchClass::Jump,
        TermClass::Call => BranchClass::Call,
        TermClass::IndirectCall => BranchClass::IndirectCall,
        TermClass::Return => BranchClass::Return,
        TermClass::FallThrough => BranchClass::FallThrough,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use emissary_workloads::builder::{build_program, ProgramShape};
    use emissary_workloads::Profile;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_instrs: 0,
            measure_instrs: 10_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn machine_makes_forward_progress() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        let cycles = m.run_instrs(5_000);
        assert!(cycles > 0);
        assert_eq!(m.total_committed(), m.stats.committed);
        assert!(m.total_committed() >= 5_000);
        // IPC must be sane for an 8-wide machine.
        let ipc = m.stats.committed as f64 / m.stats.cycles as f64;
        assert!(ipc > 0.05 && ipc <= 8.0, "ipc = {ipc}");
    }

    #[test]
    fn deterministic_across_runs() {
        let program = build_program(&ProgramShape::tiny());
        let run = || {
            let walker = Walker::new(&program, 1);
            let mut m = Machine::new(walker, &quick_cfg());
            m.run_instrs(20_000);
            (
                m.now(),
                m.stats.starvation_cycles,
                m.stats.branch_mispredicts,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn starvation_cycles_are_detected() {
        // A large-footprint program on the default hierarchy must starve
        // decode at least occasionally.
        let shape = ProgramShape {
            code_kb: 2048,
            num_services: 64,
            service_skew: 0.0,
            hard_branch_frac: 0.1,
            ..ProgramShape::tiny()
        };
        let program = build_program(&shape);
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(50_000);
        assert!(
            m.stats.starvation_cycles > 0,
            "no starvation on a thrashing workload"
        );
        assert!(m.stats.starvation_empty_iq_cycles <= m.stats.starvation_cycles);
    }

    #[test]
    fn emissary_policy_marks_priorities() {
        let shape = ProgramShape {
            code_kb: 2048,
            num_services: 64,
            service_skew: 0.0,
            ..ProgramShape::tiny()
        };
        let program = build_program(&shape);
        let walker = Walker::new(&program, 1);
        let cfg = quick_cfg().with_policy("P(8):S".parse().unwrap());
        let mut m = Machine::new(walker, &cfg);
        m.run_instrs(50_000);
        let hist = m.priority_histogram();
        let protected_sets: u64 = hist[1..].iter().sum();
        assert!(protected_sets > 0, "no set ever acquired a P=1 line");
    }

    #[test]
    fn baseline_policy_never_marks_priorities() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(20_000);
        let hist = m.priority_histogram();
        assert_eq!(hist[1..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn window_reset_zeroes_counters_but_keeps_state() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(10_000);
        let committed_before = m.total_committed();
        m.reset_window();
        assert_eq!(m.stats.committed, 0);
        assert_eq!(m.total_committed(), committed_before);
        m.run_instrs(1_000);
        assert!(m.stats.committed >= 1_000);
    }

    #[test]
    fn checked_run_is_identical_to_unchecked() {
        // An armed watchdog that never fires must not perturb the run.
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut plain = Machine::new(walker, &quick_cfg());
        let plain_cycles = plain.run_instrs(20_000);
        let walker = Walker::new(&program, 1);
        let mut checked = Machine::new(walker, &quick_cfg());
        let checked_cycles = checked
            .run_instrs_checked(20_000, &FaultConfig::watchdog())
            .expect("healthy run must not abort");
        assert_eq!(plain_cycles, checked_cycles);
        assert_eq!(
            plain.stats.starvation_cycles,
            checked.stats.starvation_cycles
        );
    }

    #[test]
    fn stall_watchdog_fires_on_an_impossible_threshold() {
        // No machine commits on its very first cycles (fetch latency), so a
        // 1-cycle threshold must trip and carry a diagnostic dump.
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        let fault = FaultConfig::none().with_stall_cycles(1);
        let err = m.run_instrs_checked(10_000, &fault).unwrap_err();
        match err {
            SimAbort::Stalled {
                stall_cycles,
                diagnostics,
                ..
            } => {
                assert_eq!(stall_cycles, 1);
                assert!(diagnostics.contains("rob="), "dump missing: {diagnostics}");
                assert!(diagnostics.contains("outstanding_misses="));
                // Whether the issue scheduler was asleep, and on what.
                assert!(
                    diagnostics.contains("iq_wake="),
                    "dump missing: {diagnostics}"
                );
                assert!(diagnostics.contains("iq_window_ready="));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn audit_is_clean_after_a_run_and_catches_corruption() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(20_000);
        assert_eq!(m.run_audit(), Vec::<String>::new());
        // Break inclusion: drop an L1I-resident line from the L2.
        let resident = m
            .hierarchy
            .l1i
            .iter_valid()
            .next()
            .expect("l1i holds lines after 20k instructions")
            .tag;
        m.hierarchy.l2.invalidate(resident);
        let violations = m.run_audit();
        assert!(
            violations.iter().any(|v| v.contains("inclusion")),
            "expected an inclusion violation, got {violations:?}"
        );
    }

    #[test]
    fn audit_catches_scheduler_corruption() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(20_000);
        // Wait for a timer and an entry waiting on an unissued producer.
        let waiter = |m: &Machine<'_>| m.rob.iter().position(|e| e.ready_at == PENDING);
        while m.timers.is_empty() || waiter(&m).is_none() {
            m.step();
        }
        assert_eq!(m.run_audit(), Vec::<String>::new());
        let expect = |m: &mut Machine<'_>, what: &str| {
            let violations = m.run_audit();
            assert!(
                violations.iter().any(|v| v.contains(what)),
                "expected a {what:?} violation, got {violations:?}"
            );
        };
        // A timer that is lost leaves its entry nowhere.
        let timer = m.timers.pop().expect("a timer is pending");
        let Reverse((at, seq)) = timer;
        expect(&mut m, "in 0 places");
        m.timers.push(timer);

        // An entry dropped from its producer's waiter list.
        let w = m.rob[waiter(&m).expect("an entry waits")];
        let producer = [w.dep1, w.dep2]
            .into_iter()
            .find(|&d| d != 0 && m.comp_time[ring_slot(d)] == PENDING)
            .expect("a waiting entry has an unissued producer");
        let head = std::mem::replace(&mut m.waiter_head[ring_slot(producer)], NO_EDGE);
        expect(&mut m, "waiter lists");
        m.waiter_head[ring_slot(producer)] = head;

        // The ready list out of order.
        m.ready.push_back(seq);
        m.ready.push_back(seq);
        expect(&mut m, "not ascending");
        m.ready.truncate(m.ready.len() - 2);

        // A known ready_at that disagrees with the producers.
        let idx = (seq - m.rob[0].seq) as usize;
        m.rob[idx].ready_at = at + 1;
        expect(&mut m, "but its producers complete at");
        m.rob[idx].ready_at = at;

        m.iq_count += 1;
        expect(&mut m, "popcount");
        m.iq_count -= 1;
        assert_eq!(m.run_audit(), Vec::<String>::new());
    }

    /// The rule the wakeup scheduler replaced, applied to the scheduler
    /// window as it stood before a step: oldest first, up to `issue_width`
    /// entries whose producers complete by `now`. Completion times are
    /// read after the step; up to the first divergence that is exactly
    /// what the old scan saw, because a producer issued this cycle sits
    /// ahead of all its consumers.
    fn oldest_first_scan(m: &Machine<'_>, window: &[RobEntry], now: u64) -> Vec<u64> {
        let done = |dep: u64| dep == 0 || m.comp_time[ring_slot(dep)] <= now;
        window
            .iter()
            .filter(|e| done(e.dep1) && done(e.dep2))
            .map(|e| e.seq)
            .take(m.cfg.core.issue_width as usize)
            .collect()
    }

    /// One core shape: label, benchmark, and the edit from the default core.
    type Shape = (&'static str, &'static str, fn(&mut CoreConfig));

    #[test]
    fn wakeup_scheduler_issues_exactly_what_the_oldest_first_scan_issues() {
        // The default core, the golden reports' three non-default shapes,
        // one where the window binds before the width and one where the
        // width binds every cycle.
        let shapes: [Shape; 6] = [
            ("default", "tomcat", |_| {}),
            ("issue_width 2, window 240", "tomcat", |c| {
                c.issue_width = 2;
                c.scheduler_window = 240;
            }),
            ("window 8, alu_latency 3", "kafka", |c| {
                c.scheduler_window = 8;
                c.alu_latency = 3;
            }),
            ("alu_latency 0", "xapian", |c| c.alu_latency = 0),
            ("window 2, issue_width 8", "verilator", |c| {
                c.scheduler_window = 2;
                c.issue_width = 8;
            }),
            ("issue_width 1", "web-search", |c| c.issue_width = 1),
        ];
        for (shape, bench, reshape) in shapes {
            let profile = Profile::by_name(bench).expect("profile");
            let program = profile.shared_program();
            let mut cfg = quick_cfg();
            reshape(&mut cfg.core);
            let window = cfg.core.scheduler_window;
            let mut m = Machine::new(Walker::new(&program, profile.seed), &cfg);
            let mut idle = 0u64;
            for _ in 0..50_000 {
                let now = m.now();
                let due = !m.ready.is_empty()
                    || m.timers.peek().is_some_and(|&Reverse((at, _))| at <= now);
                let unissued: Vec<RobEntry> = m.rob.iter().filter(|e| !e.issued).copied().collect();
                m.step();
                // Commit runs before issue, so every entry unissued before
                // the step is still in the ROB. Look beyond the window too:
                // an entry issued from outside it is a divergence.
                let front_seq = m.rob.front().map_or(m.next_seq, |e| e.seq);
                let issued: Vec<u64> = unissued
                    .iter()
                    .map(|e| e.seq)
                    .filter(|&seq| m.rob[(seq - front_seq) as usize].issued)
                    .collect();
                let before = &unissued[..unissued.len().min(window)];
                let expected = oldest_first_scan(&m, before, now);
                assert_eq!(
                    issued, expected,
                    "{bench} ({shape}): first divergence at cycle {now}"
                );
                assert!(
                    due || expected.is_empty(),
                    "{bench} ({shape}): nothing was due at cycle {now}, yet {expected:?} were ready"
                );
                let violations = m.scheduler_violations();
                assert!(
                    violations.is_empty(),
                    "{bench} ({shape}) after cycle {now}: {violations:?}"
                );
                idle += u64::from(!due && !unissued.is_empty());
            }
            assert!(idle > 0, "{bench} ({shape}): the due set was never empty");
            assert!(m.stats.issued > 0, "{bench} ({shape}): nothing issued");
        }
    }

    #[test]
    fn stall_attribution_covers_zero_commit_cycles() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(20_000);
        // FE + BE stalls can't exceed total cycles.
        assert!(m.stats.fe_stall_cycles + m.stats.be_stall_cycles <= m.stats.cycles);
        // An 8-wide machine at IPC < 8 must have some stall cycles.
        assert!(m.stats.fe_stall_cycles + m.stats.be_stall_cycles > 0);
    }
}

#[cfg(test)]
mod scenario_tests {
    use super::*;
    use crate::config::SimConfig;
    use emissary_workloads::builder::{build_program, ProgramShape};

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_instrs: 0,
            measure_instrs: 10_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn wrong_path_fetch_touches_extra_lines() {
        // With wrong-path fetch disabled, strictly fewer instruction-side
        // accesses reach the hierarchy.
        let shape = ProgramShape {
            hard_branch_frac: 0.3,
            ..ProgramShape::tiny()
        };
        let program = build_program(&shape);
        let run = |wp: bool| {
            let walker = Walker::new(&program, 3);
            let mut cfg = quick_cfg();
            cfg.wrong_path_fetch = wp;
            let mut m = Machine::new(walker, &cfg);
            m.run_instrs(30_000);
            m.hierarchy.l1i.stats().total_accesses()
        };
        let with_wp = run(true);
        let without_wp = run(false);
        assert!(
            with_wp > without_wp,
            "wrong-path fetch must add L1I traffic: {with_wp} vs {without_wp}"
        );
    }

    #[test]
    fn mispredicts_are_counted_and_resteers_resolve() {
        let shape = ProgramShape {
            hard_branch_frac: 0.3,
            ..ProgramShape::tiny()
        };
        let program = build_program(&shape);
        let walker = Walker::new(&program, 3);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(30_000);
        assert!(
            m.stats.branch_mispredicts > 0,
            "hard branches must mispredict"
        );
        // The machine kept committing, so every re-steer resolved.
        assert!(m.total_committed() >= 30_000);
    }

    #[test]
    fn priority_marks_happen_only_with_selection() {
        let shape = ProgramShape {
            code_kb: 1024,
            num_services: 32,
            service_rotation: 1.0,
            ..ProgramShape::tiny()
        };
        let program = build_program(&shape);
        let run = |policy: &str| {
            let walker = Walker::new(&program, 3);
            let cfg = quick_cfg().with_policy(policy.parse().unwrap());
            let mut m = Machine::new(walker, &cfg);
            m.run_instrs(60_000);
            m.stats.priority_marks
        };
        assert_eq!(run("M:1"), 0, "baseline must not mark");
        assert_eq!(run("DRRIP"), 0, "named policies must not mark");
        assert!(run("P(8):S") > 0, "P(8):S must mark starving lines");
        let se = run("P(8):S&E");
        let se_r = run("P(8):S&E&R(1/8)");
        assert!(
            se_r < se,
            "the random filter must reduce the mark rate: {se_r} vs {se}"
        );
    }

    #[test]
    fn decode_never_outpaces_fetchable_instructions() {
        let program = build_program(&ProgramShape::tiny());
        let walker = Walker::new(&program, 1);
        let mut m = Machine::new(walker, &quick_cfg());
        m.run_instrs(20_000);
        // Decoded counts only true-path instructions, so decoded can never
        // exceed what prediction enqueued; committed <= decoded.
        assert!(m.stats.committed <= m.stats.decoded);
        assert!(m.stats.issued <= m.stats.decoded);
    }

    #[test]
    fn ftq_bound_limits_runahead() {
        // Shrinking the FTQ must not break anything and should not speed
        // the machine up.
        let program = build_program(&ProgramShape::tiny());
        let run = |entries: usize, instrs: u32| {
            let walker = Walker::new(&program, 1);
            let mut cfg = quick_cfg();
            cfg.core.ftq_entries = entries;
            cfg.core.ftq_instrs = instrs;
            let mut m = Machine::new(walker, &cfg);
            m.run_instrs(30_000);
            m.now()
        };
        let small = run(2, 16);
        let normal = run(24, 192);
        assert!(
            small >= normal,
            "a 2-entry FTQ should not beat the 24-entry FTQ: {small} vs {normal}"
        );
    }
}
