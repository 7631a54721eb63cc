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
//! ## The instruction window
//!
//! Each true-path instruction lives in one `Slot` of the `Window`, a
//! ring indexed by sequence number, from the cycle the walker emits it to
//! its commit. Seqs are handed out at emission, and they are the numbers
//! decode would give: only true-path instructions enter, in order. Five
//! cursors cut the ring into the pipeline's queues, oldest first:
//!
//! * ROB: `[commit_head, decode_head)`;
//! * decode queue: `[decode_head, fetch_head)`;
//! * FTQ: `[fetch_head, ftq_tail)`, with its block lengths in
//!   `ftq_blocks` (§5.2: at most 24 blocks and 192 instructions);
//! * the staged block, predicted and waiting for FTQ room:
//!   `[ftq_tail, emitted)`.
//!
//! An instruction moves from one queue to the next when a cursor passes
//! it, and each stage fills its fields in place: fetch the line's arrival,
//! decode the operands' ready cycle. An entry has issued once its
//! completion time (in the completion ring) is no longer `PENDING`, and
//! is complete once that cycle has passed.
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
use std::ops::{Index, IndexMut};

use emissary_cache::addr::line_of;
use emissary_cache::hierarchy::{Hierarchy, ServedBy};
use emissary_cache::linemap::LineMap;
use emissary_cache::rng::XorShift64;
use emissary_core::reset::ResetSchedule;
use emissary_core::selection::{MissFlags, SelectionExpr};
use emissary_frontend::{BlockDesc, BranchClass, FetchEngine, PrefetchQueue};
use emissary_obs::{SampleCounters, TraceEvent, Tracer};
use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
use emissary_workloads::program::TermClass;
use emissary_workloads::walker::{DynInstr, DynOp, Walker};

use crate::config::{CoreConfig, SimConfig};
use crate::fault::{FaultConfig, SimAbort};
use crate::report::ReuseAttribution;

/// Completion-time ring size; must exceed ROB size + max dep distance
/// (`SimConfig::validate` rejects ROBs that would alias live slots).
pub(crate) const COMP_RING: usize = 4096;
/// Largest producer distance a [`DynInstr`] dependence can encode.
pub(crate) const MAX_DEP_DISTANCE: usize = u8::MAX as usize;
/// Sentinel for "not yet completed" / "not yet known".
const PENDING: u64 = u64::MAX;

/// One true-path instruction from emission to commit (see the module
/// docs). Fetch fills the line fields and decode the scheduler fields; the
/// completion time lives in the completion ring.
#[derive(Debug, Clone, Copy)]
struct Slot {
    instr: DynInstr,
    /// Terminator of a mispredicted block: triggers the re-steer.
    mispredict: bool,
    /// Cycle the instruction's line arrives.
    line_ready: u64,
    /// Reuse bucket of the line at demand-fetch time (Figure 2); cold
    /// first touches classify as long reuse.
    bucket: ReuseBucket,
    /// Level that served (or is serving) the line.
    source: ServedBy,
    /// First cycle both operands are available, or [`PENDING`] while a
    /// producer has not issued. A producer's completion time is fixed when
    /// it issues, so once known this never changes.
    ready_at: u64,
}

impl Slot {
    /// A just-emitted instruction, not yet fetched or decoded.
    fn emitted(instr: DynInstr, mispredict: bool) -> Self {
        Self {
            instr,
            mispredict,
            line_ready: PENDING,
            bucket: ReuseBucket::Long,
            source: ServedBy::L1,
            ready_at: PENDING,
        }
    }
}

/// The instruction window: a ring of [`Slot`]s indexed by seq, a power of
/// two no smaller than the most instructions in flight.
#[derive(Debug)]
struct Window(Vec<Slot>);

impl Window {
    /// A ring for `core` running a program whose longest block has
    /// `longest_block` instructions. In flight at once are at most a full
    /// ROB, a decode queue that fetch overfilled by one block, a full FTQ
    /// and a staged block.
    fn new(core: &CoreConfig, longest_block: usize) -> Self {
        let ftq = (core.ftq_instrs as usize).min(core.ftq_entries.saturating_mul(longest_block));
        let capacity = core.rob_entries + core.decode_queue + ftq + 2 * longest_block;
        let blank = DynInstr {
            pc: 0,
            op: DynOp::Alu,
            dep1: 0,
            dep2: 0,
            is_terminator: false,
        };
        Window(vec![
            Slot::emitted(blank, false);
            capacity.next_power_of_two()
        ])
    }

    fn capacity(&self) -> u64 {
        self.0.len() as u64
    }
}

impl Index<u64> for Window {
    type Output = Slot;

    fn index(&self, seq: u64) -> &Slot {
        &self.0[seq as usize & (self.0.len() - 1)]
    }
}

impl IndexMut<u64> for Window {
    fn index_mut(&mut self, seq: u64) -> &mut Slot {
        let mask = self.0.len() - 1;
        &mut self.0[seq as usize & mask]
    }
}

/// The seqs of instruction `seq`'s two producers, `instr`'s dependence
/// distances back from it (0 = none, also for a distance reaching past
/// the first instruction).
fn producers(seq: u64, instr: &DynInstr) -> [u64; 2] {
    [instr.dep1, instr.dep2].map(|d| {
        if d == 0 || u64::from(d) >= seq {
            0
        } else {
            seq - u64::from(d)
        }
    })
}

/// The cycle both producers' results are available, or [`PENDING`] while
/// either has not issued (`PENDING` is `u64::MAX`, so it wins the `max`).
fn operands_ready_at(comp_time: &[u64], [dep1, dep2]: [u64; 2]) -> u64 {
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
    pfq: PrefetchQueue,
    /// Every true-path instruction from emission to commit.
    window: Window,
    /// The window's cursors, oldest first (see the module docs): each is
    /// the seq one past the stage before it.
    commit_head: u64,
    decode_head: u64,
    fetch_head: u64,
    ftq_tail: u64,
    emitted: u64,
    /// Lengths of the FTQ's blocks, oldest first.
    ftq_blocks: VecDeque<u32>,
    /// The walker's output buffer, reused for every block.
    emit_buf: Vec<DynInstr>,
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
    now: u64,
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
        let longest_block = walker.program().blocks.iter().map(|b| b.len);
        let window = Window::new(&cfg.core, longest_block.max().unwrap_or(0) as usize);
        Self {
            hierarchy,
            engine,
            walker,
            pfq: PrefetchQueue::new(64),
            window,
            // Seq 0 means "no producer", so numbering starts at 1.
            commit_head: 1,
            decode_head: 1,
            fetch_head: 1,
            ftq_tail: 1,
            emitted: 1,
            ftq_blocks: VecDeque::new(),
            emit_buf: Vec::new(),
            iq_count: 0,
            unissued: vec![0; COMP_RING / 64],
            waiter_head: vec![NO_EDGE; COMP_RING],
            waiter_next: vec![NO_EDGE; 2 * COMP_RING],
            ready: VecDeque::with_capacity(cfg.core.iq_entries),
            timers: BinaryHeap::with_capacity(cfg.core.iq_entries),
            lq_count: 0,
            sq_count: 0,
            comp_time: vec![0; COMP_RING],
            now: 0,
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
    /// is enabled, then checks the instruction window's and the issue
    /// scheduler's invariants, and returns the rendered violations (empty =
    /// clean). Window and scheduler findings name no cache level, so they
    /// appear only in the returned list. Read-only with respect to
    /// simulated state.
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
        let window = self.window_violations();
        // The scheduler's checks walk the ROB range, which a broken cursor
        // makes meaningless.
        if window.is_empty() {
            found.extend(self.scheduler_violations());
        }
        found.extend(window);
        found
    }

    /// Whether ROB entry `seq` has issued: its completion time is known.
    fn issued(&self, seq: u64) -> bool {
        self.comp_time[ring_slot(seq)] != PENDING
    }

    /// The window's invariants: the cursors are ordered and span no more
    /// than the ring, and the FTQ's block lengths sum to its range within
    /// its entry bound.
    fn window_violations(&self) -> Vec<String> {
        let mut found = Vec::new();
        let cursors = [
            self.commit_head,
            self.decode_head,
            self.fetch_head,
            self.ftq_tail,
            self.emitted,
        ];
        if !cursors.is_sorted() || self.emitted - self.commit_head > self.window.capacity() {
            found.push(format!(
                "window: cursors (commit, decode, fetch, ftq tail, emitted) {cursors:?} \
                 are out of order or span more than the {}-slot ring",
                self.window.capacity()
            ));
        }
        let queued: u64 = self.ftq_blocks.iter().map(|&len| u64::from(len)).sum();
        if Some(queued) != self.ftq_tail.checked_sub(self.fetch_head)
            || self.ftq_blocks.len() > self.cfg.core.ftq_entries
        {
            found.push(format!(
                "window: {} ftq blocks hold {queued} instructions but the ftq range is [{}, {})",
                self.ftq_blocks.len(),
                self.fetch_head,
                self.ftq_tail
            ));
        }
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
        let rob = self.commit_head..self.decode_head;
        let index = |seq: u64| {
            (rob.contains(&seq) && !self.issued(seq)).then(|| (seq - self.commit_head) as usize)
        };
        // Per ROB index: places on the ready list or timer heap, and
        // producer lists it sits on.
        let mut queued = vec![0usize; (self.decode_head - self.commit_head) as usize];
        let mut linked = queued.clone();
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
                    if self.window[seq].ready_at != at {
                        found.push(format!(
                            "scheduler: timer ({at}, {seq}) but the entry's ready_at is {}",
                            self.window[seq].ready_at
                        ));
                    }
                }
                None => found.push(format!(
                    "scheduler: timer seq {seq} is not an unissued rob entry"
                )),
            }
        }
        for producer in rob.clone().filter(|&seq| !self.issued(seq)) {
            let mut edge = self.waiter_head[ring_slot(producer)];
            // A corrupted list may cycle; no list is longer than the ROB.
            for _ in 0..queued.len() {
                if edge == NO_EDGE {
                    break;
                }
                let slot = edge as usize / 2;
                let seq =
                    producer + (slot.wrapping_sub(ring_slot(producer)) & (COMP_RING - 1)) as u64;
                match index(seq) {
                    Some(idx) if producers(seq, &self.window[seq].instr).contains(&producer) => {
                        linked[idx] += 1;
                    }
                    _ => found.push(format!(
                        "scheduler: seq {producer} has a waiter {seq} that does not wait on it"
                    )),
                }
                edge = self.waiter_next[edge as usize];
            }
        }
        let mut unissued = 0;
        for (idx, seq) in rob.enumerate() {
            let issued = self.issued(seq);
            let bit = count_set(&self.unissued, seq, seq + 1) == 1;
            if bit == issued {
                found.push(format!(
                    "scheduler: seq {seq} unissued bit is {bit} but issued is {issued}"
                ));
            }
            if issued {
                continue;
            }
            unissued += 1;
            let e = &self.window[seq];
            let deps = producers(seq, &e.instr);
            let waiting_on = deps
                .iter()
                .enumerate()
                .filter(|&(k, &dep)| {
                    dep != 0
                        && !(k == 1 && dep == deps[0])
                        && self.comp_time[ring_slot(dep)] == PENDING
                })
                .count();
            let places = queued[idx] + usize::from(linked[idx] > 0);
            if places != 1 || linked[idx] != waiting_on {
                found.push(format!(
                    "scheduler: seq {seq} is in {places} places (ready list and timer heap: {}, \
                     waiter lists: {} of its {waiting_on} unissued producers)",
                    queued[idx], linked[idx]
                ));
            }
            let ready_at = operands_ready_at(&self.comp_time, deps);
            if e.ready_at != PENDING && e.ready_at != ready_at {
                found.push(format!(
                    "scheduler: seq {seq} ready_at {} but its producers complete at {ready_at}",
                    e.ready_at
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
        let end = self.commit_head + u64::from(self.cfg.core.commit_width);
        let start = self.commit_head;
        // An unissued entry's completion time is PENDING, which no cycle
        // reaches.
        while self.commit_head < end.min(self.decode_head)
            && self.comp_time[ring_slot(self.commit_head)] <= self.now
        {
            match self.window[self.commit_head].instr.op {
                DynOp::Load(_) => self.lq_count -= 1,
                DynOp::Store(_) => self.sq_count -= 1,
                DynOp::Alu => {}
            }
            self.commit_head += 1;
        }
        let committed = self.commit_head - start;
        self.stats.committed += committed;
        self.total_committed += committed;
        if committed == 0 {
            if self.commit_head == self.decode_head {
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
        let scheduler_window = self.cfg.core.scheduler_window;
        let alu_latency = self.cfg.core.alu_latency;
        let resteer_penalty = self.cfg.core.resteer_penalty;
        let front_seq = self.commit_head;
        let mut issued = 0usize;
        while issued < width {
            let Some(&seq) = self.ready.front() else {
                break;
            };
            // An entry's rank is the number of unissued entries older than
            // it. The scheduler window is the oldest `scheduler_window`
            // entries as the cycle began: the entries issued so far this
            // cycle are all older than `seq`, so they count towards its
            // rank. An entry fewer than `scheduler_window` places behind the
            // ROB head has fewer older entries than that, so its rank needs
            // no popcount.
            if (seq - front_seq) as usize >= scheduler_window
                && count_set(&self.unissued, front_seq, seq) + issued >= scheduler_window
            {
                break;
            }
            self.ready.pop_front();
            let Machine {
                window,
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
            let e = &window[seq];
            let completed_at = match e.instr.op {
                DynOp::Alu => now + alu_latency,
                DynOp::Load(addr) => {
                    hierarchy
                        .access_data(line_of(addr), now, false, false)
                        .ready_at
                }
                DynOp::Store(addr) => {
                    // Write-allocate now; retire through the store buffer.
                    hierarchy.access_data(line_of(addr), now, true, false);
                    now + 1
                }
            };
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
                let c = &mut window[consumer];
                let at = operands_ready_at(comp_time, producers(consumer, &c.instr));
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
        let rob_len = |m: &Self| (m.decode_head - m.commit_head) as usize;
        let backend_can_accept = rob_len(self) < rob_cap && self.iq_count < iq_cap;
        let mut decoded = 0;
        while decoded < width && self.decode_head < self.fetch_head {
            let seq = self.decode_head;
            let Slot {
                instr, line_ready, ..
            } = self.window[seq];
            if line_ready > self.now {
                break;
            }
            if rob_len(self) >= rob_cap || self.iq_count >= iq_cap {
                break;
            }
            match instr.op {
                DynOp::Load(_) if self.lq_count >= lq_cap => break,
                DynOp::Store(_) if self.sq_count >= sq_cap => break,
                DynOp::Load(_) => self.lq_count += 1,
                DynOp::Store(_) => self.sq_count += 1,
                DynOp::Alu => {}
            }
            let deps = producers(seq, &instr);
            let slot = ring_slot(seq);
            self.comp_time[slot] = PENDING;
            self.unissued[slot / 64] |= 1u64 << (slot % 64);
            self.iq_count += 1;
            // The slot's last occupant issued long ago, emptying its list.
            debug_assert_eq!(self.waiter_head[slot], NO_EDGE);
            // Link onto the waiter list of each distinct unissued producer.
            for (k, producer) in deps.into_iter().enumerate() {
                if producer == 0 || (k == 1 && producer == deps[0]) {
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
            let ready_at = operands_ready_at(&self.comp_time, deps);
            if ready_at <= self.now {
                // The youngest entry: appending keeps the list ascending.
                self.ready.push_back(seq);
            } else if ready_at != PENDING {
                self.timers.push(Reverse((ready_at, seq)));
            }
            self.window[seq].ready_at = ready_at;
            self.decode_head += 1;
            decoded += 1;
            self.stats.decoded += 1;
        }
        // Starvation: decode made zero progress, the back-end had room, and
        // the head instruction exists but its line is still in flight.
        let mut starved_on: Option<(u64, ServedBy)> = None;
        let head = self.window[self.decode_head];
        if decoded == 0
            && backend_can_accept
            && self.decode_head < self.fetch_head
            && head.line_ready > self.now
        {
            let line = line_of(head.instr.pc);
            starved_on = Some((line, head.source));
            let empty_iq = self.iq_count == 0;
            self.stats.starvation_cycles += 1;
            if empty_iq {
                self.stats.starvation_empty_iq_cycles += 1;
            }
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
            // Figure 2: attribute the starvation cycle to the blamed line's
            // reuse bucket as observed when the line was fetched (the fetch
            // itself already refreshed the tracker, so the current distance
            // would read ~0).
            match head.bucket {
                ReuseBucket::Short => self.stats.reuse_attr.starve_short += 1,
                ReuseBucket::Mid => self.stats.reuse_attr.starve_mid += 1,
                ReuseBucket::Long => self.stats.reuse_attr.starve_long += 1,
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

    /// Moves the FTQ's oldest block into the decode queue, one block a
    /// cycle while the decode queue has room. A block's instructions sit
    /// at consecutive addresses, so its lines form one ascending range:
    /// each line is demand-accessed once, in order, and stamps its run of
    /// slots with its arrival.
    fn fetch(&mut self) {
        if (self.fetch_head - self.decode_head) as usize >= self.cfg.core.decode_queue {
            return;
        }
        let Some(len) = self.ftq_blocks.pop_front() else {
            return;
        };
        let end = self.fetch_head + u64::from(len);
        while self.fetch_head < end {
            let line = line_of(self.window[self.fetch_head].instr.pc);
            let m = self.hierarchy.access_instr(line, self.now, false);
            if m.needs_resolution {
                self.pending_resolutions.push(Reverse((m.ready_at, line)));
            }
            let bucket = self.record_fetch_line(line, m.source);
            while self.fetch_head < end && line_of(self.window[self.fetch_head].instr.pc) == line {
                let entry = &mut self.window[self.fetch_head];
                (entry.line_ready, entry.bucket, entry.source) = (m.ready_at, bucket, m.source);
                self.fetch_head += 1;
            }
        }
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
        if self.ftq_tail == self.emitted {
            self.emit_buf.clear();
            let block = self.walker.emit_block(&mut self.emit_buf);
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
                // Wrong-path steering starts where the predictor went.
                self.wp_pc = pred.predicted_next;
            }
            // Stage the block: its instructions take the next seqs.
            let last = self.emit_buf.len() - 1;
            for (i, &instr) in self.emit_buf.iter().enumerate() {
                self.window[self.emitted] = Slot::emitted(instr, pred.mispredicted && i == last);
                self.emitted += 1;
            }
            if pred.btb_miss {
                return; // stall before enqueuing
            }
        }
        // Enqueue the staged block once the FTQ has room for it.
        let len = (self.emitted - self.ftq_tail) as u32;
        if self.ftq_blocks.len() >= self.cfg.core.ftq_entries
            || (self.ftq_tail - self.fetch_head) as u32 + len > self.cfg.core.ftq_instrs
        {
            return;
        }
        self.pfq
            .enqueue_block(self.window[self.ftq_tail].instr.pc, len);
        self.ftq_blocks.push_back(len);
        self.ftq_tail = self.emitted;
        if self.window[self.emitted - 1].mispredict {
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
            self.decode_head - self.commit_head,
            self.iq_count,
            // The earliest timer: when the next waiting entry becomes due.
            self.timers.peek().map(|&Reverse((at, _))| at),
            (self.commit_head..self.decode_head)
                .filter(|&seq| !self.issued(seq))
                .take(self.cfg.core.scheduler_window)
                .filter(|&seq| self.window[seq].ready_at <= self.now)
                .count(),
            self.fetch_head - self.decode_head,
            (self.decode_head < self.fetch_head).then(|| self.window[self.decode_head].line_ready),
            self.ftq_blocks.len(),
            self.ftq_tail - self.fetch_head,
            self.emitted > self.ftq_tail,
            self.wp_active,
            self.wp_pc,
            self.resteer_done_at,
            self.btb_stall_until,
            self.lq_count,
            self.sq_count,
            (self.commit_head < self.decode_head).then(|| {
                let completed_at = self.comp_time[ring_slot(self.commit_head)];
                (self.commit_head, completed_at != PENDING, completed_at)
            }),
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
        let waiter = |m: &Machine<'_>| {
            (m.commit_head..m.decode_head).find(|&seq| m.window[seq].ready_at == PENDING)
        };
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
        let w = waiter(&m).expect("an entry waits");
        let producer = producers(w, &m.window[w].instr)
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
        m.window[seq].ready_at = at + 1;
        expect(&mut m, "but its producers complete at");
        m.window[seq].ready_at = at;

        m.iq_count += 1;
        expect(&mut m, "popcount");
        m.iq_count -= 1;

        // A cursor out of order: decode ahead of fetch.
        let decode_head = std::mem::replace(&mut m.decode_head, m.fetch_head + 1);
        expect(&mut m, "out of order");
        m.decode_head = decode_head;
        assert_eq!(m.run_audit(), Vec::<String>::new());
    }

    #[test]
    fn audit_catches_window_corruption() {
        let program = build_program(&ProgramShape::tiny());
        let mut m = Machine::new(Walker::new(&program, 1), &quick_cfg());
        m.run_instrs(20_000);
        // Wait for every queue of the window to hold something.
        while m.ftq_blocks.len() < 2 || m.emitted == m.ftq_tail || m.decode_head == m.fetch_head {
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
        let set = |m: &mut Machine<'_>, [c, d, f, t, e]: [u64; 5]| {
            (
                m.commit_head,
                m.decode_head,
                m.fetch_head,
                m.ftq_tail,
                m.emitted,
            ) = (c, d, f, t, e);
        };
        let cursors = [
            m.commit_head,
            m.decode_head,
            m.fetch_head,
            m.ftq_tail,
            m.emitted,
        ];
        // Each cursor moved past the next one.
        for i in 0..4 {
            let mut broken = cursors;
            broken[i] = cursors[i + 1] + 1;
            set(&mut m, broken);
            expect(&mut m, "out of order");
        }
        // More in flight than the ring holds.
        let mut broken = cursors;
        broken[4] = cursors[0] + m.window.capacity() + 1;
        set(&mut m, broken);
        expect(&mut m, "span more than");
        set(&mut m, cursors);

        // A block length lost, and one too many blocks.
        let len = m.ftq_blocks.pop_back().expect("the ftq holds blocks");
        expect(&mut m, "ftq blocks hold");
        m.ftq_blocks.push_back(len);
        let blocks = m.ftq_blocks.clone();
        m.ftq_blocks
            .extend(std::iter::repeat_n(0, m.cfg.core.ftq_entries));
        expect(&mut m, "ftq blocks hold");
        m.ftq_blocks = blocks;
        assert_eq!(m.run_audit(), Vec::<String>::new());
    }

    /// The rule the wakeup scheduler replaced, applied to the scheduler
    /// window as it stood before a step: oldest first, up to `issue_width`
    /// entries whose producers complete by `now`. Completion times are
    /// read after the step; up to the first divergence that is exactly
    /// what the old scan saw, because a producer issued this cycle sits
    /// ahead of all its consumers.
    fn oldest_first_scan(m: &Machine<'_>, window: &[(u64, Slot)], now: u64) -> Vec<u64> {
        let done = |dep: u64| dep == 0 || m.comp_time[ring_slot(dep)] <= now;
        window
            .iter()
            .filter(|(seq, e)| producers(*seq, &e.instr).into_iter().all(done))
            .map(|&(seq, _)| seq)
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
                let unissued: Vec<(u64, Slot)> = (m.commit_head..m.decode_head)
                    .filter(|&seq| !m.issued(seq))
                    .map(|seq| (seq, m.window[seq]))
                    .collect();
                m.step();
                // Commit runs before issue, so every entry unissued before
                // the step is still in the ROB. Look beyond the window too:
                // an entry issued from outside it is a divergence.
                let issued: Vec<u64> = unissued
                    .iter()
                    .map(|&(seq, _)| seq)
                    .filter(|&seq| m.issued(seq))
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
                let mut violations = m.window_violations();
                violations.extend(m.scheduler_violations());
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

    /// Steps a tiny-program machine with `ftq_entries` and `ftq_instrs`
    /// for 20k cycles, checking both FTQ bounds every cycle, and returns
    /// how many cycles the staged block waited on each: `(entries,
    /// instructions)`.
    fn ftq_waits(entries: usize, instrs: u32) -> (u64, u64) {
        let program = build_program(&ProgramShape::tiny());
        let mut cfg = quick_cfg();
        cfg.core.ftq_entries = entries;
        cfg.core.ftq_instrs = instrs;
        let mut m = Machine::new(Walker::new(&program, 1), &cfg);
        let mut waits = (0, 0);
        for _ in 0..20_000 {
            m.step();
            let held = m.ftq_tail - m.fetch_head;
            assert!(m.ftq_blocks.len() <= entries && held <= u64::from(instrs));
            // A block still staged after a cycle whose enqueue ran (no
            // wrong path, no BTB stall) was refused by a bound.
            if m.emitted > m.ftq_tail && m.now() > m.btb_stall_until && !m.wp_active {
                if m.ftq_blocks.len() == entries {
                    waits.0 += 1;
                } else {
                    assert!(held + (m.emitted - m.ftq_tail) > u64::from(instrs));
                    waits.1 += 1;
                }
            }
        }
        assert_eq!(m.window_violations(), Vec::<String>::new());
        waits
    }

    #[test]
    fn ftq_entry_bound_holds_back_the_staged_block() {
        let (entries, instrs) = ftq_waits(2, 192);
        assert!(entries > 0, "two entries never filled");
        assert_eq!(instrs, 0, "two tiny-program blocks cannot fill 192 slots");
    }

    #[test]
    fn ftq_instruction_bound_holds_back_the_staged_block() {
        let (entries, instrs) = ftq_waits(24, 16);
        assert_eq!(entries, 0, "24 blocks cannot fit in 16 instructions");
        assert!(instrs > 0, "16 instructions never filled");
    }

    #[test]
    fn fetch_moves_the_oldest_block_each_cycle_and_stamps_its_lines() {
        let program = build_program(&ProgramShape::tiny());
        let mut m = Machine::new(Walker::new(&program, 1), &quick_cfg());
        let mut fetched = 0;
        for _ in 0..20_000 {
            let (head, oldest) = (m.fetch_head, m.ftq_blocks.front().copied());
            m.step();
            let moved = m.fetch_head - head;
            if moved > 0 {
                assert_eq!(Some(moved), oldest.map(u64::from));
                fetched += 1;
            }
            // Every instruction in the decode queue knows its line's
            // arrival.
            for seq in m.decode_head..m.fetch_head {
                assert_ne!(m.window[seq].line_ready, PENDING, "seq {seq} unfetched");
            }
        }
        assert!(fetched > 100, "only {fetched} blocks fetched");
    }

    #[test]
    fn window_holds_every_accepted_core_shape() {
        // The largest ROB the completion ring accepts, a one-instruction
        // decode queue, a one-block FTQ and an instruction budget no block
        // reaches: each runs with a clean window.
        let program = build_program(&ProgramShape::tiny());
        let shapes: [fn(&mut CoreConfig); 4] = [
            |c| c.rob_entries = COMP_RING - MAX_DEP_DISTANCE - 1,
            |c| c.decode_queue = 1,
            |c| c.ftq_entries = 1,
            |c| c.ftq_instrs = u32::MAX,
        ];
        for reshape in shapes {
            let mut cfg = quick_cfg();
            reshape(&mut cfg.core);
            assert_eq!(cfg.validate(), Ok(()));
            let mut m = Machine::new(Walker::new(&program, 1), &cfg);
            for _ in 0..5_000 {
                m.step();
                assert_eq!(
                    m.window_violations(),
                    Vec::<String>::new(),
                    "{:?}",
                    cfg.core
                );
            }
            assert!(m.total_committed() > 0, "{:?}", cfg.core);
            assert_eq!(m.run_audit(), Vec::<String>::new(), "{:?}", cfg.core);
        }
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
