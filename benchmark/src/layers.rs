//! The traced run's view inside a job, from outside the crates: a deep
//! pass that drives `sim::Machine` itself in 100k-instruction chunks,
//! probes that time the walker, the predictor and the cache hierarchy on
//! their own, and the layer metrics derived from those spans and from
//! the untraced pass's reports.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use emissary_bench::checkpoint::fingerprint;
use emissary_bench::Job;
use emissary_cache::addr::line_of;
use emissary_cache::hierarchy::{Hierarchy, ServedBy};
use emissary_cache::rng::XorShift64;
use emissary_core::selection::MissFlags;
use emissary_core::spec::PolicySpec;
use emissary_frontend::{BlockDesc, BranchClass, FetchEngine};
use emissary_obs::SampleCounters;
use emissary_sim::machine::Machine;
use emissary_sim::{SimConfig, SimReport, SimRun};
use emissary_stats::summary::mpki;
use emissary_workloads::walker::{DynOp, Walker};
use emissary_workloads::{Profile, Program, TermClass};

use crate::stats::percentile;
use crate::trace::{SpanId, Trace};
use crate::workload::PAIR;

/// Committed instructions per `sim.run_instrs` span.
const CHUNK: u64 = 100_000;

/// Host time of one deep pass next to the untraced host time of the same
/// jobs (their ratio gives `obs.trace_overhead_pct`), and how many of
/// them disagreed with their untraced counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deep {
    /// Jobs whose traced counters differ from the untraced report.
    pub failed: u64,
    /// Seconds the deep pass spent in `sim.job` spans.
    pub traced_s: f64,
    /// Untraced `host_seconds` of the same jobs.
    pub untraced_s: f64,
}

/// Runs each pair job by stepping its machine from outside, and checks
/// the window counters against the untraced run of the same job
/// (`untraced`, keyed by fingerprint).
pub fn deep_pass(pairs: &[Job], untraced: &BTreeMap<String, SimRun>, trace: &Trace) -> Deep {
    let root = trace.open("deep", None);
    let mut deep = Deep::default();
    for job in pairs {
        let program = job.profile.shared_program();
        let started = Instant::now();
        let span = trace.open("sim.job", Some(root));
        let new = trace.open("sim.new", Some(span));
        let walker = Walker::new(&program, job.profile.seed);
        let mut machine = Machine::new(walker, &job.config);
        trace.close(new, &[]);
        let warmup = trace.open("sim.warmup", Some(span));
        let (cycles, idle) = run_chunks(&mut machine, job.config.warmup_instrs, trace, warmup);
        trace.close(warmup, &[("cycles", cycles), ("no_commit_cycles", idle)]);
        machine.reset_window();
        let measure = trace.open("sim.measure", Some(span));
        let (cycles, idle) = run_chunks(&mut machine, job.config.measure_instrs, trace, measure);
        trace.close(measure, &[("cycles", cycles), ("no_commit_cycles", idle)]);
        trace.close(span, &[]);
        deep.traced_s += started.elapsed().as_secs_f64();
        match untraced.get(&fingerprint(job)) {
            Some(run) if counters_match(&machine.sample_counters(), &run.report) => {
                deep.untraced_s += run.host_seconds;
            }
            _ => deep.failed += 1,
        }
    }
    trace.close(root, &[]);
    deep
}

/// `Machine::run_instrs(n)` cut into `CHUNK`-instruction spans, stepping
/// cycle by cycle to count the cycles that commit nothing. Stopping at
/// intermediate boundaries does not change the simulation: the run still
/// ends on the first cycle that reaches the same target. Returns the
/// cycles run and how many of them committed nothing.
fn run_chunks(machine: &mut Machine<'_>, n: u64, trace: &Trace, parent: SpanId) -> (u64, u64) {
    let (base, start_cycle) = (machine.total_committed(), machine.now());
    let mut boundary = base;
    let mut total_idle = 0;
    while boundary < base + n {
        boundary = (boundary + CHUNK).min(base + n);
        let span = trace.open("sim.run_instrs", Some(parent));
        let (cycle0, committed0) = (machine.now(), machine.total_committed());
        let mut idle = 0;
        while machine.total_committed() < boundary {
            let before = machine.total_committed();
            machine.step();
            idle += u64::from(machine.total_committed() == before);
        }
        trace.close(
            span,
            &[
                ("cycles", machine.now() - cycle0),
                ("instrs", machine.total_committed() - committed0),
                ("no_commit_cycles", idle),
            ],
        );
        total_idle += idle;
    }
    (machine.now() - start_cycle, total_idle)
}

fn counters_match(c: &SampleCounters, r: &SimReport) -> bool {
    c.instructions == r.committed
        && c.cycles == r.cycles
        && c.starvation_cycles == r.starvation_cycles
        && mpki(c.l1i_misses, c.instructions) == r.l1i_mpki
        && mpki(c.l2i_misses, c.instructions) == r.l2i_mpki
}

/// One access of the committed-path replay.
#[derive(Clone, Copy)]
enum Access {
    Instr(u64),
    Load(u64),
    Store(u64),
}

/// The predictor's and the hierarchy's inputs for `instrs` committed
/// instructions of `program`, collected before any probe is timed.
struct ProbeInput {
    blocks: Vec<BlockDesc>,
    /// (access, cycle stamp) in `mpki_only`'s committed-path style.
    accesses: Vec<(Access, u64)>,
}

impl ProbeInput {
    fn collect(program: &Program, seed: u64, instrs: u64) -> Self {
        let mut walker = Walker::new(program, seed);
        let mut input = ProbeInput {
            blocks: Vec::new(),
            accesses: Vec::new(),
        };
        let (mut buf, mut walked, mut now) = (Vec::new(), 0u64, 0u64);
        while walked < instrs {
            buf.clear();
            let block = walker.emit_block(&mut buf);
            walked += u64::from(block.num_instrs);
            now += 2 + u64::from(block.num_instrs) / 4;
            // The same mapping `Machine::predict_enqueue` applies.
            input.blocks.push(BlockDesc {
                start: block.start,
                num_instrs: block.num_instrs,
                kind: branch_class(block.class),
                taken_target: block.taken_target,
                taken: block.taken,
            });
            let first = block.start >> 6;
            let last = (block.start + 4 * u64::from(block.num_instrs) - 1) >> 6;
            input
                .accesses
                .extend((first..=last).map(|line| (Access::Instr(line), now)));
            input.accesses.extend(buf.iter().filter_map(|i| match i.op {
                DynOp::Load(a) => Some((Access::Load(line_of(a)), now)),
                DynOp::Store(a) => Some((Access::Store(line_of(a)), now)),
                DynOp::Alu => None,
            }));
        }
        input
    }
}

fn branch_class(class: TermClass) -> BranchClass {
    match class {
        TermClass::CondDirect => BranchClass::CondDirect,
        TermClass::Jump => BranchClass::Jump,
        TermClass::Call => BranchClass::Call,
        TermClass::IndirectCall => BranchClass::IndirectCall,
        TermClass::Return => BranchClass::Return,
        TermClass::FallThrough => BranchClass::FallThrough,
    }
}

/// Times the walker, the predictor and a committed-path cache replay
/// under each pair policy, for `instrs` instructions of each profile.
pub fn probe(profiles: &[&Profile], template: &SimConfig, instrs: u64, trace: &Trace) {
    let root = trace.open("probe", None);
    for profile in profiles {
        let program = profile.shared_program();

        let span = trace.open("workloads.walk", Some(root));
        let mut walker = Walker::new(&program, profile.seed);
        let (mut buf, mut walked, mut blocks) = (Vec::new(), 0u64, 0u64);
        while walked < instrs {
            buf.clear();
            walked += u64::from(walker.emit_block(&mut buf).num_instrs);
            blocks += 1;
        }
        black_box(&buf);
        trace.close(span, &[("instrs", walked), ("blocks", blocks)]);

        let input = ProbeInput::collect(&program, profile.seed, instrs);

        let mut engine = FetchEngine::new(template.core.frontend.clone());
        let span = trace.open("frontend.predict", Some(root));
        let (mut btb_misses, mut mispredicts) = (0u64, 0u64);
        for block in &input.blocks {
            let p = engine.predict_block(block);
            btb_misses += u64::from(p.btb_miss);
            mispredicts += u64::from(p.mispredicted);
        }
        trace.close(
            span,
            &[
                ("blocks", input.blocks.len() as u64),
                ("btb_misses", btb_misses),
                ("mispredicts", mispredicts),
            ],
        );

        // The baseline replay is the cache substrate alone; the
        // EMISSARY replay adds the core crate's policy on top.
        for (name, policy) in [("cache.replay", PAIR[0]), ("core.replay", PAIR[1])] {
            let l2 = policy.build_l2_policy_with(
                template.recency,
                template.hierarchy.l2.sets(),
                template.hierarchy.l2.ways,
                template.seed ^ 0x9999,
            );
            let mut hierarchy = Hierarchy::new(template.hierarchy.clone(), template.l1_policy, l2);
            let span = trace.open(name, Some(root));
            let marks = replay(&mut hierarchy, &input.accesses, policy, template.seed);
            trace.close(
                span,
                &[("accesses", input.accesses.len() as u64), ("marks", marks)],
            );
            black_box(hierarchy.stats());
        }
    }
    trace.close(root, &[]);
}

/// Replays `accesses` through `h` as `mpki_only` does: without a core
/// there is no starvation signal, so every L2 instruction miss served
/// from L3 or memory counts as starving. Returns the priority marks.
fn replay(h: &mut Hierarchy, accesses: &[(Access, u64)], policy: PolicySpec, seed: u64) -> u64 {
    let selection = policy.selection();
    let mark = policy.is_emissary();
    let mut rng = XorShift64::new(seed ^ 0xF1F1);
    let mut marks = 0;
    for &(access, now) in accesses {
        match access {
            Access::Instr(line) => {
                let m = h.access_instr(line, now, false);
                if m.needs_resolution {
                    let far = matches!(m.source, ServedBy::L3 | ServedBy::Memory);
                    let flags = MissFlags {
                        starved_decode: far,
                        empty_issue_queue: far,
                    };
                    let high = selection.is_some_and(|s| s.evaluate(flags, &mut rng));
                    h.resolve_instr_fill(line, high);
                    if mark && high {
                        h.mark_instr_priority(line);
                        marks += 1;
                    }
                }
            }
            Access::Load(line) => {
                h.access_data(line, now, false, false);
            }
            Access::Store(line) => {
                h.access_data(line, now, true, false);
            }
        }
    }
    marks
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total nanoseconds of the spans named `name`, and the sum of their
/// `key` counts (their number when `key` is empty).
fn span_sums(trace: &Trace, name: &str, key: &str) -> (f64, f64) {
    trace.named(name).iter().fold((0.0, 0.0), |(ns, n), s| {
        let counted = if key.is_empty() { 1 } else { s.count(key) };
        (ns + s.ns() as f64, n + counted as f64)
    })
}

/// Metrics of the `sim`, `core`, `cache`, `frontend` and `workloads`
/// layers, from the deep passes' and probes' spans and from `runs`, the
/// latest untraced pass's reports keyed by fingerprint. `pairs` are the
/// jobs `sim.ipc_gain_pct` compares.
///
/// `obs.trace_overhead_pct` is what observing a job from outside costs:
/// the deep passes' host seconds (cycle-by-cycle stepping inside spans)
/// over the pool's untraced `host_seconds` for the same jobs, minus one.
/// No code of the `obs` crate runs in either; the two are timed minutes
/// apart, so host drift moves it by a few percent either way.
pub fn metrics(
    trace: &Trace,
    runs: &BTreeMap<String, SimRun>,
    pairs: &[Job],
    deep: &[Deep],
    build_s: f64,
) -> Vec<(&'static str, f64)> {
    let reports: Vec<&SimReport> = runs.values().map(|r| &r.report).collect();
    let sum = |f: fn(&SimReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let cycles = sum(|r| r.cycles);
    let committed = sum(|r| r.committed);
    let weighted_mpki = |f: fn(&SimReport) -> f64| {
        ratio(
            reports.iter().map(|r| f(r) * r.committed as f64).sum(),
            committed,
        )
    };
    let marks = sum(|r| r.priority_marks);
    let pair_reports: Vec<&SimReport> = pairs
        .iter()
        .filter_map(|j| runs.get(&fingerprint(j)))
        .map(|r| &r.report)
        .collect();

    let ns_per_cycle: Vec<f64> = trace
        .named("sim.run_instrs")
        .iter()
        .filter(|s| s.count("cycles") > 0)
        .map(|s| s.ns() as f64 / s.count("cycles") as f64)
        .collect();
    let (run_ns, run_instrs) = span_sums(trace, "sim.run_instrs", "instrs");
    let (new_ns, jobs) = span_sums(trace, "sim.new", "");
    let (warmup_ns, _) = span_sums(trace, "sim.warmup", "");
    let (measure_ns, measure_cycles) = span_sums(trace, "sim.measure", "cycles");
    let (_, idle) = span_sums(trace, "sim.measure", "no_commit_cycles");
    let deep_passes = deep.len().max(1) as f64;
    let traced_s: f64 = deep.iter().map(|d| d.traced_s).sum();
    let untraced_s: f64 = deep.iter().map(|d| d.untraced_s).sum();

    let (replay_ns, accesses) = span_sums(trace, "cache.replay", "accesses");
    let (policy_replay_ns, _) = span_sums(trace, "core.replay", "accesses");
    let (predict_ns, predicted) = span_sums(trace, "frontend.predict", "blocks");
    let (_, btb_misses) = span_sums(trace, "frontend.predict", "btb_misses");
    let (_, mispredicts) = span_sums(trace, "frontend.predict", "mispredicts");
    let (walk_ns, walked) = span_sums(trace, "workloads.walk", "instrs");
    let (_, walked_blocks) = span_sums(trace, "workloads.walk", "blocks");

    vec![
        ("sim.ns_per_cycle_p50", percentile(&ns_per_cycle, 50.0)),
        ("sim.ns_per_cycle_p90", percentile(&ns_per_cycle, 90.0)),
        ("sim.ns_per_instr", ratio(run_ns, run_instrs)),
        ("sim.new_ms", ratio(new_ns, jobs) / 1e6),
        ("sim.warmup_s", warmup_ns / 1e9 / deep_passes),
        ("sim.measure_s", measure_ns / 1e9 / deep_passes),
        ("sim.no_commit_cycle_frac", ratio(idle, measure_cycles)),
        (
            "sim.starvation_cycle_frac",
            ratio(sum(|r| r.starvation_cycles), cycles),
        ),
        (
            "sim.fe_stall_frac",
            ratio(sum(|r| r.fe_stall_cycles), cycles),
        ),
        (
            "sim.be_stall_frac",
            ratio(sum(|r| r.be_stall_cycles), cycles),
        ),
        ("sim.ipc_gain_pct", ipc_gain_pct(&pair_reports)),
        (
            "core.policy_replay_overhead_pct",
            (ratio(policy_replay_ns, replay_ns) - 1.0) * 100.0,
        ),
        ("core.priority_marks", marks),
        (
            "core.priority_hits_per_mark",
            ratio(sum(|r| r.l2_priority_hits), marks),
        ),
        ("cache.replay_ns_per_access", ratio(replay_ns, accesses)),
        ("cache.l1i_accesses", sum(|r| r.activity.l1i_accesses)),
        ("cache.l1d_accesses", sum(|r| r.activity.l1d_accesses)),
        ("cache.l2_accesses", sum(|r| r.activity.l2_accesses)),
        ("cache.l3_accesses", sum(|r| r.activity.l3_accesses)),
        ("cache.dram_accesses", sum(|r| r.activity.dram_accesses)),
        ("cache.l2i_mpki", weighted_mpki(|r| r.l2i_mpki)),
        ("cache.l2d_mpki", weighted_mpki(|r| r.l2d_mpki)),
        (
            "frontend.predict_ns_per_block",
            ratio(predict_ns, predicted),
        ),
        ("frontend.lookups", sum(|r| r.activity.frontend_lookups)),
        ("frontend.mispredict_ratio", ratio(mispredicts, predicted)),
        ("frontend.btb_miss_ratio", ratio(btb_misses, predicted)),
        ("workloads.build_s", build_s),
        ("workloads.walk_ns_per_instr", ratio(walk_ns, walked)),
        ("workloads.blocks", walked_blocks),
        (
            "obs.trace_overhead_pct",
            (ratio(traced_s, untraced_s) - 1.0) * 100.0,
        ),
    ]
}

/// Geometric-mean IPC gain of the preferred EMISSARY policy over the
/// baseline, in percent, across the benchmarks that ran both.
fn ipc_gain_pct(pair_reports: &[&SimReport]) -> f64 {
    let (base, emissary) = (PAIR[0].to_string(), PAIR[1].to_string());
    let mut ipc: BTreeMap<&str, [Option<f64>; 2]> = BTreeMap::new();
    for r in pair_reports {
        let slot = if r.policy == base {
            0
        } else if r.policy == emissary {
            1
        } else {
            continue;
        };
        ipc.entry(r.benchmark.as_str()).or_default()[slot] = Some(r.ipc());
    }
    let logs: Vec<f64> = ipc
        .values()
        .filter_map(|&[b, e]| Some((e? / b?).ln()))
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    ((logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0) * 100.0
}
