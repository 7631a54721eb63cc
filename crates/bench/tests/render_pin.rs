//! Pins every experiment's rendered output without simulating anything.
//!
//! Each job of the joint plan of all [`EXPERIMENTS`] gets a synthetic
//! outcome derived from its fingerprint: a report whose fields come from
//! `fnv1a64(fingerprint)`, at a constant host time, or, for a
//! deterministic sprinkle of the jobs, a panic. Every entry is rendered
//! from those runs, and one digest covers each experiment's text and its
//! results-file records (all but the `meta` line, whose knobs depend on
//! the host's thread count). A refactor of the renders must leave the
//! digest unchanged: same cells, same `FAILED` cells, same aggregates
//! over the surviving jobs, same failed-jobs table, same records.

use emissary_bench::campaign::Runs;
use emissary_bench::checkpoint::{fingerprint, fnv1a64};
use emissary_bench::experiments::{plan_jobs, EXPERIMENTS};
use emissary_bench::results::write_records;
use emissary_bench::{Job, JobOutcome};
use emissary_energy::ActivityCounts;
use emissary_sim::report::ReuseAttribution;
use emissary_sim::{SimConfig, SimReport, SimRun};
use emissary_stats::reuse::ReuseCounts;

/// A splitmix64 stream seeded by a job's fingerprint hash.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// A value in `0..hi` with three decimals.
    fn milli(&mut self, hi: u64) -> f64 {
        self.range(0, hi * 1000) as f64 / 1000.0
    }

    fn array<const N: usize>(&mut self, hi: u64) -> [u64; N] {
        std::array::from_fn(|_| self.range(0, hi))
    }
}

/// The synthetic outcome of `job`: a panic for about one job in ten (at
/// least one in every experiment), else a completed run with
/// fingerprint-derived fields.
fn outcome(job: &Job) -> JobOutcome {
    let hash = fnv1a64(fingerprint(job).as_bytes());
    let benchmark = job.profile.name.to_string();
    let policy = job.config.l2_policy.to_string();
    if hash.is_multiple_of(10) {
        return JobOutcome::Panicked {
            benchmark,
            policy,
            message: format!("synthetic panic {hash:016x}"),
        };
    }
    let mut s = Stream(hash);
    let cycles = s.range(20_000, 40_000);
    let committed = s.range(4_000, 4_100);
    let [short, mid, long, cold] = s.array(10_000);
    let [starve_short, starve_mid, starve_long, l2_miss_long, l2_miss_other, long_accesses, other_accesses] =
        s.array(5_000);
    let [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9] = s.array(100_000);
    let report = SimReport {
        benchmark,
        policy,
        cycles,
        committed,
        decoded: s.range(committed, 2 * committed),
        issued: s.range(committed, 2 * committed),
        l1i_mpki: s.milli(80),
        l1d_mpki: s.milli(40),
        l2i_mpki: s.milli(60),
        l2d_mpki: s.milli(20),
        l3_mpki: s.milli(10),
        branch_mpki: s.milli(10),
        starvation_cycles: s.range(0, 5_000),
        starvation_empty_iq_cycles: s.range(0, 5_000),
        starvation_by_source: s.array(1_000),
        fe_stall_cycles: s.range(0, 10_000),
        be_stall_cycles: s.range(0, 10_000),
        footprint_bytes: 64 * s.range(1_000, 50_000),
        reuse: ReuseCounts {
            short,
            mid,
            long,
            cold,
        },
        reuse_attribution: ReuseAttribution {
            starve_short,
            starve_mid,
            starve_long,
            l2_miss_long,
            l2_miss_other,
            long_accesses,
            other_accesses,
        },
        priority_histogram: s.array(1_024),
        ideal_l2_saves: s.range(0, 1_000),
        l2_priority_hits: s.range(0, 1_000),
        priority_marks: s.range(0, 1_000),
        activity: ActivityCounts {
            cycles: a0,
            committed_instrs: a1,
            decoded_instrs: a2,
            issued_instrs: a3,
            l1i_accesses: a4,
            l1d_accesses: a5,
            l2_accesses: a6,
            l3_accesses: a7,
            dram_accesses: a8,
            frontend_lookups: a9,
        },
        energy_pj: 1e6 + s.milli(1_000_000),
    };
    JobOutcome::Completed {
        run: Box::new(SimRun {
            report,
            samples: Vec::new(),
            host_seconds: 0.5,
            warmup_seconds: 0.125,
            measure_seconds: 0.375,
        }),
        resumed: false,
    }
}

#[test]
fn every_render_matches_its_pinned_digest() {
    let template = SimConfig {
        warmup_instrs: 1_000,
        measure_instrs: 4_000,
        ..SimConfig::default()
    };
    let plan = plan_jobs(&EXPERIMENTS, &template);
    let outcomes: Vec<JobOutcome> = plan.iter().map(outcome).collect();
    let failed = outcomes.iter().filter(|o| o.run().is_none()).count();
    assert!(failed > 0, "the sprinkle must fail some jobs");
    let runs = Runs::from_outcomes(&plan, outcomes);

    let mut text = Vec::new();
    for entry in EXPERIMENTS {
        let exp = entry.render(&template, &runs);
        text.extend_from_slice(exp.render().as_bytes());
        let mut records = Vec::new();
        write_records(&mut records, entry.name, &exp, &[], &[]).unwrap();
        let meta_end = records.iter().position(|&b| b == b'\n').unwrap() + 1;
        text.extend_from_slice(&records[meta_end..]);
    }
    assert_eq!(
        format!("{:016x}", fnv1a64(&text)),
        "e18c10a838db1364",
        "rendered tables or records changed"
    );
}
