//! Golden-report regression test: fixed (workload, policy, seed) configs
//! with committed digests of their `SimReport` JSON.
//!
//! The digests below were captured from the simulator *before* the
//! hot-path optimisation work (allocation-free cycle loop, open-addressing
//! miss tables, devirtualized policy dispatch) landed, and the `GHRP`,
//! `+BYPASS` and Figure 1 rows before the `P(N)` variants were folded into
//! one statically-dispatched policy, the `LIN` row before the
//! in-flight tables were pruned to the misses still outstanding, and the
//! `M:` insertion, true-LRU `M:1` and `LACS` rows before true LRU, tree
//! PLRU, the `M:` treatments and `P(N)`'s dual classes were folded into
//! one recency module, so this test proves those rewrites are
//! behaviour-preserving: any change to the cycle-level
//! execution — timing, replacement decisions, stats plumbing — shifts at
//! least one digest. Run with `EMISSARY_BLESS=1` and `--nocapture` to
//! print the digests the current build produces (for intentional
//! behaviour changes, paste the new values here and explain why in the
//! commit message).

use std::collections::HashMap;

use emissary_bench::checkpoint::fnv1a64;
use emissary_sim::{run_sim_on, SimConfig};
use emissary_workloads::Profile;

/// One golden configuration: base machine config, benchmark, L2 policy
/// notation, optional §6 priority-reset interval, and the expected FNV-1a
/// 64 digest of the run's `SimReport::to_json()` bytes.
struct Golden {
    config: fn() -> SimConfig,
    benchmark: &'static str,
    policy: &'static str,
    reset_interval: Option<u64>,
    digest: u64,
}

/// Fixed-seed configs spanning the policy families: the baseline, every
/// `P(N)` variant (plain, `+BYPASS`, `+GHRP`, with a §6 reset), standalone
/// GHRP, the `M:` insertion treatments (LIP and a starvation-gated one over
/// tree PLRU, `M:S` over true LRU), and prior work (LIN, the one policy
/// whose fills read the count of outstanding misses, and LACS, whose victim
/// is a masked true-LRU pick), over both the default tree-PLRU machine and
/// Figure 1's true-LRU one, plus three non-default core shapes (issue
/// width, scheduler window, ALU latency) that pin the issue scheduler.
const GOLDEN: &[Golden] = &[
    Golden {
        config: SimConfig::default,
        benchmark: "xapian",
        policy: "M:1",
        reset_interval: None,
        digest: 0xc82b123f71afd1e0,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "xapian",
        policy: "P(8):S&E&R(1/32)",
        reset_interval: None,
        digest: 0xb63f6e9256cfd5eb,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "tomcat",
        policy: "DRRIP",
        reset_interval: None,
        digest: 0xa125531feec6602b,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "wikipedia",
        policy: "PDP",
        reset_interval: None,
        digest: 0x67bd819151494287,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "verilator",
        policy: "P(14):S&E",
        reset_interval: Some(50_000),
        digest: 0x88c865b341d3d80e,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "specjbb",
        policy: "P(8):S&E+GHRP",
        reset_interval: None,
        digest: 0x61236f4324d45248,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "specjbb",
        policy: "GHRP",
        reset_interval: None,
        digest: 0x38900959b2d7c3b8,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "kafka",
        policy: "P(8):S&E&R(1/32)+BYPASS",
        reset_interval: None,
        digest: 0xd7c7598ea3adfc21,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "kafka",
        policy: "LIN",
        reset_interval: None,
        digest: 0xf23c65a8aa8a9bf1,
    },
    Golden {
        config: SimConfig::figure1,
        benchmark: "tomcat",
        policy: "P(8):S",
        reset_interval: None,
        digest: 0x736e3ea7851ff9bc,
    },
    Golden {
        config: SimConfig::figure1,
        benchmark: "kafka",
        policy: "GHRP",
        reset_interval: None,
        digest: 0xb6076e4b549fd249,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "tomcat",
        policy: "M:S&E&R(1/32)",
        reset_interval: None,
        digest: 0x5cd237b3eeb1b145,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "verilator",
        policy: "M:0",
        reset_interval: None,
        digest: 0x0f2b1cc5bb70730e,
    },
    Golden {
        config: SimConfig::figure1,
        benchmark: "tomcat",
        policy: "M:1",
        reset_interval: None,
        digest: 0x63a5b9634f2e75c6,
    },
    Golden {
        config: SimConfig::figure1,
        benchmark: "tomcat",
        policy: "M:S",
        reset_interval: None,
        digest: 0x582e5ef47bc4eb1c,
    },
    Golden {
        config: SimConfig::default,
        benchmark: "kafka",
        policy: "LACS",
        reset_interval: None,
        digest: 0xf5cfc05938b87ad2,
    },
    Golden {
        config: narrow_issue_full_reach,
        benchmark: "tomcat",
        policy: "P(8):S&E",
        reset_interval: None,
        digest: 0x8574d84b5c07750b,
    },
    Golden {
        config: short_reach_slow_alu,
        benchmark: "kafka",
        policy: "M:1",
        reset_interval: None,
        digest: 0x41160bc5241257f7,
    },
    Golden {
        config: zero_latency_alu,
        benchmark: "xapian",
        policy: "P(14):S&E",
        reset_interval: None,
        digest: 0x459b5e2ac1c4d63c,
    },
];

/// A 2-wide issue stage whose select logic reaches the whole issue queue
/// (`scheduler_window` ≥ `iq_entries`).
fn narrow_issue_full_reach() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.core.issue_width = 2;
    cfg.core.scheduler_window = 240;
    cfg
}

/// An 8-entry select window over 3-cycle ALUs.
fn short_reach_slow_alu() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.core.scheduler_window = 8;
    cfg.core.alu_latency = 3;
    cfg
}

/// Zero-latency ALUs: a consumer becomes ready in the same issue scan as
/// its ALU producer.
fn zero_latency_alu() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.core.alu_latency = 0;
    cfg
}

fn golden_config(g: &Golden) -> SimConfig {
    let mut cfg = SimConfig {
        warmup_instrs: 20_000,
        measure_instrs: 100_000,
        ..(g.config)()
    }
    .with_policy(g.policy.parse().expect("golden policy notation"));
    cfg.priority_reset_interval = g.reset_interval;
    cfg
}

#[test]
fn reports_are_bit_identical_to_seed_behaviour() {
    let bless = emissary_bench::scale::knobs().bless;
    let mut failures = Vec::new();
    // Each benchmark's program, held across its rows.
    let mut held = HashMap::new();
    for g in GOLDEN {
        let profile = Profile::by_name(g.benchmark).expect("golden benchmark");
        let program = held
            .entry(g.benchmark)
            .or_insert_with(|| profile.shared_program());
        let cfg = golden_config(g);
        let json = run_sim_on(program, &profile, &cfg).to_json();
        let digest = fnv1a64(json.as_bytes());
        if bless {
            println!("{}/{}: digest: 0x{digest:016x},", g.benchmark, g.policy);
        }
        if digest != g.digest {
            failures.push(format!(
                "{}/{}: expected 0x{:016x}, got 0x{digest:016x}",
                g.benchmark, g.policy, g.digest
            ));
        }
    }
    if bless {
        return; // bless mode only prints; it never fails the build
    }
    assert!(
        failures.is_empty(),
        "SimReport diverged from golden seed behaviour:\n{}",
        failures.join("\n")
    );
}
