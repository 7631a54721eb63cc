//! Cross-crate integration tests: full simulations driven through the
//! public API, checking determinism, hierarchy invariants, and the
//! qualitative orderings the paper's mechanism implies.

use emissary::prelude::*;
use emissary::sim::machine::Machine;
use emissary::workloads::builder::{build_program, ProgramShape};
use emissary::workloads::walker::Walker;

fn quick(policy: &str) -> SimConfig {
    SimConfig {
        warmup_instrs: 20_000,
        measure_instrs: 60_000,
        ..SimConfig::default()
    }
    .with_policy(policy.parse().expect("policy notation"))
}

#[test]
fn full_simulation_is_deterministic() {
    let p = Profile::by_name("web-search").unwrap();
    let program = p.shared_program();
    let a = run_sim_on(&program, &p, &quick("P(8):S&E&R(1/32)"));
    let b = run_sim_on(&program, &p, &quick("P(8):S&E&R(1/32)"));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.starvation_cycles, b.starvation_cycles);
    assert_eq!(a.priority_histogram, b.priority_histogram);
    assert_eq!(a.energy_pj, b.energy_pj);
}

#[test]
fn every_table3_policy_runs_end_to_end() {
    let p = Profile::by_name("xapian").unwrap();
    let program = p.shared_program();
    for policy in [
        "M:1",
        "M:0",
        "M:R(1/32)",
        "M:S&E",
        "M:S&E&R(1/32)",
        "P(8):R(1/32)",
        "P(8):S",
        "P(8):S&E",
        "P(8):S&E&R(1/32)",
        "SRRIP",
        "BRRIP",
        "DRRIP",
        "PDP",
        "DCLIP",
    ] {
        let r = run_sim_on(&program, &p, &quick(policy));
        assert!(r.cycles > 0, "{policy}: no cycles");
        assert!(r.committed >= 60_000, "{policy}: did not finish");
        assert_eq!(r.policy, policy);
    }
}

#[test]
fn hierarchy_invariants_hold_after_simulation() {
    let program = build_program(&ProgramShape::tiny());
    let walker = Walker::new(&program, 5);
    let cfg = quick("P(8):S&E");
    let mut m = Machine::new(walker, &cfg);
    m.run_instrs(80_000);
    assert!(m.hierarchy().check_inclusion(), "L1 not included in L2");
    assert!(m.hierarchy().check_exclusivity(), "L2/L3 not exclusive");
}

/// On a cyclic workload whose code footprint exceeds a shrunken L2 + L3,
/// EMISSARY with a saturating selection must beat the baseline: this is
/// the paper's central mechanism in its cleanest form.
#[test]
fn emissary_beats_baseline_in_thrash_regime() {
    let shape = ProgramShape {
        code_kb: 512,
        num_services: 16,
        service_rotation: 1.0,
        service_repeat: 1,
        hard_branch_frac: 0.10,
        data_weights: (0.95, 0.04, 0.01),
        hot_kb: 8,
        warm_kb: 8,
        stream_kb: 64,
        load_frac: 0.0,
        store_frac: 0.0,
        ..ProgramShape::tiny()
    };
    let profile = Profile {
        name: "thrash",
        shape,
        seed: 77,
    };
    let small_l2 = |policy: &str| {
        let mut cfg = SimConfig {
            warmup_instrs: 400_000,
            measure_instrs: 600_000,
            ..SimConfig::default()
        }
        .with_policy(policy.parse().unwrap());
        cfg.hierarchy.l2 = emissary::cache::config::CacheConfig::new("l2", 128 * 1024, 16, 12);
        cfg.hierarchy.l3 = emissary::cache::config::CacheConfig::new("l3", 256 * 1024, 16, 32);
        cfg
    };
    let program = profile.shared_program();
    let base = run_sim_on(&program, &profile, &small_l2("M:1"));
    let emis = run_sim_on(&program, &profile, &small_l2("P(12):S&E"));
    assert!(
        emis.cycles < base.cycles,
        "EMISSARY did not win in the thrash regime: {} vs {} cycles",
        emis.cycles,
        base.cycles
    );
    assert!(
        emis.starvation_cycles < base.starvation_cycles,
        "starvation did not fall: {} vs {}",
        emis.starvation_cycles,
        base.starvation_cycles
    );
    assert!(
        emis.l2i_mpki < base.l2i_mpki,
        "instruction MPKI did not fall: {} vs {}",
        emis.l2i_mpki,
        base.l2i_mpki
    );
    assert!(emis.l2_priority_hits > 0, "no hits on protected lines");
    assert!(emis.priority_marks > 0, "no priority marks issued");
}

#[test]
fn ideal_l2_bounds_every_policy() {
    let p = Profile::by_name("finagle-chirper").unwrap();
    let mut ideal_cfg = quick("M:1");
    ideal_cfg.warmup_instrs = 100_000;
    ideal_cfg.measure_instrs = 200_000;
    let mut base_cfg = ideal_cfg.clone();
    ideal_cfg.hierarchy.ideal_l2_instr = true;
    let program = p.shared_program();
    let ideal = run_sim_on(&program, &p, &ideal_cfg);
    for policy in ["M:1", "P(8):S&E", "DRRIP"] {
        base_cfg = base_cfg.with_policy(policy.parse().unwrap());
        let r = run_sim_on(&program, &p, &base_cfg);
        assert!(
            ideal.cycles <= r.cycles + r.cycles / 50,
            "{policy} beat the ideal L2: {} vs {}",
            r.cycles,
            ideal.cycles
        );
    }
}

#[test]
fn priority_reset_limits_saturation() {
    let p = Profile::by_name("verilator").unwrap();
    let mut no_reset = quick("P(8):S&E");
    no_reset.warmup_instrs = 100_000;
    no_reset.measure_instrs = 300_000;
    let mut with_reset = no_reset.clone();
    with_reset.priority_reset_interval = Some(50_000);
    let program = p.shared_program();
    let a = run_sim_on(&program, &p, &no_reset);
    let b = run_sim_on(&program, &p, &with_reset);
    let saturated = |r: &SimReport| r.priority_histogram[8..].iter().sum::<u64>();
    assert!(
        saturated(&b) <= saturated(&a),
        "periodic reset did not reduce saturation: {} vs {}",
        saturated(&b),
        saturated(&a)
    );
    // §6: the reset's performance impact is small (within a few percent).
    let delta = (b.cycles as f64 - a.cycles as f64).abs() / a.cycles as f64;
    assert!(delta < 0.05, "reset impact too large: {delta}");
}

#[test]
fn baseline_policies_never_set_priority_bits() {
    let p = Profile::by_name("tpcc").unwrap();
    let program = p.shared_program();
    for policy in ["M:1", "SRRIP", "DRRIP", "PDP", "DCLIP", "M:R(1/32)"] {
        let r = run_sim_on(&program, &p, &quick(policy));
        assert_eq!(
            r.priority_histogram[1..].iter().sum::<u64>(),
            0,
            "{policy} produced P = 1 lines"
        );
    }
}

#[test]
fn reports_are_internally_consistent_across_profiles() {
    for p in Profile::all() {
        let mut cfg = quick("M:1");
        cfg.warmup_instrs = 5_000;
        cfg.measure_instrs = 25_000;
        let r = run_sim(&p, &cfg);
        assert_eq!(r.benchmark, p.name);
        assert!(r.committed >= 25_000, "{}", p.name);
        assert!(
            r.ipc() > 0.0 && r.ipc() <= 8.0,
            "{}: ipc {}",
            p.name,
            r.ipc()
        );
        assert!(
            r.decode_rate() >= r.ipc() * 0.99,
            "{}: decoded < committed",
            p.name
        );
        assert!(
            r.fe_stall_cycles + r.be_stall_cycles <= r.cycles,
            "{}: stall cycles exceed total",
            p.name
        );
        assert!(
            r.starvation_empty_iq_cycles <= r.starvation_cycles,
            "{}: empty-IQ starvation exceeds starvation",
            p.name
        );
        assert!(r.footprint_bytes > 0, "{}", p.name);
        assert!(r.energy_pj > 0.0, "{}", p.name);
    }
}

#[test]
fn speedup_helpers_agree_with_cycles() {
    let p = Profile::by_name("xapian").unwrap();
    let program = p.shared_program();
    let a = run_sim_on(&program, &p, &quick("M:1"));
    let b = run_sim_on(&program, &p, &quick("M:0"));
    let pct = b.speedup_pct_vs(&a);
    let manual = (a.cycles as f64 / b.cycles as f64 - 1.0) * 100.0;
    assert!((pct - manual).abs() < 1e-9);
}
