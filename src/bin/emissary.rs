//! `emissary` — command-line front door to the simulator.
//!
//! ```text
//! emissary list
//! emissary run <benchmark> [--policy <spec>] [--instrs N] [--warmup N] [--figure1] [--ideal]
//! emissary compare <benchmark> [--instrs N] <policy>...
//! emissary sweep <benchmark> [--instrs N] [--selection <sel>]
//! ```
//!
//! Policies use the paper's notation (`M:1`, `P(8):S&E&R(1/32)`, `DRRIP`,
//! `P(8):S&E+GHRP`, …); `run` also takes the policy as its second
//! positional argument. Counts accept `_` separators (`--instrs 2_000_000`).
//! A malformed count, or a configuration [`SimConfig::validate`] rejects
//! (`P(16):S&E` on the 16-way L2), exits 2 before anything is simulated.

use emissary::prelude::*;
use emissary::sim::ConfigError;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         emissary list\n  \
         emissary run <benchmark> [--policy <spec>] [--instrs N] [--warmup N] [--figure1] [--ideal]\n  \
         emissary compare <benchmark> [--instrs N] <policy>...\n  \
         emissary sweep <benchmark> [--instrs N] [--selection <sel>]"
    );
    std::process::exit(2);
}

fn parse_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == name)?;
    if idx + 1 >= args.len() {
        eprintln!("{name} requires a value");
        usage();
    }
    args.remove(idx);
    Some(args.remove(idx))
}

fn parse_switch(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(idx) = args.iter().position(|a| a == name) {
        args.remove(idx);
        true
    } else {
        false
    }
}

fn profile_or_exit(name: &str) -> Profile {
    Profile::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "unknown benchmark {name:?}; available: {}",
            Profile::names().join(", ")
        );
        std::process::exit(2);
    })
}

/// Unwraps `r`, or prints its error and exits 2.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn policy_or_exit(s: &str) -> PolicySpec {
    or_exit(s.parse())
}

/// The value of count flag `flag`, `_` separators allowed; `default` when
/// the flag is absent.
fn count(args: &mut Vec<String>, flag: &str, default: u64) -> Result<u64, String> {
    match parse_flag(args, flag) {
        Some(v) => v
            .replace('_', "")
            .parse()
            .map_err(|_| format!("{flag} expects a whole number, got {v:?}")),
        None => Ok(default),
    }
}

fn config(args: &mut Vec<String>) -> Result<SimConfig, String> {
    let mut cfg = if parse_switch(args, "--figure1") {
        SimConfig::figure1()
    } else {
        SimConfig::default()
    };
    cfg.measure_instrs = count(args, "--instrs", 4_000_000)?;
    cfg.warmup_instrs = count(args, "--warmup", cfg.measure_instrs / 2)?;
    if parse_switch(args, "--ideal") {
        cfg.hierarchy.ideal_l2_instr = true;
    }
    Ok(cfg)
}

/// `cfg` under each of `policies`, every one validated before any runs.
fn validated(cfg: &SimConfig, policies: &[PolicySpec]) -> Result<Vec<SimConfig>, ConfigError> {
    policies
        .iter()
        .map(|&p| {
            let cfg = cfg.clone().with_policy(p);
            cfg.validate().map(|()| cfg)
        })
        .collect()
}

fn print_report(r: &SimReport) {
    println!("benchmark        {}", r.benchmark);
    println!("policy           {}", r.policy);
    println!("cycles           {}", r.cycles);
    println!("instructions     {}", r.committed);
    println!("IPC              {:.4}", r.ipc());
    println!("decode rate      {:.4}", r.decode_rate());
    println!("issue rate       {:.4}", r.issue_rate());
    println!(
        "MPKI             l1i {:.2}  l1d {:.2}  l2i {:.2}  l2d {:.2}  l3 {:.2}  branch {:.2}",
        r.l1i_mpki, r.l1d_mpki, r.l2i_mpki, r.l2d_mpki, r.l3_mpki, r.branch_mpki
    );
    println!(
        "starvation       {} cycles ({:.1}%), {} with empty IQ",
        r.starvation_cycles,
        r.starvation_cycles as f64 / r.cycles.max(1) as f64 * 100.0,
        r.starvation_empty_iq_cycles
    );
    println!(
        "starve by source l1 {}  l2 {}  l3 {}  memory {}",
        r.starvation_by_source[0],
        r.starvation_by_source[1],
        r.starvation_by_source[2],
        r.starvation_by_source[3]
    );
    println!(
        "stalls           fe {}  be {}",
        r.fe_stall_cycles, r.be_stall_cycles
    );
    println!(
        "footprint        {:.2} MB",
        r.footprint_bytes as f64 / 1048576.0
    );
    println!(
        "priority         {} marks, {} protected-line hits, {} sets saturated",
        r.priority_marks,
        r.l2_priority_hits,
        r.priority_histogram[8..].iter().sum::<u64>()
    );
    println!("energy           {:.3} mJ", r.energy_pj * 1e-9);
}

fn cmd_run(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    let policy = parse_flag(&mut args, "--policy").or_else(|| args.get(1).cloned());
    let Some(bench) = args.first() else { usage() };
    let profile = profile_or_exit(bench);
    let policy = policy.map_or(PolicySpec::PREFERRED, |p| policy_or_exit(&p));
    let cfg = or_exit(validated(&cfg, &[policy])).remove(0);
    print_report(&run_sim(&profile, &cfg));
}

fn cmd_compare(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    if args.is_empty() {
        usage();
    }
    let profile = profile_or_exit(&args.remove(0));
    let mut policies: Vec<PolicySpec> = vec![PolicySpec::BASELINE];
    if args.is_empty() {
        policies.push(PolicySpec::PREFERRED);
        policies.push(policy_or_exit("P(8):S&E"));
        policies.push(PolicySpec::Drrip);
    } else {
        policies.extend(args.iter().map(|s| policy_or_exit(s)));
    }
    let runs = or_exit(validated(&cfg, &policies));
    // One build serves every policy.
    let program = profile.shared_program();
    let mut t = Table::with_headers(&["policy", "cycles", "speedup%", "l2i_mpki", "starve"]);
    let mut base_cycles = None;
    for cfg in runs {
        let r = run_sim_on(&program, &profile, &cfg);
        let base = *base_cycles.get_or_insert(r.cycles);
        t.row(vec![
            r.policy.clone(),
            r.cycles.to_string(),
            format!("{:+.2}", speedup_pct(base as f64 / r.cycles as f64)),
            format!("{:.2}", r.l2i_mpki),
            r.starvation_cycles.to_string(),
        ]);
    }
    println!("benchmark: {}", profile.name);
    print!("{}", t.render());
}

fn cmd_sweep(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    let selection = parse_flag(&mut args, "--selection").unwrap_or_else(|| "S&E&R(1/32)".into());
    if args.is_empty() {
        usage();
    }
    let profile = profile_or_exit(&args.remove(0));
    let ns = [0usize, 2, 4, 6, 8, 10, 12, 14];
    let specs: Vec<PolicySpec> = ns
        .iter()
        .map(|n| policy_or_exit(&format!("P({n}):{selection}")))
        .collect();
    let runs = or_exit(validated(&cfg, &specs));
    // One build serves every policy.
    let program = profile.shared_program();
    let base = run_sim_on(
        &program,
        &profile,
        &cfg.clone().with_policy(PolicySpec::BASELINE),
    );
    let mut t = Table::with_headers(&["N", "speedup%", "l2i_mpki", "l2d_mpki", "starve"]);
    for (n, cfg) in ns.into_iter().zip(runs) {
        let r = run_sim_on(&program, &profile, &cfg);
        t.row(vec![
            n.to_string(),
            format!("{:+.2}", r.speedup_pct_vs(&base)),
            format!("{:.2}", r.l2i_mpki),
            format!("{:.2}", r.l2d_mpki),
            r.starvation_cycles.to_string(),
        ]);
    }
    println!("benchmark: {}  selection: {selection}", profile.name);
    print!("{}", t.render());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "list" => {
            for p in Profile::all() {
                let program = p.build();
                println!(
                    "{:16} code {:7.2} KB  services {:3}  rotation {:.2}  seed {:#x}",
                    p.name,
                    program.code_bytes() as f64 / 1024.0,
                    p.shape.num_services,
                    p.shape.service_rotation,
                    p.seed
                );
            }
        }
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "sweep" => cmd_sweep(args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn counts_accept_separators_and_consume_their_flags() {
        let mut a = args(&["xapian", "--instrs", "2_000", "--warmup", "1_000", "M:1"]);
        let cfg = config(&mut a).unwrap();
        assert_eq!((cfg.measure_instrs, cfg.warmup_instrs), (2_000, 1_000));
        assert_eq!(a, args(&["xapian", "M:1"]));
        let cfg = config(&mut args(&["xapian", "--instrs", "6000"])).unwrap();
        assert_eq!((cfg.measure_instrs, cfg.warmup_instrs), (6_000, 3_000));
    }

    #[test]
    fn malformed_counts_are_rejected_naming_the_flag() {
        for (flag, value) in [("--instrs", "5k"), ("--warmup", "-1"), ("--instrs", "")] {
            let err = config(&mut args(&["xapian", flag, value])).unwrap_err();
            assert!(err.contains(flag) && err.contains(value), "{err}");
        }
    }

    #[test]
    fn configs_are_validated_before_running() {
        let cfg = config(&mut args(&["--instrs", "4000"])).unwrap();
        let too_many = "P(16):S&E".parse().unwrap();
        let err = validated(&cfg, &[PolicySpec::BASELINE, too_many]).unwrap_err();
        assert!(err.to_string().contains("P(16) requires N < ways"), "{err}");
        let mut swapped = cfg.clone();
        swapped.warmup_instrs = 8_000;
        assert!(validated(&swapped, &[PolicySpec::BASELINE]).is_err());
        let ok = validated(&cfg, &[PolicySpec::BASELINE, PolicySpec::PREFERRED]).unwrap();
        assert_eq!(ok[1].l2_policy, PolicySpec::PREFERRED);
        // A 12-way L2 holds SRRIP but not the baseline's TPLRU tree.
        let mut twelve_way = cfg.clone();
        twelve_way.hierarchy.l2 =
            emissary::cache::config::CacheConfig::new("l2", 768 * 1024, 12, 12);
        assert!(validated(&twelve_way, &[PolicySpec::Srrip]).is_ok());
        let err = validated(&twelve_way, &[PolicySpec::Srrip, PolicySpec::BASELINE]).unwrap_err();
        assert!(err.to_string().contains("power-of-two"), "{err}");
    }
}
