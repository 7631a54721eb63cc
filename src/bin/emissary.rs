//! `emissary` — command-line front door to the simulator.
//!
//! ```text
//! emissary list
//! emissary run <benchmark> [--policy <spec>] [--instrs N] [--warmup N] [--figure1] [--ideal]
//! emissary compare <benchmark> [--instrs N] [--warmup N] <policy>...
//! emissary sweep <benchmark> [--instrs N] [--warmup N] [--selection <sel>]
//! ```
//!
//! Policies use the paper's notation (`M:1`, `P(8):S&E&R(1/32)`, `DRRIP`,
//! `P(8):S&E+GHRP`, …); `run` also takes the policy as its second
//! positional argument, and `compare` lists each policy once after the
//! baseline (a named `LRU`, `TPLRU` or `M:1` is that baseline). Counts
//! accept `_` separators (`--instrs 2_000_000`). A malformed count, or a
//! configuration [`SimConfig::validate`] rejects (`P(16):S&E` on the
//! 16-way L2), exits 2 before anything is opened or simulated.
//!
//! Each subcommand's jobs run as one campaign through
//! [`campaign::run_plan`], the path `all_experiments` takes: on
//! `EMISSARY_THREADS` workers, through the unified checkpoint
//! `results/campaign.ckpt.jsonl` (so `EMISSARY_RESUME=1` replays any job
//! a sweep or an earlier command completed at the same windows), with
//! the `campaign summary:` line on stderr. Its fault records and metrics
//! snapshot go to `results/emissary.jsonl` and
//! `results/emissary.metrics.jsonl`, so a command never replaces a
//! sweep's `results/campaign.jsonl` or `results/metrics.jsonl`. A failed
//! job prints as a `FAILED` cell and the command exits 1.

use emissary::bench::campaign::{self, Runs};
use emissary::bench::experiments::{matrix_jobs, FAILED};
use emissary::bench::Job;
use emissary::core::spec::ParsePolicyError;
use emissary::prelude::*;
use emissary::sim::ConfigError;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         emissary list\n  \
         emissary run <benchmark> [--policy <spec>] [--instrs N] [--warmup N] [--figure1] [--ideal]\n  \
         emissary compare <benchmark> [--instrs N] [--warmup N] <policy>...\n  \
         emissary sweep <benchmark> [--instrs N] [--warmup N] [--selection <sel>]"
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
    let idx = args.iter().position(|a| a == name);
    idx.map(|idx| args.remove(idx)).is_some()
}

/// Unwraps `r`, or prints its error and exits 2.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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
    let mut cfg = parse_switch(args, "--figure1")
        .then(SimConfig::figure1)
        .unwrap_or_default();
    cfg.measure_instrs = count(args, "--instrs", 4_000_000)?;
    cfg.warmup_instrs = count(args, "--warmup", cfg.measure_instrs / 2)?;
    cfg.hierarchy.ideal_l2_instr = parse_switch(args, "--ideal");
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

/// The jobs of `policies` on benchmark `bench` under `cfg`, or exit 2
/// naming an unknown benchmark or an invalid config.
fn jobs_or_exit(bench: &str, cfg: &SimConfig, policies: &[PolicySpec]) -> Vec<Job> {
    let names = || Profile::names().join(", ");
    let unknown = || format!("unknown benchmark {bench:?}; available: {}", names());
    let profile = or_exit(Profile::by_name(bench).ok_or_else(unknown));
    or_exit(validated(cfg, policies));
    matrix_jobs(&[profile], cfg, policies)
}

/// Runs `jobs` as one campaign, handing `render` the runs; exits 1 when a
/// job failed.
fn run_jobs(jobs: &[Job], render: impl FnOnce(&Runs)) {
    if campaign::run_plan("emissary", jobs.to_vec(), render).failed > 0 {
        std::process::exit(1);
    }
}

/// The report of `job`, when it completed.
fn report<'r>(runs: &'r Runs, job: &Job) -> Option<&'r SimReport> {
    runs.get(job).run().map(|run| &run.report)
}

/// A table column: its header and its cell from a run's report and the
/// baseline's (`None` when the baseline failed).
type Column = (&'static str, fn(&SimReport, Option<&SimReport>) -> String);

/// A table row: its label and the job whose run fills it.
type Row<'j> = (String, &'j Job);

const CYCLES: Column = ("cycles", |r, _| r.cycles.to_string());
const SPEEDUP: Column = ("speedup%", |r, base| {
    base.map_or(FAILED.into(), |b| format!("{:+.2}", r.speedup_pct_vs(b)))
});
const L2I_MPKI: Column = ("l2i_mpki", |r, _| format!("{:.2}", r.l2i_mpki));
const L2D_MPKI: Column = ("l2d_mpki", |r, _| format!("{:.2}", r.l2d_mpki));
const STARVE: Column = ("starve", |r, _| r.starvation_cycles.to_string());

/// The columns of `compare`'s and of `sweep`'s table.
const COMPARE: [Column; 4] = [CYCLES, SPEEDUP, L2I_MPKI, STARVE];
const SWEEP: [Column; 4] = [SPEEDUP, L2I_MPKI, L2D_MPKI, STARVE];

/// One row per `(label, job)` of `rows`, under `header` and `columns`
/// read against `base`'s report; a failed job's cells read `FAILED`.
fn table(header: &str, columns: [Column; 4], base: &Job, rows: Vec<Row>, runs: &Runs) -> Table {
    let base = report(runs, base);
    let mut headers = vec![header];
    headers.extend(columns.map(|c| c.0));
    let mut t = Table::with_headers(&headers);
    for (label, job) in rows {
        let r = report(runs, job);
        let cells = columns.map(|(_, cell)| r.map_or(FAILED.into(), |r| cell(r, base)));
        t.row(std::iter::once(label).chain(cells).collect());
    }
    t
}

fn cmd_run(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    let policy = parse_flag(&mut args, "--policy").or_else(|| args.get(1).cloned());
    let Some(bench) = args.first() else { usage() };
    let policy = or_exit(policy.map_or(Ok(PolicySpec::PREFERRED), |p| p.parse()));
    let jobs = jobs_or_exit(bench, &cfg, &[policy]);
    run_jobs(&jobs, |runs| match report(runs, &jobs[0]) {
        Some(r) => print_report(r),
        None => println!("{FAILED}: {}", runs.get(&jobs[0]).describe()),
    });
}

/// The policies `compare` runs: the baseline, then `names` (the default
/// trio when empty), each policy once, in first-seen order.
fn compare_policies(names: &[String]) -> Result<Vec<PolicySpec>, ParsePolicyError> {
    let defaults = ["P(8):S&E&R(1/32)", "P(8):S&E", "DRRIP"].map(String::from);
    let mut policies = vec![PolicySpec::BASELINE];
    for name in if names.is_empty() { &defaults } else { names } {
        let p = name.parse()?;
        if !policies.contains(&p) {
            policies.push(p);
        }
    }
    Ok(policies)
}

/// `compare`'s table: one row per job, speedups over the first.
fn compare_table(jobs: &[Job], runs: &Runs) -> Table {
    let rows = jobs.iter().map(|j| (j.config.l2_policy.to_string(), j));
    table("policy", COMPARE, &jobs[0], rows.collect(), runs)
}

fn cmd_compare(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    let Some(bench) = args.first() else { usage() };
    let jobs = jobs_or_exit(bench, &cfg, &or_exit(compare_policies(&args[1..])));
    run_jobs(&jobs, |runs| {
        println!("benchmark: {}", jobs[0].profile.name);
        print!("{}", compare_table(&jobs, runs).render());
    });
}

fn cmd_sweep(mut args: Vec<String>) {
    let cfg = or_exit(config(&mut args));
    let selection = parse_flag(&mut args, "--selection").unwrap_or_else(|| "S&E&R(1/32)".into());
    let Some(bench) = args.first() else { usage() };
    let ns = [0usize, 2, 4, 6, 8, 10, 12, 14];
    let mut policies = vec![PolicySpec::BASELINE];
    policies.extend(ns.map(|n| or_exit(format!("P({n}):{selection}").parse::<PolicySpec>())));
    let jobs = jobs_or_exit(bench, &cfg, &policies);
    let title = format!(
        "benchmark: {}  selection: {selection}",
        jobs[0].profile.name
    );
    run_jobs(&jobs, |runs| {
        let rows = ns.iter().map(|n| n.to_string()).zip(&jobs[1..]).collect();
        println!("{title}");
        print!("{}", table("N", SWEEP, &jobs[0], rows, runs).render());
    });
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let args: Vec<String> = args.collect();
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

    #[test]
    fn compare_lists_each_policy_once_after_the_baseline() {
        let policies = compare_policies(&args(&["LRU", "P(8):S&E", "M:1"])).unwrap();
        assert_eq!(
            policies,
            [PolicySpec::BASELINE, "P(8):S&E".parse().unwrap()]
        );
        let defaults = compare_policies(&[]).unwrap();
        assert_eq!(defaults[..2], [PolicySpec::BASELINE, PolicySpec::PREFERRED]);
        assert_eq!(defaults.len(), 4);
        assert!(compare_policies(&args(&["P(8):X"])).is_err());
    }

    #[test]
    fn a_failed_baseline_renders_failed_speedups() {
        let cfg = config(&mut args(&["--warmup", "1000", "--instrs", "4000"])).unwrap();
        let policies = compare_policies(&args(&["P(8):S&E"])).unwrap();
        let jobs = matrix_jobs(&[Profile::by_name("xapian").unwrap()], &cfg, &policies);
        let baseline = emissary::bench::JobOutcome::Panicked {
            benchmark: "xapian".into(),
            policy: "M:1".into(),
            message: "boom".into(),
        };
        let run = jobs[1]
            .run_checked_metered(&emissary::sim::FaultConfig::none(), None, "main")
            .unwrap();
        let completed = emissary::bench::JobOutcome::Completed {
            run: Box::new(run),
            resumed: false,
        };
        let runs = Runs::from_outcomes(&jobs, vec![baseline, completed]);
        let rows = compare_table(&jobs, &runs).rows().to_vec();
        assert_eq!(rows[0], ["M:1", FAILED, FAILED, FAILED, FAILED]);
        assert_eq!(rows[1][0], "P(8):S&E");
        assert_ne!(rows[1][1], FAILED, "the run's own cycles still print");
        assert_eq!(rows[1][2], FAILED, "no speedup without a baseline");
    }
}
