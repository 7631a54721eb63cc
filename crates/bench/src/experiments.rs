//! One experiment per paper table/figure. See DESIGN.md §4 for the index.
//!
//! Every function takes a [`SimConfig`] template (run lengths and model
//! already set) and returns an [`Experiment`] holding rendered tables. The
//! binaries in `src/bin/` print them; the campaign test suite and the
//! `benchmark/` campaign workload run them with tiny windows.
//!
//! Jobs run under the fault-isolating pool ([`crate::pool`]): a job that
//! panics, times out, stalls, or fails validation becomes a `FAILED` cell
//! (and a "failed jobs" table) instead of aborting the experiment, and
//! aggregate rows (averages, geomeans, #Best counts) are computed over
//! the successful runs only.

use std::collections::HashMap;

use emissary_core::selection::SelectionExpr;
use emissary_core::spec::PolicySpec;
use emissary_sim::{SimConfig, SimReport};
use emissary_stats::summary::{geomean, speedup_pct};
use emissary_stats::table::{fixed, pct_value, Table};
use emissary_workloads::Profile;

use crate::pool::JobOutcome;
use crate::{results, Job};

/// Cell text standing in for a value whose run did not complete.
pub const FAILED: &str = "FAILED";

/// A titled collection of result tables.
#[derive(Debug)]
pub struct Experiment {
    /// Human-readable experiment title.
    pub title: String,
    /// `(caption, table)` pairs.
    pub tables: Vec<(String, Table)>,
}

impl Experiment {
    /// Renders the whole experiment (aligned tables + TSV blocks).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n\n", self.title));
        for (caption, table) in &self.tables {
            out.push_str(&format!("## {caption}\n\n"));
            out.push_str(&table.render());
            out.push_str("\nTSV:\n");
            out.push_str(&table.render_tsv());
            out.push('\n');
        }
        out
    }
}

/// The paper's preferred EMISSARY configuration.
pub fn preferred() -> PolicySpec {
    PolicySpec::PREFERRED
}

fn parse(s: &str) -> PolicySpec {
    s.parse()
        .unwrap_or_else(|e| panic!("bad policy {s:?}: {e}"))
}

/// One `profiles × policies` sweep request over a config template — the
/// declarative form of a [`run_matrix`] call. Each experiment builds its
/// specs once and both the execution path ([`MatrixSpec::run`]) and the
/// campaign planner ([`MatrixSpec::jobs`], [`campaign_jobs`]) derive from
/// them, so the jobs an experiment *plans* are exactly the jobs it
/// *runs* (fingerprints included).
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// Benchmarks to sweep.
    pub profiles: Vec<Profile>,
    /// Config template (policy field overridden per job).
    pub template: SimConfig,
    /// Policies to sweep.
    pub policies: Vec<PolicySpec>,
}

impl MatrixSpec {
    /// The jobs this sweep will submit, in submission order.
    pub fn jobs(&self) -> Vec<Job> {
        matrix_jobs(&self.profiles, &self.template, &self.policies)
    }

    /// Runs the sweep (see [`run_matrix`]).
    pub fn run(&self) -> Matrix {
        run_matrix(&self.profiles, &self.template, &self.policies)
    }
}

/// The job list of one `profiles × policies` sweep. Used by both
/// [`run_matrix`] and the campaign planner, so planned and executed
/// fingerprints can never drift.
pub fn matrix_jobs(
    profiles: &[Profile],
    template: &SimConfig,
    policies: &[PolicySpec],
) -> Vec<Job> {
    profiles
        .iter()
        .flat_map(|p| {
            policies
                .iter()
                .map(move |&pol| Job::new(p.clone(), template, pol))
        })
        .collect()
}

/// The completed runs of one `profiles x policies` sweep, plus the jobs
/// that did not complete.
#[derive(Debug, Default)]
pub struct Matrix {
    reports: HashMap<(String, String), SimReport>,
    failures: Vec<results::JobFailure>,
}

impl Matrix {
    /// The completed report for `bench` under `policy`, if the run
    /// finished.
    pub fn get(&self, bench: &str, policy: &PolicySpec) -> Option<&SimReport> {
        self.reports.get(&(bench.to_string(), policy.to_string()))
    }

    /// Jobs that panicked, aborted, or were rejected.
    pub fn failures(&self) -> &[results::JobFailure] {
        &self.failures
    }
}

/// Runs `policies` x `profiles` on the template under fault isolation.
/// Every completed run (with its interval samples, when enabled) is
/// appended to the [`results`] run log, and every failure to the failure
/// log, so the binaries' JSONL output covers both.
pub fn run_matrix(profiles: &[Profile], template: &SimConfig, policies: &[PolicySpec]) -> Matrix {
    let jobs = matrix_jobs(profiles, template, policies);
    let mut matrix = Matrix::default();
    for outcome in crate::pool::run_parallel_outcomes(&jobs) {
        match outcome {
            JobOutcome::Completed { run, .. } => {
                results::log_run(&run);
                matrix.reports.insert(
                    (run.report.benchmark.clone(), run.report.policy.clone()),
                    run.report,
                );
            }
            failed => {
                results::log_failure(&failed);
                if let Some(f) = results::JobFailure::from_outcome(&failed) {
                    eprintln!("run: {}/{} {}", f.benchmark, f.policy, f.detail);
                    matrix.failures.push(f);
                }
            }
        }
    }
    matrix
}

/// A row of `FAILED` cells after a leading label.
fn failed_row(label: &str, cells: usize) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(std::iter::repeat_n(FAILED.to_string(), cells));
    row
}

/// The "failed jobs" table appended to an experiment when any of its
/// matrices had failures (`None` when all jobs completed).
fn failures_table(matrices: &[&Matrix]) -> Option<(String, Table)> {
    let mut t = Table::with_headers(&["benchmark", "policy", "status", "detail"]);
    let mut any = false;
    for m in matrices {
        for f in m.failures() {
            any = true;
            t.row(vec![
                f.benchmark.clone(),
                f.policy.clone(),
                f.status.clone(),
                f.detail.clone(),
            ]);
        }
    }
    any.then(|| {
        (
            "failed jobs (excluded from aggregates above)".to_string(),
            t,
        )
    })
}

/// Geomean % speedup of `policy` over `baseline` across the benchmarks
/// where both runs completed (`None` when no benchmark has both).
fn geomean_speedup(
    matrix: &Matrix,
    benches: &[&str],
    baseline: &PolicySpec,
    policy: &PolicySpec,
) -> Option<f64> {
    let ratios: Vec<f64> = benches
        .iter()
        .filter_map(|b| {
            let base = matrix.get(b, baseline)?;
            let pol = matrix.get(b, policy)?;
            Some(base.cycles as f64 / pol.cycles as f64)
        })
        .collect();
    geomean(&ratios).map(speedup_pct)
}

/// `fixed` for a value that may come from a failed run.
fn fixed_opt(v: Option<f64>, prec: usize) -> String {
    v.map(|v| fixed(v, prec)).unwrap_or_else(|| FAILED.into())
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// The sweeps Figure 1 runs: tomcat on the Figure 1 model (true LRU, no
/// prefetchers) under the five-policy persistence progression.
pub fn fig1_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let mut cfg = SimConfig::figure1();
    cfg.warmup_instrs = template.warmup_instrs;
    cfg.measure_instrs = template.measure_instrs;
    vec![MatrixSpec {
        profiles: vec![Profile::by_name("tomcat").expect("tomcat profile")],
        template: cfg,
        policies: vec![
            parse("M:1"),
            parse("M:S"),
            parse("P(8):S"),
            parse("P(8):S&E"),
            parse("P(8):S&E&R(1/32)"),
        ],
    }]
}

/// Figure 1: tomcat on a 1M 16-way true-LRU L2 with no prefetchers —
/// speedup vs. L2 instruction MPKI, decode rate, L2 data MPKI, issue rate
/// for the policy progression that motivates persistence.
pub fn fig1(template: &SimConfig) -> Experiment {
    let specs = fig1_specs(template);
    let spec = &specs[0];
    let policies = &spec.policies;
    let matrix = spec.run();
    let base_cycles = matrix.get("tomcat", &policies[0]).map(|r| r.cycles);
    let mut t = Table::with_headers(&[
        "policy",
        "speedup",
        "l2_instr_mpki",
        "decode_rate",
        "l2_data_mpki",
        "issue_rate",
        "starv_cycles",
    ]);
    for p in policies {
        match matrix.get("tomcat", p) {
            Some(r) => t.row(vec![
                p.to_string(),
                base_cycles
                    .map(|b| pct_value(speedup_pct(b as f64 / r.cycles as f64)))
                    .unwrap_or_else(|| FAILED.into()),
                fixed(r.l2i_mpki, 3),
                fixed(r.decode_rate(), 4),
                fixed(r.l2d_mpki, 3),
                fixed(r.issue_rate(), 4),
                r.starvation_cycles.to_string(),
            ]),
            None => t.row(failed_row(&p.to_string(), 6)),
        }
    }
    let mut tables = vec![("tomcat policy progression".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 1 — persistence motivation on tomcat (true LRU, no prefetchers)".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// The all-benchmarks × TPLRU+FDIP-baseline sweep shared by Figures 2–4
/// (identical specs, so campaign dedup collapses them to one set of runs).
fn baseline_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies: vec![PolicySpec::BASELINE],
    }]
}

/// The sweeps Figure 2 runs (the shared baseline matrix).
pub fn fig2_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    baseline_specs(template)
}

/// Figure 2: reuse-distance mix of committed-path line accesses, the share
/// of L2 instruction misses from long-reuse lines, and the distribution of
/// starvation cycles across reuse classes.
pub fn fig2(template: &SimConfig) -> Experiment {
    let specs = fig2_specs(template);
    let profiles = specs[0].profiles.clone();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&[
        "benchmark",
        "acc_short%",
        "acc_mid%",
        "acc_long%",
        "l2_misses_from_long%",
        "starve_short%",
        "starve_mid%",
        "starve_long%",
    ]);
    let mut sums = [0.0f64; 7];
    let mut ok = 0usize;
    for p in &profiles {
        let Some(r) = matrix.get(p.name, &PolicySpec::BASELINE) else {
            t.row(failed_row(p.name, 7));
            continue;
        };
        // Access mix from the tracker (cold counts as long, like the
        // attribution path).
        let short = r.reuse.short as f64;
        let mid = r.reuse.mid as f64;
        let long = (r.reuse.long + r.reuse.cold) as f64;
        let acc_total = (short + mid + long).max(1.0);
        let misses =
            (r.reuse_attribution.l2_miss_long + r.reuse_attribution.l2_miss_other).max(1) as f64;
        let starv = (r.reuse_attribution.starve_short
            + r.reuse_attribution.starve_mid
            + r.reuse_attribution.starve_long)
            .max(1) as f64;
        let row = [
            short / acc_total * 100.0,
            mid / acc_total * 100.0,
            long / acc_total * 100.0,
            r.reuse_attribution.l2_miss_long as f64 / misses * 100.0,
            r.reuse_attribution.starve_short as f64 / starv * 100.0,
            r.reuse_attribution.starve_mid as f64 / starv * 100.0,
            r.reuse_attribution.starve_long as f64 / starv * 100.0,
        ];
        ok += 1;
        for (a, v) in sums.iter_mut().zip(row) {
            *a += v;
        }
        let mut cells = vec![p.name.to_string()];
        cells.extend(row.iter().map(|v| fixed(*v, 1)));
        t.row(cells);
    }
    let mut cells = vec!["average".to_string()];
    cells.extend(
        sums.iter()
            .map(|v| fixed_opt((ok > 0).then(|| v / ok as f64), 1)),
    );
    t.row(cells);
    let mut tables = vec![(
        "per-benchmark reuse behaviour (TPLRU+FDIP baseline)".to_string(),
        t,
    )];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 2 — reuse-distance mix, long-reuse L2 misses, starvation attribution".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// The sweeps Figure 3 runs (the shared baseline matrix).
pub fn fig3_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    baseline_specs(template)
}

/// Figure 3: L1I / L1D / L2-instruction / L2-data MPKI per benchmark on the
/// TPLRU + FDIP baseline.
pub fn fig3(template: &SimConfig) -> Experiment {
    let specs = fig3_specs(template);
    let profiles = specs[0].profiles.clone();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&[
        "benchmark",
        "l1i_mpki",
        "l1d_mpki",
        "l2_instr_mpki",
        "l2_data_mpki",
    ]);
    let mut sums = [0.0f64; 4];
    let mut ok = 0usize;
    for p in &profiles {
        let Some(r) = matrix.get(p.name, &PolicySpec::BASELINE) else {
            t.row(failed_row(p.name, 4));
            continue;
        };
        let row = [r.l1i_mpki, r.l1d_mpki, r.l2i_mpki, r.l2d_mpki];
        ok += 1;
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
        let mut cells = vec![p.name.to_string()];
        cells.extend(row.iter().map(|v| fixed(*v, 2)));
        t.row(cells);
    }
    let mut cells = vec!["average".to_string()];
    cells.extend(
        sums.iter()
            .map(|s| fixed_opt((ok > 0).then(|| s / ok as f64), 2)),
    );
    t.row(cells);
    let mut tables = vec![("per-benchmark MPKI".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 3 — cache MPKIs on the TPLRU + FDIP baseline".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// The sweeps Figure 4 runs (the shared baseline matrix).
pub fn fig4_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    baseline_specs(template)
}

/// Figure 4: instruction footprint (MB of unique cache lines touched).
pub fn fig4(template: &SimConfig) -> Experiment {
    let specs = fig4_specs(template);
    let profiles = specs[0].profiles.clone();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&["benchmark", "instr_footprint_mb"]);
    let mut sum = 0.0;
    let mut ok = 0usize;
    for p in &profiles {
        let Some(r) = matrix.get(p.name, &PolicySpec::BASELINE) else {
            t.row(failed_row(p.name, 1));
            continue;
        };
        let mb = r.footprint_bytes as f64 / (1024.0 * 1024.0);
        sum += mb;
        ok += 1;
        t.row(vec![p.name.to_string(), fixed(mb, 2)]);
    }
    t.row(vec![
        "average".to_string(),
        fixed_opt((ok > 0).then(|| sum / ok as f64), 2),
    ]);
    let mut tables = vec![("unique instruction lines touched x 64 B".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 4 — instruction footprints".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Table 5
// ---------------------------------------------------------------------------

/// A named factory producing a `P(N)` policy for a given `N`.
pub type PolicyColumn = (String, Box<dyn Fn(usize) -> PolicySpec>);

/// Column labels of Table 5, in the paper's order.
pub fn table5_columns() -> Vec<PolicyColumn> {
    fn protect(n: usize, sel: SelectionExpr) -> PolicySpec {
        PolicySpec::Protect { n, selection: sel }
    }
    let mut cols: Vec<PolicyColumn> = Vec::new();
    cols.push((
        "S&E".to_string(),
        Box::new(|n| protect(n, SelectionExpr::STARVATION_EMPTY_IQ)),
    ));
    for r in [2u32, 8, 16, 32, 64] {
        cols.push((
            format!("R(1/{r})"),
            Box::new(move |n| protect(n, SelectionExpr::random(r))),
        ));
    }
    for r in [2u32, 8, 16, 32, 64] {
        cols.push((
            format!("S&E&R(1/{r})"),
            Box::new(move |n| {
                protect(
                    n,
                    SelectionExpr::Conj {
                        starvation: true,
                        empty_iq: true,
                        random_one_in: Some(r),
                    },
                )
            }),
        ));
    }
    cols
}

/// The `N` values Table 5 sweeps, in the paper's order.
pub const TABLE5_NS: [usize; 7] = [2, 4, 6, 8, 10, 12, 14];

/// The sweeps Table 5 runs: every benchmark under the baseline plus the
/// full `P(N)` × selection-expression grid (sorted and deduplicated).
pub fn table5_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let cols = table5_columns();
    let mut policies = vec![PolicySpec::BASELINE];
    for &n in &TABLE5_NS {
        for (_, make) in &cols {
            policies.push(make(n));
        }
    }
    policies.sort_by_key(|p| p.to_string());
    policies.dedup();
    vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies,
    }]
}

/// Table 5: geomean speedup over the LRU+FDIP baseline across all 13
/// benchmarks for `r` in {1/2..1/64} and `N` in {2..14}, plus the paper's
/// "#Best" row and column.
pub fn table5(template: &SimConfig) -> Experiment {
    let specs = table5_specs(template);
    let profiles = &specs[0].profiles;
    let bench_names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    let ns = TABLE5_NS;
    let cols = table5_columns();
    let matrix = specs[0].run();
    // Geomean grid; a cell is None when no benchmark completed both runs.
    let mut grid: Vec<Vec<Option<f64>>> = Vec::new();
    for &n in &ns {
        let row: Vec<Option<f64>> = cols
            .iter()
            .map(|(_, make)| {
                geomean_speedup(&matrix, &bench_names, &PolicySpec::BASELINE, &make(n))
            })
            .collect();
        grid.push(row);
    }
    // "#Best": count of per-column maxima in each row and vice versa.
    // Failed cells rank below every real value (NEG_INFINITY, not NaN —
    // total_cmp ranks NaN greatest).
    let cell = |r: usize, c: usize| grid[r][c].unwrap_or(f64::NEG_INFINITY);
    let col_best: Vec<usize> = (0..cols.len())
        .map(|c| {
            (0..ns.len())
                .max_by(|&a, &b| cell(a, c).total_cmp(&cell(b, c)))
                .expect("non-empty")
        })
        .collect();
    let row_best: Vec<usize> = (0..ns.len())
        .map(|r| {
            (0..cols.len())
                .max_by(|&a, &b| cell(r, a).total_cmp(&cell(r, b)))
                .expect("non-empty")
        })
        .collect();
    let mut headers = vec!["P(N)".to_string()];
    headers.extend(cols.iter().map(|(name, _)| name.clone()));
    headers.push("#Best".to_string());
    let mut t = Table::new(headers);
    for (ri, &n) in ns.iter().enumerate() {
        let mut cells = vec![n.to_string()];
        cells.extend(grid[ri].iter().map(|v| fixed_opt(*v, 3)));
        let best_in_row = col_best.iter().filter(|&&b| b == ri).count();
        cells.push(best_in_row.to_string());
        t.row(cells);
    }
    let mut cells = vec!["#Best".to_string()];
    for c in 0..cols.len() {
        cells.push(row_best.iter().filter(|&&b| b == c).count().to_string());
    }
    cells.push("-".to_string());
    t.row(cells);
    let mut tables = vec![("P(N) policy grid".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Table 5 — geomean speedup (%) vs LRU+FDIP baseline over r and N".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// A named factory producing one `P(N)` policy family member per `N`.
type Fig5Family = (&'static str, Box<dyn Fn(usize) -> PolicySpec>);

/// The Figure 5 policy series: the four `M:*` policies, the three `P(N)`
/// families, and the swept `N` values — shared by the spec builder and
/// the row renderer so they cannot diverge.
fn fig5_series() -> (Vec<PolicySpec>, Vec<Fig5Family>, Vec<usize>) {
    let m_policies = vec![
        parse("M:0"),
        parse("M:R(1/32)"),
        parse("M:S&E"),
        parse("M:S&E&R(1/32)"),
    ];
    let p_families: Vec<Fig5Family> = vec![
        (
            "P(N):R(1/32)",
            Box::new(|n| parse(&format!("P({n}):R(1/32)"))),
        ),
        ("P(N):S&E", Box::new(|n| parse(&format!("P({n}):S&E")))),
        (
            "P(N):S&E&R(1/32)",
            Box::new(|n| parse(&format!("P({n}):S&E&R(1/32)"))),
        ),
    ];
    let ns = vec![0usize, 2, 4, 6, 8, 10, 12, 14];
    (m_policies, p_families, ns)
}

/// The sweeps Figure 5 runs: every benchmark but tpcc under the baseline,
/// the `M:*` policies, and the `P(N)` families over the `N` sweep.
pub fn fig5_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let (m_policies, p_families, ns) = fig5_series();
    let mut policies = vec![PolicySpec::BASELINE];
    policies.extend(m_policies);
    for (_, make) in &p_families {
        for &n in &ns {
            policies.push(make(n));
        }
    }
    policies.sort_by_key(|p| p.to_string());
    policies.dedup();
    vec![MatrixSpec {
        profiles: Profile::all()
            .into_iter()
            .filter(|p| p.name != "tpcc")
            .collect(),
        template: template.clone(),
        policies,
    }]
}

/// Figure 5: per-benchmark speedup vs. L2-instruction MPKI and vs. change
/// in starvation (decode + empty IQ) for the six line-policies as `N`
/// sweeps 0..14 (tpcc omitted, as in the paper).
pub fn fig5(template: &SimConfig) -> Experiment {
    let specs = fig5_specs(template);
    let profiles = specs[0].profiles.clone();
    let (m_policies, p_families, ns) = fig5_series();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&[
        "benchmark",
        "policy",
        "speedup",
        "l2_instr_mpki",
        "delta_starvation_empty_iq%",
    ]);
    for p in &profiles {
        let base = matrix.get(p.name, &PolicySpec::BASELINE);
        let mut add_row = |policy: &PolicySpec| match matrix.get(p.name, policy) {
            Some(r) => {
                let speed = base
                    .map(|b| pct_value(speedup_pct(b.cycles as f64 / r.cycles as f64)))
                    .unwrap_or_else(|| FAILED.into());
                let d_starve = fixed_opt(
                    base.map(|b| {
                        emissary_stats::summary::pct_change(
                            b.starvation_empty_iq_cycles as f64,
                            r.starvation_empty_iq_cycles as f64,
                        )
                    }),
                    1,
                );
                t.row(vec![
                    p.name.to_string(),
                    policy.to_string(),
                    speed,
                    fixed(r.l2i_mpki, 3),
                    d_starve,
                ]);
            }
            None => {
                let mut row = failed_row(p.name, 4);
                row[1] = policy.to_string();
                t.row(row);
            }
        };
        for mp in &m_policies {
            add_row(mp);
        }
        for (_, make) in &p_families {
            for &n in &ns {
                add_row(&make(n));
            }
        }
    }
    let mut tables = vec![("per-benchmark policy series".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 5 — speedup vs MPKI and vs starvation change, N sweep".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// The sweeps Figure 6 runs: every benchmark under the baseline and the
/// preferred EMISSARY configuration.
pub fn fig6_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies: vec![PolicySpec::BASELINE, preferred()],
    }]
}

/// Figure 6: reduction in commit-path FE / BE / total stall cycles of
/// P(8):S&E&R(1/32) relative to the TPLRU+FDIP baseline.
pub fn fig6(template: &SimConfig) -> Experiment {
    let specs = fig6_specs(template);
    let profiles = specs[0].profiles.clone();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&[
        "benchmark",
        "fe_stall_reduction%",
        "be_stall_reduction%",
        "total_stall_reduction%",
    ]);
    let mut sums = [0.0f64; 3];
    let mut ok = 0usize;
    for p in &profiles {
        let (Some(base), Some(emis)) = (
            matrix.get(p.name, &PolicySpec::BASELINE),
            matrix.get(p.name, &preferred()),
        ) else {
            t.row(failed_row(p.name, 3));
            continue;
        };
        let row = [
            emissary_stats::summary::pct_reduction(
                base.fe_stall_cycles as f64,
                emis.fe_stall_cycles as f64,
            ),
            emissary_stats::summary::pct_reduction(
                base.be_stall_cycles as f64,
                emis.be_stall_cycles as f64,
            ),
            emissary_stats::summary::pct_reduction(
                base.total_stall_cycles() as f64,
                emis.total_stall_cycles() as f64,
            ),
        ];
        ok += 1;
        for (a, v) in sums.iter_mut().zip(row) {
            *a += v;
        }
        let mut cells = vec![p.name.to_string()];
        cells.extend(row.iter().map(|v| fixed(*v, 2)));
        t.row(cells);
    }
    let mut cells = vec!["average".to_string()];
    cells.extend(
        sums.iter()
            .map(|v| fixed_opt((ok > 0).then(|| v / ok as f64), 2)),
    );
    t.row(cells);
    let mut tables = vec![("commit-path stall reductions".to_string(), t)];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 6 — stall-cycle reduction of P(8):S&E&R(1/32) vs baseline".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// The 12 comparison techniques of Figure 7, in the paper's legend order.
pub fn fig7_policies() -> Vec<PolicySpec> {
    vec![
        parse("M:0"),
        parse("DCLIP"),
        parse("SRRIP"),
        parse("BRRIP"),
        parse("DRRIP"),
        parse("PDP"),
        parse("M:R(1/32)"),
        parse("M:S&E"),
        parse("M:S&E&R(1/32)"),
        parse("P(8):R(1/32)"),
        parse("P(8):S&E"),
        parse("P(8):S&E&R(1/32)"),
    ]
}

/// The sweeps Figure 7 runs: every benchmark under the baseline plus the
/// 12 comparison techniques.
pub fn fig7_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let mut policies = fig7_policies();
    policies.insert(0, PolicySpec::BASELINE);
    vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies,
    }]
}

/// Figure 7: speedup and energy reduction of every technique relative to
/// the TPLRU + FDIP baseline, per benchmark plus geomean.
pub fn fig7(template: &SimConfig) -> Experiment {
    let specs = fig7_specs(template);
    let profiles = specs[0].profiles.clone();
    let bench_names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    let matrix = specs[0].run();
    let techniques = fig7_policies();

    let mut headers = vec!["benchmark".to_string()];
    headers.extend(techniques.iter().map(|p| p.to_string()));
    let mut speed = Table::new(headers.clone());
    let mut energy = Table::new(headers);
    for p in &profiles {
        let base = matrix.get(p.name, &PolicySpec::BASELINE);
        let mut srow = vec![p.name.to_string()];
        let mut erow = vec![p.name.to_string()];
        for tech in &techniques {
            match (base, matrix.get(p.name, tech)) {
                (Some(base), Some(r)) => {
                    srow.push(fixed(speedup_pct(base.cycles as f64 / r.cycles as f64), 2));
                    erow.push(fixed(
                        (base.energy_pj - r.energy_pj) / base.energy_pj * 100.0,
                        2,
                    ));
                }
                _ => {
                    srow.push(FAILED.into());
                    erow.push(FAILED.into());
                }
            }
        }
        speed.row(srow);
        energy.row(erow);
    }
    // Geomean rows, over the benchmarks where both runs completed.
    let mut srow = vec!["geomean".to_string()];
    let mut erow = vec!["geomean".to_string()];
    for tech in &techniques {
        srow.push(fixed_opt(
            geomean_speedup(&matrix, &bench_names, &PolicySpec::BASELINE, tech),
            2,
        ));
        let ratios: Vec<f64> = bench_names
            .iter()
            .filter_map(|b| {
                let base = matrix.get(b, &PolicySpec::BASELINE)?;
                let r = matrix.get(b, tech)?;
                Some(r.energy_pj / base.energy_pj)
            })
            .collect();
        erow.push(fixed_opt(geomean(&ratios).map(|g| (1.0 - g) * 100.0), 2));
    }
    speed.row(srow);
    energy.row(erow);
    let mut tables = vec![
        ("speedup (%)".to_string(), speed),
        ("energy reduction (%)".to_string(), energy),
    ];
    tables.extend(failures_table(&[&matrix]));
    Experiment {
        title: "Figure 7 — speedup and energy reduction vs TPLRU+FDIP baseline".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// The sweeps Figure 8 runs: every benchmark under the two `P(8)` selection
/// variants and, with `with_reset`, a second sweep of the preferred policy
/// under the §6 periodic priority reset (the paper's 128M-instruction
/// interval scaled to the measurement window).
pub fn fig8_specs(template: &SimConfig, with_reset: bool) -> Vec<MatrixSpec> {
    let mut specs = vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies: vec![parse("P(8):S&E"), parse("P(8):S&E&R(1/32)")],
    }];
    if with_reset {
        let mut reset_cfg = template.clone();
        reset_cfg.priority_reset_interval = Some((template.measure_instrs / 4).max(1));
        specs.push(MatrixSpec {
            profiles: Profile::all(),
            template: reset_cfg,
            policies: vec![parse("P(8):S&E&R(1/32)")],
        });
    }
    specs
}

/// Figure 8: distribution of per-set high-priority line counts for
/// P(8):S&E vs P(8):S&E&R(1/32), averaged across benchmarks at the end of
/// simulation. With `with_reset`, adds a run using the §6 reset mechanism
/// and reports its performance impact.
pub fn fig8(template: &SimConfig, with_reset: bool) -> Experiment {
    let specs = fig8_specs(template, with_reset);
    let profiles = specs[0].profiles.clone();
    let policies = specs[0].policies.clone();
    let matrix = specs[0].run();
    let mut t = Table::with_headers(&[
        "high_priority_lines_per_set",
        "P(8):S&E  % of sets",
        "P(8):S&E&R(1/32)  % of sets",
    ]);
    let mut dist = [[0.0f64; 9]; 2];
    for (pi, pol) in policies.iter().enumerate() {
        let mut ok = 0usize;
        for p in &profiles {
            let Some(r) = matrix.get(p.name, pol) else {
                continue;
            };
            ok += 1;
            let total: u64 = r.priority_histogram.iter().sum();
            for (bucket, &count) in r.priority_histogram.iter().enumerate() {
                let b = bucket.min(8);
                dist[pi][b] += count as f64 / total.max(1) as f64;
            }
        }
        for d in &mut dist[pi] {
            *d /= ok.max(1) as f64;
        }
    }
    for (b, (d0, d1)) in dist[0].iter().zip(&dist[1]).enumerate() {
        t.row(vec![
            b.to_string(),
            fixed(d0 * 100.0, 2),
            fixed(d1 * 100.0, 2),
        ]);
    }
    let mut tables = vec![(
        "per-set P=1 count distribution (avg over benchmarks)".to_string(),
        t,
    )];
    if with_reset {
        let reset_matrix = specs[1].run();
        let mut rt = Table::with_headers(&["benchmark", "reset_speedup_vs_no_reset%"]);
        for p in &profiles {
            let (Some(no_reset), Some(with)) = (
                matrix.get(p.name, &policies[1]),
                reset_matrix.get(p.name, &policies[1]),
            ) else {
                rt.row(failed_row(p.name, 1));
                continue;
            };
            rt.row(vec![
                p.name.to_string(),
                fixed(speedup_pct(no_reset.cycles as f64 / with.cycles as f64), 3),
            ]);
        }
        tables.push(("§6 reset impact (P(8):S&E&R(1/32))".into(), rt));
        tables.extend(failures_table(&[&matrix, &reset_matrix]));
    } else {
        tables.extend(failures_table(&[&matrix]));
    }
    Experiment {
        title: "Figure 8 — saturation of high-priority lines per set".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// §5.6 ideal L2
// ---------------------------------------------------------------------------

/// The sweeps the §5.6 ideal-L2 experiment runs: every benchmark under
/// the baseline and preferred policies on the real hierarchy, plus the
/// baseline on a zero-cycle-miss L2 instruction cache.
pub fn ideal_l2_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let mut ideal_cfg = template.clone();
    ideal_cfg.hierarchy.ideal_l2_instr = true;
    vec![
        MatrixSpec {
            profiles: Profile::all(),
            template: template.clone(),
            policies: vec![PolicySpec::BASELINE, preferred()],
        },
        MatrixSpec {
            profiles: Profile::all(),
            template: ideal_cfg,
            policies: vec![PolicySpec::BASELINE],
        },
    ]
}

/// §5.6 contextualization: speedup of an unrealizable zero-cycle-miss L2
/// instruction cache, and EMISSARY's gain as a fraction of that bound.
pub fn ideal_l2(template: &SimConfig) -> Experiment {
    let specs = ideal_l2_specs(template);
    let profiles = specs[0].profiles.clone();
    let matrix = specs[0].run();
    let ideal_matrix = specs[1].run();
    let mut t = Table::with_headers(&[
        "benchmark",
        "ideal_speedup%",
        "emissary_speedup%",
        "emissary_share_of_ideal%",
    ]);
    let mut ideal_ratios = Vec::new();
    let mut emis_ratios = Vec::new();
    for p in &profiles {
        let (Some(base), Some(emis), Some(ideal)) = (
            matrix.get(p.name, &PolicySpec::BASELINE),
            matrix.get(p.name, &preferred()),
            ideal_matrix.get(p.name, &PolicySpec::BASELINE),
        ) else {
            t.row(failed_row(p.name, 3));
            continue;
        };
        let ideal_pct = speedup_pct(base.cycles as f64 / ideal.cycles as f64);
        let emis_pct = speedup_pct(base.cycles as f64 / emis.cycles as f64);
        ideal_ratios.push(base.cycles as f64 / ideal.cycles as f64);
        emis_ratios.push(base.cycles as f64 / emis.cycles as f64);
        let share = if ideal_pct.abs() < 1e-9 {
            0.0
        } else {
            emis_pct / ideal_pct * 100.0
        };
        t.row(vec![
            p.name.to_string(),
            fixed(ideal_pct, 2),
            fixed(emis_pct, 2),
            fixed(share, 1),
        ]);
    }
    let g_ideal = geomean(&ideal_ratios).map(speedup_pct);
    let g_emis = geomean(&emis_ratios).map(speedup_pct);
    let share = match (g_ideal, g_emis) {
        (Some(i), Some(e)) if i.abs() >= 1e-9 => Some(e / i * 100.0),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    };
    t.row(vec![
        "geomean".into(),
        fixed_opt(g_ideal, 2),
        fixed_opt(g_emis, 2),
        fixed_opt(share, 1),
    ]);
    let mut tables = vec![("speedups over the FDIP baseline".to_string(), t)];
    tables.extend(failures_table(&[&matrix, &ideal_matrix]));
    Experiment {
        title: "§5.6 — EMISSARY vs the unrealizable zero-cycle-miss ideal L2".into(),
        tables,
    }
}

// ---------------------------------------------------------------------------
// Campaign planning
// ---------------------------------------------------------------------------

/// The full reproduction sweep's per-experiment specs, in execution order,
/// keyed by experiment name — exactly the sweeps `all_experiments` runs
/// (Figure 8 with its §6 reset sweep included).
pub fn campaign_specs(template: &SimConfig) -> Vec<(&'static str, Vec<MatrixSpec>)> {
    vec![
        ("fig1", fig1_specs(template)),
        ("fig2", fig2_specs(template)),
        ("fig3", fig3_specs(template)),
        ("fig4", fig4_specs(template)),
        ("table5", table5_specs(template)),
        ("fig5", fig5_specs(template)),
        ("fig6", fig6_specs(template)),
        ("fig7", fig7_specs(template)),
        ("fig8", fig8_specs(template, true)),
        ("ideal_l2", ideal_l2_specs(template)),
    ]
}

/// Every job the full reproduction sweep will request, in execution order,
/// duplicates included. Built from the same spec functions the experiments
/// execute through, so planned job fingerprints are exactly the executed
/// ones — the campaign prefetch can never drift from the figures.
pub fn campaign_jobs(template: &SimConfig) -> Vec<Job> {
    campaign_specs(template)
        .iter()
        .flat_map(|(_, specs)| specs.iter().flat_map(|s| s.jobs()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultInjection;

    #[test]
    fn fig7_has_twelve_techniques_in_order() {
        let p = fig7_policies();
        assert_eq!(p.len(), 12);
        assert_eq!(p[0].to_string(), "M:0");
        assert_eq!(p[11].to_string(), "P(8):S&E&R(1/32)");
    }

    #[test]
    fn table5_columns_match_paper() {
        let cols = table5_columns();
        assert_eq!(cols.len(), 11);
        assert_eq!(cols[0].0, "S&E");
        assert_eq!(cols[1].0, "R(1/2)");
        assert_eq!(cols[10].0, "S&E&R(1/64)");
        // Column factories produce the right notation.
        assert_eq!(cols[10].1(8).to_string(), "P(8):S&E&R(1/64)");
    }

    #[test]
    fn experiment_renders_tables() {
        let e = Experiment {
            title: "T".into(),
            tables: vec![("c".into(), Table::with_headers(&["a"]))],
        };
        let s = e.render();
        assert!(s.contains("# T"));
        assert!(s.contains("## c"));
        assert!(s.contains("TSV:"));
    }

    #[test]
    fn campaign_plan_overlaps_across_figures() {
        let template = SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..SimConfig::default()
        };
        let jobs = campaign_jobs(&template);
        let unique: std::collections::HashSet<String> =
            jobs.iter().map(crate::checkpoint::fingerprint).collect();
        assert!(!jobs.is_empty());
        // Figures 2–4 share the all-benchmarks baseline sweep, and Table 5
        // and Figure 7 request it again — the plan must contain real
        // overlap for campaign dedup to collapse.
        assert!(
            unique.len() < jobs.len(),
            "no overlap: {} unique of {}",
            unique.len(),
            jobs.len()
        );
        let fp_of = |specs: Vec<MatrixSpec>| -> Vec<String> {
            specs
                .iter()
                .flat_map(|s| s.jobs())
                .map(|j| crate::checkpoint::fingerprint(&j))
                .collect()
        };
        assert_eq!(fp_of(fig2_specs(&template)), fp_of(fig3_specs(&template)));
        assert_eq!(fp_of(fig3_specs(&template)), fp_of(fig4_specs(&template)));
        // The reset sweep is part of the plan only when Figure 8 runs it.
        assert!(
            fp_of(fig8_specs(&template, true)).len() > fp_of(fig8_specs(&template, false)).len()
        );
    }

    #[test]
    fn matrix_records_failures_without_dropping_successes() {
        let template = SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..SimConfig::default()
        };
        let profile = Profile::by_name("xapian").unwrap();
        let good = Job::new(profile.clone(), &template, PolicySpec::BASELINE);
        let mut bad = Job::new(profile.clone(), &template, preferred());
        bad.inject = Some(FaultInjection::Panic);
        let mut matrix = Matrix::default();
        for outcome in crate::pool::run_parallel_outcomes_with(
            &[good, bad],
            &crate::PoolOptions::with_workers(2),
            None,
        ) {
            match outcome {
                JobOutcome::Completed { run, .. } => {
                    matrix.reports.insert(
                        (run.report.benchmark.clone(), run.report.policy.clone()),
                        run.report,
                    );
                }
                failed => matrix
                    .failures
                    .extend(results::JobFailure::from_outcome(&failed)),
            }
        }
        assert!(matrix.get("xapian", &PolicySpec::BASELINE).is_some());
        assert!(matrix.get("xapian", &preferred()).is_none());
        assert_eq!(matrix.failures().len(), 1);
        assert_eq!(matrix.failures()[0].status, "panicked");
        let (caption, table) = failures_table(&[&matrix]).expect("one failure");
        assert!(caption.contains("failed jobs"));
        assert_eq!(table.rows().len(), 1);
    }
}
