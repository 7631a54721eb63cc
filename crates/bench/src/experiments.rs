//! One experiment per paper table/figure, plus three studies of the
//! design choices. See DESIGN.md §4 for the index.
//!
//! Every experiment is a plan and a pure render, listed once in
//! [`EXPERIMENTS`]. The plan (`*_specs`) takes a [`SimConfig`] template
//! (run lengths and model already set) and returns the
//! `profiles × policies` sweeps the experiment needs. The render takes the
//! same template plus the [`Runs`] a campaign prefetch produced and
//! returns the experiment's title and tables; it borrows each report it
//! reads through its own [`MatrixSpec`]s and never runs a job (a read
//! outside the plan panics). [`Entry::render`] adds what the results file
//! holds: every completed run and failure of the plan, in plan order.
//! `all_experiments` plans, prefetches the union once, and renders; the
//! campaign test suite and the `benchmark/` campaign workload use the
//! same plans with tiny windows.
//!
//! A job that panicked, timed out, stalled, or failed validation is a
//! `FAILED` cell (and a row of the "failed jobs" table) instead of an
//! aborted experiment, and aggregate rows (averages, geomeans, #Best
//! counts) are computed over the successful runs only.

use emissary_cache::config::CacheConfig;
use emissary_cache::policy::RecencyBase;
use emissary_core::selection::SelectionExpr;
use emissary_core::spec::PolicySpec;
use emissary_sim::{SimConfig, SimReport, SimRun};
use emissary_stats::summary::{geomean, pct_reduction, speedup_pct};
use emissary_stats::table::{fixed, pct_value, Table};
use emissary_workloads::Profile;

use crate::campaign::Runs;
use crate::results::JobFailure;
use crate::Job;

/// Cell text standing in for a value whose run did not complete.
pub const FAILED: &str = "FAILED";

/// A titled collection of result tables, with the runs and failures they
/// were rendered from (written to the experiment's results file).
#[derive(Debug)]
pub struct Experiment<'r> {
    /// Human-readable experiment title.
    pub title: String,
    /// `(caption, table)` pairs.
    pub tables: Vec<(String, Table)>,
    /// The completed runs of the experiment's plan, in plan order.
    pub runs: Vec<&'r SimRun>,
    /// The experiment's jobs whose final outcome was a failure.
    pub failures: Vec<JobFailure>,
}

impl Experiment<'_> {
    /// An experiment with no runs or failures behind it.
    pub fn new(title: String, tables: Vec<(String, Table)>) -> Self {
        Self {
            title,
            tables,
            runs: Vec::new(),
            failures: Vec::new(),
        }
    }

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

/// One `profiles × policies` sweep over a config template. Each
/// experiment builds its specs once: the campaign planner submits their
/// [`MatrixSpec::jobs`] and the render reads the same jobs back through
/// them, so the jobs an experiment *plans* are exactly the jobs it
/// *reads* (fingerprints included).
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
    /// The jobs this sweep submits, in submission order.
    pub fn jobs(&self) -> Vec<Job> {
        matrix_jobs(&self.profiles, &self.template, &self.policies)
    }

    /// The report of `profile` under `policy`, borrowed from `runs`
    /// (`None` when that job did not complete).
    ///
    /// # Panics
    ///
    /// Panics, naming the job, if the sweep does not list it or `runs`
    /// lacks it: the plan and the render disagree.
    fn report<'r>(
        &self,
        runs: &'r Runs,
        profile: &Profile,
        policy: &PolicySpec,
    ) -> Option<&'r SimReport> {
        assert!(
            self.policies.contains(policy) && self.profiles.iter().any(|p| p.name == profile.name),
            "planner bug: the render read {}/{policy}, which its sweep does not list",
            profile.name
        );
        let job = Job::new(profile.clone(), &self.template, *policy);
        runs.get(&job).run().map(|run| &run.report)
    }

    /// The `(baseline, policy)` report pairs of the benchmarks where both
    /// runs completed, in profile order.
    fn pairs<'a>(
        &'a self,
        runs: &'a Runs,
        baseline: &'a PolicySpec,
        policy: &'a PolicySpec,
    ) -> impl Iterator<Item = (&'a SimReport, &'a SimReport)> + 'a {
        self.profiles.iter().filter_map(move |p| {
            Some((
                self.report(runs, p, baseline)?,
                self.report(runs, p, policy)?,
            ))
        })
    }
}

/// The job list of one `profiles × policies` sweep, benchmark-major.
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

/// A row of `FAILED` cells after a leading label.
fn failed_row(label: &str, cells: usize) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(std::iter::repeat_n(FAILED.to_string(), cells));
    row
}

/// Geomean % speedup over `(baseline, run)` report pairs (`None` when
/// there are none).
fn geomean_speedup<'a>(pairs: impl Iterator<Item = (&'a SimReport, &'a SimReport)>) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .map(|(base, r)| base.cycles as f64 / r.cycles as f64)
        .collect();
    geomean(&ratios).map(speedup_pct)
}

/// `fixed` for a value that may come from a failed run.
fn fixed_opt(v: Option<f64>, prec: usize) -> String {
    v.map(|v| fixed(v, prec)).unwrap_or_else(|| FAILED.into())
}

/// Adds one row per benchmark of `spec`, the values `row` derives from
/// its runs (`None`: a row of `FAILED` cells), then an "average" row over
/// the benchmarks that completed, all at `prec` decimals.
fn rows_with_average<const N: usize>(
    t: &mut Table,
    spec: &MatrixSpec,
    prec: usize,
    row: impl Fn(&Profile) -> Option<[f64; N]>,
) {
    let mut sums = [0.0f64; N];
    let mut ok = 0usize;
    for p in &spec.profiles {
        let Some(values) = row(p) else {
            t.row(failed_row(p.name, N));
            continue;
        };
        ok += 1;
        for (s, v) in sums.iter_mut().zip(values) {
            *s += v;
        }
        let mut cells = vec![p.name.to_string()];
        cells.extend(values.iter().map(|v| fixed(*v, prec)));
        t.row(cells);
    }
    let mut cells = vec!["average".to_string()];
    cells.extend(
        sums.iter()
            .map(|s| fixed_opt((ok > 0).then(|| s / ok as f64), prec)),
    );
    t.row(cells);
}

/// A benchmark × `columns` table of % speedups over `baseline` (`FAILED`
/// unless both runs completed), closed by a "geomean" row over the
/// benchmarks where both did.
fn speedup_table(
    spec: &MatrixSpec,
    runs: &Runs,
    baseline: &PolicySpec,
    columns: &[PolicySpec],
) -> Table {
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(columns.iter().map(|p| p.to_string()));
    let mut t = Table::new(headers);
    for p in &spec.profiles {
        let base = spec.report(runs, p, baseline);
        let mut row = vec![p.name.to_string()];
        for pol in columns {
            row.push(match (base, spec.report(runs, p, pol)) {
                (Some(base), Some(r)) => {
                    fixed(speedup_pct(base.cycles as f64 / r.cycles as f64), 2)
                }
                _ => FAILED.into(),
            });
        }
        t.row(row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(
        columns
            .iter()
            .map(|pol| fixed_opt(geomean_speedup(spec.pairs(runs, baseline, pol)), 2)),
    );
    t.row(row);
    t
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
pub fn fig1(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let specs = fig1_specs(template);
    let spec = &specs[0];
    let (tomcat, policies) = (&spec.profiles[0], &spec.policies);
    let base_cycles = spec.report(runs, tomcat, &policies[0]).map(|r| r.cycles);
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
        match spec.report(runs, tomcat, p) {
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
    Experiment::new(
        "Figure 1 — persistence motivation on tomcat (true LRU, no prefetchers)".into(),
        vec![("tomcat policy progression".into(), t)],
    )
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
pub fn fig2(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig2_specs(template)[0];
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
    rows_with_average(&mut t, spec, 1, |p| {
        let r = spec.report(runs, p, &PolicySpec::BASELINE)?;
        // Access mix from the tracker (cold counts as long, like the
        // attribution path).
        let short = r.reuse.short as f64;
        let mid = r.reuse.mid as f64;
        let long = (r.reuse.long + r.reuse.cold) as f64;
        let acc_total = (short + mid + long).max(1.0);
        let attr = &r.reuse_attribution;
        let misses = (attr.l2_miss_long + attr.l2_miss_other).max(1) as f64;
        let starv = (attr.starve_short + attr.starve_mid + attr.starve_long).max(1) as f64;
        Some([
            short / acc_total * 100.0,
            mid / acc_total * 100.0,
            long / acc_total * 100.0,
            attr.l2_miss_long as f64 / misses * 100.0,
            attr.starve_short as f64 / starv * 100.0,
            attr.starve_mid as f64 / starv * 100.0,
            attr.starve_long as f64 / starv * 100.0,
        ])
    });
    Experiment::new(
        "Figure 2 — reuse-distance mix, long-reuse L2 misses, starvation attribution".into(),
        vec![(
            "per-benchmark reuse behaviour (TPLRU+FDIP baseline)".into(),
            t,
        )],
    )
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
pub fn fig3(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig3_specs(template)[0];
    let mut t = Table::with_headers(&[
        "benchmark",
        "l1i_mpki",
        "l1d_mpki",
        "l2_instr_mpki",
        "l2_data_mpki",
    ]);
    rows_with_average(&mut t, spec, 2, |p| {
        let r = spec.report(runs, p, &PolicySpec::BASELINE)?;
        Some([r.l1i_mpki, r.l1d_mpki, r.l2i_mpki, r.l2d_mpki])
    });
    Experiment::new(
        "Figure 3 — cache MPKIs on the TPLRU + FDIP baseline".into(),
        vec![("per-benchmark MPKI".into(), t)],
    )
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// The sweeps Figure 4 runs (the shared baseline matrix).
pub fn fig4_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    baseline_specs(template)
}

/// Figure 4: instruction footprint (MB of unique cache lines touched).
pub fn fig4(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig4_specs(template)[0];
    let mut t = Table::with_headers(&["benchmark", "instr_footprint_mb"]);
    rows_with_average(&mut t, spec, 2, |p| {
        let r = spec.report(runs, p, &PolicySpec::BASELINE)?;
        Some([r.footprint_bytes as f64 / (1024.0 * 1024.0)])
    });
    Experiment::new(
        "Figure 4 — instruction footprints".into(),
        vec![("unique instruction lines touched x 64 B".into(), t)],
    )
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
pub fn table5(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &table5_specs(template)[0];
    let ns = TABLE5_NS;
    let cols = table5_columns();
    // Geomean grid; a cell is None when no benchmark completed both runs.
    let grid: Vec<Vec<Option<f64>>> = ns
        .iter()
        .map(|&n| {
            cols.iter()
                .map(|(_, make)| geomean_speedup(spec.pairs(runs, &PolicySpec::BASELINE, &make(n))))
                .collect()
        })
        .collect();
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
    Experiment::new(
        "Table 5 — geomean speedup (%) vs LRU+FDIP baseline over r and N".into(),
        vec![("P(N) policy grid".into(), t)],
    )
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
pub fn fig5(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig5_specs(template)[0];
    let (m_policies, p_families, ns) = fig5_series();
    let mut t = Table::with_headers(&[
        "benchmark",
        "policy",
        "speedup",
        "l2_instr_mpki",
        "delta_starvation_empty_iq%",
    ]);
    for p in &spec.profiles {
        let base = spec.report(runs, p, &PolicySpec::BASELINE);
        let mut add_row = |policy: &PolicySpec| match spec.report(runs, p, policy) {
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
    Experiment::new(
        "Figure 5 — speedup vs MPKI and vs starvation change, N sweep".into(),
        vec![("per-benchmark policy series".into(), t)],
    )
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
pub fn fig6(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig6_specs(template)[0];
    let mut t = Table::with_headers(&[
        "benchmark",
        "fe_stall_reduction%",
        "be_stall_reduction%",
        "total_stall_reduction%",
    ]);
    rows_with_average(&mut t, spec, 2, |p| {
        let base = spec.report(runs, p, &PolicySpec::BASELINE)?;
        let emis = spec.report(runs, p, &preferred())?;
        let reduction = |b: u64, e: u64| pct_reduction(b as f64, e as f64);
        Some([
            reduction(base.fe_stall_cycles, emis.fe_stall_cycles),
            reduction(base.be_stall_cycles, emis.be_stall_cycles),
            reduction(base.total_stall_cycles(), emis.total_stall_cycles()),
        ])
    });
    Experiment::new(
        "Figure 6 — stall-cycle reduction of P(8):S&E&R(1/32) vs baseline".into(),
        vec![("commit-path stall reductions".into(), t)],
    )
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
pub fn fig7(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &fig7_specs(template)[0];
    let base = &PolicySpec::BASELINE;
    let techniques = fig7_policies();
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(techniques.iter().map(|p| p.to_string()));
    let mut energy = Table::new(headers);
    for p in &spec.profiles {
        let mut row = vec![p.name.to_string()];
        for tech in &techniques {
            row.push(
                match (spec.report(runs, p, base), spec.report(runs, p, tech)) {
                    (Some(b), Some(r)) => {
                        fixed((b.energy_pj - r.energy_pj) / b.energy_pj * 100.0, 2)
                    }
                    _ => FAILED.into(),
                },
            );
        }
        energy.row(row);
    }
    // The geomean row covers the benchmarks where both runs completed.
    let mut row = vec!["geomean".to_string()];
    for tech in &techniques {
        let ratios: Vec<f64> = spec
            .pairs(runs, base, tech)
            .map(|(b, r)| r.energy_pj / b.energy_pj)
            .collect();
        row.push(fixed_opt(geomean(&ratios).map(|g| (1.0 - g) * 100.0), 2));
    }
    energy.row(row);
    Experiment::new(
        "Figure 7 — speedup and energy reduction vs TPLRU+FDIP baseline".into(),
        vec![
            (
                "speedup (%)".into(),
                speedup_table(spec, runs, base, &techniques),
            ),
            ("energy reduction (%)".into(), energy),
        ],
    )
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// The sweeps Figure 8 runs: every benchmark under the two `P(8)` selection
/// variants, and a second sweep of the preferred policy under the §6
/// periodic priority reset (the paper's 128M-instruction interval scaled
/// to the measurement window).
pub fn fig8_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let mut reset_cfg = template.clone();
    reset_cfg.priority_reset_interval = Some((template.measure_instrs / 4).max(1));
    vec![
        MatrixSpec {
            profiles: Profile::all(),
            template: template.clone(),
            policies: vec![parse("P(8):S&E"), parse("P(8):S&E&R(1/32)")],
        },
        MatrixSpec {
            profiles: Profile::all(),
            template: reset_cfg,
            policies: vec![parse("P(8):S&E&R(1/32)")],
        },
    ]
}

/// Figure 8: distribution of per-set high-priority line counts for
/// P(8):S&E vs P(8):S&E&R(1/32), averaged across benchmarks at the end of
/// simulation, and the performance impact of the §6 reset mechanism.
pub fn fig8(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let specs = fig8_specs(template);
    let (spec, reset_spec) = (&specs[0], &specs[1]);
    let policies = &spec.policies;
    let mut t = Table::with_headers(&[
        "high_priority_lines_per_set",
        "P(8):S&E  % of sets",
        "P(8):S&E&R(1/32)  % of sets",
    ]);
    // Each policy's bucket shares averaged over its completed runs; `None`
    // (a column of `FAILED` cells) when none completed.
    let dist: Vec<Option<[f64; 9]>> = policies
        .iter()
        .map(|pol| {
            let mut sums = [0.0f64; 9];
            let mut ok = 0usize;
            for p in &spec.profiles {
                let Some(r) = spec.report(runs, p, pol) else {
                    continue;
                };
                ok += 1;
                let total: u64 = r.priority_histogram.iter().sum();
                for (bucket, &count) in r.priority_histogram.iter().enumerate() {
                    sums[bucket.min(8)] += count as f64 / total.max(1) as f64;
                }
            }
            (ok > 0).then(|| sums.map(|d| d / ok as f64))
        })
        .collect();
    for b in 0..9 {
        let mut row = vec![b.to_string()];
        row.extend(dist.iter().map(|d| fixed_opt(d.map(|d| d[b] * 100.0), 2)));
        t.row(row);
    }
    let mut rt = Table::with_headers(&["benchmark", "reset_speedup_vs_no_reset%"]);
    for p in &spec.profiles {
        let (Some(no_reset), Some(with)) = (
            spec.report(runs, p, &policies[1]),
            reset_spec.report(runs, p, &policies[1]),
        ) else {
            rt.row(failed_row(p.name, 1));
            continue;
        };
        rt.row(vec![
            p.name.to_string(),
            fixed(speedup_pct(no_reset.cycles as f64 / with.cycles as f64), 3),
        ]);
    }
    Experiment::new(
        "Figure 8 — saturation of high-priority lines per set".into(),
        vec![
            (
                "per-set P=1 count distribution (avg over benchmarks)".into(),
                t,
            ),
            ("§6 reset impact (P(8):S&E&R(1/32))".into(), rt),
        ],
    )
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
pub fn ideal_l2(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let specs = ideal_l2_specs(template);
    let (spec, ideal_spec) = (&specs[0], &specs[1]);
    let mut t = Table::with_headers(&[
        "benchmark",
        "ideal_speedup%",
        "emissary_speedup%",
        "emissary_share_of_ideal%",
    ]);
    // (baseline, EMISSARY, ideal) of the benchmarks where all three ran.
    let mut done = Vec::new();
    for p in &spec.profiles {
        let (Some(base), Some(emis), Some(ideal)) = (
            spec.report(runs, p, &PolicySpec::BASELINE),
            spec.report(runs, p, &preferred()),
            ideal_spec.report(runs, p, &PolicySpec::BASELINE),
        ) else {
            t.row(failed_row(p.name, 3));
            continue;
        };
        done.push((base, emis, ideal));
        let ideal_pct = speedup_pct(base.cycles as f64 / ideal.cycles as f64);
        let emis_pct = speedup_pct(base.cycles as f64 / emis.cycles as f64);
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
    let g_ideal = geomean_speedup(done.iter().map(|&(base, _, ideal)| (base, ideal)));
    let g_emis = geomean_speedup(done.iter().map(|&(base, emis, _)| (base, emis)));
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
    Experiment::new(
        "§5.6 — EMISSARY vs the unrealizable zero-cycle-miss ideal L2".into(),
        vec![("speedups over the FDIP baseline".into(), t)],
    )
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// The benchmarks the ablation study runs on.
const ABLATION_BENCHES: [&str; 2] = ["verilator", "finagle-http"];

/// The ablation rows, in order: a label and the config the preferred
/// policy runs under. Covers the design choices DESIGN.md calls out:
/// wrong-path fetch, FTQ depth, FDIP bandwidth, EMISSARY's recency flavor
/// (dual tree-PLRU vs dual true-LRU, §4.2), and the §6 reset interval.
fn ablation_variants(template: &SimConfig) -> Vec<(&'static str, SimConfig)> {
    let emis = template.clone().with_policy(preferred());
    let variant = |edit: &dyn Fn(&mut SimConfig)| {
        let mut v = emis.clone();
        edit(&mut v);
        v
    };
    vec![
        // Reference: the preferred EMISSARY configuration as evaluated.
        ("P(8):S&E&R(1/32) (default)", emis.clone()),
        // Wrong-path fetch off: no pollution, no accidental prefetch.
        (
            "no wrong-path fetch",
            variant(&|v| v.wrong_path_fetch = false),
        ),
        // FTQ depth: half and double the 24 x 192 default.
        (
            "FTQ 12x96 (half run-ahead)",
            variant(&|v| {
                v.core.ftq_entries = 12;
                v.core.ftq_instrs = 96;
            }),
        ),
        (
            "FTQ 48x384 (double run-ahead)",
            variant(&|v| {
                v.core.ftq_entries = 48;
                v.core.ftq_instrs = 384;
            }),
        ),
        // FDIP prefetch bandwidth.
        ("FDIP 1 line/cycle", variant(&|v| v.core.fdip_per_cycle = 1)),
        (
            "FDIP 4 lines/cycle",
            variant(&|v| v.core.fdip_per_cycle = 4),
        ),
        // Recency flavor: exact dual LRU instead of dual tree-PLRU.
        (
            "dual true-LRU recency",
            variant(&|v| v.recency = RecencyBase::TrueLru),
        ),
        // §6 reset at a quarter of the measurement window.
        (
            "P-bit reset every measure/4",
            variant(&|v| v.priority_reset_interval = Some((template.measure_instrs / 4).max(1))),
        ),
    ]
}

/// The sweeps the ablation study runs: per benchmark, the baseline and
/// then the preferred policy under each [`ablation_variants`] config.
pub fn ablations_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    let one = |bench: &str, template: SimConfig, policy: PolicySpec| MatrixSpec {
        profiles: vec![Profile::by_name(bench).expect("ablation profile")],
        template,
        policies: vec![policy],
    };
    ABLATION_BENCHES
        .iter()
        .flat_map(|bench| {
            std::iter::once(one(bench, template.clone(), PolicySpec::BASELINE)).chain(
                ablation_variants(template)
                    .into_iter()
                    .map(|(_, cfg)| one(bench, cfg, preferred())),
            )
        })
        .collect()
}

/// Ablations: each design choice's speedup over the TPLRU+FDIP baseline,
/// L2 instruction MPKI, and starvation cycles.
pub fn ablations(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let variants = ablation_variants(template);
    let specs = ablations_specs(template);
    let mut tables = Vec::new();
    for (bench, bench_specs) in ABLATION_BENCHES
        .iter()
        .zip(specs.chunks(1 + variants.len()))
    {
        let profile = &bench_specs[0].profiles[0];
        let base_cycles = bench_specs[0]
            .report(runs, profile, &PolicySpec::BASELINE)
            .map(|r| r.cycles);
        let mut t = Table::with_headers(&[
            "variant",
            "speedup_vs_default%",
            "l2i_mpki",
            "starve_cycles",
        ]);
        for ((label, _), spec) in variants.iter().zip(&bench_specs[1..]) {
            match spec.report(runs, profile, &preferred()) {
                Some(r) => t.row(vec![
                    label.to_string(),
                    fixed_opt(
                        base_cycles.map(|b| speedup_pct(b as f64 / r.cycles as f64)),
                        2,
                    ),
                    fixed(r.l2i_mpki, 2),
                    r.starvation_cycles.to_string(),
                ]),
                None => t.row(failed_row(label, 3)),
            }
        }
        tables.push((format!("{bench} (speedups vs TPLRU+FDIP baseline)"), t));
    }
    Experiment::new("Ablations".into(), tables)
}

// ---------------------------------------------------------------------------
// Extensions
// ---------------------------------------------------------------------------

/// The extension study's policies, baseline first: the paper's
/// related-work discussion (§7) made executable. `GHRP` is dead-block
/// prediction alone (§7.2: "orthogonal to ours"); `+GHRP` is the suggested
/// combination; `+BYPASS` is §2's rejected bypass variant; `LIN` and
/// `LACS` are cost-aware *data* policies (§7.1), showing that data-side
/// cost awareness does not transfer to instruction caching.
fn extension_policies() -> Vec<PolicySpec> {
    [
        "M:1",
        "GHRP",
        "LIN",
        "LACS",
        "P(8):S&E&R(1/32)",
        "P(8):S&E&R(1/32)+GHRP",
        "P(8):S&E&R(1/32)+BYPASS",
        "P(8):S&E",
        "P(8):S&E+GHRP",
    ]
    .iter()
    .map(|s| parse(s))
    .collect()
}

/// The sweeps the extension study runs: every benchmark under
/// [`extension_policies`].
pub fn extensions_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    vec![MatrixSpec {
        profiles: Profile::all(),
        template: template.clone(),
        policies: extension_policies(),
    }]
}

/// Extensions: speedup of each §7 combination over the TPLRU+FDIP
/// baseline, per benchmark plus geomean.
pub fn extensions(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let spec = &extensions_specs(template)[0];
    let (base, columns) = spec.policies.split_first().expect("baseline first");
    Experiment::new(
        "Extensions — §7 related-work combinations (speedup % vs TPLRU+FDIP)".into(),
        vec![("speedups".into(), speedup_table(spec, runs, base, columns))],
    )
}

// ---------------------------------------------------------------------------
// L2 capacity sweep
// ---------------------------------------------------------------------------

/// The benchmarks and L2 sizes (KB) the capacity sweep covers.
const L2_SWEEP_BENCHES: [&str; 2] = ["verilator", "tomcat"];
const L2_SWEEP_KB: [u64; 5] = [256, 512, 1024, 2048, 4096];

/// The sweeps the L2 capacity study runs: per benchmark and L2 size, the
/// baseline and the preferred policy. The exclusive L3 stays at twice the
/// L2, as in the default model.
pub fn l2_sweep_specs(template: &SimConfig) -> Vec<MatrixSpec> {
    L2_SWEEP_BENCHES
        .iter()
        .flat_map(|bench| {
            L2_SWEEP_KB.iter().map(move |&l2_kb| {
                let mut cfg = template.clone();
                cfg.hierarchy.l2 = CacheConfig::new("l2", l2_kb * 1024, 16, 12);
                cfg.hierarchy.l3 = CacheConfig::new("l3", 2 * l2_kb * 1024, 16, 32);
                MatrixSpec {
                    profiles: vec![Profile::by_name(bench).expect("l2 sweep profile")],
                    template: cfg,
                    policies: vec![PolicySpec::BASELINE, preferred()],
                }
            })
        })
        .collect()
}

/// The paper's premise made measurable: §5.3 picks workloads whose code
/// "do[es] not easily fit into the larger L2 caches", and §5.5 says
/// EMISSARY matters "in a scenario where L2 capacity is limited". Baseline
/// IPC and L2 instruction MPKI, and EMISSARY's speedup, as the L2 grows
/// from 256 KB to 4 MB: the gain should shrink as the footprint fits.
pub fn l2_sweep(template: &SimConfig, runs: &Runs) -> Experiment<'static> {
    let specs = l2_sweep_specs(template);
    let mut tables = Vec::new();
    for (bench, bench_specs) in L2_SWEEP_BENCHES.iter().zip(specs.chunks(L2_SWEEP_KB.len())) {
        let mut t = Table::with_headers(&[
            "l2_kb",
            "baseline_ipc",
            "baseline_l2i_mpki",
            "emissary_speedup%",
            "emissary_l2i_mpki",
        ]);
        for (l2_kb, spec) in L2_SWEEP_KB.iter().zip(bench_specs) {
            let profile = &spec.profiles[0];
            match (
                spec.report(runs, profile, &PolicySpec::BASELINE),
                spec.report(runs, profile, &preferred()),
            ) {
                (Some(base), Some(emis)) => t.row(vec![
                    l2_kb.to_string(),
                    fixed(base.ipc(), 3),
                    fixed(base.l2i_mpki, 2),
                    fixed(speedup_pct(base.cycles as f64 / emis.cycles as f64), 2),
                    fixed(emis.l2i_mpki, 2),
                ]),
                _ => t.row(failed_row(&l2_kb.to_string(), 4)),
            }
        }
        tables.push((bench.to_string(), t));
    }
    Experiment::new(
        "L2 capacity sweep — EMISSARY gain vs cache pressure".into(),
        tables,
    )
}

// ---------------------------------------------------------------------------
// The experiment table
// ---------------------------------------------------------------------------

/// One experiment: its name (also its results file, `results/<name>.jsonl`),
/// its plan, and its tables.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The experiment's name.
    pub name: &'static str,
    /// The sweeps the experiment needs under a config template.
    pub plan: fn(&SimConfig) -> Vec<MatrixSpec>,
    /// The experiment's title and tables, read from runs that cover its
    /// plan (see [`Entry::render`] for the whole experiment).
    pub tables: fn(&SimConfig, &Runs) -> Experiment<'static>,
}

impl Entry {
    /// The experiment rendered from `runs`, which must cover its plan: its
    /// tables, then a "failed jobs" table when any planned job failed,
    /// with every completed run and failure of the plan, in plan order.
    /// The plan alone decides what the results file holds.
    pub fn render<'r>(&self, template: &SimConfig, runs: &'r Runs) -> Experiment<'r> {
        let mut exp: Experiment<'r> = (self.tables)(template, runs);
        for job in (self.plan)(template).iter().flat_map(MatrixSpec::jobs) {
            let outcome = runs.get(&job);
            exp.runs.extend(outcome.run());
            exp.failures.extend(JobFailure::from_outcome(outcome));
        }
        if !exp.failures.is_empty() {
            let mut t = Table::with_headers(&["benchmark", "policy", "status", "detail"]);
            for f in &exp.failures {
                t.row(vec![
                    f.benchmark.clone(),
                    f.policy.clone(),
                    f.status.clone(),
                    f.detail.clone(),
                ]);
            }
            exp.tables
                .push(("failed jobs (excluded from aggregates above)".into(), t));
        }
        exp
    }
}

const fn entry(
    name: &'static str,
    plan: fn(&SimConfig) -> Vec<MatrixSpec>,
    tables: fn(&SimConfig, &Runs) -> Experiment<'static>,
) -> Entry {
    Entry { name, plan, tables }
}

/// How many leading [`EXPERIMENTS`] entries form the default sweep: the
/// paper's ten figures and tables.
pub const PAPER_EXPERIMENTS: usize = 10;

/// Every experiment, in sweep order. The first [`PAPER_EXPERIMENTS`] are
/// the paper's figures and tables and run by default; the rest run only
/// when named.
pub const EXPERIMENTS: [Entry; 13] = [
    entry("fig1", fig1_specs, fig1),
    entry("fig2", fig2_specs, fig2),
    entry("fig3", fig3_specs, fig3),
    entry("fig4", fig4_specs, fig4),
    entry("table5", table5_specs, table5),
    entry("fig5", fig5_specs, fig5),
    entry("fig6", fig6_specs, fig6),
    entry("fig7", fig7_specs, fig7),
    entry("fig8", fig8_specs, fig8),
    entry("ideal_l2", ideal_l2_specs, ideal_l2),
    entry("ablations", ablations_specs, ablations),
    entry("extensions", extensions_specs, extensions),
    entry("l2_sweep", l2_sweep_specs, l2_sweep),
];

/// The entries `names` selects, in the order given; no names selects the
/// paper's ten. `Err` carries the first unknown name.
pub fn select(names: &[String]) -> Result<Vec<Entry>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS[..PAPER_EXPERIMENTS].to_vec());
    }
    names
        .iter()
        .map(|n| {
            EXPERIMENTS
                .iter()
                .find(|e| e.name == n)
                .copied()
                .ok_or_else(|| n.clone())
        })
        .collect()
}

/// Every job `entries` request under `template`, in order, duplicates
/// included: the plan a campaign prefetches.
pub fn plan_jobs(entries: &[Entry], template: &SimConfig) -> Vec<Job> {
    entries
        .iter()
        .flat_map(|e| (e.plan)(template))
        .flat_map(|spec| spec.jobs())
        .collect()
}

/// Every job the default sweep (the paper's ten experiments) requests, in
/// order, duplicates included.
pub fn campaign_jobs(template: &SimConfig) -> Vec<Job> {
    plan_jobs(&EXPERIMENTS[..PAPER_EXPERIMENTS], template)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultInjection, JobOutcome};

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
        let e = Experiment::new("T".into(), vec![("c".into(), Table::with_headers(&["a"]))]);
        let s = e.render();
        assert!(s.contains("# T"));
        assert!(s.contains("## c"));
        assert!(s.contains("TSV:"));
    }

    fn tiny_template() -> SimConfig {
        SimConfig {
            warmup_instrs: 1_000,
            measure_instrs: 4_000,
            ..SimConfig::default()
        }
    }

    fn fingerprints(jobs: &[Job]) -> Vec<String> {
        jobs.iter().map(crate::checkpoint::fingerprint).collect()
    }

    #[test]
    fn campaign_plan_overlaps_across_figures() {
        let template = tiny_template();
        let fp_of = |specs: Vec<MatrixSpec>| -> Vec<String> {
            fingerprints(&specs.iter().flat_map(|s| s.jobs()).collect::<Vec<_>>())
        };
        // Figures 2–4 share the all-benchmarks baseline sweep, and Table 5
        // and Figure 7 request it again — the plan must contain real
        // overlap for campaign dedup to collapse.
        assert_eq!(fp_of(fig2_specs(&template)), fp_of(fig3_specs(&template)));
        assert_eq!(fp_of(fig3_specs(&template)), fp_of(fig4_specs(&template)));
        // Figure 8 always plans its §6 reset sweep next to the two P(8)
        // variants.
        assert_eq!(fp_of(fig8_specs(&template)).len(), 3 * Profile::all().len());
    }

    #[test]
    fn default_plan_is_the_ten_paper_experiments_in_order() {
        let template = tiny_template();
        let names: Vec<&str> = select(&[]).unwrap().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig1", "fig2", "fig3", "fig4", "table5", "fig5", "fig6", "fig7", "fig8",
                "ideal_l2"
            ]
        );
        let joined: Vec<Job> = names
            .iter()
            .flat_map(|n| {
                let entry = EXPERIMENTS.iter().find(|e| e.name == *n).unwrap();
                (entry.plan)(&template)
            })
            .flat_map(|spec| spec.jobs())
            .collect();
        let jobs = campaign_jobs(&template);
        assert_eq!(fingerprints(&jobs), fingerprints(&joined));
        let unique: std::collections::HashSet<String> = fingerprints(&jobs).into_iter().collect();
        assert_eq!((jobs.len(), unique.len()), (1679, 1198));
    }

    #[test]
    fn select_names_entries_in_order_and_rejects_unknown_names() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let picked = select(&names(&["l2_sweep", "fig8"])).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["l2_sweep", "fig8"]
        );
        assert_eq!(select(&names(&["fig1", "fig9"])).unwrap_err(), "fig9");
    }

    /// One tiny real run.
    fn tiny_run(template: &SimConfig) -> SimRun {
        Job::new(
            Profile::by_name("xapian").unwrap(),
            template,
            PolicySpec::BASELINE,
        )
        .run_checked_metered(&emissary_sim::FaultConfig::none(), None, "main")
        .unwrap()
    }

    /// `run`, cloned as a completed outcome.
    fn completed(run: &SimRun) -> JobOutcome {
        JobOutcome::Completed {
            run: Box::new(run.clone()),
            resumed: false,
        }
    }

    #[test]
    fn every_entry_renders_from_exactly_its_plan() {
        let template = tiny_template();
        let run = tiny_run(&template);
        for entry in EXPERIMENTS {
            let jobs = plan_jobs(&[entry], &template);
            let runs = Runs::from_outcomes(&jobs, jobs.iter().map(|_| completed(&run)).collect());
            let exp = entry.render(&template, &runs);
            assert!(!exp.tables.is_empty(), "{} rendered no table", entry.name);
            assert!(exp.failures.is_empty(), "{}", entry.name);
            // Every planned job is read exactly once: its run lands in the
            // experiment's results file.
            assert_eq!(exp.runs.len(), jobs.len(), "{}", entry.name);
        }
    }

    #[test]
    #[should_panic(expected = "planner bug")]
    fn a_lookup_outside_the_plan_panics() {
        let template = tiny_template();
        let _ = fig1(&template, &Runs::default());
    }

    #[test]
    fn fig8_column_whose_runs_all_failed_prints_failed() {
        let template = tiny_template();
        let fig8 = EXPERIMENTS[8];
        assert_eq!(fig8.name, "fig8");
        let jobs = plan_jobs(&[fig8], &template);
        let run = tiny_run(&template);
        let outcomes = jobs
            .iter()
            .map(|job| {
                let policy = job.config.l2_policy.to_string();
                if policy == "P(8):S&E" {
                    JobOutcome::Panicked {
                        benchmark: job.profile.name.to_string(),
                        policy,
                        message: "injected".into(),
                    }
                } else {
                    completed(&run)
                }
            })
            .collect();
        let runs = Runs::from_outcomes(&jobs, outcomes);
        let exp = fig8.render(&template, &runs);

        let rows = exp.tables[0].1.rows();
        assert_eq!(rows.len(), 9);
        for row in rows {
            assert_eq!(row[1], FAILED, "bucket {}", row[0]);
            assert_ne!(row[2], FAILED, "bucket {}", row[0]);
        }
        // The reset table reads only the other column's runs.
        assert!(exp.tables[1].1.rows().iter().flatten().all(|c| c != FAILED));
        assert_eq!(exp.failures.len(), Profile::all().len());
    }

    #[test]
    fn matrix_records_failures_without_dropping_successes() {
        // Figure 4 gives each baseline job one cell; the job at index 1
        // panics and the others complete.
        let template = tiny_template();
        let fig4 = EXPERIMENTS[3];
        let jobs = plan_jobs(&[fig4], &template);
        let mut broken = jobs[1].clone();
        broken.inject = Some(FaultInjection::Panic);
        let panicked = crate::pool::run_parallel_outcomes_with(
            &[broken],
            &crate::PoolOptions::with_workers(1),
            None,
        );
        let run = tiny_run(&template);
        let mut outcomes: Vec<JobOutcome> = jobs.iter().map(|_| completed(&run)).collect();
        outcomes[1] = panicked.into_iter().next().unwrap();
        let runs = Runs::from_outcomes(&jobs, outcomes);
        let exp = fig4.render(&template, &runs);

        let rows = exp.tables[0].1.rows();
        let failed_cells = rows.iter().flatten().filter(|c| *c == FAILED).count();
        assert_eq!(failed_cells, 1);
        assert_eq!(rows[1], [jobs[1].profile.name, FAILED]);
        assert_eq!(
            rows[0][1],
            fixed(run.report.footprint_bytes as f64 / (1024.0 * 1024.0), 2)
        );
        let (caption, table) = &exp.tables[1];
        assert!(caption.contains("failed jobs"));
        assert_eq!(table.rows().len(), 1);
        assert_eq!(table.rows()[0][2], "panicked");
        assert_eq!((exp.runs.len(), exp.failures.len()), (jobs.len() - 1, 1));
        let mut records = Vec::new();
        crate::results::write_records(&mut records, "fig4", &exp, &[], &[]).unwrap();
        let records = String::from_utf8(records).unwrap();
        assert_eq!(records.matches("\"record\":\"job_failure\"").count(), 1);
    }
}
