//! Top-level simulation driver: warmup, measurement, report assembly.

use emissary_energy::{ActivityCounts, EnergyParams};
use emissary_obs::{interval_chunks, IntervalSample, SampleSeries, Tracer};
use emissary_stats::summary::mpki;
use emissary_workloads::walker::Walker;
use emissary_workloads::{Profile, Program};

use crate::config::SimConfig;
use crate::fault::{FaultConfig, SimAbort};
use crate::machine::Machine;
use crate::report::SimReport;

/// Observability options for a run. The default is fully passive: a
/// disabled tracer and no interval sampling, making
/// [`run_sim_observed`] behave exactly like [`run_sim`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Event tracer shared with the machine, hierarchy, and L2 policy.
    pub tracer: Tracer,
    /// Snapshot interval in committed instructions (Figure-8-style time
    /// series). `None` or `Some(0)` disables sampling.
    pub sample_interval: Option<u64>,
}

impl ObsConfig {
    /// Builds from a tracer plus optional interval.
    pub fn new(tracer: Tracer, sample_interval: Option<u64>) -> Self {
        Self {
            tracer,
            sample_interval,
        }
    }
}

/// A simulation result with its observability by-products.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Aggregate report over the whole measurement window.
    pub report: SimReport,
    /// Per-interval samples (empty when sampling was disabled).
    pub samples: Vec<IntervalSample>,
    /// Host wall-clock seconds the run took (warmup + measurement), for
    /// campaign-cost accounting. Not part of the simulated behaviour.
    pub host_seconds: f64,
    /// Host seconds spent in the warmup phase (subset of
    /// `host_seconds`). Not part of the simulated behaviour.
    pub warmup_seconds: f64,
    /// Host seconds spent in the measurement phase (subset of
    /// `host_seconds`). Not part of the simulated behaviour.
    pub measure_seconds: f64,
}

impl SimRun {
    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.report.cycles as f64 / self.host_seconds
        } else {
            0.0
        }
    }

    /// Committed instructions per host second, in millions (host MIPS).
    pub fn mips(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.report.committed as f64 / self.host_seconds / 1e6
        } else {
            0.0
        }
    }
}

/// Runs one benchmark under one configuration: builds the program, warms
/// up for `cfg.warmup_instrs` committed instructions, measures for
/// `cfg.measure_instrs`, and assembles a [`SimReport`] for the measurement
/// window (mirroring §5.1's warmup/measurement protocol).
pub fn run_sim(profile: &Profile, cfg: &SimConfig) -> SimReport {
    run_sim_on(&profile.shared_program(), profile, cfg)
}

/// [`run_sim`] over a prebuilt [`Program`] (see [`run_sim_checked_on`]).
/// The program store keeps a program only while some caller holds it, so
/// a caller running several configurations on one profile holds its
/// program across them here instead of having [`run_sim`] rebuild it.
pub fn run_sim_on(program: &Program, profile: &Profile, cfg: &SimConfig) -> SimReport {
    run_sim_checked_on(
        program,
        profile,
        cfg,
        &ObsConfig::default(),
        &FaultConfig::none(),
    )
    .expect("FaultConfig::none() disables every abort path")
    .report
}

/// [`run_sim`] with observability: events flow into `obs.tracer` and, when
/// `obs.sample_interval` is set, the measurement window is snapshotted
/// every that-many committed instructions.
///
/// Sampling pauses the run at interval boundaries by targeting the same
/// cumulative committed-instruction counts a single uninterrupted
/// [`Machine::run_instrs`] call would pass through, so the cycle-by-cycle
/// execution is bit-identical to an unsampled run (a regression test
/// holds this).
///
/// The program comes from the shared store (the live copy if some caller
/// holds one, else a fresh build).
pub fn run_sim_observed(profile: &Profile, cfg: &SimConfig, obs: &ObsConfig) -> SimRun {
    let program = profile.shared_program();
    run_sim_checked_on(&program, profile, cfg, obs, &FaultConfig::none())
        .expect("FaultConfig::none() disables every abort path")
}

/// [`run_sim_observed`] over a prebuilt [`Program`], under the fault
/// detector: the run aborts with a structured [`SimAbort`] when the
/// forward-progress watchdog fires, and — when `fault.audit` is set —
/// runs the hierarchy invariant auditor at every epoch boundary (warmup
/// end, each sample boundary, measurement end), tracing violations and
/// aborting on the first dirty epoch.
///
/// The detector is read-only: a run that returns `Ok` is bit-identical to
/// [`run_sim_observed`]. Degenerate configurations should be rejected up
/// front with [`SimConfig::validate`]; this function assumes a valid one.
/// The tracer is flushed on both success and abort, so diagnostic events
/// survive a failed run.
///
/// The program must be the one `profile` builds (callers normally obtain
/// it from [`Profile::shared_program`] or [`Profile::build`]); the walker
/// is seeded from `profile.seed`, so the run is bit-identical to the
/// build-per-run path.
pub fn run_sim_checked_on(
    program: &Program,
    profile: &Profile,
    cfg: &SimConfig,
    obs: &ObsConfig,
    fault: &FaultConfig,
) -> Result<SimRun, SimAbort> {
    let start = std::time::Instant::now();
    let walker = Walker::new(program, profile.seed);
    let mut machine = Machine::new(walker, cfg);
    if obs.tracer.enabled() {
        machine.set_tracer(obs.tracer.clone());
    }
    let mut warmup_seconds = 0.0;
    let result = (|| {
        if cfg.warmup_instrs > 0 {
            machine.run_instrs_checked(cfg.warmup_instrs, fault)?;
        }
        audit_epoch(&mut machine, fault)?;
        warmup_seconds = start.elapsed().as_secs_f64();
        machine.reset_window();
        let interval = obs.sample_interval.unwrap_or(0);
        if interval > 0 {
            let base = machine.total_committed();
            let mut series = SampleSeries::new();
            let mut boundary = base;
            for chunk in interval_chunks(cfg.measure_instrs, interval) {
                // Absolute targets: commit-width overshoot at one boundary
                // must not push later boundaries (and the window end) past
                // where an unchunked run would stop.
                boundary += chunk;
                machine.run_instrs_checked(
                    boundary.saturating_sub(machine.total_committed()),
                    fault,
                )?;
                series.record(machine.sample_counters(), machine.priority_histogram());
                audit_epoch(&mut machine, fault)?;
            }
            Ok(series.into_samples())
        } else {
            machine.run_instrs_checked(cfg.measure_instrs, fault)?;
            audit_epoch(&mut machine, fault)?;
            Ok(Vec::new())
        }
    })();
    obs.tracer.flush();
    let samples = result?;
    let host_seconds = start.elapsed().as_secs_f64();
    Ok(SimRun {
        report: assemble_report(profile, cfg, &machine),
        samples,
        host_seconds,
        warmup_seconds,
        measure_seconds: (host_seconds - warmup_seconds).max(0.0),
    })
}

/// Runs the invariant auditor at an epoch boundary when enabled; a dirty
/// hierarchy aborts the run.
fn audit_epoch(machine: &mut Machine<'_>, fault: &FaultConfig) -> Result<(), SimAbort> {
    if !fault.audit {
        return Ok(());
    }
    let violations = machine.run_audit();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(SimAbort::AuditFailed {
            cycle: machine.now(),
            violations,
        })
    }
}

fn assemble_report(profile: &Profile, cfg: &SimConfig, m: &Machine<'_>) -> SimReport {
    let s = &m.stats;
    let h = &m.hierarchy;
    let committed = s.committed;
    let l1i = h.l1i.stats();
    let l1d = h.l1d.stats();
    let l2 = h.l2.stats();
    let l3 = h.l3.stats();
    let hs = *h.stats();
    let activity = ActivityCounts {
        cycles: s.cycles,
        committed_instrs: committed,
        decoded_instrs: s.decoded,
        issued_instrs: s.issued,
        l1i_accesses: l1i.total_accesses(),
        l1d_accesses: l1d.total_accesses(),
        l2_accesses: l2.total_accesses(),
        l3_accesses: l3.total_accesses(),
        dram_accesses: hs.dram_reads + hs.dram_writes,
        frontend_lookups: m.engine.stats().blocks,
    };
    let energy_pj = EnergyParams::default().estimate(&activity).total();
    SimReport {
        benchmark: profile.name.to_string(),
        policy: cfg.l2_policy.to_string(),
        cycles: s.cycles,
        committed,
        decoded: s.decoded,
        issued: s.issued,
        l1i_mpki: mpki(l1i.instr_stream_misses(), committed),
        l1d_mpki: mpki(l1d.data_misses, committed),
        l2i_mpki: mpki(l2.instr_stream_misses(), committed),
        l2d_mpki: mpki(l2.data_misses, committed),
        l3_mpki: mpki(l3.demand_misses(), committed),
        branch_mpki: mpki(s.branch_mispredicts, committed),
        starvation_cycles: s.starvation_cycles,
        starvation_empty_iq_cycles: s.starvation_empty_iq_cycles,
        starvation_by_source: s.starve_by_source,
        fe_stall_cycles: s.fe_stall_cycles,
        be_stall_cycles: s.be_stall_cycles,
        footprint_bytes: h.instr_footprint_lines() as u64 * 64,
        reuse: m.reuse_counts(),
        reuse_attribution: s.reuse_attr,
        priority_histogram: m.priority_histogram(),
        ideal_l2_saves: hs.ideal_l2_saves,
        l2_priority_hits: l2.priority_hits,
        priority_marks: s.priority_marks,
        activity,
        energy_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emissary_core::spec::PolicySpec;
    use emissary_obs::{NullSink, RingSink};

    fn quick(policy: PolicySpec) -> SimConfig {
        SimConfig {
            warmup_instrs: 10_000,
            measure_instrs: 40_000,
            ..SimConfig::default()
        }
        .with_policy(policy)
    }

    #[test]
    fn report_fields_are_consistent() {
        let p = Profile::by_name("xapian").unwrap();
        let r = run_sim(&p, &quick(PolicySpec::BASELINE));
        assert_eq!(r.benchmark, "xapian");
        assert_eq!(r.policy, "M:1");
        assert!(r.committed >= 40_000);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
        assert!(r.footprint_bytes > 0);
        assert_eq!(r.activity.cycles, r.cycles);
        assert!(r.energy_pj > 0.0);
    }

    #[test]
    fn prebuilt_program_path_is_bit_identical() {
        // The shared-store path and an explicit fresh build must produce
        // the same report: the program is pure data, the walker owns all
        // run state.
        let p = Profile::by_name("xapian").unwrap();
        let cfg = quick(PolicySpec::PREFERRED);
        let via_store = run_sim(&p, &cfg);
        let fresh = p.build();
        let on_fresh = run_sim_checked_on(
            &fresh,
            &p,
            &cfg,
            &ObsConfig::default(),
            &FaultConfig::none(),
        )
        .expect("no fault paths enabled");
        assert_eq!(via_store, on_fresh.report);
    }

    #[test]
    fn same_config_same_result() {
        let p = Profile::by_name("xapian").unwrap();
        let program = p.shared_program();
        let a = run_sim_on(&program, &p, &quick(PolicySpec::BASELINE));
        let b = run_sim_on(&program, &p, &quick(PolicySpec::BASELINE));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.starvation_cycles, b.starvation_cycles);
    }

    #[test]
    fn emissary_and_baseline_share_the_committed_path() {
        // Different L2 policies must not change the architectural work,
        // only its timing: committed counts match, footprints match.
        let p = Profile::by_name("xapian").unwrap();
        let program = p.shared_program();
        let a = run_sim_on(&program, &p, &quick(PolicySpec::BASELINE));
        let b = run_sim_on(&program, &p, &quick(PolicySpec::PREFERRED));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.footprint_bytes, b.footprint_bytes);
    }

    /// Shrinks the L2 (and L3) so a short tomcat run evicts from the L2:
    /// tomcat's 2.6 MB footprint needs millions of instructions to wrap on
    /// the real 1 MB L2.
    fn evicting(mut cfg: SimConfig) -> SimConfig {
        cfg.hierarchy.l2 = emissary_cache::config::CacheConfig::new("l2", 64 * 1024, 16, 12);
        cfg.hierarchy.l3 = emissary_cache::config::CacheConfig::new("l3", 128 * 1024, 16, 32);
        cfg
    }

    /// The inputs of the observability and audit tests: the paper's
    /// preferred policy, and §7.2's GHRP combination on an L2 that evicts.
    fn observed_inputs() -> [(&'static str, SimConfig); 2] {
        [
            ("xapian", quick(PolicySpec::PREFERRED)),
            ("tomcat", evicting(quick("P(8):S&E+GHRP".parse().unwrap()))),
        ]
    }

    #[test]
    fn tracing_and_sampling_do_not_change_the_simulation() {
        // Observability must be passive: a run with a recording sink and
        // interval sampling must produce a bit-identical SimReport to the
        // default NullSink/unsampled run (ISSUE acceptance criterion).
        let mut protects = Vec::new();
        for (bench, cfg) in observed_inputs() {
            let p = Profile::by_name(bench).unwrap();
            // Held, so the store serves every run below one build.
            let program = p.shared_program();
            let plain = run_sim_on(&program, &p, &cfg);
            // An enabled tracer that discards (NullSink) must also be inert.
            let nulled = run_sim_observed(&p, &cfg, &ObsConfig::new(Tracer::new(NullSink), None));
            assert_eq!(plain, nulled.report, "NullSink tracing perturbed the run");
            let sink = RingSink::new(4096);
            let buffer = sink.buffer();
            let obs = ObsConfig::new(Tracer::new(sink), Some(7_000));
            let observed = run_sim_observed(&p, &cfg, &obs);
            assert_eq!(plain, observed.report, "observability perturbed the run");
            // 40k instructions / 7k interval -> ceil = 6 samples, and the
            // recorded counters must agree with the aggregate report.
            assert_eq!(observed.samples.len(), 6);
            let last = observed.samples.last().unwrap();
            assert_eq!(last.instructions, plain.committed);
            assert_eq!(last.cycles, plain.cycles);
            let starved: u64 = observed.samples.iter().map(|s| s.starvation_cycles).sum();
            assert_eq!(starved, plain.starvation_cycles);
            assert_eq!(last.priority_histogram, plain.priority_histogram);
            // Every run records fills and evictions; the sink must have
            // seen events.
            let buffer = buffer.lock().unwrap();
            assert!(buffer.total_recorded() > 0);
            protects.push(buffer.events().filter(|e| e.kind() == "protect").count());
        }
        // Every P(N) variant reports its Algorithm 1 decisions, the GHRP
        // combination on an evicting L2 included.
        assert!(protects[1] > 0, "no protect events from P(N)+GHRP");
    }

    #[test]
    fn checked_run_with_audit_matches_plain_run() {
        // The auditor at every epoch boundary must find a clean hierarchy
        // and must not perturb the simulation (read-only guarantee).
        for (bench, cfg) in observed_inputs() {
            let p = Profile::by_name(bench).unwrap();
            let program = p.shared_program();
            let plain = run_sim_on(&program, &p, &cfg);
            let fault = FaultConfig::watchdog().with_audit();
            let checked = run_sim_checked_on(
                &program,
                &p,
                &cfg,
                &ObsConfig::new(Tracer::disabled(), Some(7_000)),
                &fault,
            )
            .expect("audit must be clean on a healthy run");
            assert_eq!(plain, checked.report, "fault checking perturbed the run");
            assert_eq!(checked.samples.len(), 6);
        }
    }

    #[test]
    fn ideal_l2_mode_is_no_slower() {
        // Non-compulsory instruction misses must occur within a short run.
        let p = Profile::by_name("tomcat").unwrap();
        let base = evicting(quick(PolicySpec::BASELINE));
        let mut ideal = base.clone();
        ideal.hierarchy.ideal_l2_instr = true;
        let program = p.shared_program();
        let r0 = run_sim_on(&program, &p, &base);
        let r1 = run_sim_on(&program, &p, &ideal);
        assert!(r1.ideal_l2_saves > 0, "ideal mode never fired");
        assert!(
            r1.cycles <= r0.cycles,
            "ideal L2 slower than baseline: {} vs {}",
            r1.cycles,
            r0.cycles
        );
    }
}
