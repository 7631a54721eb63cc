//! The benchmark's workloads: which jobs each runs, on how many workers,
//! over which windows, and how `--seed` perturbs them.
//!
//! The two simulation workloads stress opposite layers of the same job
//! path, so an optimisation of the L2 policy or the miss path shows on
//! one and must read "no change" on the other; the campaign workload is
//! the only one whose cost is dominated by the harness (dedup,
//! scheduling, checkpoint writes and reads). README.md gives the numbers
//! behind each choice.

use emissary_bench::experiments::{campaign_jobs, matrix_jobs};
use emissary_bench::Job;
use emissary_core::spec::PolicySpec;
use emissary_sim::SimConfig;
use emissary_workloads::Profile;

/// Warmup and measurement window of every job in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// Committed instructions of warmup.
    pub warmup: u64,
    /// Committed instructions measured.
    pub measure: u64,
}

/// Windows of every workload under `--quick` (smoke tests).
const QUICK: Windows = Windows {
    warmup: 2_000,
    measure: 8_000,
};

/// Resumes of the finished checkpoint per pass.
const RESUMES: usize = 20;
const QUICK_RESUMES: usize = 2;

/// Instructions each layer probe walks per profile.
const PROBE_INSTRS: u64 = 1_000_000;
const QUICK_PROBE_INSTRS: u64 = 20_000;

enum Plan {
    /// Each named profile under the baseline and the preferred EMISSARY
    /// policy.
    Pairs(&'static [&'static str]),
    /// The real `all_experiments` plan.
    Campaign,
}

/// One benchmark workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    plan: Plan,
    /// Pool workers the jobs run on.
    pub workers: usize,
    windows: Windows,
}

/// Every workload, in run order.
pub const WORKLOADS: &[Workload] = &[
    // Largest L2I MPKI of the 13 profiles (40-65), plus kafka's L2D MPKI
    // of ~78: the policy, the miss path and stalled cycles carry the work.
    Workload {
        name: "miss-heavy",
        plan: Plan::Pairs(&["tomcat", "verilator", "kafka"]),
        workers: 1,
        windows: Windows {
            warmup: 500_000,
            measure: 4_000_000,
        },
    },
    // Code fits in L2 (L2I MPKI 0.2-1.4, IPC ~1.6): the pipeline,
    // predictor and walker carry the work; the control for miss-path
    // optimisations.
    Workload {
        name: "l2-resident",
        plan: Plan::Pairs(&["xapian", "tpcc", "web-search"]),
        workers: 1,
        windows: Windows {
            warmup: 500_000,
            measure: 4_000_000,
        },
    },
    // 1679 requested / 1198 unique short jobs: dedup, scheduling and
    // checkpoint I/O are visible, which neither simulation workload
    // touches.
    Workload {
        name: "campaign",
        plan: Plan::Campaign,
        workers: 2,
        windows: Windows {
            warmup: 5_000,
            measure: 20_000,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The job windows.
    pub fn windows(&self, quick: bool) -> Windows {
        if quick {
            QUICK
        } else {
            self.windows
        }
    }

    /// Resumes per pass.
    pub fn resumes(&self, quick: bool) -> usize {
        if quick {
            QUICK_RESUMES
        } else {
            RESUMES
        }
    }

    /// Instructions each layer probe walks per profile.
    pub fn probe_instrs(&self, quick: bool) -> u64 {
        if quick {
            QUICK_PROBE_INSTRS
        } else {
            PROBE_INSTRS
        }
    }

    /// The config every job derives from.
    pub fn template(&self, quick: bool) -> SimConfig {
        let w = self.windows(quick);
        SimConfig {
            warmup_instrs: w.warmup,
            measure_instrs: w.measure,
            ..SimConfig::default()
        }
    }

    /// The jobs one pass requests, duplicates included, with every
    /// profile perturbed by `seed`.
    pub fn jobs(&self, quick: bool, seed: u64) -> Vec<Job> {
        let template = self.template(quick);
        let mut jobs = match self.plan {
            Plan::Pairs(names) => {
                let profiles: Vec<Profile> = names
                    .iter()
                    .map(|n| Profile::by_name(n).expect("workload names real profiles"))
                    .collect();
                matrix_jobs(&profiles, &template, &PAIR)
            }
            Plan::Campaign => campaign_jobs(&template),
        };
        for job in &mut jobs {
            perturb(&mut job.profile, seed);
        }
        jobs
    }

    /// Whether `job` is one half of a baseline/EMISSARY pair on the
    /// workload's template: the jobs `sim.ipc_gain_pct` compares and the
    /// traced run drives itself.
    pub fn is_pair_job(&self, job: &Job, quick: bool) -> bool {
        PAIR.iter()
            .any(|&p| job.config == self.template(quick).with_policy(p))
    }
}

/// The baseline and the paper's preferred EMISSARY configuration.
pub const PAIR: [PolicySpec; 2] = [PolicySpec::BASELINE, PolicySpec::PREFERRED];

/// Perturbs a profile's program and walker seeds for a held-out `seed`;
/// seed 0 leaves the profile as the paper reproduction defines it.
pub fn perturb(profile: &mut Profile, seed: u64) {
    if seed == 0 {
        return;
    }
    // splitmix64, so neighbouring seeds give unrelated programs.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mix = z ^ (z >> 31);
    profile.seed ^= mix;
    profile.shape.seed ^= mix;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_profile_and_others_differ() {
        let base = Profile::by_name("kafka").unwrap();
        let mut same = base.clone();
        perturb(&mut same, 0);
        assert_eq!(same, base);
        let mut a = base.clone();
        let mut b = base.clone();
        perturb(&mut a, 1);
        perturb(&mut b, 2);
        assert_ne!(a.seed, base.seed);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.seed, a.shape.seed);
    }

    #[test]
    fn campaign_plan_dedups_to_the_unique_set() {
        let w = Workload::by_name("campaign").unwrap();
        let jobs = w.jobs(true, 7);
        let unique = emissary_bench::campaign::dedup_jobs(jobs.clone());
        assert_eq!(jobs.len(), 1679);
        assert_eq!(unique.len(), 1198);
        let pairs = unique.iter().filter(|j| w.is_pair_job(j, true)).count();
        assert_eq!(pairs, 26);
    }
}
