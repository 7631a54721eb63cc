//! Per-benchmark workload profiles.
//!
//! One profile per paper benchmark (§5.3), named identically. Instruction
//! footprints follow Figure 4 (tomcat largest at ~2.6 MB, xapian smallest
//! at ~0.3 MB, ~1 MB average); service counts, popularity skew, branch
//! hardness and data-region sizes are tuned so the baseline simulation
//! reproduces the *character* of Figure 3 (e.g. verilator's huge L2
//! instruction MPKI, kafka/media-stream's data-dominated L2 traffic,
//! xapian/web-search barely missing in L2). Absolute values are not — and
//! cannot be — the paper's; see DESIGN.md §1.

use crate::builder::{build_program, ProgramShape};
use crate::program::Program;

/// A named benchmark profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// Program-generation knobs.
    pub shape: ProgramShape,
    /// Simulation seed (walker + program generation derive from it).
    pub seed: u64,
}

impl Profile {
    /// Builds the synthetic program for this profile.
    pub fn build(&self) -> Program {
        build_program(&self.shape)
    }

    /// The process-shared program for this profile: the live one if some
    /// caller holds it, else a fresh build (see [`crate::store`]).
    /// Identical to [`Profile::build`] in content.
    pub fn shared_program(&self) -> std::sync::Arc<Program> {
        crate::store::shared_program(self)
    }

    /// Looks a profile up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Profile> {
        let lower = name.to_ascii_lowercase();
        Profile::all().into_iter().find(|p| p.name == lower)
    }

    /// All 13 profiles in the paper's presentation order.
    pub fn all() -> Vec<Profile> {
        #[allow(clippy::too_many_arguments)]
        fn mk(
            name: &'static str,
            seed: u64,
            code_kb: u32,
            num_services: u32,
            service_skew: f64,
            service_rotation: f64,
            repeat: u32,
            hard_branch_frac: f64,
            (hot_kb, warm_kb, stream_kb): (u32, u32, u32),
            data_weights: (f64, f64, f64),
            load_frac: f64,
        ) -> Profile {
            Profile {
                name,
                seed,
                shape: ProgramShape {
                    code_kb,
                    num_services,
                    service_skew,
                    service_rotation,
                    service_repeat: repeat,
                    dispatcher_blocks: 6,
                    helper_funcs: (num_services / 4).max(2),
                    helper_blocks: 4,
                    avg_block_instrs: 8,
                    cond_frac: 0.40,
                    hard_branch_frac,
                    loop_frac: 0.08,
                    loop_trip: 4,
                    call_frac: 0.08,
                    load_frac,
                    store_frac: 0.10,
                    hot_kb,
                    warm_kb,
                    stream_kb,
                    data_weights,
                    seed,
                },
            }
        }
        vec![
            // name            seed  codeKB svc  skew  rot  rep  hard  (hot,warm,stream)KB  (wh,ww,ws)          load
            mk(
                "specjbb",
                0xA001,
                1200,
                48,
                0.8,
                0.55,
                2,
                0.06,
                (48, 96, 4096),
                (0.55, 0.25, 0.20),
                0.30,
            ),
            mk(
                "xapian",
                0xA002,
                300,
                12,
                1.0,
                0.30,
                3,
                0.04,
                (16, 64, 128),
                (0.82, 0.15, 0.03),
                0.25,
            ),
            mk(
                "finagle-http",
                0xA003,
                1100,
                64,
                0.20,
                0.75,
                2,
                0.08,
                (16, 96, 4096),
                (0.80, 0.16, 0.04),
                0.25,
            ),
            mk(
                "finagle-chirper",
                0xA004,
                800,
                48,
                0.30,
                0.70,
                2,
                0.08,
                (16, 96, 4096),
                (0.80, 0.16, 0.04),
                0.25,
            ),
            mk(
                "tomcat",
                0xA005,
                2600,
                96,
                0.50,
                0.75,
                2,
                0.07,
                (16, 96, 4096),
                (0.82, 0.15, 0.03),
                0.25,
            ),
            mk(
                "kafka",
                0xA006,
                900,
                32,
                1.2,
                0.40,
                3,
                0.05,
                (48, 128, 8192),
                (0.50, 0.25, 0.25),
                0.30,
            ),
            mk(
                "tpcc",
                0xA007,
                450,
                16,
                1.5,
                0.30,
                3,
                0.05,
                (16, 96, 128),
                (0.82, 0.15, 0.03),
                0.25,
            ),
            mk(
                "wikipedia",
                0xA008,
                1400,
                48,
                0.90,
                0.60,
                2,
                0.06,
                (16, 96, 4096),
                (0.80, 0.16, 0.04),
                0.25,
            ),
            mk(
                "media-stream",
                0xA009,
                500,
                16,
                1.2,
                0.30,
                3,
                0.04,
                (48, 128, 8192),
                (0.45, 0.20, 0.35),
                0.30,
            ),
            mk(
                "web-search",
                0xA00A,
                600,
                24,
                1.6,
                0.35,
                3,
                0.05,
                (16, 96, 128),
                (0.82, 0.15, 0.03),
                0.25,
            ),
            mk(
                "data-serving",
                0xA00B,
                1000,
                48,
                0.60,
                0.65,
                2,
                0.07,
                (16, 96, 4096),
                (0.78, 0.17, 0.05),
                0.25,
            ),
            mk(
                "verilator",
                0xA00C,
                2200,
                64,
                0.05,
                1.00,
                1,
                0.03,
                (16, 64, 64),
                (0.85, 0.13, 0.02),
                0.25,
            ),
            mk(
                "speedometer2.0",
                0xA00D,
                1000,
                32,
                1.4,
                0.55,
                2,
                0.08,
                (16, 96, 4096),
                (0.78, 0.17, 0.05),
                0.25,
            ),
        ]
    }

    /// The paper's benchmark names in presentation order.
    pub fn names() -> Vec<&'static str> {
        Profile::all().into_iter().map(|p| p.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_profiles_matching_paper_names() {
        let names = Profile::names();
        assert_eq!(names.len(), 13);
        for expect in [
            "specjbb",
            "xapian",
            "finagle-http",
            "finagle-chirper",
            "tomcat",
            "kafka",
            "tpcc",
            "wikipedia",
            "media-stream",
            "web-search",
            "data-serving",
            "verilator",
            "speedometer2.0",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(Profile::by_name("TOMCAT").is_some());
        assert!(Profile::by_name("Verilator").is_some());
        assert!(Profile::by_name("nope").is_none());
    }

    #[test]
    fn every_profile_builds_a_valid_program() {
        for p in Profile::all() {
            let prog = p.build();
            assert_eq!(prog.validate(), Ok(()), "profile {}", p.name);
        }
    }

    #[test]
    fn footprints_follow_figure4_ordering() {
        let code_bytes = |name: &str| Profile::by_name(name).unwrap().build().code_bytes();
        let tomcat = code_bytes("tomcat");
        let xapian = code_bytes("xapian");
        let verilator = code_bytes("verilator");
        assert!(tomcat > verilator, "tomcat must have the largest footprint");
        assert!(verilator > xapian);
        // Figure 4: tomcat ~2.57 MB, xapian ~0.29 MB.
        assert!(tomcat > 2 * 1024 * 1024);
        assert!(xapian < 512 * 1024);
    }

    #[test]
    fn average_footprint_near_one_megabyte() {
        let total: u64 = Profile::all().iter().map(|p| p.build().code_bytes()).sum();
        let avg = total / 13;
        // Paper: average 1.05 MB. Accept 0.7..1.5 MB.
        assert!(
            (700 * 1024..1500 * 1024).contains(&avg),
            "average footprint {avg} bytes"
        );
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = Profile::all().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 13);
    }
}
