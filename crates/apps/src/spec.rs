//! The 28 SPEC-CPU-like application models of the paper (Table III).
//!
//! Each model is synthetic: its demand parameters are hand-tuned so that its
//! *isolated* dispatch-stage characterization on the simulator lands in the
//! same Table III group (and roughly the same Fig. 4 position) as the real
//! benchmark does on the ThunderX2. SYNPA only ever observes the four PMU
//! counters, so matching the counter signature is what preserves behaviour
//! (see `docs/simulation.md`).
//!
//! Applications with documented phase behaviour — notably `leela_r`, whose
//! alternation between frontend- and backend-dominated phases drives the
//! Fig. 7 case study — get multiple phases.

use crate::classify::Group;
use crate::profile::{AppProfile, Phase};
use synpa_sim::PhaseParams;

/// Default launch length used before target-instruction calibration.
pub const DEFAULT_LENGTH: u64 = 200_000;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// A memory-dominated phase: footprint beyond the LLC, cache-resident code.
fn mem_phase(mem_ratio: f64, footprint: u64, seq: f64, mlp: f64, exec_latency: u32) -> PhaseParams {
    PhaseParams {
        mem_ratio,
        data_footprint: footprint,
        data_seq: seq,
        code_footprint: 2 * KB,
        code_hot: 1.0,
        br_misp_rate: 0.0008,
        exec_latency,
        mlp,
    }
}

/// A frontend-hostile phase: cold-code excursions and mispredicting
/// branches. `hot` is the fraction of fetches served by the resident loop
/// body; lower = more I-cache misses.
fn fe_phase(code: u64, hot: f64, br: f64, mem_ratio: f64, footprint: u64) -> PhaseParams {
    PhaseParams {
        mem_ratio,
        data_footprint: footprint,
        data_seq: 0.4,
        code_footprint: code,
        code_hot: hot,
        br_misp_rate: br,
        exec_latency: 1,
        mlp: 0.6,
    }
}

/// A balanced/compute phase.
#[allow(clippy::too_many_arguments)]
fn mix_phase(
    mem_ratio: f64,
    footprint: u64,
    seq: f64,
    code: u64,
    hot: f64,
    br: f64,
    exec_latency: u32,
    mlp: f64,
) -> PhaseParams {
    PhaseParams {
        mem_ratio,
        data_footprint: footprint,
        data_seq: seq,
        code_footprint: code,
        code_hot: hot,
        br_misp_rate: br,
        exec_latency,
        mlp,
    }
}

fn uniform(name: &str, p: PhaseParams) -> AppProfile {
    AppProfile::uniform(name, p, DEFAULT_LENGTH)
}

/// Builds all 28 application models, in the order used throughout the repo.
pub fn catalog() -> Vec<AppProfile> {
    vec![
        // ---- backend bound (Table III: backend stalls > 65 %) ----
        uniform("cactuBSSN_r", mem_phase(0.33, MB, 0.60, 0.60, 2)),
        uniform("lbm_r", mem_phase(0.45, 4 * MB, 0.90, 0.80, 1)),
        uniform("mcf", mem_phase(0.34, 2 * MB, 0.10, 0.15, 1)),
        uniform("milc", mem_phase(0.36, 768 * KB, 0.45, 0.50, 2)),
        uniform("xalancbmk_r", mem_phase(0.30, 384 * KB, 0.25, 0.40, 1)),
        uniform("wrf_r", mem_phase(0.32, 384 * KB, 0.65, 0.55, 2)),
        // ---- frontend bound (frontend stalls > 35 %) ----
        uniform("astar", fe_phase(24 * KB, 0.85, 0.005, 0.16, 96 * KB)),
        uniform("gobmk", fe_phase(32 * KB, 0.88, 0.004, 0.15, 32 * KB)),
        // leela_r alternates frontend- and backend-dominated phases; the
        // paper's Fig. 7 case study hinges on this dynamic behaviour.
        AppProfile::new(
            "leela_r",
            vec![
                Phase {
                    instructions: 75_000,
                    params: fe_phase(32 * KB, 0.82, 0.006, 0.12, 64 * KB),
                },
                Phase {
                    instructions: 25_000,
                    params: mem_phase(0.24, 320 * KB, 0.20, 0.45, 1),
                },
            ],
            DEFAULT_LENGTH,
        ),
        // mcf_r: frontend-classified variant with a secondary memory phase.
        AppProfile::new(
            "mcf_r",
            vec![
                Phase {
                    instructions: 80_000,
                    params: fe_phase(24 * KB, 0.82, 0.006, 0.18, 96 * KB),
                },
                Phase {
                    instructions: 20_000,
                    params: mem_phase(0.24, 256 * KB, 0.15, 0.50, 1),
                },
            ],
            DEFAULT_LENGTH,
        ),
        uniform("perlbench", fe_phase(48 * KB, 0.86, 0.004, 0.18, 128 * KB)),
        // ---- others ----
        uniform(
            "blender_r",
            mix_phase(0.25, 96 * KB, 0.6, 16 * KB, 0.96, 0.0025, 2, 0.6),
        ),
        uniform(
            "bwaves",
            mix_phase(0.31, 128 * KB, 0.85, 2 * KB, 1.0, 0.001, 2, 0.85),
        ),
        uniform(
            "bzip2",
            mix_phase(0.26, 96 * KB, 0.5, 8 * KB, 0.96, 0.003, 1, 0.55),
        ),
        uniform(
            "calculix",
            mix_phase(0.22, 48 * KB, 0.8, 4 * KB, 1.0, 0.002, 3, 0.7),
        ),
        uniform(
            "cam4_r",
            mix_phase(0.26, 128 * KB, 0.6, 24 * KB, 0.965, 0.002, 2, 0.6),
        ),
        uniform(
            "deepsjeng_r",
            mix_phase(0.18, 48 * KB, 0.5, 24 * KB, 0.98, 0.0025, 1, 0.6),
        ),
        uniform(
            "exchange2_r",
            mix_phase(0.10, 16 * KB, 0.85, 4 * KB, 1.0, 0.002, 1, 0.8),
        ),
        uniform(
            "fotonik3d_r",
            mix_phase(0.34, 160 * KB, 0.92, 2 * KB, 1.0, 0.001, 1, 0.92),
        ),
        // hmmer sits at the low-FD end of "others" in Fig. 4 (~20 % FD).
        uniform(
            "hmmer",
            mix_phase(0.30, 128 * KB, 0.35, 12 * KB, 0.96, 0.0025, 2, 0.45),
        ),
        uniform(
            "imagick_r",
            mix_phase(0.18, 64 * KB, 0.85, 4 * KB, 1.0, 0.001, 4, 0.7),
        ),
        // nab_r is the high-FD end of "others" (~61 % FD).
        uniform(
            "nab_r",
            mix_phase(0.15, 24 * KB, 0.85, 4 * KB, 1.0, 0.001, 1, 0.8),
        ),
        uniform(
            "namd_r",
            mix_phase(0.20, 48 * KB, 0.8, 6 * KB, 1.0, 0.001, 3, 0.7),
        ),
        uniform(
            "omnetpp_r",
            mix_phase(0.18, 192 * KB, 0.4, 20 * KB, 0.955, 0.003, 1, 0.5),
        ),
        uniform(
            "parest_r",
            mix_phase(0.26, 128 * KB, 0.55, 8 * KB, 0.97, 0.002, 2, 0.55),
        ),
        uniform(
            "povray_r",
            mix_phase(0.15, 32 * KB, 0.7, 16 * KB, 0.975, 0.003, 2, 0.7),
        ),
        uniform(
            "roms_r",
            mix_phase(0.26, 112 * KB, 0.88, 2 * KB, 1.0, 0.001, 2, 0.8),
        ),
        uniform(
            "tonto",
            mix_phase(0.24, 96 * KB, 0.65, 12 * KB, 0.965, 0.0025, 2, 0.6),
        ),
    ]
}

/// Looks up one application model by name.
pub fn by_name(name: &str) -> Option<AppProfile> {
    catalog().into_iter().find(|a| {
        use synpa_sim::ThreadProgram;
        a.name() == name
    })
}

/// The group Table III assigns to each application.
pub fn expected_group(name: &str) -> Option<Group> {
    const BACKEND: [&str; 6] = [
        "cactuBSSN_r",
        "lbm_r",
        "mcf",
        "milc",
        "xalancbmk_r",
        "wrf_r",
    ];
    const FRONTEND: [&str; 5] = ["astar", "gobmk", "leela_r", "mcf_r", "perlbench"];
    const OTHERS: [&str; 17] = [
        "blender_r",
        "bwaves",
        "bzip2",
        "calculix",
        "cam4_r",
        "deepsjeng_r",
        "exchange2_r",
        "fotonik3d_r",
        "hmmer",
        "imagick_r",
        "nab_r",
        "namd_r",
        "omnetpp_r",
        "parest_r",
        "povray_r",
        "roms_r",
        "tonto",
    ];
    if BACKEND.contains(&name) {
        Some(Group::BackendBound)
    } else if FRONTEND.contains(&name) {
        Some(Group::FrontendBound)
    } else if OTHERS.contains(&name) {
        Some(Group::Others)
    } else {
        None
    }
}

/// Names of all applications in a given group, catalog order.
pub fn group_members(group: Group) -> Vec<String> {
    use synpa_sim::ThreadProgram;
    catalog()
        .iter()
        .filter(|a| expected_group(a.name()) == Some(group))
        .map(|a| a.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_sim::ThreadProgram;

    #[test]
    fn catalog_has_28_distinct_apps() {
        let apps = catalog();
        assert_eq!(apps.len(), 28);
        let mut names: Vec<_> = apps.iter().map(|a| a.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 28, "names must be unique");
    }

    #[test]
    fn every_app_has_an_expected_group() {
        for app in catalog() {
            assert!(
                expected_group(app.name()).is_some(),
                "{} missing from Table III mapping",
                app.name()
            );
        }
    }

    #[test]
    fn group_sizes_match_table3() {
        assert_eq!(group_members(Group::BackendBound).len(), 6);
        assert_eq!(group_members(Group::FrontendBound).len(), 5);
        assert_eq!(group_members(Group::Others).len(), 17);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("leela_r").is_some());
        assert!(by_name("not_an_app").is_none());
    }

    #[test]
    fn leela_has_two_phases() {
        let leela = by_name("leela_r").unwrap();
        assert_eq!(leela.phases().len(), 2);
        // Frontend phase first, memory phase second.
        assert!(leela.phases()[0].params.code_footprint > leela.phases()[1].params.code_footprint);
    }
}
