//! Differential test wall for the per-core horizon engine.
//!
//! The engine's contract is *bit-identity*: for every seed, chip size and
//! workload, `EngineKind::PerCore` (per-core horizons with LLC-epoch
//! rendezvous) must produce exactly the same PMU counters, completions,
//! placements and `RunResult`s as the retained `EngineKind::Reference`
//! cycle-by-cycle loop. These tests run both engines side by side over
//! unit scenarios, full 28-core/56-thread chips, partial-occupancy and
//! staggered-arrival managed runs, and proptest-randomized demand mixes —
//! including a compute-bound / private-cache-heavy family (long private
//! phases, rare LLC touches, frequent completions).

use proptest::prelude::*;
use synpa::prelude::*;
use synpa::sched::RunResult;
use synpa::sim::{EngineKind, PhaseParams, UniformProgram};

/// Memory-bound demands: long DRAM-latency stalls, the regime the horizon
/// engine elides most aggressively.
fn mem_phase() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.45,
        data_footprint: 16 << 20,
        data_seq: 0.05,
        code_footprint: 1024,
        code_hot: 1.0,
        br_misp_rate: 0.0002,
        exec_latency: 1,
        mlp: 0.3,
    }
}

/// Frontend-hostile demands: I-cache misses and redirects dominate.
fn icache_phase() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.1,
        data_footprint: 2048,
        data_seq: 0.9,
        code_footprint: 256 << 10,
        code_hot: 0.3,
        br_misp_rate: 0.012,
        exec_latency: 1,
        mlp: 0.8,
    }
}

/// LLC-thrashing demands: every L1D miss escalates past the (bypassed) L2
/// into the shared LLC, so shared touches are frequent and every core
/// rendezvouses often.
fn llc_phase() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.3,
        data_footprint: 256 << 10,
        data_seq: 0.4,
        ..PhaseParams::compute()
    }
}

/// Compute-bound, private-cache-heavy demands: hot code resident in the
/// L1I, data resident in the private L1/L2, so after warm-up almost every
/// active cycle is private and shared touches are rare.
fn private_phase() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.25,
        data_footprint: 16 << 10,
        data_seq: 0.7,
        code_footprint: 1024,
        code_hot: 1.0,
        br_misp_rate: 0.001,
        exec_latency: 1,
        mlp: 0.8,
    }
}

/// Every engine, reference loop first.
fn engine_variants(cfg: &ChipConfig) -> Vec<(String, ChipConfig)> {
    EngineKind::ALL
        .iter()
        .map(|&e| (e.to_string(), cfg.clone().with_engine(e)))
        .collect()
}

fn build(cfg: &ChipConfig, apps: &[(PhaseParams, u64)]) -> Chip {
    let mut chip = Chip::new(cfg.clone());
    for (i, &(params, len)) in apps.iter().enumerate() {
        chip.attach(
            Slot(i),
            i,
            Box::new(UniformProgram::new(format!("p{i}"), params, len)),
        );
    }
    chip
}

/// Runs the same chunk schedule under every engine and asserts every
/// observable matches the reference loop: per-chunk completions, final
/// cycle, final placement and every field of every thread's PMU. `swap`
/// optionally exchanges the slots of two apps after the given chunk,
/// exercising the migration path.
fn assert_equivalent(
    cfg: &ChipConfig,
    apps: &[(PhaseParams, u64)],
    chunks: &[u64],
    swap: Option<(usize, usize, usize)>,
) {
    let variants = engine_variants(cfg);
    let mut chips: Vec<Chip> = variants.iter().map(|(_, c)| build(c, apps)).collect();
    for (k, &n) in chunks.iter().enumerate() {
        let mut events = Vec::new();
        for (chip, (label, _)) in chips.iter_mut().zip(&variants) {
            events.push((label, chip.run_cycles(n)));
        }
        for (label, ev) in &events[1..] {
            assert_eq!(
                &events[0].1, ev,
                "completions diverged from reference in chunk {k} ({label})"
            );
        }
        let cycle = chips[0].cycle();
        assert!(chips.iter().all(|c| c.cycle() == cycle));
        if let Some((after, a, b)) = swap {
            if after == k && a < apps.len() && b < apps.len() && a != b {
                for chip in &mut chips {
                    let sa = chip.slot_of(a).unwrap();
                    let sb = chip.slot_of(b).unwrap();
                    chip.set_placement(&[(a, sb), (b, sa)]);
                }
            }
        }
    }
    let (reference, others) = chips.split_first().unwrap();
    for (j, other) in others.iter().enumerate() {
        let label = &variants[j + 1].0;
        assert_eq!(reference.placement(), other.placement(), "{label}");
        for i in 0..apps.len() {
            assert_eq!(
                reference.pmu_of(i).unwrap(),
                other.pmu_of(i).unwrap(),
                "PMU counters diverged for app {i} ({label})"
            );
            assert_eq!(reference.launches_of(i), other.launches_of(i), "{label}");
        }
    }
}

#[test]
fn single_thread_all_profiles() {
    for phase in [
        PhaseParams::compute(),
        mem_phase(),
        icache_phase(),
        llc_phase(),
        private_phase(),
    ] {
        assert_equivalent(
            &ChipConfig::thunderx2(1),
            &[(phase, 10_000)],
            &[3_000, 3_000, 3_000],
            None,
        );
    }
}

#[test]
fn private_phases_agree_with_reference() {
    // Long private phases with rare LLC touches and short launches, so
    // completions land between long stretches of private cycles many times
    // per run. Mixing a private-heavy pair against a memory hog on the
    // neighbouring core also checks that a private-phase core never
    // perturbs the rendezvous interleaving of the cores that do touch
    // shared state.
    assert_equivalent(
        &ChipConfig::thunderx2(1),
        &[(private_phase(), 8_000), (private_phase(), 11_000)],
        &[4_000, 4_000, 4_000],
        None,
    );
    assert_equivalent(
        &ChipConfig::thunderx2(2),
        &[
            (private_phase(), 20_000),
            (private_phase(), 15_000),
            (mem_phase(), u64::MAX),
            (llc_phase(), 25_000),
        ],
        &[5_000, 5_000, 5_000],
        Some((1, 0, 2)),
    );
}

#[test]
fn smt_pair_mixed_profiles() {
    assert_equivalent(
        &ChipConfig::thunderx2(1),
        &[(PhaseParams::compute(), u64::MAX), (mem_phase(), u64::MAX)],
        &[5_000, 5_000],
        None,
    );
    assert_equivalent(
        &ChipConfig::thunderx2(1),
        &[(mem_phase(), u64::MAX), (mem_phase(), 40_000)],
        &[5_000, 5_000],
        None,
    );
}

#[test]
fn full_4core_chip_with_migration() {
    let apps: Vec<(PhaseParams, u64)> = (0..8)
        .map(|i| {
            let p = match i % 4 {
                0 => PhaseParams::compute(),
                1 => mem_phase(),
                2 => icache_phase(),
                _ => llc_phase(),
            };
            (p, 50_000)
        })
        .collect();
    assert_equivalent(
        &ChipConfig::thunderx2(4),
        &apps,
        &[4_000, 4_000, 4_000],
        Some((1, 0, 5)),
    );
}

#[test]
fn partial_occupancy_and_empty_chip() {
    // Three apps on a 4-core chip: five empty slots, one empty core pair.
    assert_equivalent(
        &ChipConfig::thunderx2(4),
        &[
            (mem_phase(), u64::MAX),
            (PhaseParams::compute(), 20_000),
            (llc_phase(), u64::MAX),
        ],
        &[6_000, 6_000],
        None,
    );
    // No apps at all: both engines just advance the clock.
    assert_equivalent(&ChipConfig::thunderx2(2), &[], &[10_000], None);
}

#[test]
fn thunderx2_full_56_threads() {
    let apps: Vec<(PhaseParams, u64)> = (0..56)
        .map(|i| {
            let p = match i % 5 {
                0 => PhaseParams::compute(),
                1 => mem_phase(),
                2 => icache_phase(),
                3 => private_phase(),
                _ => llc_phase(),
            };
            (p, 30_000)
        })
        .collect();
    assert_equivalent(
        &ChipConfig::thunderx2_full(),
        &apps,
        &[2_000, 2_000, 2_000],
        Some((0, 3, 40)),
    );
}

/// `Debug` output prints every field (f64s in shortest-round-trip form),
/// so equal strings mean bit-identical run results.
fn run_fingerprint(engine: EngineKind, policy_seed: u64) -> String {
    let names = [
        "mcf",
        "xalancbmk_r",
        "gobmk",
        "perlbench",
        "nab_r",
        "hmmer",
        "leela_r",
        "astar",
    ];
    let apps: Vec<AppProfile> = names
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(30_000))
        .collect();
    let solo = vec![1.0; 8];
    let cfg = ManagerConfig {
        chip: ChipConfig::thunderx2(4).with_engine(engine),
        ..Default::default()
    };
    let mut policy = RandomPairing::new(policy_seed);
    let mut log = RowLog::new(&mut policy);
    let result: RunResult = run_workload(&apps, &solo, &mut log, &cfg);
    format!("{result:?}{:?}", log.rows)
}

#[test]
fn managed_workload_run_is_bit_identical() {
    // RandomPairing migrates threads every quantum, so this covers the
    // whole manager loop: sampling, placement changes, completions.
    assert_eq!(
        run_fingerprint(EngineKind::Reference, 7),
        run_fingerprint(EngineKind::PerCore, 7)
    );
}

/// Fingerprint of a managed run with partial occupancy and/or staggered
/// arrivals (the scenario-diversity regimes where the per-core engine
/// skips whole cores for long stretches).
fn arrivals_fingerprint(
    engine: EngineKind,
    names: &[&str],
    arrivals: &[u64],
    cores: u32,
    policy_seed: u64,
) -> String {
    let apps: Vec<AppProfile> = names
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(25_000))
        .collect();
    let solo = vec![1.0; apps.len()];
    let cfg = ManagerConfig {
        chip: ChipConfig::thunderx2(cores).with_engine(engine),
        ..Default::default()
    };
    let mut policy = RandomPairing::new(policy_seed);
    let mut log = RowLog::new(&mut policy);
    let result: RunResult = run_workload_with_arrivals(&apps, &solo, &mut log, &cfg, arrivals);
    format!("{result:?}{:?}", log.rows)
}

#[test]
fn partial_occupancy_managed_run_is_bit_identical() {
    // 4 apps on a 4-core/8-thread chip: half the cores are empty all run,
    // exactly where the per-core engine elides the most.
    let names = ["mcf", "gobmk", "hmmer", "astar"];
    assert_eq!(
        arrivals_fingerprint(EngineKind::Reference, &names, &[], 4, 3),
        arrivals_fingerprint(EngineKind::PerCore, &names, &[], 4, 3)
    );
}

#[test]
fn phase_shifted_managed_run_is_bit_identical() {
    // Three two-app waves on a 4-core chip: cores fill in waves and the
    // thread count changes mid-run (attach path under every engine).
    let names = ["mcf", "xalancbmk_r", "gobmk", "perlbench", "nab_r", "hmmer"];
    let arrivals = [0, 0, 20_000, 20_000, 45_000, 45_000];
    assert_eq!(
        arrivals_fingerprint(EngineKind::Reference, &names, &arrivals, 4, 9),
        arrivals_fingerprint(EngineKind::PerCore, &names, &arrivals, 4, 9)
    );
}

fn arb_phase() -> impl Strategy<Value = PhaseParams> {
    (
        0.0f64..0.5,  // mem_ratio
        1u64..8192,   // data footprint (KiB)
        0.0f64..1.0,  // data_seq
        1u64..256,    // code footprint (KiB)
        0.3f64..1.0,  // code_hot
        0.0f64..0.02, // br_misp_rate
        1u32..6,      // exec_latency
        0.0f64..1.0,  // mlp
    )
        .prop_map(
            |(mem_ratio, data_kb, data_seq, code_kb, code_hot, br, exec_latency, mlp)| {
                PhaseParams {
                    mem_ratio,
                    data_footprint: data_kb * 1024,
                    data_seq,
                    code_footprint: code_kb * 1024,
                    code_hot,
                    br_misp_rate: br,
                    exec_latency,
                    mlp,
                }
            },
        )
}

proptest! {
    // Each case runs three whole managed workloads, so fewer cases than
    // the chip-level proptest below.
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Managed runs over randomized occupancy and arrival waves: every
    // engine must agree on the whole `RunResult` when the chip is
    // underfilled and threads arrive in staggered even waves.
    #[test]
    fn engines_agree_on_partial_and_staggered_runs(
        cores in 2u32..5,
        pairs in 1usize..4,
        wave_gap in 1u64..30_000,
        app_pick in 0usize..1000,
        policy_seed in 0u64..1_000_000,
    ) {
        let pool = [
            "mcf", "xalancbmk_r", "gobmk", "perlbench", "nab_r", "hmmer",
            "leela_r", "astar", "milc", "lbm_r",
        ];
        let slots = cores as usize * 2;
        let n = (2 * pairs).min(slots);
        let names: Vec<&str> = (0..n).map(|k| pool[(app_pick + 3 * k) % pool.len()]).collect();
        // Waves of two apps each, `wave_gap` cycles apart.
        let arrivals: Vec<u64> = (0..n).map(|k| (k / 2) as u64 * wave_gap).collect();
        prop_assert_eq!(
            arrivals_fingerprint(EngineKind::Reference, &names, &arrivals, cores, policy_seed),
            arrivals_fingerprint(EngineKind::PerCore, &names, &arrivals, cores, policy_seed)
        );
    }
}

/// Compute-bound / private-cache-heavy demands: footprints that fit the
/// private L1/L2, mostly-hot code, modest memory ratios: long private
/// phases with rare LLC touches, a corner the generic `arb_phase` only
/// rarely lands in.
fn arb_private_phase() -> impl Strategy<Value = PhaseParams> {
    (
        0.0f64..0.35,  // mem_ratio
        1u64..48,      // data footprint (KiB) — L1/L2 resident
        0.3f64..1.0,   // data_seq
        1u64..4,       // code footprint (KiB) — L1I resident
        0.9f64..1.0,   // code_hot
        0.0f64..0.002, // br_misp_rate
        1u32..4,       // exec_latency
        0.3f64..1.0,   // mlp
    )
        .prop_map(
            |(mem_ratio, data_kb, data_seq, code_kb, code_hot, br, exec_latency, mlp)| {
                PhaseParams {
                    mem_ratio,
                    data_footprint: data_kb * 1024,
                    data_seq,
                    code_footprint: code_kb * 1024,
                    code_hot,
                    br_misp_rate: br,
                    exec_latency,
                    mlp,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_workloads(
        phases in proptest::collection::vec(arb_phase(), 1..8),
        cores in 1u32..4,
        seed in 0u64..1_000_000,
        len in 5_000u64..80_000,
        chunk in 500u64..4_000,
        swap_after in 0usize..3,
    ) {
        let slots = (cores * 2) as usize;
        let apps: Vec<(PhaseParams, u64)> =
            phases.iter().take(slots).map(|&p| (p, len)).collect();
        let swap = (apps.len() >= 2).then_some((swap_after, 0usize, apps.len() - 1));
        assert_equivalent(
            &ChipConfig::thunderx2(cores).with_seed(seed),
            &apps,
            &[chunk, chunk, chunk],
            swap,
        );
    }

    // Private-cache-heavy mixes with short launches, so completions and
    // the occasional cold-line LLC walk interrupt long private stretches,
    // across chip sizes and mid-run migrations.
    #[test]
    fn engines_agree_on_private_heavy_workloads(
        phases in proptest::collection::vec(arb_private_phase(), 1..8),
        cores in 1u32..4,
        seed in 0u64..1_000_000,
        len in 2_000u64..40_000,
        chunk in 500u64..4_000,
        swap_after in 0usize..3,
    ) {
        let slots = (cores * 2) as usize;
        let apps: Vec<(PhaseParams, u64)> =
            phases.iter().take(slots).map(|&p| (p, len)).collect();
        let swap = (apps.len() >= 2).then_some((swap_after, 0usize, apps.len() - 1));
        assert_equivalent(
            &ChipConfig::thunderx2(cores).with_seed(seed),
            &apps,
            &[chunk, chunk, chunk],
            swap,
        );
    }
}
