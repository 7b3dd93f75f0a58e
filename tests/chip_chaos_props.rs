//! The execution-fault chaos wall: property tests over the chip-fault
//! injection stack (core offlining, transient outages, dispatch
//! throttling, crashing and hung apps). Four contracts:
//!
//! 1. **No panics, deterministic**: a closed-batch run under any seeded
//!    chip-fault plan completes without panicking and is bit-identical
//!    across cycle engines, matcher counters included.
//! 2. **Zero faults = today**: chip-fault injection at rate 0 produces a
//!    `RunResult` bit-identical to running with no fault plan at all.
//! 3. **Conservation**: the self-healing service loop partitions every
//!    drained trace exactly — `completed + shed + failed = arrivals`,
//!    disjointly — for any fault seed, on every engine.
//! 4. **High-rate survival**: at a punishing fault rate the service still
//!    terminates without panics, and the terminal accounting is honest —
//!    crashes, hangs, evacuations and exhausted retry budgets all show up
//!    in the stats, never as silently vanished apps.

use proptest::prelude::*;
use synpa::apps::workload::{poisson_trace, ArrivalTrace, WorkloadKind};
use synpa::prelude::*;
use synpa::sched::{run_service, run_workload, RunResult, ServiceConfig};
use synpa::sim::EngineKind;
use synpa_experiments::canned_model;

/// Eight apps that exactly fill the 4-core / 8-thread evaluation chip,
/// long enough that nobody completes before the quanta cap: placement
/// pressure stays maximal, so core outages always have someone to evict.
fn chip_filling_apps() -> (Vec<AppProfile>, Vec<f64>) {
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
        .map(|n| spec::by_name(n).unwrap().with_length(u64::MAX / 4))
        .collect();
    let solo = vec![1.0; apps.len()];
    (apps, solo)
}

fn mgr_cfg(engine: EngineKind, chip_faults: Option<ChipFaultConfig>) -> ManagerConfig {
    ManagerConfig {
        chip: ChipConfig::thunderx2(4).with_engine(engine),
        quantum_cycles: 5_000,
        max_quanta: 40,
        faults: None,
        chip_faults,
    }
}

fn chip_faulted_run(engine: EngineKind, chip_faults: Option<ChipFaultConfig>) -> RunResult {
    let (apps, solo) = chip_filling_apps();
    let mut policy = Synpa::new(canned_model());
    run_workload(&apps, &solo, &mut policy, &mgr_cfg(engine, chip_faults))
}

fn trace_profiles(trace: &ArrivalTrace) -> Vec<AppProfile> {
    trace
        .apps
        .iter()
        .map(|n| spec::by_name(n).unwrap().with_length(20_000))
        .collect()
}

fn chaos_service_cfg(engine: EngineKind, chip_faults: Option<ChipFaultConfig>) -> ServiceConfig {
    ServiceConfig {
        manager: ManagerConfig {
            chip: ChipConfig::thunderx2(2).with_engine(engine),
            quantum_cycles: 10_000,
            max_quanta: 3_000,
            faults: None,
            chip_faults,
        },
        queue_capacity: 6,
        ..ServiceConfig::default()
    }
}

/// Asserts the terminal partition: completed, shed and failed are
/// pairwise disjoint, and on a drained trace their union is exactly the
/// arrival set.
fn assert_conserved(r: &synpa::sched::ServiceResult, n: usize) {
    let mut seen: Vec<usize> = r
        .completed
        .iter()
        .map(|a| a.app)
        .chain(r.shed.iter().copied())
        .chain(r.failed.iter().copied())
        .collect();
    let total = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), total, "an app appeared in two terminal sets");
    assert!(
        total <= n,
        "more terminal outcomes ({total}) than arrivals ({n})"
    );
    if r.drained {
        assert_eq!(
            seen,
            (0..n).collect::<Vec<_>>(),
            "a drained trace must partition every arrival"
        );
    }
    assert_eq!(
        r.chip_faults.failed,
        r.failed.len() as u64,
        "the failed counter must match the failed list"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Contract 1: no panic, and bit-identical results across engines for
    // any (seed, rate) — the execution-fault stream is part of the
    // deterministic state, not a source of divergence. `Debug` prints
    // every field exactly, the matcher and chip-fault counters included.
    #[test]
    fn chip_faulted_runs_are_deterministic_across_engines(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.5,
    ) {
        let cf = Some(ChipFaultConfig::uniform(seed, rate));
        let reference = format!("{:?}", chip_faulted_run(EngineKind::Reference, cf));
        for engine in EngineKind::ALL {
            let got = format!("{:?}", chip_faulted_run(engine, cf));
            prop_assert_eq!(&reference, &got, "engine {}", engine);
        }
    }

    // Contract 2: a rate-0 chip-fault plan is indistinguishable — bit for
    // bit, matcher stats included — from no fault plan at all. This is
    // what lets `--chip-faults seed:0` reproduce the healthy tables.
    #[test]
    fn zero_rate_chip_faults_equal_no_chip_faults(seed in 0u64..u64::MAX) {
        let with = chip_faulted_run(EngineKind::PerCore, Some(ChipFaultConfig::uniform(seed, 0.0)));
        let without = chip_faulted_run(EngineKind::PerCore, None);
        prop_assert_eq!(format!("{with:?}"), format!("{without:?}"));
        prop_assert_eq!(with.chip_faults, ChipFaultStats::default());
    }

    // Contract 3: the service conserves arrivals under any fault seed, on
    // every engine — and the per-engine results agree byte for byte.
    #[test]
    fn service_conserves_arrivals_under_chip_faults(
        trace_seed in 0u64..500,
        fault_seed in 0u64..u64::MAX,
        rate in 0.0f64..0.4,
        mean_gap in 1_000.0f64..25_000.0,
    ) {
        let trace = poisson_trace("prop", WorkloadKind::Mixed, 14, mean_gap, trace_seed);
        let apps = trace_profiles(&trace);
        let cf = Some(ChipFaultConfig::uniform(fault_seed, rate));
        let run = |engine| {
            let mut policy = RandomPairing::new(7);
            run_service(&apps, &trace.arrivals, &mut policy, &chaos_service_cfg(engine, cf))
        };
        let reference = run(EngineKind::Reference);
        assert_conserved(&reference, trace.len());
        for engine in EngineKind::ALL {
            let got = run(engine);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "engine {} diverged",
                engine
            );
        }
    }
}

/// Contract 4 on fixed seeds (no proptest shrink noise on occurrence
/// counts): at an 80% fault rate the service survives every seed without
/// panicking, conserves the trace, and the cumulative stats across seeds
/// show every fault channel actually firing — cores offlined, apps
/// evacuated, crashed and hung, retries granted, and at least one app
/// whose retry budget ran out (reported `failed`, never resurrected).
#[test]
fn high_rate_chaos_survives_with_honest_accounting() {
    let trace = poisson_trace("chaos", WorkloadKind::Mixed, 20, 4_000.0, 0xC0FFEE);
    let apps = trace_profiles(&trace);
    let mut cumulative = ChipFaultStats::default();
    for seed in [1u64, 2, 3, 0xD15EA5E] {
        let cf = Some(ChipFaultConfig::uniform(seed, 0.8));
        let mut policy = LinuxLike;
        let r = run_service(
            &apps,
            &trace.arrivals,
            &mut policy,
            &chaos_service_cfg(EngineKind::PerCore, cf),
        );
        assert_conserved(&r, trace.len());
        let s = r.chip_faults;
        cumulative.cores_offlined += s.cores_offlined;
        cumulative.cores_transient += s.cores_transient;
        cumulative.cores_throttled += s.cores_throttled;
        cumulative.apps_evacuated += s.apps_evacuated;
        cumulative.apps_crashed += s.apps_crashed;
        cumulative.apps_hung += s.apps_hung;
        cumulative.retries += s.retries;
        cumulative.failed += s.failed;
    }
    assert!(
        cumulative.apps_crashed > 0,
        "no crash fired: {cumulative:?}"
    );
    assert!(cumulative.apps_hung > 0, "no hang fired: {cumulative:?}");
    assert!(
        cumulative.apps_evacuated > 0,
        "no evacuation fired: {cumulative:?}"
    );
    assert!(cumulative.retries > 0, "no retry granted: {cumulative:?}");
    assert!(
        cumulative.failed > 0,
        "no retry budget ever ran out at 80% rate: {cumulative:?}"
    );
    assert!(
        cumulative.cores_offlined + cumulative.cores_transient + cumulative.cores_throttled > 0,
        "no core event fired: {cumulative:?}"
    );
}
