//! The chaos wall: property tests over the fault-injection and
//! fault-tolerance stack. Four contracts:
//!
//! 1. **No panics, deterministic**: a managed run under any seeded fault
//!    plan completes without panicking and is bit-identical across cycle
//!    engines, matcher counters included.
//! 2. **Zero faults = today**: fault injection at rate 0 produces a
//!    `RunResult` bit-identical to running with no injector at all.
//! 3. **Injected = observed**: the injector's per-kind counters match an
//!    independent replay of the pure `FaultPlan` over every placed
//!    (app, quantum) pair — nothing is injected off the books.
//! 4. **Bounded degradation**: at a low fault rate the sanitizer confines
//!    damage — healthy samples dominate and degraded samples stay within
//!    a small multiple of the injected fault count.

use proptest::prelude::*;
use synpa::counters::{FaultConfig, FaultKind, FaultPlan, InjectedCounts};
use synpa::prelude::*;
use synpa::sched::{run_workload, RunResult};
use synpa::sim::EngineKind;
use synpa_experiments::canned_model;

/// Eight apps that exactly fill the 4-core / 8-thread evaluation chip,
/// long enough that nobody completes before the quanta cap: every app is
/// placed in every quantum, so fault-plan replay covers the whole run.
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

fn mgr_cfg(engine: EngineKind, faults: Option<FaultConfig>) -> ManagerConfig {
    ManagerConfig {
        chip: ChipConfig::thunderx2(4).with_engine(engine),
        quantum_cycles: 5_000,
        max_quanta: 40,
        faults,
        chip_faults: None,
    }
}

fn faulted_run(engine: EngineKind, faults: Option<FaultConfig>) -> RunResult {
    let (apps, solo) = chip_filling_apps();
    let mut policy = Synpa::new(canned_model());
    run_workload(&apps, &solo, &mut policy, &mgr_cfg(engine, faults))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Contract 1: no panic, and bit-identical results across engines for
    // any (seed, rate) — the fault stream is part of the deterministic
    // state, not a source of divergence. `Debug` prints every field
    // exactly, the matcher counters included.
    #[test]
    fn faulted_runs_are_deterministic_across_engines(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.5,
    ) {
        let faults = Some(FaultConfig::uniform(seed, rate));
        let reference = format!("{:?}", faulted_run(EngineKind::Reference, faults));
        for engine in EngineKind::ALL {
            let got = format!("{:?}", faulted_run(engine, faults));
            prop_assert_eq!(&reference, &got, "engine {}", engine);
        }
    }

    // Contract 2: a rate-0 fault plan is indistinguishable — bit for bit,
    // matcher stats included — from no fault plan at all.
    #[test]
    fn zero_rate_faults_equal_no_faults(seed in 0u64..u64::MAX) {
        let with = faulted_run(EngineKind::PerCore, Some(FaultConfig::uniform(seed, 0.0)));
        let without = faulted_run(EngineKind::PerCore, None);
        prop_assert_eq!(format!("{with:?}"), format!("{without:?}"));
        prop_assert_eq!(with.degraded.injected_total(), 0);
        prop_assert_eq!(with.degraded.samples_degraded(), 0);
    }

    // Contract 3: the injector's per-kind counters equal an independent
    // replay of the pure fault plan over every placed (app, quantum)
    // pair. The chip is exactly full and nobody finishes, so the placed
    // set is all eight apps in every executed quantum.
    #[test]
    fn injected_counts_match_independent_plan_replay(
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.5,
    ) {
        let cfg = FaultConfig::uniform(seed, rate);
        let result = faulted_run(EngineKind::PerCore, Some(cfg));
        let plan = FaultPlan::new(&cfg);
        let mut expected: InjectedCounts = Default::default();
        for q in 0..result.quanta {
            for app in 0..8 {
                if let Some(kind) = plan.kind_at(app, q) {
                    expected[kind as usize] += 1;
                }
            }
        }
        prop_assert_eq!(result.degraded.injected, expected);
        // Per-kind, not just in total: the array indices follow
        // `FaultKind::ALL` order.
        for kind in FaultKind::ALL {
            prop_assert_eq!(
                result.degraded.injected[kind as usize],
                expected[kind as usize],
                "kind {}",
                kind
            );
        }
    }
}

/// Contract 4 on fixed seeds (no proptest shrink noise on a statistical
/// bound): at 5% fault rate, healthy samples dominate and every degraded
/// sample is attributable to an injected fault — each fault costs at most
/// one quantum of damage plus one recovery quantum, plus the holdover TTL
/// tail after a burst.
#[test]
fn low_rate_faults_cause_bounded_degradation() {
    for seed in [1u64, 2, 3, 0xD15EA5E] {
        let cfg = FaultConfig::uniform(seed, 0.05);
        let r = faulted_run(EngineKind::PerCore, Some(cfg));
        let d = r.degraded;
        let total = d.samples_ok + d.samples_degraded();
        assert!(
            d.samples_ok * 2 > total,
            "seed {seed}: healthy samples must dominate at 5% rate ({d:?})"
        );
        assert!(
            d.samples_degraded() <= d.injected_total() * 3 + 4,
            "seed {seed}: degradation must stay proportional to injection ({d:?})"
        );
        assert_eq!(
            d.fallback_entries, 0,
            "seed {seed}: 5% noise must never trip the fallback guardrail ({d:?})"
        );
    }
}
