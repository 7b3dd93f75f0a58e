//! Seed-determinism regression: the whole experiment pipeline is a pure
//! function of its seed. Re-running a cell with the same `base_seed` must
//! reproduce every field of every repetition's `RunResult` bit for bit;
//! changing the seed must change the outcome.

use synpa::prelude::*;
use synpa::sched::PreparedWorkload;

fn tiny_cfg(base_seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        reps: 2,
        target_window: 60_000,
        calibration_warmup: 30_000,
        base_seed,
        ..Default::default()
    }
}

/// `Debug` output covers every field (including each `f64`, printed with
/// shortest-round-trip formatting), so equal strings mean bit-identical
/// results.
fn fingerprint(prepared: &PreparedWorkload, seed: u64) -> String {
    let cfg = tiny_cfg(seed);
    let policy = |s| Box::new(RandomPairing::new(s)) as Box<dyn Policy>;
    let cell = run_cell(prepared, policy, &cfg);
    let rows = exemplar_rows(prepared, policy, &cfg, &cell);
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        cell.tt_runs, cell.app_ipc, cell.app_speedup, cell.exemplar, cell.discarded, rows
    )
}

#[test]
fn same_seed_reproduces_bit_identical_results() {
    let cfg = tiny_cfg(0xBEEF);
    let prepared = prepare_workload(&workload::by_name("fb2").unwrap(), &cfg);
    let a = fingerprint(&prepared, 0xBEEF);
    let b = fingerprint(&prepared, 0xBEEF);
    assert_eq!(a, b, "same base_seed must reproduce the run exactly");
}

#[test]
fn different_seeds_diverge() {
    let cfg = tiny_cfg(0xBEEF);
    let prepared = prepare_workload(&workload::by_name("fb2").unwrap(), &cfg);
    // RandomPairing's placements depend on the rep seed, so some measured
    // quantity must change when the seed space shifts.
    let a = fingerprint(&prepared, 0xBEEF);
    let b = fingerprint(&prepared, 0xF00D_0000);
    assert_ne!(a, b, "distinct seeds should not collide on full traces");
}

#[test]
fn preparation_is_deterministic_too() {
    // Two configs, so the second call calibrates again instead of reading
    // the first one's memo.
    let w = workload::by_name("be0").unwrap();
    let p1 = prepare_workload(&w, &tiny_cfg(1));
    let p2 = prepare_workload(&w, &tiny_cfg(1));
    assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
}
