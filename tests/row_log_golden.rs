//! Golden digests of the closed batch's per-quantum rows. Figs. 6/7 and
//! Table V read nothing else, so these pin every row (quantum, app,
//! categories, co-runner, retired instructions, cycles) of two small
//! closed runs under a migrating policy: one with every app placed from
//! the start, one with staggered, odd-sized arrival waves, where the
//! sampled set grows under the run, and one under a chip-fault plan, where
//! evacuees drop out of the sampled set and come back. A change to how or when rows are
//! recorded fails here, not only in a cross-commit table diff.

use synpa::prelude::*;
use synpa::sched::run_workload_with_arrivals;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The rows of one closed run of eight apps under `RandomPairing(seed)`,
/// and the run's migration count.
fn rows(arrivals: &[u64], seed: u64, cfg: &ManagerConfig) -> (Vec<QuantumRow>, u64) {
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
    let solo = vec![1.0; apps.len()];
    let mut policy = RandomPairing::new(seed);
    let mut log = RowLog::new(&mut policy);
    let result = run_workload_with_arrivals(&apps, &solo, &mut log, cfg, arrivals);
    (log.rows, result.migrations)
}

/// `Debug` prints every field (f64s in shortest-round-trip form), so an
/// equal digest means bit-identical rows.
fn digest(rows: &[QuantumRow]) -> u64 {
    fnv1a(format!("{rows:?}").as_bytes())
}

#[test]
fn full_chip_rows_are_pinned() {
    let (rows, migrations) = rows(&[], 7, &ManagerConfig::default());
    assert_eq!((rows.len(), migrations), (208, 96));
    assert_eq!(digest(&rows), 0x0483_3ff9_5722_c4b6);
}

#[test]
fn staggered_rows_are_pinned() {
    let arrivals = [0, 0, 0, 15_000, 15_000, 40_000, 40_000, 40_000];
    let (rows, migrations) = rows(&arrivals, 5, &ManagerConfig::default());
    assert_eq!((rows.len(), migrations), (184, 78));
    assert_eq!(digest(&rows), 0xa703_ab7e_5ba4_a4c4);
}

#[test]
fn chip_faulted_rows_are_pinned() {
    let cfg = ManagerConfig {
        chip_faults: Some(ChipFaultConfig::uniform(3, 1.0)),
        max_quanta: 400,
        ..Default::default()
    };
    let (rows, migrations) = rows(&[], 11, &cfg);
    assert_eq!((rows.len(), migrations), (918, 82));
    assert_eq!(digest(&rows), 0x84a8_1b5d_bd3f_776c);
}
