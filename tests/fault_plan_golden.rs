//! Golden vectors for both seeded fault plans. The counter plan
//! (`--faults`) and the chip plan (`--chip-faults`) are pure functions of
//! `(seed, cell)`, and every byte-diffed chaos table rests on their exact
//! draws. These vectors pin the draws for one fixed seed, so a change to
//! either plan (or to the SplitMix64 cell mixing) that moves a single draw
//! fails here, not only in a cross-commit table diff.

use synpa::counters::{FaultConfig, FaultKind};
use synpa::sim::{AppFault, ChipFaultConfig, CoreFault};

/// The seed CI's chaos smoke runs use.
const SEED: u64 = 7;

fn counter_kind(cfg: &FaultConfig, app: usize, quantum: u64) -> Option<FaultKind> {
    cfg.kind_at(app, quantum)
}

fn core_event(cfg: &ChipFaultConfig, core: usize, quantum: u64) -> Option<CoreFault> {
    cfg.core_event(core, quantum)
}

fn app_fault(cfg: &ChipFaultConfig, app: usize) -> Option<AppFault> {
    cfg.app_fault(app)
}

#[test]
fn counter_plan_draws_are_pinned() {
    const GOLDEN: [[&str; 12]; 4] = [
        [
            "-", "spike", "-", "-", "-", "rollback", "zero", "stale", "stale", "-", "freeze", "-",
        ],
        [
            "-", "-", "drop", "-", "stale", "spike", "-", "-", "-", "-", "-", "stale",
        ],
        [
            "-", "freeze", "rollback", "freeze", "-", "rollback", "drop", "-", "spike", "stale",
            "zero", "stale",
        ],
        [
            "-", "-", "stale", "spike", "-", "-", "-", "spike", "-", "-", "-", "freeze",
        ],
    ];
    let cfg = FaultConfig::uniform(SEED, 0.5);
    for (app, row) in GOLDEN.iter().enumerate() {
        for (q, &want) in row.iter().enumerate() {
            let got = counter_kind(&cfg, app, q as u64).map_or("-", FaultKind::name);
            assert_eq!(got, want, "app {app} quantum {q}");
        }
    }
}

#[test]
fn chip_plan_core_events_are_pinned() {
    let golden = [
        (0, 25, CoreFault::Transient { down: 3 }),
        (2, 9, CoreFault::Throttled),
        (2, 22, CoreFault::Throttled),
        (3, 24, CoreFault::Transient { down: 1 }),
        (3, 25, CoreFault::Offline),
        (4, 3, CoreFault::Throttled),
        (4, 30, CoreFault::Transient { down: 2 }),
        (5, 0, CoreFault::Throttled),
        (5, 18, CoreFault::Throttled),
        (6, 25, CoreFault::Transient { down: 3 }),
        (7, 22, CoreFault::Transient { down: 2 }),
    ];
    // 256 cells at the derated rate 1/16: enough that a derate of 15 or
    // 17 moves at least one event.
    let cfg = ChipFaultConfig::uniform(SEED, 1.0);
    let mut got = Vec::new();
    for core in 0..8 {
        for q in 0..32 {
            if let Some(event) = core_event(&cfg, core, q) {
                got.push((core, q, event));
            }
        }
    }
    assert_eq!(got, golden);
}

#[test]
fn chip_plan_app_faults_are_pinned() {
    let golden = [
        None,
        None,
        None,
        Some(AppFault::Crash { frac: 0.6624 }),
        None,
        Some(AppFault::Crash { frac: 0.8992 }),
        None,
        Some(AppFault::Crash {
            frac: 0.10160000000000001,
        }),
        None,
        Some(AppFault::Hang {
            frac: 0.5184000000000001,
        }),
        Some(AppFault::Crash { frac: 0.8056 }),
        Some(AppFault::Crash { frac: 0.1032 }),
    ];
    let cfg = ChipFaultConfig::uniform(SEED, 0.5);
    let got: Vec<_> = (0..golden.len()).map(|app| app_fault(&cfg, app)).collect();
    // Exact f64 equality on purpose: the fractions are bit-for-bit draws.
    assert_eq!(got, golden);
}
