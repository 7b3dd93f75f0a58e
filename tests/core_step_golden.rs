//! Golden counters for one SMT core's cycle step.
//!
//! `engine_equivalence` compares two engines that call the same
//! `Core::step`, so a change inside the step moves both sides at once and
//! passes there. These vectors pin the full PMU state, extended events
//! included, of fixed one-core runs in the cases the step's context
//! handling distinguishes: context 0 empty with the app in context 1, a
//! pair under a dispatch-width derate, and a pair whose contexts are
//! swapped mid-run through `set_placement`. Each case runs under both
//! engines and must match the same vector.

use synpa::apps::spec;
use synpa::sim::{Chip, ChipConfig, EngineKind, PmuCounters, Slot};

/// Every counter of `p`, architectural first, then the extended events.
fn fields(p: &PmuCounters) -> [u64; 17] {
    let e = &p.ext;
    [
        p.cpu_cycles,
        p.inst_spec,
        p.stall_frontend,
        p.stall_backend,
        p.inst_retired,
        e.stall_rob_full,
        e.stall_iq_full,
        e.stall_lsq_full,
        e.stall_dcache,
        e.stall_exec,
        e.stall_width,
        e.stall_branch,
        e.stall_icache,
        e.l1d_access,
        e.l1d_miss,
        e.l1i_access,
        e.l1i_miss,
    ]
}

/// A one-core chip running the given engine with `apps[k]` attached as
/// app `k` on `slots[k]`.
fn chip(engine: EngineKind, apps: &[&str], slots: &[usize]) -> Chip {
    let mut chip = Chip::new(ChipConfig::thunderx2(1).with_engine(engine));
    for (id, (name, &slot)) in apps.iter().zip(slots).enumerate() {
        let profile = spec::by_name(name).unwrap().with_length(u64::MAX);
        chip.attach(Slot(slot), id, Box::new(profile));
    }
    chip
}

/// Counters of apps `0..n`, in app order.
fn snapshot(chip: &Chip, n: usize) -> Vec<[u64; 17]> {
    (0..n).map(|id| fields(chip.pmu_of(id).unwrap())).collect()
}

/// Runs `case` under both engines, checks they agree, and returns the
/// snapshots.
fn both_engines(case: impl Fn(EngineKind) -> Vec<Vec<[u64; 17]>>) -> Vec<Vec<[u64; 17]>> {
    let reference = case(EngineKind::Reference);
    assert_eq!(case(EngineKind::PerCore), reference, "engines disagree");
    reference
}

#[test]
fn lone_app_in_context_one_is_pinned() {
    let got = both_engines(|engine| {
        let mut chip = chip(engine, &["mcf"], &[1]);
        let mut out = Vec::new();
        for _ in 0..2 {
            chip.run_cycles(40_000);
            out.push(snapshot(&chip, 1));
        }
        out
    });
    #[rustfmt::skip]
    let golden = vec![
        vec![
            [40000, 10124, 1408, 36077, 9932, 0, 729, 0, 35348, 0, 0, 104, 1304, 3420, 3072, 1296, 8],
        ],
        vec![
            [80000, 20564, 1512, 73379, 20308, 0, 1476, 0, 71903, 0, 0, 208, 1304, 6948, 6246, 2619, 8],
        ],
    ];
    assert_eq!(got, golden);
}

#[test]
fn width_limited_pair_is_pinned() {
    let got = both_engines(|engine| {
        let mut chip = chip(engine, &["lbm_r", "mcf"], &[0, 1]);
        let mut out = Vec::new();
        chip.run_cycles(40_000);
        out.push(snapshot(&chip, 2));
        chip.set_core_width_limit(0, Some(2));
        chip.run_cycles(40_000);
        out.push(snapshot(&chip, 2));
        out
    });
    #[rustfmt::skip]
    let golden = vec![
        vec![
            [40000, 5836, 1356, 37193, 5740, 4, 370, 0, 35845, 0, 974, 52, 1304, 2611, 460, 751, 8],
            [40000, 3940, 1352, 37669, 3852, 3, 252, 0, 35976, 0, 1438, 39, 1313, 1331, 1183, 511, 8],
        ],
        vec![
            [80000, 11638, 1421, 74237, 11522, 9, 693, 0, 70223, 0, 3312, 117, 1304, 5213, 932, 1491, 8],
            [80000, 8696, 1391, 75258, 8596, 7, 1040, 0, 69896, 0, 4315, 78, 1313, 2944, 2640, 1115, 8],
        ],
    ];
    assert_eq!(got, golden);
}

#[test]
fn pair_swapped_mid_run_is_pinned() {
    let got = both_engines(|engine| {
        let mut chip = chip(engine, &["astar", "milc"], &[0, 1]);
        let mut out = Vec::new();
        chip.run_cycles(40_000);
        out.push(snapshot(&chip, 2));
        chip.set_placement(&[(0, Slot(1)), (1, Slot(0))]);
        chip.run_cycles(40_000);
        out.push(snapshot(&chip, 2));
        out
    });
    #[rustfmt::skip]
    let golden = vec![
        vec![
            [40000, 5464, 12379, 26305, 5264, 45, 184, 0, 25375, 0, 701, 338, 12041, 842, 504, 837, 112],
            [40000, 5396, 1367, 37292, 5288, 6, 394, 0, 35595, 0, 1297, 52, 1315, 1931, 1074, 696, 8],
        ],
        vec![
            [80000, 12036, 25324, 51775, 11540, 88, 336, 0, 49776, 0, 1575, 754, 24570, 1856, 1086, 1839, 242],
            [80000, 11800, 1432, 75636, 11664, 12, 924, 0, 71827, 0, 2873, 117, 1315, 4222, 2350, 1507, 8],
        ],
    ];
    assert_eq!(got, golden);
}
