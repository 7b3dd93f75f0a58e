//! Golden vectors for the profiling runs. Calibration, Fig. 4, Table III
//! and the whole training pipeline rest on two measurements: an isolated
//! characterization window and the per-quantum deltas of a solo or pair
//! profiling run. These vectors pin both for fixed inputs, so a change to
//! how a profiling chip is built, warmed up or sampled fails here, not only
//! in a cross-commit table diff.

use synpa::apps::{characterize_isolated, spec, IsolatedRun};
use synpa::model::training::{record_run, Run, TrainingConfig};

fn isolated(app: &str, warmup: u64, measure: u64) -> IsolatedRun {
    characterize_isolated(&spec::by_name(app).unwrap(), warmup, measure)
}

fn window_deltas(apps: &[&str], cfg: &TrainingConfig) -> Run {
    let profiles: Vec<_> = apps.iter().map(|n| spec::by_name(n).unwrap()).collect();
    let refs: Vec<_> = profiles.iter().collect();
    record_run(&refs, cfg)
}

/// A profiling configuration small enough for a debug-build test.
fn tiny_cfg() -> TrainingConfig {
    TrainingConfig {
        warmup: 3_000,
        quantum: 2_000,
        st_quanta: 3,
        smt_quanta: 2,
        ..Default::default()
    }
}

/// `(cpu_cycles, inst_spec, stall_frontend, stall_backend, inst_retired)`
/// of every window of every thread.
fn pinned(run: &Run) -> Vec<Vec<[u64; 5]>> {
    run.iter()
        .map(|seq| {
            seq.iter()
                .map(|d| {
                    [
                        d.cpu_cycles,
                        d.inst_spec,
                        d.stall_frontend,
                        d.stall_backend,
                        d.inst_retired,
                    ]
                })
                .collect()
        })
        .collect()
}

#[test]
fn isolated_characterization_is_pinned() {
    let run = isolated("nab_r", 5_000, 20_000);
    assert_eq!((run.retired, run.cycles), (22_860, 20_000));
    let f = run.fractions;
    let bits = [f.full_dispatch, f.frontend, f.backend].map(f64::to_bits);
    assert_eq!(
        bits,
        [
            0x3fd2_4a8c_154c_985e,
            0x3f8e_9e1b_089a_0275,
            0x3fe6_6041_8937_4bc7
        ]
    );
}

#[test]
fn solo_profiling_run_is_pinned() {
    let golden = vec![vec![
        [2000, 524, 0, 1869, 528],
        [2000, 508, 13, 1862, 496],
        [2000, 532, 0, 1867, 532],
    ]];
    assert_eq!(pinned(&window_deltas(&["mcf"], &tiny_cfg())), golden);
}

#[test]
fn pair_profiling_run_is_pinned() {
    let golden = vec![
        vec![[2000, 264, 0, 1934, 264], [2000, 292, 0, 1927, 292]],
        vec![[2000, 700, 13, 1814, 692], [2000, 568, 0, 1858, 568]],
    ];
    assert_eq!(
        pinned(&window_deltas(&["mcf", "nab_r"], &tiny_cfg())),
        golden
    );
}
