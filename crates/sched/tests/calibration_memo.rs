//! The calibration memo owned by `ExperimentConfig` must be invisible in
//! results: a memo hit is bit-equal to a fresh solo run, the paper suite
//! calibrates each distinct app once, and a config edited in any key field
//! recalibrates instead of reading a stale entry.

use synpa_apps::workload::{self, Workload};
use synpa_apps::{characterize_isolated_with, spec};
use synpa_sched::{prepare_workload, ExperimentConfig, PreparedWorkload};
use synpa_sim::ThreadProgram;

/// The §V-B methodology at test size: short warm-up and window.
fn small_cfg() -> ExperimentConfig {
    ExperimentConfig {
        target_window: 20_000,
        calibration_warmup: 10_000,
        threads: 2,
        ..Default::default()
    }
}

fn distinct_apps(suite: &[Workload]) -> usize {
    let mut names: Vec<&str> = suite
        .iter()
        .flat_map(|w| w.apps.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

/// Launch lengths and solo IPC as bits, so equality is bit-equality.
fn calibrated(p: &PreparedWorkload) -> (Vec<u64>, Vec<u64>) {
    (
        p.apps.iter().map(|a| a.length()).collect(),
        p.solo_ipc.iter().map(|x| x.to_bits()).collect(),
    )
}

#[test]
fn shared_memo_matches_fresh_calibration_with_one_entry_per_app() {
    let suite = workload::standard_suite();
    let shared = small_cfg();
    for w in &suite {
        let memoized = prepare_workload(w, &shared);
        let fresh = prepare_workload(w, &small_cfg());
        assert_eq!(memoized.apps.len(), w.apps.len(), "{}", w.name);
        assert_eq!(calibrated(&memoized), calibrated(&fresh), "{}", w.name);
    }
    assert_eq!(shared.calibrations.len(), distinct_apps(&suite));
    // Preparing again hits for every app and adds nothing.
    prepare_workload(&suite[0], &shared);
    assert_eq!(shared.calibrations.len(), distinct_apps(&suite));
}

/// Hits and misses mixed in one call still give each position its own
/// app's solo run.
#[test]
fn every_position_gets_its_own_apps_solo_run() {
    let cfg = small_cfg();
    let mut suite = workload::standard_suite();
    suite.truncate(3);
    for w in &suite {
        let prepared = prepare_workload(w, &cfg);
        for (k, name) in w.apps.iter().enumerate() {
            let run = characterize_isolated_with(
                &spec::by_name(name).unwrap(),
                cfg.calibration_warmup,
                cfg.target_window,
                &cfg.manager.chip,
            );
            assert_eq!(prepared.apps[k].length(), run.retired.max(1), "{name}");
            assert_eq!(prepared.solo_ipc[k].to_bits(), run.ipc.to_bits(), "{name}");
        }
    }
}

#[test]
fn edited_clones_recalibrate_instead_of_hitting() {
    let w = workload::by_name("fb2").unwrap();
    let n = distinct_apps(std::slice::from_ref(&w));
    let base = small_cfg();
    prepare_workload(&w, &base);
    assert_eq!(base.calibrations.len(), n);

    // A plain clone shares the memo and hits.
    prepare_workload(&w, &base.clone());
    assert_eq!(base.calibrations.len(), n);

    type Edit = fn(&mut ExperimentConfig);
    let edits: [(&str, Edit); 3] = [
        ("target_window", |c| c.target_window += 1_000),
        ("calibration_warmup", |c| c.calibration_warmup += 1_000),
        ("chip.seed", |c| c.manager.chip.seed ^= 0xDEAD),
    ];
    for (k, (field, edit)) in edits.iter().enumerate() {
        let mut clone = base.clone();
        edit(&mut clone);
        let memoized = prepare_workload(&w, &clone);
        assert_eq!(
            base.calibrations.len(),
            n * (k + 2),
            "a clone with a changed {field} must miss, not reuse the original's entries"
        );
        let mut fresh = small_cfg();
        edit(&mut fresh);
        assert_eq!(
            calibrated(&memoized),
            calibrated(&prepare_workload(&w, &fresh)),
            "{field}"
        );
    }
}
