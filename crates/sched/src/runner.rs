//! The experiment driver: the §V-B measurement methodology end to end.
//!
//! * Target-instruction calibration: each application runs alone for the
//!   scaled equivalent of the paper's 60 seconds; the instructions it
//!   retires become its launch target and its solo-IPC reference.
//! * Repetition: every workload×policy cell runs `reps` times with
//!   different seeds; runs deviating excessively from the mean TT are
//!   discarded until the coefficient of variation falls below 5 %
//!   (the paper's outlier rule).
//! * Runs are independent and execute on worker threads.
//! * Calibration is memoized per configuration: [`ExperimentConfig`] owns a
//!   [`CalibrationMemo`] keyed by (app name, `calibration_warmup`,
//!   `target_window`, the full `ChipConfig`), so every workload that
//!   shares an app reuses its one solo run. Clones of a config share the
//!   memo; a clone edited in any key field misses and recalibrates. A
//!   config built afresh (`Default::default()`) starts with an empty memo.

use crate::manager::{run_workload_with_arrivals, ManagerConfig, RunResult};
use crate::policy::{Policy, QuantumRow, RowLog};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use synpa_apps::{characterize_isolated_with, spec, AppProfile, Workload};
use synpa_sim::{parallel_map, ThreadProgram};

/// The paper's outlier rule: repetitions are discarded until the TT
/// coefficient of variation falls below 5 %.
const MAX_CV: f64 = 0.05;

/// What a calibration depends on besides the app: warm-up, window and the
/// chip configuration's `Debug` form (every field, f64s in round-trippable
/// form).
type CalibrationSetting = (u64, u64, String);

/// Calibrated (launch target, solo IPC) per app name.
type Calibrations = HashMap<String, (u64, f64)>;

/// Calibrated (launch target, solo IPC) per setting and app, shared by
/// every clone of one [`ExperimentConfig`]. Calibration is a pure function
/// of setting and app, so a hit is bit-equal to a fresh measurement. Its
/// `Debug` form does not show the contents, so a config's rendering (and
/// any hash of it) is the same whether the memo is empty or populated.
#[derive(Clone, Default)]
pub struct CalibrationMemo(Arc<Mutex<HashMap<CalibrationSetting, Calibrations>>>);

impl std::fmt::Debug for CalibrationMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CalibrationMemo")
    }
}

impl CalibrationMemo {
    /// Number of memoized calibrations, over every setting.
    pub fn len(&self) -> usize {
        self.lock().values().map(HashMap::len).sum()
    }

    /// True when nothing has been calibrated through this memo yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map itself. Entries are only ever inserted whole, so a panic
    /// elsewhere while the lock was held leaves nothing half-written.
    fn lock(&self) -> MutexGuard<'_, HashMap<CalibrationSetting, Calibrations>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Experiment-level configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Per-run manager configuration.
    pub manager: ManagerConfig,
    /// Cycles of the isolated calibration run that defines each app's
    /// launch target (the paper's 60 s, scaled).
    pub target_window: u64,
    /// Warm-up cycles discarded before the calibration window.
    pub calibration_warmup: u64,
    /// Repetitions per workload×policy cell (paper: 9).
    pub reps: u32,
    /// Base seed; rep *r* uses `base_seed + r`.
    pub base_seed: u64,
    /// Worker threads for parallel runs.
    pub threads: usize,
    /// Calibrations already measured under this configuration (see the
    /// module doc). Not a setting: it changes no result, only how often an
    /// app's solo run is repeated.
    pub calibrations: CalibrationMemo,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            manager: ManagerConfig::default(),
            target_window: 300_000,
            calibration_warmup: 60_000,
            reps: 9,
            base_seed: 0xBEEF,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            calibrations: CalibrationMemo::default(),
        }
    }
}

/// A workload instantiated for execution: app models with launch targets
/// plus solo-IPC references.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Suite workload description.
    pub workload: Workload,
    /// App models with calibrated launch lengths, arrival order.
    pub apps: Vec<AppProfile>,
    /// Isolated IPC per app, arrival order.
    pub solo_ipc: Vec<f64>,
}

/// Launch target and solo IPC of each app in `names`, in order. Apps the
/// config's memo does not hold yet are calibrated (§V-B: "we executed each
/// application in isolation for 60 seconds and recorded its number of
/// retired instructions") across `cfg.threads` workers and memoized.
///
/// Calibration runs are independent, so the misses run in parallel — at
/// full-chip scale (56-app workloads drawing on up to 28 distinct apps)
/// calibration is a material share of a cold cell. The result is identical
/// for any thread count and any memo state. Two callers racing on the same
/// miss both measure it and store equal values.
pub fn calibrate_apps(names: &[&str], cfg: &ExperimentConfig) -> Vec<(u64, f64)> {
    let setting = (
        cfg.calibration_warmup,
        cfg.target_window,
        format!("{:?}", cfg.manager.chip),
    );
    // Distinct misses in first-appearance order (determinism: the order the
    // measurements are assembled in never depends on worker scheduling).
    let mut misses: Vec<&str> = Vec::new();
    {
        let memo = cfg.calibrations.lock();
        let known = memo.get(&setting);
        for &name in names {
            if !misses.contains(&name) && !known.is_some_and(|k| k.contains_key(name)) {
                misses.push(name);
            }
        }
    }
    let measured = parallel_map(&misses, cfg.threads, |name| {
        let app = spec::by_name(name).unwrap_or_else(|| panic!("unknown app {name}"));
        let run = characterize_isolated_with(
            &app,
            cfg.calibration_warmup,
            cfg.target_window,
            &cfg.manager.chip,
        );
        (run.retired.max(1), run.ipc)
    });
    let mut memo = cfg.calibrations.lock();
    let known = memo.entry(setting).or_default();
    for (name, value) in misses.into_iter().zip(measured) {
        known.insert(name.to_string(), value);
    }
    names.iter().map(|&name| known[name]).collect()
}

/// Calibrates launch targets and solo IPC for every distinct app of
/// `workload` through the config's memo ([`calibrate_apps`]) and
/// instantiates the workload.
pub fn prepare_workload(workload: &Workload, cfg: &ExperimentConfig) -> PreparedWorkload {
    let names: Vec<&str> = workload.apps.iter().map(String::as_str).collect();
    let calibrated = calibrate_apps(&names, cfg);
    let mut apps = Vec::with_capacity(workload.apps.len());
    let mut solo_ipc = Vec::with_capacity(workload.apps.len());
    for (k, (name, &(target, ipc))) in workload.apps.iter().zip(&calibrated).enumerate() {
        // Heterogeneous launch targets: each position's calibrated target
        // is scaled individually (same app, same calibration run, shorter
        // or longer launch), so one chip mixes early-relaunching and
        // long-running applications. Solo IPC is a rate and stays as
        // measured.
        let scale = workload.target_scale(k);
        let target = if scale == 1.0 {
            target
        } else {
            ((target as f64 * scale).round() as u64).max(1)
        };
        apps.push(spec::by_name(name).unwrap().with_length(target));
        solo_ipc.push(ipc);
    }
    PreparedWorkload {
        workload: workload.clone(),
        apps,
        solo_ipc,
    }
}

/// Aggregated outcome of one workload×policy cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Mean TT over kept repetitions, in cycles.
    pub tt_mean: f64,
    /// Coefficient of variation of TT over kept repetitions.
    pub tt_cv: f64,
    /// Kept repetition TTs.
    pub tt_runs: Vec<u64>,
    /// Repetitions discarded as outliers.
    pub discarded: usize,
    /// Mean per-app IPC over kept reps (arrival order).
    pub app_ipc: Vec<f64>,
    /// Mean per-app individual speedup over kept reps (arrival order).
    pub app_speedup: Vec<f64>,
    /// Per-app names (arrival order).
    pub app_names: Vec<String>,
    /// Full result of the first kept repetition. Its per-quantum rows
    /// (Figs. 6/7 and Table V) come from [`exemplar_rows`].
    pub exemplar: RunResult,
    /// Seed of the exemplar's repetition: `base_seed` plus its index.
    pub exemplar_seed: u64,
}

/// Runs one repetition of `p` under `policy`, the chip seeded with `seed`.
fn run_rep(
    p: &PreparedWorkload,
    policy: &mut dyn Policy,
    cfg: &ExperimentConfig,
    seed: u64,
) -> RunResult {
    let mut mgr = cfg.manager.clone();
    mgr.chip = mgr.chip.clone().with_seed(seed);
    run_workload_with_arrivals(&p.apps, &p.solo_ipc, policy, &mgr, &p.workload.arrivals)
}

/// Runs one workload under one policy for `cfg.reps` repetitions and
/// aggregates with the outlier rule. `make_policy` builds a fresh policy
/// per repetition (seeded by the rep seed where relevant). Panics when
/// `cfg.reps` is 0: a cell needs at least one repetition to report.
pub fn run_cell<F>(
    prepared: &PreparedWorkload,
    make_policy: F,
    cfg: &ExperimentConfig,
) -> CellOutcome
where
    F: Fn(u64) -> Box<dyn Policy> + Sync,
{
    assert!(
        cfg.reps >= 1,
        "ExperimentConfig::reps must be at least 1 (a cell reports its first kept repetition)"
    );
    let reps: Vec<u64> = (0..cfg.reps as u64).map(|r| cfg.base_seed + r).collect();
    let mut results = parallel_map(&reps, cfg.threads, |&seed| {
        run_rep(prepared, make_policy(seed).as_mut(), cfg, seed)
    });

    let tts: Vec<u64> = results.iter().map(|r| r.tt_cycles).collect();
    let kept = discard_outliers(&tts, MAX_CV);
    let kept_tts: Vec<u64> = kept.iter().map(|&i| tts[i]).collect();
    // The mean of `f` over the kept repetitions.
    let mean = |f: &dyn Fn(&RunResult) -> f64| {
        kept.iter().map(|&i| f(&results[i])).sum::<f64>() / kept.len() as f64
    };
    let n = prepared.apps.len();
    let app_ipc = (0..n).map(|k| mean(&|r| r.per_app[k].ipc)).collect();
    let app_speedup = (0..n)
        .map(|k| mean(&|r| r.per_app[k].individual_speedup()))
        .collect();
    let tt_mean = mean(&|r| r.tt_cycles as f64);
    let tt_cv = cv(&kept_tts);
    let exemplar = results.swap_remove(kept[0]);
    CellOutcome {
        workload: prepared.workload.name.clone(),
        policy: exemplar.policy.clone(),
        tt_mean,
        tt_cv,
        discarded: tts.len() - kept.len(),
        tt_runs: kept_tts,
        app_ipc,
        app_speedup,
        app_names: prepared.apps.iter().map(|a| a.name().to_string()).collect(),
        exemplar,
        exemplar_seed: reps[kept[0]],
    }
}

/// The per-quantum rows of `cell`'s exemplar: its repetition re-run at
/// [`CellOutcome::exemplar_seed`] with the policy inside a [`RowLog`].
/// `prepared`, `make_policy` and `cfg` must be what `cell` was run with;
/// a re-run that differs from `cell.exemplar` (a stale or mismatched
/// cell) panics rather than returning the rows of another run.
pub fn exemplar_rows<F>(
    prepared: &PreparedWorkload,
    make_policy: F,
    cfg: &ExperimentConfig,
    cell: &CellOutcome,
) -> Vec<QuantumRow>
where
    F: Fn(u64) -> Box<dyn Policy>,
{
    let mut policy = make_policy(cell.exemplar_seed);
    let mut log = RowLog::new(policy.as_mut());
    let rerun = run_rep(prepared, &mut log, cfg, cell.exemplar_seed);
    assert_eq!(
        rerun, cell.exemplar,
        "the exemplar's re-run differs from the cell's exemplar"
    );
    log.rows
}

/// Coefficient of variation (σ/µ) of a sample.
pub fn cv(xs: &[u64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// The paper's outlier rule: while the TT coefficient of variation exceeds
/// `max_cv`, drop the run farthest from the mean (never below 3 runs).
/// Returns the kept indices, in original order.
pub fn discard_outliers(tts: &[u64], max_cv: f64) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..tts.len()).collect();
    while kept.len() > 3 && cv(&kept.iter().map(|&i| tts[i]).collect::<Vec<_>>()) > max_cv {
        let mean = kept.iter().map(|&i| tts[i] as f64).sum::<f64>() / kept.len() as f64;
        let worst = kept
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                (tts[a] as f64 - mean)
                    .abs()
                    .total_cmp(&(tts[b] as f64 - mean).abs())
            })
            .map(|(pos, _)| pos)
            .unwrap();
        kept.remove(worst);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LinuxLike, RandomPairing};
    use synpa_apps::workload;

    #[test]
    fn cv_of_constant_sample_is_zero() {
        assert_eq!(cv(&[5, 5, 5]), 0.0);
        assert_eq!(cv(&[7]), 0.0);
    }

    #[test]
    fn cv_detects_spread() {
        assert!(cv(&[100, 200]) > 0.3);
    }

    #[test]
    fn outlier_discard_removes_far_point() {
        // One wild run among tight ones.
        let tts = [100, 102, 98, 101, 400];
        let kept = discard_outliers(&tts, 0.05);
        assert!(!kept.contains(&4), "the 400 run must go");
        assert_eq!(kept.len(), 4);
    }

    #[test]
    fn outlier_discard_keeps_tight_samples() {
        let tts = [100, 101, 99, 100, 102];
        assert_eq!(discard_outliers(&tts, 0.05).len(), 5);
    }

    #[test]
    fn outlier_discard_never_below_three() {
        let tts = [1, 100, 10_000, 1_000_000];
        assert!(discard_outliers(&tts, 0.01).len() >= 3);
    }

    // `parallel_map` lives in `synpa_sim`; these pin the contract of the
    // re-export this crate's runners and callers rely on.
    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..20).collect();
        let out = parallel_map(&items, 4, |&x| x * 3);
        assert_eq!(out, (0..20).map(|x| x * 3).collect::<Vec<_>>());
    }

    /// Regression: a panicking job used to poison the shared result mutex,
    /// so the caller saw a `PoisonError` from an unrelated worker instead
    /// of the job's own message. The original payload must surface.
    #[test]
    fn parallel_map_surfaces_the_panicking_jobs_own_message() {
        let items: Vec<u32> = (0..20).collect();
        let err = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("job 13 exploded");
                }
                x * 2
            })
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("job 13 exploded"),
            "payload was {msg:?}, not the failing job's panic"
        );
    }

    #[test]
    fn prepare_workload_caches_per_name() {
        let cfg = ExperimentConfig {
            target_window: 30_000,
            calibration_warmup: 20_000,
            ..Default::default()
        };
        let w = workload::by_name("fb2").unwrap();
        let prepared = prepare_workload(&w, &cfg);
        assert_eq!(prepared.apps.len(), 8);
        // fb2 contains mcf twice: identical targets.
        assert_eq!(prepared.apps[1].length(), prepared.apps[3].length());
        assert!(prepared.solo_ipc.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn run_cell_aggregates_reps() {
        let cfg = ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            reps: 3,
            ..Default::default()
        };
        let w = workload::by_name("fb2").unwrap();
        let prepared = prepare_workload(&w, &cfg);
        let cell = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        let rows = exemplar_rows(&prepared, |_| Box::new(LinuxLike), &cfg, &cell);
        assert_eq!(cell.policy, "linux");
        assert!(cell.tt_mean > 0.0);
        assert_eq!(cell.app_ipc.len(), 8);
        assert_eq!(cell.tt_runs.len() + cell.discarded, 3);
        assert!(!rows.is_empty());
        // The recorder only observes: its re-run reproduced the exemplar
        // (`exemplar_rows` asserts it), and the cell is the same again.
        let again = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        assert_eq!(format!("{again:?}"), format!("{cell:?}"));
    }

    /// fb2 at test size with base seed 2, where `RandomPairing` loses its
    /// first repetition to the outlier rule and `LinuxLike` keeps all five.
    fn exemplar_cfg() -> ExperimentConfig {
        ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            reps: 5,
            base_seed: 2,
            ..Default::default()
        }
    }

    /// `exemplar_rows` gives the rows a `RowLog` records around the
    /// exemplar's own run: `run_workload_with_arrivals` at `base_seed +
    /// kept[0]`, with `kept` replayed here from every repetition.
    fn assert_rows_are_the_exemplars(make_policy: fn(u64) -> Box<dyn Policy>) -> CellOutcome {
        let cfg = exemplar_cfg();
        let p = prepare_workload(&workload::by_name("fb2").unwrap(), &cfg);
        let run_at = |seed: u64, policy: &mut dyn Policy| {
            let mut mgr = cfg.manager.clone();
            mgr.chip = mgr.chip.clone().with_seed(seed);
            run_workload_with_arrivals(&p.apps, &p.solo_ipc, policy, &mgr, &p.workload.arrivals)
        };
        let tts: Vec<u64> = (0..cfg.reps as u64)
            .map(|r| run_at(cfg.base_seed + r, make_policy(cfg.base_seed + r).as_mut()).tt_cycles)
            .collect();
        let seed = cfg.base_seed + discard_outliers(&tts, MAX_CV)[0] as u64;
        let mut policy = make_policy(seed);
        let mut log = RowLog::new(policy.as_mut());
        let run = run_at(seed, &mut log);

        let cell = run_cell(&p, make_policy, &cfg);
        assert_eq!(cell.exemplar_seed, seed);
        assert_eq!(cell.exemplar, run);
        let rows = exemplar_rows(&p, make_policy, &cfg, &cell);
        assert!(!rows.is_empty());
        assert_eq!(format!("{rows:?}"), format!("{:?}", log.rows));
        cell
    }

    #[test]
    fn exemplar_rows_follow_the_outlier_rule() {
        let cell = assert_rows_are_the_exemplars(|s| Box::new(RandomPairing::new(s)));
        assert!(cell.discarded > 0);
        assert_ne!(
            cell.exemplar_seed,
            exemplar_cfg().base_seed,
            "rep 0 was discarded"
        );
    }

    #[test]
    fn exemplar_rows_of_a_cell_that_keeps_every_rep() {
        let cell = assert_rows_are_the_exemplars(|_| Box::new(LinuxLike));
        assert_eq!(cell.discarded, 0);
        assert_eq!(cell.exemplar_seed, exemplar_cfg().base_seed);
    }

    #[test]
    #[should_panic(expected = "the exemplar's re-run differs from the cell's exemplar")]
    fn exemplar_rows_refuse_a_cell_whose_exemplar_does_not_match() {
        let cfg = exemplar_cfg();
        let p = prepare_workload(&workload::by_name("fb2").unwrap(), &cfg);
        let mut cell = run_cell(&p, |_| Box::new(LinuxLike), &cfg);
        cell.exemplar.tt_cycles += 1;
        exemplar_rows(&p, |_| Box::new(LinuxLike), &cfg, &cell);
    }

    /// Regression: `reps: 0` used to panic with an opaque index out of
    /// bounds on the empty kept-repetition list.
    #[test]
    #[should_panic(expected = "ExperimentConfig::reps must be at least 1")]
    fn run_cell_rejects_zero_reps() {
        let cfg = ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            reps: 0,
            ..Default::default()
        };
        let w = workload::by_name("fb2").unwrap();
        let prepared = prepare_workload(&w, &cfg);
        run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
    }

    /// Regression: a `target_scale` shorter than the app list used to run
    /// its tail at the calibrated target (scale 1.0) without a word.
    #[test]
    #[should_panic(expected = "target_scale length 7 does not match the workload's 8 apps")]
    fn prepare_workload_rejects_a_truncated_target_scale() {
        let cfg = ExperimentConfig {
            target_window: 25_000,
            calibration_warmup: 20_000,
            ..Default::default()
        };
        let mut w = workload::by_name("fb2").unwrap();
        w.target_scale = vec![0.5; 7];
        prepare_workload(&w, &cfg);
    }
}
