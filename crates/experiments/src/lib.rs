//! Shared plumbing for the per-table/per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `docs/simulation.md` for the index). This library provides:
//!
//! * the canonical train/holdout application split (§IV-C's 80 %),
//! * the perfect-pairing enumerator behind the exhaustive ground truth,
//! * a disk-cached trained model so binaries don't retrain redundantly,
//! * the sharded, per-cell-cached evaluation cells shared by Figs. 5–9,
//!   Table V and `run_workload` (see [`cached_cells`] and [`suite`]),
//! * the command-line flags the scenario binaries share (see [`args`]),
//! * small table-formatting helpers.
//!
//! All caches live under `results/`; delete the directory (or run with
//! `SYNPA_FRESH=1`) to recompute everything from scratch. Worker-thread
//! count is taken from the machine, overridable with `SYNPA_THREADS`
//! (malformed values abort rather than being silently ignored).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod suite;

pub use args::ScenarioArgs;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
pub use suite::{
    canned_model, cell_key, config_hash, load_cell, run_suite_sequential, run_suite_sharded,
    store_cell, write_atomic, SuitePolicy, SuiteSpec,
};
use synpa::prelude::*;
use synpa::sched::CellOutcome;

/// Directory where experiment outputs and caches are written. On first
/// call per process it also collects temp files a killed run left
/// unpublished at the root (cell cache directories are swept by the
/// sharded orchestrator itself).
pub fn results_dir() -> PathBuf {
    static SWEEP_ONCE: std::sync::Once = std::sync::Once::new();
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    SWEEP_ONCE.call_once(|| suite::sweep_stale_tmp(&dir));
    dir
}

/// True when cached artefacts should be ignored.
pub fn fresh_requested() -> bool {
    std::env::var("SYNPA_FRESH").is_ok()
}

/// The §IV-C training split: 22 of the 28 applications train the model, six
/// are held out and only ever appear in evaluation workloads.
pub fn training_split() -> (Vec<AppProfile>, Vec<AppProfile>) {
    let all = spec::catalog();
    let mut train_set = Vec::new();
    let mut holdout = Vec::new();
    for (i, app) in all.into_iter().enumerate() {
        // Deterministic 22/6 split spread across the three Table III groups
        // (holds out xalancbmk_r, mcf_r, calculix, fotonik3d_r, namd_r,
        // tonto).
        if matches!(i, 4 | 9 | 13 | 18 | 23 | 27) {
            holdout.push(app);
        } else {
            train_set.push(app);
        }
    }
    (train_set, holdout)
}

/// On-disk envelope of the cached fit. The embedded key is [`model_key`]
/// of the inputs the fit came from and is verified on load, as
/// [`load_cell`] verifies a cell's key, so a stale fit is never trusted.
#[derive(Serialize, Deserialize)]
struct ModelOnDisk {
    key: String,
    model: SynpaModel,
    mse: [f64; 3],
}

/// Trains the SYNPA model on the standard split (or loads the cached fit).
/// Returns the model and the held-out per-category MSE (§VI-A).
pub fn trained_model() -> (SynpaModel, [f64; 3]) {
    let path = results_dir().join("model.json");
    let (train_set, _) = training_split();
    let cfg = TrainingConfig::default();
    let key = model_key(&train_set, &cfg);
    if !fresh_requested() {
        if let Some(m) = load_model(&path, &key) {
            return m;
        }
    }
    let report = train(&train_set, &cfg, threads()).expect("catalog fits");
    store_model(&path, &key, &report.model, report.mse);
    (report.model, report.mse)
}

/// Cache key of a fit: FNV-1a over the `Debug` forms of the training
/// configuration and of every training profile, as [`cell_key`] hashes
/// app profiles. A change to `TrainingConfig::default()`, to the training
/// split or to an app profile in `spec` changes the key.
fn model_key(train_set: &[AppProfile], cfg: &TrainingConfig) -> String {
    let mut h = suite::fnv1a(suite::FNV_OFFSET, format!("{cfg:?}").as_bytes());
    for app in train_set {
        h = suite::fnv1a(h, format!("{app:?}").as_bytes());
    }
    format!("{h:016x}")
}

fn store_model(path: &Path, key: &str, model: &SynpaModel, mse: [f64; 3]) {
    let disk = ModelOnDisk {
        key: key.to_string(),
        model: *model,
        mse,
    };
    write_atomic(path, &serde_json::to_string_pretty(&disk).unwrap());
}

/// Loads the cached fit, returning `None` when the file is missing,
/// unparseable (corrupted or in an older format) or carries a different
/// key.
fn load_model(path: &Path, key: &str) -> Option<(SynpaModel, [f64; 3])> {
    let text = std::fs::read_to_string(path).ok()?;
    let disk: ModelOnDisk = serde_json::from_str(&text).ok()?;
    (disk.key == key).then_some((disk.model, disk.mse))
}

/// Worker threads for parallel runs.
///
/// `SYNPA_THREADS` pins the worker count for CI and tests; unset or empty
/// falls back to `available_parallelism`. Malformed values (`0`, `1O`,
/// `lots`) abort with the accepted format instead of being silently
/// ignored — an explicit pin that doesn't take effect would skew every
/// measurement it was meant to control, exactly like an unknown
/// `--engine` name.
pub fn threads() -> usize {
    threads_from_env().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    })
}

/// Strict `SYNPA_THREADS` parser behind [`threads`]: `None` when the
/// variable is unset or empty, `Some(n)` for a positive integer, and an
/// abort naming the accepted format for anything else.
fn threads_from_env() -> Option<usize> {
    let v = std::env::var("SYNPA_THREADS").ok()?;
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        Ok(_) => panic!("SYNPA_THREADS: worker count must be at least 1, got '{v}'"),
        Err(_) => panic!(
            "SYNPA_THREADS: unparseable value '{v}' (expected a positive integer, e.g. \
             SYNPA_THREADS=4; unset or empty means machine parallelism)"
        ),
    }
}

/// The experiment configuration used by every evaluation binary
/// (9 repetitions, CV < 5 % outlier rule — the §V-B methodology).
/// Worker threads come from [`threads`], so `SYNPA_THREADS` pins direct
/// `run_cell`/`prepare_workload` consumers too, not just the sharded
/// orchestrator.
pub fn eval_config() -> ExperimentConfig {
    ExperimentConfig {
        reps: 9,
        threads: threads(),
        ..Default::default()
    }
}

/// Runs (or loads) the cells of `workloads` × `policies` under `cfg`,
/// sharded across [`threads`] workers ([`run_suite_sharded`]) and each
/// cached under `results/cells/`. Binaries that pass [`eval_config`] and
/// [`trained_model`] share these cells. The sweep runs on a clone of `cfg`,
/// so `cfg` keeps the calibrations it made. `SYNPA_FRESH=1` drops the cell
/// cache before running.
pub fn cached_cells(
    workloads: Vec<Workload>,
    policies: &[SuitePolicy],
    cfg: &ExperimentConfig,
    model: SynpaModel,
) -> Vec<CellOutcome> {
    let spec = SuiteSpec {
        workloads,
        policies: policies.to_vec(),
        config: cfg.clone(),
        cache_dir: Some(results_dir().join("cells")),
    };
    run_suite_sharded(&spec, model, threads())
}

/// The full 20-workload × {linux, synpa} sweep that backs Figs. 5, 8 and 9
/// ([`cached_cells`] under [`eval_config`] and [`trained_model`]).
pub fn evaluation_suite() -> Vec<CellOutcome> {
    let (suite, model) = (workload::standard_suite(), trained_model().0);
    cached_cells(suite, &SuitePolicy::PAPER, &eval_config(), model)
}

/// Finds the two cells (linux, synpa) of one workload in suite results.
pub fn cells_of<'a>(
    cells: &'a [CellOutcome],
    workload: &str,
) -> (&'a CellOutcome, &'a CellOutcome) {
    let find = |policy| {
        let cell = cells
            .iter()
            .find(|c| c.workload == workload && c.policy == policy);
        cell.unwrap_or_else(|| panic!("no {policy} cell for {workload}"))
    };
    (find("linux"), find("synpa"))
}

/// Every perfect pairing of apps `0..n` (`n` even): the `(n − 1)!!` static
/// pairings an exhaustive ground-truth sweep measures, 105 for the paper's
/// eight-app workloads. Each pair is `(a, b)` with `a < b`.
pub fn perfect_pairings(n: usize) -> Vec<Vec<(usize, usize)>> {
    fn pairings(items: &[usize]) -> Vec<Vec<(usize, usize)>> {
        let Some((&a, rest)) = items.split_first() else {
            return vec![vec![]];
        };
        rest.iter()
            .flat_map(|&b| {
                let others: Vec<usize> = rest.iter().copied().filter(|&x| x != b).collect();
                pairings(&others).into_iter().map(move |mut sub| {
                    sub.push((a, b));
                    sub
                })
            })
            .collect()
    }
    assert!(
        n % 2 == 0,
        "a perfect pairing needs an even app count, got {n}"
    );
    pairings(&(0..n).collect::<Vec<_>>())
}

/// Formats a bar of `*` characters for terminal "figures".
pub fn bar(value: f64, scale: f64) -> String {
    let n = (value * scale).round().max(0.0) as usize;
    "*".repeat(n.min(120))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_22_train_6_holdout() {
        let (t, h) = training_split();
        assert_eq!(t.len(), 22);
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn perfect_pairings_cover_every_app_once() {
        for (n, count) in [(2, 1), (4, 3), (6, 15), (8, 105)] {
            let all = perfect_pairings(n);
            assert_eq!(all.len(), count, "n = {n}");
            let mut distinct: Vec<Vec<(usize, usize)>> = all
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.sort_unstable();
                    p
                })
                .collect();
            for p in &distinct {
                let mut apps: Vec<usize> = p.iter().flat_map(|&(a, b)| [a, b]).collect();
                apps.sort_unstable();
                assert_eq!(apps, (0..n).collect::<Vec<_>>(), "n = {n}: {p:?}");
            }
            let linux: Vec<(usize, usize)> = (0..n / 2).map(|k| (k, k + n / 2)).collect();
            assert!(distinct.contains(&linux), "n = {n}: no Linux pairing");
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), count, "n = {n}: duplicate pairings");
        }
    }

    #[test]
    fn cached_model_loads_only_under_its_key() {
        let dir = std::env::temp_dir().join("synpa-model-key-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let model = canned_model();
        store_model(&path, "right", &model, [0.5, 0.25, 0.125]);
        let (loaded, mse) = load_model(&path, "right").expect("same key loads");
        assert_eq!(format!("{loaded:?}"), format!("{model:?}"));
        assert_eq!(mse, [0.5, 0.25, 0.125]);
        assert!(load_model(&path, "wrong").is_none(), "stale fit rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_model_in_the_coefficient_array_format_is_rejected() {
        let dir = std::env::temp_dir().join("synpa-model-array-format");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let (train_set, _) = training_split();
        let key = model_key(&train_set, &TrainingConfig::default());
        let arrays = format!(
            r#"{{"key": "{key}", "coeffs": [[0.05, 1.0, 0.05, 0.1], [0.03, 1.0, 0.0, 0.2],
            [0.1, 1.0, 0.1, 0.8]], "mse": [0.5, 0.25, 0.125]}}"#
        );
        std::fs::write(&path, arrays).unwrap();
        assert!(load_model(&path, &key).is_none(), "old format refit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_key_follows_the_training_inputs() {
        let (train_set, _) = training_split();
        let cfg = TrainingConfig::default();
        let key = model_key(&train_set, &cfg);
        assert_eq!(key, model_key(&train_set, &cfg), "deterministic");
        let reseeded = TrainingConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(key, model_key(&train_set, &reseeded), "config change");
        assert_ne!(key, model_key(&train_set[1..], &cfg), "split change");
        let mut retuned = train_set.clone();
        retuned[0] = retuned[0].clone().with_length(12_345);
        assert_ne!(key, model_key(&retuned, &cfg), "profile change");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0, 10.0), "**********");
        assert_eq!(bar(0.0, 10.0), "");
    }
}
