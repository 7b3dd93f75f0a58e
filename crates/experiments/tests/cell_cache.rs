//! Cache-correctness wall for the sharded suite's per-cell store:
//!
//! * a cached cell is actually *used* on re-runs (proved with a sentinel),
//! * a cell cached under one `ExperimentConfig` is not reused after the
//!   config hash changes, nor across base seeds,
//! * a corrupted cell file, or one in an older schema, is recomputed, not
//!   trusted.

use std::path::{Path, PathBuf};
use synpa::prelude::*;
use synpa::sched::{CellOutcome, RunResult};
use synpa_experiments::{
    cell_key, config_hash, load_cell, run_suite_sharded, store_cell, SuitePolicy, SuiteSpec,
};

fn model() -> SynpaModel {
    // Linux-only cells never consult the model; any coefficients do.
    SynpaModel::default()
}

fn mini_config() -> ExperimentConfig {
    ExperimentConfig {
        target_window: 20_000,
        calibration_warmup: 15_000,
        reps: 2,
        ..Default::default()
    }
}

fn spec(dir: &Path, config: ExperimentConfig) -> SuiteSpec {
    SuiteSpec {
        workloads: vec![workload::by_name("fb2").unwrap()],
        policies: vec![SuitePolicy::Linux],
        config,
        cache_dir: Some(dir.to_path_buf()),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synpa-cell-cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cell that no real run could produce, used to prove cache hits.
fn sentinel() -> CellOutcome {
    CellOutcome {
        workload: "fb2".into(),
        policy: "linux".into(),
        tt_mean: 123_456_789.0,
        tt_cv: 0.0,
        tt_runs: vec![123_456_789],
        discarded: 0,
        app_ipc: vec![1.0],
        app_speedup: vec![1.0],
        app_names: vec!["sentinel".into()],
        exemplar: RunResult {
            policy: "linux".into(),
            tt_cycles: 123_456_789,
            per_app: vec![],
            quanta: 0,
            migrations: 77,
            capped: false,
            stats: RunStats::default(),
        },
        exemplar_seed: 0xBEEF,
    }
}

#[test]
fn cached_cell_is_reused_until_the_config_hash_changes() {
    let dir = temp_dir("invalidate");
    let cfg = mini_config();
    let first = run_suite_sharded(&spec(&dir, cfg.clone()), model(), 1);
    assert_eq!(first.len(), 1);

    // Overwrite the cached cell with a sentinel under the SAME key: a rerun
    // with the same config must return the sentinel (cache actually used).
    let w = workload::by_name("fb2").unwrap();
    let key = cell_key(&w, SuitePolicy::Linux, &cfg, &model());
    store_cell(&dir, &key, &sentinel());
    let warm = run_suite_sharded(&spec(&dir, cfg.clone()), model(), 1);
    assert_eq!(warm[0].tt_mean, sentinel().tt_mean, "cache must be used");

    // A config change (different target window -> different hash) must NOT
    // see the sentinel: the cell is recomputed under a new key.
    let mut changed = mini_config();
    changed.target_window += 5_000;
    assert_ne!(config_hash(&cfg), config_hash(&changed));
    let recomputed = run_suite_sharded(&spec(&dir, changed.clone()), model(), 1);
    assert_ne!(
        recomputed[0].tt_mean,
        sentinel().tt_mean,
        "stale cell must not survive a config-hash change"
    );
    // Both keys now live side by side.
    assert!(load_cell(&dir, &key).is_some());
    assert!(load_cell(&dir, &cell_key(&w, SuitePolicy::Linux, &changed, &model())).is_some());

    // A base-seed change is a different cell too (seed is part of the key).
    let mut reseeded = mini_config();
    reseeded.base_seed += 1;
    assert_ne!(key, cell_key(&w, SuitePolicy::Linux, &reseeded, &model()));
    let other_seed = run_suite_sharded(&spec(&dir, reseeded), model(), 1);
    assert_ne!(other_seed[0].tt_mean, sentinel().tt_mean);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cell_file_is_recomputed_not_trusted() {
    let dir = temp_dir("corrupt");
    let cfg = mini_config();
    let pristine = run_suite_sharded(&spec(&dir, cfg.clone()), model(), 1);

    let w = workload::by_name("fb2").unwrap();
    let key = cell_key(&w, SuitePolicy::Linux, &cfg, &model());
    let path = dir.join(format!("{key}.json"));
    assert!(path.is_file(), "cold run must persist the cell");
    std::fs::write(&path, "{ this is not json").unwrap();
    assert!(load_cell(&dir, &key).is_none(), "corrupted file rejected");

    let healed = run_suite_sharded(&spec(&dir, cfg), model(), 1);
    assert_eq!(
        healed[0], pristine[0],
        "recomputed cell must match the pristine result"
    );
    assert_eq!(
        load_cell(&dir, &key),
        Some(pristine[0].clone()),
        "the corrupted file is rewritten with the recomputed cell"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The censored count has no serde default: a cell cached before the
/// field existed must be recomputed, never loaded as "nothing censored".
#[test]
fn cell_cached_without_censored_apps_is_not_trusted() {
    let dir = temp_dir("censored-legacy");
    store_cell(&dir, "legacy", &sentinel());
    let path = dir.join("legacy.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let legacy: String = text
        .lines()
        .filter(|l| !l.contains("\"censored\""))
        .collect::<Vec<_>>()
        .join("\n")
        .replace("\"failed\": 0,", "\"failed\": 0");
    assert_ne!(legacy, text, "the field was present and has been removed");
    std::fs::write(&path, legacy).unwrap();
    assert!(load_cell(&dir, "legacy").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exemplar's seed has no serde default: a cell cached before the
/// field existed is refused, and the sweep recomputes and rewrites it,
/// because its exemplar's rows could not be re-run from it.
#[test]
fn cell_cached_without_its_exemplar_seed_is_recomputed() {
    let dir = temp_dir("no-exemplar-seed");
    let cfg = mini_config();
    let w = workload::by_name("fb2").unwrap();
    let key = cell_key(&w, SuitePolicy::Linux, &cfg, &model());
    store_cell(&dir, &key, &sentinel());
    let path = dir.join(format!("{key}.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    // The seed is the last field: cut it with the comma before it, so
    // the file stays well-formed JSON.
    let field = text
        .find("\"exemplar_seed\"")
        .expect("the field is written");
    let comma = text[..field].rfind(',').unwrap();
    let end = field + text[field..].find('\n').unwrap();
    let legacy = format!("{}{}", &text[..comma], &text[end..]);
    assert!(serde_json::from_str::<serde_json::Value>(&legacy).is_ok());
    std::fs::write(&path, legacy).unwrap();
    assert!(load_cell(&dir, &key).is_none(), "seedless cell rejected");
    let cells = run_suite_sharded(&spec(&dir, cfg), model(), 1);
    assert_ne!(cells[0].tt_mean, sentinel().tt_mean, "cell recomputed");
    assert_eq!(
        load_cell(&dir, &key),
        Some(cells[0].clone()),
        "and rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell whose run hit the quanta cap counts its unfinished apps; an
/// uncapped cell reports zero.
#[test]
fn capped_cell_counts_its_censored_apps() {
    let dir = temp_dir("censored-count");
    let healthy = run_suite_sharded(&spec(&dir, mini_config()), model(), 1);
    assert_eq!(healthy[0].exemplar.stats.censored, 0);
    let mut capped = mini_config();
    capped.manager.max_quanta = 2;
    let cut = run_suite_sharded(&spec(&dir, capped), model(), 1);
    assert_eq!(
        cut[0].exemplar.stats.censored,
        cut[0].app_names.len() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell cached in the flat-counter schema (eight top-level counters, no
/// `stats` record) is recomputed, never loaded: the counters moved into
/// `RunStats`, which has no serde defaults.
#[test]
fn cell_cached_in_the_flat_counter_schema_is_recomputed() {
    let dir = temp_dir("flat-schema");
    let cfg = mini_config();
    let w = workload::by_name("fb2").unwrap();
    let key = cell_key(&w, SuitePolicy::Linux, &cfg, &model());
    let flat = format!(
        r#"{{"key": "{key}", "cell": {{"workload": "fb2", "kind": "mixed", "policy": "linux",
        "tt_mean": 123456789.0, "tt_cv": 0.0, "discarded": 0, "app_names": ["sentinel"],
        "app_ipc": [1.0], "app_speedup": [1.0], "migrations": 77, "matcher_quanta": 0,
        "matcher_bound": 0, "matcher_solves": 0, "degraded_quanta": 0, "faults_injected": 0,
        "cores_offlined": 0, "apps_evacuated": 0, "censored_apps": 0}}}}"#
    );
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{key}.json")), flat).unwrap();
    assert!(load_cell(&dir, &key).is_none(), "flat-schema cell rejected");
    let cells = run_suite_sharded(&spec(&dir, cfg), model(), 1);
    assert_ne!(cells[0].tt_mean, sentinel().tt_mean, "cell recomputed");
    assert_eq!(
        load_cell(&dir, &key),
        Some(cells[0].clone()),
        "and rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell cached as the suite's own row record (top-level `kind` and
/// `migrations`, flat `samples_*` and `fallback_*` counters in `stats`)
/// is recomputed, never loaded: the cache stores `CellOutcome` itself,
/// which has no serde defaults.
#[test]
fn cell_cached_as_a_suite_row_is_recomputed() {
    let dir = temp_dir("suite-row");
    let cfg = mini_config();
    let w = workload::by_name("fb2").unwrap();
    let key = cell_key(&w, SuitePolicy::Linux, &cfg, &model());
    let row = format!(
        r#"{{"key": "{key}", "cell": {{"workload": "fb2", "kind": "mixed", "policy": "linux",
        "tt_mean": 123456789.0, "tt_cv": 0.0, "discarded": 0, "app_names": ["sentinel"],
        "app_ipc": [1.0], "app_speedup": [1.0], "migrations": 77, "stats": {{
        "samples_ok": 0, "samples_clamped": 0, "samples_held": 0, "samples_missing": 0,
        "degraded_quanta": 0, "injected": [0, 0, 0, 0, 0, 0], "fallback_entries": 0,
        "fallback_quanta": 0, "matcher_calls": 0, "matcher_bound": 0, "matcher_solves": 0,
        "cores_offlined": 0, "cores_transient": 0, "cores_throttled": 0, "apps_evacuated": 0,
        "apps_crashed": 0, "apps_hung": 0, "retries": 0, "failed": 0, "censored": 0}}}}}}"#
    );
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{key}.json")), row).unwrap();
    assert!(load_cell(&dir, &key).is_none(), "suite-row cell rejected");
    let cells = run_suite_sharded(&spec(&dir, cfg), model(), 1);
    assert_ne!(cells[0].tt_mean, sentinel().tt_mean, "cell recomputed");
    assert_eq!(
        load_cell(&dir, &key),
        Some(cells[0].clone()),
        "and rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
