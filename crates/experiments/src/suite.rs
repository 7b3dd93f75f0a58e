//! Sharded sweep orchestration with per-cell result caching.
//!
//! The evaluation sweep is a workload × policy grid. This module flattens
//! the grid into independent cells, runs them across worker threads via
//! `sched::parallel_map`, and persists every finished cell as its own JSON
//! file keyed by `(workload, policy, config-hash, seed)`. Re-runs only
//! compute cells that are missing, stale (different config hash) or
//! corrupted — a warm sweep is pure deserialization.
//!
//! Determinism contract: the assembled cell vector is identical — byte for
//! byte once serialized — for any worker-thread count, and identical to
//! [`run_suite_sequential`], the pre-sharding reference loop. Nothing a
//! cell computes depends on scheduling order: per-rep seeds are derived
//! from the config, and `parallel_map` preserves item order.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use synpa::prelude::*;
use synpa::sched::{calibrate_apps, parallel_map, CellOutcome, GreedySynpa, PreparedWorkload};

/// Policy selector for suite cells (the policies a sweep can grid over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuitePolicy {
    /// Arrival-order static baseline (§VI-C).
    Linux,
    /// The full SYNPA policy (invert → predict → Blossom).
    Synpa,
    /// SYNPA with the greedy matcher instead of Blossom (ablation).
    GreedySynpa,
    /// Uniform-random re-pairing every quantum (sanity baseline).
    Random,
}

impl SuitePolicy {
    /// The paper's two policies, the columns of every figure's sweep.
    pub const PAPER: [SuitePolicy; 2] = [SuitePolicy::Linux, SuitePolicy::Synpa];

    /// Stable name used in cell keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            SuitePolicy::Linux => "linux",
            SuitePolicy::Synpa => "synpa",
            SuitePolicy::GreedySynpa => "greedy-synpa",
            SuitePolicy::Random => "random",
        }
    }

    /// Inverse of [`SuitePolicy::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "linux" => Some(SuitePolicy::Linux),
            "synpa" => Some(SuitePolicy::Synpa),
            "greedy-synpa" | "greedy" => Some(SuitePolicy::GreedySynpa),
            "random" => Some(SuitePolicy::Random),
            _ => None,
        }
    }

    /// Builds a fresh policy instance for one repetition.
    pub fn build(self, model: SynpaModel, seed: u64) -> Box<dyn Policy> {
        match self {
            SuitePolicy::Linux => Box::new(LinuxLike),
            SuitePolicy::Synpa => Box::new(Synpa::new(model)),
            SuitePolicy::GreedySynpa => Box::new(GreedySynpa::new(model)),
            SuitePolicy::Random => Box::new(RandomPairing::new(seed)),
        }
    }

    /// Whether this policy's decisions depend on the trained model (and its
    /// cached cells must therefore be invalidated when the model changes).
    pub fn uses_model(self) -> bool {
        matches!(self, SuitePolicy::Synpa | SuitePolicy::GreedySynpa)
    }
}

/// A declarative description of one evaluation sweep.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Workloads forming the grid's rows, in report order.
    pub workloads: Vec<Workload>,
    /// Policies forming the grid's columns, in report order.
    pub policies: Vec<SuitePolicy>,
    /// Measurement methodology shared by every cell.
    pub config: ExperimentConfig,
    /// Per-cell cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
}

/// Fixed Equation-1 coefficients with the superlinear same-type backend
/// interaction (`backend.rho` dominant). For smoke tests, determinism
/// oracles and timing harnesses that must exercise the full SYNPA decision
/// path without paying for (or depending on) model training.
pub fn canned_model() -> SynpaModel {
    use synpa::model::CategoryCoeffs;
    SynpaModel {
        full_dispatch: CategoryCoeffs {
            alpha: 0.05,
            beta: 1.0,
            gamma: 0.05,
            rho: 0.1,
        },
        frontend: CategoryCoeffs {
            alpha: 0.03,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.2,
        },
        backend: CategoryCoeffs {
            alpha: 0.1,
            beta: 1.0,
            gamma: 0.1,
            rho: 0.8,
        },
    }
}

/// 64-bit FNV-1a, the cache-key hash. Stable across platforms and runs.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of everything in an [`ExperimentConfig`] that can change a cell's
/// *result*: the whole config's `Debug` rendering, with the non-semantic
/// fields neutralized first — `threads` (parallelism never affects
/// output), `base_seed` (a separate component of the cell key),
/// and `chip.engine` (both engines — reference and percore — are
/// bit-identical on every counter, enforced by the `engine_equivalence`
/// differential wall, so cells stay warm across engine choice). The engine
/// field is canonicalized to one fixed variant rather than the default, so
/// a future default change can't invalidate caches either.
/// `chip.seed` stays in the
/// hash: the per-repetition measurement runs override it, but calibration
/// (`prepare_workload`) consumes it as-is, so launch targets and solo IPC
/// depend on it. Hashing the full struct means any field added to
/// `ExperimentConfig`/`ManagerConfig` later invalidates caches
/// automatically instead of being silently excluded.
pub fn config_hash(cfg: &ExperimentConfig) -> u64 {
    let mut canon = cfg.clone();
    canon.threads = 0;
    canon.base_seed = 0;
    canon.manager.chip.engine = EngineKind::Reference;
    fnv1a(FNV_OFFSET, format!("{canon:?}").as_bytes())
}

/// Cache key of one cell: `(workload, policy, config-hash, seed)`. The
/// config hash also folds in the workload's app list *and the apps'
/// profile data* (so a regenerated workload with the same name but
/// different apps — or a retuned application model in `spec` — never
/// reuses stale cells) and, for model-driven policies, the model
/// coefficients (so a retrained model invalidates `synpa` cells while
/// leaving model-blind `linux`/`random` cells warm).
pub fn cell_key(
    workload: &Workload,
    policy: SuitePolicy,
    cfg: &ExperimentConfig,
    model: &SynpaModel,
) -> String {
    let mut h = config_hash(cfg);
    h = fnv1a(h, workload.kind.to_string().as_bytes());
    for app in &workload.apps {
        h = fnv1a(h, app.as_bytes());
        h = fnv1a(h, b"|");
    }
    // Arrival staggering changes every measured quantity (TT is measured
    // from each app's arrival), so phase-shifted workloads must never
    // share cells with their all-at-zero twins. An empty arrival vector
    // hashes like all-zeros-omitted, keeping plain workloads' keys stable
    // in shape.
    for k in 0..workload.apps.len() {
        let a = workload.arrival(k);
        if a != 0 {
            h = fnv1a(h, &(k as u64).to_le_bytes());
            h = fnv1a(h, &a.to_le_bytes());
        }
    }
    // Launch-target scales change every measured quantity the same way
    // arrivals do (targets define TT and relaunch cadence), so scaled
    // workloads must never share cells with their calibrated-only twins.
    // Unit scales hash like an empty vector, keeping plain keys stable.
    for k in 0..workload.apps.len() {
        let s = workload.target_scale(k);
        if s != 1.0 {
            h = fnv1a(h, &(k as u64).to_le_bytes());
            h = fnv1a(h, &s.to_bits().to_le_bytes());
        }
    }
    let mut hashed: Vec<&str> = Vec::new();
    for app in &workload.apps {
        if !hashed.contains(&app.as_str()) {
            hashed.push(app);
            if let Some(profile) = spec::by_name(app) {
                h = fnv1a(h, format!("{profile:?}").as_bytes());
            }
        }
    }
    if policy.uses_model() {
        // `{:?}` on f64 prints the shortest round-trippable form, so equal
        // coefficients hash equally and any change is visible.
        h = fnv1a(h, format!("{model:?}").as_bytes());
    }
    format!(
        "{}-{}-{:016x}-{:016x}",
        workload.name,
        policy.name(),
        h,
        cfg.base_seed
    )
}

/// On-disk envelope of a cached cell. The embedded key is verified on load
/// so a file renamed or written under the wrong name is never trusted.
#[derive(Serialize, Deserialize)]
struct CachedCell {
    key: String,
    cell: CellOutcome,
}

/// Loads one cached cell, returning `None` when the file is missing,
/// unparseable (corrupted or in an older schema) or carries a different
/// key. `CellOutcome` and the records inside it have no serde defaults,
/// so a cell cached before one of their fields existed is recomputed
/// rather than loaded with fabricated zeros.
pub fn load_cell(dir: &Path, key: &str) -> Option<CellOutcome> {
    let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).ok()?;
    let cached: CachedCell = serde_json::from_str(&text).ok()?;
    (cached.key == key).then_some(cached.cell)
}

/// Atomically publishes `text` at `path`: write a writer-private temp file
/// in the same directory, then rename over the target. A concurrent reader
/// or an interrupted run never observes a truncated file. Orphans left by
/// killed writers are collected by `sweep_stale_tmp`, which runs once
/// per directory per sweep/binary — not here, to keep publishes O(1).
pub fn write_atomic(path: &Path, text: &str) {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    if std::fs::rename(&tmp, path).is_ok() {
        return;
    }
    // A concurrent `SYNPA_FRESH` sweep may have deleted the directory (temp
    // included) between write and rename; re-create and publish once more
    // rather than aborting a sweep's worth of computed cells.
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("rewrite {}: {e}", tmp.display()));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("publish {}: {e}", path.display()));
}

/// Age after which an unpublished temp file is considered orphaned (its
/// writer was killed between write and rename). Live writers hold a temp
/// for milliseconds, so a minute is conservatively safe.
const STALE_TMP_SECS: u64 = 60;

/// True for extensions of [`write_atomic`]'s own temp files
/// (`tmp<pid>-<seq>`), so the sweeper never touches foreign `*.tmp` files
/// someone else parked in the directory.
fn is_writer_tmp(ext: &str) -> bool {
    let Some(rest) = ext.strip_prefix("tmp") else {
        return false;
    };
    let mut parts = rest.splitn(2, '-');
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    parts.next().is_some_and(all_digits) && parts.next().is_some_and(all_digits)
}

/// Removes temp files a killed run left behind (publication happened to
/// never complete). Called once per directory per sweep; in-flight temps
/// of a concurrently running writer are protected by the age guard.
pub(crate) fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .extension()
            .and_then(|x| x.to_str())
            .is_some_and(is_writer_tmp);
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age.as_secs() >= STALE_TMP_SECS);
        if is_tmp && stale {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Persists one cell under its key (creates the directory as needed);
/// publication is atomic.
pub fn store_cell(dir: &Path, key: &str, cell: &CellOutcome) {
    std::fs::create_dir_all(dir).expect("create cell cache dir");
    let envelope = CachedCell {
        key: key.to_string(),
        cell: cell.clone(),
    };
    write_atomic(
        &dir.join(format!("{key}.json")),
        &serde_json::to_string_pretty(&envelope).unwrap(),
    );
}

/// The pre-sharding reference loop: prepare each workload once, run its
/// policies in grid order, no caching. Kept as the determinism oracle the
/// sharded orchestrator is tested against.
pub fn run_suite_sequential(spec: &SuiteSpec, model: SynpaModel) -> Vec<CellOutcome> {
    let mut cells = Vec::with_capacity(spec.workloads.len() * spec.policies.len());
    for w in &spec.workloads {
        let prepared = prepare_workload(w, &spec.config);
        for &p in &spec.policies {
            let cell = run_cell(&prepared, |seed| p.build(model, seed), &spec.config);
            cells.push(cell);
        }
    }
    cells
}

/// The sharded orchestrator: flattens the workload×policy grid into
/// independent cells and runs the missing ones across `threads` workers.
///
/// Two stages, both order-preserving:
///
/// 1. the distinct apps of every workload with at least one uncached cell
///    are calibrated into the config's memo (`calibrate_apps`) — once per
///    app, not once per workload or policy — and those workloads are
///    prepared from it;
/// 2. every uncached cell runs `run_cell` and is persisted.
///
/// Inside a cell, leftover parallelism is divided among the in-flight
/// items: a 40-cell standard sweep pins cells to 1 thread (the grid
/// saturates the workers), while a 2-cell full-chip run still parallelizes
/// each cell's repetitions.
pub fn run_suite_sharded(spec: &SuiteSpec, model: SynpaModel, threads: usize) -> Vec<CellOutcome> {
    let threads = threads.max(1);
    if let Some(dir) = spec.cache_dir.as_deref() {
        // SYNPA_FRESH drops the cell cache here, in the one place that owns
        // it, so every sweep consumer honors the flag automatically.
        if crate::fresh_requested() {
            let _ = std::fs::remove_dir_all(dir);
        }
        sweep_stale_tmp(dir);
    }

    // Canonical grid order: workloads outer, policies inner. Cells refer to
    // workloads by index, never by name — a spec with two same-named
    // workloads still calibrates and runs each one against its own apps.
    let grid: Vec<(usize, SuitePolicy)> = (0..spec.workloads.len())
        .flat_map(|wi| spec.policies.iter().map(move |&p| (wi, p)))
        .collect();

    // Probe the cache for every cell.
    let cached: Vec<Option<CellOutcome>> = grid
        .iter()
        .map(|&(wi, p)| {
            let dir = spec.cache_dir.as_deref()?;
            load_cell(dir, &cell_key(&spec.workloads[wi], p, &spec.config, &model))
        })
        .collect();
    let missing_cells = cached.iter().filter(|c| c.is_none()).count();

    // Stage 1: calibrate every workload that still has work, in parallel.
    let mut missing_workloads: Vec<usize> = Vec::new();
    for (&(wi, _), cell) in grid.iter().zip(&cached) {
        if cell.is_none() && !missing_workloads.contains(&wi) {
            missing_workloads.push(wi);
        }
    }
    // All their distinct apps go through one parallel calibration first, so
    // no two workers race to measure the same app; preparing the workloads
    // then only reads the memo.
    let mut prep_cfg = spec.config.clone();
    prep_cfg.threads = threads;
    let apps: Vec<&str> = missing_workloads
        .iter()
        .flat_map(|&wi| spec.workloads[wi].apps.iter().map(String::as_str))
        .collect();
    calibrate_apps(&apps, &prep_cfg);
    let prepared_of: HashMap<usize, PreparedWorkload> = missing_workloads
        .iter()
        .map(|&wi| (wi, prepare_workload(&spec.workloads[wi], &prep_cfg)))
        .collect();

    // Stage 2: run the missing cells, in parallel, and persist them.
    let mut cell_cfg = spec.config.clone();
    cell_cfg.threads = (threads / missing_cells.max(1)).max(1);
    let indices: Vec<usize> = (0..grid.len()).collect();
    let computed: Vec<Option<CellOutcome>> = parallel_map(&indices, threads, |&i| {
        if cached[i].is_some() {
            return None;
        }
        let (wi, p) = grid[i];
        let w = &spec.workloads[wi];
        eprintln!("running {} under {} ...", w.name, p.name());
        let cell = run_cell(&prepared_of[&wi], |seed| p.build(model, seed), &cell_cfg);
        if let Some(dir) = spec.cache_dir.as_deref() {
            store_cell(dir, &cell_key(w, p, &spec.config, &model), &cell);
        }
        Some(cell)
    });

    // Assemble in grid order; parallel_map preserved item order.
    cached
        .into_iter()
        .zip(computed)
        .map(|(hit, fresh)| hit.or(fresh).expect("every cell is cached or computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa::sched::RunResult;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::default()
    }

    #[test]
    fn config_hash_ignores_threads_but_tracks_chip_seed() {
        let a = cfg();
        let mut b = cfg();
        b.threads = a.threads + 7;
        assert_eq!(config_hash(&a), config_hash(&b), "parallelism is free");
        // The chip seed drives calibration (prepare_workload uses it
        // un-overridden), so it must invalidate cells.
        let mut c = cfg();
        c.manager.chip.seed = 0xDEAD;
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn config_hash_ignores_the_calibration_memo() {
        let a = cfg();
        let empty = config_hash(&a);
        // Populate `a`'s memo through a clone (clones share it), at a
        // test-size window.
        let mut clone = a.clone();
        clone.target_window = 5_000;
        clone.calibration_warmup = 1_000;
        calibrate_apps(&["mcf"], &clone);
        assert_eq!(a.calibrations.len(), 1);
        assert_eq!(config_hash(&a), empty, "memo contents are not a setting");
        assert_eq!(config_hash(&a), config_hash(&cfg()));
    }

    #[test]
    fn config_hash_ignores_engine_choice() {
        // The engines are bit-identical (differential wall), so switching
        // one must not invalidate — or fork — the cell cache.
        let a = cfg();
        for engine in EngineKind::ALL {
            let mut b = cfg();
            b.manager.chip.engine = engine;
            assert_eq!(config_hash(&a), config_hash(&b), "{engine}");
        }
    }

    #[test]
    fn cell_key_tracks_arrival_staggering() {
        let m = SynpaModel::default();
        let w = workload::by_name("fb2").unwrap();
        let plain = cell_key(&w, SuitePolicy::Linux, &cfg(), &m);
        let mut shifted = w.clone();
        shifted.arrivals = vec![0, 0, 0, 0, 40_000, 40_000, 40_000, 40_000];
        assert_ne!(
            plain,
            cell_key(&shifted, SuitePolicy::Linux, &cfg(), &m),
            "staggered arrivals must not reuse all-at-zero cells"
        );
        // Explicit all-zero arrivals are semantically the plain workload.
        let mut zeros = w.clone();
        zeros.arrivals = vec![0; 8];
        assert_eq!(plain, cell_key(&zeros, SuitePolicy::Linux, &cfg(), &m));
    }

    #[test]
    fn cell_key_tracks_target_scales() {
        let m = SynpaModel::default();
        let w = workload::by_name("fb2").unwrap();
        let plain = cell_key(&w, SuitePolicy::Linux, &cfg(), &m);
        let mut scaled = w.clone();
        scaled.target_scale = vec![0.5, 2.0, 0.5, 2.0, 0.5, 2.0, 0.5, 2.0];
        assert_ne!(
            plain,
            cell_key(&scaled, SuitePolicy::Linux, &cfg(), &m),
            "heterogeneous targets must not reuse calibrated-only cells"
        );
        // Explicit unit scales are semantically the plain workload.
        let mut unit = w.clone();
        unit.target_scale = vec![1.0; 8];
        assert_eq!(plain, cell_key(&unit, SuitePolicy::Linux, &cfg(), &m));
    }

    #[test]
    fn config_hash_tracks_methodology_fields() {
        let a = cfg();
        let mut b = cfg();
        b.target_window += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        let mut c = cfg();
        c.manager.quantum_cycles += 1;
        assert_ne!(config_hash(&a), config_hash(&c));
        let mut d = cfg();
        d.manager.chip.cores += 1;
        assert_ne!(config_hash(&a), config_hash(&d));
    }

    #[test]
    fn cell_key_separates_policy_seed_and_apps() {
        let m = SynpaModel::default();
        let w = workload::by_name("fb2").unwrap();
        let a = cell_key(&w, SuitePolicy::Linux, &cfg(), &m);
        assert_ne!(a, cell_key(&w, SuitePolicy::Synpa, &cfg(), &m));
        let mut seeded = cfg();
        seeded.base_seed += 1;
        assert_ne!(a, cell_key(&w, SuitePolicy::Linux, &seeded, &m));
        let mut w2 = w.clone();
        w2.apps.swap(0, 1);
        assert_ne!(a, cell_key(&w2, SuitePolicy::Linux, &cfg(), &m));
        let mut w3 = w.clone();
        w3.kind = workload::WorkloadKind::BackendIntensive;
        assert_ne!(a, cell_key(&w3, SuitePolicy::Linux, &cfg(), &m));
    }

    #[test]
    fn model_change_invalidates_synpa_cells_but_not_linux_cells() {
        let w = workload::by_name("fb2").unwrap();
        let a = SynpaModel::default();
        let mut b = SynpaModel::default();
        b.backend.rho += 0.25;
        assert_ne!(
            cell_key(&w, SuitePolicy::Synpa, &cfg(), &a),
            cell_key(&w, SuitePolicy::Synpa, &cfg(), &b),
            "retrained model must invalidate model-driven cells"
        );
        assert_eq!(
            cell_key(&w, SuitePolicy::Linux, &cfg(), &a),
            cell_key(&w, SuitePolicy::Linux, &cfg(), &b),
            "model-blind cells stay warm across retraining"
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            SuitePolicy::Linux,
            SuitePolicy::Synpa,
            SuitePolicy::GreedySynpa,
            SuitePolicy::Random,
        ] {
            assert_eq!(SuitePolicy::parse(p.name()), Some(p));
        }
        assert_eq!(SuitePolicy::parse("oracle"), None);
    }

    #[test]
    fn tmp_sweep_spares_cells_and_fresh_temps() {
        let dir = std::env::temp_dir().join("synpa-suite-tmp-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cell.json"), "{}").unwrap();
        // A *fresh* temp belongs to a live writer and must survive; only
        // temps older than STALE_TMP_SECS are collected (not forgeable from
        // a test, so staleness itself is covered by the age-guard logic).
        std::fs::write(dir.join("cell.tmp99-0"), "partial").unwrap();
        sweep_stale_tmp(&dir);
        assert!(dir.join("cell.json").is_file());
        assert!(dir.join("cell.tmp99-0").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_mismatched_key() {
        let dir = std::env::temp_dir().join("synpa-suite-key-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let cell = CellOutcome {
            workload: "w".into(),
            policy: "linux".into(),
            tt_mean: 1.0,
            tt_cv: 0.0,
            tt_runs: vec![],
            discarded: 0,
            app_ipc: vec![],
            app_speedup: vec![],
            app_names: vec![],
            exemplar: RunResult {
                policy: "linux".into(),
                tt_cycles: 1,
                per_app: vec![],
                quanta: 0,
                migrations: 0,
                capped: false,
                stats: RunStats::default(),
            },
            exemplar_seed: 0,
        };
        store_cell(&dir, "right", &cell);
        std::fs::rename(dir.join("right.json"), dir.join("wrong.json")).unwrap();
        assert!(load_cell(&dir, "wrong").is_none(), "renamed file rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
