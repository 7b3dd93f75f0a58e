//! End-to-end integration: the full SYNPA pipeline — train on the simulator,
//! prepare a workload, run it under every policy, and check the outputs are
//! internally consistent.

use synpa::prelude::*;

/// Small-but-real training set: one app per behavioural corner.
fn quick_model() -> SynpaModel {
    let names = ["mcf", "lbm_r", "gobmk", "nab_r", "hmmer", "xalancbmk_r"];
    let apps: Vec<AppProfile> = names.iter().map(|n| spec::by_name(n).unwrap()).collect();
    let cfg = TrainingConfig {
        warmup: 30_000,
        quantum: 4_000,
        st_quanta: 15,
        smt_quanta: 8,
        ..Default::default()
    };
    synpa::model::training::train(&apps, &cfg, 8)
        .expect("catalog fits")
        .model
}

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        reps: 2,
        target_window: 120_000,
        calibration_warmup: 40_000,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_runs_and_is_consistent() {
    let model = quick_model();
    let cfg = quick_cfg();
    let workload = workload::by_name("fb2").unwrap();
    let prepared = prepare_workload(&workload, &cfg);

    let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
    let synpa = run_cell(&prepared, |_| Box::new(Synpa::new(model)), &cfg);

    for cell in [&linux, &synpa] {
        assert_eq!(cell.app_ipc.len(), 8);
        assert!(cell.tt_mean > 0.0);
        // TT is the max per-app TT of the exemplar run.
        let max_app = cell
            .exemplar
            .per_app
            .iter()
            .map(|a| a.tt_cycles)
            .max()
            .unwrap();
        assert_eq!(cell.exemplar.tt_cycles, max_app);
        // Individual speedups are genuine slowdowns (SMT interference).
        for s in &cell.app_speedup {
            assert!(*s > 0.0 && *s <= 1.2, "speedup {s} out of range");
        }
        // Metrics compute without panicking and are bounded sensibly.
        let f = fairness(&cell.app_speedup);
        assert!(f <= 1.0 + 1e-9);
        assert!(workload_ipc(&cell.app_ipc) > 0.0);
    }
    assert_eq!(linux.exemplar.migrations, 0);
}

#[test]
fn synpa_never_loses_catastrophically_to_linux() {
    // The policy must be safe: on a workload where Linux is already good,
    // hysteresis keeps SYNPA within a few percent.
    let model = quick_model();
    let cfg = quick_cfg();
    for name in ["fb2", "fe2"] {
        let prepared = prepare_workload(&workload::by_name(name).unwrap(), &cfg);
        let linux = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
        let synpa = run_cell(&prepared, |_| Box::new(Synpa::new(model)), &cfg);
        let speedup = tt_speedup(linux.tt_mean, synpa.tt_mean);
        assert!(
            speedup > 0.85,
            "{name}: SYNPA {speedup:.3}x vs Linux is a catastrophic loss"
        );
    }
}

#[test]
fn oracle_and_random_policies_complete() {
    let model = quick_model();
    let cfg = quick_cfg();
    let prepared = prepare_workload(&workload::by_name("fb0").unwrap(), &cfg);
    // Oracle with true phase-mean ST categories.
    let st: Vec<(usize, Categories)> = prepared
        .apps
        .iter()
        .enumerate()
        .map(|(k, app)| {
            let prof = synpa::model::training::st_profile(app, &TrainingConfig::default());
            (k, prof.mean())
        })
        .collect();
    let oracle = run_cell(
        &prepared,
        move |_| Box::new(OracleSynpa::new(model, st.clone())),
        &cfg,
    );
    let random = run_cell(&prepared, |s| Box::new(RandomPairing::new(s)), &cfg);
    assert!(oracle.tt_mean > 0.0);
    assert!(random.tt_mean > 0.0);
    assert!(random.exemplar.migrations > 0);
}

#[test]
fn trace_is_complete_and_coherent() {
    let cfg = quick_cfg();
    let prepared = prepare_workload(&workload::by_name("be1").unwrap(), &cfg);
    let cell = run_cell(&prepared, |_| Box::new(LinuxLike), &cfg);
    let trace = exemplar_rows(&prepared, |_| Box::new(LinuxLike), &cfg, &cell);
    assert!(!trace.is_empty());
    // Every quantum logs all 8 apps exactly once.
    let quanta = cell.exemplar.quanta;
    for q in 0..quanta.min(10) {
        let rows: Vec<_> = trace.iter().filter(|r| r.quantum == q).collect();
        assert_eq!(rows.len(), 8, "quantum {q}");
        let mut apps: Vec<usize> = rows.iter().map(|r| r.app).collect();
        apps.sort_unstable();
        assert_eq!(apps, (0..8).collect::<Vec<_>>());
        // Pairing is symmetric within the quantum.
        for r in &rows {
            let partner = rows.iter().find(|p| p.app == r.co_runner).unwrap();
            assert_eq!(partner.co_runner, r.app);
        }
    }
}
