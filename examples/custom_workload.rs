//! Custom workload: the paper notes the model "needs to be re-trained with
//! the new applications" when workloads differ from SPEC-like behaviour.
//! This example builds two applications that do not exist in the catalog —
//! a garbage-collected-language-like app with alternating mutator/GC phases
//! and a sparse-graph traversal — trains a model that includes them, and
//! schedules a custom 8-app workload.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use synpa::apps::Phase;
use synpa::prelude::*;
use synpa::sim::PhaseParams;
use synpa_experiments::threads;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// A managed-runtime-like application: long mutator phases with big code
/// and branchy behaviour, punctuated by GC phases that sweep a large heap.
fn gc_language_app() -> AppProfile {
    AppProfile::new(
        "gc_lang",
        vec![
            Phase {
                // Mutator: frontend-ish.
                instructions: 60_000,
                params: PhaseParams {
                    mem_ratio: 0.2,
                    data_footprint: 96 * KB,
                    data_seq: 0.4,
                    code_footprint: 48 * KB,
                    code_hot: 0.86,
                    br_misp_rate: 0.005,
                    exec_latency: 1,
                    mlp: 0.6,
                },
            },
            Phase {
                // GC sweep: memory streaming over the whole heap.
                instructions: 20_000,
                params: PhaseParams {
                    mem_ratio: 0.4,
                    data_footprint: 2 * MB,
                    data_seq: 0.8,
                    code_footprint: 4 * KB,
                    code_hot: 1.0,
                    br_misp_rate: 0.001,
                    exec_latency: 1,
                    mlp: 0.7,
                },
            },
        ],
        200_000,
    )
}

/// A sparse-graph traversal: pointer chasing over a large arena.
fn graph_app() -> AppProfile {
    AppProfile::uniform(
        "graph_walk",
        PhaseParams {
            mem_ratio: 0.30,
            data_footprint: 3 * MB,
            data_seq: 0.05,
            code_footprint: 6 * KB,
            code_hot: 0.98,
            br_misp_rate: 0.004,
            exec_latency: 1,
            mlp: 0.2,
        },
        200_000,
    )
}

fn main() {
    // Training set: a slice of the SPEC-like catalog PLUS the new apps
    // (the paper: re-train when application behaviour changes).
    let mut training: Vec<AppProfile> = spec::catalog().into_iter().step_by(2).collect();
    training.push(gc_language_app());
    training.push(graph_app());
    println!("training on {} apps (incl. 2 custom)...", training.len());
    let model = train(&training, &TrainingConfig::default(), threads())
        .expect("catalog fits")
        .model;

    // A custom workload mixing catalog and custom applications. Note the
    // runner works from app *models*, so custom apps slot in like any other.
    let custom_apps = vec![
        gc_language_app(),
        spec::by_name("mcf").unwrap(),
        graph_app(),
        spec::by_name("lbm_r").unwrap(),
        gc_language_app(),
        spec::by_name("gobmk").unwrap(),
        graph_app(),
        spec::by_name("nab_r").unwrap(),
    ];

    // Calibrate launch targets manually (prepare_workload only knows the
    // catalog by name).
    let cfg = ExperimentConfig {
        reps: 3,
        threads: threads(),
        ..Default::default()
    };
    let mut apps = Vec::new();
    let mut solo = Vec::new();
    for app in &custom_apps {
        let run = synpa::apps::characterize_isolated_with(
            app,
            cfg.calibration_warmup,
            cfg.target_window,
            &cfg.manager.chip,
        );
        apps.push(app.clone().with_length(run.retired.max(1)));
        solo.push(run.ipc);
    }

    let mut linux_tt = Vec::new();
    let mut synpa_tt = Vec::new();
    for rep in 0..cfg.reps as u64 {
        let mut mgr = cfg.manager.clone();
        mgr.chip = mgr.chip.clone().with_seed(cfg.base_seed + rep);
        let linux = run_workload(&apps, &solo, &mut LinuxLike, &mgr);
        let mut policy = Synpa::new(model);
        let synpa = run_workload(&apps, &solo, &mut policy, &mgr);
        linux_tt.push(linux.tt_cycles as f64);
        synpa_tt.push(synpa.tt_cycles as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "custom workload: linux TT {:.0}, synpa TT {:.0}, speedup {:.3}x",
        mean(&linux_tt),
        mean(&synpa_tt),
        tt_speedup(mean(&linux_tt), mean(&synpa_tt))
    );
}
