//! Measures the evaluation-sweep orchestrator: sequential reference vs
//! sharded cold vs sharded warm (fully cached), on a mid-size sweep.
//!
//! This is the tool behind the BASELINES.md "suite orchestration" table.
//!
//! ```text
//! cargo run --release --example sweep_timing            # 6 workloads, 5 reps
//! cargo run --release --example sweep_timing -- 4 3     # 4 workloads, 3 reps
//! SYNPA_THREADS=8 cargo run --release --example sweep_timing
//! ```

use std::time::Instant;
use synpa::prelude::*;
use synpa_experiments::{
    canned_model, run_suite_sequential, run_suite_sharded, threads, SuitePolicy, SuiteSpec,
};

fn model() -> SynpaModel {
    canned_model()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_workloads: usize = args
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(6)
        .max(1);
    let reps: u32 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(5).max(1);
    let workers = threads();

    let workloads: Vec<Workload> = workload::standard_suite()
        .into_iter()
        .take(n_workloads)
        .collect();
    let cache = std::env::temp_dir().join("synpa-sweep-timing");
    let _ = std::fs::remove_dir_all(&cache);
    // A new config per run: each starts with an empty calibration memo, so
    // every cold timing includes calibration.
    let spec = |cache_dir| SuiteSpec {
        workloads: workloads.clone(),
        policies: vec![SuitePolicy::Linux, SuitePolicy::Synpa],
        config: ExperimentConfig {
            target_window: 100_000,
            calibration_warmup: 30_000,
            reps,
            threads: workers,
            ..Default::default()
        },
        cache_dir,
    };

    println!(
        "sweep: {} workloads x 2 policies, {} reps, {} workers",
        n_workloads, reps, workers
    );

    let t0 = Instant::now();
    let seq = run_suite_sequential(&spec(None), model());
    let t_seq = t0.elapsed();
    println!("sequential reference: {:>8.2}s", t_seq.as_secs_f64());

    let t0 = Instant::now();
    let cold = run_suite_sharded(&spec(Some(cache.clone())), model(), workers);
    let t_cold = t0.elapsed();
    println!("sharded cold:         {:>8.2}s", t_cold.as_secs_f64());

    let t0 = Instant::now();
    let warm = run_suite_sharded(&spec(Some(cache.clone())), model(), workers);
    let t_warm = t0.elapsed();
    println!("sharded warm (cache): {:>8.2}s", t_warm.as_secs_f64());

    let seq_json = serde_json::to_string_pretty(&seq).unwrap();
    assert_eq!(
        seq_json,
        serde_json::to_string_pretty(&cold).unwrap(),
        "sharded cold must equal sequential byte for byte"
    );
    assert_eq!(
        seq_json,
        serde_json::to_string_pretty(&warm).unwrap(),
        "sharded warm must equal sequential byte for byte"
    );
    println!("outputs byte-identical across all three paths");
    let _ = std::fs::remove_dir_all(&cache);
}
