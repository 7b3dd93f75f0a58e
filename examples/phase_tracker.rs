//! Phase tracker: the Fig. 7 experiment as a living tool. Runs workload
//! fb2 under Linux and under SYNPA, then renders the per-quantum behaviour
//! of one application (default: the first `leela_r` instance) as an ASCII
//! strip — its dominant dispatch category, who it was paired with, and the
//! co-runner's dominant category.
//!
//! ```text
//! cargo run --release --example phase_tracker          # leela_r (04) in fb2
//! cargo run --release --example phase_tracker -- 5     # app index 5
//! ```

use synpa::prelude::*;
use synpa::sched::CellOutcome;
use synpa_experiments::{threads, training_split};

fn render((cell, trace): &(CellOutcome, Vec<QuantumRow>), app: usize, names: &[String]) {
    let result = &cell.exemplar;
    println!(
        "policy {:<6} app {app} ({}), TT {} cycles, {} quanta",
        result.policy, names[app], result.per_app[app].tt_cycles, result.quanta
    );
    let rows: Vec<_> = trace.iter().filter(|r| r.app == app).collect();
    // One character per quantum: the app's dominant category
    // (F frontend / B backend / d full-dispatch).
    let strip: String = rows
        .iter()
        .map(|r| {
            let f = r.categories.fractions();
            if f[1] > f[2] && f[1] > f[0] {
                'F'
            } else if f[2] > f[0] {
                'B'
            } else {
                'd'
            }
        })
        .collect();
    println!("  behaviour : {strip}");
    // Co-runner identity per quantum (workload arrival index, one digit).
    let partners: String = rows
        .iter()
        .map(|r| char::from_digit(r.co_runner as u32 % 10, 10).unwrap())
        .collect();
    println!("  co-runner : {partners}");
    // Fraction of quanta paired with a complementary-behaving co-runner.
    let mut complementary = 0usize;
    let mut total = 0usize;
    for r in &rows {
        if let Some(partner) = trace
            .iter()
            .find(|p| p.quantum == r.quantum && p.app == r.co_runner)
        {
            total += 1;
            if r.is_frontend_behaving() != partner.is_frontend_behaving() {
                complementary += 1;
            }
        }
    }
    if total > 0 {
        println!(
            "  complementary pairings: {:.1}% of quanta",
            complementary as f64 / total as f64 * 100.0
        );
    }
}

fn main() {
    let app: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("app index 0..8"))
        .unwrap_or(4); // leela_r (04), the paper's Fig. 7 subject

    println!("training model...");
    let (training, _) = training_split();
    let model = train(&training, &TrainingConfig::default(), threads())
        .expect("catalog fits")
        .model;

    let cfg = ExperimentConfig {
        reps: 1,
        threads: threads(),
        ..Default::default()
    };
    let workload = workload::by_name("fb2").unwrap();
    println!("workload fb2: {:?}\n", workload.apps);
    let prepared = prepare_workload(&workload, &cfg);

    let with_rows = |make_policy: &(dyn Fn(u64) -> Box<dyn Policy> + Sync)| {
        let cell = run_cell(&prepared, make_policy, &cfg);
        let rows = exemplar_rows(&prepared, make_policy, &cfg, &cell);
        (cell, rows)
    };
    render(&with_rows(&|_| Box::new(LinuxLike)), app, &workload.apps);
    println!();
    render(
        &with_rows(&|_| Box::new(Synpa::new(model))),
        app,
        &workload.apps,
    );
}
