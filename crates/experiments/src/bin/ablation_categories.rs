//! §VI-A ablation: the authors first built a 10-category model (backend
//! split by stall cause) and found it *worse* than the 3-category model.
//! Reproduces that comparison on held-out CPI prediction error.

use synpa::model::ablation::{fit_ten, three_and_ten, TEN_NAMES};
use synpa::model::mse;
use synpa::model::training::{fit_from_samples, record, HoldoutSplit, TrainingConfig};
use synpa_experiments::{threads, training_split};

fn main() {
    let (train_apps, _) = training_split();
    let cfg = TrainingConfig::default();

    println!("recording the training runs...");
    let runs = record(&train_apps, &cfg, threads(), three_and_ten(&cfg));
    let samples3: Vec<_> = runs.iter().flatten().map(|s| s.map(|v| v.0)).collect();
    let report3 = fit_from_samples(&samples3, &cfg).expect("collected samples fit");
    // Held-out MSE of the predicted total CPI under the 3-category model,
    // on the same shuffled hold-out quanta `fit_ten` scores the 10-category
    // model on.
    let holdout = HoldoutSplit::new(&samples3, &cfg);
    let (pred, obs): (Vec<f64>, Vec<f64>) = holdout
        .eval()
        .iter()
        .map(|s| {
            (
                report3.model.predict(&s.st_i, &s.st_j).cpi(),
                s.smt_ij.cpi(),
            )
        })
        .unzip();
    let cpi3 = mse(&pred, &obs);

    let samples10: Vec<_> = runs.iter().flatten().map(|s| s.map(|v| v.1)).collect();
    let report10 = fit_ten(&samples10, &cfg);

    println!("\n§VI-A — 3-category vs 10-category model (held-out CPI prediction)");
    println!("  3-category  total-CPI MSE: {cpi3:.4}");
    println!("  10-category total-CPI MSE: {:.4}", report10.cpi_mse);
    println!(
        "  paper's finding reproduced (10-category worse): {}",
        report10.cpi_mse > cpi3
    );
    println!("\nper-category MSE of the 10-category model (errors that compound):");
    for (name, m) in TEN_NAMES.iter().zip(&report10.mse) {
        println!("  {name:<16} {m:.5}");
    }
}
