//! §III-B step-3 ablation: the paper assigns the revealed horizontal waste
//! entirely to the backend, having also evaluated equal and proportional
//! splits. Trains a model under each choice and compares held-out error.

use synpa::model::training::{fit_from_samples, record, HoldoutSplit, TrainingConfig};
use synpa::model::{mse, RevealsSplit};
use synpa_experiments::{threads, training_split};

fn main() {
    let (train_apps, _) = training_split();
    let designs = [
        ("all-to-backend", RevealsSplit::AllToBackend),
        ("equal", RevealsSplit::Equal),
        ("proportional", RevealsSplit::Proportional),
    ];
    let cfgs = designs.map(|(_, split)| TrainingConfig {
        split,
        ..Default::default()
    });
    // The split only changes how counters become categories, so one set of
    // profiling runs serves all three designs: the extractor returns each
    // quantum's categories under every split.
    let extract = [0, 1, 2].map(|k| cfgs[k].categories());
    let runs = record(&train_apps, &cfgs[0], threads(), |d| {
        [0, 1, 2].map(|k| extract[k](d))
    });
    println!("§III-B — where should the revealed stalls go?");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "split", "MSE(FD)", "MSE(FE)", "MSE(BE)", "slowdown MSE"
    );
    for (k, ((name, _), cfg)) in designs.iter().zip(&cfgs).enumerate() {
        let samples: Vec<_> = runs.iter().flatten().map(|s| s.map(|v| v[k])).collect();
        let report = fit_from_samples(&samples, cfg).expect("collected samples fit");
        // Held-out slowdown error (what pair selection actually consumes),
        // on the hold-out the per-category MSEs come from.
        let (pred, obs): (Vec<f64>, Vec<f64>) = HoldoutSplit::new(&samples, cfg)
            .eval()
            .iter()
            .map(|s| {
                let pred = report.model.predict_slowdown(&s.st_i, &s.st_j);
                (pred, s.smt_ij.cpi() / s.st_i.cpi().max(1e-9))
            })
            .unzip();
        let slowdown_mse = mse(&pred, &obs);
        println!(
            "{name:<16} {:>12.4} {:>12.4} {:>12.4} {:>14.4}",
            report.mse[0], report.mse[1], report.mse[2], slowdown_mse
        );
    }
    println!("\npaper choice: all-to-backend (selected as the most accurate design).");
    println!("NOTE: on this simulator dispatch happens in full-width bursts (the ROB");
    println!("frees whole groups at retirement) and INST_SPEC includes wrong-path µops,");
    println!("so the revealed horizontal waste is ~0 and the three designs coincide —");
    println!("the mechanism is implemented and exercised, but this machine gives it no");
    println!("signal to distribute. See docs/simulation.md.");
}
