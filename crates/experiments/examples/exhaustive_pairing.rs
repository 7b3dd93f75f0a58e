//! Exhaustive pairing ground truth: runs every static pairing of an
//! eight-application workload (105 of them) and ranks them by measured
//! turnaround time. Beside the ranking it reports where the Linux pairing
//! lands, how well the trained model's predicted pairing costs
//! rank-correlate with the measured order (Spearman), and the true rank of
//! the pairing the model prefers. See "Reading the results" in
//! `docs/simulation.md`.
//!
//! ```text
//! cargo run --release -p synpa-experiments --example exhaustive_pairing           # be1 be3 fb2 fb7
//! cargo run --release -p synpa-experiments --example exhaustive_pairing -- be0 fb7
//! ```

use synpa::model::spearman;
use synpa::model::training::st_profile;
use synpa::prelude::*;
use synpa::sched::{parallel_map, StaticPairs};
use synpa_experiments::{eval_config, perfect_pairings, threads, trained_model};

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        names = ["be1", "be3", "fb2", "fb7"].map(String::from).to_vec();
    }
    let (model, _) = trained_model();
    let tcfg = TrainingConfig::default();
    let cfg = eval_config();
    let mut mgr = cfg.manager.clone();
    mgr.chip = mgr.chip.with_seed(cfg.base_seed);
    for name in &names {
        let w = workload::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        let prepared = prepare_workload(&w, &cfg);
        let all = perfect_pairings(w.apps.len());
        let tt = parallel_map(&all, threads(), |pairs| {
            let mut policy = StaticPairs::new(pairs.clone());
            run_workload(&prepared.apps, &prepared.solo_ipc, &mut policy, &mgr).tt_cycles
        });
        let st: Vec<_> = prepared
            .apps
            .iter()
            .map(|a| st_profile(a, &tcfg).mean())
            .collect();
        let predicted: Vec<f64> = all
            .iter()
            .map(|pairs| {
                let cost = |&(a, b): &(usize, usize)| model.pair_cost(&st[a], &st[b]);
                pairs.iter().map(cost).sum()
            })
            .collect();

        // Measured order: `order[rank]` is the pairing at that rank.
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by_key(|&i| tt[i]);
        let rank_of = |i: usize| order.iter().position(|&j| j == i).expect("ranked");
        println!("workload {name}: apps {:?}", w.apps);
        for (rank, &i) in order.iter().enumerate() {
            if rank < 5 || rank >= order.len() - 3 {
                let pairs: Vec<String> = all[i]
                    .iter()
                    .map(|&(a, b)| format!("{}+{}", w.apps[a], w.apps[b]))
                    .collect();
                println!("  #{rank:>3} TT {}: {pairs:?}", tt[i]);
            }
        }
        let half = w.apps.len() / 2;
        let linux: Vec<(usize, usize)> = (0..half).map(|k| (k, k + half)).collect();
        let linux_at = all.iter().position(|p| {
            let mut p = p.clone();
            p.sort_unstable();
            p == linux
        });
        let argmin = (0..all.len())
            .min_by(|&i, &j| predicted[i].total_cmp(&predicted[j]))
            .expect("at least one pairing");
        let measured: Vec<f64> = tt.iter().map(|&t| t as f64).collect();
        println!(
            "  linux pairing rank {} of {}",
            rank_of(linux_at.expect("the Linux pairing is enumerated")),
            all.len()
        );
        println!(
            "  model: spearman {:.2}; argmin true rank {} of {}; best TT {} argmin TT {}",
            spearman(&predicted, &measured),
            rank_of(argmin),
            all.len(),
            tt[order[0]],
            tt[argmin]
        );
    }
}
