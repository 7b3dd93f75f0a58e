//! Exhaustive pairing ground truth: runs every one of the 105 possible
//! static pairings of an 8-application workload and ranks them by measured
//! turnaround time. Used to validate that the model's preferred pairing
//! lands near the true optimum (see "Reading the results" in
//! `docs/simulation.md`).
//!
//! ```text
//! cargo run --release -p synpa-sched --example exhaustive_pairing -- fb7
//! ```

use synpa_apps::workload;
use synpa_sched::*;

fn pairings(items: &[usize]) -> Vec<Vec<(usize, usize)>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let a = items[0];
    let mut out = Vec::new();
    for i in 1..items.len() {
        let b = items[i];
        let rest: Vec<usize> = items.iter().skip(1).filter(|&&x| x != b).cloned().collect();
        for mut sub in pairings(&rest) {
            sub.push((a, b));
            out.push(sub);
        }
    }
    out
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or("fb7".into());
    let w = workload::by_name(&name).unwrap();
    let cfg = ExperimentConfig {
        reps: 1,
        ..Default::default()
    };
    let prepared = prepare_workload(&w, &cfg);
    let all = pairings(&(0..8).collect::<Vec<_>>());
    let results = parallel_map(&all, 16, |pairs| {
        let mut mgr = cfg.manager.clone();
        mgr.chip = mgr.chip.clone().with_seed(cfg.base_seed);
        let mut p = StaticPairs::new(pairs.clone());
        let r = run_workload(&prepared.apps, &prepared.solo_ipc, &mut p, &mgr);
        (pairs.clone(), r.tt_cycles)
    });
    let mut sorted: Vec<_> = results.iter().collect();
    sorted.sort_by_key(|(_, tt)| *tt);
    println!("workload {name}: apps {:?}", w.apps);
    for (rank, (pairs, tt)) in sorted.iter().enumerate() {
        if rank < 5 || rank >= sorted.len() - 3 {
            let names: Vec<String> = pairs
                .iter()
                .map(|&(a, b)| format!("{}+{}", w.apps[a], w.apps[b]))
                .collect();
            println!("  #{rank:>3} TT {tt}: {names:?}");
        }
    }
    // where is linux's pairing (0,4),(1,5),(2,6),(3,7)?
    let linux: Vec<(usize, usize)> = (0..4).map(|k| (k, k + 4)).collect();
    let pos = sorted.iter().position(|(p, _)| {
        let mut a: Vec<_> = p.iter().map(|&(x, y)| (x.min(y), x.max(y))).collect();
        a.sort();
        a == linux
    });
    println!("  linux pairing rank: {:?} of {}", pos, sorted.len());
}
