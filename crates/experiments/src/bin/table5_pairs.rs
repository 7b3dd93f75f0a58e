//! Table V: the percentage of quanta each application pair is selected by
//! SYNPA in fb2, split by the application's dominant behaviour (frontend on
//! top, backend at the bottom), plus the synergistic-pair share.

use synpa::prelude::*;
use synpa_experiments::{cached_cells, eval_config, trained_model, SuitePolicy};

fn main() {
    let (model, _) = trained_model();
    let cfg = eval_config();
    let w = workload::by_name("fb2").unwrap();
    let p = SuitePolicy::Synpa;
    let cells = cached_cells(vec![w.clone()], &[p], &cfg, model);
    let prepared = prepare_workload(&w, &cfg);
    let rows = exemplar_rows(&prepared, |s| p.build(model, s), &cfg, &cells[0]);

    // counts[x][y][b]: quanta app x spent paired with y while behaving as
    // frontend (b=0) or backend (b=1).
    let mut counts = [[[0u64; 2]; 8]; 8];
    let mut totals = [0u64; 8];
    for row in &rows {
        let b = if row.is_frontend_behaving() { 0 } else { 1 };
        counts[row.app][row.co_runner][b] += 1;
        totals[row.app] += 1;
    }

    println!("Table V — percentages of pairs in workload fb2 with SYNPA");
    println!("(per cell: top = % of quanta as frontend, bottom = % as backend)\n");
    print!("{:<14}", "");
    for name in &w.apps {
        print!("{:>11}", &name[..name.len().min(10)]);
    }
    println!("{:>11}", "diff.group");
    let group_of = |k: usize| spec::expected_group(&w.apps[k]).unwrap();
    for x in 0..8 {
        // frontend row
        print!("{:<14}", w.apps[x]);
        for cell in &counts[x] {
            print!(
                "{:>10.2}%",
                cell[0] as f64 / totals[x].max(1) as f64 * 100.0
            );
        }
        // synergistic share: frontend behaviour paired with backend-group
        // co-runner, or backend behaviour paired with frontend-group.
        let mut synergistic = 0u64;
        for (y, cell) in counts[x].iter().enumerate() {
            let co_backend = group_of(y) == Group::BackendBound;
            if co_backend {
                synergistic += cell[0];
            } else {
                synergistic += cell[1];
            }
        }
        println!(
            "{:>10.1}%",
            synergistic as f64 / totals[x].max(1) as f64 * 100.0
        );
        print!("{:<14}", "");
        for cell in &counts[x] {
            print!(
                "{:>10.2}%",
                cell[1] as f64 / totals[x].max(1) as f64 * 100.0
            );
        }
        println!();
    }
    println!("\n(diff.group = share of quanta paired complementarily, the paper's green cells)");
}
