//! Table II: the experimental processor configuration. Prints the simulated
//! chip's parameters next to the paper's ThunderX2 CN9975 values, flagging
//! the deliberate 1/8 capacity scaling (`docs/simulation.md`).

use synpa::prelude::*;

fn main() {
    let cfg = ChipConfig::thunderx2(4);
    println!("Table II — processor configuration (paper value -> simulated value)");
    println!(
        "{:<28} {:>14} {:>14}",
        "parameter", "ThunderX2", "simulated"
    );
    let rows: Vec<(&str, String, String)> = vec![
        (
            "# cores (evaluation)",
            "28 (4 used)".into(),
            format!("{}", cfg.cores),
        ),
        (
            "SMT ways",
            "4 (BIOS: 2)".into(),
            format!("{}", cfg.core.smt_ways),
        ),
        (
            "dispatch width",
            "4".into(),
            format!("{}", cfg.core.dispatch_width),
        ),
        ("ROB size", "128".into(), format!("{}", cfg.core.rob_size)),
        ("IQ size", "60".into(), format!("{}", cfg.core.iq_size)),
        (
            "load queue",
            "64".into(),
            format!("{}", cfg.core.load_queue),
        ),
        (
            "store queue",
            "36".into(),
            format!("{}", cfg.core.store_queue),
        ),
        ("issue ports", "6".into(), "n/a (latency model)".into()),
        (
            "L1I",
            "32 KB".into(),
            format!("{} KB (1/8 scale)", cfg.l1i.size_bytes / 1024),
        ),
        (
            "L1D",
            "32 KB".into(),
            format!("{} KB (1/8 scale)", cfg.l1d.size_bytes / 1024),
        ),
        (
            "L2",
            "256 KB".into(),
            format!("{} KB (1/8 scale)", cfg.l2.size_bytes / 1024),
        ),
        (
            "shared LLC",
            "28 MB".into(),
            format!("{} KB (scaled)", cfg.llc.size_bytes / 1024),
        ),
        (
            "main memory",
            "64 GB".into(),
            format!("{} cycles base latency", cfg.mem_latency),
        ),
    ];
    for (name, paper, sim) in rows {
        println!("{name:<28} {paper:>14} {sim:>22}");
    }
}
