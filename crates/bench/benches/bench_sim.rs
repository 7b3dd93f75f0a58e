//! Simulator throughput: cycles simulated per second for a single thread,
//! an SMT pair, the full 4-core evaluation chip and the 28-core/56-thread
//! full machine — plus an engine comparison (reference vs. per-core
//! horizons) on the 8-app and 56-app chips so the horizon wins are tracked
//! in BASELINES.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use synpa::prelude::*;
use synpa::sim::{EngineKind, PhaseParams, UniformProgram};

/// The LLC-thrashing mix of the classic `simulator/*` rows: every L1D
/// miss escalates past the (bypassed) L2 into the shared LLC, so shared
/// touches are frequent and every core rendezvouses often.
fn llc_params() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.3,
        data_footprint: 256 << 10,
        data_seq: 0.4,
        ..PhaseParams::compute()
    }
}

/// Compute-bound, private-cache-resident mix: long private phases with
/// rare LLC touches.
fn private_params() -> PhaseParams {
    PhaseParams {
        mem_ratio: 0.25,
        data_footprint: 16 << 10,
        data_seq: 0.7,
        ..PhaseParams::compute()
    }
}

fn chip_with(n_apps: usize, cores: u32, engine: EngineKind, params: PhaseParams) -> Chip {
    let mut chip = Chip::new(ChipConfig::thunderx2(cores).with_engine(engine));
    for i in 0..n_apps {
        chip.attach(
            Slot(i),
            i,
            Box::new(UniformProgram::new(format!("p{i}"), params, u64::MAX)),
        );
    }
    chip.run_cycles(20_000); // warm
    chip
}

const CYCLES: u64 = 10_000;

fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(CYCLES));
    for (label, apps, cores) in [
        ("1thread", 1usize, 1u32),
        ("smt_pair", 2, 1),
        ("chip_8apps", 8, 4),
        ("chip_56apps", 56, 28),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            // The `simulator/*` rows always run the workspace default
            // engine, so BASELINES.md tracks what users actually get.
            let mut chip = chip_with(
                apps,
                cores,
                ChipConfig::thunderx2(cores).engine,
                llc_params(),
            );
            b.iter(|| black_box(chip.run_cycles(CYCLES).len()))
        });
    }
    group.finish();
}

fn engine_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(CYCLES));
    // `percore` is the per-core horizon engine on the same 8-app scenario
    // as `reference`; the `_56` row isolates the full-chip regime the
    // per-core rendezvous was built for (most cores busy, stalls
    // uncorrelated). `sparse_percore_56` runs a private-cache-resident
    // 8-app mix on the otherwise idle 28-core machine, where empty cores
    // are skipped wholesale.
    for (label, engine, apps, cores, params) in [
        (
            "reference",
            EngineKind::Reference,
            8usize,
            4u32,
            llc_params(),
        ),
        ("percore", EngineKind::PerCore, 8, 4, llc_params()),
        ("percore_56", EngineKind::PerCore, 56, 28, llc_params()),
        (
            "sparse_percore_56",
            EngineKind::PerCore,
            8,
            28,
            private_params(),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let mut chip = chip_with(apps, cores, engine, params);
            b.iter(|| black_box(chip.run_cycles(CYCLES).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, sim_throughput, engine_comparison);
criterion_main!(benches);
