//! Simulator throughput: cycles simulated per second for a single thread,
//! an SMT pair, the full 4-core evaluation chip and the 28-core/56-thread
//! full machine — plus an engine comparison (reference vs. per-core
//! horizons) on the 8-app and 56-app chips so the horizon wins are tracked
//! in BASELINES.md. The `step_parts` rows split a stepped core-cycle into
//! its building blocks (one operation per iteration): cache lookups at
//! every level's geometry, the memory model, the dither and the address
//! stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use synpa::prelude::*;
use synpa::sim::{
    AddrStream, Cache, CacheConfig, Dither, EngineKind, Memory, PhaseParams, SplitMix64,
    UniformProgram,
};

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

/// Cache geometries of the step: the per-core L1D and L2, and the shared
/// LLC of the 4-core evaluation chip and of the 28-core full chip.
fn step_geometries() -> [(&'static str, CacheConfig); 4] {
    let (chip4, chip28) = (ChipConfig::thunderx2(4), ChipConfig::thunderx2_full());
    [
        ("l1d", chip4.l1d),
        ("l2", chip4.l2),
        ("llc_4core", chip4.llc),
        ("llc_28core", chip28.llc),
    ]
}

fn step_parts(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_parts");
    group.throughput(Throughput::Elements(1));
    for (label, cfg) in step_geometries() {
        let (line, size) = (cfg.line_bytes as u64, cfg.size_bytes);
        // Hits: a resident half-capacity working set, walked line by line,
        // so hits land at every way position of the set.
        group.bench_function(BenchmarkId::new("cache_hit", label), |b| {
            let mut cache = Cache::new(cfg);
            let lines = size / 2 / line;
            for l in 0..lines {
                cache.access(l * line);
            }
            let mut l = 0;
            b.iter(|| {
                l = if l + 1 == lines { 0 } else { l + 1 };
                cache.access(l * line)
            })
        });
        // Misses: a cyclic sweep over twice the capacity, which true LRU
        // misses on every access once warm.
        group.bench_function(BenchmarkId::new("cache_miss", label), |b| {
            let mut cache = Cache::new(cfg);
            let lines = 2 * size / line;
            let mut l = 0;
            b.iter(|| {
                l = if l + 1 == lines { 0 } else { l + 1 };
                cache.access(l * line)
            })
        });
    }
    // One memory cycle: the wheel tick plus an access every fourth cycle
    // (a loaded chip's DRAM rate).
    group.bench_function("memory_tick_access", |b| {
        let cfg = ChipConfig::thunderx2(4);
        let mut mem = Memory::new(cfg.mem_latency, cfg.mem_queue_penalty);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            mem.tick(now);
            if now % 4 == 0 {
                mem.access(now)
            } else {
                0
            }
        })
    });
    group.bench_function("dither_step", |b| {
        let mut d = Dither::default();
        let mut x = 0.0;
        b.iter(|| {
            // Rates in [0, 4): a dispatched group times a µop mix ratio.
            x = if x >= 3.7 { 0.0 } else { x + 0.3 };
            d.step(black_box(x))
        })
    });
    group.bench_function("addr_stream_next", |b| {
        let params = llc_params();
        let mut stream = AddrStream::new(1 << 44, params.data_footprint, params.data_seq, 64, 8);
        let mut rng = SplitMix64::new(7);
        b.iter(|| stream.next(&mut rng))
    });
    group.finish();
}

criterion_group!(benches, sim_throughput, engine_comparison, step_parts);
criterion_main!(benches);
