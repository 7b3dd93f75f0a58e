//! §IV-B step 3: pair selection cost. The paper adopts Blossom because
//! enumerating combinations "quickly explodes with the number of cores" —
//! these benches reproduce that scaling argument (exhaustive is capped at
//! n = 16; Blossom keeps going to full-chip sizes). The `bound` rows time
//! the fractional-matching lower bound the SYNPA policy asks before it
//! solves (docs/matching.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use synpa::matching::{
    exhaustive_min_pairing, greedy_min_pairing, min_cost_lower_bound, min_cost_pairing,
};
use synpa_bench::synthetic_costs;

fn pairing_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairing");
    for n in [8usize, 12, 16] {
        let costs = synthetic_costs(n);
        group.bench_with_input(BenchmarkId::new("blossom", n), &costs, |b, costs| {
            b.iter(|| black_box(min_cost_pairing(black_box(costs))))
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &costs, |b, costs| {
            b.iter(|| black_box(exhaustive_min_pairing(black_box(costs))))
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &costs, |b, costs| {
            b.iter(|| black_box(greedy_min_pairing(black_box(costs))))
        });
    }
    // Blossom scales to the full 56-thread chip where exhaustive cannot go.
    for n in [32usize, 56] {
        let costs = synthetic_costs(n);
        group.bench_with_input(BenchmarkId::new("blossom", n), &costs, |b, costs| {
            b.iter(|| black_box(min_cost_pairing(black_box(costs))))
        });
    }
    for n in [8usize, 56] {
        let costs = synthetic_costs(n);
        group.bench_with_input(BenchmarkId::new("bound", n), &costs, |b, costs| {
            b.iter(|| black_box(min_cost_lower_bound(black_box(costs))))
        });
    }
    group.finish();
}

criterion_group!(benches, pairing_algorithms);
criterion_main!(benches);
