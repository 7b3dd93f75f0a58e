//! §II overhead claim: estimating all pairs with the 3-equation SYNPA model
//! vs the 5-equation IBM-style model. The paper credits the smaller model
//! with ~40 % lower estimation overhead; the ratio of these two benches is
//! the reproduced number (`overhead_comparison` prints it; see
//! `docs/simulation.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use synpa::model::ablation::{expand_to_five, IbmStyleModel};
use synpa_bench::{bench_model, synthetic_categories};

fn all_pairs_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_estimation");
    for n in [8usize, 16, 56] {
        let model = bench_model();
        let st = synthetic_categories(n);
        group.bench_with_input(BenchmarkId::new("synpa_3eq", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            acc += model.predict_slowdown(black_box(&st[i]), black_box(&st[j]));
                        }
                    }
                }
                black_box(acc)
            })
        });
        let ibm = IbmStyleModel::default();
        let st5: Vec<[f64; 5]> = st.iter().map(expand_to_five).collect();
        group.bench_with_input(BenchmarkId::new("ibm_5eq", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            acc += ibm.predict_cpi(black_box(&st5[i]), black_box(&st5[j]));
                        }
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, all_pairs_estimation);
criterion_main!(benches);
