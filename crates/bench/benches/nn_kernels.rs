//! The matmul kernel tiers head-to-head at the shapes the RCT produces.
//!
//! The batched scheduler turns a wave of 16 streams × 10 rungs into a
//! 160-row staged batch per step-net, so the hidden-layer matmul is
//! `160×64 · 64×64` and the output layer `160×64 · 64×21`.  Benching every
//! tier the CPU supports on those exact shapes shows what the 8-lane AVX+FMA
//! row kernel buys over the portable `mul_add` loop — all tiers produce
//! bit-identical results (pinned by `crates/nn/tests/properties.rs`), so
//! this file is the only place they're *supposed* to differ.
//!
//! Each shape runs twice: with a dense `A` (the first layer's raw-feature
//! input) and with a ReLU-masked `A`.  A trained TTP zeroes about half its
//! hidden activations in a data-dependent pattern, so the mask is seeded
//! pseudo-random at 50%: a periodic mask would be learned by the branch
//! predictor, and the scalar tier's per-`(row, k)` `a == 0.0` branch would
//! look far cheaper than it is inside the RCT.  The vector tiers walk a
//! nonzero bitmask instead of branching, and fall back to a plain `k` loop
//! on all-nonzero chunks, so the dense rows measure that path.
//!
//! The `nn_matmul_t` group benches the backprop product `dx = dy·Wᵀ` at the
//! nightly retrain's shapes: a 64-row minibatch through the TTP's output
//! layer (`dy` 64×21, `W` 64×21) and second hidden layer (`dy` 64×64, `W`
//! 64×64).  The vector tiers' time includes transposing `W`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use puffer_nn::{Matrix, Tier};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

/// `(streams · rungs)`-row staged batches: hidden layer and output layer.
const SHAPES: [(usize, usize, usize); 2] = [(160, 64, 64), (160, 64, 21)];

/// `(minibatch rows, layer outputs, layer inputs)` of the retrain's two
/// `dy·Wᵀ` products.
const BACKPROP_SHAPES: [(usize, usize, usize); 2] = [(64, 21, 64), (64, 64, 64)];

fn input_matrix(rows: usize, cols: usize, relu_masked: bool) -> Matrix {
    let mut rng = StdRng::seed_from_u64(37);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = ((i as f32) * 0.37).sin() * 3.0;
                if relu_masked && rng.random_bool(0.5) {
                    0.0 // ReLU-style sparsity, in no pattern a predictor learns
                } else {
                    v
                }
            })
            .collect(),
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_matmul");
    for (m, k, n) in SHAPES {
        for (suffix, relu_masked) in [("dense", false), ("relu", true)] {
            let a = input_matrix(m, k, relu_masked);
            let b_m =
                Matrix::from_vec(k, n, (0..k * n).map(|i| ((i as f32) * 0.11).cos()).collect());
            for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
                let mut out = Matrix::zeros(0, 0);
                a.matmul_into_with(tier, &b_m, &mut out); // warm the output shape
                group.bench_function(
                    BenchmarkId::from_parameter(format!("{m}x{k}x{n}_{suffix}_{}", tier.name())),
                    |b| {
                        b.iter(|| {
                            a.matmul_into_with(tier, black_box(&b_m), &mut out);
                            black_box(&mut out);
                        })
                    },
                );
            }
        }
    }
    group.finish();

    let mut group = c.benchmark_group("nn_matmul_t");
    for (m, k, n) in BACKPROP_SHAPES {
        let dy = input_matrix(m, k, false);
        let w = Matrix::from_vec(n, k, (0..n * k).map(|i| ((i as f32) * 0.11).cos()).collect());
        for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
            let (mut wt, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
            dy.matmul_t_into_with(tier, &w, &mut wt, &mut out); // warm the buffers
            group.bench_function(
                BenchmarkId::from_parameter(format!("{m}x{k}x{n}_{}", tier.name())),
                |b| {
                    b.iter(|| {
                        dy.matmul_t_into_with(tier, black_box(&w), &mut wt, &mut out);
                        black_box(&mut out);
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
