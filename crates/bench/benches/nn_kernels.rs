//! The matmul kernel tiers head-to-head at the shapes the RCT produces.
//!
//! The batched scheduler turns a wave of 16 streams × 10 rungs into a
//! 160-row staged batch per step-net, so the hidden-layer matmul is
//! `160×64 · 64×64` and the output layer `160×64 · 64×21`.  Benching every
//! tier the CPU supports on those exact shapes shows what the 4×16
//! register-blocked AVX2+FMA microkernel buys over the row-at-a-time AVX+FMA
//! kernel and the portable `mul_add` loop — all three produce bit-identical
//! results (pinned by `crates/nn/tests/properties.rs`), so this file is the
//! only place they're *supposed* to differ.
//!
//! Each shape runs twice: with a dense `A` (the first layer's raw-feature
//! input) and with a ReLU-masked `A` (~half the activations of a trained
//! TTP's hidden layers are zero), because the per-`(row, k)` sparsity skip
//! and the register blocking trade off differently — the skip halves the
//! FMA work on sparse rows, while blocking amortizes `B` loads that are L1
//! hits anyway at these sizes, so sparse inputs favor the row kernel's
//! single data-dependent branch per `(row, k)` over the blocked kernel's
//! four per `(tile, k)`.
//!
//! The `nn_matmul_t` group benches the backprop product `dx = dy·Wᵀ` at the
//! nightly retrain's shapes: a 64-row minibatch through the TTP's output
//! layer (`dy` 64×21, `W` 64×21) and second hidden layer (`dy` 64×64, `W`
//! 64×64).  The vector tiers' time includes transposing `W`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use puffer_nn::{Matrix, Tier};
use std::hint::black_box;

/// `(streams · rungs)`-row staged batches: hidden layer and output layer.
const SHAPES: [(usize, usize, usize); 2] = [(160, 64, 64), (160, 64, 21)];

/// `(minibatch rows, layer outputs, layer inputs)` of the retrain's two
/// `dy·Wᵀ` products.
const BACKPROP_SHAPES: [(usize, usize, usize); 2] = [(64, 21, 64), (64, 64, 64)];

fn input_matrix(rows: usize, cols: usize, relu_masked: bool) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = ((i as f32) * 0.37).sin();
                if relu_masked && v < 0.0 {
                    0.0 // ReLU-style sparsity
                } else {
                    v * 3.0
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
