//! Property-based tests for the NN substrate: algebraic identities of the
//! matrix kernels, softmax/CE math, scaler round trips, and checkpoint
//! serialization over arbitrary architectures.
//!
//! Skipped under Miri: hundreds of proptest cases through the full
//! simulation are minutes-long in an interpreter, and the unsafe code
//! Miri exists to check is exercised by the faster unit tests.
#![cfg(not(miri))]

use proptest::prelude::*;
use puffer_nn::serialize::{load_from_str, save_to_string, Checkpoint};
use puffer_nn::{loss, Activation, Matrix, Mlp, Scaler, Tier};
use rand::SeedableRng;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// The kernel tiers this CPU can run (always at least `Scalar`).
fn supported_tiers() -> Vec<Tier> {
    Tier::ALL.into_iter().filter(|t| t.supported()).collect()
}

/// Arbitrary `(A: m×k, B: k×n)` pair over shapes that sweep every kernel
/// path: any row count (including 0 and 1), `k` past the 64-bit chunk of the
/// zero-skip bitmask, and columns across the 64-wide tile and remainder tiles
/// of 1–8 vectors with a masked last vector (including tail-only and empty
/// widths).  A per-case density of ±0 (from none, so whole chunks take the
/// full-mask path, to all) and of NaN/±inf among finite values in `A` pins
/// the skip semantics: ±0 is skipped, NaN and ±inf are kept.  `B` carries
/// the same NaN/±inf, so a skipped `-0 · inf` would show.
fn arb_matmul_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    // Element vectors are drawn at the maximum size and truncated to the
    // sampled shape (the vendored proptest shim has no `prop_flat_map`).
    const MAX_M: usize = 9;
    const MAX_K: usize = 72;
    const MAX_N: usize = 72;
    let elems = |len| prop::collection::vec((0usize..64, 0usize..5, -10.0f32..10.0), len);
    (
        (0usize..MAX_M, 0usize..MAX_K, 0usize..MAX_N),
        0usize..65,
        0usize..4,
        elems(MAX_M * MAX_K),
        elems(MAX_K * MAX_N),
    )
        .prop_map(|((m, k, n), zeros, specials, a, b)| {
            let a_pick = |&(u, e, v): &(usize, usize, f32)| {
                if u < zeros {
                    EDGE_VALUES[e % 2]
                } else if u < zeros + specials {
                    EDGE_VALUES[2 + e % 3]
                } else {
                    v
                }
            };
            let b_pick = |&(u, e, v): &(usize, usize, f32)| {
                if u < specials {
                    EDGE_VALUES[2 + e % 3]
                } else {
                    v
                }
            };
            (
                Matrix::from_vec(m, k, a.iter().take(m * k).map(a_pick).collect()),
                Matrix::from_vec(k, n, b.iter().take(k * n).map(b_pick).collect()),
            )
        })
}

/// Values that pin the kernels' zero-skip semantics: signed zeros,
/// infinities and NaN (where `fma(0, b, acc)` and skipping it differ),
/// products that underflow to `-0` against a `+0` accumulator, subnormals,
/// and products that overflow.
const EDGE_VALUES: [f32; 12] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1e-30,
    -1e-30,
    1e-25,
    1e-40,
    -f32::MIN_POSITIVE,
    3e38,
    -3e38,
];

/// Arbitrary `(A: m×k, W: n×k)` pair for `A·Wᵀ`, over shapes that sweep every
/// kernel path — zero rows, rows off the 4-row block, `k` of 0 and 1, `n`
/// below 8, off the 8-lane tiles, and across the 64/16/8-wide tiles — with a
/// per-case density (0 to about 23%) of [`EDGE_VALUES`] among finite values.
fn arb_matmul_t_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    const MAX_M: usize = 13;
    const MAX_K: usize = 18;
    const MAX_N: usize = 72;
    let elems =
        |len| prop::collection::vec((0usize..64, 0usize..EDGE_VALUES.len(), -10.0f32..10.0), len);
    (
        0usize..MAX_M,
        0usize..MAX_K,
        0usize..MAX_N,
        0usize..16,
        elems(MAX_M * MAX_K),
        elems(MAX_N * MAX_K),
    )
        .prop_map(|(m, k, n, density, a, w)| {
            let pick =
                |&(u, e, v): &(usize, usize, f32)| if u < density { EDGE_VALUES[e] } else { v };
            (
                Matrix::from_vec(m, k, a.iter().take(m * k).map(pick).collect()),
                Matrix::from_vec(n, k, w.iter().take(n * k).map(pick).collect()),
            )
        })
}

/// Bitwise equality, except that any NaN equals any NaN: IEEE 754 leaves the
/// payload of a NaN result open, and the payload is not part of the
/// cross-tier contract.
fn same_bits(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len()
        && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    #[test]
    fn transpose_is_involution(m in arb_matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn fused_matmuls_match_explicit(
        a in arb_matrix(3, 5),
        b in arb_matrix(3, 4),
        c in arb_matrix(6, 5),
    ) {
        // t_matmul: aᵀ·b == transpose(a)·b
        let fused = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
        // matmul_t: a·cᵀ == a·transpose(c)
        let fused2 = a.matmul_t(&c);
        let explicit2 = a.matmul(&c.transpose());
        for (x, y) in fused2.data().iter().zip(explicit2.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_distributes_over_identity(m in arb_matrix(5, 5)) {
        let mut eye = Matrix::zeros(5, 5);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        let out = m.matmul(&eye);
        for (x, y) in out.data().iter().zip(m.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(logits in arb_matrix(6, 21)) {
        let p = loss::softmax_rows(&logits);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_rows_sum_zero(
        logits in arb_matrix(4, 10),
        targets in prop::collection::vec(0usize..10, 4),
    ) {
        let (ce, grad) = loss::softmax_cross_entropy(&logits, &targets, None);
        prop_assert!(ce >= 0.0);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn scaler_roundtrip(rows in prop::collection::vec(
        prop::collection::vec(-1e4f32..1e4, 6), 2..40)
    ) {
        let scaler = Scaler::fit(&rows);
        for row in &rows {
            let back = scaler.inverse_transform(&scaler.transform(row));
            for (a, b) in row.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-2 * (1.0 + a.abs()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_arbitrary_architecture(
        seed in 0u64..10_000,
        hidden in prop::collection::vec(1usize..20, 0..3),
        input in 1usize..12,
        output in 1usize..12,
    ) {
        let mut dims = vec![input];
        dims.extend(&hidden);
        dims.push(output);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&dims, Activation::Relu, &mut rng);
        let ckpt = Checkpoint { net, scaler: Scaler::identity(input) };
        let loaded = load_from_str(&save_to_string(&ckpt)).unwrap();
        let x = Matrix::row_vector(&vec![0.5; input]);
        let a = ckpt.net.forward(&x);
        let b = loaded.net.forward(&x);
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn matmul_tiers_bit_identical_over_odd_shapes(ab in arb_matmul_operands()) {
        let (a, b) = ab;
        // The cross-tier contract of the kernel family: the scalar
        // `mul_add` loop with its `a == 0.0` branch and the vector tiers'
        // bitmask walk must agree to the last bit (NaN payloads aside) on
        // every shape — ragged, single-row, empty and tail-only included.
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_into_with(Tier::Scalar, &b, &mut reference);
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into_with(tier, &b, &mut out);
            prop_assert!(same_bits(out.data(), reference.data()), "tier {:?}", tier);
        }
    }

    #[test]
    fn matmul_t_tiers_match_scalar_on_edge_values(aw in arb_matmul_t_operands()) {
        let (a, w) = aw;
        // dy·Wᵀ (the backprop kernel).  The scalar tier is one sequential
        // fused dot product per element — start at +0, one `mul_add` per
        // `k`, `k` ascending, zeros included — and every vector tier must
        // reproduce it bit for bit.
        let naive: Vec<f32> = (0..a.rows())
            .flat_map(|i| {
                (0..w.rows()).map({
                    let (a, w) = (&a, &w);
                    move |j| {
                        a.row(i).iter().zip(w.row(j)).fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc))
                    }
                })
            })
            .collect();
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_t_into_with(Tier::Scalar, &w, &mut Matrix::zeros(0, 0), &mut reference);
        prop_assert!(same_bits(reference.data(), &naive), "scalar tier vs dot products");
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_t_into_with(tier, &w, &mut Matrix::zeros(0, 0), &mut out);
            prop_assert_eq!((out.rows(), out.cols()), (a.rows(), w.rows()));
            prop_assert!(same_bits(out.data(), reference.data()), "tier {:?}", tier);
        }
    }

    #[test]
    fn t_matmul_acc_tiers_bit_identical_over_odd_shapes(ab in arb_matmul_operands()) {
        let (a, b) = ab;
        // xᵀ·dy (the weight-gradient kernel): `a` is m×k, so pair it with an
        // m-row right-hand side cycled from `b`'s values (NaN/±inf included)
        // and accumulate into a nonzero `gw`.
        let (m, n) = (a.rows(), b.cols());
        let vals = if b.data().is_empty() { vec![1.0] } else { b.data().to_vec() };
        let rhs = Matrix::from_vec(m, n, vals.iter().copied().cycle().take(m * n).collect());
        let init: Vec<f32> = (0..a.cols() * n).map(|i| ((i as f32) * 0.29).sin()).collect();
        let mut reference = Matrix::from_vec(a.cols(), n, init.clone());
        a.t_matmul_acc_with(Tier::Scalar, &rhs, &mut reference);
        for tier in supported_tiers() {
            let mut out = Matrix::from_vec(a.cols(), n, init.clone());
            a.t_matmul_acc_with(tier, &rhs, &mut out);
            prop_assert!(same_bits(out.data(), reference.data()), "tier {:?}", tier);
        }
    }

    #[test]
    fn forward_is_deterministic_and_finite(
        seed in 0u64..10_000,
        features in prop::collection::vec(-100.0f32..100.0, 8),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[8, 16, 5], Activation::Tanh, &mut rng);
        let x = Matrix::row_vector(&features);
        let a = net.forward(&x);
        let b = net.forward(&x);
        prop_assert_eq!(a.data(), b.data());
        prop_assert!(a.data().iter().all(|v| v.is_finite()));
    }
}
