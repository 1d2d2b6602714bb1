//! Cross-tier × cross-arm-batching bit-identity at the experiment level.
//!
//! The kernel family in `puffer-nn` dispatches AVX2+FMA → AVX+FMA → scalar
//! at runtime; `docs/BATCHING.md` argues all tiers are bit-identical, and the
//! unit/property tests pin that per kernel.  This test pins it end-to-end:
//! a whole RCT — including two ablation arms sharing one TTP snapshot, the
//! cross-arm batching case — must produce identical arm summaries on every
//! supported tier, at threads 1/2/8, with cross-arm batching on and off, and
//! with the batched scheduler disabled entirely.  A second case runs the
//! nightly retrain, so the training kernels (forward, `xᵀ·dy`, `dy·Wᵀ`) are
//! pinned across tiers through a whole RCT too, down to the retrained
//! model's checkpoint text.
//!
//! This lives in its own integration-test binary on purpose: `force_tier` is
//! a process-global override, and a separate binary means no other test can
//! observe it (forcing a supported tier is bitwise unobservable anyway, but
//! the isolation keeps the reasoning trivial).  The tests in this binary
//! take [`TIER_LOCK`] so that neither observes the other's override.

use puffer_repro::fugu::{checkpoint, TrainConfig, TtpVariant};
use puffer_repro::nn::matrix::{force_tier, Tier};
use puffer_repro::platform::experiment::run_rct;
use puffer_repro::platform::{ExperimentConfig, RctResult, SchemeSpec};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serializes the tests that force a kernel tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

fn lock_tier() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a test that panicked while holding the
    // lock left nothing inconsistent behind.
    TIER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn schemes() -> Vec<SchemeSpec> {
    // Full and PointEstimate around ONE trained network (`Arc` shared — the
    // cross-arm batching case), an independently seeded Fugu that must stay
    // in its own TTP group, and a non-batchable control arm.
    let shared = Arc::new(TtpVariant::Full.build_ttp(21));
    vec![
        SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
        SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
        SchemeSpec::fugu_frozen(TtpVariant::Full.build_ttp(22), TtpVariant::Full, "Fugu B"),
        SchemeSpec::Bba,
    ]
}

fn assert_same(baseline: &RctResult, other: &RctResult, what: &str) {
    assert_eq!(baseline.total_sessions, other.total_sessions, "sessions, {what}");
    assert_eq!(
        baseline.dataset.n_observations(),
        other.dataset.n_observations(),
        "dataset, {what}"
    );
    for (a, b) in baseline.arms.iter().zip(&other.arms) {
        assert_eq!(a.consort, b.consort, "consort, arm {}, {what}", a.name);
        assert_eq!(a.streams, b.streams, "stream summaries, arm {}, {what}", a.name);
        assert_eq!(a.session_durations, b.session_durations, "durations, arm {}, {what}", a.name);
    }
}

#[test]
fn tiers_and_cross_arm_batching_are_bit_identical() {
    let mk = |threads, batch_streams, batch_across_arms| ExperimentConfig {
        seed: 23,
        sessions_per_day: 10,
        days: 1,
        threads,
        retrain: None,
        batch_streams,
        batch_across_arms,
        ..ExperimentConfig::default()
    };

    let _lock = lock_tier();
    // Ground truth: scalar kernels, sequential, per-stream (no batching).
    force_tier(Some(Tier::Scalar));
    let baseline = run_rct(schemes(), &mk(1, false, false));

    for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
        force_tier(Some(tier));
        for (threads, batch_streams, across) in
            [(1, true, true), (2, true, false), (8, true, true), (8, false, false)]
        {
            let r = run_rct(schemes(), &mk(threads, batch_streams, across));
            assert_same(
                &baseline,
                &r,
                &format!(
                    "tier {tier:?}, threads {threads}, batch_streams {batch_streams}, \
                     across-arms {across}"
                ),
            );
        }
    }
    force_tier(None);
}

#[test]
fn nightly_retraining_is_bit_identical_across_tiers() {
    let schemes = || vec![SchemeSpec::fugu(TtpVariant::Full.build_ttp(31)), SchemeSpec::Bba];
    // Session threads and training threads move together.
    let mk = |threads| ExperimentConfig {
        seed: 29,
        sessions_per_day: 4,
        days: 2,
        threads,
        retrain: Some(TrainConfig {
            epochs: 1,
            max_samples_per_step: 200,
            threads,
            ..TrainConfig::default()
        }),
        ..ExperimentConfig::default()
    };
    let checkpoint_of = |spec: &SchemeSpec| match spec {
        SchemeSpec::Fugu { ttp, .. } => checkpoint::save_to_string(ttp),
        other => panic!("arm 0 is not Fugu: {other:?}"),
    };

    let _lock = lock_tier();
    force_tier(Some(Tier::Scalar));
    let baseline = run_rct(schemes(), &mk(1));
    let baseline_model = checkpoint_of(&baseline.schemes[0]);
    assert!(
        baseline_model != checkpoint_of(&schemes()[0]),
        "the nightly retrain must have changed the model"
    );

    for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
        force_tier(Some(tier));
        for threads in [1, 2] {
            let r = run_rct(schemes(), &mk(threads));
            let what = format!("tier {tier:?}, threads {threads}");
            assert_same(&baseline, &r, &what);
            assert!(
                checkpoint_of(&r.schemes[0]) == baseline_model,
                "retrained model differs, {what}"
            );
        }
    }
    force_tier(None);
}
