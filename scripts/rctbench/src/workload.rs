//! The three workloads: arms, sizes, and set-up.
//!
//! Every workload runs in one process with `ExperimentConfig::threads =
//! nproc`; nightly retraining uses `TrainConfig::threads = 0` (all cores).
//! Sizes are fixed here, so a workload's input depends only on the seed.

use crate::traced::mix_seed;
use fugu::{TrainConfig, Ttp, TtpVariant};
use puffer_platform::experiment::{collect_training_data, run_rct, train_ttp_on};
use puffer_platform::{ExperimentConfig, SchemeSpec, UserModel};
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Decision layers: TTP forward, the DP planner, cross-arm waves and the
    /// MPC-HM planners.  Retrain and archive off.
    Serve,
    /// Nightly retrain plus validation gate over a growing 14-day window,
    /// with the archive sink on.
    Insitu,
    /// Buffer-based arms only: simulator, archive write and read-back, and
    /// the streaming statistics.
    Classic,
}

/// Bootstrap telemetry collected under BBA before Fugu can serve.
const BOOTSTRAP_SESSIONS: usize = 40;
/// Set-up draws from fixed seeds, not from the workload seed: the model and
/// the warm-up are the same for every seed, so set-up time measures the
/// program, not the seed's luck with heavy-tailed session lengths.
const SETUP_SEED: u64 = 0x5e7_0b00;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Insitu, Workload::Classic];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Insitu => "insitu",
            Workload::Classic => "classic",
        }
    }

    fn needs_ttp(self) -> bool {
        self != Workload::Classic
    }

    /// Whether the timed work includes reading the archives back into
    /// statistics.
    pub fn analyzes_archive(self) -> bool {
        self == Workload::Classic
    }

    /// `(intended watch hours of the distinct sessions, days, paired)`.
    /// Paired (within-subjects) mode runs every session under every arm, so
    /// the arm mix — whose per-hour costs differ by two orders of magnitude
    /// — does not vary with the seed.
    fn shape(self) -> (f64, u32, bool) {
        match self {
            Workload::Serve => (30.0, 1, true),
            Workload::Insitu => (40.0, 3, true),
            Workload::Classic => (300.0, 2, false),
        }
    }

    /// Intended watch hours of the warm-up day that ends set-up.
    fn warmup_hours(self) -> f64 {
        self.shape().0 / 8.0
    }

    /// The measured RCT's configuration.
    pub fn config(self, seed: u64, threads: usize, archive: &Path) -> ExperimentConfig {
        let (hours, days, paired) = self.shape();
        self.config_of_size(seed, hours, days, paired, threads, archive)
    }

    fn config_of_size(
        self,
        seed: u64,
        hours: f64,
        days: u32,
        paired: bool,
        threads: usize,
        archive: &Path,
    ) -> ExperimentConfig {
        let user = user_model();
        ExperimentConfig {
            seed,
            sessions_per_day: sessions_for(seed, days, hours, &user),
            days,
            threads,
            paired,
            user,
            retrain: (self == Workload::Insitu).then(retrain_config),
            archive_sink: (self != Workload::Serve).then(|| archive.to_path_buf()),
            ..ExperimentConfig::default()
        }
    }

    /// The arms, around the set-up's model.
    pub fn schemes(self, inputs: &Inputs) -> Vec<SchemeSpec> {
        let ttp = || inputs.ttp.as_ref().expect("Fugu workloads bootstrap a model");
        match self {
            Workload::Serve => vec![
                SchemeSpec::fugu_frozen_shared(ttp(), TtpVariant::Full, "Fugu"),
                SchemeSpec::fugu_frozen_shared(ttp(), TtpVariant::PointEstimate, "Point Estimate"),
                SchemeSpec::MpcHm,
                SchemeSpec::RobustMpcHm,
                SchemeSpec::Bba,
            ],
            Workload::Insitu => vec![SchemeSpec::fugu((**ttp()).clone()), SchemeSpec::Bba],
            Workload::Classic => vec![SchemeSpec::Bba, SchemeSpec::Bola],
        }
    }

    /// Cold start until the inputs are ready: for Fugu workloads a BBA
    /// bootstrap collection plus TTP training, then, for every workload, a
    /// one-day warm-up RCT of the workload's arms at an eighth of its size
    /// (retrain off), so caches, allocator pools and lazy initialisation are
    /// warm before timing.
    pub fn setup(self, threads: usize, warmup_dir: &Path) -> Inputs {
        let ttp = self.needs_ttp().then(|| {
            let cfg = ExperimentConfig {
                seed: SETUP_SEED,
                sessions_per_day: BOOTSTRAP_SESSIONS,
                days: 1,
                threads,
                retrain: None,
                ..ExperimentConfig::default()
            };
            let data = collect_training_data(&SchemeSpec::Bba, &cfg);
            Arc::new(train_ttp_on(TtpVariant::Full, &data, &bootstrap_config(), SETUP_SEED))
        });
        let inputs = Inputs { ttp };
        let paired = self.shape().2;
        let warmup = ExperimentConfig {
            retrain: None,
            ..self.config_of_size(SETUP_SEED, self.warmup_hours(), 1, paired, threads, warmup_dir)
        };
        run_rct(self.schemes(&inputs), &warmup);
        inputs
    }
}

/// Participants: the default model with session intents capped at two hours
/// instead of twelve.  Sessions stay heavy-tailed (a 5-minute median), but no
/// single session can make up most of a run-sized input.
fn user_model() -> UserModel {
    UserModel { intent_cap: 2.0 * 3600.0, ..UserModel::default() }
}

/// The input size is stated in intended watch hours, not sessions: the
/// fewest sessions per day whose intents, drawn exactly as `run_rct`'s
/// sessions draw them (first draw of each session's seed stream), sum to
/// `hours` over all days.  Session lengths are heavy-tailed, so a fixed
/// session count would make the input size — and memory with it — swing
/// with the seed.
fn sessions_for(seed: u64, days: u32, hours: f64, user: &UserModel) -> usize {
    let mut total = 0.0;
    let mut n = 0;
    while total < hours * 3600.0 {
        for day in 0..days {
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix_seed(seed, day, n, 0));
            total += user.session_intent(&mut rng);
        }
        n += 1;
    }
    n
}

/// What set-up hands the measured runs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub ttp: Option<Arc<Ttp>>,
}

/// Bootstrap training: enough for a usable TTP, small enough that set-up
/// stays a minor share of a run.
fn bootstrap_config() -> TrainConfig {
    TrainConfig { epochs: 1, max_samples_per_step: 20_000, ..TrainConfig::default() }
}

/// Nightly retraining of the `insitu` Fugu arm.
fn retrain_config() -> TrainConfig {
    TrainConfig { epochs: 1, max_samples_per_step: 60_000, ..TrainConfig::default() }
}
