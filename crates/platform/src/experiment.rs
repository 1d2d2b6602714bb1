//! The randomized controlled trial (§3.4, §5, Fig. A1).
//!
//! Sessions are randomized among arms with users blinded to the assignment;
//! each simulated day's sessions run in parallel (one deterministic seed per
//! session, so thread scheduling cannot change results), telemetry is
//! aggregated into the in-situ training dataset, and at the end of each day
//! any Fugu arm marked for daily retraining gets a freshly trained TTP warm-
//! started from yesterday's weights (§4.3).  Exclusions are accounted in the
//! CONSORT style of Fig. A1.

use crate::archive::TelemetrySpool;
use crate::batch::BatchRunner;
use crate::faults::DegradeAction::{
    CsvOnly, KeptIncumbent, ObservationsDropped, Quarantined, RetriedTraining, RetrySucceeded,
    RolledBack, ServedBba, ServedFrozen,
};
use crate::faults::IncidentKind::{
    ArchiveIo, BadTelemetry, CheckpointTruncated, ModelUnavailable, RetrainRecovered,
    RetrainRejected, SessionPanic,
};
use crate::faults::{observation_is_finite, poison_observations, FaultPlan, Incident, ModelOutage};
use crate::scheme::SchemeSpec;
use crate::session::{SessionOutcome, SessionRun};
use crate::stream::{QuitReason, StreamConfig};
use crate::user::UserModel;
use crate::MIN_CONSIDERED_WATCH;
use fugu::{
    train, validate_retrained, Dataset, GateVerdict, RetrainGate, TrainConfig, Ttp, TtpVariant,
};
use puffer_abr::Abr;
use puffer_net::CongestionControl;
use puffer_stats::StreamSummary;
use puffer_trace::TraceBank;
use rand::Rng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// CONSORT-style stream accounting for one arm (Fig. A1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsortCounts {
    /// Sessions randomized to this arm that completed the protocol.
    pub sessions: usize,
    /// Streams started.
    pub streams: usize,
    /// Streams excluded: never began playing.
    pub never_began: usize,
    /// Streams excluded: watch time under 4 s.
    pub short_watch: usize,
    /// Streams entering the primary analysis.
    pub considered: usize,
    /// Sessions quarantined after a mid-run panic and excluded from every
    /// other count, statistic, and the training dataset (docs/ROBUSTNESS.md).
    pub quarantined: usize,
}

/// Results of one arm.
#[derive(Debug, Clone)]
pub struct SchemeArm {
    pub name: &'static str,
    pub expt_id: u32,
    /// Considered streams (≥ 4 s watch time).
    pub streams: Vec<StreamSummary>,
    /// Total time on the player per session, seconds (Fig. 10).
    pub session_durations: Vec<f64>,
    pub consort: ConsortCounts,
}

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Sessions randomized per simulated day (across all arms).
    pub sessions_per_day: usize,
    /// Number of simulated days.
    pub days: u32,
    /// Worker threads (1 = fully sequential).
    pub threads: usize,
    /// Deployment world (Puffer for the primary experiment, Emulation for
    /// Fig. 11's left panel).
    pub emulation_world: bool,
    /// Congestion control for all arms (§3.2: BBR in the primary analysis).
    pub cc: CongestionControl,
    /// Nightly TTP retraining configuration for `retrain_daily` Fugu arms;
    /// `None` disables retraining entirely.
    pub retrain: Option<TrainConfig>,
    /// Participant behaviour.
    pub user: UserModel,
    /// Paired (within-subjects) mode: run *every* session under *every* arm
    /// with identical user/path randomness.  A real deployment cannot do
    /// this — §5.3 notes that emulators "allow experimenters to run two
    /// different algorithms on the same conditions, eliminating the effect
    /// of the play of chance" — but a simulator can, and the figure
    /// binaries use it so orderings stabilize at laptop scale.  `false`
    /// gives the paper's honest between-subjects RCT.
    pub paired: bool,
    /// Reuse one ABR instance per (worker, arm) across a day's sessions via
    /// [`puffer_abr::Abr::reset_stream`], instead of
    /// [`SchemeSpec::instantiate`]-ing per session.  Skips the per-session
    /// model clone (Fugu's TTP, Pensieve's policy) and keeps planner scratch
    /// tables warm; results are identical because `reset_stream` runs before
    /// every stream (pinned by `abr_reuse_matches_fresh_instantiation`).
    /// `false` restores per-session instantiation.
    pub reuse_abrs: bool,
    /// Batch concurrent Fugu-family sessions' TTP queries: each worker runs
    /// its sessions as suspended [`crate::session::SessionRun`] state
    /// machines and answers a whole wave's chunk decisions with one
    /// `(streams · rungs) × features` forward pass per lookahead step
    /// (`crate::batch`).  Results are bit-identical to the per-stream path
    /// (pinned by the fingerprint tests in `tests/determinism.rs`); `false`
    /// restores the one-session-at-a-time inner loop.
    pub batch_streams: bool,
    /// Merge arms sharing the same TTP snapshot (`Arc` identity, e.g. arms
    /// built with [`SchemeSpec::fugu_frozen_shared`]) into one batched pass
    /// per step-net instead of one per arm (`crate::batch`).  Planning stays
    /// per-arm; only the network forward is shared, so results are
    /// bit-identical either way (pinned in `tests/determinism.rs` and
    /// `tests/tier_identity.rs`).  Only meaningful when `batch_streams` is
    /// on; `false` keeps every arm in its own singleton group.
    pub batch_across_arms: bool,
    /// Spill telemetry to compacted `.puf` archives under this directory as
    /// sessions finish, one `telemetry_day<d>.puf` per simulated day
    /// (`docs/ARCHIVE.md`).  Workers write private spool files incrementally
    /// — a multi-month RCT never holds a day's telemetry rows in RAM — and
    /// the end-of-day merge orders blocks by session index, so the archives
    /// are byte-identical at any thread count.  `None` (the default) keeps
    /// telemetry out of the RCT entirely, as before.
    pub archive_sink: Option<std::path::PathBuf>,
    /// Deterministic fault-injection schedule (docs/ROBUSTNESS.md).  The
    /// default, [`FaultPlan::none`], injects nothing and leaves every output
    /// byte-identical to a run without the supervision layer.
    pub faults: FaultPlan,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 1,
            sessions_per_day: 200,
            days: 3,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            emulation_world: false,
            cc: CongestionControl::Bbr,
            retrain: Some(TrainConfig::default()),
            user: UserModel::default(),
            paired: false,
            reuse_abrs: true,
            batch_streams: true,
            batch_across_arms: true,
            archive_sink: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Results of the whole RCT.
#[derive(Debug, Clone)]
pub struct RctResult {
    pub arms: Vec<SchemeArm>,
    /// All telemetry aggregated for training (day-tagged).
    pub dataset: Dataset,
    /// Total sessions randomized (CONSORT headline).
    pub total_sessions: usize,
    /// Per-day `.puf` archives written when
    /// [`ExperimentConfig::archive_sink`] is set (empty otherwise), in day
    /// order.  A day whose archive sink failed (degraded to CSV-only) has no
    /// entry.
    pub archive_paths: Vec<std::path::PathBuf>,
    /// Every degradation event the supervision layer absorbed, in
    /// deterministic order (docs/ROBUSTNESS.md).  Empty on a clean run.
    pub incidents: Vec<Incident>,
    /// The arm specs after the final day (nightly retrains applied), so
    /// callers can inspect which model each arm ended up serving.
    pub schemes: Vec<SchemeSpec>,
}

/// SplitMix64 — derive independent per-session seeds from the master seed.
fn mix_seed(master: u64, day: u32, index: usize, arm: usize) -> u64 {
    // `index` is usize::MAX for the assignment stream, so the +1 offsets
    // must wrap rather than overflow.
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul((day as u64).wrapping_add(1)))
        .wrapping_add(0x2545_f491_4f6c_dd1du64.wrapping_mul((index as u64).wrapping_add(1)))
        .wrapping_add(0x6a09_e667_f3bc_c909u64.wrapping_mul((arm as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One accounted session; a quarantined session is its incident instead
/// (`Err`), contributing no streams, duration, telemetry, or training
/// observations.
struct SessionResult {
    arm: usize,
    summaries: Vec<StreamSummary>,
    session_duration: f64,
    consort: ConsortCounts,
    observations: Vec<Vec<fugu::ChunkObservation>>,
}

/// `(spec index, result)` for one session of the day.
type IndexedResult = (usize, Result<SessionResult, Incident>);

/// Per-arm ABR instances one worker reuses across its share of a day's
/// sessions.  Instances are built lazily (a worker may never draw some arm)
/// and rebuilt each day, so a nightly TTP swap (§4.3) reaches every worker.
pub(crate) struct ArmAbrs<'a> {
    schemes: &'a [SchemeSpec],
    abrs: Vec<Option<Box<dyn Abr>>>,
}

impl<'a> ArmAbrs<'a> {
    pub(crate) fn new(schemes: &'a [SchemeSpec]) -> Self {
        ArmAbrs { schemes, abrs: schemes.iter().map(|_| None).collect() }
    }

    pub(crate) fn get(&mut self, arm: usize) -> &mut dyn Abr {
        let schemes = self.schemes;
        self.abrs[arm].get_or_insert_with(|| schemes[arm].instantiate()).as_mut()
    }
}

/// Collision-free session id: day in the high 32 bits, session index in the
/// low 32.  The previous `day * 1_000_000 + i` packing silently collided
/// once `sessions_per_day` reached one million — paper scale is 337,170
/// sessions over 118 days, so a long bank of simulated days at deployment
/// rates walks straight into ids that alias across days and corrupt the
/// telemetry joins keyed on `stream_id` (which embeds the session id).
fn session_id(day: u32, index: usize) -> u64 {
    assert!((index as u64) < u64::from(u32::MAX), "session index must fit in 32 bits");
    (u64::from(day) << 32) | index as u64
}

/// Fold one session's outcome into the CONSORT accounting (Fig. A1).
fn account_session(arm: usize, out: SessionOutcome) -> SessionResult {
    let mut consort = ConsortCounts { sessions: 1, ..ConsortCounts::default() };
    let mut summaries = Vec::new();
    let mut observations = Vec::new();
    let session_duration = out.total_time;
    // Streams are consumed by value so each one's TTP observations move into
    // the result instead of being cloned.
    for s in out.streams {
        consort.streams += 1;
        match (&s.summary, s.quit) {
            (None, _) | (_, QuitReason::NeverBegan) => consort.never_began += 1,
            (Some(sum), _) => {
                if sum.watch_time < MIN_CONSIDERED_WATCH {
                    consort.short_watch += 1;
                } else {
                    consort.considered += 1;
                    summaries.push(*sum);
                }
            }
        }
        if !s.observations.is_empty() {
            observations.push(s.observations);
        }
    }
    SessionResult { arm, summaries, session_duration, consort, observations }
}

/// What one worker hands the merge phase at the end of a day.
struct WorkerDay {
    /// Results in completion order — the merge sorts by spec index.
    results: Vec<IndexedResult>,
    /// The worker's finished spool file, if the archive sink is on and every
    /// write succeeded.
    spool: Option<PathBuf>,
    /// Archive-sink failures.  Any one degrades the whole day to CSV-only;
    /// the merge sorts them by session coordinate, restoring scheduling
    /// independence.
    incidents: Vec<Incident>,
}

/// One worker's day in flight.  Every session it finishes — inline or from
/// the wave, completed or quarantined — goes through [`Worker::record`].
struct Worker<'a> {
    cfg: &'a ExperimentConfig,
    day: u32,
    /// The worker's private `.puf` spool; `None` when the archive sink is
    /// off, or after a write error abandoned it (telemetry keeps flowing to
    /// the in-memory statistics, only the on-disk archive degrades).
    spool: Option<TelemetrySpool>,
    out: WorkerDay,
}

impl<'a> Worker<'a> {
    fn new(cfg: &'a ExperimentConfig, day: u32, worker: usize) -> Self {
        let out = WorkerDay { results: Vec::new(), spool: None, incidents: Vec::new() };
        let mut w = Worker { cfg, day, spool: None, out };
        if let Some(dir) = &cfg.archive_sink {
            match TelemetrySpool::create(dir, &format!(".spool_day{day}_worker{worker}.puf")) {
                Ok(spool) => w.spool = Some(spool),
                Err(_) => w.out.incidents.push(Incident::archive_io(day)),
            }
        }
        w
    }

    /// The one path a finished session takes: spill its telemetry to the
    /// spool (tagged with its spec index), account it, apply any injected
    /// telemetry poisoning, and record the result.  `None` is a session that
    /// unwound: it is quarantined and contributes only its incident.
    fn record(&mut self, i: usize, arm: usize, outcome: Option<SessionOutcome>) {
        let (day, faults) = (self.day, &self.cfg.faults);
        let Some(outcome) = outcome else {
            let after = faults.session_panic_after(day, i as u64).unwrap_or(0);
            let incident =
                Incident::of_session(day, arm, i, SessionPanic, Quarantined, after.into());
            self.out.results.push((i, Err(incident)));
            return;
        };
        if self.cfg.archive_sink.is_some() {
            // An injected archive fault surfaces as a synthetic I/O error,
            // exactly like a real disk failure.  It is probed even once an
            // earlier error has abandoned the spool, so the log holds every
            // injected fault whichever worker runs its session.
            let spilled = match self.spool.as_mut() {
                _ if faults.archive_error_at(day, i as u64) => {
                    Err(std::io::Error::other("injected archive-sink fault"))
                }
                Some(spool) => {
                    spool.add_session(i as u64, outcome.streams.iter().map(|s| &s.telemetry))
                }
                None => Ok(()),
            };
            if spilled.is_err() {
                self.out.incidents.push(Incident::of_session(day, arm, i, ArchiveIo, CsvOnly, 0));
                if let Some(spool) = self.spool.take() {
                    let path = spool.path().to_owned();
                    drop(spool);
                    std::fs::remove_file(path).ok();
                }
            }
        }
        let mut res = account_session(arm, outcome);
        if faults.nan_telemetry_at(day, i as u64) {
            poison_observations(&mut res.observations);
        }
        self.out.results.push((i, Ok(res)));
    }

    /// Close the spool and hand the day to the merge.
    fn finish(mut self) -> WorkerDay {
        if let Some(spool) = self.spool {
            let path = spool.path().to_owned();
            match spool.finish() {
                Ok(p) => self.out.spool = Some(p),
                Err(_) => {
                    self.out.incidents.push(Incident::archive_io(self.day));
                    std::fs::remove_file(path).ok();
                }
            }
        }
        self.out
    }
}

/// One worker's day: claim sessions off the shared counter until it runs
/// dry.  Fugu-family sessions join the worker's [`BatchRunner`] wave (their
/// chunk decisions are answered by batched TTP passes); everything else runs
/// inline.  Either way a panicking session (injected or real) is caught and
/// quarantined instead of killing the worker and the day.
fn run_day_worker(
    specs: &[(usize, u64, u64)],
    next: &AtomicUsize,
    schemes: &[SchemeSpec],
    bank: &TraceBank,
    cfg: &ExperimentConfig,
    day: u32,
    worker: usize,
) -> WorkerDay {
    let mut w = Worker::new(cfg, day, worker);
    let mut pool = ArmAbrs::new(schemes);
    let mut wave = cfg.batch_streams.then(|| BatchRunner::new(schemes, cfg.batch_across_arms));
    let mut finished = Vec::new();
    let mut exhausted = false;
    loop {
        // Claim work: batchable sessions fill the wave, others run inline.
        while !exhausted && wave.as_ref().is_none_or(BatchRunner::has_room) {
            // lint: atomic-ordering — RMW is already serialized; index alone claims the slot
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(arm, id, seed)) = specs.get(i) else {
                exhausted = true;
                break;
            };
            let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
            let run = SessionRun::begin(bank, &cfg.user, cfg.cc, stream_cfg, id, seed)
                .with_injected_panic(cfg.faults.session_panic_after(day, i as u64));
            match wave.as_mut() {
                Some(b) if b.is_batchable(arm) => b.admit(i, arm, run),
                _ => {
                    let mut fresh;
                    let abr: &mut dyn Abr = if cfg.reuse_abrs {
                        pool.get(arm)
                    } else {
                        fresh = schemes[arm].instantiate();
                        fresh.as_mut()
                    };
                    // The pooled ABR is safe to keep using after an unwind:
                    // `reset_stream` runs before every stream, clearing any
                    // state the panic left half-updated.
                    let outcome = catch_unwind(AssertUnwindSafe(|| run.run_to_end(abr, &cfg.user)));
                    w.record(i, arm, outcome.ok());
                }
            }
        }
        // An empty wave here means nothing is left to claim either.
        let Some(b) = wave.as_mut().filter(|b| !b.is_empty()) else { break };
        b.round(&mut pool, &cfg.user, &mut finished);
        for (i, arm, outcome) in finished.drain(..) {
            w.record(i, arm, outcome);
        }
    }
    w.finish()
}

/// Run the RCT.  `schemes` defines the arms; Fugu arms flagged
/// `retrain_daily` are retrained after each simulated day on all telemetry
/// collected so far (14-day window, recency-weighted, warm-started) —
/// behind a validation gate with one bounded retry and rollback
/// (docs/ROBUSTNESS.md).
///
/// Each day runs the same phases: outage ladder → assign → run → merge →
/// aggregate → retrain → persist incidents.  Fault hooks live inside the
/// phase they degrade, never between phases.
pub fn run_rct(schemes: Vec<SchemeSpec>, cfg: &ExperimentConfig) -> RctResult {
    assert!(!schemes.is_empty(), "need at least one arm");
    assert!(cfg.sessions_per_day > 0 && cfg.days > 0);
    let bank = if cfg.emulation_world { TraceBank::emulation() } else { TraceBank::puffer() };
    if cfg.faults.has_session_panics() {
        crate::faults::install_quiet_panic_hook();
    }
    // Day-0 snapshots back the outage ladder's frozen rung.
    let frozen: Vec<Option<Arc<Ttp>>> = schemes.iter().map(|s| s.ttp().cloned()).collect();
    let mut rct = RctResult::start(schemes);
    for day in 0..cfg.days {
        let day_start = rct.incidents.len();
        let serving = rct.outage_ladder(day, &frozen, &cfg.faults);
        let specs = assign(cfg, day, serving.len());
        rct.total_sessions += specs.len();
        let workers = run_day(&specs, &serving, &bank, cfg, day);
        let (results, day_archive) = rct.merge(day, workers, cfg.archive_sink.as_deref());
        rct.aggregate(day, results);
        if let Some(train_cfg) = &cfg.retrain {
            rct.retrain(day, train_cfg, cfg);
        }
        rct.persist_day_incidents(day_archive.as_deref(), day_start);
    }
    rct.persist_incident_log(cfg);
    rct
}

/// Blinded randomization: arm assignment depends only on the seed stream,
/// never on the user or path.  The session's own randomness (user intent,
/// path, trace, content) is seeded *without* the arm — common random
/// numbers, so identical sessions landing in different arms differ only
/// through the algorithm's decisions.  Returns `(arm, session id, seed)` per
/// session, in spec-index order.
fn assign(cfg: &ExperimentConfig, day: u32, n_arms: usize) -> Vec<(usize, u64, u64)> {
    let spec = |arm, i| (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0));
    if cfg.paired {
        // Within-subjects: every session under every arm.
        (0..cfg.sessions_per_day).flat_map(|i| (0..n_arms).map(move |arm| spec(arm, i))).collect()
    } else {
        let mut assign_rng =
            rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, usize::MAX, 0));
        (0..cfg.sessions_per_day).map(|i| spec(assign_rng.random_range(0..n_arms), i)).collect()
    }
}

/// Run the day's sessions.  Workers claim specs dynamically off a shared
/// counter (heavy-tailed session lengths make pre-dealt shares badly
/// imbalanced), so which worker runs which session is scheduling-dependent
/// — but every session is a pure function of its seed and the merge restores
/// session-index order, so the output is deterministic and
/// thread-count-independent.
///
/// `cfg.threads` is an upper bound, not a demand: oversubscribing the
/// machine's cores costs real time on this pure-CPU workload (context
/// switches, and each extra worker splits the batch wave and carries its own
/// ABR pool) while results are thread-count-independent, so capping at the
/// available parallelism is observationally free.
fn run_day(
    specs: &[(usize, u64, u64)],
    schemes: &[SchemeSpec],
    bank: &TraceBank,
    cfg: &ExperimentConfig,
    day: u32,
) -> Vec<WorkerDay> {
    let hw = std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZero::get);
    let n_workers = cfg.threads.min(hw).min(specs.len()).max(1);
    let next = AtomicUsize::new(0);
    if n_workers <= 1 {
        return vec![run_day_worker(specs, &next, schemes, bank, cfg, day, 0)];
    }
    let next = &next;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| scope.spawn(move || run_day_worker(specs, next, schemes, bank, cfg, day, w)))
            .collect();
        // A panic escaping here is a worker-level bug, not a session
        // failure — sessions are isolated inside the worker.
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

impl RctResult {
    /// The empty result the day phases fill in; `schemes` are the live arm
    /// specs the nightly retrain updates.
    fn start(schemes: Vec<SchemeSpec>) -> RctResult {
        let arms = schemes
            .iter()
            .enumerate()
            .map(|(i, s)| SchemeArm {
                name: s.name(),
                expt_id: i as u32,
                streams: Vec::new(),
                session_durations: Vec::new(),
                consort: ConsortCounts::default(),
            })
            .collect();
        RctResult {
            arms,
            dataset: Dataset::new(),
            total_sessions: 0,
            archive_paths: Vec::new(),
            incidents: Vec::new(),
            schemes,
        }
    }

    /// Outage ladder: the specs serving `day`.  An arm whose serving model
    /// is unavailable falls back to its frozen day-0 snapshot, and if that
    /// is unavailable too, to BBA.  The serving specs are clones of the live
    /// specs (`Arc` identity preserved, so batching groups are unchanged);
    /// the live specs stay the retraining target.
    fn outage_ladder(
        &mut self,
        day: u32,
        frozen: &[Option<Arc<Ttp>>],
        faults: &FaultPlan,
    ) -> Vec<SchemeSpec> {
        let mut serving = self.schemes.clone();
        for (a, spec) in serving.iter_mut().enumerate() {
            // Only Fugu arms carry a servable model.
            let (Some(outage), SchemeSpec::Fugu { ttp, .. }) =
                (faults.model_outage(day, a as u32), &mut *spec)
            else {
                continue;
            };
            match outage {
                ModelOutage::Primary => {
                    *ttp = Arc::clone(frozen[a].as_ref().expect("a Fugu arm has a day-0 TTP"));
                    let incident = Incident::of_arm(day, a, ModelUnavailable, ServedFrozen, 1);
                    self.incidents.push(incident);
                }
                ModelOutage::PrimaryAndFrozen => {
                    *spec = SchemeSpec::Bba;
                    self.incidents.push(Incident::of_arm(day, a, ModelUnavailable, ServedBba, 2));
                }
            }
        }
        serving
    }

    /// Merge the workers' days.  Archive incidents are sorted by coordinate:
    /// which worker hit a fault is scheduling-dependent, the coordinates are
    /// not (injected faults are coordinate-keyed; real faults keep their
    /// coordinates but may legitimately vary across runs).  The spools merge
    /// into the day's archive, blocks reordered by session index so the
    /// bytes are independent of which worker ran which session.  If *any*
    /// worker's sink failed, the archive would be missing sessions
    /// non-deterministically — so the whole day degrades to CSV-only
    /// (deterministic at every thread count) and the spools are removed.
    ///
    /// Returns the day's results in session-index order and the day archive,
    /// if one was written.
    fn merge(
        &mut self,
        day: u32,
        workers: Vec<WorkerDay>,
        sink: Option<&Path>,
    ) -> (Vec<IndexedResult>, Option<PathBuf>) {
        let mut results = Vec::new();
        let mut spools = Vec::new();
        let mut worker_incidents = Vec::new();
        for w in workers {
            results.extend(w.results);
            spools.extend(w.spool);
            worker_incidents.extend(w.incidents);
        }
        worker_incidents.sort_unstable_by_key(|inc: &Incident| {
            (inc.session, inc.arm, inc.kind.code(), inc.action.code(), inc.value)
        });
        let archive_failed = !worker_incidents.is_empty();
        self.incidents.extend(worker_incidents);
        let day_archive = sink.filter(|_| !archive_failed).and_then(|dir| {
            let day_path = dir.join(format!("telemetry_day{day}.puf"));
            if crate::archive::merge_spools(&spools, &day_path).is_ok() {
                return Some(day_path);
            }
            self.incidents.push(Incident::archive_io(day));
            std::fs::remove_file(&day_path).ok();
            None
        });
        for s in spools {
            std::fs::remove_file(s).ok();
        }
        self.archive_paths.extend(day_archive.clone());
        results.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(results.iter().enumerate().all(|(k, &(i, _))| k == i));
        (results, day_archive)
    }

    /// Aggregate in deterministic (session-index) order.  Quarantined
    /// sessions are counted only as such — identically at any thread count,
    /// because exclusion keys on the session's spec index, not on which
    /// worker caught the panic.  Streams carrying non-finite telemetry
    /// features are kept in the QoE statistics but dropped from the training
    /// dataset: one NaN would poison the nightly retrain's scaler and every
    /// gradient after it.
    fn aggregate(&mut self, day: u32, results: Vec<IndexedResult>) {
        for (i, r) in results {
            let r = match r {
                Ok(r) => r,
                Err(quarantine) => {
                    self.arms[quarantine.arm as usize].consort.quarantined += 1;
                    self.incidents.push(quarantine);
                    continue;
                }
            };
            let arm = &mut self.arms[r.arm];
            arm.streams.extend(r.summaries);
            arm.session_durations.push(r.session_duration);
            arm.consort.sessions += r.consort.sessions;
            arm.consort.streams += r.consort.streams;
            arm.consort.never_began += r.consort.never_began;
            arm.consort.short_watch += r.consort.short_watch;
            arm.consort.considered += r.consort.considered;
            for stream_obs in r.observations {
                if stream_obs.iter().all(observation_is_finite) {
                    self.dataset.add_stream(day, stream_obs);
                } else {
                    let n = stream_obs.len() as u64;
                    let incident =
                        Incident::of_session(day, r.arm, i, BadTelemetry, ObservationsDropped, n);
                    self.incidents.push(incident);
                }
            }
        }
    }

    /// Nightly retraining (§4.3): warm start from today's weights, gated
    /// before the swap (docs/ROBUSTNESS.md).  An injected checkpoint
    /// truncation cuts the accepted model's checkpoint mid-file before
    /// reload: the loader must reject it (never panic), and the incumbent
    /// keeps serving — exactly what a crash between write and rename would
    /// do without the atomic-save path.
    fn retrain(&mut self, day: u32, train_cfg: &TrainConfig, cfg: &ExperimentConfig) {
        for a in 0..self.schemes.len() {
            let spec = &self.schemes[a];
            let Some(incumbent) = spec.ttp().filter(|_| spec.retrains_daily()).cloned() else {
                continue;
            };
            let Some(new_ttp) = self.gated_retrain(day, a, &incumbent, train_cfg, cfg) else {
                continue; // incumbent keeps serving
            };
            if !cfg.faults.checkpoint_truncated(day, a as u32) {
                self.schemes[a].update_ttp(new_ttp);
                continue;
            }
            let text = fugu::checkpoint::save_to_string(&new_ttp);
            let cut = text.len() / 2;
            match fugu::checkpoint::load_from_str(&text[..cut]) {
                Ok(reloaded) => self.schemes[a].update_ttp(reloaded),
                Err(_) => {
                    let incident =
                        Incident::of_arm(day, a, CheckpointTruncated, KeptIncumbent, cut as u64);
                    self.incidents.push(incident);
                }
            }
        }
    }

    /// Train arm `a`'s candidate and put it through the validation gate.  A
    /// rejected candidate gets one bounded retry on an independent RNG
    /// stream; `None` if that fails too, or if the window holds no data.
    fn gated_retrain(
        &mut self,
        day: u32,
        a: usize,
        incumbent: &Ttp,
        train_cfg: &TrainConfig,
        cfg: &ExperimentConfig,
    ) -> Option<Ttp> {
        let gate = RetrainGate::default();
        let fault = cfg.faults.retrain_fault(day, a as u32);
        for attempt in 0..2u8 {
            let mut candidate = incumbent.clone();
            // Attempt 0 uses the stream retrains have always used (zero-fault
            // identity); the retry draws an independent one so the re-shuffle
            // differs.
            let stream = usize::MAX - 1 - usize::from(attempt);
            let mut rng = rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, stream, 7));
            train(&mut candidate, &self.dataset, day, train_cfg, &mut rng)?;
            if let Some(f) = fault.filter(|f| f.hits(attempt)) {
                crate::faults::corrupt_ttp(f.mode, &mut candidate);
            }
            let window = train_cfg.window_days;
            match validate_retrained(&candidate, incumbent, &self.dataset, day, window, &gate) {
                GateVerdict::Pass => {
                    if attempt > 0 {
                        let incident =
                            Incident::of_arm(day, a, RetrainRecovered, RetrySucceeded, 0);
                        self.incidents.push(incident);
                    }
                    return Some(candidate);
                }
                verdict => {
                    let action = if attempt == 0 { RetriedTraining } else { RolledBack };
                    let code = u64::from(verdict.code());
                    self.incidents.push(Incident::of_arm(day, a, RetrainRejected, action, code));
                }
            }
        }
        None
    }

    /// Persist the day's incidents into the day archive (when one was
    /// written) as `BlockKind::Incident` blocks.  Failure here degrades
    /// silently — the run-level `incidents.csv` still carries the log.
    fn persist_day_incidents(&self, day_archive: Option<&Path>, day_start: usize) {
        let day_slice = &self.incidents[day_start..];
        if let (Some(path), false) = (day_archive, day_slice.is_empty()) {
            crate::archive::append_incidents(path, day_slice).ok();
        }
    }

    /// The deterministic incident log lands next to the archives.  Nothing
    /// is written on a clean zero-fault run, keeping its outputs
    /// byte-identical to a build without the supervision layer.
    fn persist_incident_log(&self, cfg: &ExperimentConfig) {
        let Some(dir) = &cfg.archive_sink else { return };
        if !cfg.faults.is_empty() || !self.incidents.is_empty() {
            let csv = crate::faults::incidents_csv(&self.incidents);
            std::fs::write(dir.join("incidents.csv"), csv).ok();
        }
    }
}

/// Collect a TTP training dataset by running `sessions_per_day × days`
/// sessions of the given scheme in a world — the bootstrap phase before
/// Fugu can be deployed (the paper's Fugu entered the primary experiment
/// already trained on prior Puffer telemetry).
pub fn collect_training_data(scheme: &SchemeSpec, cfg: &ExperimentConfig) -> Dataset {
    let result = run_rct(vec![scheme.clone()], &ExperimentConfig { retrain: None, ..cfg.clone() });
    result.dataset
}

/// Train a fresh TTP variant on a dataset (the in-situ or in-emulation
/// bootstrap training).
pub fn train_ttp_on(
    variant: TtpVariant,
    dataset: &Dataset,
    train_cfg: &TrainConfig,
    seed: u64,
) -> Ttp {
    let mut ttp = variant.build_ttp(seed);
    let last_day = dataset.days().last().copied().unwrap_or(0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd_ef01_2345_6789);
    train(&mut ttp, dataset, last_day, train_cfg, &mut rng);
    ttp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_session;
    use fugu::TtpConfig;

    fn tiny_cfg(threads: usize) -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
            sessions_per_day: 30,
            days: 2,
            threads,
            retrain: None,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn rct_runs_and_accounts_streams() {
        let result = run_rct(vec![SchemeSpec::Bba, SchemeSpec::MpcHm], &tiny_cfg(1));
        assert_eq!(result.total_sessions, 60);
        let sessions: usize = result.arms.iter().map(|a| a.consort.sessions).sum();
        assert_eq!(sessions, 60);
        for arm in &result.arms {
            assert_eq!(
                arm.consort.streams,
                arm.consort.never_began + arm.consort.short_watch + arm.consort.considered,
                "CONSORT accounting must balance for {}",
                arm.name
            );
            assert_eq!(arm.streams.len(), arm.consort.considered);
            assert_eq!(arm.session_durations.len(), arm.consort.sessions);
        }
        assert!(result.dataset.n_observations() > 0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let seq = run_rct(vec![SchemeSpec::Bba, SchemeSpec::RobustMpcHm], &tiny_cfg(1));
        let par = run_rct(vec![SchemeSpec::Bba, SchemeSpec::RobustMpcHm], &tiny_cfg(4));
        for (a, b) in seq.arms.iter().zip(&par.arms) {
            assert_eq!(a.consort, b.consort, "arm {}", a.name);
            assert_eq!(a.streams.len(), b.streams.len());
            for (x, y) in a.streams.iter().zip(&b.streams) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn abr_reuse_matches_fresh_instantiation() {
        // Worker-local ABR reuse must be invisible in the results: any
        // cross-session state a scheme fails to clear in `reset_stream`
        // (predictor history, RobustMPC error window, Pensieve's previous
        // bitrate) would change some stream here.  Every stateful scheme is
        // on an arm, and both thread counts are exercised because workers
        // see different arm interleavings.
        use puffer_abr::PensievePolicy;
        use std::sync::Arc;
        let schemes = || {
            vec![
                SchemeSpec::MpcHm,
                SchemeSpec::RobustMpcHm,
                SchemeSpec::Pensieve(Arc::new(PensievePolicy::new(17))),
                SchemeSpec::fugu(Ttp::new(TtpConfig::default(), 8)),
            ]
        };
        for threads in [1usize, 4] {
            let mk = |reuse_abrs| ExperimentConfig {
                seed: 21,
                sessions_per_day: 16,
                days: 2,
                threads,
                retrain: None,
                reuse_abrs,
                ..ExperimentConfig::default()
            };
            let reused = run_rct(schemes(), &mk(true));
            let fresh = run_rct(schemes(), &mk(false));
            for (a, b) in reused.arms.iter().zip(&fresh.arms) {
                assert_eq!(a.consort, b.consort, "consort, arm {} threads {threads}", a.name);
                assert_eq!(a.streams, b.streams, "streams, arm {} threads {threads}", a.name);
                assert_eq!(
                    a.session_durations, b.session_durations,
                    "durations, arm {} threads {threads}",
                    a.name
                );
            }
            assert_eq!(reused.dataset.n_observations(), fresh.dataset.n_observations());
        }
    }

    #[test]
    fn randomization_balances_arms() {
        let cfg = ExperimentConfig {
            sessions_per_day: 300,
            days: 1,
            threads: 4,
            retrain: None,
            ..ExperimentConfig::default()
        };
        let result =
            run_rct(vec![SchemeSpec::Bba, SchemeSpec::MpcHm, SchemeSpec::RobustMpcHm], &cfg);
        for arm in &result.arms {
            let frac = arm.consort.sessions as f64 / 300.0;
            assert!((0.2..0.5).contains(&frac), "{}: {}", arm.name, frac);
        }
    }

    #[test]
    fn daily_retraining_updates_fugu_model() {
        let ttp = Ttp::new(TtpConfig::default(), 9);
        let spec = SchemeSpec::fugu(ttp);
        let before_ptr = std::sync::Arc::as_ptr(spec.ttp().unwrap()) as usize;
        let cfg = ExperimentConfig {
            seed: 5,
            sessions_per_day: 25,
            days: 1,
            threads: 2,
            retrain: Some(TrainConfig {
                epochs: 1,
                max_samples_per_step: 500,
                ..TrainConfig::default()
            }),
            ..ExperimentConfig::default()
        };
        // The schemes vector is moved in; verify training happened via the
        // dataset and via a changed model by re-running collect path.
        let result = run_rct(vec![spec], &cfg);
        assert!(result.dataset.n_observations() > 0);
        let _ = before_ptr; // pointer identity is not observable post-move
        assert!(result.arms[0].consort.considered > 0, "Fugu arm must produce streams");
    }

    #[test]
    fn collect_and_train_bootstrap() {
        let cfg = ExperimentConfig { sessions_per_day: 20, days: 1, threads: 2, ..tiny_cfg(2) };
        let data = collect_training_data(&SchemeSpec::Bba, &cfg);
        assert!(data.n_observations() > 100, "{}", data.n_observations());
        let ttp = train_ttp_on(
            TtpVariant::Full,
            &data,
            &TrainConfig { epochs: 1, max_samples_per_step: 1000, ..TrainConfig::default() },
            3,
        );
        assert_eq!(ttp.horizon(), 5);
    }

    #[test]
    fn session_ids_are_unique_at_paper_scale() {
        // The old `day * 1_000_000 + i` packing collided exactly here:
        // (day 0, i = 1_500_000) and (day 1, i = 500_000) both mapped to
        // 1_500_000 once `sessions_per_day` crossed one million.
        assert_ne!(session_id(0, 1_500_000), session_id(1, 500_000));
        // lint: order-insensitive — set only detects duplicate ids
        let mut seen = std::collections::HashSet::new();
        for day in [0u32, 1, 2, 117, 4096] {
            for i in [0usize, 1, 999_999, 1_000_000, 1_500_000, u32::MAX as usize - 1] {
                assert!(seen.insert(session_id(day, i)), "collision at day {day} i {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn session_index_overflow_is_rejected() {
        session_id(0, u32::MAX as usize);
    }

    #[test]
    fn paper_scale_stream_ids_round_trip_through_csv() {
        // Stream ids embed the session id (`session_id * 1000 + seq`); the
        // telemetry CSVs and the sent↔acked join must survive ids from the
        // widened packing (day in the high half) without truncation.
        use crate::telemetry::video_sent_csv;
        let bank = TraceBank::puffer();
        let mut abr = puffer_abr::Bba::default();
        let id = session_id(117, 1_500_000);
        let out = run_session(
            &bank,
            &mut abr,
            &UserModel::default(),
            CongestionControl::Bbr,
            StreamConfig::default(),
            id,
            99,
        );
        let sent: Vec<_> =
            out.streams.iter().flat_map(|s| s.telemetry.video_sent.iter().copied()).collect();
        assert!(!sent.is_empty(), "session produced no telemetry");
        let csv = video_sent_csv(&sent);
        for (row, v) in csv.lines().skip(1).zip(&sent) {
            let sid: u64 = row.split(',').nth(1).expect("stream_id column").parse().unwrap();
            assert_eq!(sid, v.stream_id, "stream id must round-trip through the CSV");
            assert_eq!(sid / 1000, id, "stream id must still embed the session id");
        }
        let n_joined: usize =
            out.streams.iter().map(|s| s.telemetry.transmission_times().len()).sum();
        let n_acked: usize = out.streams.iter().map(|s| s.telemetry.video_acked.len()).sum();
        assert_eq!(n_joined, n_acked, "every acked chunk must join back to its sent row");
    }

    #[test]
    fn seeds_differ_across_sessions_and_days() {
        let a = mix_seed(1, 0, 0, 0);
        let b = mix_seed(1, 0, 1, 0);
        let c = mix_seed(1, 1, 0, 0);
        let d = mix_seed(2, 0, 0, 0);
        // lint: order-insensitive — set only checks the four seeds are distinct
        let set: std::collections::HashSet<u64> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
