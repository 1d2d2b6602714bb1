//! The traced run: `run_rct`'s zero-fault day loop rebuilt from the
//! platform's public pieces, with a span around every call into a layer.
//!
//! It reproduces `run_rct` exactly — the same session seeds, arm
//! assignment, wave admission and round order, spool tags, aggregation
//! order and retrain RNG streams — so its fingerprint must equal the
//! untraced run's, and the wall-time difference between the two runs is
//! tracing overhead.  The wave mirrors the platform's per-worker batch
//! scheduler: up to 64 Fugu-family sessions per worker, one batched TTP
//! pass per (TTP group, lookahead step), per-arm planning.

use crate::timer::{Clock, Lane, LaneRecord, Name, Span, NONE};
use fugu::{
    train, validate_retrained, ChunkObservation, Dataset, GateVerdict, PlanScratch, RetrainGate,
    StochasticMpc, Ttp, TtpBatchQuery, TtpScratch, N_BINS,
};
use puffer_abr::{Abr, ChunkRecord};
use puffer_net::TcpInfo;
use puffer_platform::faults::observation_is_finite;
use puffer_platform::{
    append_incidents, incidents_csv, merge_spools, ConsortCounts, DegradeAction, ExperimentConfig,
    Incident, IncidentKind, QuitReason, RctResult, SchemeArm, SchemeSpec, SessionOutcome,
    SessionRun, StreamConfig, TelemetrySpool, MIN_CONSIDERED_WATCH,
};
use puffer_stats::StreamSummary;
use puffer_trace::TraceBank;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Sessions a worker keeps in flight in its wave (the platform's constant).
pub const WAVE_SIZE: usize = 64;

/// Sentinels of `Incident::arm` / `Incident::session` for run-level events.
const NO_ARM: u32 = u32::MAX;
const NO_SESSION: u64 = u64::MAX;

/// Deterministic work counts of a traced run, summed over lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub ttp_rows: u64,
    pub wave_rounds: u64,
    pub wave_staged: u64,
    pub train_samples: u64,
    pub gate_attempts: u64,
    pub gate_passes: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.ttp_rows += o.ttp_rows;
        self.wave_rounds += o.wave_rounds;
        self.wave_staged += o.wave_staged;
        self.train_samples += o.train_samples;
        self.gate_attempts += o.gate_attempts;
        self.gate_passes += o.gate_passes;
    }
}

/// What a traced run leaves besides its result.
#[derive(Debug, Default)]
pub struct Trace {
    pub lanes: Vec<LaneRecord>,
    pub counters: Counters,
}

/// SplitMix64 over `(master, day, index, arm)` — `run_rct`'s per-session,
/// assignment and retrain seed derivation.
pub fn mix_seed(master: u64, day: u32, index: usize, arm: usize) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul((day as u64).wrapping_add(1)))
        .wrapping_add(0x2545_f491_4f6c_dd1du64.wrapping_mul((index as u64).wrapping_add(1)))
        .wrapping_add(0x6a09_e667_f3bc_c909u64.wrapping_mul((arm as u64).wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Day in the high 32 bits, session index in the low 32.
fn session_id(day: u32, index: usize) -> u64 {
    (u64::from(day) << 32) | index as u64
}

fn tag(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(NONE)
}

/// One session's contribution to its arm.
struct SessionResult {
    arm: usize,
    summaries: Vec<StreamSummary>,
    session_duration: f64,
    consort: ConsortCounts,
    observations: Vec<Vec<ChunkObservation>>,
    quarantined: bool,
}

/// Fold one session's outcome into the CONSORT accounting (Fig. A1).
fn account_session(arm: usize, out: SessionOutcome) -> SessionResult {
    let mut consort = ConsortCounts { sessions: 1, ..ConsortCounts::default() };
    let mut summaries = Vec::new();
    let mut observations = Vec::new();
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
    SessionResult {
        arm,
        summaries,
        session_duration: out.total_time,
        consort,
        observations,
        quarantined: false,
    }
}

/// Per-arm ABR instances one worker reuses for a day, built on first use.
struct Pool<'a> {
    schemes: &'a [SchemeSpec],
    abrs: Vec<Option<Box<dyn Abr>>>,
}

impl<'a> Pool<'a> {
    fn new(schemes: &'a [SchemeSpec]) -> Self {
        Pool { schemes, abrs: schemes.iter().map(|_| None).collect() }
    }

    fn get(&mut self, arm: usize, lane: &mut Lane) -> &mut dyn Abr {
        if self.abrs[arm].is_none() {
            let abr = lane.time(Name::AbrInstantiate, NONE, || self.schemes[arm].instantiate());
            self.abrs[arm] = Some(abr);
        }
        self.abrs[arm].as_mut().expect("instantiated above").as_mut()
    }
}

struct ActiveSession {
    index: usize,
    arm: usize,
    run: SessionRun,
    scratch: PlanScratch,
}

struct ArmPlanner {
    ttp: Arc<Ttp>,
    planner: StochasticMpc,
}

/// One staged decision's slice bounds in a step's flat staging buffers.
#[derive(Clone, Copy)]
struct Staged {
    s: usize,
    horizon: usize,
    n_rungs: usize,
    hist: (usize, usize),
    sizes: (usize, usize),
}

/// The worker's wave of suspended Fugu-family sessions.
struct Wave {
    planners: Vec<Option<ArmPlanner>>,
    groups: Vec<Vec<usize>>,
    group_of: Vec<Option<usize>>,
    active: Vec<ActiveSession>,
    spare: Vec<PlanScratch>,
    ttp_scratch: TtpScratch,
    hist_flat: Vec<ChunkRecord>,
    infos: Vec<TcpInfo>,
    sizes_flat: Vec<f64>,
    flat_out: Vec<f64>,
    group: Vec<(usize, usize, usize)>,
    staged: Vec<Staged>,
}

impl Wave {
    fn new(schemes: &[SchemeSpec]) -> Wave {
        let planners: Vec<Option<ArmPlanner>> = schemes
            .iter()
            .map(|s| {
                s.fugu_planner()
                    .map(|(ttp, config)| ArmPlanner { ttp, planner: StochasticMpc::new(config) })
            })
            .collect();
        // Arms sharing one TTP snapshot (`Arc` identity) form one group.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = vec![None; planners.len()];
        for arm in 0..planners.len() {
            let Some(ap) = planners[arm].as_ref() else { continue };
            let joined = groups.iter().position(|g| {
                Arc::ptr_eq(&planners[g[0]].as_ref().expect("grouped arms plan").ttp, &ap.ttp)
            });
            match joined {
                Some(g) => {
                    groups[g].push(arm);
                    group_of[arm] = Some(g);
                }
                None => {
                    group_of[arm] = Some(groups.len());
                    groups.push(vec![arm]);
                }
            }
        }
        Wave {
            planners,
            groups,
            group_of,
            active: Vec::new(),
            spare: Vec::new(),
            ttp_scratch: TtpScratch::default(),
            hist_flat: Vec::new(),
            infos: Vec::new(),
            sizes_flat: Vec::new(),
            flat_out: Vec::new(),
            group: Vec::new(),
            staged: Vec::new(),
        }
    }

    fn is_batchable(&self, arm: usize) -> bool {
        self.planners[arm].is_some()
    }

    fn admit(&mut self, ctx: &DayCtx<'_>, lane: &mut Lane, index: usize, arm: usize) {
        let (_, id, seed) = ctx.specs[index];
        let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
        let cfg = ctx.cfg;
        let run = lane.time(Name::SessionOpen, tag(index), || {
            SessionRun::begin(ctx.bank, &cfg.user, cfg.cc, stream_cfg, id, seed)
        });
        let scratch = self.spare.pop().unwrap_or_default();
        self.active.push(ActiveSession { index, arm, run, scratch });
    }

    /// One decision round: poll every session (retiring finished ones into
    /// `finished`), answer the staged decisions with one batched TTP pass
    /// per (group, step), then plan and commit per session.
    fn round(
        &mut self,
        pool: &mut Pool<'_>,
        ctx: &DayCtx<'_>,
        lane: &mut Lane,
        counters: &mut Counters,
        finished: &mut Vec<(usize, usize, SessionOutcome)>,
    ) {
        let user = &ctx.cfg.user;
        let round = lane.open(Name::WaveRound, NONE);
        let mut i = 0;
        while i < self.active.len() {
            let (arm, index) = (self.active[i].arm, self.active[i].index);
            let abr = pool.get(arm, lane);
            let run = &mut self.active[i].run;
            if lane.time(Name::SessionPoll, tag(index), || run.poll_decision(abr, user)) {
                i += 1;
            } else {
                let a = self.active.swap_remove(i);
                self.spare.push(a.scratch);
                let out = lane.time(Name::SessionFinish, tag(index), || a.run.finish());
                finished.push((a.index, a.arm, out));
            }
        }
        counters.wave_rounds += 1;
        counters.wave_staged += self.active.len() as u64;

        for g in 0..self.groups.len() {
            let gather = lane.open(Name::WaveGatherScatter, NONE);
            self.group.clear();
            for s in 0..self.active.len() {
                let arm = self.active[s].arm;
                if self.group_of[arm] != Some(g) {
                    continue;
                }
                let c = self.active[s].run.context();
                let ttp = &self.planners[arm].as_ref().expect("grouped arms plan").ttp;
                self.group.push((s, ttp.horizon().min(c.lookahead.len()), c.n_rungs()));
            }
            lane.close(gather);
            if self.group.is_empty() {
                continue;
            }
            let max_h = self.group.iter().map(|&(_, h, _)| h).max().expect("non-empty group");
            let lead = self.groups[g][0];
            for step in 0..max_h {
                let gather = lane.open(Name::WaveGatherScatter, NONE);
                self.hist_flat.clear();
                self.infos.clear();
                self.sizes_flat.clear();
                self.staged.clear();
                for &(s, h, nr) in &self.group {
                    if step >= h {
                        continue;
                    }
                    let c = self.active[s].run.context();
                    let h0 = self.hist_flat.len();
                    self.hist_flat.extend_from_slice(c.history);
                    let z0 = self.sizes_flat.len();
                    self.sizes_flat.extend(c.lookahead[step].options.iter().map(|o| o.size));
                    assert_eq!(self.sizes_flat.len() - z0, nr, "ladder width varies by step");
                    self.infos.push(c.tcp_info);
                    self.staged.push(Staged {
                        s,
                        horizon: h,
                        n_rungs: nr,
                        hist: (h0, self.hist_flat.len()),
                        sizes: (z0, self.sizes_flat.len()),
                    });
                }
                if self.staged.is_empty() {
                    lane.close(gather);
                    continue;
                }
                let rows = self.sizes_flat.len();
                self.flat_out.resize(rows * N_BINS, 0.0);
                let queries: Vec<TtpBatchQuery<'_>> = self
                    .staged
                    .iter()
                    .zip(&self.infos)
                    .map(|(sp, info)| TtpBatchQuery {
                        history: &self.hist_flat[sp.hist.0..sp.hist.1],
                        tcp_info: info,
                        proposed_sizes: &self.sizes_flat[sp.sizes.0..sp.sizes.1],
                    })
                    .collect();
                lane.close(gather);
                let ttp = &self.planners[lead].as_ref().expect("grouped arms plan").ttp;
                let (scratch, out) = (&mut self.ttp_scratch, &mut self.flat_out);
                lane.time(Name::TtpForward, NONE, || {
                    ttp.predict_time_distributions_batched_into(step, &queries, scratch, out)
                });
                counters.ttp_rows += rows as u64;
                drop(queries);
                let scatter = lane.open(Name::WaveGatherScatter, NONE);
                let mut row0 = 0;
                for sp in &self.staged {
                    let n = sp.sizes.1 - sp.sizes.0;
                    let stride = sp.n_rungs * N_BINS;
                    let dists = self.active[sp.s].scratch.dists_for(sp.horizon, sp.n_rungs);
                    dists[step * stride..step * stride + n * N_BINS]
                        .copy_from_slice(&self.flat_out[row0 * N_BINS..(row0 + n) * N_BINS]);
                    row0 += n;
                }
                lane.close(scatter);
            }
            for gi in 0..self.group.len() {
                let s = self.group[gi].0;
                let arm = self.active[s].arm;
                let planner = self.planners[arm].as_ref().expect("grouped arms plan");
                let a = &mut self.active[s];
                let index = tag(a.index);
                let (run, scratch) = (&a.run, &mut a.scratch);
                let rung = lane.time(Name::ControllerPlan, index, || {
                    planner.planner.plan_from_dists(&run.context(), planner.ttp.horizon(), scratch)
                });
                let abr = pool.get(arm, lane);
                let run = &mut a.run;
                lane.time(Name::SessionAdvance, index, || run.advance(rung, abr, user));
            }
        }
        lane.close(round);
    }
}

/// Read-only inputs every worker of one day shares.
struct DayCtx<'a> {
    cfg: &'a ExperimentConfig,
    bank: &'a TraceBank,
    schemes: &'a [SchemeSpec],
    /// `(arm, session id, seed)` per spec index.
    specs: &'a [(usize, u64, u64)],
    next: &'a AtomicUsize,
    day: u32,
}

/// One worker's day.
struct WorkerDay {
    results: Vec<(usize, SessionResult)>,
    spool: Option<PathBuf>,
    archive_failed: bool,
    incidents: Vec<Incident>,
    lane: LaneRecord,
    counters: Counters,
}

fn archive_io(day: u32, arm: u32, session: u64) -> Incident {
    Incident {
        day,
        arm,
        session,
        kind: IncidentKind::ArchiveIo,
        action: DegradeAction::CsvOnly,
        value: 0,
    }
}

/// Run one inline (non-batchable) session under `catch_unwind`, as the
/// platform does: a panic quarantines the session instead of the worker.
fn run_inline(
    ctx: &DayCtx<'_>,
    abr: &mut dyn Abr,
    lane: &mut Lane,
    index: usize,
    arm: usize,
) -> Option<SessionOutcome> {
    let (_, id, seed) = ctx.specs[index];
    let cfg = ctx.cfg;
    let user = &cfg.user;
    let t = tag(index);
    let inline = lane.open(Name::SessionInline, t);
    let out = catch_unwind(AssertUnwindSafe(|| {
        let stream_cfg = StreamConfig { expt_id: arm as u32, ..StreamConfig::default() };
        let mut run = lane.time(Name::SessionOpen, t, || {
            SessionRun::begin(ctx.bank, user, cfg.cc, stream_cfg, id, seed)
        });
        while lane.time(Name::SessionPoll, t, || run.poll_decision(abr, user)) {
            let rung = lane.time(Name::AbrChoose, t, || abr.choose(&run.context()));
            lane.time(Name::SessionAdvance, t, || run.advance(rung, abr, user));
        }
        lane.time(Name::SessionFinish, t, || run.finish())
    }));
    lane.close(inline);
    out.ok()
}

/// A worker's day output as it accumulates.
struct WorkerState {
    day: u32,
    results: Vec<(usize, SessionResult)>,
    incidents: Vec<Incident>,
    spool: Option<TelemetrySpool>,
    abandoned: Option<PathBuf>,
    archive_failed: bool,
}

impl WorkerState {
    /// Spill a finished session's telemetry to the spool (abandoning the
    /// spool on a write error), then account it.
    fn retire(&mut self, lane: &mut Lane, i: usize, arm: usize, out: SessionOutcome) {
        if let Some(s) = self.spool.as_mut() {
            let written = lane.time(Name::ArchiveSpool, tag(i), || {
                s.add_session(i as u64, out.streams.iter().map(|s| &s.telemetry))
            });
            if written.is_err() {
                self.incidents.push(archive_io(self.day, arm as u32, i as u64));
                self.archive_failed = true;
                self.abandoned = self.spool.take().map(|s| s.path().to_owned());
            }
        }
        let res = lane.time(Name::ExperimentAccount, tag(i), || account_session(arm, out));
        self.results.push((i, res));
    }
}

fn run_day_worker(ctx: &DayCtx<'_>, clock: Clock, worker: usize) -> WorkerDay {
    let cfg = ctx.cfg;
    let day = ctx.day;
    let mut lane = Lane::new(clock);
    let root = lane.open(Name::Worker, NONE);
    let mut counters = Counters::default();
    let mut st = WorkerState {
        day,
        results: Vec::new(),
        incidents: Vec::new(),
        spool: None,
        abandoned: None,
        archive_failed: false,
    };
    if let Some(dir) = cfg.archive_sink.as_ref() {
        let name = format!(".spool_day{day}_worker{worker}.puf");
        match lane.time(Name::ArchiveSpool, NONE, || TelemetrySpool::create(dir, &name)) {
            Ok(s) => st.spool = Some(s),
            Err(_) => {
                st.incidents.push(archive_io(day, NO_ARM, NO_SESSION));
                st.archive_failed = true;
            }
        }
    }
    let mut pool = Pool::new(ctx.schemes);
    let mut wave = Wave::new(ctx.schemes);
    let mut finished: Vec<(usize, usize, SessionOutcome)> = Vec::new();
    let mut exhausted = false;
    loop {
        while !exhausted && wave.active.len() < WAVE_SIZE {
            // lint: atomic-ordering — the RMW alone claims the index; it publishes no data
            let i = ctx.next.fetch_add(1, Ordering::Relaxed);
            if i >= ctx.specs.len() {
                exhausted = true;
                break;
            }
            let arm = ctx.specs[i].0;
            if wave.is_batchable(arm) {
                wave.admit(ctx, &mut lane, i, arm);
            } else {
                let abr = pool.get(arm, &mut lane);
                match run_inline(ctx, abr, &mut lane, i, arm) {
                    Some(out) => st.retire(&mut lane, i, arm, out),
                    None => st.results.push((i, quarantined(arm))),
                }
            }
        }
        if wave.active.is_empty() {
            if exhausted {
                break;
            }
            continue;
        }
        wave.round(&mut pool, ctx, &mut lane, &mut counters, &mut finished);
        for (i, arm, out) in finished.drain(..) {
            st.retire(&mut lane, i, arm, out);
        }
    }
    let spool = match st.spool.take() {
        None => None,
        Some(s) => {
            let path = s.path().to_owned();
            match lane.time(Name::ArchiveSpool, NONE, || s.finish()) {
                Ok(p) => Some(p),
                Err(_) => {
                    st.incidents.push(archive_io(day, NO_ARM, NO_SESSION));
                    st.archive_failed = true;
                    st.abandoned = Some(path);
                    None
                }
            }
        }
    };
    if let Some(p) = st.abandoned {
        std::fs::remove_file(p).ok();
    }
    lane.close(root);
    WorkerDay {
        results: st.results,
        spool,
        archive_failed: st.archive_failed,
        incidents: st.incidents,
        lane: lane.finish(),
        counters,
    }
}

fn quarantined(arm: usize) -> SessionResult {
    SessionResult {
        arm,
        summaries: Vec::new(),
        session_duration: 0.0,
        consort: ConsortCounts::default(),
        observations: Vec::new(),
        quarantined: true,
    }
}

/// `run_rct` with every layer call timed.  Panics on a configuration the
/// mirror does not reproduce (fault injection, or one of the platform's
/// opt-out switches).
pub fn run_traced(
    mut schemes: Vec<SchemeSpec>,
    cfg: &ExperimentConfig,
    clock: Clock,
) -> (RctResult, Trace) {
    assert!(
        cfg.faults.is_empty() && cfg.reuse_abrs && cfg.batch_streams && cfg.batch_across_arms,
        "the traced driver mirrors the default zero-fault day loop only"
    );
    assert!(!schemes.is_empty() && cfg.sessions_per_day > 0 && cfg.days > 0);
    let mut main = Lane::new(clock);
    let rct = main.open(Name::Rct, NONE);
    let mut trace = Trace::default();
    let bank = if cfg.emulation_world { TraceBank::emulation() } else { TraceBank::puffer() };
    let mut arms: Vec<SchemeArm> = schemes
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
    let mut dataset = Dataset::new();
    let mut total_sessions = 0usize;
    let mut archive_paths = Vec::new();
    let mut incidents: Vec<Incident> = Vec::new();

    for day in 0..cfg.days {
        let day_span = main.open(Name::Day, NONE);
        let day_incident_start = incidents.len();
        let day_schemes = schemes.clone();
        let specs: Vec<(usize, u64, u64)> = main.time(Name::ExperimentAssign, NONE, || {
            let n_arms = schemes.len();
            let spec = |arm, i| (arm, session_id(day, i), mix_seed(cfg.seed, day, i, 0));
            if cfg.paired {
                // Within-subjects: every session under every arm.
                (0..cfg.sessions_per_day)
                    .flat_map(|i| (0..n_arms).map(move |arm| (arm, i)))
                    .map(|(arm, i)| spec(arm, i))
                    .collect()
            } else {
                let mut assign_rng =
                    rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, usize::MAX, 0));
                (0..cfg.sessions_per_day)
                    .map(|i| spec(assign_rng.random_range(0..n_arms), i))
                    .collect()
            }
        });
        total_sessions += specs.len();

        let n_workers = cfg.threads.min(crate::probe::nproc()).min(specs.len()).max(1);
        let next = AtomicUsize::new(0);
        let ctx =
            DayCtx { cfg, bank: &bank, schemes: &day_schemes, specs: &specs, next: &next, day };
        let parked = main.open(Name::Parked, NONE);
        let mut worker_days: Vec<WorkerDay> = if n_workers <= 1 {
            vec![run_day_worker(&ctx, clock, 0)]
        } else {
            let ctx = &ctx;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|w| scope.spawn(move || run_day_worker(ctx, clock, w)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            })
        };
        main.close(parked);
        // A worker that finished early idled until the slowest one joined.
        let joined = clock.now_ns();
        let day_archive_failed = worker_days.iter().any(|w| w.archive_failed);
        let mut indexed: Vec<(usize, SessionResult)> = Vec::new();
        let mut spools: Vec<PathBuf> = Vec::new();
        let mut worker_incidents: Vec<Incident> = Vec::new();
        for w in worker_days.drain(..) {
            indexed.extend(w.results);
            spools.extend(w.spool);
            worker_incidents.extend(w.incidents);
            trace.counters.add(&w.counters);
            let mut lane = w.lane;
            lane.spans.push(Span {
                name: Name::ExperimentBarrierWait,
                parent: NONE,
                session: NONE,
                start: lane.end,
                end: joined,
            });
            lane.end = joined;
            trace.lanes.push(lane);
        }
        worker_incidents.sort_unstable_by_key(|inc| {
            (inc.session, inc.arm, inc.kind.code(), inc.action.code(), inc.value)
        });
        incidents.extend(worker_incidents);

        let mut day_archive_path: Option<PathBuf> = None;
        if let Some(dir) = &cfg.archive_sink {
            main.time(Name::ArchiveMerge, NONE, || {
                if day_archive_failed {
                    for s in spools.drain(..) {
                        std::fs::remove_file(s).ok();
                    }
                    return;
                }
                let day_path = dir.join(format!("telemetry_day{day}.puf"));
                let merged = merge_spools(&spools, &day_path);
                for s in spools.drain(..) {
                    std::fs::remove_file(s).ok();
                }
                match merged {
                    Ok(()) => {
                        archive_paths.push(day_path.clone());
                        day_archive_path = Some(day_path);
                    }
                    Err(_) => {
                        incidents.push(archive_io(day, NO_ARM, NO_SESSION));
                        std::fs::remove_file(&day_path).ok();
                    }
                }
            });
        }

        let aggregate = main.open(Name::ExperimentAggregate, NONE);
        indexed.sort_unstable_by_key(|&(i, _)| i);
        for (i, r) in indexed {
            let arm = &mut arms[r.arm];
            if r.quarantined {
                arm.consort.quarantined += 1;
                incidents.push(Incident {
                    day,
                    arm: r.arm as u32,
                    session: i as u64,
                    kind: IncidentKind::SessionPanic,
                    action: DegradeAction::Quarantined,
                    value: 0,
                });
                continue;
            }
            arm.streams.extend(r.summaries);
            arm.session_durations.push(r.session_duration);
            arm.consort.sessions += r.consort.sessions;
            arm.consort.streams += r.consort.streams;
            arm.consort.never_began += r.consort.never_began;
            arm.consort.short_watch += r.consort.short_watch;
            arm.consort.considered += r.consort.considered;
            for stream_obs in r.observations {
                if stream_obs.iter().all(observation_is_finite) {
                    main.time(Name::DatasetAdd, tag(i), || dataset.add_stream(day, stream_obs));
                } else {
                    incidents.push(Incident {
                        day,
                        arm: r.arm as u32,
                        session: i as u64,
                        kind: IncidentKind::BadTelemetry,
                        action: DegradeAction::ObservationsDropped,
                        value: stream_obs.len() as u64,
                    });
                }
            }
        }
        main.close(aggregate);

        if let Some(train_cfg) = &cfg.retrain {
            for (a, spec) in schemes.iter_mut().enumerate() {
                if !spec.retrains_daily() {
                    continue;
                }
                let Some(incumbent) = spec.ttp().cloned() else {
                    incidents.push(Incident {
                        day,
                        arm: a as u32,
                        session: NO_SESSION,
                        kind: IncidentKind::RetrainSkipped,
                        action: DegradeAction::SkippedRetrain,
                        value: 0,
                    });
                    continue;
                };
                let gate = RetrainGate::default();
                let mut accepted: Option<Ttp> = None;
                for attempt in 0..2u8 {
                    let mut candidate: Ttp = (*incumbent).clone();
                    let stream = if attempt == 0 { usize::MAX - 1 } else { usize::MAX - 2 };
                    let mut rng =
                        rand::rngs::StdRng::seed_from_u64(mix_seed(cfg.seed, day, stream, 7));
                    let report = main.time(Name::TrainingTrain, NONE, || {
                        train(&mut candidate, &dataset, day, train_cfg, &mut rng)
                    });
                    let Some(report) = report else { break };
                    trace.counters.train_samples +=
                        report.samples_per_step.iter().map(|&n| n as u64).sum::<u64>();
                    let verdict = main.time(Name::TrainingGate, NONE, || {
                        validate_retrained(
                            &candidate,
                            &incumbent,
                            &dataset,
                            day,
                            train_cfg.window_days,
                            &gate,
                        )
                    });
                    trace.counters.gate_attempts += 1;
                    if verdict.passed() {
                        trace.counters.gate_passes += 1;
                    }
                    match (verdict, attempt) {
                        (GateVerdict::Pass, 0) => {
                            accepted = Some(candidate);
                            break;
                        }
                        (GateVerdict::Pass, _) => {
                            incidents.push(Incident {
                                day,
                                arm: a as u32,
                                session: NO_SESSION,
                                kind: IncidentKind::RetrainRecovered,
                                action: DegradeAction::RetrySucceeded,
                                value: 0,
                            });
                            accepted = Some(candidate);
                            break;
                        }
                        (v, attempt) => incidents.push(Incident {
                            day,
                            arm: a as u32,
                            session: NO_SESSION,
                            kind: IncidentKind::RetrainRejected,
                            action: if attempt == 0 {
                                DegradeAction::RetriedTraining
                            } else {
                                DegradeAction::RolledBack
                            },
                            value: u64::from(v.code()),
                        }),
                    }
                }
                if let Some(new_ttp) = accepted {
                    spec.update_ttp(new_ttp);
                }
            }
        }

        if let Some(day_path) = &day_archive_path {
            let day_slice = &incidents[day_incident_start..];
            if !day_slice.is_empty() {
                main.time(Name::ArchiveMerge, NONE, || append_incidents(day_path, day_slice).ok());
            }
        }
        main.close(day_span);
    }

    if let Some(dir) = &cfg.archive_sink {
        if !incidents.is_empty() {
            std::fs::write(dir.join("incidents.csv"), incidents_csv(&incidents)).ok();
        }
    }
    main.close(rct);
    trace.lanes.push(main.finish());
    (RctResult { arms, dataset, total_sessions, archive_paths, incidents, schemes }, trace)
}
