//! Cross-stream batched TTP inference for the RCT day loop.
//!
//! One Fugu chunk decision queries the TTP `horizon × rungs` times; with the
//! per-stream path each concurrent stream does this alone, cycling all five
//! step-nets' weights through cache per decision.  A [`BatchRunner`] instead
//! holds a *wave* of concurrent Fugu-family sessions suspended at their
//! chunk decisions (the [`SessionRun`] state machine) and answers all of
//! them per round: for every lookahead step, the staged decisions of every
//! session in the wave become one `(streams · rungs) × features` forward
//! pass through that step's network
//! ([`Ttp::predict_time_distributions_batched_into`]), so each weight matrix
//! is streamed through cache once per round instead of once per stream.
//!
//! Arms that share the same TTP snapshot (`Arc` identity — e.g. ablation
//! arms built with [`SchemeSpec::fugu_frozen_shared`]) are merged into one
//! *TTP group*: their sessions' staged decisions join the same batched pass
//! per step-net, growing the effective batch the blocked kernels were built
//! for.  Planning stays per-arm — each session's value iteration runs with
//! its own arm's controller configuration — only the network forward is
//! shared.  `ExperimentConfig::batch_across_arms` turns the merging off
//! (every batchable arm becomes a singleton group, reproducing per-arm
//! passes exactly).
//!
//! Results are bit-identical to the per-stream path (`docs/BATCHING.md`):
//! every kernel in the forward pass is row-independent with a fixed
//! per-element operation order, and the batched entry point replays the
//! exact shared-prefix first-layer sequence of the single-stream path, so
//! co-batching — across streams or across arms — cannot change any
//! session's distributions — pinned by the fingerprint tests in
//! `tests/determinism.rs` and the property test in `tests/invariants.rs`.
//!
//! Admission contract: every session of a Fugu-family arm joins the wave,
//! including sessions carrying an injected panic
//! (`FaultPlan::session_panic_after`).  Each session's own work — its
//! `poll_decision`, and its `plan_from_dists` + `advance` — runs under
//! `catch_unwind`, so a session that unwinds (injected or real) is retired
//! as quarantined and the rest of the wave carries on.  Retiring it only
//! drops its rows from later passes, and rows are independent, so no other
//! session's outcome changes.  The batched forward pass is shared by the
//! whole wave and is not caught: a panic there is a worker-level bug and
//! fails the worker, as it would on the inline path.

use crate::experiment::ArmAbrs;
use crate::scheme::SchemeSpec;
use crate::session::{SessionOutcome, SessionRun};
use crate::user::UserModel;
use fugu::{PlanScratch, StochasticMpc, Ttp, TtpBatchQuery, TtpScratch, N_BINS};
use puffer_abr::ChunkRecord;
use puffer_net::TcpInfo;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Wave size: sessions a worker keeps in flight at once.  Large enough that
/// a full batch row count (`sessions × rungs`) dwarfs per-pass overhead,
/// small enough that per-session state (connection, buffers, planner
/// scratch) stays cache-resident.
pub(crate) const MAX_ACTIVE: usize = 64;

/// One suspended session in the wave.
struct ActiveSession {
    /// Position in the day's spec list (aggregation order).
    index: usize,
    arm: usize,
    run: SessionRun,
    /// Planner tables for this session's staged decision; reused across
    /// sessions via the spare list, exactly like the pooled per-worker
    /// Fugu's scratch in the inline path.
    scratch: PlanScratch,
    /// Its plan or advance unwound last round: the next poll retires it as
    /// quarantined.
    crashed: bool,
}

/// The planner half of a Fugu arm, shared read-only across the wave (the
/// TTP `Arc` is the same object [`SchemeSpec::instantiate`] clones).
struct ArmPlanner {
    ttp: Arc<Ttp>,
    planner: StochasticMpc,
}

/// Per-query slice bounds into the round's flat staging buffers.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Index into `active`.
    s: usize,
    /// Effective plan horizon of this session's decision.
    horizon: usize,
    n_rungs: usize,
    hist: (usize, usize),
    sizes: (usize, usize),
}

/// Group arms sharing the *same* TTP snapshot (`Arc` identity — the batching
/// key `SchemeSpec::fugu_planner` documents) so their staged decisions merge
/// into one batched pass; with `batch_across_arms` off, every batchable arm
/// is its own singleton group.  Returns `(groups, arm → group index)`.
/// Workers build a fresh runner every day, after any nightly retraining has
/// swapped an arm's `Arc`, so the groups always reflect the snapshots
/// actually in play.
fn ttp_groups_for(
    planners: &[Option<ArmPlanner>],
    batch_across_arms: bool,
) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; planners.len()];
    for arm in 0..planners.len() {
        let Some(ap) = planners[arm].as_ref() else { continue };
        let joined = if batch_across_arms {
            groups.iter().position(|grp| {
                let lead = planners[grp[0]].as_ref().expect("groups hold batchable arms");
                Arc::ptr_eq(&lead.ttp, &ap.ttp)
            })
        } else {
            None
        };
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
    (groups, group_of)
}

/// Per-worker scheduler: admits sessions, runs decision rounds, retires
/// finished sessions.  No synchronization — each worker owns one.
pub(crate) struct BatchRunner {
    /// Per arm: `Some` iff the arm is Fugu-family (batchable).
    planners: Vec<Option<ArmPlanner>>,
    /// Arms whose staged decisions merge into one batched pass: each inner
    /// vec holds the arm indices of one TTP-sharing group (`Arc::ptr_eq` on
    /// the arms' TTPs; singletons when cross-arm batching is off).
    ttp_groups: Vec<Vec<usize>>,
    /// Arm index → its TTP group (`None` for non-batchable arms).
    group_of: Vec<Option<usize>>,
    active: Vec<ActiveSession>,
    /// Retired sessions' planner scratch, reused by later admissions.
    spare: Vec<PlanScratch>,
    ttp_scratch: TtpScratch,
    // Round staging buffers, reused across rounds (warm rounds allocate
    // only the short-lived borrow-carrying query vector).
    hist_flat: Vec<ChunkRecord>,
    infos: Vec<TcpInfo>,
    sizes_flat: Vec<f64>,
    flat_out: Vec<f64>,
    group: Vec<(usize, usize, usize)>,
    spans: Vec<Span>,
}

impl BatchRunner {
    pub(crate) fn new(schemes: &[SchemeSpec], batch_across_arms: bool) -> Self {
        let planners: Vec<Option<ArmPlanner>> = schemes
            .iter()
            .map(|s| {
                s.fugu_planner()
                    .map(|(ttp, config)| ArmPlanner { ttp, planner: StochasticMpc::new(config) })
            })
            .collect();
        let (ttp_groups, group_of) = ttp_groups_for(&planners, batch_across_arms);
        BatchRunner {
            planners,
            ttp_groups,
            group_of,
            active: Vec::new(),
            spare: Vec::new(),
            ttp_scratch: TtpScratch::default(),
            hist_flat: Vec::new(),
            infos: Vec::new(),
            sizes_flat: Vec::new(),
            flat_out: Vec::new(),
            group: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether this arm's decisions can be answered by the batched planner.
    pub(crate) fn is_batchable(&self, arm: usize) -> bool {
        self.planners[arm].is_some()
    }

    pub(crate) fn has_room(&self) -> bool {
        self.active.len() < MAX_ACTIVE
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Add session `index` of `arm` to the wave (it first runs at the next
    /// round).
    pub(crate) fn admit(&mut self, index: usize, arm: usize, run: SessionRun) {
        debug_assert!(self.is_batchable(arm) && self.has_room());
        let scratch = self.spare.pop().unwrap_or_default();
        self.active.push(ActiveSession { index, arm, run, scratch, crashed: false });
    }

    /// One decision round: poll every session to its next staged decision
    /// (retiring ended sessions into `finished` as
    /// `(spec index, arm, outcome)`, with no outcome for a session that
    /// unwound), answer all staged decisions with one batched TTP pass per
    /// (TTP group, lookahead step), then commit every session's chosen rung.
    pub(crate) fn round(
        &mut self,
        pool: &mut ArmAbrs<'_>,
        user: &UserModel,
        finished: &mut Vec<(usize, usize, Option<SessionOutcome>)>,
    ) {
        // --- poll / retire ---
        let mut i = 0;
        while i < self.active.len() {
            let a = &mut self.active[i];
            let abr = pool.get(a.arm);
            let polled = if a.crashed {
                Err(())
            } else {
                catch_unwind(AssertUnwindSafe(|| a.run.poll_decision(abr, user))).map_err(drop)
            };
            if polled == Ok(true) {
                i += 1;
                continue;
            }
            let a = self.active.swap_remove(i);
            self.spare.push(a.scratch);
            finished.push((a.index, a.arm, polled.ok().map(|_| a.run.finish())));
        }

        // --- batched TTP fill + plan + advance, TTP group by TTP group ---
        // Sessions of every arm in a group stage into the same flat buffers
        // and are answered by one batched pass per step-net.  Within each
        // arm the sessions keep their `active`-order relative order (the
        // same order the old per-arm loop used), and different arms touch
        // disjoint pooled ABRs, per-session scratch, and a read-only shared
        // TTP — so the merge only changes how many rows each forward pass
        // carries, never what any row computes.
        for g in 0..self.ttp_groups.len() {
            self.group.clear();
            for s in 0..self.active.len() {
                let arm = self.active[s].arm;
                if self.group_of[arm] != Some(g) {
                    continue;
                }
                let (h, nr) = {
                    let ctx = self.active[s].run.context();
                    let ttp = &self.planners[arm].as_ref().expect("grouped arms are batchable").ttp;
                    (ttp.horizon().min(ctx.lookahead.len()), ctx.n_rungs())
                };
                self.group.push((s, h, nr));
            }
            if self.group.is_empty() {
                continue;
            }
            let max_h = self.group.iter().map(|&(_, h, _)| h).max().expect("non-empty");

            for step in 0..max_h {
                self.hist_flat.clear();
                self.infos.clear();
                self.sizes_flat.clear();
                self.spans.clear();
                for &(s, h, nr) in &self.group {
                    if step >= h {
                        continue;
                    }
                    let ctx = self.active[s].run.context();
                    let h0 = self.hist_flat.len();
                    self.hist_flat.extend_from_slice(ctx.history);
                    let z0 = self.sizes_flat.len();
                    self.sizes_flat.extend(ctx.lookahead[step].options.iter().map(|o| o.size));
                    // The per-stream fill writes `lookahead[step]`'s sizes
                    // into a `n_rungs`-wide slot; a ragged ladder would have
                    // tripped its length assert, so mirror that contract.
                    assert_eq!(self.sizes_flat.len() - z0, nr, "ladder width varies by step");
                    self.infos.push(ctx.tcp_info);
                    self.spans.push(Span {
                        s,
                        horizon: h,
                        n_rungs: nr,
                        hist: (h0, self.hist_flat.len()),
                        sizes: (z0, self.sizes_flat.len()),
                    });
                }
                if self.spans.is_empty() {
                    continue;
                }
                let total_rows = self.sizes_flat.len();
                self.flat_out.resize(total_rows * N_BINS, 0.0);
                let queries: Vec<TtpBatchQuery<'_>> = self
                    .spans
                    .iter()
                    .zip(&self.infos)
                    .map(|(sp, info)| TtpBatchQuery {
                        history: &self.hist_flat[sp.hist.0..sp.hist.1],
                        tcp_info: info,
                        proposed_sizes: &self.sizes_flat[sp.sizes.0..sp.sizes.1],
                    })
                    .collect();
                // Any group member's TTP is *the* group TTP (same `Arc`);
                // use the lead arm's.
                let lead = self.ttp_groups[g][0];
                let ttp = &self.planners[lead].as_ref().expect("grouped arms are batchable").ttp;
                ttp.predict_time_distributions_batched_into(
                    step,
                    &queries,
                    &mut self.ttp_scratch,
                    &mut self.flat_out,
                );
                drop(queries);
                // Scatter each query's rows into its session's dists table
                // at this step's offset — the same slot the per-stream
                // `fill_dists` writes.
                let mut row0 = 0;
                for sp in &self.spans {
                    let n = sp.sizes.1 - sp.sizes.0;
                    let stride = sp.n_rungs * N_BINS;
                    let dists = self.active[sp.s].scratch.dists_for(sp.horizon, sp.n_rungs);
                    dists[step * stride..step * stride + n * N_BINS]
                        .copy_from_slice(&self.flat_out[row0 * N_BINS..(row0 + n) * N_BINS]);
                    row0 += n;
                }
            }

            // Every session's distributions are in place: run the value
            // iteration per session — with the session's *own* arm's
            // controller configuration (the ablation arms in a group differ
            // exactly here) — and commit the chosen rung.  A session that
            // unwinds here is marked and retired by the next poll.
            for gi in 0..self.group.len() {
                let (s, _, _) = self.group[gi];
                let arm = self.active[s].arm;
                let planner = self.planners[arm].as_ref().expect("grouped arms are batchable");
                let abr = pool.get(arm);
                let a = &mut self.active[s];
                a.crashed = catch_unwind(AssertUnwindSafe(|| {
                    let ctx = a.run.context();
                    let rung = planner.planner.plan_from_dists(
                        &ctx,
                        planner.ttp.horizon(),
                        &mut a.scratch,
                    );
                    a.run.advance(rung, abr, user);
                }))
                .is_err();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fugu::{Ttp, TtpConfig, TtpVariant};

    fn planners_for(schemes: &[SchemeSpec]) -> Vec<Option<ArmPlanner>> {
        schemes
            .iter()
            .map(|s| {
                s.fugu_planner()
                    .map(|(ttp, config)| ArmPlanner { ttp, planner: StochasticMpc::new(config) })
            })
            .collect()
    }

    #[test]
    fn ttp_groups_follow_arc_identity() {
        let shared = Arc::new(Ttp::new(TtpConfig::default(), 1));
        let schemes = vec![
            SchemeSpec::Bba,
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::Full, "Fugu"),
            SchemeSpec::fugu_frozen_shared(&shared, TtpVariant::PointEstimate, "Point Estimate"),
            // Bit-equal weights but a fresh `Arc`: must NOT merge.
            SchemeSpec::fugu_frozen(Ttp::new(TtpConfig::default(), 1), TtpVariant::Full, "Copy"),
        ];
        let planners = planners_for(&schemes);

        let (groups, group_of) = ttp_groups_for(&planners, true);
        assert_eq!(groups, vec![vec![1, 2], vec![3]]);
        assert_eq!(group_of, vec![None, Some(0), Some(0), Some(1)]);

        // Cross-arm batching off: singleton groups, same membership.
        let (groups, group_of) = ttp_groups_for(&planners, false);
        assert_eq!(groups, vec![vec![1], vec![2], vec![3]]);
        assert_eq!(group_of, vec![None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn a_crashed_session_is_quarantined_and_the_wave_is_unchanged() {
        use crate::experiment::ArmAbrs;
        use crate::stream::StreamConfig;
        use puffer_net::CongestionControl;
        use puffer_trace::TraceBank;
        let ttp = Ttp::new(TtpConfig::default(), 3);
        let schemes = vec![SchemeSpec::fugu_frozen(ttp, TtpVariant::Full, "Fugu")];
        let bank = TraceBank::puffer();
        // Sessions of a minute or two keep the test quick in debug builds.
        let user = UserModel { intent_cap: 120.0, ..UserModel::default() };
        // Retire session `crash` as if its plan or advance had unwound in
        // the first round; every other session must end exactly as it does
        // in an undisturbed wave.
        let run_wave = |crash: Option<usize>| {
            let mut pool = ArmAbrs::new(&schemes);
            let mut wave = BatchRunner::new(&schemes, true);
            for i in 0..3 {
                let cfg = StreamConfig::default();
                let run = SessionRun::begin(&bank, &user, CongestionControl::Bbr, cfg, i, 40 + i);
                wave.admit(i as usize, 0, run);
            }
            let mut finished = Vec::new();
            wave.round(&mut pool, &user, &mut finished);
            if let Some(c) = crash {
                let a = wave.active.iter_mut().find(|a| a.index == c).expect("still running");
                a.crashed = true;
            }
            while !wave.is_empty() {
                wave.round(&mut pool, &user, &mut finished);
            }
            finished.sort_by_key(|f| f.0);
            let summaries = |o: SessionOutcome| {
                (o.total_time, o.streams.iter().map(|s| s.summary).collect::<Vec<_>>())
            };
            finished.into_iter().map(|(_, _, out)| out.map(summaries)).collect::<Vec<_>>()
        };
        let clean = run_wave(None);
        let crashed = run_wave(Some(1));
        assert!(clean.iter().all(Option::is_some));
        assert_eq!(crashed[1], None, "the crashed session is retired without an outcome");
        assert_eq!((&crashed[0], &crashed[2]), (&clean[0], &clean[2]));
    }
}
