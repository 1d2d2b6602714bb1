//! Stochastic model-predictive control by value iteration (§4.4).
//!
//! The controller maximizes the expected sum of QoE over an H-step horizon:
//!
//! ```text
//! v*ᵢ(Bᵢ, Kᵢ₋₁) = max_{Kᵢˢ} Σ_{Tᵢ} Pr[T̂(Kᵢˢ) = Tᵢ]·(QoE(Kᵢˢ, Kᵢ₋₁) + v*ᵢ₊₁(Bᵢ₊₁, Kᵢˢ))
//! ```
//!
//! where the transmission-time distribution comes from the TTP.  "To make the
//! DP computationally feasible, it discretizes Bᵢ into bins" — the buffer
//! grid ([`BufferGrid`]) and the backward recursion over (buffer bin ×
//! previous rung) are those of the deterministic MPC in `puffer-abr`; the
//! only difference is the expectation over the 21 time bins.  With
//! `point_estimate = true` the distribution is collapsed to its
//! maximum-likelihood bin, which is the "Point Estimate" ablation deployed in
//! August 2019 (§4.6) whose rebuffering was 3–9× worse.
//!
//! The paper's controller runs the recursion forward with memoization, so it
//! only ever evaluates states the real buffer can reach.  The planner here
//! gets the same saving in two passes.  A forward pass
//! ([`BufferGrid::mark_reach`], shared with MPC) starts at `ctx.buffer` and
//! marks, step by step, the bins reachable through every time bin whose mass
//! passes the `PROB_EPSILON` skip test for some rung.
//! The backward pass then builds the stall/value-to-go table `W` and the
//! maximization only at marked bins.  Pruning is exact: a marked bin's value
//! reads the next step's values only at bins the forward pass marked from
//! it, every value is computed with the same expressions in the same order
//! as a full sweep, and unmarked entries are never read.  The forward pass
//! costs O(reachable bins × supported time bins) per step, because it first
//! takes the union of the supported time bins across rungs.

use crate::bins::{bin_midpoint, N_BINS};
use crate::ttp::{Ttp, TtpScratch};
use puffer_abr::{AbrContext, BufferGrid};
use puffer_media::QoeParams;
use puffer_nn::loss::argmax;

/// Probability mass below this is skipped; the TTP's distributions
/// concentrate in a handful of bins.  NaN is not below it, so a NaN mass is
/// evaluated like any other.
const PROB_EPSILON: f64 = 1e-4;

/// Controller tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// QoE weights (λ = 1, µ = 100 in deployment, §4.5).
    pub qoe: QoeParams,
    /// Buffer discretization bins over [0, 15 s].
    pub buffer_bins: usize,
    /// Collapse the TTP's distribution to its MLE bin (ablation, §4.6).
    pub point_estimate: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { qoe: QoeParams::default(), buffer_bins: 61, point_estimate: false }
    }
}

/// Reusable flat tables for [`StochasticMpc::plan_with`].
///
/// Every per-decision quantity of the value iteration lives here as a flat
/// `Vec` indexed arithmetically — `dists[(step·R + a)·T + b]`,
/// `value[bin·R + prev]`, `w[a·B + bin]`, `m[a·R + prev]`,
/// `reach[step·B + bin]` — so steady-state planning (one call per chunk, ~every
/// 2 s per stream, thousands of streams) allocates nothing and reuses
/// cache-friendly contiguous storage.  The `stall`/`next_bin` tables depend
/// only on the buffer discretization and are computed once per configuration.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Time distributions, `(step * n_rungs + a) * N_BINS + b`.
    dists: Vec<f64>,
    /// Value table for the step below, `bin * n_rungs + prev`.
    value: Vec<f64>,
    /// Value table being built for this step.
    next_value: Vec<f64>,
    /// Stall-plus-value-to-go term, `a * bins + bin`.
    w: Vec<f64>,
    /// Quality-minus-variation term, `a * n_rungs + prev`.
    m: Vec<f64>,
    /// Whether step `step` can be entered in a bin, `step * bins + bin`.
    reach: Vec<bool>,
    /// The marked bins of the step being evaluated, ascending.
    live: Vec<usize>,
    /// The time bins some rung of a step gives non-skipped mass, ascending
    /// from `step * N_BINS`; `n_support[step]` of them.
    support: Vec<usize>,
    n_support: Vec<usize>,
    /// `(t − buffer).max(0)` per `(time bin b) * bins + (buffer bin)`.
    stall: Vec<f64>,
    /// Post-transfer buffer bin per `(time bin b) * bins + (buffer bin)`.
    next_bin: Vec<usize>,
    /// Buffer-bin count the `stall`/`next_bin` tables were built for.
    table_bins: usize,
    /// Candidate sizes for the batched TTP query.
    sizes: Vec<f64>,
    /// TTP inference buffers.
    ttp: TtpScratch,
}

impl PlanScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)build the discretization-dependent tables if the grid changed.
    /// A grid is a function of its bin count, so keying on `bins` suffices.
    /// The entries use the exact expressions the planner previously evaluated
    /// inline, keeping decisions bit-identical.
    // lint: alloc-free — tables are rebuilt only when the bin count changes; warm plans reuse them (tests/alloc_gate.rs)
    fn ensure_tables(&mut self, grid: BufferGrid) {
        let bins = grid.bins();
        if self.table_bins == bins {
            return;
        }
        self.stall.clear();
        self.next_bin.clear();
        self.stall.reserve(N_BINS * bins);
        self.next_bin.reserve(N_BINS * bins);
        for b in 0..N_BINS {
            let t = bin_midpoint(b);
            for bin in 0..bins {
                let buffer = grid.level(bin);
                self.stall.push((t - buffer).max(0.0));
                self.next_bin.push(grid.next_bin(buffer, t));
            }
        }
        self.table_bins = bins;
    }

    /// Size the per-(step, rung) time-distribution table for a `horizon ×
    /// n_rungs` plan and return it for external filling — the cross-stream
    /// batch scheduler scatters batched TTP rows straight into this table
    /// and then calls [`StochasticMpc::plan_from_dists`].  Layout:
    /// `(step * n_rungs + rung) * N_BINS + bin`.  Contents are unspecified
    /// after resize; overwrite every step's block.
    pub fn dists_for(&mut self, horizon: usize, n_rungs: usize) -> &mut [f64] {
        self.dists.resize(horizon * n_rungs * N_BINS, 0.0);
        &mut self.dists
    }
}

/// The value-iteration planner.  Stateless; all inputs arrive per decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct StochasticMpc {
    pub config: ControllerConfig,
}

impl StochasticMpc {
    pub fn new(config: ControllerConfig) -> Self {
        assert!(config.buffer_bins >= 2);
        StochasticMpc { config }
    }

    /// Plan over `ctx.lookahead` with time distributions from `ttp`; returns
    /// the rung for the immediate chunk.
    ///
    /// The expected QoE of an action separates into a quality/variation term
    /// `M[a][prev]` (independent of the transmission time) and a
    /// stall-plus-value-to-go term `W[a][buffer bin]` (independent of the
    /// previous rung), so one backward step costs
    /// O(rungs·bins·(time bins + rungs)) rather than the naive
    /// O(bins·rungs²·time bins), where `bins` counts only the buffer bins the
    /// forward pass marked reachable.  Probability mass below `PROB_EPSILON`
    /// is skipped; the TTP's distributions concentrate in a handful of bins.
    pub fn plan(&self, ctx: &AbrContext, ttp: &Ttp) -> usize {
        let mut scratch = PlanScratch::new();
        self.plan_with(ctx, ttp, &mut scratch)
    }

    /// [`StochasticMpc::plan`] through caller-owned [`PlanScratch`] tables:
    /// identical decisions, zero heap allocations once the scratch has warmed
    /// up to the (horizon, rungs, bins) shape.
    // lint-root: panic-free, alloc-free
    pub fn plan_with(&self, ctx: &AbrContext, ttp: &Ttp, scratch: &mut PlanScratch) -> usize {
        self.fill_dists(ctx, ttp, scratch);
        self.plan_from_dists(ctx, ttp.horizon(), scratch)
    }

    /// The TTP-query half of [`StochasticMpc::plan_with`]: fill the
    /// scratch's per-(step, rung) time-distribution table with one
    /// per-stream batched forward per step.  The cross-stream batch
    /// scheduler replaces this half — scattering rows from a
    /// [`Ttp::predict_time_distributions_batched_into`] call into
    /// [`PlanScratch::dists_for`] — and both halves feed the same
    /// [`StochasticMpc::plan_from_dists`].
    // lint: panic-free — step/rung offsets are multiples of the same stride that sizes scratch.dists
    // lint: alloc-free — dists/sizes grow once to horizon*stride; warm calls only overwrite (tests/alloc_gate.rs)
    pub fn fill_dists(&self, ctx: &AbrContext, ttp: &Ttp, scratch: &mut PlanScratch) {
        let horizon = ttp.horizon().min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let stride = n_rungs * N_BINS;
        scratch.dists.resize(horizon * stride, 0.0);
        for step in 0..horizon {
            scratch.sizes.clear();
            scratch.sizes.extend(ctx.lookahead[step].options.iter().map(|o| o.size));
            let out = &mut scratch.dists[step * stride..(step + 1) * stride];
            ttp.predict_time_distributions_into(
                step,
                ctx.history,
                &ctx.tcp_info,
                &scratch.sizes,
                &mut scratch.ttp,
                out,
            );
        }
    }

    /// The value-iteration half of [`StochasticMpc::plan_with`]: plan from
    /// the already-filled distribution table (see
    /// [`StochasticMpc::fill_dists`] / [`PlanScratch::dists_for`]).
    /// `ttp_horizon` is the predictor's horizon; the effective plan horizon
    /// is its minimum with the visible lookahead, exactly as before the
    /// split.  The point-estimate collapse (§4.6) happens here, per
    /// (step, rung) — order-independent, so collapsing after the fill is
    /// bit-identical to collapsing inside the fill loop.
    ///
    /// A forward pass marks the bins each step can be entered in; the
    /// backward pass evaluates only those (see the module docs).
    // lint: panic-free — value, W and reach-table indices are bounded by the horizon*rungs*bins dims sized at the top of the fn, and stall/next_bin rows by ensure_tables
    // lint: alloc-free — value and reach tables grow once per shape change; warm plans are allocation-free per tests/alloc_gate.rs
    pub fn plan_from_dists(
        &self,
        ctx: &AbrContext,
        ttp_horizon: usize,
        scratch: &mut PlanScratch,
    ) -> usize {
        let horizon = ttp_horizon.min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let grid = BufferGrid::new(self.config.buffer_bins);
        let bins = grid.bins();
        let mu = self.config.qoe.mu;
        let lambda = self.config.qoe.lambda;
        let stride = n_rungs * N_BINS;
        assert!(scratch.dists.len() >= horizon * stride, "fill dists before planning");

        scratch.ensure_tables(grid);

        if self.config.point_estimate {
            for step in 0..horizon {
                let out = &mut scratch.dists[step * stride..(step + 1) * stride];
                for a in 0..n_rungs {
                    let d = &mut out[a * N_BINS..(a + 1) * N_BINS];
                    // Argmax the f64 table directly: round-tripping through
                    // an intermediate Vec<f32> (as this used to) can flip
                    // near-ties and costs an allocation per rung.
                    let mle = argmax(d);
                    d.fill(0.0);
                    d[mle] = 1.0;
                }
            }
        }

        // (Re)shape the tables.  `reach` starts cleared; every other entry
        // the DP reads is written earlier in the same call.
        scratch.value.resize(bins * n_rungs, 0.0);
        scratch.next_value.resize(bins * n_rungs, 0.0);
        scratch.w.resize(n_rungs * bins, 0.0);
        scratch.m.resize(n_rungs * n_rungs, 0.0);
        scratch.reach.clear();
        scratch.reach.resize(horizon * bins, false);
        scratch.live.clear();
        scratch.live.reserve(bins);
        scratch.support.resize(horizon * N_BINS, 0);
        scratch.n_support.resize(horizon, 0);

        // Forward pass, through each time bin that some rung of a step gives
        // non-skipped mass — a superset of the `value` entries the backward
        // pass and step 0 read.  Taking the union across rungs first keeps
        // the pass at O(reachable bins × supported time bins) per step, and
        // the landing bins come from the `next_bin` table, whose entries are
        // `grid.next_bin(grid.level(bin), bin_midpoint(b))`.
        for step in 0..horizon.saturating_sub(1) {
            let mut supported = [false; N_BINS];
            for d in scratch.dists[step * stride..(step + 1) * stride].chunks_exact(N_BINS) {
                for (s, &p) in supported.iter_mut().zip(d) {
                    if p < PROB_EPSILON {
                        continue;
                    }
                    *s = true;
                }
            }
            let row = &mut scratch.support[step * N_BINS..(step + 1) * N_BINS];
            let mut n = 0;
            for (b, _) in supported.iter().enumerate().filter(|&(_, &s)| s) {
                row[n] = b;
                n += 1;
            }
            scratch.n_support[step] = n;
        }
        let (support, n_support, next_bin) =
            (&scratch.support, &scratch.n_support, &scratch.next_bin);
        grid.mark_reach(
            &mut scratch.reach,
            |step| &support[step * N_BINS..step * N_BINS + n_support[step]],
            |&b| grid.next_bin(ctx.buffer, bin_midpoint(b)),
            |bin, &b| next_bin[b * bins + bin],
        );

        // Backward value iteration over the marked (buffer bin, previous
        // rung) states.
        for step in (1..horizon).rev() {
            let menu = &ctx.lookahead[step];
            let prev_menu = &ctx.lookahead[step - 1];
            let dists_step = &scratch.dists[step * stride..(step + 1) * stride];
            scratch.live.clear();
            scratch.live.extend((0..bins).filter(|&bin| scratch.reach[step * bins + bin]));

            // W[a][bin]: expected (−µ·stall + value-to-go).
            scratch.w.fill(0.0);
            for a in 0..n_rungs {
                let wa = &mut scratch.w[a * bins..(a + 1) * bins];
                let da = &dists_step[a * N_BINS..(a + 1) * N_BINS];
                for (b, &p) in da.iter().enumerate() {
                    if p < PROB_EPSILON {
                        continue;
                    }
                    let stall_row = &scratch.stall[b * bins..(b + 1) * bins];
                    if step + 1 < horizon {
                        let nb_row = &scratch.next_bin[b * bins..(b + 1) * bins];
                        for &bin in &scratch.live {
                            let to_go = scratch.value[nb_row[bin] * n_rungs + a];
                            wa[bin] += p * (to_go - mu * stall_row[bin]);
                        }
                    } else {
                        for &bin in &scratch.live {
                            wa[bin] += p * (0.0 - mu * stall_row[bin]);
                        }
                    }
                }
            }
            // M[a][prev]: quality minus variation penalty.
            for (a, opt) in menu.options.iter().enumerate() {
                let ma = &mut scratch.m[a * n_rungs..(a + 1) * n_rungs];
                for (prev, popt) in prev_menu.options.iter().enumerate() {
                    ma[prev] = opt.ssim_db - lambda * (opt.ssim_db - popt.ssim_db).abs();
                }
            }
            for &bin in &scratch.live {
                for prev in 0..n_rungs {
                    let mut best = f64::NEG_INFINITY;
                    for a in 0..n_rungs {
                        let score = scratch.m[a * n_rungs + prev] + scratch.w[a * bins + bin];
                        if score > best {
                            best = score;
                        }
                    }
                    scratch.next_value[bin * n_rungs + prev] = best;
                }
            }
            std::mem::swap(&mut scratch.value, &mut scratch.next_value);
        }

        // Step 0 with the true buffer and previous-chunk quality.
        let menu = &ctx.lookahead[0];
        let mut best_rung = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (a, opt) in menu.options.iter().enumerate() {
            let quality = self.config.qoe.chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, 0.0);
            let mut expect = 0.0;
            for (b, &p) in scratch.dists[a * N_BINS..(a + 1) * N_BINS].iter().enumerate() {
                if p < PROB_EPSILON {
                    continue;
                }
                let t = bin_midpoint(b);
                let stall = (t - ctx.buffer).max(0.0);
                let to_go = if horizon > 1 {
                    scratch.value[grid.next_bin(ctx.buffer, t) * n_rungs + a]
                } else {
                    0.0
                };
                expect += p * (quality - mu * stall + to_go);
            }
            if expect > best_score {
                best_score = expect;
                best_rung = a;
            }
        }
        best_rung
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{ChunkObservation, Dataset};
    use crate::training::{train, TrainConfig};
    use crate::ttp::{Ttp, TtpConfig};
    use puffer_abr::ChunkRecord;
    use puffer_media::{ChunkMenu, ChunkOption, CHUNK_SECONDS, MAX_BUFFER_SECONDS};
    use puffer_net::TcpInfo;
    use rand::SeedableRng;

    fn menus(h: usize) -> Vec<ChunkMenu> {
        (0..h)
            .map(|i| ChunkMenu {
                index: i as u64,
                options: [0.2e6, 1.0e6, 3.0e6, 5.5e6]
                    .iter()
                    .enumerate()
                    .map(|(r, &bps)| ChunkOption {
                        size: bps / 8.0 * CHUNK_SECONDS,
                        ssim_db: 8.0 + 3.0 * r as f64,
                    })
                    .collect(),
            })
            .collect()
    }

    fn tcp(rate: f64) -> TcpInfo {
        TcpInfo { cwnd: 20.0, in_flight: 1.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: rate }
    }

    fn history(rate: f64) -> Vec<ChunkRecord> {
        (0..8).map(|_| ChunkRecord { size: rate, transmission_time: 1.0 }).collect()
    }

    /// Train a TTP on a world where time ≈ size/delivery_rate + 50 ms with
    /// multiplicative noise, so its predictions are meaningful (and genuinely
    /// uncertain) for controller tests.  Shared across tests — training in
    /// debug builds is slow.
    fn trained_ttp() -> &'static Ttp {
        use std::sync::OnceLock;
        static TTP: OnceLock<Ttp> = OnceLock::new();
        TTP.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut data = Dataset::new();
            use rand::Rng;
            for _ in 0..50 {
                let rate = 40_000.0 + 1_500_000.0 * rng.random::<f64>();
                let stream: Vec<ChunkObservation> = (0..20)
                    .map(|_| {
                        let size = 50_000.0 + 1_400_000.0 * rng.random::<f64>();
                        let noise = 0.6 + 0.8 * rng.random::<f64>();
                        ChunkObservation {
                            size,
                            transmission_time: size / rate * noise + 0.05,
                            tcp_info: tcp(rate),
                        }
                    })
                    .collect();
                data.add_stream(1, stream);
            }
            let mut ttp = Ttp::new(TtpConfig::default(), 11);
            let cfg =
                TrainConfig { epochs: 4, max_samples_per_step: 4000, ..TrainConfig::default() };
            train(&mut ttp, &data, 1, &cfg, &mut rng).unwrap();
            ttp
        })
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn fast_path_full_buffer_gets_high_quality() {
        let ttp = trained_ttp();
        let m = menus(5);
        let h = history(1_400_000.0);
        let ctx = AbrContext {
            buffer: 12.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(1_400_000.0),
        };
        let rung = StochasticMpc::default().plan(&ctx, ttp);
        assert!(rung >= 2, "fast path should pick a high rung, got {rung}");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn slow_path_low_buffer_is_conservative() {
        let ttp = trained_ttp();
        let m = menus(5);
        let h = history(60_000.0);
        let ctx = AbrContext {
            buffer: 1.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(60_000.0),
        };
        let rung = StochasticMpc::default().plan(&ctx, ttp);
        assert_eq!(rung, 0, "slow path + shallow buffer must pick the bottom rung");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn buffer_level_changes_the_decision() {
        let ttp = trained_ttp();
        let m = menus(5);
        // Rate where the top rung is marginal: ~0.7 MB/s (top chunk 1.37 MB
        // takes ~2 s).
        let h = history(700_000.0);
        let plan_at = |buffer: f64| {
            let ctx = AbrContext {
                buffer,
                prev_ssim_db: None,
                prev_rung: None,
                lookahead: &m,
                history: &h,
                tcp_info: tcp(700_000.0),
            };
            StochasticMpc::default().plan(&ctx, ttp)
        };
        assert!(plan_at(0.5) <= plan_at(13.0), "deeper buffer must not reduce quality");
        assert!(plan_at(0.5) < 3, "shallow buffer should not gamble on the top rung");
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn point_estimate_differs_from_probabilistic_under_uncertainty() {
        // A trained TTP on noisy data produces genuinely-spread
        // distributions; collapsing them to the MLE bin discards tail risk.
        // Scan a grid of (buffer, rate) contexts and require (a) at least one
        // decision to differ and (b) the probabilistic controller to be at
        // least as cautious on average (§4.6: the deployed point-estimate
        // Fugu had 3–9× worse rebuffering).
        let ttp = trained_ttp();
        let m = menus(5);
        let prob = StochasticMpc::default();
        let point = StochasticMpc::new(ControllerConfig {
            point_estimate: true,
            ..ControllerConfig::default()
        });
        let mut differs = 0usize;
        let mut prob_sum = 0usize;
        let mut point_sum = 0usize;
        for bi in 0..8 {
            for ri in 0..10 {
                let buffer = 0.5 + 1.5 * bi as f64;
                let rate = 60_000.0 + 130_000.0 * ri as f64;
                let h = history(rate);
                let ctx = AbrContext {
                    buffer,
                    prev_ssim_db: Some(12.0),
                    prev_rung: Some(1),
                    lookahead: &m,
                    history: &h,
                    tcp_info: tcp(rate),
                };
                let a = prob.plan(&ctx, ttp);
                let b = point.plan(&ctx, ttp);
                prob_sum += a;
                point_sum += b;
                if a != b {
                    differs += 1;
                }
            }
        }
        assert!(differs > 0, "MLE collapse should change some decision");
        assert!(
            prob_sum <= point_sum + 5,
            "probabilistic planning should not be much more aggressive: {prob_sum} vs {point_sum}"
        );
    }

    /// A deliberately naive reference implementation of the §4.4 recursion
    /// over a given distribution table (the [`PlanScratch::dists_for`]
    /// layout), written straight from the formula to validate the optimized
    /// planner.  It sweeps every buffer bin at every step, sums every time
    /// bin's mass (no `PROB_EPSILON` skip), evaluates the full `chunk_qoe`
    /// with its stall inside the expectation (no M + W split), and computes
    /// the post-transfer buffer inline.  Only the bin↔level mapping comes
    /// from [`BufferGrid`].  The probabilistic planner only: no
    /// point-estimate collapse.
    fn naive_plan(
        cfg: &ControllerConfig,
        ctx: &AbrContext,
        ttp_horizon: usize,
        dists: &[f64],
    ) -> usize {
        assert!(!cfg.point_estimate, "the naive oracle plans with full distributions");
        let horizon = ttp_horizon.min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let grid = BufferGrid::new(cfg.buffer_bins);
        let dist = |step: usize, a: usize| &dists[(step * n_rungs + a) * N_BINS..][..N_BINS];
        let after =
            |buffer: f64, t: f64| ((buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS);
        let mut value = vec![vec![0.0f64; n_rungs]; grid.bins()];
        for step in (1..horizon).rev() {
            let menu = &ctx.lookahead[step];
            let prev_menu = &ctx.lookahead[step - 1];
            let mut next = vec![vec![f64::NEG_INFINITY; n_rungs]; grid.bins()];
            for (bin, next_row) in next.iter_mut().enumerate() {
                let buffer = grid.level(bin);
                for (prev, best) in next_row.iter_mut().enumerate() {
                    for (a, opt) in menu.options.iter().enumerate() {
                        let mut e = 0.0;
                        for (b, &p) in dist(step, a).iter().enumerate() {
                            let t = bin_midpoint(b);
                            let stall = (t - buffer).max(0.0);
                            let q = cfg.qoe.chunk_qoe(
                                opt.ssim_db,
                                Some(prev_menu.options[prev].ssim_db),
                                stall,
                            );
                            let to_go = if step + 1 < horizon {
                                value[grid.bin_of(after(buffer, t))][a]
                            } else {
                                0.0
                            };
                            e += p * (q + to_go);
                        }
                        if e > *best {
                            *best = e;
                        }
                    }
                }
            }
            value = next;
        }
        let menu = &ctx.lookahead[0];
        let mut best = (0usize, f64::NEG_INFINITY);
        for (a, opt) in menu.options.iter().enumerate() {
            let mut e = 0.0;
            for (b, &p) in dist(0, a).iter().enumerate() {
                let t = bin_midpoint(b);
                let stall = (t - ctx.buffer).max(0.0);
                let q = cfg.qoe.chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, stall);
                let to_go =
                    if horizon > 1 { value[grid.bin_of(after(ctx.buffer, t))][a] } else { 0.0 };
                e += p * (q + to_go);
            }
            if e > best.1 {
                best = (a, e);
            }
        }
        best.0
    }

    /// The planner's arithmetic without its pruning: the §4.4 recursion
    /// swept densely over every buffer bin at every step, with nested `Vec`
    /// tables and the stall and post-transfer bin recomputed inline, over a
    /// given distribution table it never mutates.  It keeps the planner's
    /// M + W split, `PROB_EPSILON` skip, point-estimate collapse and strict
    /// `>` argmax, so the two agree bit for bit, on ties and NaN masses too.
    /// [`naive_plan`] checks that arithmetic against the formula; this one
    /// checks the forward pass and the pruned backward pass.
    fn dense_plan(
        cfg: &ControllerConfig,
        ctx: &AbrContext,
        ttp_horizon: usize,
        dists: &[f64],
    ) -> usize {
        let horizon = ttp_horizon.min(ctx.lookahead.len());
        let n_rungs = ctx.n_rungs();
        let grid = BufferGrid::new(cfg.buffer_bins);
        let (mu, lambda) = (cfg.qoe.mu, cfg.qoe.lambda);
        let dist = |step: usize, a: usize| -> Vec<f64> {
            let row = &dists[(step * n_rungs + a) * N_BINS..][..N_BINS];
            if !cfg.point_estimate {
                return row.to_vec();
            }
            let mut one_hot = vec![0.0; N_BINS];
            one_hot[argmax(row)] = 1.0;
            one_hot
        };
        let mut value = vec![vec![0.0f64; n_rungs]; grid.bins()];
        for step in (1..horizon).rev() {
            let menu = &ctx.lookahead[step];
            let prev_menu = &ctx.lookahead[step - 1];
            let mut next = vec![vec![f64::NEG_INFINITY; n_rungs]; grid.bins()];
            for (bin, next_row) in next.iter_mut().enumerate() {
                let buffer = grid.level(bin);
                for (prev, best) in next_row.iter_mut().enumerate() {
                    let prev_ssim = prev_menu.options[prev].ssim_db;
                    for (a, opt) in menu.options.iter().enumerate() {
                        let m = opt.ssim_db - lambda * (opt.ssim_db - prev_ssim).abs();
                        let mut w = 0.0;
                        for (b, p) in dist(step, a).into_iter().enumerate() {
                            if p < PROB_EPSILON {
                                continue;
                            }
                            let t = bin_midpoint(b);
                            let stall = (t - buffer).max(0.0);
                            let to_go = if step + 1 < horizon {
                                value[grid.next_bin(buffer, t)][a]
                            } else {
                                0.0
                            };
                            w += p * (to_go - mu * stall);
                        }
                        if m + w > *best {
                            *best = m + w;
                        }
                    }
                }
            }
            value = next;
        }
        let menu = &ctx.lookahead[0];
        let mut best = (0usize, f64::NEG_INFINITY);
        for (a, opt) in menu.options.iter().enumerate() {
            let quality = cfg.qoe.chunk_qoe(opt.ssim_db, ctx.prev_ssim_db, 0.0);
            let mut e = 0.0;
            for (b, p) in dist(0, a).into_iter().enumerate() {
                if p < PROB_EPSILON {
                    continue;
                }
                let t = bin_midpoint(b);
                let stall = (t - ctx.buffer).max(0.0);
                let to_go = if horizon > 1 { value[grid.next_bin(ctx.buffer, t)][a] } else { 0.0 };
                e += p * (quality - mu * stall + to_go);
            }
            if e > best.1 {
                best = (a, e);
            }
        }
        best.0
    }

    /// The TTP's distributions for `ctx`, one unbatched query per
    /// (step, rung), in the [`PlanScratch::dists_for`] layout.
    fn ttp_dists(ctx: &AbrContext, ttp: &Ttp) -> Vec<f64> {
        let horizon = ttp.horizon().min(ctx.lookahead.len());
        let mut dists = Vec::new();
        for step in 0..horizon {
            for opt in &ctx.lookahead[step].options {
                dists.extend(ttp.predict_time_distribution(
                    step,
                    ctx.history,
                    &ctx.tcp_info,
                    opt.size,
                ));
            }
        }
        dists
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn optimized_planner_matches_naive_reference() {
        let ttp = trained_ttp();
        let m = menus(5);
        let planner = StochasticMpc::default();
        // One scratch reused across every context: stale tables from earlier
        // decisions must never influence later ones.
        let mut scratch = PlanScratch::new();
        let mut checked = 0;
        for bi in 0..5 {
            for ri in 0..6 {
                let buffer = 0.5 + 2.8 * bi as f64;
                let rate = 80_000.0 + 220_000.0 * ri as f64;
                let h = history(rate);
                let ctx = AbrContext {
                    buffer,
                    prev_ssim_db: Some(13.0),
                    prev_rung: Some(2),
                    lookahead: &m,
                    history: &h,
                    tcp_info: tcp(rate),
                };
                let fast = planner.plan(&ctx, ttp);
                let slow = naive_plan(&planner.config, &ctx, ttp.horizon(), &ttp_dists(&ctx, ttp));
                assert_eq!(fast, slow, "buffer={buffer} rate={rate}");
                let scratched = planner.plan_with(&ctx, ttp, &mut scratch);
                assert_eq!(scratched, fast, "scratch reuse, buffer={buffer} rate={rate}");
                checked += 1;
            }
        }
        assert_eq!(checked, 30);
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn scratch_survives_changing_shapes() {
        // Alternate between lookahead lengths and buffer discretizations with
        // one scratch; every answer must match a fresh allocation's.
        let ttp = trained_ttp();
        let mut scratch = PlanScratch::new();
        let h = history(500_000.0);
        for (len, bins) in [(5usize, 61usize), (2, 61), (5, 31), (3, 121), (5, 61)] {
            let m = menus(len);
            let ctx = AbrContext {
                buffer: 4.0,
                prev_ssim_db: Some(11.0),
                prev_rung: Some(1),
                lookahead: &m,
                history: &h,
                tcp_info: tcp(500_000.0),
            };
            let planner = StochasticMpc::new(ControllerConfig {
                buffer_bins: bins,
                ..ControllerConfig::default()
            });
            assert_eq!(
                planner.plan_with(&ctx, ttp, &mut scratch),
                planner.plan(&ctx, ttp),
                "lookahead={len} bins={bins}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "trains a TTP on the fly; minutes-long under Miri")]
    fn horizon_respects_lookahead_length() {
        let ttp = trained_ttp();
        let m = menus(2); // shorter than the TTP's 5-step horizon
        let h = history(800_000.0);
        let ctx = AbrContext {
            buffer: 8.0,
            prev_ssim_db: None,
            prev_rung: None,
            lookahead: &m,
            history: &h,
            tcp_info: tcp(800_000.0),
        };
        // Must not panic and must return a valid rung.
        let rung = StochasticMpc::default().plan(&ctx, ttp);
        assert!(rung < 4);
    }

    /// Overwrite `row` with a random time distribution: all zero, dense, or
    /// 1–5 adjacent bins whose masses sit just below, at or just above
    /// `PROB_EPSILON` or are ordinary — sometimes with a NaN mass.
    #[cfg(not(miri))]
    fn random_row(rng: &mut proptest::TestRng, row: &mut [f64]) {
        row.fill(0.0);
        match rng.below(8) {
            0 => {}
            1 => row.iter_mut().for_each(|p| *p = rng.unit_f64()),
            kind => {
                let width = 1 + rng.below(5) as usize;
                let first = rng.below((N_BINS - width + 1) as u64) as usize;
                for p in &mut row[first..first + width] {
                    *p = match rng.below(5) {
                        0 => PROB_EPSILON.next_down(),
                        1 => PROB_EPSILON,
                        2 => PROB_EPSILON.next_up(),
                        _ => rng.unit_f64(),
                    };
                }
                if kind == 7 {
                    row[first] = f64::NAN;
                }
            }
        }
    }

    #[cfg(not(miri))]
    thread_local! {
        /// One scratch for every case of the proptest below, so tables that
        /// an earlier case shaped and filled stay behind.
        static SHARED_SCRATCH: std::cell::RefCell<PlanScratch> =
            std::cell::RefCell::new(PlanScratch::new());
    }

    // Skipped under Miri: 200 dense reference recursions are minutes-long in
    // an interpreter, and the planner has no unsafe code for Miri to check.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 200,
            ..proptest::ProptestConfig::default()
        })]

        /// `plan_from_dists`, filled through `dists_for` as the cross-stream
        /// wave fills it, chooses the dense reference's rung on arbitrary
        /// tables: sparse rows with masses around `PROB_EPSILON`, all-zero
        /// rows, NaN masses, lookaheads shorter than the TTP horizon, buffers
        /// of exactly 0 and 15 s, three grids, and both point-estimate modes.
        #[test]
        fn plan_from_dists_matches_dense_reference(
            len in 1usize..6,
            n_rungs in 1usize..11,
            buffer_kind in 0u64..4,
            bins_kind in 0usize..3,
            point_estimate in proptest::any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let buffer = match buffer_kind {
                0 => 0.0,
                1 => MAX_BUFFER_SECONDS,
                _ => MAX_BUFFER_SECONDS * rng.unit_f64(),
            };
            let bins = [61, 31, 2][bins_kind];
            let menus: Vec<ChunkMenu> = (0..len)
                .map(|i| ChunkMenu {
                    index: i as u64,
                    options: (0..n_rungs)
                        .map(|_| ChunkOption {
                            size: 1e5 * (1.0 + rng.unit_f64()),
                            ssim_db: 4.0 + 16.0 * rng.unit_f64(),
                        })
                        .collect(),
                })
                .collect();
            let h = history(500_000.0);
            let ctx = AbrContext {
                buffer,
                prev_ssim_db: if rng.below(2) == 0 { None } else { Some(12.0) },
                prev_rung: None,
                lookahead: &menus,
                history: &h,
                tcp_info: tcp(500_000.0),
            };
            let ttp_horizon = TtpConfig::default().horizon;
            let horizon = ttp_horizon.min(len);
            let mut table = vec![0.0; horizon * n_rungs * N_BINS];
            for row in table.chunks_exact_mut(N_BINS) {
                random_row(&mut rng, row);
            }
            let planner = StochasticMpc::new(ControllerConfig {
                buffer_bins: bins,
                point_estimate,
                ..ControllerConfig::default()
            });
            let slow = dense_plan(&planner.config, &ctx, ttp_horizon, &table);
            let fast = SHARED_SCRATCH.with(|shared| {
                let scratch = &mut *shared.borrow_mut();
                // Poison the value tables: reading an entry the forward pass
                // did not mark would swing the decision.
                for table in [&mut scratch.value, &mut scratch.next_value] {
                    table.clear();
                    table.resize(bins * n_rungs, 1e300);
                }
                scratch.dists_for(horizon, n_rungs).copy_from_slice(&table);
                planner.plan_from_dists(&ctx, ttp_horizon, scratch)
            });
            proptest::prop_assert_eq!(
                fast, slow,
                "len={} rungs={} buffer={} bins={} point_estimate={}",
                len, n_rungs, buffer, bins, point_estimate
            );
        }
    }
}
