//! Controller planning cost: the stochastic value iteration of §4.4 vs the
//! deterministic MPC it extends, per chunk decision.
//!
//! Both planners evaluate only the buffer bins the real buffer can reach, so
//! their cost depends on the buffer and on how many time bins carry mass.
//! The untrained-TTP cases spread mass over all 21 time bins at one buffer.
//! `fugu_plan_from_dists_serve_widths` gives each rung the number of
//! supported time bins measured on the `rctbench` `serve` workload (see
//! EXPERIMENTS.md), and `mpc_hm_choose_buffer_sweep` moves the buffer over
//! the whole 0–15 s range, as a stream's buffer does.

use criterion::{criterion_group, criterion_main, Criterion};
use fugu::{ControllerConfig, PlanScratch, StochasticMpc, Ttp, TtpConfig, N_BINS};
use puffer_abr::{Abr, AbrContext, ChunkRecord, Mpc};
use puffer_media::{ChunkMenu, VideoSource, MAX_BUFFER_SECONDS};
use puffer_net::TcpInfo;
use rand::SeedableRng;
use std::hint::black_box;

fn context_parts() -> (Vec<ChunkMenu>, Vec<ChunkRecord>, TcpInfo) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut src = VideoSource::puffer_default();
    let menus: Vec<ChunkMenu> = (0..5).map(|_| src.next_chunk(&mut rng)).collect();
    let history: Vec<ChunkRecord> = (0..8)
        .map(|i| ChunkRecord { size: 5e5 + 2e4 * i as f64, transmission_time: 0.7 })
        .collect();
    let info = TcpInfo { cwnd: 30.0, in_flight: 8.0, min_rtt: 0.04, rtt: 0.05, delivery_rate: 9e5 };
    (menus, history, info)
}

fn bench(c: &mut Criterion) {
    let (menus, history, info) = context_parts();
    let ctx = AbrContext {
        buffer: 7.3,
        prev_ssim_db: Some(15.2),
        prev_rung: Some(6),
        lookahead: &menus,
        history: &history,
        tcp_info: info,
    };

    // Steady state: the scratch is reused across decisions exactly as
    // `Fugu::choose` reuses it, so the measured cost is allocation-free.
    let ttp = Ttp::new(TtpConfig::default(), 1);
    let stochastic = StochasticMpc::default();
    let mut scratch = PlanScratch::new();
    c.bench_function("fugu_stochastic_plan", |b| {
        b.iter(|| black_box(stochastic.plan_with(black_box(&ctx), &ttp, &mut scratch)))
    });

    let point = StochasticMpc::new(ControllerConfig {
        point_estimate: true,
        ..ControllerConfig::default()
    });
    let mut scratch = PlanScratch::new();
    c.bench_function("fugu_point_estimate_plan", |b| {
        b.iter(|| black_box(point.plan_with(black_box(&ctx), &ttp, &mut scratch)))
    });

    // Per-rung counts of time bins with mass at or above the planner's skip
    // threshold: the deciles (5th, 15th, …, 95th percentile) of the counts
    // Fugu's planner saw on `rctbench --workload serve --seed 1`.  Each
    // rung's mass is spread evenly over that many adjacent bins, later bins
    // for bigger rungs, and the widths rotate across steps.  The table is
    // filled through `dists_for`, exactly as the cross-stream wave scatters
    // batched TTP rows.
    const SERVE_WIDTHS: [usize; 10] = [3, 5, 7, 9, 10, 13, 18, 21, 21, 21];
    let n_rungs = ctx.n_rungs();
    let mut scratch = PlanScratch::new();
    let table = scratch.dists_for(menus.len(), n_rungs);
    for (row, d) in table.chunks_exact_mut(N_BINS).enumerate() {
        let (step, a) = (row / n_rungs, row % n_rungs);
        let width = SERVE_WIDTHS[(a + 3 * step) % SERVE_WIDTHS.len()];
        let first = (N_BINS - width) * a / n_rungs;
        d.fill(0.0);
        d[first..first + width].fill(1.0 / width as f64);
    }
    c.bench_function("fugu_plan_from_dists_serve_widths", |b| {
        b.iter(|| {
            black_box(stochastic.plan_from_dists(black_box(&ctx), ttp.horizon(), &mut scratch))
        })
    });

    c.bench_function("mpc_hm_choose", |b| {
        let mut mpc = Mpc::mpc_hm();
        b.iter(|| black_box(mpc.choose(black_box(&ctx))))
    });

    // One decision per buffer level of a 0–15 s sweep, cycled.
    let sweep: Vec<AbrContext> = (0..61)
        .map(|i| AbrContext { buffer: MAX_BUFFER_SECONDS * i as f64 / 60.0, ..ctx.clone() })
        .collect();
    c.bench_function("mpc_hm_choose_buffer_sweep", |b| {
        let mut mpc = Mpc::mpc_hm();
        let mut next = sweep.iter().cycle();
        b.iter(|| black_box(mpc.choose(black_box(next.next().unwrap_or(&ctx)))))
    });

    c.bench_function("robust_mpc_choose", |b| {
        let mut mpc = Mpc::robust_mpc_hm();
        b.iter(|| black_box(mpc.choose(black_box(&ctx))))
    });

    // The retained naive planner, for an in-snapshot before/after of the
    // `MpcScratch` rewrite (same decision, allocating + unhoisted loops).
    c.bench_function("mpc_plan_reference", |b| {
        let mpc = Mpc::mpc_hm();
        b.iter(|| black_box(mpc.plan_reference(black_box(&ctx), black_box(9e5))))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
