//! Read the day archives back and compute per-arm statistics with the
//! streaming accumulators, as an analysis of the open-data archive would.
//!
//! Streams are contiguous runs of one `stream_id` in the `client_buffer`
//! rows: watch time is last-minus-first report time and stall is the final
//! cumulative rebuffer.  Per arm, considered streams (watch of at least
//! 4 s) feed a rebuffering `RatioAccumulator` and a `PoissonBootstrap` of
//! it; every sent chunk's SSIM feeds a `WeightedMeanAccumulator`.

use crate::timer::{Lane, Name, NONE};
use puffer_platform::{ArchiveReader, DecodedBlock, MIN_CONSIDERED_WATCH};
use puffer_stats::{PoissonBootstrap, RatioAccumulator, WeightedMeanAccumulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::PathBuf;

/// Bootstrap replicates per arm.
const N_BOOT: usize = 200;

/// One arm's statistics.
#[derive(Debug, Clone)]
pub struct ArmStats {
    pub stall: RatioAccumulator,
    pub stall_boot: PoissonBootstrap,
    pub ssim: WeightedMeanAccumulator,
}

impl ArmStats {
    /// The statistics as bit patterns, for the run fingerprint.
    pub fn words(&self) -> Vec<u64> {
        let mut w = vec![self.stall.n, self.stall.num.to_bits(), self.stall.den.to_bits()];
        if self.stall.n > 0 {
            let ci = self.stall_boot.ci(0.95);
            w.extend([ci.lo.to_bits(), ci.hi.to_bits()]);
        }
        w.extend([self.ssim.n(), self.ssim.mean().to_bits()]);
        w
    }
}

/// The stream being folded: `(stream_id, arm, first time, last time, rebuffer)`.
type Current = (u64, u32, f64, f64, f64);

struct Fold {
    arms: Vec<ArmStats>,
    rng: StdRng,
    current: Option<Current>,
}

impl Fold {
    fn close_stream(&mut self) {
        if let Some((_, arm, t0, t1, rebuf)) = self.current.take() {
            let watch = t1 - t0;
            if let Some(a) = self.arms.get_mut(arm as usize) {
                if watch >= MIN_CONSIDERED_WATCH {
                    a.stall.push(rebuf, watch);
                    a.stall_boot.push(rebuf, watch, &mut self.rng);
                }
            }
        }
    }

    fn block(&mut self, block: &DecodedBlock) {
        for d in &block.video_sent {
            if let Some(a) = self.arms.get_mut(d.expt_id as usize) {
                a.ssim.push(d.ssim_index, 1.0);
            }
        }
        for d in &block.client_buffer {
            match self.current.as_mut() {
                Some((id, _, _, t1, rebuf)) if *id == d.stream_id => {
                    *t1 = d.time;
                    *rebuf = d.cum_rebuf;
                }
                _ => {
                    self.close_stream();
                    self.current = Some((d.stream_id, d.expt_id, d.time, d.time, d.cum_rebuf));
                }
            }
        }
    }
}

/// Fold the archives at `paths` into per-arm statistics.  Decoding is
/// booked to `archive.read`, folding to `stats.analyze`.
pub fn analyze(
    paths: &[PathBuf],
    n_arms: usize,
    seed: u64,
    lane: &mut Lane,
) -> io::Result<Vec<ArmStats>> {
    let arms = (0..n_arms)
        .map(|_| ArmStats {
            stall: RatioAccumulator::default(),
            stall_boot: PoissonBootstrap::new(N_BOOT),
            ssim: WeightedMeanAccumulator::default(),
        })
        .collect();
    let mut fold =
        Fold { arms, rng: StdRng::seed_from_u64(seed ^ 0x005e_ed0f_a7c1), current: None };
    for path in paths {
        let mut reader = lane.time(Name::ArchiveRead, NONE, || {
            ArchiveReader::new(io::BufReader::new(std::fs::File::open(path)?))
        })?;
        loop {
            let open = lane.open(Name::ArchiveRead, NONE);
            let block = reader.next_block();
            lane.close(open);
            let Some(block) = block? else { break };
            lane.time(Name::StatsAnalyze, NONE, || fold.block(block));
        }
        fold.close_stream();
    }
    Ok(fold.arms)
}
