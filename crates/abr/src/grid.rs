//! The discretized playback buffer both value-iteration planners share.
//!
//! MPC-HM / RobustMPC-HM ([`crate::mpc`]) and Fugu's stochastic MPC
//! (`fugu::controller`) evaluate their recursion over buffer bins spaced
//! evenly on [0, [`MAX_BUFFER_SECONDS`]].  Each planner runs a forward pass
//! (the shared [`BufferGrid::mark_reach`]) that marks the bins the real
//! buffer can reach and a backward pass that evaluates only those bins.
//! Both passes, in both planners and in their
//! reference oracles, map buffers to bins through this one type, so a
//! forward pass and the DP it prunes can never disagree on a bin.

use puffer_media::{CHUNK_SECONDS, MAX_BUFFER_SECONDS};

/// `bins` buffer levels, `0, w, 2w, …, MAX_BUFFER_SECONDS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferGrid {
    bins: usize,
    bin_w: f64,
}

impl BufferGrid {
    /// A grid of `bins ≥ 2` levels.
    pub fn new(bins: usize) -> Self {
        debug_assert!(bins >= 2, "need at least 2 buffer bins");
        BufferGrid { bins, bin_w: MAX_BUFFER_SECONDS / (bins - 1) as f64 }
    }

    /// Number of buffer levels.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// The buffer level of `bin`, in seconds.
    pub fn level(&self, bin: usize) -> f64 {
        bin as f64 * self.bin_w
    }

    /// The nearest bin to `buffer` seconds (clamped to the top bin).
    pub fn bin_of(&self, buffer: f64) -> usize {
        let scaled: f64 = buffer / self.bin_w;
        (scaled.round() as usize).min(self.bins - 1)
    }

    /// The bin the buffer lands in after a `t`-second transfer that starts
    /// from `buffer` seconds: it drains by `t` (not below zero), gains one
    /// chunk, and is capped at [`MAX_BUFFER_SECONDS`].
    pub fn next_bin(&self, buffer: f64, t: f64) -> usize {
        self.bin_of(((buffer - t).max(0.0) + CHUNK_SECONDS).min(MAX_BUFFER_SECONDS))
    }

    /// The forward pass of both planners: mark every bin each step of a plan
    /// can be entered in.  `reach` holds one cleared row of `bins` flags per
    /// step.  Step 1 is entered from the real buffer, through the bin
    /// `from_start(x)` for every transfer `x` in `transfers(0)`; step `s + 1`
    /// from every marked bin `bin` of step `s`, through `from_bin(bin, x)`
    /// for every `x` in `transfers(s)`.  Row 0 is left alone: step 0 is the
    /// real buffer.  A planner passes its transfer times, or indices into a
    /// table of them, and the landing bins [`BufferGrid::next_bin`] gives.
    // lint: panic-free — landing bins come from next_bin, which clamps below `bins`, the width of every reach row
    pub fn mark_reach<'t, X: 't>(
        &self,
        reach: &mut [bool],
        transfers: impl Fn(usize) -> &'t [X],
        from_start: impl Fn(&X) -> usize,
        from_bin: impl Fn(usize, &X) -> usize,
    ) {
        let mut rows = reach.chunks_exact_mut(self.bins);
        let Some(mut here) = rows.next() else { return };
        for (step, next) in rows.enumerate() {
            if step == 0 {
                for x in transfers(step) {
                    next[from_start(x)] = true;
                }
            } else {
                for (bin, _) in here.iter().enumerate().filter(|&(_, &r)| r) {
                    for x in transfers(step) {
                        next[from_bin(bin, x)] = true;
                    }
                }
            }
            here = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_round_trip_and_clamp() {
        let grid = BufferGrid::new(61);
        for bin in 0..61 {
            assert_eq!(grid.bin_of(grid.level(bin)), bin);
        }
        assert_eq!(grid.level(60), MAX_BUFFER_SECONDS);
        assert_eq!(grid.bin_of(1e9), 60);
        assert_eq!(grid.next_bin(0.0, 100.0), grid.bin_of(CHUNK_SECONDS));
        assert_eq!(grid.next_bin(MAX_BUFFER_SECONDS, 0.0), 60);
    }

    #[test]
    fn mark_reach_follows_every_transfer_from_the_start() {
        let grid = BufferGrid::new(61);
        let times = [[0.0, 1.0], [0.5, 0.5], [9.0, 9.0]];
        let mut reach = vec![false; 4 * 61];
        grid.mark_reach(
            &mut reach,
            |step| &times[step],
            |&t| grid.next_bin(3.0, t),
            |bin, &t| grid.next_bin(grid.level(bin), t),
        );
        let marked =
            |step: usize| -> Vec<usize> { (0..61).filter(|&bin| reach[step * 61 + bin]).collect() };
        assert_eq!(marked(0), Vec::<usize>::new());
        let step1 = vec![grid.bin_of(2.0 + CHUNK_SECONDS), grid.bin_of(3.0 + CHUNK_SECONDS)];
        assert_eq!(marked(1), step1);
        let step2: Vec<usize> =
            step1.iter().map(|&bin| grid.bin_of(grid.level(bin) - 0.5 + CHUNK_SECONDS)).collect();
        assert_eq!(marked(2), step2);
        // Both drain to empty, then gain one chunk.
        assert_eq!(marked(3), vec![grid.bin_of(CHUNK_SECONDS)]);
    }
}
