//! Sessions: many streams over one TCP connection.
//!
//! "A 'session' represents one visit to the Puffer video player and may
//! contain many 'streams.'  Reloading starts a new session, but changing
//! channels only starts a new stream and does not change TCP connections or
//! ABR algorithms" (Fig. A1).  The primary experiment randomized 337,170
//! sessions carrying 1,595,356 streams — about 4.7 streams per session.

use crate::stream::{QuitReason, StreamClock, StreamConfig, StreamOutcome, StreamRun};
use crate::user::UserModel;
use puffer_abr::{Abr, AbrContext};
use puffer_media::VideoSource;
use puffer_net::{CongestionControl, Connection};
use puffer_trace::TraceBank;
use rand::SeedableRng;

/// Gap between a channel change and the first send of the new stream
/// (player teardown/setup on the same WebSocket), seconds.
const CHANNEL_SWITCH_GAP: f64 = 0.25;

/// Everything one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Stream outcomes in order.
    pub streams: Vec<StreamOutcome>,
    /// Total time on the video player, seconds (Fig. 10's quantity).
    pub total_time: f64,
    /// Mean bottleneck trace rate, bytes/s (diagnostics).
    pub path_mean_rate: f64,
    /// Path class name (diagnostics).
    pub path_class: &'static str,
}

/// One session as a resumable state machine over [`StreamRun`]s.
///
/// Same suspend/resume protocol as [`StreamRun`], lifted a level: between
/// [`SessionRun::poll_decision`] returning `true` and
/// [`SessionRun::advance`], the session sits at one chunk decision of its
/// current stream, and a scheduler may answer many sessions' staged
/// decisions with one batched TTP pass (`crate::batch`).  Stream turnover —
/// finalizing an ended stream, drawing the next stream intent, resetting the
/// ABR — happens inside `poll_decision`, in the same order (and with the
/// same `rng` consumption) as the old `run_session` loop, so the rebuilt
/// [`run_session`] is bit-identical to the original.
#[derive(Debug)]
pub struct SessionRun {
    rng: rand::rngs::StdRng,
    conn: Connection,
    base_stream_cfg: StreamConfig,
    session_id: u64,
    path_mean_rate: f64,
    path_class: &'static str,
    streams: Vec<StreamOutcome>,
    t: f64,
    remaining: f64,
    stream_seq: u64,
    current: Option<(StreamRun, VideoSource)>,
    finished: bool,
    /// Chunk decisions left before an injected panic
    /// ([`SessionRun::with_injected_panic`]); `None` on a healthy session.
    panic_in: Option<u32>,
}

impl SessionRun {
    /// Sample the session's path and open its connection; no stream starts
    /// until the first `poll_decision` (which needs the ABR for
    /// `reset_stream`).
    pub fn begin(
        bank: &TraceBank,
        user: &UserModel,
        cc: CongestionControl,
        base_stream_cfg: StreamConfig,
        session_id: u64,
        seed: u64,
    ) -> SessionRun {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let intent = user.session_intent(&mut rng);
        // The trace loops, so sampling a bounded horizon suffices even for
        // marathon sessions.
        let trace_horizon = (intent * 1.2 + 120.0).min(7200.0);
        let (path, trace) = bank.sample_session(trace_horizon, &mut rng);
        let queue_capacity = (path.buffer_seconds * path.base_rate).max(16_000.0);
        let conn = Connection::new(trace, path.min_rtt, queue_capacity, cc, 0.0);
        SessionRun {
            rng,
            conn,
            base_stream_cfg,
            session_id,
            path_mean_rate: path.base_rate,
            path_class: path.class.name(),
            streams: Vec::new(),
            t: 0.0,
            remaining: intent,
            stream_seq: 0,
            finished: false,
            current: None,
            panic_in: None,
        }
    }

    /// Arm the fault-injection harness's "session crashed mid-run" failure:
    /// once `after` chunk decisions have been staged, the next
    /// [`SessionRun::poll_decision`] panics with a
    /// [`crate::faults::InjectedPanic`] payload instead of staging another.
    /// A session that ends first completes normally.  This one check serves
    /// every driver — inline and batched — so the panic lands on the same
    /// decision either way.
    pub(crate) fn with_injected_panic(mut self, after: Option<u32>) -> SessionRun {
        self.panic_in = after;
        self
    }

    /// Advance to the session's next chunk decision, finalizing ended
    /// streams and starting new ones along the way.  Returns `true` with a
    /// decision staged (read it via [`SessionRun::context`], commit it via
    /// [`SessionRun::advance`]), or `false` when the session is over.
    pub fn poll_decision(&mut self, abr: &mut dyn Abr, user: &UserModel) -> bool {
        loop {
            if self.finished {
                return false;
            }
            if self.current.is_some() {
                {
                    let (stream, _) = self.current.as_mut().expect("checked above");
                    if stream.poll_decision(&self.conn) {
                        if let Some(left) = self.panic_in.as_mut() {
                            if *left == 0 {
                                std::panic::panic_any(crate::faults::InjectedPanic);
                            }
                            *left -= 1;
                        }
                        return true;
                    }
                }
                // The current stream is over: fold it into the session, in
                // the same order as the old loop's epilogue.
                let (stream, _source) = self.current.take().expect("checked above");
                let out = stream.finish();
                let end = out.end_time.max(self.t);
                let abandoned =
                    matches!(out.quit, QuitReason::AbandonedStall | QuitReason::AbandonedTail);
                self.streams.push(out);
                let consumed = (end - self.t).max(0.05);
                self.t = end + CHANNEL_SWITCH_GAP;
                self.remaining -= consumed + CHANNEL_SWITCH_GAP;
                self.stream_seq += 1;
                if abandoned {
                    self.finished = true; // the user left the site, not just the channel
                    return false;
                }
                continue;
            }
            if self.remaining <= 1.0 {
                self.finished = true;
                return false;
            }
            // Start the next stream (a channel change on the same
            // connection).
            let stream_intent = user.next_stream_intent(self.remaining, &mut self.rng);
            let mut source = VideoSource::puffer_default();
            abr.reset_stream();
            let cfg = StreamConfig {
                stream_id: self.session_id * 1000 + self.stream_seq,
                ..self.base_stream_cfg
            };
            let clock = StreamClock {
                intent: stream_intent,
                session_watch_before: self.t,
                start_time: self.t,
            };
            let stream = StreamRun::begin(&self.conn, &mut source, clock, &cfg, &mut self.rng);
            self.current = Some((stream, source));
        }
    }

    /// The ABR context of the staged decision.
    pub fn context(&self) -> AbrContext<'_> {
        let (stream, _) = self.current.as_ref().expect("poll_decision must stage a decision");
        stream.context()
    }

    /// Commit a rung for the staged decision.  Stream turnover (if this
    /// chunk ended the stream) happens on the next `poll_decision`.
    pub fn advance(&mut self, rung: usize, abr: &mut dyn Abr, user: &UserModel) {
        let (stream, source) = self.current.as_mut().expect("poll_decision must stage a decision");
        stream.advance(rung, &mut self.conn, source, abr, user, &mut self.rng);
    }

    /// Play the session out, letting `abr` choose every chunk — the
    /// synchronous driver behind [`run_session`] and the RCT's inline
    /// sessions.
    pub(crate) fn run_to_end(mut self, abr: &mut dyn Abr, user: &UserModel) -> SessionOutcome {
        while self.poll_decision(abr, user) {
            let rung = abr.choose(&self.context());
            self.advance(rung, abr, user);
        }
        self.finish()
    }

    /// Consume the machine into a [`SessionOutcome`].  Call only after
    /// [`SessionRun::poll_decision`] has returned `false`.
    pub fn finish(self) -> SessionOutcome {
        assert!(self.finished, "finish a session only after poll_decision returns false");
        debug_assert!(self.current.is_none(), "finished sessions hold no stream");
        SessionOutcome {
            streams: self.streams,
            total_time: self.t.max(0.0),
            path_mean_rate: self.path_mean_rate,
            path_class: self.path_class,
        }
    }
}

/// Run one session: sample a path, open a connection, and play streams until
/// the participant's session intent is exhausted or they abandon — the
/// synchronous driver over [`SessionRun`].
///
/// All randomness derives from `seed`, so sessions can run on any thread in
/// any order with identical results.
pub fn run_session(
    bank: &TraceBank,
    abr: &mut dyn Abr,
    user: &UserModel,
    cc: CongestionControl,
    base_stream_cfg: StreamConfig,
    session_id: u64,
    seed: u64,
) -> SessionOutcome {
    SessionRun::begin(bank, user, cc, base_stream_cfg, session_id, seed).run_to_end(abr, user)
}

#[cfg(test)]
mod tests {
    use super::*;
    use puffer_abr::Bba;

    fn run(seed: u64) -> SessionOutcome {
        let bank = TraceBank::puffer();
        let mut abr = Bba::default();
        let user = UserModel::default();
        run_session(
            &bank,
            &mut abr,
            &user,
            CongestionControl::Bbr,
            StreamConfig::default(),
            1,
            seed,
        )
    }

    #[test]
    fn sessions_contain_streams() {
        let mut total_streams = 0usize;
        for seed in 0..20 {
            let out = run(seed);
            assert!(!out.streams.is_empty());
            assert!(out.total_time > 0.0);
            total_streams += out.streams.len();
        }
        // Fig. A1: ~4.7 streams per session on average.  Allow a wide band.
        let mean = total_streams as f64 / 20.0;
        assert!((1.5..12.0).contains(&mean), "mean streams/session {mean}");
    }

    #[test]
    fn stream_ids_are_unique_within_session() {
        let out = run(3);
        // lint: order-insensitive — set only detects duplicate stream ids, never iterated
        let mut ids = std::collections::HashSet::new();
        for s in &out.streams {
            for v in &s.telemetry.video_sent {
                ids.insert(v.stream_id);
            }
        }
        let distinct_streams =
            out.streams.iter().filter(|s| !s.telemetry.video_sent.is_empty()).count();
        assert_eq!(ids.len(), distinct_streams);
    }

    #[test]
    fn some_streams_never_begin() {
        // Zap streams that end before the first chunk plays are the bulk of
        // Fig. A1's exclusions.
        let mut never = 0;
        let mut total = 0;
        for seed in 0..40 {
            let out = run(seed);
            for s in &out.streams {
                total += 1;
                if s.summary.is_none() {
                    never += 1;
                }
            }
        }
        let frac = never as f64 / total as f64;
        assert!((0.02..0.7).contains(&frac), "never-began fraction {frac} of {total}");
    }

    #[test]
    fn total_time_bounds_stream_times() {
        let out = run(9);
        let sum: f64 =
            out.streams.iter().filter_map(|s| s.summary.as_ref()).map(|s| s.watch_time).sum();
        assert!(sum <= out.total_time + 1.0, "watch {sum} vs session {}", out.total_time);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(77);
        let b = run(77);
        assert_eq!(a.streams.len(), b.streams.len());
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.path_class, b.path_class);
    }
}
