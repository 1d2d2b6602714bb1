//! Every wall-clock read of the benchmark, and the in-memory span recorder
//! of the traced run.
//!
//! Spans are kept per lane (one lane per driver thread: the main thread, and
//! one per day worker) and turned into the per-layer table when the run
//! ends.  A span records its name, start, end, parent span and the session
//! index it serves.  A span's self time is its duration minus the part its
//! child spans cover.

// lint: wall-clock — the benchmark measures real durations; no result reads them.
use std::time::Instant;

/// Wall-clock origin shared by every lane of one run.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        // lint: wall-clock — the benchmark's clock origin.
        Clock { epoch: Instant::now() }
    }

    /// Nanoseconds since the clock's origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the clock's origin.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Sentinel for "no parent span" and "serves no session".
pub const NONE: u32 = u32::MAX;

/// Span names.  Layer spans carry the module they time in their name;
/// structural spans only group layer spans, and their self time is the
/// driver's own glue, which `traced.coverage` counts as unexplained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    // Structural.
    Rct,
    Day,
    Worker,
    WaveRound,
    SessionInline,
    /// The main thread parked in the day-end join while workers run; not
    /// lane time (the workers' lanes cover that interval).
    Parked,
    // Layers.
    SessionOpen,
    SessionPoll,
    SessionAdvance,
    SessionFinish,
    AbrInstantiate,
    AbrChoose,
    TtpForward,
    ControllerPlan,
    WaveGatherScatter,
    ArchiveSpool,
    ArchiveMerge,
    ArchiveRead,
    DatasetAdd,
    TrainingTrain,
    TrainingGate,
    StatsAnalyze,
    ExperimentAssign,
    ExperimentAccount,
    ExperimentAggregate,
    ExperimentBarrierWait,
}

impl Name {
    pub const COUNT: usize = Name::ExperimentBarrierWait as usize + 1;

    pub fn label(self) -> &'static str {
        match self {
            Name::Rct => "rct",
            Name::Day => "day",
            Name::Worker => "worker",
            Name::WaveRound => "wave.round",
            Name::SessionInline => "session.inline",
            Name::Parked => "parked",
            Name::SessionOpen => "session.open",
            Name::SessionPoll => "session.poll",
            Name::SessionAdvance => "session.advance",
            Name::SessionFinish => "session.finish",
            Name::AbrInstantiate => "abr.instantiate",
            Name::AbrChoose => "abr.choose",
            Name::TtpForward => "ttp.forward",
            Name::ControllerPlan => "controller.plan",
            Name::WaveGatherScatter => "wave.gather_scatter",
            Name::ArchiveSpool => "archive.spool",
            Name::ArchiveMerge => "archive.merge",
            Name::ArchiveRead => "archive.read",
            Name::DatasetAdd => "dataset.add",
            Name::TrainingTrain => "training.train",
            Name::TrainingGate => "training.gate",
            Name::StatsAnalyze => "stats.analyze",
            Name::ExperimentAssign => "experiment.assign",
            Name::ExperimentAccount => "experiment.account",
            Name::ExperimentAggregate => "experiment.aggregate",
            Name::ExperimentBarrierWait => "experiment.barrier_wait",
        }
    }

    pub fn is_layer(self) -> bool {
        self >= Name::SessionOpen
    }

    /// The layer (module) a span's time is booked to.
    pub fn layer(self) -> &'static str {
        let label = self.label();
        label.split('.').next().unwrap_or(label)
    }
}

const ALL_NAMES: [Name; Name::COUNT] = [
    Name::Rct,
    Name::Day,
    Name::Worker,
    Name::WaveRound,
    Name::SessionInline,
    Name::Parked,
    Name::SessionOpen,
    Name::SessionPoll,
    Name::SessionAdvance,
    Name::SessionFinish,
    Name::AbrInstantiate,
    Name::AbrChoose,
    Name::TtpForward,
    Name::ControllerPlan,
    Name::WaveGatherScatter,
    Name::ArchiveSpool,
    Name::ArchiveMerge,
    Name::ArchiveRead,
    Name::DatasetAdd,
    Name::TrainingTrain,
    Name::TrainingGate,
    Name::StatsAnalyze,
    Name::ExperimentAssign,
    Name::ExperimentAccount,
    Name::ExperimentAggregate,
    Name::ExperimentBarrierWait,
];

/// One recorded span.  `parent` indexes the same lane's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub session: u32,
    pub start: u64,
    pub end: u64,
}

/// An open span, returned by [`Lane::open`] and consumed by [`Lane::close`].
#[must_use]
pub struct Open(u32);

/// One driver thread's span recorder.  A disabled lane records nothing and
/// reads no clock, so code shared by the traced and untraced runs can take a
/// lane either way.
#[derive(Debug)]
pub struct Lane {
    clock: Clock,
    on: bool,
    start: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Lane {
    pub fn new(clock: Clock) -> Lane {
        Lane { clock, on: true, start: clock.now_ns(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn off() -> Lane {
        Lane { clock: Clock::new(), on: false, start: 0, spans: Vec::new(), stack: Vec::new() }
    }

    /// Open a span as a child of the innermost open span.
    #[inline]
    pub fn open(&mut self, name: Name, session: u32) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.clock.now_ns();
        self.spans.push(Span { name, parent, session, start, end: start });
        self.stack.push(idx);
        Open(idx)
    }

    #[inline]
    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end = self.clock.now_ns();
        // Close every span opened after this one too: after a caught unwind
        // the inner spans were never closed.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end = end;
            if top == open.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: Name, session: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, session);
        let r = f();
        self.close(open);
        r
    }

    /// End the lane now.
    pub fn finish(self) -> LaneRecord {
        debug_assert!(self.stack.is_empty(), "every span closed before the lane ends");
        LaneRecord { start: self.start, end: self.clock.now_ns(), spans: self.spans }
    }
}

/// A finished lane's spans.
#[derive(Debug, Default)]
pub struct LaneRecord {
    pub start: u64,
    pub end: u64,
    pub spans: Vec<Span>,
}

/// Per-span-name totals over every lane of a traced run.
#[derive(Debug, Clone)]
pub struct SpanTable {
    /// Calls per name.
    pub calls: [u64; Name::COUNT],
    /// Self time per name, seconds summed over lanes.
    pub self_s: [f64; Name::COUNT],
    /// Span durations per name, ns, sorted (for the latency percentiles).
    pub durations: Vec<Vec<u64>>,
    /// Lane time: the summed lifetimes of every lane, minus parked time.
    pub lane_s: f64,
}

impl SpanTable {
    pub fn build(lanes: &[LaneRecord]) -> SpanTable {
        let mut calls = [0u64; Name::COUNT];
        let mut self_ns = [0i128; Name::COUNT];
        let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Name::COUNT];
        let mut lane_ns: i128 = 0;
        for lane in lanes {
            lane_ns += i128::from(lane.end.saturating_sub(lane.start));
            let mut own: Vec<i128> =
                lane.spans.iter().map(|s| i128::from(s.end.saturating_sub(s.start))).collect();
            for s in &lane.spans {
                if s.parent != NONE {
                    own[s.parent as usize] -= i128::from(s.end.saturating_sub(s.start));
                }
            }
            for (s, own) in lane.spans.iter().zip(own) {
                debug_assert!(
                    s.session != NONE || !matches!(s.name.layer(), "session" | "controller"),
                    "per-session spans carry their session index"
                );
                let n = s.name as usize;
                calls[n] += 1;
                self_ns[n] += own;
                durations[n].push(s.end.saturating_sub(s.start));
                if s.name == Name::Parked {
                    lane_ns -= i128::from(s.end.saturating_sub(s.start));
                }
            }
        }
        for d in &mut durations {
            d.sort_unstable();
        }
        SpanTable {
            calls,
            self_s: self_ns.map(|ns| ns as f64 * 1e-9),
            durations,
            lane_s: lane_ns as f64 * 1e-9,
        }
    }

    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name as usize]
    }

    pub fn busy_s(&self, name: Name) -> f64 {
        self.self_s[name as usize]
    }

    /// Share of lane time that layer spans explain.
    pub fn coverage(&self) -> f64 {
        let layer_s: f64 = ALL_NAMES.iter().filter(|n| n.is_layer()).map(|&n| self.busy_s(n)).sum();
        if self.lane_s > 0.0 {
            layer_s / self.lane_s
        } else {
            0.0
        }
    }

    /// Self time per layer (module), summed over its span names.
    pub fn layer_busy_s(&self, layer: &str) -> f64 {
        ALL_NAMES
            .iter()
            .filter(|n| n.is_layer() && n.layer() == layer)
            .map(|&n| self.busy_s(n))
            .sum()
    }

    /// Median span duration, ns (0 with no calls).
    pub fn p50_ns(&self, name: Name) -> f64 {
        percentile(&self.durations[name as usize], 50.0)
    }

    /// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
    /// beyond it, as `(percentile, ns)`.
    pub fn tail_ns(&self, name: Name) -> (f64, f64) {
        let d = &self.durations[name as usize];
        let n = d.len() as f64;
        let p = [99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        (p, percentile(d, p))
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}
