//! End-to-end benchmark of the randomized controlled trial.
//!
//! ```text
//! cargo run --release --offline --manifest-path scripts/rctbench/Cargo.toml -- \
//!     --workload serve|insitu|classic --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets the workload up several times, then runs `run_rct` on
//! the seed's inputs repeatedly for `--seconds` and reports the end-to-end
//! metrics (medians over the repetitions).  `--trace 1` alternates an
//! untraced `run_rct` with the benchmark's traced mirror of its day loop
//! and reports the per-layer table.  Every run's output is checked; the
//! last line of standard output is one JSON object.  See README.md.

mod analysis;
mod fingerprint;
mod probe;
mod timer;
mod traced;
mod workload;

use fingerprint::Fingerprint;
use puffer_platform::experiment::run_rct;
use puffer_platform::{ExperimentConfig, RctResult};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use timer::{Clock, Lane, Name, SpanTable};
use workload::{Inputs, Workload};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured repetitions per run, however long they take.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: rctbench --workload serve|insitu|classic [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = fingerprint::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rctbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work =
        Path::new(".rctbench_out").join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(args, &work);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(".rctbench_out").ok();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rctbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run-wide context every rep needs.
struct Bench {
    args: Args,
    clock: Clock,
    ticks: u64,
    threads: usize,
    archive: PathBuf,
    /// Checks that failed, for the report.
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Fingerprint of the first repetition, which every later one must match.
    first: Option<u64>,
}

/// A traced repetition and what its trace measured.
struct TracedRep {
    rep: Rep,
    spans: SpanTable,
    counters: traced::Counters,
}

/// One measured repetition.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    hours: f64,
    fp: Fingerprint,
}

impl Bench {
    fn config(&self) -> ExperimentConfig {
        self.args.workload.config(self.args.seed, self.threads, &self.archive)
    }

    fn fresh_archive(&self) -> io::Result<()> {
        if self.archive.exists() {
            std::fs::remove_dir_all(&self.archive)?;
        }
        std::fs::create_dir_all(&self.archive)
    }

    /// Statistics words of the archive read-back (empty for workloads that
    /// do not read their archives back).
    fn analyze(&self, r: &RctResult, lane: &mut Lane) -> io::Result<Vec<u64>> {
        if !self.args.workload.analyzes_archive() {
            return Ok(Vec::new());
        }
        let stats = analysis::analyze(&r.archive_paths, r.arms.len(), self.args.seed, lane)?;
        Ok(stats.iter().flat_map(analysis::ArmStats::words).collect())
    }

    /// Check a repetition's result; a failed check fails all its sessions.
    fn check(&mut self, label: &str, r: &RctResult, fp: &Fingerprint) {
        self.attempted += r.total_sessions as u64;
        let w = self.args.workload.name();
        let mut bad = Vec::new();
        if let Err(e) = fingerprint::check_invariants(r) {
            bad.push(format!("{label}: {e}"));
        }
        if let Some(pin) = fingerprint::pinned(w, self.args.seed) {
            if fp.digest != pin {
                bad.push(format!("{label}: fingerprint {:016x} != pinned {pin:016x}", fp.digest));
            }
        }
        match self.first {
            None => self.first = Some(fp.digest),
            Some(first) if first != fp.digest => bad.push(format!(
                "{label}: fingerprint {:016x} != first repetition's {first:016x}",
                fp.digest
            )),
            Some(_) => {}
        }
        if bad.is_empty() {
            self.failed += fingerprint::quarantined(r) as u64;
        } else {
            self.failed += r.total_sessions as u64;
            self.problems.extend(bad);
        }
    }

    /// One untraced repetition: `run_rct` (plus the archive read-back where
    /// the workload has one), timed by wall clock and process CPU time.
    fn untraced(&mut self, inputs: &Inputs) -> io::Result<Rep> {
        self.fresh_archive()?;
        let cfg = self.config();
        let schemes = self.args.workload.schemes(inputs);
        let cpu0 = probe::cpu_s(self.ticks)?;
        let t0 = self.clock.now_s();
        let result = run_rct(schemes, &cfg);
        let extra = self.analyze(&result, &mut Lane::off())?;
        let wall_s = self.clock.now_s() - t0;
        let cpu_s = probe::cpu_s(self.ticks)? - cpu0;
        let fp = fingerprint::fingerprint(&result, &extra)?;
        self.check("untraced", &result, &fp);
        Ok(Rep { wall_s, cpu_s, hours: fingerprint::stream_hours(&result), fp })
    }

    /// One traced repetition: the traced day loop, then the read-back.
    fn traced(&mut self, inputs: &Inputs) -> io::Result<TracedRep> {
        self.fresh_archive()?;
        let cfg = self.config();
        let schemes = self.args.workload.schemes(inputs);
        let t0 = self.clock.now_s();
        let (result, mut trace) = traced::run_traced(schemes, &cfg, self.clock);
        let mut lane = Lane::new(self.clock);
        let extra = self.analyze(&result, &mut lane)?;
        trace.lanes.push(lane.finish());
        let wall_s = self.clock.now_s() - t0;
        let fp = fingerprint::fingerprint(&result, &extra)?;
        self.check("traced", &result, &fp);
        Ok(TracedRep {
            rep: Rep { wall_s, cpu_s: 0.0, hours: fingerprint::stream_hours(&result), fp },
            spans: SpanTable::build(&trace.lanes),
            counters: trace.counters,
        })
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: Args, work: &Path) -> Result<(), String> {
    let io = |e: io::Error| e.to_string();
    let threads = probe::nproc();
    let mut bench = Bench {
        args,
        clock: Clock::new(),
        ticks: probe::clock_ticks_per_s().map_err(io)?,
        threads,
        archive: work.join("archive"),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        first: None,
    };
    let w = args.workload;
    println!(
        "rctbench workload={} seed={} seconds={} trace={} nproc={} workers={} tier={} load=batch (one process, closed: each run_rct call is the whole input)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        threads,
        puffer_nn::Tier::detect().name(),
    );
    let warmup = work.join("warmup");
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        std::fs::create_dir_all(&warmup).map_err(io)?;
        let t0 = bench.clock.now_s();
        inputs = Some(w.setup(threads, &warmup));
        setup_s.push(bench.clock.now_s() - t0);
        std::fs::remove_dir_all(&warmup).map_err(io)?;
    }
    let inputs = inputs.expect("at least one set-up");
    let metrics = if args.trace {
        traced_run(&mut bench, &inputs)?
    } else {
        untraced_run(&mut bench, &inputs, median(setup_s))?
    };

    for p in &bench.problems {
        println!("CHECK FAILED {p}");
    }
    let correct = bench.problems.is_empty() && bench.failed == 0;
    println!(
        "failed_session_frac = {} (ratio; {} of {} sessions)",
        bench.failed as f64 / bench.attempted.max(1) as f64,
        bench.failed,
        bench.attempted
    );
    let mut json = String::new();
    write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.attempted.max(1),
        bench.failed
    )
    .expect("write to String");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("write to String");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn untraced_run(bench: &mut Bench, inputs: &Inputs, setup_s: f64) -> Result<Metrics, String> {
    let io = |e: io::Error| e.to_string();
    if let Err(e) = probe::reset_peak_rss() {
        println!("note: cannot reset VmHWM ({e}); peak_rss_mb includes set-up");
    }
    let start = bench.clock.now_s();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || bench.clock.now_s() - start < bench.args.seconds {
        let rep = bench.untraced(inputs).map_err(io)?;
        println!(
            "rep {}: {:.4} stream-hours, wall {:.4} s, cpu {:.4} s",
            reps.len(),
            rep.hours,
            rep.wall_s,
            rep.cpu_s
        );
        reps.push(rep);
    }
    let peak = probe::peak_rss_mb().map_err(io)?;
    let last = &reps[reps.len() - 1];
    println!(
        "{} repetitions; stream-hours/rep {:.3}; fingerprint {:016x} (observations {}, incidents {}, archive {} B digest {:016x})",
        reps.len(),
        last.hours,
        last.fp.digest,
        last.fp.observations,
        last.fp.incidents,
        last.fp.archive_bytes,
        last.fp.archive_digest
    );
    let metrics: Metrics = vec![
        (
            "stream_hours_per_cpu_s",
            "h/CPU-s",
            median(reps.iter().map(|r| r.hours / r.cpu_s).collect()),
        ),
        ("stream_hours_per_s", "h/s", median(reps.iter().map(|r| r.hours / r.wall_s).collect())),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", peak),
    ];
    for (name, unit, value) in &metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    Ok(metrics)
}

fn traced_run(bench: &mut Bench, inputs: &Inputs) -> Result<Metrics, String> {
    let io = |e: io::Error| e.to_string();
    let start = bench.clock.now_s();
    // The first full-size repetition after set-up pays the page faults of
    // the run's peak memory; run it untimed so neither side of the first
    // pair carries that cost alone.
    bench.untraced(inputs).map_err(io)?;
    let mut per_pair: Vec<Metrics> = Vec::new();
    while per_pair.is_empty() || bench.clock.now_s() - start < bench.args.seconds {
        let plain = bench.untraced(inputs).map_err(io)?;
        let TracedRep { rep, spans: t, counters: c } = bench.traced(inputs).map_err(io)?;
        if rep.fp.digest != plain.fp.digest {
            bench.problems.push(format!(
                "traced fingerprint {:016x} != untraced {:016x}",
                rep.fp.digest, plain.fp.digest
            ));
        }
        let calls = |n| t.calls(n) as f64;
        let tail = |n| t.tail_ns(n).1;
        let per_call = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let fwd_rows = c.ttp_rows as f64;
        let m: Metrics = vec![
            ("session.open.busy_s", "s", t.busy_s(Name::SessionOpen)),
            ("session.poll.busy_s", "s", t.busy_s(Name::SessionPoll)),
            ("session.finish.busy_s", "s", t.busy_s(Name::SessionFinish)),
            ("session.advance.calls", "count", calls(Name::SessionAdvance)),
            ("session.advance.busy_s", "s", t.busy_s(Name::SessionAdvance)),
            ("session.advance.ns_p50", "ns", t.p50_ns(Name::SessionAdvance)),
            ("session.advance.ns_tail", "ns", tail(Name::SessionAdvance)),
            ("abr.instantiate.busy_s", "s", t.busy_s(Name::AbrInstantiate)),
            ("abr.choose.calls", "count", calls(Name::AbrChoose)),
            ("abr.choose.busy_s", "s", t.busy_s(Name::AbrChoose)),
            ("abr.choose.ns_p50", "ns", t.p50_ns(Name::AbrChoose)),
            ("abr.choose.ns_tail", "ns", tail(Name::AbrChoose)),
            ("ttp.forward.calls", "count", calls(Name::TtpForward)),
            ("ttp.forward.rows", "count", fwd_rows),
            ("ttp.forward.busy_s", "s", t.busy_s(Name::TtpForward)),
            ("ttp.forward.rows_per_call", "count", per_call(fwd_rows, calls(Name::TtpForward))),
            ("ttp.forward.ns_per_row", "ns", per_call(t.busy_s(Name::TtpForward) * 1e9, fwd_rows)),
            ("controller.plan.calls", "count", calls(Name::ControllerPlan)),
            ("controller.plan.busy_s", "s", t.busy_s(Name::ControllerPlan)),
            ("controller.plan.ns_p50", "ns", t.p50_ns(Name::ControllerPlan)),
            ("controller.plan.ns_tail", "ns", tail(Name::ControllerPlan)),
            ("wave.rounds", "count", c.wave_rounds as f64),
            (
                "wave.occupancy",
                "ratio",
                per_call(c.wave_staged as f64, c.wave_rounds as f64 * traced::WAVE_SIZE as f64),
            ),
            ("wave.gather_scatter.busy_s", "s", t.busy_s(Name::WaveGatherScatter)),
            ("archive.spool.busy_s", "s", t.busy_s(Name::ArchiveSpool)),
            ("archive.merge.busy_s", "s", t.busy_s(Name::ArchiveMerge)),
            ("archive.read.busy_s", "s", t.busy_s(Name::ArchiveRead)),
            ("archive.bytes", "B", rep.fp.archive_bytes as f64),
            (
                "archive.bytes_per_stream_hour",
                "B/h",
                per_call(rep.fp.archive_bytes as f64, rep.hours),
            ),
            ("dataset.add.busy_s", "s", t.busy_s(Name::DatasetAdd)),
            ("dataset.observations", "count", rep.fp.observations as f64),
            ("training.train.calls", "count", calls(Name::TrainingTrain)),
            ("training.train.busy_s", "s", t.busy_s(Name::TrainingTrain)),
            ("training.train.samples", "count", c.train_samples as f64),
            ("training.gate.busy_s", "s", t.busy_s(Name::TrainingGate)),
            (
                "training.gate.accept_ratio",
                "ratio",
                per_call(c.gate_passes as f64, c.gate_attempts as f64),
            ),
            ("stats.analyze.busy_s", "s", t.busy_s(Name::StatsAnalyze)),
            (
                "experiment.busy_s",
                "s",
                t.busy_s(Name::ExperimentAssign)
                    + t.busy_s(Name::ExperimentAccount)
                    + t.busy_s(Name::ExperimentAggregate),
            ),
            ("experiment.barrier_wait_s", "s", t.busy_s(Name::ExperimentBarrierWait)),
            ("traced.coverage", "ratio", t.coverage()),
            ("traced.overhead", "ratio", rep.wall_s / plain.wall_s - 1.0),
        ];
        if per_pair.is_empty() {
            print_layer_table(&t, rep.wall_s, plain.wall_s, bench.args.workload);
        }
        println!(
            "pair {}: untraced {:.3} s traced {:.3} s",
            per_pair.len(),
            plain.wall_s,
            rep.wall_s
        );
        per_pair.push(m);
    }
    let first = per_pair[0].clone();
    let metrics: Metrics = first
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            (name, unit, median(per_pair.iter().map(|m| m[i].2).collect()))
        })
        .collect();
    println!("{} traced/untraced pairs; per-layer metrics are medians over pairs", per_pair.len());
    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let coverage = metrics.iter().find(|m| m.0 == "traced.coverage").map_or(0.0, |m| m.2);
    if coverage < 0.95 {
        bench.problems.push(format!("traced.coverage {coverage:.4} < 0.95"));
    }
    Ok(metrics)
}

/// The layer table of one traced repetition, plus the workload-separation
/// check (each workload must stress the layers its rationale names).
fn print_layer_table(t: &SpanTable, traced_wall: f64, untraced_wall: f64, w: Workload) {
    const LAYERS: [&str; 10] = [
        "session",
        "abr",
        "ttp",
        "controller",
        "wave",
        "archive",
        "dataset",
        "training",
        "stats",
        "experiment",
    ];
    println!(
        "layer table (self time summed over threads; lane time {:.3} s; traced wall {:.3} s, untraced {:.3} s)",
        t.lane_s, traced_wall, untraced_wall
    );
    let mut busy: Vec<(&str, f64)> = LAYERS.iter().map(|&l| (l, t.layer_busy_s(l))).collect();
    for &(layer, s) in &busy {
        println!("  {layer:<12} {s:>10.4} s  {:>6.2}%", 100.0 * s / t.lane_s.max(1e-12));
    }
    for n in [Name::SessionAdvance, Name::AbrChoose, Name::ControllerPlan] {
        let (p, tail) = t.tail_ns(n);
        println!(
            "  {:<24} calls {:>10}  p50 {:>9.0} ns  p{p} {:>9.0} ns",
            n.label(),
            t.calls(n),
            t.p50_ns(n),
            tail
        );
    }
    busy.sort_by(|a, b| b.1.total_cmp(&a.1));
    let zero = |n: Name| t.calls(n) == 0;
    let separated = match w {
        Workload::Classic => {
            zero(Name::TtpForward) && zero(Name::ControllerPlan) && zero(Name::TrainingTrain)
        }
        Workload::Serve => {
            zero(Name::TrainingTrain)
                && zero(Name::ArchiveSpool)
                && zero(Name::ArchiveMerge)
                && zero(Name::ArchiveRead)
        }
        Workload::Insitu => busy[0].0 == "training",
    };
    println!(
        "workload separation ({}): {} (largest layer: {})",
        w.name(),
        if separated { "holds" } else { "DOES NOT HOLD" },
        busy[0].0
    );
}
