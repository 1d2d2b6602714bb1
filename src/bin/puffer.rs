//! `puffer` — command-line interface to the reproduction.
//!
//! Subcommands:
//!
//! * `simulate`       — stream one video over a sampled path with a scheme
//! * `collect`        — run sessions and write a TTP training dataset
//! * `train-ttp`      — train a TTP variant on a collected dataset
//! * `run-rct`        — run a randomized controlled trial, print the table
//! * `archive` — run sessions and write the Appendix-B daily archive (CSV,
//!   compacted `.puf` binary, or both)
//! * `archive-export` — stream a `.puf` archive back out as the three CSVs
//! * `archive-stats` — one bounded-memory pass over a `.puf`: row counts,
//!   bytes/row, and the equivalent CSV size
//! * `power-analysis` — the §3.4 CI-width-vs-N experiment at paper scale,
//!   out-of-core over a generated `.puf` archive
//!
//! Every subcommand takes `--seed N`; runs are bit-reproducible.

use puffer_repro::fugu::{checkpoint, Dataset, TrainConfig, TtpVariant};
use puffer_repro::media::VideoSource;
use puffer_repro::net::{CongestionControl, Connection};
use puffer_repro::platform::experiment::{collect_training_data, run_rct, train_ttp_on};
use puffer_repro::platform::telemetry::{
    write_client_buffer_row, write_video_acked_row, write_video_sent_row, BufferEvent,
    ClientBuffer, CLIENT_BUFFER_CSV_HEADER, VIDEO_ACKED_CSV_HEADER, VIDEO_SENT_CSV_HEADER,
};
use puffer_repro::platform::user::StreamIntent;
use puffer_repro::platform::{
    incidents_csv, run_stream, ArchiveReader, ArchiveWriter, DailyArchive, ExperimentConfig,
    FaultPlan, FaultRates, Incident, SchemeSpec, StreamClock, StreamConfig, UserModel,
};
use puffer_repro::stats::{bootstrap_ratio_ci, PowerCurve, Reservoir, SchemeSummary};
use puffer_repro::trace::TraceBank;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: puffer <command> [options]\n\
         \n\
         commands:\n\
           simulate        --scheme <bba|bola|mpc|robustmpc> [--seconds N] [--seed N]\n\
           collect         --out <file> [--sessions N] [--days N] [--emulation] [--seed N]\n\
           train-ttp       --data <file> --out <file> [--variant full|linear|no-tcp-info|throughput] [--seed N]\n\
           run-rct         [--schemes bba,bola,mpc,robustmpc] [--sessions N] [--days N]\n\
                           [--paired] [--emulation] [--fugu <ttp-checkpoint>] [--archive <dir>]\n\
                           [--fault-rate R] [--seed N]\n\
           archive         --out <dir> [--format csv|puf|both] [--sessions N] [--seed N]\n\
           archive-export  --in <file.puf> --out <dir> [--day N]\n\
           archive-stats   --in <file.puf>\n\
           power-analysis  --out <dir> [--cuts 5000,50000,500000] [--improvement 0.15]\n\
                           [--boot N] [--sessions N] [--days N] [--seed N]\n"
    );
    std::process::exit(2);
}

/// Minimal flag parser: `--key value` pairs plus boolean flags.
fn parse_flags(args: &[String], booleans: &[&str]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument '{a}'");
            usage();
        };
        if booleans.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
        } else if let Some(v) = args.get(i + 1) {
            out.insert(key.to_string(), v.clone());
            i += 2;
        } else {
            eprintln!("flag --{key} needs a value");
            usage();
        }
    }
    out
}

/// The value of `--key`, or `default` when the flag is absent.  A value
/// that does not parse prints the usage and exits 2.
fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    let Some(v) = flags.get(key) else { return default };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value '{v}' for --{key}");
        usage()
    })
}

/// [`get`] for a count that must be at least 1 (`--sessions`, `--days`).
fn get_count<T: std::str::FromStr + Default + PartialEq>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> T {
    let n = get(flags, key, default);
    if n == T::default() {
        eprintln!("--{key} must be at least 1");
        usage();
    }
    n
}

fn scheme_by_name(name: &str) -> Option<SchemeSpec> {
    match name {
        "bba" => Some(SchemeSpec::Bba),
        "bola" => Some(SchemeSpec::Bola),
        "mpc" => Some(SchemeSpec::MpcHm),
        "robustmpc" => Some(SchemeSpec::RobustMpcHm),
        _ => None,
    }
}

fn cmd_simulate(flags: BTreeMap<String, String>) -> ExitCode {
    let seed: u64 = get(&flags, "seed", 1);
    let seconds: f64 = get(&flags, "seconds", 180.0);
    let scheme = flags.get("scheme").map(String::as_str).unwrap_or("bba");
    let Some(spec) = scheme_by_name(scheme) else {
        eprintln!("unknown scheme '{scheme}'");
        return ExitCode::from(2);
    };
    let mut abr = spec.instantiate();

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let bank = TraceBank::puffer();
    let (path, trace) = bank.sample_session(seconds * 1.3 + 60.0, &mut rng);
    let mut conn = Connection::new(
        trace,
        path.min_rtt,
        (path.buffer_seconds * path.base_rate).max(16_000.0),
        CongestionControl::Bbr,
        0.0,
    );
    let mut source = VideoSource::puffer_default();
    let user = UserModel { zap_prob: 0.0, ..UserModel::default() };
    let out = run_stream(
        &mut conn,
        &mut source,
        abr.as_mut(),
        &user,
        StreamClock::starting(StreamIntent::Watch(seconds)),
        &StreamConfig::default(),
        &mut rng,
    );
    println!(
        "path: {} ({:.1} Mbit/s nominal, {:.0} ms RTT)",
        path.class.name(),
        path.base_rate * 8.0 / 1e6,
        path.min_rtt * 1000.0
    );
    match out.summary {
        Some(s) => {
            println!("scheme: {}", abr.name());
            println!("chunks: {}   startup: {:.2} s", s.chunks, s.startup_delay);
            println!(
                "stalled: {:.2} s / {:.1} s watched ({:.3}%)",
                s.stall_time,
                s.watch_time,
                100.0 * s.stall_ratio()
            );
            println!(
                "mean SSIM: {:.2} dB   variation: {:.2} dB   bitrate: {:.2} Mbit/s",
                s.mean_ssim_db,
                s.ssim_variation_db,
                s.mean_bitrate() / 1e6
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("stream never began playing");
            ExitCode::FAILURE
        }
    }
}

fn cmd_collect(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(out_path) = flags.get("out") else {
        eprintln!("collect needs --out <file>");
        return ExitCode::from(2);
    };
    let cfg = ExperimentConfig {
        seed: get(&flags, "seed", 1),
        sessions_per_day: get_count(&flags, "sessions", 100),
        days: get_count(&flags, "days", 2),
        emulation_world: flags.contains_key("emulation"),
        retrain: None,
        ..ExperimentConfig::default()
    };
    eprintln!("collecting {} sessions/day x {} days under BBA ...", cfg.sessions_per_day, cfg.days);
    let data = collect_training_data(&SchemeSpec::Bba, &cfg);
    if let Err(e) = std::fs::write(out_path, data.save_to_string()) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} streams / {} observations to {out_path}",
        data.n_streams(),
        data.n_observations()
    );
    ExitCode::SUCCESS
}

fn cmd_train_ttp(flags: BTreeMap<String, String>) -> ExitCode {
    let (Some(data_path), Some(out_path)) = (flags.get("data"), flags.get("out")) else {
        eprintln!("train-ttp needs --data <file> and --out <file>");
        return ExitCode::from(2);
    };
    let variant = match flags.get("variant").map(String::as_str).unwrap_or("full") {
        "full" => TtpVariant::Full,
        "linear" => TtpVariant::Linear,
        "no-tcp-info" => TtpVariant::NoTcpInfo,
        "throughput" => TtpVariant::ThroughputPredictor,
        other => {
            eprintln!("unknown variant '{other}'");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(data_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {data_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let data = match Dataset::load_from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bad dataset: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("training {variant:?} on {} observations ...", data.n_observations());
    let ttp = train_ttp_on(variant, &data, &TrainConfig::default(), get(&flags, "seed", 1));
    if let Err(e) = checkpoint::save_to_file(&ttp, std::path::Path::new(out_path)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote TTP checkpoint to {out_path}");
    ExitCode::SUCCESS
}

fn cmd_run_rct(flags: BTreeMap<String, String>) -> ExitCode {
    let mut schemes: Vec<SchemeSpec> = Vec::new();
    for name in flags.get("schemes").map(String::as_str).unwrap_or("bba,mpc,robustmpc").split(',') {
        match scheme_by_name(name.trim()) {
            Some(s) => schemes.push(s),
            None => {
                eprintln!("unknown scheme '{name}'");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(ckpt) = flags.get("fugu") {
        match std::fs::read_to_string(ckpt)
            .map_err(|e| e.to_string())
            .and_then(|t| checkpoint::load_from_str(&t).map_err(|e| e.to_string()))
        {
            Ok(ttp) => schemes.push(SchemeSpec::fugu(ttp)),
            Err(e) => {
                eprintln!("cannot load TTP checkpoint {ckpt}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut cfg = ExperimentConfig {
        seed: get(&flags, "seed", 1),
        sessions_per_day: get_count(&flags, "sessions", 100),
        days: get_count(&flags, "days", 2),
        emulation_world: flags.contains_key("emulation"),
        paired: flags.contains_key("paired"),
        archive_sink: flags.get("archive").map(PathBuf::from),
        ..ExperimentConfig::default()
    };
    let fault_rate: f64 = get(&flags, "fault-rate", 0.0);
    if !(0.0..=1.0).contains(&fault_rate) {
        eprintln!("--fault-rate must be in [0, 1]");
        usage();
    }
    if fault_rate > 0.0 {
        cfg.faults = FaultPlan::seeded(
            cfg.seed,
            cfg.days,
            cfg.sessions_per_day,
            schemes.len(),
            &FaultRates::uniform(fault_rate),
        );
    }
    eprintln!(
        "running RCT: {} arms, {} sessions/day x {} days{} ...",
        schemes.len(),
        cfg.sessions_per_day,
        cfg.days,
        if cfg.paired { " (paired)" } else { "" }
    );
    let result = run_rct(schemes, &cfg);
    println!(
        "{:<14} {:>9} {:>22} {:>10} {:>12}",
        "scheme", "streams", "stall % [95% CI]", "SSIM dB", "bitrate Mb/s"
    );
    for arm in &result.arms {
        if arm.streams.is_empty() {
            continue;
        }
        let agg = SchemeSummary::from_streams(&arm.streams);
        let pairs: Vec<(f64, f64)> =
            arm.streams.iter().map(|s| (s.stall_time, s.watch_time)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1);
        let ci = bootstrap_ratio_ci(&pairs, 500, 0.95, &mut rng);
        println!(
            "{:<14} {:>9} {:>7.3}% [{:.3},{:.3}] {:>10.2} {:>12.2}",
            arm.name,
            arm.streams.len(),
            100.0 * ci.point,
            100.0 * ci.lo,
            100.0 * ci.hi,
            agg.mean_ssim_db,
            agg.mean_bitrate / 1e6
        );
    }
    for p in &result.archive_paths {
        let bytes = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        println!("archived {} ({bytes} bytes)", p.display());
    }
    if !result.incidents.is_empty() {
        let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
        for i in &result.incidents {
            *by_kind.entry(i.kind.name()).or_default() += 1;
        }
        let summary: Vec<String> = by_kind.iter().map(|(name, n)| format!("{n} {name}")).collect();
        println!("incidents: {} ({})", result.incidents.len(), summary.join(", "));
    }
    ExitCode::SUCCESS
}

fn cmd_archive(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(out_dir) = flags.get("out") else {
        eprintln!("archive needs --out <dir>");
        return ExitCode::from(2);
    };
    let seed: u64 = get(&flags, "seed", 1);
    let sessions: usize = get(&flags, "sessions", 20);
    let bank = TraceBank::puffer();
    let user = UserModel::default();
    let mut archive = DailyArchive::new();
    for i in 0..sessions {
        let mut abr = SchemeSpec::Bba.instantiate();
        let out = puffer_repro::platform::run_session(
            &bank,
            abr.as_mut(),
            &user,
            CongestionControl::Bbr,
            StreamConfig::default(),
            i as u64,
            // lint: seed-mix — derives the per-session RNG seed from the CLI seed
            seed.wrapping_add(i as u64),
        );
        for s in &out.streams {
            archive.add_stream(&s.telemetry);
        }
    }
    let format = flags.get("format").map(String::as_str).unwrap_or("csv");
    let mut paths = Vec::new();
    if format == "csv" || format == "both" {
        match archive.write(Path::new(out_dir), 0) {
            Ok(p) => paths.extend(p),
            Err(e) => {
                eprintln!("archive write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if format == "puf" || format == "both" {
        match archive.write_binary(Path::new(out_dir), 0) {
            Ok(p) => paths.push(p),
            Err(e) => {
                eprintln!("archive write failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if paths.is_empty() {
        eprintln!("unknown format '{format}' (use csv, puf, or both)");
        return ExitCode::from(2);
    }
    let (vs, va, cb) = archive.counts();
    println!("wrote {vs} video_sent, {va} video_acked, {cb} client_buffer data points:");
    for p in paths {
        let bytes = std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
        println!("  {} ({bytes} bytes)", p.display());
    }
    ExitCode::SUCCESS
}

/// Stream a `.puf` archive back out as the three Appendix-B CSVs —
/// byte-identical to what [`DailyArchive::write`] would have produced for
/// the same rows, but without ever materializing the day in memory.
fn cmd_archive_export(flags: BTreeMap<String, String>) -> ExitCode {
    let (Some(in_path), Some(out_dir)) = (flags.get("in"), flags.get("out")) else {
        eprintln!("archive-export needs --in <file.puf> and --out <dir>");
        return ExitCode::from(2);
    };
    let day: u32 = get(&flags, "day", 0);
    let run = || -> std::io::Result<Vec<(PathBuf, u64)>> {
        std::fs::create_dir_all(out_dir)?;
        let input = std::io::BufReader::new(std::fs::File::open(in_path)?);
        let mut reader = ArchiveReader::new(input)?;
        let dir = Path::new(out_dir);
        let make = |name: String, header: &[u8]| -> std::io::Result<_> {
            let path = dir.join(name);
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            out.write_all(header)?;
            Ok((out, path, 0u64))
        };
        let mut sent = make(format!("video_sent_{day}.csv"), VIDEO_SENT_CSV_HEADER)?;
        let mut acked = make(format!("video_acked_{day}.csv"), VIDEO_ACKED_CSV_HEADER)?;
        let mut buffer = make(format!("client_buffer_{day}.csv"), CLIENT_BUFFER_CSV_HEADER)?;
        let mut incidents: Vec<Incident> = Vec::new();
        while let Some(block) = reader.next_block()? {
            for d in &block.video_sent {
                write_video_sent_row(&mut sent.0, d)?;
            }
            sent.2 += block.video_sent.len() as u64;
            for d in &block.video_acked {
                write_video_acked_row(&mut acked.0, d)?;
            }
            acked.2 += block.video_acked.len() as u64;
            for d in &block.client_buffer {
                write_client_buffer_row(&mut buffer.0, d)?;
            }
            buffer.2 += block.client_buffer.len() as u64;
            incidents.extend(block.incidents.iter().filter_map(Incident::from_row));
        }
        sent.0.flush()?;
        acked.0.flush()?;
        buffer.0.flush()?;
        let mut outputs = vec![(sent.1, sent.2), (acked.1, acked.2), (buffer.1, buffer.2)];
        if !incidents.is_empty() {
            let path = dir.join(format!("incidents_{day}.csv"));
            std::fs::write(&path, incidents_csv(&incidents))?;
            outputs.push((path, incidents.len() as u64));
        }
        Ok(outputs)
    };
    match run() {
        Ok(outputs) => {
            for (path, rows) in outputs {
                println!("{} ({rows} rows)", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A `Write` sink that only counts bytes — used to price the CSV rendering
/// of rows without writing it anywhere.
struct CountingSink(u64);

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One bounded-memory pass over a `.puf` archive: per-measurement row and
/// block counts, sessions (distinct tags), on-disk bytes/row, and the
/// exact byte size the same rows would occupy as CSV.
fn cmd_archive_stats(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(in_path) = flags.get("in") else {
        eprintln!("archive-stats needs --in <file.puf>");
        return ExitCode::from(2);
    };
    let file_bytes = match std::fs::metadata(in_path) {
        Ok(m) => m.len(),
        Err(e) => {
            eprintln!("cannot stat {in_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = || -> std::io::Result<()> {
        let input = std::io::BufReader::new(std::fs::File::open(in_path)?);
        let mut reader = ArchiveReader::new(input)?;
        let mut rows = [0u64; 4];
        let mut blocks = [0u64; 4];
        let mut csv = CountingSink(
            (VIDEO_SENT_CSV_HEADER.len()
                + VIDEO_ACKED_CSV_HEADER.len()
                + CLIENT_BUFFER_CSV_HEADER.len()) as u64,
        );
        let mut tags = 0u64;
        let mut last_tag = None;
        while let Some(block) = reader.next_block()? {
            if last_tag != Some(block.tag) {
                tags += 1;
                last_tag = Some(block.tag);
            }
            let kind = block.kind.expect("decoded blocks always carry a kind");
            let i = kind.code() as usize;
            blocks[i] += 1;
            rows[i] += (block.video_sent.len()
                + block.video_acked.len()
                + block.client_buffer.len()
                + block.incidents.len()) as u64;
            for d in &block.video_sent {
                write_video_sent_row(&mut csv, d)?;
            }
            for d in &block.video_acked {
                write_video_acked_row(&mut csv, d)?;
            }
            for d in &block.client_buffer {
                write_client_buffer_row(&mut csv, d)?;
            }
        }
        let total_rows: u64 = rows.iter().sum();
        println!("{in_path}: {file_bytes} bytes, {total_rows} rows, {tags} sessions");
        for (name, i) in
            [("video_sent", 0), ("video_acked", 1), ("client_buffer", 2), ("incident", 3)]
        {
            if i == 3 && blocks[i] == 0 {
                continue; // incident blocks only exist in faulted runs
            }
            println!("  {name:<14} {:>10} rows in {:>6} blocks", rows[i], blocks[i]);
        }
        if total_rows > 0 {
            println!(
                "  bytes/row: {:.2} (.puf) vs {:.2} (CSV) — {:.2}x compaction",
                file_bytes as f64 / total_rows as f64,
                csv.0 as f64 / total_rows as f64,
                csv.0 as f64 / file_bytes as f64
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("archive-stats failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fold a `.puf` archive's `client_buffer` rows into per-stream
/// `(expt_id, stall, watch)` triples, calling `f` once per stream.  Streams
/// are contiguous runs of one `stream_id`; watch time is last-minus-first
/// report time and stall is the final cumulative rebuffer — all derived
/// from the archive alone, in one bounded-memory pass.
fn fold_streams<F: FnMut(u32, f64, f64)>(path: &Path, mut f: F) -> std::io::Result<u64> {
    let input = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut reader = ArchiveReader::new(input)?;
    let mut current: Option<(u64, u32, f64, f64, f64)> = None; // id, arm, t0, t1, rebuf
    let mut streams = 0u64;
    while let Some(block) = reader.next_block()? {
        for d in &block.client_buffer {
            match current.as_mut() {
                Some((id, _, _, t1, rebuf)) if *id == d.stream_id => {
                    *t1 = d.time;
                    *rebuf = d.cum_rebuf;
                }
                _ => {
                    if let Some((_, arm, t0, t1, rebuf)) = current.take() {
                        streams += 1;
                        f(arm, rebuf, t1 - t0);
                    }
                    current = Some((d.stream_id, d.expt_id, d.time, d.time, d.cum_rebuf));
                }
            }
        }
    }
    if let Some((_, arm, t0, t1, rebuf)) = current {
        streams += 1;
        f(arm, rebuf, t1 - t0);
    }
    Ok(streams)
}

/// The §3.4 power analysis at paper scale, out-of-core end to end:
///
/// 1. run a small real RCT with the `.puf` archive sink to obtain an
///    empirical `(stall, watch)` stream population;
/// 2. resample-expand that population into a synthetic two-arm archive of
///    ≥ the largest requested cut of stream-hours per arm (the treatment
///    arm is the same population — its advantage is applied at analysis
///    time), streamed to disk through [`ArchiveWriter`];
/// 3. read the expanded archive back through [`ArchiveReader`], feeding a
///    [`PowerCurve`] (per-arm Poisson-bootstrap CIs snapshotted at each
///    cut) — peak memory is one block plus the accumulators, regardless
///    of scale.
fn cmd_power_analysis(flags: BTreeMap<String, String>) -> ExitCode {
    let Some(out_dir) = flags.get("out") else {
        eprintln!("power-analysis needs --out <dir>");
        return ExitCode::from(2);
    };
    let seed: u64 = get(&flags, "seed", 1);
    let improvement: f64 = get(&flags, "improvement", 0.15);
    let n_boot: usize = get(&flags, "boot", 200);
    if n_boot < 10 || !(0.0..1.0).contains(&improvement) {
        eprintln!("power-analysis needs --boot of at least 10 and --improvement in [0, 1)");
        usage();
    }
    let confidence = 0.95;
    let cuts: Vec<f64> = flags
        .get("cuts")
        .map(String::as_str)
        .unwrap_or("5000,50000,500000")
        .split(',')
        .map(|c| {
            c.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid value '{c}' in --cuts");
                usage()
            })
        })
        .collect();
    if !cuts.windows(2).all(|w| w[0] < w[1]) {
        eprintln!("--cuts must be ascending");
        usage();
    }
    let max_cut = cuts.last().copied().expect("need at least one cut");
    let dir = Path::new(out_dir);

    // Phase 1: a small real RCT, telemetry spilled straight to `.puf`.
    let cfg = ExperimentConfig {
        seed,
        sessions_per_day: get_count(&flags, "sessions", 150),
        days: get_count(&flags, "days", 2),
        retrain: None,
        archive_sink: Some(dir.to_path_buf()),
        ..ExperimentConfig::default()
    };
    eprintln!(
        "phase 1: running {} sessions/day x {} days under BBA for the empirical population ...",
        cfg.sessions_per_day, cfg.days
    );
    let rct = run_rct(vec![SchemeSpec::Bba], &cfg);
    let mut population: Vec<(f64, f64)> = Vec::new();
    for p in &rct.archive_paths {
        let folded = fold_streams(p, |_, stall, watch| {
            if watch >= 4.0 {
                population.push((stall, watch));
            }
        });
        if let Err(e) = folded {
            eprintln!("cannot read {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if population.is_empty() {
        eprintln!("empirical population is empty");
        return ExitCode::FAILURE;
    }
    let mean_watch = population.iter().map(|p| p.1).sum::<f64>() / population.len() as f64;
    eprintln!(
        "phase 1: {} considered streams, mean watch {:.0} s, stall ratio {:.4}%",
        population.len(),
        mean_watch,
        100.0 * population.iter().map(|p| p.0).sum::<f64>()
            / population.iter().map(|p| p.1).sum::<f64>()
    );

    // Phase 2: resample-expand to ≥ max_cut stream-hours per arm, streamed
    // to one `.puf` through the writer (two client_buffer rows per stream:
    // startup and a final report carrying watch and cumulative stall).
    let expanded = dir.join("expanded.puf");
    eprintln!(
        "phase 2: expanding to {:.0} stream-hours/arm into {} ...",
        max_cut,
        expanded.display()
    );
    let gen = || -> std::io::Result<(u64, [f64; 2])> {
        let out = std::io::BufWriter::new(std::fs::File::create(&expanded)?);
        let mut w = ArchiveWriter::new(out)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut hours = [0.0f64; 2];
        let mut i = 0u64;
        while hours[0] < max_cut || hours[1] < max_cut {
            let &(stall, watch) = &population[rng.random_range(0..population.len())];
            let arm = rng.random_range(0..2u32);
            let stream_id = i * 1000;
            w.push_buffer(&ClientBuffer {
                time: 0.0,
                stream_id,
                expt_id: arm,
                event: BufferEvent::Startup,
                buffer: 0.0,
                cum_rebuf: 0.0,
            })?;
            w.push_buffer(&ClientBuffer {
                time: watch,
                stream_id,
                expt_id: arm,
                event: BufferEvent::Periodic,
                buffer: 0.0,
                cum_rebuf: stall,
            })?;
            hours[arm as usize] += watch / 3600.0;
            i += 1;
        }
        w.finish()?.flush()?;
        Ok((i, hours))
    };
    let (n_streams, hours) = match gen() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("expansion failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = std::fs::metadata(&expanded).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "phase 2: {n_streams} streams, {:.0} + {:.0} stream-hours, {bytes} bytes on disk",
        hours[0], hours[1]
    );

    // Phase 3: one streaming pass over the expanded archive.
    eprintln!("phase 3: streaming CI-width-vs-N pass ({n_boot} bootstrap replicates/arm) ...");
    let mut curve = PowerCurve::new(cuts.clone(), improvement, confidence, n_boot);
    let mut watch_sample = Reservoir::new(4096);
    let mut small_cut_pairs: Vec<(f64, f64)> = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x2545_f491);
    let folded = fold_streams(&expanded, |arm, stall, watch| {
        if curve.points().is_empty() && arm == 0 {
            small_cut_pairs.push((stall, watch));
        }
        curve.push_stream(arm == 1, stall, watch, &mut rng);
        watch_sample.push(watch, &mut rng);
    });
    if let Err(e) = folded {
        eprintln!("cannot read {}: {e}", expanded.display());
        return ExitCode::FAILURE;
    }
    let points = curve.finish();

    println!(
        "{:>14} {:>12} {:>26} {:>26} {:>8} {:>10}",
        "hours/arm",
        "streams/arm",
        "arm A stall% [95% CI]",
        "arm B stall% [95% CI]",
        "±%",
        "separated"
    );
    for p in &points {
        println!(
            "{:>14.0} {:>12} {:>9.4} [{:.4},{:.4}] {:>9.4} [{:.4},{:.4}] {:>7.1}% {:>10}",
            p.hours_per_arm,
            p.streams_per_arm,
            100.0 * p.ci_a.point,
            100.0 * p.ci_a.lo,
            100.0 * p.ci_a.hi,
            100.0 * p.ci_b.point,
            100.0 * p.ci_b.lo,
            100.0 * p.ci_b.hi,
            100.0 * p.ci_a.relative_half_width(),
            if p.separated() { "yes" } else { "no" }
        );
    }
    // Cross-check the one-pass Poisson bootstrap against the classical
    // random-access bootstrap at the smallest cut (where the pairs fit in
    // memory by construction).
    if let Some(first) = points.first() {
        if small_cut_pairs.len() > 1 {
            let classical = bootstrap_ratio_ci(
                &small_cut_pairs,
                n_boot,
                confidence,
                &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xc3),
            );
            println!(
                "cross-check at {:.0} h/arm: poisson ±{:.1}% vs classical ±{:.1}% (point {:.4}% vs {:.4}%)",
                cuts[0],
                100.0 * first.ci_a.relative_half_width(),
                100.0 * classical.relative_half_width(),
                100.0 * first.ci_a.point,
                100.0 * classical.point,
            );
        }
    }
    let mut watches: Vec<f64> = watch_sample.items().to_vec();
    watches.sort_by(|a, b| a.total_cmp(b));
    if !watches.is_empty() {
        println!(
            "watch-time sample (n={}): p50 {:.0} s, p90 {:.0} s, p99 {:.0} s",
            watch_sample.seen(),
            watches[watches.len() / 2],
            watches[watches.len() * 9 / 10],
            watches[watches.len() * 99 / 100],
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let flags = parse_flags(&args[1..], &["paired", "emulation"]);
    match command.as_str() {
        "simulate" => cmd_simulate(flags),
        "collect" => cmd_collect(flags),
        "train-ttp" => cmd_train_ttp(flags),
        "run-rct" => cmd_run_rct(flags),
        "archive" => cmd_archive(flags),
        "archive-export" => cmd_archive_export(flags),
        "archive-stats" => cmd_archive_stats(flags),
        "power-analysis" => cmd_power_analysis(flags),
        _ => usage(),
    }
}
