//! Output checks: a fingerprint of an `RctResult`, the pinned fingerprints
//! of the default seed, and the invariants that hold under any seed.

use puffer_platform::RctResult;
use std::io;

/// The seed whose fingerprints are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// `(workload, fingerprint)` of [`DEFAULT_SEED`].  The determinism contract
/// (identical results at any thread count and on every kernel tier) makes
/// these valid on any machine.  A change that alters results on purpose
/// re-pins them and says so.
const PINS: &[(&str, u64)] = &[
    ("serve", 0x0f52_4310_2cb9_fb9c),
    ("insitu", 0xffb3_1e2e_9ffd_e604),
    ("classic", 0x8edc_6d95_eb20_f5c0),
];

/// The pinned fingerprint of `workload` under `seed`, if there is one.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINS.iter().find(|(w, _)| *w == workload).map(|&(_, fp)| fp)
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What a run's fingerprint covers, kept apart for the report.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    /// Digest over every field below plus the per-arm CONSORT counts and
    /// f64-bit sums of watch, stall and SSIM, the served models, and any
    /// extra words (the archive read-back statistics).
    pub digest: u64,
    pub observations: usize,
    pub incidents: usize,
    pub archive_bytes: u64,
    pub archive_digest: u64,
}

/// Fingerprint a result.  Reads the result's `.puf` day archives.
pub fn fingerprint(r: &RctResult, extra: &[u64]) -> io::Result<Fingerprint> {
    let mut h = Fnv::new();
    for arm in &r.arms {
        let c = &arm.consort;
        for n in [c.sessions, c.streams, c.never_began, c.short_watch, c.considered, c.quarantined]
        {
            h.word(n as u64);
        }
        let (mut watch, mut stall, mut ssim) = (0.0f64, 0.0f64, 0.0f64);
        for s in &arm.streams {
            watch += s.watch_time;
            stall += s.stall_time;
            ssim += s.mean_ssim_db;
        }
        h.word(watch.to_bits());
        h.word(stall.to_bits());
        h.word(ssim.to_bits());
        h.word(arm.session_durations.iter().sum::<f64>().to_bits());
    }
    for spec in &r.schemes {
        if let Some(ttp) = spec.ttp() {
            h.bytes(fugu::checkpoint::save_to_string(ttp).as_bytes());
        }
    }
    let mut a = Fnv::new();
    let mut archive_bytes = 0u64;
    for path in &r.archive_paths {
        let bytes = std::fs::read(path)?;
        archive_bytes += bytes.len() as u64;
        a.bytes(&bytes);
    }
    let observations = r.dataset.n_observations();
    let incidents = r.incidents.len();
    for w in [r.total_sessions as u64, observations as u64, incidents as u64, archive_bytes] {
        h.word(w);
    }
    h.word(a.finish());
    for &w in extra {
        h.word(w);
    }
    Ok(Fingerprint {
        digest: h.finish(),
        observations,
        incidents,
        archive_bytes,
        archive_digest: a.finish(),
    })
}

/// The invariants that hold under any seed: CONSORT balance per arm
/// (`streams = never_began + short_watch + considered`), one summary per
/// considered stream, one duration per session, and every randomized
/// session accounted for.  Returns the first violation.
pub fn check_invariants(r: &RctResult) -> Result<(), String> {
    let mut accounted = 0usize;
    for arm in &r.arms {
        let c = &arm.consort;
        if c.streams != c.never_began + c.short_watch + c.considered {
            return Err(format!("{}: CONSORT does not balance: {c:?}", arm.name));
        }
        if arm.streams.len() != c.considered || arm.session_durations.len() != c.sessions {
            return Err(format!("{}: summaries or durations disagree with CONSORT", arm.name));
        }
        accounted += c.sessions + c.quarantined;
    }
    if accounted != r.total_sessions {
        return Err(format!("{accounted} sessions accounted of {}", r.total_sessions));
    }
    Ok(())
}

/// Considered-stream watch hours of a result.
pub fn stream_hours(r: &RctResult) -> f64 {
    r.arms.iter().flat_map(|a| &a.streams).map(|s| s.watch_time).sum::<f64>() / 3600.0
}

/// Sessions quarantined after a caught panic.
pub fn quarantined(r: &RctResult) -> usize {
    r.arms.iter().map(|a| a.consort.quarantined).sum()
}
