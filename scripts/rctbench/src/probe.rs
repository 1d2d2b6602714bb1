//! Process probes read from `/proc`: CPU time, peak resident memory, and the
//! machine facts every result is recorded with.

use std::io;

/// `AT_CLKTCK` in the ELF auxiliary vector: the tick rate of the CPU-time
/// fields of `/proc/<pid>/stat`.
const AT_CLKTCK: u64 = 17;

/// Ticks per second of `/proc/self/stat`'s `utime`/`stime`, read from the
/// auxiliary vector the kernel passed this process.
pub fn clock_ticks_per_s() -> io::Result<u64> {
    let auxv = std::fs::read("/proc/self/auxv")?;
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte key"));
        let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte value"));
        if key == AT_CLKTCK && val > 0 {
            return Ok(val);
        }
    }
    Err(io::Error::other("no AT_CLKTCK in /proc/self/auxv"))
}

/// Process CPU time in seconds: `utime + stime` of `/proc/self/stat`, which
/// includes the time of worker threads that have already exited.
pub fn cpu_s(ticks_per_s: u64) -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, utime and stime being fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| bad("/proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> io::Result<u64> {
        fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(|| bad("/proc/self/stat"))
    };
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let ticks = field(14 - 3)? + field(15 - 3)?;
    Ok(ticks as f64 / ticks_per_s as f64)
}

/// Reset the process's peak resident set size (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last reset, MB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or_else(|| bad("VmHWM"))?;
    let kb: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or_else(|| bad("VmHWM"))?;
    Ok(kb / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}
