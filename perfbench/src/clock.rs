//! Wall time, CPU time and peak memory of this process.

use std::sync::OnceLock;
use std::time::Duration;

use smartfeat_obs::global::{stopwatch, Stopwatch};

/// Wall time since the benchmark's clock started.
///
/// The clock is one process-wide [`Stopwatch`] that is never dropped, so
/// reading it never adds an entry to the work registry that the pipeline
/// reports: a timed run reports exactly what an untimed one does.
pub fn now() -> Duration {
    static CLOCK: OnceLock<Stopwatch> = OnceLock::new();
    CLOCK.get_or_init(|| stopwatch("perfbench.clock")).elapsed()
}

/// Seconds elapsed since `start`, a value of [`now`].
pub fn secs_since(start: Duration) -> f64 {
    now().saturating_sub(start).as_secs_f64()
}

/// Run `f` and return its value with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, including threads that
/// have already exited.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
