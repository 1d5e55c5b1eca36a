//! What the benchmark reads about its own process and host: CPU time,
//! peak resident memory and the host fingerprint printed with every
//! result, so a comparison across hosts shows up as a host change.

use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every Linux architecture the repo builds for).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process so far, every thread
/// included (`utime + stime` of `/proc/self/stat`).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / USER_HZ)
}

/// CPU time the hypervisor gave to other guests while this host's vCPUs
/// had work (the `steal` column of `/proc/stat`), summed over vCPUs.
pub fn host_steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host parallelism as the program sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}
