//! Process-level measurements read from `/proc` (no libc dependency).

use std::time::Duration;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `sysconf(_SC_CLK_TCK)` is 100 on every Linux the
/// benchmark targets; reading it would need libc.
const CLK_TCK: u64 = 100;

/// User + system CPU time consumed by the whole process (all threads) so far.
///
/// This includes the in-process load generator: `cpu_us_per_txn` is the cost
/// of a committed transaction *plus* the cost of asking for it.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').expect("stat has a comm field").1;
    let mut fields = rest.split_ascii_whitespace();
    // After comm: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    Duration::from_micros((utime + stime) * (1_000_000 / CLK_TCK))
}

/// Peak resident set size of the process (`VmHWM`) in MiB, so that journal,
/// version-chain and set-up growth all show.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Client threads (and connections) a workload uses: one per available
/// core, never more — all load comes from this one process. Capped at the
/// 8 cells of the mix workloads so `parallel_disjoint` can give every
/// thread a cell of its own.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8)
}

/// One-line host description for result files.
pub fn host_line() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::env::var("COLOCK_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "nproc={} kernel={kernel} rustc={rustc}",
        std::thread::available_parallelism().map_or(1, usize::from)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() >= before);
        assert!(peak_rss_mb() > 0.5);
        assert!((1..=8).contains(&client_count()));
    }
}
