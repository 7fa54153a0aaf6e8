//! Host-interference diagnostics and memory, read from `/proc`.
//!
//! Run-queue wait (time this process's threads were runnable but not
//! running) and steal (time the hypervisor gave this machine's CPUs to
//! someone else) over the timed phase tell a run slowed by a busy shared
//! host apart from a slow program. They are recorded, never gated on.

use std::fs;

/// Cumulative counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Sum over this process's threads of run-queue wait, ns.
    pub runqueue_wait_ns: u64,
    /// Machine-wide steal, clock ticks.
    pub steal_ticks: u64,
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Reads the counters; a missing file reads as 0.
pub fn sample() -> HostSample {
    let mut runqueue_wait_ns = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(s) = fs::read_to_string(task.path().join("schedstat")) {
                runqueue_wait_ns += s
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    let steal_ticks = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or(0);
    HostSample {
        runqueue_wait_ns,
        steal_ticks,
    }
}

/// Run-queue wait and steal between two samples, in ms.
pub fn delta_ms(before: HostSample, after: HostSample) -> (f64, f64) {
    (
        after
            .runqueue_wait_ns
            .saturating_sub(before.runqueue_wait_ns) as f64
            / 1e6,
        after.steal_ticks.saturating_sub(before.steal_ticks) as f64 * 1e3 / USER_HZ,
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
