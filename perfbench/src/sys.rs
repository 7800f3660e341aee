//! Process and host facts read from the operating system: CPU time,
//! peak resident memory, core count and the source revision.

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, summed over all its
/// threads (including ones that have exited). `None` off Linux.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// Peak resident set size of this process in MiB (`VmHWM`). `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Short git revision of the working directory, or `"unknown"` when the
/// directory is not the top of a git checkout. Discovery is fenced at the
/// working directory, so git reads nothing above it.
pub fn git_rev() -> String {
    let Ok(here) = std::env::current_dir() else { return "unknown".to_string() };
    let fence = here.parent().unwrap_or(&here).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", fence)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_plausible() {
        let cpu = cpu_time().expect("/proc/self/stat is readable");
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(60) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        assert!(cpu_time().unwrap() >= cpu);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(host_cores() >= 1);
    }
}
