//! Host facts and noise diagnostics stamped on every run, so a noisy run
//! can be told apart from a regression.

use std::path::Path;
use std::process::Command;

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// Aggregate steal ticks (the 8th value of the `cpu` line) from the text
/// of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Aggregate steal ticks of the host right now (0 when unreadable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// The three load averages, as `/proc/loadavg` prints them.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Available cores as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output; `"unknown"` when it
/// cannot run. The child is waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on the path.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// The git revision of the current directory, or `"none"` when it is
/// not the root of a git checkout (git is not asked to search upward).
pub fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    command_line(
        "git",
        &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"],
    )
}

/// The build profile this binary was compiled with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  10 20 30 40 50 60 70 88 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(88));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_process_has_a_peak_rss() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
