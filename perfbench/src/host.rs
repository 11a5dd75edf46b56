//! The host block printed with every run: what the numbers were measured on.

use std::process::Command;

/// First line of a command's stdout, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the highest-level cache of CPU 0.
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One `host ...` line: cores, CPU model, last-level cache, compiler,
/// commit (`unknown` outside a git checkout) and seed.
pub fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={nproc} cpu=\"{}\" llc={} rustc=\"{}\" git_rev={} seed={seed}",
        cpu_model(),
        llc_size(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}
