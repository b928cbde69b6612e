//! What the numbers were measured on: the host fingerprint that goes into
//! every ledger document, and the process's peak memory.

use std::process::Command;

use lowino::SimdTier;

/// Compute threads every workload uses: `min(nproc, 2)`.
pub fn threads() -> usize {
    cores().min(2)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` (peak resident set) of this process in MiB; 0 where /proc does
/// not say.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cache_size(level: u32) -> String {
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(l) = std::fs::read_to_string(format!("{base}/level")) else {
            break;
        };
        let ty = std::fs::read_to_string(format!("{base}/type")).unwrap_or_default();
        if l.trim().parse() == Ok(level) && ty.trim() != "Instruction" {
            if let Ok(size) = std::fs::read_to_string(format!("{base}/size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".into()
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON object: cores, SIMD tier, cache sizes, rustc, git commit.
/// `rustc` and `git` are asked at run time; `git` only when the working
/// directory is itself a repository, so a plain checkout reads "unknown"
/// instead of sending git up the directory tree.
pub fn fingerprint_json(seed: u64, seconds: f64) -> String {
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    let commit = if std::path::Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "{{\"cores\":{},\"threads\":{},\"simd_tier\":\"{}\",\"l2\":\"{}\",\"l3\":\"{}\",\
         \"rustc\":\"{}\",\"git_commit\":\"{}\",\"seed\":{seed},\"window_s\":{seconds}}}",
        cores(),
        threads(),
        SimdTier::detect().name(),
        esc(cache_size(2)),
        esc(cache_size(3)),
        esc(first_line_of("rustc", &["--version"])),
        esc(commit),
    )
}
