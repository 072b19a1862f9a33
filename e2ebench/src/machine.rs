//! The machine record kept with every run, so a shift in the figures
//! can be told apart from a change in the code: core count, CPU model,
//! toolchain, source identity, a calibration loop timed at the start
//! and the end of the run, and the CPU steal share over the run.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// A fixed integer loop that touches no repository code. Its wall time
/// tracks the speed the machine gives this process right now.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..30_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so it is not added again.
    let total: u64 = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Steal share in percent between two `/proc/stat` readings.
pub fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
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

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace's sources (path and bytes, in path order),
/// so a run names the code it measured even where there is no git
/// history.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&path, out);
        }
    }
}

/// The static part of the record, as a JSON object.
pub fn record_json(root: &Path, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"source_digest\":\"{}\",\"seed\":{seed}}}",
        tt_obs::json::string(&cpu_model()),
        tt_obs::json::string(&command_line("rustc", &["--version"], root)),
        tt_obs::json::string(&command_line("git", &["rev-parse", "HEAD"], root)),
        source_digest(root),
    )
}

/// Peak resident set of the largest child this process has waited for,
/// in KiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss` on Linux).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_kib() -> Option<u64> {
    // The Linux `struct rusage` on 64-bit targets: two `timeval`s (two
    // `long`s each) followed by fourteen `long` counters.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the
    // kernel's `struct rusage` on this target, and `getrusage` writes
    // only within that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    (rc == 0).then(|| u64::try_from(u.maxrss).unwrap_or(0))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_kib() -> Option<u64> {
    None
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn process_peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_percentage_of_elapsed_jiffies() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((20, 2000))), 1.0);
        assert_eq!(steal_pct(None, Some((20, 2000))), 0.0);
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), 0.0);
    }
}
