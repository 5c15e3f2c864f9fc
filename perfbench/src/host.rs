//! Host facts recorded with every result, the benchmark's own memory
//! triad, and the process's peak resident set.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::report::json_str;
use crate::stats::median;

/// Size in bytes of the data or unified cache at `level` on cpu0, from
/// sysfs (`None` where sysfs does not list one).
pub fn cache_bytes(level: u32) -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .find_map(|e| {
            let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
            let lvl: u32 = read("level")?.trim().parse().ok()?;
            let kind = read("type")?;
            if lvl != level || kind.trim() == "Instruction" {
                return None;
            }
            parse_size(read("size")?.trim())
        })
}

/// Largest cache level on cpu0 and its size in bytes.
pub fn llc() -> Option<(u32, usize)> {
    (1..=4).rev().find_map(|l| cache_bytes(l).map(|b| (l, b)))
}

/// Parse a sysfs cache size such as `2048K` or `105M`.
fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from the repository's `.git` directory
/// (no `git` process, nothing read outside the checkout), or `unknown`.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        }),
    });
    rev.map_or_else(|| "unknown".to_string(), |h| h.chars().take(12).collect())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance object printed with every result: host, toolchain,
/// source revision, and the run's configuration (`config` holds
/// `"key": value` pairs already rendered as JSON).
pub fn provenance(config: &[(&str, String)]) -> String {
    let l2 = cache_bytes(2).map_or("null".into(), |b| b.to_string());
    let llc = llc().map_or("null".into(), |(_, b)| b.to_string());
    let mut fields = vec![
        format!("\"nproc\": {}", nproc()),
        format!("\"isa\": {}", json_str(ump_simd::isa_name())),
        format!("\"l2_bytes\": {l2}"),
        format!("\"llc_bytes\": {llc}"),
        format!(
            "\"rustc\": {}",
            json_str(&command_line("rustc", &["--version"]))
        ),
        format!("\"git_rev\": {}", json_str(&git_rev())),
    ];
    fields.extend(config.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    format!("{{{}}}", fields.join(", "))
}

/// Peak resident set of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cache size assumed when sysfs lists none.
const FALLBACK_LLC: usize = 64 << 20;

/// STREAM triad `a = b + s·c` over `threads` threads, each array at
/// least four times the last-level cache, so every pass streams from
/// DRAM. Returns the median of `passes` passes in GB/s, counting 24
/// bytes per element (two reads, one write).
pub fn triad_gbs(threads: usize, passes: usize) -> f64 {
    let llc = llc().map_or(FALLBACK_LLC, |(_, b)| b);
    let n = 4 * llc / std::mem::size_of::<f64>();
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    // first touch on the thread that streams the chunk
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let scalar = std::hint::black_box(3.0f64);
    let rates: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + scalar * c;
                        }
                    });
                }
            });
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&a);
            24.0 * n as f64 / dt / 1e9
        })
        .collect();
    assert_eq!(a[n - 1], 7.0, "triad result");
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
