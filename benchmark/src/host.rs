//! The host and hygiene record: what machine and environment a set of
//! numbers was taken on, and the order statistics the reports use.

use std::process::Command;

/// What the benchmark knows about the machine it runs on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism` (cores this process may use).
    pub nproc: usize,
    /// Per-core L2 bytes of cpu0 (0 when sysfs does not say).
    pub l2_bytes: usize,
    /// Last-level cache bytes of cpu0 (a 32 MiB guess when sysfs does not
    /// say; `llc_known` tells which).
    pub llc_bytes: usize,
    /// Whether `llc_bytes` was read from sysfs.
    pub llc_known: bool,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Parses a sysfs cache size such as `1280K` or `54M`.
fn parse_cache_size(text: &str) -> Option<usize> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// `(level, bytes)` of every data or unified cache of cpu0.
fn cpu0_caches() -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_cache_size(&size)) {
            out.push((level, bytes));
        }
    }
    out
}

impl Host {
    /// Probes the machine.
    pub fn probe() -> Host {
        let caches = cpu0_caches();
        let level = |l: u32| caches.iter().find(|c| c.0 == l).map(|c| c.1);
        let llc = caches.iter().max_by_key(|c| c.0).map(|c| c.1);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: level(2).unwrap_or(0),
            llc_bytes: llc.unwrap_or(32 << 20),
            llc_known: llc.is_some(),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// Lanes of the threaded measurements: every core, and at least two so
    /// the metric exists on a one-core host (where it shows no speed-up and
    /// `par.threads` says why).
    pub fn mt_threads(&self) -> usize {
        self.nproc.max(2)
    }
}

/// Removes every `PSCG_*` variable from the environment, so no knob the
/// library reads lazily (pool size, SpMV format, chunk sizes) differs from
/// its default. Returns the names removed. Call before any thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PSCG_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank 95th percentile (the maximum for fewer than 20 samples).
pub fn p95(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (0.95 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("1280K\n"), Some(1280 << 10));
        assert_eq!(parse_cache_size("54M"), Some(54 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("lots"), None);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(p95(&[1.0, 3.0, 2.0]), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95(&hundred), 95.0);
    }
}
