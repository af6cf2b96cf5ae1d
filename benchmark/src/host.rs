//! What the benchmark reads from the host: its own CPU time and peak
//! memory, and the provenance that goes on every result.

use std::process::{Command, Stdio};

/// User plus system CPU time of this process so far, seconds. `/proc`
/// counts in clock ticks, which are 1/100 s on Linux.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn loadavg_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a number came from. Collected once per process, before anything
/// is timed.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub cores: usize,
    pub cpu_features: String,
    pub dispatch_arm: &'static str,
    pub loadavg_start: f64,
}

impl Provenance {
    pub fn collect() -> Provenance {
        Provenance {
            // A checkout that is not a git repository reports "unknown".
            commit: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            cores: cores(),
            cpu_features: fi_tensor::simd::feature_summary(),
            dispatch_arm: fi_tensor::simd::active_arm().name(),
            loadavg_start: loadavg_1min(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"cpu_features\": \"{}\", \
             \"dispatch_arm\": \"{}\", \"deps\": \"stubs (offline stand-ins, see ../stubs/README.md)\", \
             \"loadavg_1min_start\": {}}}",
            self.commit, self.rustc, self.cores, self.cpu_features, self.dispatch_arm, self.loadavg_start
        )
    }
}
