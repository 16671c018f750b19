//! Small shared helpers: order statistics, process memory, the result
//! record every workload fills in, and the cross-run repeat check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail latency of a sample: the mean of its slowest 1%, and of at
/// least its slowest ten (of all of it when it has ten or fewer). A mean
/// over the tail moves with every slow operation in it, where a single
/// order statistic such as p99 jumps between whichever few operations
/// happen to sit at its rank, run to run.
pub fn tail(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = xs.len().div_ceil(100).max(10).min(xs.len());
    v[v.len() - k..].iter().sum::<f64>() / k as f64
}

/// Run `setup` at least [`crate::SETUP_REPS`] times and for at least
/// [`crate::SETUP_MIN_S`] seconds; return the first result and the median
/// set-up time. Every later result must be `same` as the first.
pub fn setup_median<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut first: Option<T> = None;
    while times.len() < crate::SETUP_REPS || times.iter().sum::<f64>() < crate::SETUP_MIN_S {
        let t = Instant::now();
        let r = setup()?;
        times.push(secs(t));
        match &first {
            Some(f) => out.check(same(f, &r), || "set-up repetitions disagree".into()),
            None => first = Some(r),
        }
    }
    println!("set-up repeated {} times: {times:.4?} s", times.len());
    Ok((first.expect("at least one set-up"), median(&times)))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`). Every
/// workload runs in its own process, so one workload's peak never hides
/// another's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `job` back to back until `seconds` have passed (and at least
/// [`crate::MIN_JOBS`] times), then report a whole-job workload's
/// end-to-end metrics. `job` returns its own wall time, measured around
/// the work only; its checks run outside that window.
pub fn measure_jobs(
    out: &mut Outcome,
    seconds: f64,
    events: u64,
    compression_ratio: f64,
    setup_s: f64,
    mut job: impl FnMut(&mut Outcome) -> Result<f64, String>,
) -> Result<(), String> {
    let t_run = Instant::now();
    let cpu0 = process_cpu_s();
    let mut walls = Vec::new();
    while walls.len() < crate::MIN_JOBS || secs(t_run) < seconds {
        walls.push(job(out)?);
    }
    let cpu = process_cpu_s() - cpu0;
    let p50 = median(&walls);
    println!(
        "jobs measured: {} (wall per job, s: {walls:.4?})",
        walls.len()
    );
    out.metric("op_p50_ms", p50 * 1e3, "ms");
    out.metric("op_tail_ms", tail(&walls) * 1e3, "ms");
    out.metric(
        "ops_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("events_per_s", events as f64 / p50, "1/s");
    out.metric("cpu_ms_per_op", cpu * 1e3 / walls.len() as f64, "ms");
    out.metric("compression_ratio", compression_ratio, "ratio");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("setup_s", setup_s, "s");
    Ok(())
}

/// CPU time this process has used so far, all threads included (user +
/// system, from `/proc/self/stat`; clock-tick resolution). Time the host
/// gives to other guests is not counted, unlike wall time.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// What one benchmark invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record one checked operation; a failed check is logged and counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: CHECK FAILED: {}", what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The machine-readable last line of the benchmark's output.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable metric table (printed before the JSON line).
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<26} {value:>16.6} {unit}");
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<26} {:>16.6} ratio ({} of {} checked operations failed)",
            "failed_ratio", ratio, self.failed, self.attempted
        );
    }
}

/// Counts that must repeat bit for bit. Within a run every job is compared
/// against set-up; across runs the values are kept next to the benchmark's
/// scratch files, keyed by the identity of the benchmark executable (so a
/// rebuilt program starts a fresh record), and compared on the next run.
pub struct RepeatLog {
    path: PathBuf,
    values: BTreeMap<String, u64>,
}

impl RepeatLog {
    pub fn open(dir: &Path, workload: &str) -> RepeatLog {
        let path = dir.join(format!("repeat-{}-{workload}.txt", exe_identity()));
        let values = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        RepeatLog { path, values }
    }

    /// Compare `value` with what earlier runs recorded under `key`, record
    /// it if new, and report drift as a failed check.
    pub fn expect(&mut self, out: &mut Outcome, key: &str, value: u64) {
        match self.values.get(key) {
            Some(&prev) => out.check(prev == value, || {
                format!("{key} drifted across runs: earlier {prev}, now {value}")
            }),
            None => {
                self.values.insert(key.to_string(), value);
            }
        }
    }

    pub fn save(&self) {
        let body: String = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect();
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        if std::fs::write(&tmp, body).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

fn exe_identity() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            format!("{:x}-{:x}", m.len(), mtime)
        }
        Err(_) => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(tail(&xs), 195.5);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), 1990.5);
        assert_eq!(tail(&[1.0, 5.0, 9.0]), 5.0);
    }

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
