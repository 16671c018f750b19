//! `e2ebench` — one end-to-end CYPRESS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ingest_lu|backend_sp|serve_mixed|collect_bt> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with nothing but wall clocks around whole operations; `--trace 1`
//! records spans around every layer call and reports the per-layer
//! breakdown. Human-readable tables go to stdout first; the last line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). Any failed
//! correctness check makes `correct` false and the exit code 1. See
//! `e2ebench/README.md` for the workloads and metric definitions.

mod collect;
mod jobs;
mod serve;
mod spans;
mod util;

use cypress::Level;
use std::path::PathBuf;
use std::process::ExitCode;
use util::Outcome;

/// Ranks per job.
pub const NPROCS: u32 = 64;
/// Worker threads and concurrent connections (the host has two cores).
pub const THREADS: usize = 2;
/// Set-up repetitions per run (at least this many, and at least
/// [`SETUP_MIN_S`] of them); `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MIN_S: f64 = 2.0;
/// Minimum jobs (or traced rounds) per run, however short `--seconds` is.
pub const MIN_JOBS: usize = 3;

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minilang.parse_s", "s"),
    ("cst.analyze_s", "s"),
    ("runtime.interp_s", "s"),
    ("runtime.events", "count"),
    ("core.session_s", "s"),
    ("core.session_overhead", "ratio"),
    ("core.session_events_per_s", "1/s"),
    ("core.peak_ctt_bytes", "B"),
    ("core.ctt_bytes", "B"),
    ("core.merged_bytes", "B"),
    ("core.merge_s", "s"),
    ("trace.encode_s", "s"),
    ("deflate.compress_s", "s"),
    ("deflate.ratio", "ratio"),
    ("trace.write_s", "s"),
    ("trace.container_bytes", "B"),
    ("store.open_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.loads", "count"),
    ("store.evictions", "count"),
    ("query.query_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.fed_ratio", "ratio"),
    ("serve.wire_s", "s"),
    ("net.produce_s", "s"),
    ("net.finack_wait_s", "s"),
    ("net.drain_s", "s"),
    ("net.retries", "count"),
    ("net.vs_local", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// Emit every [`PER_LAYER`] metric: the given values, 0 for the rest.
pub fn layer_metrics(out: &mut Outcome, values: &[(&str, f64)]) {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    for (name, unit) in PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        out.metric(name, v, unit);
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(|s| s.as_str())
            .ok_or(format!("{flag} needs a value"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Scratch files and cross-run repeat records live inside the working
/// directory (the checkout root).
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let dir = work_root().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = match args.workload.as_str() {
        "ingest_lu" => jobs::run(
            &jobs::Spec {
                program: "lu",
                level: None,
                obs_row: true,
            },
            args,
            &dir,
            out,
        ),
        "backend_sp" => jobs::run(
            &jobs::Spec {
                program: "sp",
                level: Some(Level::Default),
                obs_row: false,
            },
            args,
            &dir,
            out,
        ),
        "serve_mixed" => serve::run(args, &dir, out),
        "collect_bt" => collect::run(args, &dir, out),
        w => Err(format!("unknown workload {w:?}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <ingest_lu|backend_sp|serve_mixed|collect_bt> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("e2ebench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let mode = if args.trace { "traced" } else { "untraced" };
    out.print_table(&format!(
        "{} seed {} ({mode}, {} ranks, {} threads)",
        args.workload, args.seed, NPROCS, THREADS
    ));
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
