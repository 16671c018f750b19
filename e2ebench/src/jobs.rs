//! The whole-job workloads `ingest_lu` and `backend_sp`: source text →
//! parse → CST → interpreter + session → merge → encode/DEFLATE →
//! container write → `StoreJob` open → query → analyze.
//!
//! The untraced job is what a user runs: `Pipeline::run`, then
//! `CompressedJob::write_container`, then the store's read path. The traced
//! job makes the same calls layer by layer from this file, with a span
//! around each, and splits interpreter from session time by recording each
//! rank's events into a buffer (`runtime.interp`) and replaying them through
//! `EventSink::event` into a fresh `CompressSession` (`core.session`). Its
//! container must be byte-identical to the untraced one.

use crate::spans::{self, Tracer, ROOT};
use crate::util::{measure_jobs, median, secs, setup_median, Outcome, RepeatLog};
use crate::{Args, NPROCS, THREADS};
use cypress::analysis::{analyze_ctts, AnalyzeOptions};
use cypress::core::{merge_all_parallel, CompressConfig, CompressSession, SessionConfig};
use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::runtime::{run_rank_with_sink, run_ranks, InterpConfig};
use cypress::simmpi::LogGp;
use cypress::store::StoreJob;
use cypress::trace::{assemble, encode_section, Codec, Container, Event, EventSink, SectionKind};
use cypress::workloads::{by_name, Scale};
use cypress::{Ingest, Level, Pipeline, PipelineConfig, QueryOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One whole-job workload.
pub struct Spec {
    /// Bundled workload name (`cypress_workloads::by_name`).
    pub program: &'static str,
    /// Container section compression (`None`: raw sections, the CLI default).
    pub level: Option<Level>,
    /// Also time the job with the program's own metrics and tracing plane
    /// switched on (the `obs.trace_overhead` reference row).
    pub obs_row: bool,
}

fn config(spec: &Spec) -> PipelineConfig {
    PipelineConfig {
        threads: THREADS,
        mode: Ingest::Sequential,
        level: spec.level,
        ..PipelineConfig::default()
    }
}

/// Counts MPI events and nothing else: the untraced application.
struct CountSink(u64);

impl EventSink for CountSink {
    fn event(&mut self, ev: Event) {
        if matches!(ev, Event::Mpi(_)) {
            self.0 += 1;
        }
    }
}

/// Everything the checks compare against, computed in set-up.
struct Reference {
    source: String,
    /// MPI events counted by the untraced interpreter.
    interp_events: u64,
    /// Wall time of that untraced interpreter run (all ranks, 2 workers).
    interp_wall_s: f64,
    /// Per-rank total events (markers included), to size replay buffers.
    rank_events: Vec<u64>,
    rank_ctts: Vec<Vec<u8>>,
    merged: Vec<u8>,
    container: Vec<u8>,
    meta: Vec<u8>,
    raw_bytes: u64,
    query: Vec<u8>,
    analyze: Vec<u8>,
}

fn setup(spec: &Spec, dir: &Path) -> Result<Reference, String> {
    let w = by_name(spec.program, NPROCS, Scale::Paper).ok_or("unknown workload")?;
    let prog = parse(&w.source).map_err(|e| e.to_string())?;
    check_program(&prog).map_err(|e| e.to_string())?;
    let info = analyze_program(&prog);
    let t = Instant::now();
    let counts = run_ranks(NPROCS, THREADS, |rank| {
        let mut sink = CountSink(0);
        run_rank_with_sink(
            &prog,
            &info,
            rank,
            NPROCS,
            &InterpConfig::default(),
            &mut sink,
        )
        .map(|_| sink.0)
    });
    let interp_wall_s = secs(t);
    let interp_events = counts
        .into_iter()
        .sum::<Result<u64, _>>()
        .map_err(|e| e.to_string())?;

    let mut job = Pipeline::new(w.source.clone())
        .ranks(NPROCS)
        .configure(config(spec))
        .run()
        .map_err(|e| e.to_string())?;
    let query = job.query().map_err(|e| e.to_string())?.to_bytes();
    let analyze = analyze_ctts(
        &job.info.cst,
        &job.ctts,
        &LogGp::default(),
        &AnalyzeOptions::default(),
    )
    .map_err(|e| e.to_string())?
    .to_bytes();
    let path = dir.join("reference.cytc");
    job.write_container(&path, true)
        .map_err(|e| e.to_string())?;
    let container = std::fs::read(&path).map_err(|e| e.to_string())?;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let meta = Container::from_bytes(&container)
        .map_err(|e| e.to_string())?
        .find(SectionKind::Meta)
        .ok_or("reference container has no meta section")?
        .payload
        .clone();
    Ok(Reference {
        source: w.source,
        interp_events,
        interp_wall_s,
        rank_events: job.stats.iter().map(|s| s.events).collect(),
        rank_ctts: job.ctts.iter().map(|c| c.to_bytes()).collect(),
        merged: job.merge().to_bytes(),
        container,
        meta,
        raw_bytes: job.raw_mpi_bytes(),
        query,
        analyze,
    })
}

/// What one measured job produced.
struct JobResult {
    wall_s: f64,
    events: u64,
    container: Vec<u8>,
    query: Vec<u8>,
    analyze: Vec<u8>,
}

/// The job as a user runs it, through the public `Pipeline` API.
fn job_untraced(spec: &Spec, source: &str, path: &Path) -> Result<JobResult, String> {
    let t = Instant::now();
    let mut job = Pipeline::new(source)
        .ranks(NPROCS)
        .configure(config(spec))
        .run()
        .map_err(|e| e.to_string())?;
    job.write_container(path, true).map_err(|e| e.to_string())?;
    let opened = StoreJob::open(path, "job").map_err(|e| e.to_string())?;
    let query = opened
        .query(&QueryOptions::default())
        .map_err(|e| e.to_string())?;
    let analyze = opened
        .analyze(&AnalyzeOptions::default())
        .map_err(|e| e.to_string())?;
    let wall_s = secs(t);
    Ok(JobResult {
        wall_s,
        events: job.total_events(),
        container: std::fs::read(path).map_err(|e| e.to_string())?,
        query: query.to_bytes(),
        analyze: analyze.to_bytes(),
    })
}

fn check_job(out: &mut Outcome, r: &JobResult, reference: &Reference) {
    out.check(r.events == reference.interp_events, || {
        format!(
            "job traced {} events, untraced interpreter {}",
            r.events, reference.interp_events
        )
    });
    out.check(r.container == reference.container, || {
        "container bytes differ from set-up".into()
    });
    out.check(r.query == reference.query, || {
        "reopened query differs from CompressedJob::query".into()
    });
    out.check(r.analyze == reference.analyze, || {
        "reopened analyze differs from the in-memory analyze".into()
    });
}

/// Counts a traced job reports besides its spans.
struct TracedCounts {
    peak_ctt_bytes: u64,
    raw_section_bytes: u64,
    stored_section_bytes: u64,
    fed_ratio: f64,
}

/// The same job, layer by layer, with a span around each call.
fn job_traced(
    spec: &Spec,
    reference: &Reference,
    path: &Path,
    tracer: &Tracer,
    job: u64,
    out: &mut Outcome,
) -> Result<(JobResult, TracedCounts), String> {
    let t = Instant::now();
    let root = tracer.span("job", ROOT, job);
    let rid = root.id();
    let prog = {
        let _s = tracer.span("minilang.parse", rid, job);
        let prog = parse(&reference.source).map_err(|e| e.to_string())?;
        check_program(&prog).map_err(|e| e.to_string())?;
        prog
    };
    let info = {
        let _s = tracer.span("cst.analyze", rid, job);
        analyze_program(&prog)
    };
    let per_rank = {
        let pool = tracer.span("runtime.sched", rid, job);
        let pid = pool.id();
        run_ranks(NPROCS, THREADS, |rank| {
            let s = tracer.span("runtime.interp", pid, job);
            let mut buf: Vec<Event> =
                Vec::with_capacity(reference.rank_events[rank as usize] as usize);
            let app_time = run_rank_with_sink(
                &prog,
                &info,
                rank,
                NPROCS,
                &InterpConfig::default(),
                &mut buf,
            );
            drop(s);
            let _s = tracer.span("core.session", pid, job);
            let mut session = CompressSession::new(
                &info.cst,
                rank,
                NPROCS,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            for ev in buf {
                session.event(ev);
            }
            app_time.map(|app| session.finish(app))
        })
    };
    let mut ctts = Vec::with_capacity(per_rank.len());
    let mut stats = Vec::with_capacity(per_rank.len());
    for r in per_rank {
        let (ctt, st) = r.map_err(|e| e.to_string())?;
        ctts.push(ctt);
        stats.push(st);
    }
    let merged = {
        let _s = tracer.span("core.merge", rid, job);
        merge_all_parallel(&ctts, THREADS)
    };
    let container = {
        let _s = tracer.span("trace.encode", rid, job);
        let mut c = Container::new(NPROCS);
        c.push(SectionKind::Meta, None, reference.meta.clone());
        c.push(SectionKind::CstText, None, info.cst.to_text().into_bytes());
        c.push(SectionKind::MergedCtt, None, merged.to_bytes());
        for ctt in &ctts {
            c.push(SectionKind::RankCtt, Some(ctt.rank), ctt.to_bytes());
        }
        c
    };
    let encoded = {
        let _s = tracer.span("deflate.compress", rid, job);
        let sections = &container.sections;
        if spec.level.is_some() && sections.len() > 1 {
            run_ranks(sections.len() as u32, THREADS, |i| {
                encode_section(&sections[i as usize], spec.level)
            })
        } else {
            sections
                .iter()
                .map(|s| encode_section(s, spec.level))
                .collect()
        }
    };
    let image = {
        let _s = tracer.span("trace.write", rid, job);
        let image = assemble(NPROCS, &encoded);
        Container::write_image(path, &image).map_err(|e| e.to_string())?;
        image
    };
    let opened = {
        let _s = tracer.span("store.open", rid, job);
        StoreJob::open(path, "job").map_err(|e| e.to_string())?
    };
    let query = {
        let _s = tracer.span("query.query", rid, job);
        opened
            .query(&QueryOptions::default())
            .map_err(|e| e.to_string())?
    };
    let analyze = {
        let _s = tracer.span("analysis.analyze", rid, job);
        opened
            .analyze(&AnalyzeOptions::default())
            .map_err(|e| e.to_string())?
    };
    drop(root);
    let wall_s = secs(t);

    let replayed = container.rank_sections().map(|s| &s.payload);
    out.check(replayed.eq(reference.rank_ctts.iter()), || {
        "replayed per-rank CTTs differ from the live path".into()
    });
    let merged_ok = container
        .find(SectionKind::MergedCtt)
        .is_some_and(|s| s.payload == reference.merged);
    out.check(merged_ok, || {
        "traced merge differs from the live path".into()
    });
    let counts = TracedCounts {
        peak_ctt_bytes: stats
            .iter()
            .map(|s| s.peak_ctt_bytes as u64)
            .max()
            .unwrap_or(0),
        raw_section_bytes: container
            .sections
            .iter()
            .map(|s| s.payload.len() as u64)
            .sum(),
        stored_section_bytes: encoded.iter().map(|e| e.stored_len() as u64).sum(),
        fed_ratio: analyze.stats.fed_ops as f64 / analyze.stats.logical_ops.max(1) as f64,
    };
    Ok((
        JobResult {
            wall_s,
            events: stats.iter().map(|s| s.mpi_events).sum(),
            container: image,
            query: query.to_bytes(),
            analyze: analyze.to_bytes(),
        },
        counts,
    ))
}

/// Run the untraced job for an obs-on reference row: the program's own
/// metrics and tracing plane switched on through its public API.
fn job_obs_on(spec: &Spec, reference: &Reference, path: &Path) -> Result<JobResult, String> {
    cypress::obs::set_enabled(true);
    cypress::obs::tracing::set_trace_enabled(true);
    let r = job_untraced(spec, &reference.source, path);
    cypress::obs::tracing::set_trace_enabled(false);
    cypress::obs::set_enabled(false);
    drop(cypress::obs::tracing::trace_drain());
    r
}

pub fn run(spec: &Spec, args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let (reference, setup_s) = setup_median(
        out,
        || setup(spec, dir),
        |a, b| {
            a.interp_events == b.interp_events
                && a.container == b.container
                && a.query == b.query
                && a.analyze == b.analyze
        },
    )?;
    let path = dir.join("job.cytc");
    let mut repeat = RepeatLog::open(&crate::work_root(), &args.workload);
    repeat.expect(out, "runtime.events", reference.interp_events);
    repeat.expect(
        out,
        "trace.container_bytes",
        reference.container.len() as u64,
    );
    repeat.expect(out, "raw_mpi_bytes", reference.raw_bytes);
    let ctt_bytes: usize = reference.rank_ctts.iter().map(Vec::len).sum();
    repeat.expect(out, "core.ctt_bytes", ctt_bytes as u64);
    repeat.expect(out, "core.merged_bytes", reference.merged.len() as u64);
    let ratio = reference.raw_bytes as f64 / reference.container.len() as f64;

    if !args.trace {
        measure_jobs(
            out,
            args.seconds,
            reference.interp_events,
            ratio,
            setup_s,
            |out| {
                let r = job_untraced(spec, &reference.source, &path)?;
                check_job(out, &r, &reference);
                Ok(r.wall_s)
            },
        )?;
        repeat.save();
        return Ok(());
    }

    // Traced run: rounds of (untraced, obs-on when asked, traced) jobs,
    // so the tracing overheads compare jobs measured side by side.
    let tracer = Tracer::new();
    let (mut plain, mut obs_on, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_counts = None;
    let t_run = Instant::now();
    let mut job = 0;
    while traced.len() < crate::MIN_JOBS || secs(t_run) < args.seconds {
        let r = job_untraced(spec, &reference.source, &path)?;
        check_job(out, &r, &reference);
        plain.push(r.wall_s);
        if spec.obs_row {
            let r = job_obs_on(spec, &reference, &path)?;
            check_job(out, &r, &reference);
            obs_on.push(r.wall_s);
        }
        job += 1;
        let (r, counts) = job_traced(spec, &reference, &path, &tracer, job, out)?;
        check_job(out, &r, &reference);
        traced.push(r.wall_s);
        repeat.expect(out, "core.peak_ctt_bytes", counts.peak_ctt_bytes);
        last_counts = Some(counts);
    }
    let counts = last_counts.expect("at least one traced job");

    let mut selfs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut interp_busy, mut session_busy) = (0.0, 0.0);
    for spans in spans::by_job(tracer.take()).values() {
        for (name, t) in spans::self_times(spans) {
            selfs.entry(name).or_default().push(t);
        }
        let busy = spans::busy_times(spans);
        interp_busy += busy.get("runtime.interp").copied().unwrap_or(0.0);
        session_busy += busy.get("core.session").copied().unwrap_or(0.0);
    }
    let med: BTreeMap<&'static str, f64> = selfs.iter().map(|(k, v)| (*k, median(v))).collect();
    let coverage = spans::print_layer_table(&args.workload, "job", &med);
    let layer = |name: &str| med.get(name).copied().unwrap_or(0.0);
    let (plain_s, traced_s) = (median(&plain), median(&traced));
    let session_overhead = session_busy / interp_busy;
    // Events (structure markers included, as `bench_hotpath` counts them)
    // one session absorbs per second of its own busy time.
    let all_events: u64 = reference.rank_events.iter().sum();
    let session_rate = all_events as f64 * traced.len() as f64 / session_busy;
    println!(
        "benchmark tracing overhead: traced job {traced_s:.4} s vs untraced {plain_s:.4} s \
         ({:+.2}%)",
        100.0 * (traced_s / plain_s - 1.0)
    );
    println!(
        "Fig. 16: session/interpreter = {:.3}; CompressSession absorbs {:.1} M events/s \
         ({all_events} events, {} of them MPI; untraced interpreter alone {:.3} s)",
        session_overhead,
        session_rate / 1e6,
        reference.interp_events,
        reference.interp_wall_s,
    );
    let backend: f64 = [
        "core.merge",
        "trace.encode",
        "deflate.compress",
        "trace.write",
        "store.open",
        "query.query",
        "analysis.analyze",
    ]
    .iter()
    .map(|n| layer(n))
    .sum();
    let job_wall: f64 = med.values().sum();
    println!(
        "shares of the traced job: interp+session {:.2}%, merge..analyze {:.2}%",
        100.0 * (layer("runtime.interp") + layer("core.session")) / job_wall,
        100.0 * backend / job_wall
    );
    if spec.obs_row {
        println!(
            "program tracing plane on: {:.4} s vs off {:.4} s",
            median(&obs_on),
            plain_s
        );
    }

    let obs_ratio = if spec.obs_row {
        median(&obs_on) / plain_s
    } else {
        0.0
    };
    crate::layer_metrics(
        out,
        &[
            ("minilang.parse_s", layer("minilang.parse")),
            ("cst.analyze_s", layer("cst.analyze")),
            ("runtime.interp_s", layer("runtime.interp")),
            ("runtime.events", reference.interp_events as f64),
            ("core.session_s", layer("core.session")),
            ("core.session_overhead", session_overhead),
            ("core.session_events_per_s", session_rate),
            ("core.peak_ctt_bytes", counts.peak_ctt_bytes as f64),
            ("core.ctt_bytes", ctt_bytes as f64),
            ("core.merged_bytes", reference.merged.len() as f64),
            ("core.merge_s", layer("core.merge")),
            ("trace.encode_s", layer("trace.encode")),
            ("deflate.compress_s", layer("deflate.compress")),
            (
                "deflate.ratio",
                counts.stored_section_bytes as f64 / counts.raw_section_bytes as f64,
            ),
            ("trace.write_s", layer("trace.write")),
            ("trace.container_bytes", reference.container.len() as f64),
            ("store.open_s", layer("store.open")),
            ("query.query_s", layer("query.query")),
            ("analysis.analyze_s", layer("analysis.analyze")),
            ("analysis.fed_ratio", counts.fed_ratio),
            ("obs.trace_overhead", obs_ratio),
            ("bench.trace_overhead", traced_s / plain_s),
            ("bench.layer_coverage", coverage),
        ],
    );
    repeat.save();
    Ok(())
}
