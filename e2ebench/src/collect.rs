//! `collect_bt`: `bt` at 64 ranks submitted with `net::submit_stream` by
//! two client threads over a unix socket to an in-process `Collector` with
//! two event-loop workers, then written to a container.
//!
//! A job runs from the source text to the container on disk: parse, CST,
//! collector bind, every rank submitted (the seed fixes the order the two
//! clients take ranks in), `Collector::run` returned, container written.
//! The merged CTT must equal local `merge_all` of the same job, and the
//! container must equal the one the local streaming pipeline writes.
//!
//! The traced job records, per rank, the `submit_stream` call
//! (`net.submit`), the producer closure inside it (`net.produce`), and
//! within that the interpreter recording the rank into a buffer
//! (`runtime.interp`) and the replay of the buffer into the client's frame
//! sink (`net.send`). `net.drain` runs from the last submission's return to
//! `Collector::run`'s return. Server-side sessions and merging run inside
//! the collector and show up as the clients' FinAck wait and the drain.

use crate::spans::{self, Tracer, ROOT};
use crate::util::{measure_jobs, median, secs, setup_median, Outcome, RepeatLog};
use crate::{Args, NPROCS, THREADS};
use cypress::core::merge_all;
use cypress::cst::{analyze_program, StaticInfo};
use cypress::minilang::ast::Program;
use cypress::minilang::{check_program, parse};
use cypress::net::{submit_stream, Addr, ClientConfig, CollectedJob, Collector, CollectorConfig};
use cypress::obs::rng::Rng;
use cypress::runtime::{run_rank_with_sink, InterpConfig};
use cypress::trace::{Codec, Event, EventSink};
use cypress::workloads::{by_name, Scale};
use cypress::{write_collected_container_with, Ingest, Pipeline, PipelineConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct Reference {
    source: String,
    events: u64,
    raw_bytes: u64,
    merged: Vec<u8>,
    container: Vec<u8>,
}

fn local_config() -> PipelineConfig {
    PipelineConfig {
        threads: THREADS,
        mode: Ingest::Sequential,
        ..PipelineConfig::default()
    }
}

/// The same job streamed locally: pipeline, merge, container (merged tree
/// only, raw sections — the collector daemon's defaults). Returns its wall
/// time and what the checks compare against.
fn local_job(source: &str, path: &Path) -> Result<(f64, Reference), String> {
    let t = Instant::now();
    let mut job = Pipeline::new(source)
        .ranks(NPROCS)
        .configure(local_config())
        .run()
        .map_err(|e| e.to_string())?;
    job.write_container(path, false)
        .map_err(|e| e.to_string())?;
    let wall = secs(t);
    Ok((
        wall,
        Reference {
            source: source.to_string(),
            events: job.total_events(),
            raw_bytes: job.raw_mpi_bytes(),
            merged: merge_all(&job.ctts).to_bytes(),
            container: std::fs::read(path).map_err(|e| e.to_string())?,
        },
    ))
}

fn setup(dir: &Path) -> Result<Reference, String> {
    let w = by_name("bt", NPROCS, Scale::Paper).ok_or("unknown workload")?;
    Ok(local_job(&w.source, &dir.join("local.cytc"))?.1)
}

/// The seeded rank submission order.
fn submission_order(seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..NPROCS).collect();
    let mut rng = Rng::new(seed ^ 0xC011_EC7B);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

struct Collected {
    wall_s: f64,
    job: CollectedJob,
    container: Vec<u8>,
    retries: u64,
}

/// Stream one rank into the client's sink; when traced, record it first
/// and replay the buffer, so interpreter and send time separate.
fn produce(
    prog: &Program,
    info: &StaticInfo,
    rank: u32,
    sink: &mut dyn EventSink,
    trace: Option<(&Tracer, u64, u64)>,
) -> Result<u64, String> {
    let cfg = InterpConfig::default();
    let Some((tracer, parent, job)) = trace else {
        return run_rank_with_sink(prog, info, rank, NPROCS, &cfg, &mut &mut *sink)
            .map_err(|e| e.to_string());
    };
    let s = tracer.span("runtime.interp", parent, job);
    let mut buf: Vec<Event> = Vec::new();
    let app = run_rank_with_sink(prog, info, rank, NPROCS, &cfg, &mut buf);
    drop(s);
    let _s = tracer.span("net.send", parent, job);
    for ev in buf {
        sink.event(ev);
    }
    app.map_err(|e| e.to_string())
}

fn collect_job(
    reference: &Reference,
    order: &[u32],
    sock: &Path,
    out_path: &Path,
    trace: Option<(&Tracer, u64)>,
) -> Result<Collected, String> {
    let span = |name, parent| trace.map(|(t, job)| t.span(name, parent, job));
    let t = Instant::now();
    let root = span("job", ROOT);
    let rid = root.as_ref().map_or(ROOT, |g| g.id());
    let prog = {
        let _s = span("minilang.parse", rid);
        let prog = parse(&reference.source).map_err(|e| e.to_string())?;
        check_program(&prog).map_err(|e| e.to_string())?;
        prog
    };
    let info = {
        let _s = span("cst.analyze", rid);
        analyze_program(&prog)
    };
    let cst_text = info.cst.to_text();
    let collect = span("net.collect", rid);
    let cid = collect.as_ref().map_or(ROOT, |g| g.id());
    let addr = Addr::parse(&format!("unix:{}", sock.display())).map_err(|e| e.to_string())?;
    let collector = Collector::bind(&addr).map_err(|e| e.to_string())?;
    let cfg = CollectorConfig {
        workers: THREADS,
        keep_rank_ctts: false,
        deadline: Some(Duration::from_secs(60)),
        ..CollectorConfig::default()
    };
    let next = AtomicUsize::new(0);
    let (job, retries) = std::thread::scope(|s| {
        let server = s.spawn(|| collector.run(&cfg));
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| -> Result<u64, String> {
                    let mut retries = 0;
                    while let Some(&rank) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let sub = span("net.submit", cid);
                        let sid = sub.as_ref().map_or(ROOT, |g| g.id());
                        let outcome = submit_stream(
                            &addr,
                            &ClientConfig::default(),
                            rank,
                            NPROCS,
                            &cst_text,
                            |sink| {
                                let p = span("net.produce", sid);
                                let traced =
                                    trace.zip(p.as_ref()).map(|((t, job), g)| (t, g.id(), job));
                                produce(&prog, &info, rank, sink, traced)
                            },
                        )
                        .map_err(|e| format!("rank {rank}: {e}"))?;
                        retries += u64::from(outcome.attempts - 1);
                    }
                    Ok(retries)
                })
            })
            .collect();
        let mut retries = Ok(0);
        for c in clients {
            match c.join().expect("client thread panicked") {
                Ok(r) => retries = retries.map(|acc| acc + r),
                Err(e) => retries = Err(e),
            }
        }
        let submitted = Instant::now();
        let job = server.join().expect("collector thread panicked");
        if let Some((tracer, job_id)) = trace {
            tracer.record("net.drain", cid, job_id, submitted, Instant::now());
        }
        (job, retries)
    });
    drop(collect);
    let job = job.map_err(|e| e.to_string())?;
    let retries = retries?;
    {
        let _s = span("trace.write", rid);
        write_collected_container_with(&job, out_path, false, None, THREADS)
            .map_err(|e| e.to_string())?;
    }
    drop(root);
    let wall_s = secs(t);
    Ok(Collected {
        wall_s,
        container: std::fs::read(out_path).map_err(|e| e.to_string())?,
        job,
        retries,
    })
}

fn check(out: &mut Outcome, c: &Collected, reference: &Reference) {
    out.check(c.job.merged.to_bytes() == reference.merged, || {
        "collected merge differs from local merge_all".into()
    });
    out.check(c.job.total_events == reference.events, || {
        format!(
            "collector counted {} events, local run {}",
            c.job.total_events, reference.events
        )
    });
    out.check(c.container == reference.container, || {
        "collected container differs from the locally streamed one".into()
    });
}

pub fn run(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let (reference, setup_s) = setup_median(
        out,
        || setup(dir),
        |a, b| a.merged == b.merged && a.container == b.container,
    )?;
    let order = submission_order(args.seed);
    let mut repeat = RepeatLog::open(&crate::work_root(), &args.workload);
    repeat.expect(out, "runtime.events", reference.events);
    repeat.expect(out, "core.merged_bytes", reference.merged.len() as u64);
    repeat.expect(
        out,
        "trace.container_bytes",
        reference.container.len() as u64,
    );
    let out_path = dir.join("collected.cytc");
    let mut k = 0;
    let mut sock = || -> PathBuf {
        k += 1;
        dir.join(format!("c{k}.sock"))
    };

    if !args.trace {
        let ratio = reference.raw_bytes as f64 / reference.container.len() as f64;
        let mut retries = 0;
        measure_jobs(out, args.seconds, reference.events, ratio, setup_s, |out| {
            let c = collect_job(&reference, &order, &sock(), &out_path, None)?;
            check(out, &c, &reference);
            retries += c.retries;
            Ok(c.wall_s)
        })?;
        println!("client retries: {retries}");
        repeat.save();
        return Ok(());
    }

    // Traced run: rounds of (untraced collect, traced collect, local job).
    let tracer = Tracer::new();
    let (mut plain, mut traced, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let mut retries = 0;
    let t_run = Instant::now();
    let mut job = 0;
    while traced.len() < crate::MIN_JOBS || secs(t_run) < args.seconds {
        let c = collect_job(&reference, &order, &sock(), &out_path, None)?;
        check(out, &c, &reference);
        plain.push(c.wall_s);
        retries += c.retries;
        job += 1;
        let c = collect_job(&reference, &order, &sock(), &out_path, Some((&tracer, job)))?;
        check(out, &c, &reference);
        traced.push(c.wall_s);
        retries += c.retries;
        local.push(local_job(&reference.source, &dir.join("local.cytc"))?.0);
    }
    let mut selfs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // The producer closure including its interpreter and send children.
    let mut produce = Vec::new();
    for spans in spans::by_job(tracer.take()).values() {
        let t = spans::self_times(spans);
        for (name, v) in &t {
            selfs.entry(name).or_default().push(*v);
        }
        produce.push(
            ["net.produce", "runtime.interp", "net.send"]
                .iter()
                .map(|n| t.get(n).copied().unwrap_or(0.0))
                .sum::<f64>(),
        );
    }
    let med: BTreeMap<&'static str, f64> = selfs.iter().map(|(k, v)| (*k, median(v))).collect();
    let coverage = spans::print_layer_table(&args.workload, "job", &med);
    let layer = |name: &str| med.get(name).copied().unwrap_or(0.0);
    let (plain_s, traced_s, local_s) = (median(&plain), median(&traced), median(&local));
    println!(
        "benchmark tracing overhead: traced job {traced_s:.4} s vs untraced {plain_s:.4} s \
         ({:+.2}%); locally streamed job {local_s:.4} s",
        100.0 * (traced_s / plain_s - 1.0)
    );
    crate::layer_metrics(
        out,
        &[
            ("minilang.parse_s", layer("minilang.parse")),
            ("cst.analyze_s", layer("cst.analyze")),
            ("runtime.interp_s", layer("runtime.interp")),
            ("runtime.events", reference.events as f64),
            ("core.merged_bytes", reference.merged.len() as f64),
            ("trace.write_s", layer("trace.write")),
            ("trace.container_bytes", reference.container.len() as f64),
            ("net.produce_s", median(&produce)),
            ("net.finack_wait_s", layer("net.submit")),
            ("net.drain_s", layer("net.drain")),
            ("net.retries", retries as f64),
            ("net.vs_local", plain_s / local_s),
            ("bench.trace_overhead", traced_s / plain_s),
            ("bench.layer_coverage", coverage),
        ],
    );
    repeat.save();
    Ok(())
}
