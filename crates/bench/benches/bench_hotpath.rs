//! Hot-path microbenchmarks for the ingestion and encoding overhaul,
//! emitted as `results/BENCH_hotpath.json` and diffed by the perf gate in
//! `scripts/check.sh`.
//!
//! Three sections:
//!
//! * **ingest** — events/sec through a `CompressSession`, per-event `push`
//!   vs `push_batch`, per workload. Both paths produce byte-identical CTTs
//!   (asserted here; the batch path is only a speedup).
//! * **deflate** — MB/s of `deflate` per level (fast/default/best) over a
//!   realistic corpus (a container image), plus the achieved ratio.
//! * **end_to_end** — wall time of the whole streaming pipeline (run +
//!   merge + leveled parallel container write) per workload.
//! * **e2e_ingest** — generation + compression events/sec with interpreter
//!   and session in lockstep on 8 workers (`Ingest::Sequential`).
//!
//! Throughput figures (`*_events_per_sec`, `mb_per_sec`, `batch_speedup`)
//! are min-over-samples — the repo-wide convention for noise-resistant
//! comparisons — while the `*_ns` fields report the mean. The perf gate in
//! `scripts/check.sh` diffs the min-derived series.
//!
//! JSON schema (`bench_hotpath/v3`):
//!
//! ```json
//! { "schema": "bench_hotpath/v3",
//!   "ingest": [ { "name": "...", "nprocs": 8, "events": 123,
//!     "push_ns": 1.0, "batch_ns": 1.0,
//!     "push_events_per_sec": 1.0e6, "batch_events_per_sec": 1.5e6,
//!     "batch_speedup": 1.5, "identical_ctt_bytes": true } ],
//!   "deflate": [ { "level": "fast", "input_bytes": 1, "ns": 1.0,
//!     "mb_per_sec": 100.0, "ratio": 3.0 } ],
//!   "fast_vs_default_mbps": 2.5,
//!   "end_to_end": [ { "name": "...", "nprocs": 8, "wall_ns": 1.0,
//!     "events_per_sec": 1.0e6 } ],
//!   "e2e_ingest": [ { "name": "...", "nprocs": 8, "events": 123,
//!     "seq_ns": 1.0, "seq_events_per_sec": 1.0e6 } ] }
//! ```

use cypress_bench::harness;
use cypress_core::{
    compress_trace, merge_all, merge_all_parallel, CompressConfig, CompressSession, SessionConfig,
};
use cypress_deflate::{deflate, Level};
use cypress_runtime::{run_rank_with_sink, run_ranks, InterpConfig};
use cypress_trace::codec::Codec;
use cypress_trace::{assemble, encode_section, Container, SectionKind};
use cypress_workloads::{by_name, quick_procs, Scale};

const MERGE_THREADS: usize = 4;

fn fast_mode() -> bool {
    std::env::var("CYPRESS_BENCH_FAST").is_ok()
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

struct IngestRow {
    name: String,
    nprocs: u32,
    events: u64,
    push_ns: f64,
    batch_ns: f64,
    push_min_ns: f64,
    batch_min_ns: f64,
    identical: bool,
}

/// Ingestion throughput: compress every rank's recorded trace through a
/// session, per-event vs batched, and pin byte-identity while we're here.
fn bench_ingest(name: &str) -> IngestRow {
    let nprocs = quick_procs(name);
    let w = by_name(name, nprocs, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    let events: u64 = traces.iter().map(|t| t.events.len() as u64).sum();
    let ccfg = CompressConfig::default();

    let run_push = || {
        let mut out = Vec::with_capacity(traces.len());
        for t in &traces {
            let mut s = CompressSession::new(
                &info.cst,
                t.rank,
                nprocs,
                ccfg.clone(),
                SessionConfig::default(),
            );
            for ev in &t.events {
                s.push(ev);
            }
            out.push(s.finish(t.app_time).0);
        }
        out
    };
    let run_batch = || {
        let mut out = Vec::with_capacity(traces.len());
        for t in &traces {
            let mut s = CompressSession::new(
                &info.cst,
                t.rank,
                nprocs,
                ccfg.clone(),
                SessionConfig::default(),
            );
            s.push_batch(&t.events);
            out.push(s.finish(t.app_time).0);
        }
        out
    };

    let a = run_push();
    let b = run_batch();
    let identical = a.iter().zip(&b).all(|(x, y)| x.to_bytes() == y.to_bytes());

    let push = harness::run(&format!("hotpath/ingest/{name}/push"), run_push);
    let batch = harness::run(&format!("hotpath/ingest/{name}/push_batch"), run_batch);
    IngestRow {
        name: name.to_owned(),
        nprocs,
        events,
        push_ns: push.mean_ns,
        batch_ns: batch.mean_ns,
        push_min_ns: push.min_ns,
        batch_min_ns: batch.min_ns,
        identical,
    }
}

struct DeflateRow {
    level: &'static str,
    input_bytes: usize,
    ns: f64,
    mb_per_sec: f64,
    ratio: f64,
}

/// A realistic mixed corpus: container payloads (CST text + CTT codec
/// bytes) and textual trace dumps from several workloads, so the match
/// finder sees both dense binary varints and repetitive text instead of a
/// single tiled unit.
fn deflate_corpus() -> Vec<u8> {
    let target = if fast_mode() { 1 << 20 } else { 4 << 20 };
    let ccfg = CompressConfig::default();
    let mut corpus = Vec::with_capacity(target * 2);
    'fill: loop {
        for name in ["lu", "sp", "ft", "mg"] {
            let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
            let (_, info) = w.compile();
            let traces = w.trace().unwrap();
            let ctts: Vec<_> = traces
                .iter()
                .map(|t| compress_trace(&info.cst, t, &ccfg))
                .collect();
            corpus.extend_from_slice(info.cst.to_text().as_bytes());
            corpus.extend_from_slice(&merge_all(&ctts).to_bytes());
            for ctt in &ctts {
                corpus.extend_from_slice(&ctt.to_bytes());
            }
            corpus.extend_from_slice(cypress_trace::format_trace(&traces[0]).as_bytes());
            if corpus.len() >= target {
                break 'fill;
            }
        }
    }
    corpus
}

fn bench_deflate(corpus: &[u8]) -> Vec<DeflateRow> {
    Level::ALL
        .iter()
        .map(|&level| {
            let out_len = deflate(corpus, level).len();
            let r = harness::run(&format!("hotpath/deflate/{}", level.name()), || {
                deflate(corpus, level)
            });
            DeflateRow {
                level: level.name(),
                input_bytes: corpus.len(),
                ns: r.mean_ns,
                mb_per_sec: corpus.len() as f64 / (r.min_ns / 1e9) / 1e6,
                ratio: corpus.len() as f64 / out_len.max(1) as f64,
            }
        })
        .collect()
}

struct EndToEndRow {
    name: String,
    nprocs: u32,
    events: u64,
    wall_ns: f64,
    min_ns: f64,
}

/// Whole pipeline: interpret every rank into an online session, merge on
/// the pool, and persist a leveled container with parallel per-section
/// encoding — the same hot path `cypress compress --level default`
/// takes, driven through the subcrates.
fn bench_end_to_end(name: &str, dir: &std::path::Path) -> EndToEndRow {
    let nprocs = quick_procs(name);
    let w = by_name(name, nprocs, Scale::Quick).unwrap();
    let (prog, info) = w.compile();
    let icfg = InterpConfig::default();
    let ccfg = CompressConfig::default();
    let path = dir.join(format!("{name}.cytc"));
    let events = std::cell::Cell::new(0u64);
    let pool = workers();
    let r = harness::run(&format!("hotpath/end_to_end/{name}"), || {
        let per_rank = run_ranks(nprocs, pool, |rank| {
            let mut s = CompressSession::new(
                &info.cst,
                rank,
                nprocs,
                ccfg.clone(),
                SessionConfig::default(),
            );
            let app_time = run_rank_with_sink(&prog, &info, rank, nprocs, &icfg, &mut s)
                .expect("workload rank failed");
            s.finish(app_time)
        });
        let (ctts, stats): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
        events.set(stats.iter().map(|s| s.events).sum());
        let merged = merge_all_parallel(&ctts, MERGE_THREADS);
        let mut c = Container::new(nprocs);
        c.push(SectionKind::CstText, None, info.cst.to_text().into_bytes());
        c.push(SectionKind::MergedCtt, None, merged.to_bytes());
        let encoded: Vec<_> = run_ranks(c.sections.len() as u32, pool, |i| {
            encode_section(&c.sections[i as usize], Some(Level::Default))
        });
        std::fs::write(&path, assemble(nprocs, &encoded)).expect("container write");
    });
    EndToEndRow {
        name: name.to_owned(),
        nprocs,
        events: events.get(),
        wall_ns: r.mean_ns,
        min_ns: r.min_ns,
    }
}

struct E2eIngestRow {
    name: String,
    nprocs: u32,
    events: u64,
    seq_ns: f64,
    seq_min_ns: f64,
}

/// Generation + compression at 8 workers, interpreter and session in
/// lockstep on each worker.
fn bench_e2e_ingest(name: &str) -> E2eIngestRow {
    let nprocs = quick_procs(name);
    let w = by_name(name, nprocs, Scale::Quick).unwrap();
    let (prog, info) = w.compile();
    let icfg = InterpConfig::default();
    let ccfg = CompressConfig::default();
    let pool = 8;
    let events = std::cell::Cell::new(0u64);

    let run_seq = || {
        let per_rank = run_ranks(nprocs, pool, |rank| {
            let mut s = CompressSession::new(
                &info.cst,
                rank,
                nprocs,
                ccfg.clone(),
                SessionConfig::default(),
            );
            let app_time = run_rank_with_sink(&prog, &info, rank, nprocs, &icfg, &mut s)
                .expect("workload rank failed");
            s.finish(app_time)
        });
        events.set(per_rank.iter().map(|(_, st)| st.events).sum());
        per_rank.into_iter().map(|(ctt, _)| ctt).collect::<Vec<_>>()
    };
    let seq = harness::run(&format!("hotpath/e2e_ingest/{name}/sequential"), run_seq);
    E2eIngestRow {
        name: name.to_owned(),
        nprocs,
        events: events.get(),
        seq_ns: seq.mean_ns,
        seq_min_ns: seq.min_ns,
    }
}

fn main() {
    let names: &[&str] = if fast_mode() {
        &["jacobi", "cg", "mg"]
    } else {
        &["jacobi", "cg", "ft", "lu", "mg", "sp", "leslie3d"]
    };

    let ingest: Vec<IngestRow> = names.iter().map(|n| bench_ingest(n)).collect();
    let corpus = deflate_corpus();
    let deflate_rows = bench_deflate(&corpus);
    let dir = std::env::temp_dir().join(format!("cypress-bench-hotpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let e2e: Vec<EndToEndRow> = names.iter().map(|n| bench_end_to_end(n, &dir)).collect();
    let _ = std::fs::remove_dir_all(&dir);
    let e2e_ingest: Vec<E2eIngestRow> = names.iter().map(|n| bench_e2e_ingest(n)).collect();

    let mbps = |lvl: &str| {
        deflate_rows
            .iter()
            .find(|r| r.level == lvl)
            .map(|r| r.mb_per_sec)
            .unwrap_or(0.0)
    };
    let fast_vs_default = mbps("fast") / mbps("default").max(1e-9);

    let mut json = String::from("{\"schema\":\"bench_hotpath/v3\",\"ingest\":[");
    for (i, r) in ingest.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"nprocs\":{},\"events\":{},\
             \"push_ns\":{:.1},\"batch_ns\":{:.1},\
             \"push_events_per_sec\":{:.1},\"batch_events_per_sec\":{:.1},\
             \"batch_speedup\":{:.4},\"identical_ctt_bytes\":{}}}",
            r.name,
            r.nprocs,
            r.events,
            r.push_ns,
            r.batch_ns,
            r.events as f64 / (r.push_min_ns / 1e9),
            r.events as f64 / (r.batch_min_ns / 1e9),
            r.push_min_ns / r.batch_min_ns.max(1.0),
            r.identical,
        ));
    }
    json.push_str("],\"deflate\":[");
    for (i, r) in deflate_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"level\":\"{}\",\"input_bytes\":{},\"ns\":{:.1},\
             \"mb_per_sec\":{:.2},\"ratio\":{:.3}}}",
            r.level, r.input_bytes, r.ns, r.mb_per_sec, r.ratio,
        ));
    }
    json.push_str(&format!(
        "],\"fast_vs_default_mbps\":{fast_vs_default:.3},\"end_to_end\":["
    ));
    for (i, r) in e2e.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"nprocs\":{},\"events\":{},\"wall_ns\":{:.1},\
             \"events_per_sec\":{:.1}}}",
            r.name,
            r.nprocs,
            r.events,
            r.wall_ns,
            r.events as f64 / (r.min_ns / 1e9),
        ));
    }
    json.push_str("],\"e2e_ingest\":[");
    for (i, r) in e2e_ingest.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"name\":\"{}\",\"nprocs\":{},\"events\":{},\
             \"seq_ns\":{:.1},\"seq_events_per_sec\":{:.1}}}",
            r.name,
            r.nprocs,
            r.events,
            r.seq_ns,
            r.events as f64 / (r.seq_min_ns / 1e9),
        ));
    }
    json.push_str("]}\n");

    let results = std::env::var("CYPRESS_RESULTS_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_owned());
    let path = std::path::Path::new(&results).join("BENCH_hotpath.json");
    cypress_obs::write_atomic(&path, json.as_bytes()).expect("write BENCH_hotpath.json");
    println!("wrote {}", path.display());

    let broken: Vec<_> = ingest
        .iter()
        .filter(|r| !r.identical)
        .map(|r| r.name.as_str())
        .collect();
    assert!(
        broken.is_empty(),
        "push and push_batch CTT encodings diverged for: {broken:?}"
    );
}
