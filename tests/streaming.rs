//! Streaming-session acceptance tests: the online path must be
//! *byte-identical* to the batch path, and the on-disk container must round
//! trip every workload's exact event sequence without re-simulation.

use cypress::core::{merge_all, merge_all_parallel};
use cypress::runtime::InterpConfig;
use cypress::store::StoreJob;
use cypress::trace::codec::Codec;
use cypress::trace::event::{MpiOp, MpiParams};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{Ingest, Pipeline, PipelineConfig};

type OpSeq = Vec<(u32, MpiOp, MpiParams)>;

fn strip_raw(t: &cypress::trace::RawTrace) -> OpSeq {
    t.mpi_records()
        .map(|r| (r.gid, r.op, r.params.clone()))
        .collect()
}

fn strip_replay(ops: &[cypress::core::ReplayOp]) -> OpSeq {
    ops.iter()
        .map(|o| (o.gid, o.op, o.params.clone()))
        .collect()
}

fn all_workload_names() -> impl Iterator<Item = &'static str> {
    NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"])
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cypress-streaming-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The headline acceptance criterion: for every workload, at pool widths
/// 1, 2 and 8, the streaming pipeline's per-rank and merged CTT *encodings*
/// are byte-for-byte the batch pipeline's, and session accounting does not
/// depend on the width.
#[test]
fn streaming_merged_bytes_equal_batch_on_all_workloads() {
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let mut batch = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(PipelineConfig {
                threads: 4,
                mode: Ingest::Batch,
                ..PipelineConfig::default()
            })
            .run()
            .unwrap_or_else(|e| panic!("{name}: batch run failed: {e}"));
        let want_merged = batch.merge().to_bytes();

        let mut first_stats = None;
        for threads in [1usize, 2, 8] {
            let mut stream = Pipeline::new(w.source.clone())
                .ranks(w.nprocs)
                .configure(PipelineConfig {
                    threads,
                    ..PipelineConfig::default()
                })
                .run()
                .unwrap_or_else(|e| panic!("{name} threads={threads}: streaming run failed: {e}"));

            assert_eq!(
                stream.ctts, batch.ctts,
                "{name} threads={threads}: per-rank CTTs diverged"
            );
            for (a, b) in stream.ctts.iter().zip(&batch.ctts) {
                assert_eq!(
                    a.to_bytes(),
                    b.to_bytes(),
                    "{name} threads={threads}: rank {} CTT encodings diverged",
                    a.rank
                );
            }
            assert_eq!(
                stream.merge().to_bytes(),
                want_merged,
                "{name} threads={threads}: merged CTT encodings diverged"
            );
            // The streaming path actually streamed: per-rank session stats
            // exist and the resident footprint was sampled.
            assert_eq!(stream.stats.len(), w.nprocs as usize, "{name}");
            assert!(stream.peak_ctt_bytes() > 0, "{name}");
            let stats: Vec<_> = stream
                .stats
                .iter()
                .map(|s| (s.events, s.mpi_events, s.raw_mpi_bytes, s.checkpoints))
                .collect();
            match &first_stats {
                None => first_stats = Some(stats),
                Some(want) => assert_eq!(&stats, want, "{name} threads={threads}: session stats"),
            }
        }
    }
}

/// A rank that exhausts its step budget mid-stream fails the whole run with
/// a runtime error, even with more ranks than workers.
#[test]
fn producer_error_mid_stream_surfaces_without_deadlock() {
    let src = "fn main() { for i in 0..100000 { allreduce(8); } }";
    let r = Pipeline::new(src)
        .ranks(8)
        .configure(PipelineConfig {
            threads: 2,
            interp: InterpConfig {
                max_steps: 5_000,
                ..InterpConfig::default()
            },
            ..PipelineConfig::default()
        })
        .run();
    match r {
        Err(cypress::Error::Runtime(e)) => {
            assert!(e.to_string().contains("budget"), "unexpected error: {e}")
        }
        other => panic!("expected runtime error, got {:?}", other.map(|j| j.nprocs)),
    }
}

/// Container acceptance criterion: write → read → decompress reproduces the
/// original per-rank event sequence for every workload.
#[test]
fn container_round_trips_all_workloads() {
    let dir = tmpdir("roundtrip");
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let traces = w.trace().unwrap();
        let path = dir.join(format!("{name}.cytc"));

        let mut job = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .run()
            .unwrap();
        job.write_container(&path, false).unwrap();

        let loaded = StoreJob::open(&path, name)
            .unwrap_or_else(|e| panic!("{name}: StoreJob::open failed: {e}"));
        assert_eq!(loaded.nprocs(), w.nprocs, "{name}");
        for t in &traces {
            let replay = loaded
                .decompress(t.rank)
                .unwrap_or_else(|e| panic!("{name}: decompress rank {} failed: {e}", t.rank));
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name}: rank {} sequence not preserved through the container",
                t.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-rank sections take the dedicated-section path in `StoreJob` and must
/// agree with extraction from the merged tree of a container written
/// without them.
#[test]
fn per_rank_sections_agree_with_merged_extraction() {
    let dir = tmpdir("per-rank");
    let w = by_name("cg", 8, Scale::Quick).unwrap();
    let with_ranks = dir.join("cg.cytc");
    let merged_only = dir.join("cg-merged.cytc");
    let mut job = Pipeline::new(w.source.clone()).ranks(8).run().unwrap();
    job.write_container(&with_ranks, true).unwrap();
    job.write_container(&merged_only, false).unwrap();

    let with_ranks = StoreJob::open(&with_ranks, "cg").unwrap();
    let merged_only = StoreJob::open(&merged_only, "cg-merged").unwrap();
    assert_eq!(with_ranks.rank_count(), 8);
    assert_eq!(merged_only.rank_count(), 0);
    for rank in 0..8u32 {
        let via_section = with_ranks.decompress(rank).unwrap();
        let via_merged = merged_only.decompress(rank).unwrap();
        assert_eq!(strip_replay(&via_section), strip_replay(&via_merged));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `merge_all_parallel` must be insensitive to awkward (prime, tiny,
/// larger-than-rank-count) thread counts at rank counts 3, 5, and 17.
#[test]
fn parallel_merge_handles_odd_rank_counts() {
    for nranks in [3u32, 5, 17] {
        let src = format!(
            "fn main() {{
                for i in 0..20 {{
                    let a = isend((rank() + 1) % {nranks}, 128, 0);
                    let b = irecv((rank() + {nranks} - 1) % {nranks}, 128, 0);
                    waitall(a, b);
                }}
                allreduce(4);
            }}"
        );
        let job = Pipeline::new(src).ranks(nranks).run().unwrap();
        let reference = merge_all(&job.ctts);
        for threads in [1usize, 2, 3, 5, 32] {
            let par = merge_all_parallel(&job.ctts, threads);
            assert_eq!(
                par.group_count(),
                reference.group_count(),
                "nranks={nranks} threads={threads}"
            );
            assert_eq!(
                par.to_bytes(),
                reference.to_bytes(),
                "nranks={nranks} threads={threads}: encodings diverged"
            );
        }
    }
}

/// Batched ingestion acceptance criterion: `push_batch` must produce CTTs
/// (and therefore containers) byte-identical to per-event `push` on every
/// bundled workload, at several batch granularities including the wire
/// chunk size the collector sees.
#[test]
fn push_batch_byte_identical_to_push_on_all_workloads() {
    use cypress::core::{CompressConfig, CompressSession, SessionConfig};
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        for t in &traces {
            let mut one = CompressSession::new(
                &info.cst,
                t.rank,
                w.nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            for ev in &t.events {
                one.push(ev);
            }
            let (want_ctt, want_stats) = one.finish(t.app_time);
            let want = want_ctt.to_bytes();

            for chunk in [t.events.len().max(1), 512, 7] {
                let mut batched = CompressSession::new(
                    &info.cst,
                    t.rank,
                    w.nprocs,
                    CompressConfig::default(),
                    SessionConfig::default(),
                );
                for c in t.events.chunks(chunk) {
                    batched.push_batch(c);
                }
                let (ctt, stats) = batched.finish(t.app_time);
                assert_eq!(
                    ctt.to_bytes(),
                    want,
                    "{name}: rank {} chunk {chunk} diverged from per-event push",
                    t.rank
                );
                assert_eq!(stats.events, want_stats.events, "{name} rank {}", t.rank);
                assert_eq!(
                    stats.mpi_events, want_stats.mpi_events,
                    "{name} rank {}",
                    t.rank
                );
                assert_eq!(
                    stats.raw_mpi_bytes, want_stats.raw_mpi_bytes,
                    "{name} rank {}",
                    t.rank
                );
            }
        }
    }
}

/// `push_batch` under the checkpoint/backpressure path: checkpoints must
/// land on the same event indices as per-event push (same count, same
/// budget-violation accounting), and the CTT must stay byte-identical even
/// when batch boundaries straddle checkpoint boundaries.
#[test]
fn push_batch_checkpoint_and_backpressure_match_push() {
    use cypress::core::{CompressConfig, CompressSession, SessionConfig};
    let w = by_name("cg", 8, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    for t in &traces {
        // Checkpoint several times over the trace, on an awkward stride.
        let scfg = SessionConfig {
            checkpoint_every: (t.events.len() as u64 / 4).max(1) | 1,
            soft_budget_bytes: Some(1),
        };
        let mut one = CompressSession::new(
            &info.cst,
            t.rank,
            8,
            CompressConfig::default(),
            scfg.clone(),
        );
        for ev in &t.events {
            one.push(ev);
        }
        let (want_ctt, want_stats) = one.finish(t.app_time);
        assert!(
            want_stats.checkpoints > 1,
            "config must actually checkpoint"
        );
        assert!(
            want_stats.budget_violations > 0,
            "budget must actually trip"
        );

        for chunk in [
            13usize,
            scfg.checkpoint_every as usize,
            scfg.checkpoint_every as usize + 3,
            4096,
        ] {
            let mut batched = CompressSession::new(
                &info.cst,
                t.rank,
                8,
                CompressConfig::default(),
                scfg.clone(),
            );
            for c in t.events.chunks(chunk) {
                batched.push_batch(c);
            }
            let (ctt, stats) = batched.finish(t.app_time);
            assert_eq!(ctt.to_bytes(), want_ctt.to_bytes(), "chunk {chunk}");
            assert_eq!(stats.checkpoints, want_stats.checkpoints, "chunk {chunk}");
            assert_eq!(
                stats.budget_violations, want_stats.budget_violations,
                "chunk {chunk}"
            );
        }
    }
}

/// Parallel per-section encoding acceptance criterion: a container written
/// with many encode workers is byte-identical to the sequential one, at the
/// pinned default level and with per-rank sections in play.
#[test]
fn parallel_container_encoding_identical_to_sequential() {
    use cypress::deflate::Level;
    let dir = tmpdir("parallel-encode");
    for name in ["cg", "jacobi"] {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let mut seq = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(PipelineConfig {
                threads: 1,
                level: Some(Level::Default),
                ..PipelineConfig::default()
            })
            .run()
            .unwrap();
        let mut par = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(PipelineConfig {
                threads: 8,
                level: Some(Level::Default),
                ..PipelineConfig::default()
            })
            .run()
            .unwrap();
        let p_seq = dir.join(format!("{name}-seq.cytc"));
        let p_par = dir.join(format!("{name}-par.cytc"));
        seq.write_container(&p_seq, true).unwrap();
        par.write_container(&p_par, true).unwrap();
        let a = std::fs::read(&p_seq).unwrap();
        let b = std::fs::read(&p_par).unwrap();
        assert_eq!(a, b, "{name}: parallel encoding changed container bytes");

        // And the compressed container still round-trips.
        let loaded = StoreJob::open(&p_par, name).unwrap();
        let traces = w.trace().unwrap();
        for t in &traces {
            let replay = loaded.decompress(t.rank).unwrap();
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name} rank {}",
                t.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Session accounting sanity on a real workload: the event counts match the
/// recorded trace, and the resident footprint stays far below the raw trace.
#[test]
fn session_stats_match_trace_reality() {
    let w = by_name("mg", 8, Scale::Quick).unwrap();
    let traces = w.trace().unwrap();
    let job = Pipeline::new(w.source.clone()).ranks(8).run().unwrap();
    for (st, t) in job.stats.iter().zip(&traces) {
        assert_eq!(st.events as usize, t.events.len(), "rank {}", t.rank);
        assert_eq!(st.mpi_events as usize, t.mpi_count(), "rank {}", t.rank);
        assert!(st.final_ctt_bytes <= st.peak_ctt_bytes);
    }
}

/// The adaptive-batcher pin (fold-run credit): on every bundled workload,
/// feeding a session with `push_batch` must not be slower than per-event
/// `push`. Before the credit heuristic, alternating-gid streams (sp) paid
/// for a run scan that never found runs and regressed to 0.64×. Timing
/// tests flake, so compare best-of-N interleaved samples with a generous
/// tolerance — the pre-fix regression (≈1.56× slower) still fails it.
#[test]
fn push_batch_not_slower_than_push_on_any_workload() {
    use cypress::core::{CompressConfig, CompressSession, SessionConfig};
    use std::time::Instant;
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let t = &traces[0];
        let session = || {
            CompressSession::new(
                &info.cst,
                t.rank,
                w.nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            )
        };
        let (mut best_push, mut best_batch) = (u128::MAX, u128::MAX);
        for _ in 0..9 {
            let mut s = session();
            let t0 = Instant::now();
            for ev in &t.events {
                s.push(ev);
            }
            best_push = best_push.min(t0.elapsed().as_nanos());
            std::hint::black_box(s.finish(t.app_time));

            let mut s = session();
            let t0 = Instant::now();
            for c in t.events.chunks(512) {
                s.push_batch(c);
            }
            best_batch = best_batch.min(t0.elapsed().as_nanos());
            std::hint::black_box(s.finish(t.app_time));
        }
        assert!(
            best_batch as f64 <= best_push as f64 * 1.4,
            "{name}: push_batch {best_batch} ns vs push {best_push} ns — batched ingest regressed"
        );
    }
}
