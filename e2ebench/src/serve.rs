//! `serve_mixed`: the store's read path under a skewed closed-loop mix.
//!
//! Set-up writes 18 paper-scale containers (9 bundled workloads, not `lu`,
//! at 16 and 64 ranks, `Level::Default`, per-rank sections) and computes
//! every job's local `StoreJob` query and analyze answer. The store is
//! served by in-process `store::spawn` on a unix socket with a `max_jobs`
//! budget of a third of the jobs. Two closed-loop `QueryClient`s each send
//! their next request only after the previous reply arrives; jobs follow a
//! fixed skewed popularity, the seed draws the sequence, and the mix is 90%
//! `query_raw` / 10% `analyze_raw`. Every reply must equal the local
//! answer byte for byte.
//!
//! The traced run replays the seeded sequence in-process: for each request
//! a mirror `JobStore` (same budget, same sequence, so the same hits and
//! misses) is opened and queried directly, then the daemon answers the same
//! request; the difference is the wire time.

use crate::spans::{busy_times, Tracer, ROOT};
use crate::util::{
    median, percentile, process_cpu_s, secs, setup_median, tail, Outcome, RepeatLog,
};
use crate::{Args, THREADS};
use cypress::analysis::AnalyzeOptions;
use cypress::net::Addr;
use cypress::obs::rng::Rng;
use cypress::store::{spawn, JobStore, QueryClient, StoreConfig, StoreJob};
use cypress::trace::Codec;
use cypress::workloads::{by_name, Scale};
use cypress::{Ingest, Level, Pipeline, PipelineConfig, QueryOptions};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PROGRAMS: [&str; 9] = [
    "jacobi", "bt", "cg", "dt", "ep", "ft", "mg", "sp", "leslie3d",
];
const SIZES: [u32; 2] = [16, 64];
/// Share of requests that are `analyze` (the rest are `query`).
const ANALYZE_SHARE: f64 = 0.10;
/// Zipf exponent of job popularity.
const ZIPF_S: f64 = 1.0;
/// Requests in one client's deck (one pass of the mix).
const DECK: usize = 800;
/// Requests per client before timing starts (fills the LRU).
const WARMUP: usize = 40;
/// Minimum timed requests over all clients, so the slowest 1% that the
/// tail latency averages holds at least fifteen.
const MIN_REQUESTS: usize = 1500;
/// Requests replayed by the traced run (after the warm-up).
const TRACED_REQUESTS: usize = 400;

struct StoredJob {
    name: String,
    events: u64,
    query: Vec<u8>,
    analyze: Vec<u8>,
}

struct Store {
    jobs: Vec<StoredJob>,
    raw_bytes: u64,
    container_bytes: u64,
}

fn setup(root: &Path) -> Result<Store, String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    let cfg = PipelineConfig {
        threads: THREADS,
        mode: Ingest::Sequential,
        level: Some(Level::Default),
        ..PipelineConfig::default()
    };
    let mut store = Store {
        jobs: Vec::new(),
        raw_bytes: 0,
        container_bytes: 0,
    };
    for program in PROGRAMS {
        for n in SIZES {
            let w = by_name(program, n, Scale::Paper).ok_or("unknown workload")?;
            let name = format!("{program}_{n}");
            let path = root.join(format!("{name}.cytc"));
            let mut job = Pipeline::new(w.source)
                .ranks(n)
                .configure(cfg.clone())
                .run()
                .map_err(|e| format!("{name}: {e}"))?;
            job.write_container(&path, true)
                .map_err(|e| format!("{name}: {e}"))?;
            let opened = StoreJob::open(&path, &name).map_err(|e| format!("{name}: {e}"))?;
            let query = opened
                .query(&QueryOptions::default())
                .map_err(|e| format!("{name}: {e}"))?
                .to_bytes();
            let analyze = opened
                .analyze(&AnalyzeOptions::default())
                .map_err(|e| format!("{name}: {e}"))?
                .to_bytes();
            store.raw_bytes += job.raw_mpi_bytes();
            store.container_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            store.jobs.push(StoredJob {
                name,
                events: job.total_events(),
                query,
                analyze,
            });
        }
    }
    Ok(store)
}

/// One request of the mix: job index and whether it is an analyze.
#[derive(Clone, Copy)]
struct Request {
    job: usize,
    analyze: bool,
}

/// The seeded request stream of one client: a deck that holds every job in
/// proportion to its popularity (Zipf over ranks, with a fixed rank-to-job
/// shuffle that decouples popularity from job size), exactly
/// [`ANALYZE_SHARE`] of each job's requests being analyzes. The seed only
/// orders the deck, reshuffled each pass, so every seed measures the same
/// mix of work.
struct Mix {
    rng: Rng,
    deck: Vec<Request>,
    pos: usize,
}

impl Mix {
    fn new(seed: u64, stream: u64, jobs: usize) -> Mix {
        let weights: Vec<f64> = (1..=jobs).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut by_rank: Vec<usize> = (0..jobs).collect();
        let mut fixed = Rng::new(0x005E_ED0F_10B5);
        for i in (1..jobs).rev() {
            by_rank.swap(i, fixed.below(i as u64 + 1) as usize);
        }
        let mut deck = Vec::with_capacity(DECK);
        for (rank, w) in weights.iter().enumerate() {
            let n = (w / total * DECK as f64).round().max(1.0) as usize;
            let analyses = (n as f64 * ANALYZE_SHARE).round() as usize;
            deck.extend((0..n).map(|k| Request {
                job: by_rank[rank],
                analyze: k < analyses,
            }));
        }
        let pos = deck.len();
        Mix {
            rng: Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream + 1)),
            deck,
            pos,
        }
    }

    fn next(&mut self) -> Request {
        if self.pos == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.deck[self.pos - 1]
    }

    /// Whether the current pass over the deck is complete.
    fn at_deck_end(&self) -> bool {
        self.pos == self.deck.len()
    }
}

fn ask(client: &mut QueryClient, store: &Store, r: Request) -> Result<Vec<u8>, String> {
    let name = &store.jobs[r.job].name;
    let reply = if r.analyze {
        client.analyze_raw(name, &AnalyzeOptions::default())
    } else {
        client.query_raw(name, &QueryOptions::default())
    };
    reply.map_err(|e| e.to_string())
}

fn expected(store: &Store, r: Request) -> &[u8] {
    let j = &store.jobs[r.job];
    if r.analyze {
        &j.analyze
    } else {
        &j.query
    }
}

fn budget(store: &Store) -> StoreConfig {
    StoreConfig {
        max_jobs: store.jobs.len() / 3,
        ..StoreConfig::default()
    }
}

/// One client's timed samples (latency, whether the reply was right, the
/// job's event count) and the wall time they took.
type Samples = (Vec<(f64, bool, u64)>, f64);

fn run_untraced(
    args: &Args,
    store: &Store,
    server_store: &JobStore,
    addr: &Addr,
    out: &mut Outcome,
) -> Result<(), String> {
    let t_run = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let warmed = Barrier::new(THREADS + 1);
    let mut cpu0 = 0.0;
    let mut stats0 = server_store.stats();
    let per_client: Vec<Result<Samples, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|c| {
                let warmed = &warmed;
                s.spawn(move || -> Result<Samples, String> {
                    let warm_up = || -> Result<QueryClient, String> {
                        let mut client = QueryClient::connect(addr, Duration::from_secs(30))
                            .map_err(|e| e.to_string())?;
                        let mut warm = Mix::new(args.seed, c + THREADS as u64, store.jobs.len());
                        for _ in 0..WARMUP {
                            let r = warm.next();
                            if ask(&mut client, store, r)? != expected(store, r) {
                                return Err("warm-up reply differs from the local answer".into());
                            }
                        }
                        Ok(client)
                    };
                    let client = warm_up();
                    warmed.wait();
                    let mut client = client?;
                    let mut mix = Mix::new(args.seed, c, store.jobs.len());
                    let t0 = Instant::now();
                    let mut samples = Vec::new();
                    // Whole passes over the deck only, so every run times
                    // the same multiset of requests.
                    while samples.is_empty()
                        || !mix.at_deck_end()
                        || samples.len() * THREADS < MIN_REQUESTS
                        || t0.elapsed() < deadline
                    {
                        let r = mix.next();
                        let t = Instant::now();
                        let reply = ask(&mut client, store, r)?;
                        let lat = secs(t);
                        samples.push((lat, reply == expected(store, r), store.jobs[r.job].events));
                    }
                    Ok((samples, secs(t0)))
                })
            })
            .collect();
        warmed.wait();
        cpu0 = process_cpu_s();
        stats0 = server_store.stats();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu = process_cpu_s() - cpu0;
    let wall = secs(t_run);
    let stats = server_store.stats();
    let (mut lat, mut ops_per_s, mut events_per_s) = (Vec::new(), 0.0, 0.0);
    for client in per_client {
        let (samples, timed_s) = client?;
        let mut events = 0u64;
        for &(l, ok, ev) in &samples {
            out.check(ok, || {
                "daemon reply differs from the local StoreJob answer".into()
            });
            lat.push(l);
            events += ev;
        }
        ops_per_s += samples.len() as f64 / timed_s;
        events_per_s += events as f64 / timed_s;
    }
    let beyond = lat.len() - (0.99 * lat.len() as f64).ceil() as usize;
    println!(
        "requests timed: {} ({} beyond p99), run wall {wall:.3} s",
        lat.len(),
        beyond
    );
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0]
        .iter()
        .map(|&p| format!("p{p}={:.3}", percentile(&lat, p) * 1e3))
        .collect();
    println!("request latency, ms: {}", q.join(" "));
    println!(
        "store: {} hits, {} loads, {} evictions",
        stats.hits - stats0.hits,
        stats.loads - stats0.loads,
        stats.evictions - stats0.evictions
    );
    out.metric("op_p50_ms", median(&lat) * 1e3, "ms");
    out.metric("op_tail_ms", tail(&lat) * 1e3, "ms");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("events_per_s", events_per_s, "1/s");
    out.metric("cpu_ms_per_op", cpu * 1e3 / lat.len() as f64, "ms");
    out.metric(
        "compression_ratio",
        store.raw_bytes as f64 / store.container_bytes as f64,
        "ratio",
    );
    Ok(())
}

fn run_traced(
    args: &Args,
    store: &Store,
    root: &Path,
    server_store: &JobStore,
    addr: &Addr,
    out: &mut Outcome,
    repeat: &mut RepeatLog,
) -> Result<(), String> {
    let mirror = JobStore::new(root, budget(store)).map_err(|e| e.to_string())?;
    let mut client =
        QueryClient::connect(addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    let mut mixes: Vec<Mix> = (0..THREADS as u64)
        .map(|c| Mix::new(args.seed, c, store.jobs.len()))
        .collect();
    let tracer = Tracer::new();
    let (mut fed, mut logical) = (0u64, 0u64);
    let mut local_s = Vec::new();
    let mut remote_s = Vec::new();
    let mut before = (mirror.stats(), server_store.stats());
    for i in 0..WARMUP * THREADS + TRACED_REQUESTS {
        if i == WARMUP * THREADS {
            before = (mirror.stats(), server_store.stats());
            tracer.take();
        }
        let r = mixes[i % THREADS].next();
        let name = &store.jobs[r.job].name;
        let id = i as u64 + 1;
        let req = tracer.span("request", ROOT, id);
        let t = Instant::now();
        let job = {
            let _s = tracer.span("store.open", req.id(), id);
            mirror.open(name).map_err(|e| e.to_string())?
        };
        let local = if r.analyze {
            let _s = tracer.span("analysis.analyze", req.id(), id);
            let rep = job
                .analyze(&AnalyzeOptions::default())
                .map_err(|e| e.to_string())?;
            fed += rep.stats.fed_ops;
            logical += rep.stats.logical_ops;
            rep.to_bytes()
        } else {
            let _s = tracer.span("query.query", req.id(), id);
            job.query(&QueryOptions::default())
                .map_err(|e| e.to_string())?
                .to_bytes()
        };
        let local_t = secs(t);
        let t = Instant::now();
        let remote = {
            let _s = tracer.span("serve.remote", req.id(), id);
            ask(&mut client, store, r)?
        };
        let remote_t = secs(t);
        drop(req);
        if i >= WARMUP * THREADS {
            local_s.push(local_t);
            remote_s.push(remote_t);
        }
        out.check(local == expected(store, r) && remote == local, || {
            format!("request {i} ({name}): local or remote answer differs from set-up")
        });
    }
    let (m0, s0) = before;
    let (m1, s1) = (mirror.stats(), server_store.stats());
    let (loads, evictions, hits) = (
        m1.loads - m0.loads,
        m1.evictions - m0.evictions,
        m1.hits - m0.hits,
    );
    out.check(
        loads == s1.loads - s0.loads && evictions == s1.evictions - s0.evictions,
        || "daemon store and in-process mirror disagree on loads/evictions".into(),
    );
    repeat.expect(out, &format!("store.loads.seed{}", args.seed), loads);
    repeat.expect(
        out,
        &format!("store.evictions.seed{}", args.seed),
        evictions,
    );

    let spans = tracer.take();
    out.check(
        !spans.iter().any(|s| {
            s.name.starts_with("runtime.") || s.name == "core.session" || s.name == "core.merge"
        }),
        || "serve_mixed recorded interpreter, session or merge spans".into(),
    );
    let busy = busy_times(&spans);
    let n = TRACED_REQUESTS as f64;
    let per_req = |name: &str| busy.get(name).copied().unwrap_or(0.0) / n;
    let wire: Vec<f64> = remote_s.iter().zip(&local_s).map(|(r, l)| r - l).collect();
    println!("-- per request (mean over {TRACED_REQUESTS} replayed requests)");
    for name in [
        "store.open",
        "query.query",
        "analysis.analyze",
        "serve.remote",
    ] {
        println!("  {name:<22} {:>10.6} s", per_req(name));
    }
    println!(
        "  serve.wire (remote - local, median) {:>10.6} s",
        median(&wire)
    );
    println!("  store: {hits} hits, {loads} loads, {evictions} evictions");
    let total = (m1.hits - m0.hits) + (m1.misses - m0.misses);
    crate::layer_metrics(
        out,
        &[
            ("store.open_s", per_req("store.open")),
            ("store.hit_ratio", hits as f64 / total.max(1) as f64),
            ("store.loads", loads as f64),
            ("store.evictions", evictions as f64),
            ("query.query_s", per_req("query.query")),
            ("analysis.analyze_s", per_req("analysis.analyze")),
            ("analysis.fed_ratio", fed as f64 / logical.max(1) as f64),
            ("serve.wire_s", median(&wire)),
        ],
    );
    Ok(())
}

pub fn run(args: &Args, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let root = dir.join("store");
    let (store, setup_s) = setup_median(
        out,
        || setup(&root),
        |a, b| {
            a.container_bytes == b.container_bytes
                && a.jobs
                    .iter()
                    .zip(&b.jobs)
                    .all(|(x, y)| x.query == y.query && x.analyze == y.analyze)
        },
    )?;
    let mut repeat = RepeatLog::open(&crate::work_root(), &args.workload);
    repeat.expect(out, "store.container_bytes", store.container_bytes);
    repeat.expect(out, "store.raw_bytes", store.raw_bytes);

    let server_store = Arc::new(JobStore::new(&root, budget(&store)).map_err(|e| e.to_string())?);
    let addr = Addr::parse(&format!("unix:{}", dir.join("queryd.sock").display()))
        .map_err(|e| e.to_string())?;
    let server = spawn(server_store.clone(), &addr).map_err(|e| e.to_string())?;
    let result = if args.trace {
        run_traced(
            args,
            &store,
            &root,
            &server_store,
            server.addr(),
            out,
            &mut repeat,
        )
    } else {
        run_untraced(args, &store, &server_store, server.addr(), out)
    };
    server.stop();
    result?;
    if !args.trace {
        out.metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
        out.metric("setup_s", setup_s, "s");
    }
    repeat.save();
    Ok(())
}
