//! Outside-in span recording for the traced run.
//!
//! Spans are opened by the benchmark around its own calls into each layer's
//! public functions, so nothing inside the program changes. Each span has a
//! name, start, end, parent and job id; spans stay in memory until the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Where children run on several threads at
//! once (per-rank work on the worker pool), each instant of wall time is
//! shared equally among the innermost spans active at that instant, so the
//! self times of one job always add up to its wall time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// No parent: a job's root span.
pub const ROOT: u64 = 0;

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    job: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, to parent spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            job: self.job,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str, parent: u64, job: u64) -> Guard<'_> {
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Record an interval measured elsewhere (e.g. between two joins).
    pub fn record(&self, name: &'static str, parent: u64, job: u64, start: Instant, end: Instant) {
        let to_ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Self time per span name for one job's spans (the root span included),
/// by sharing each instant among the innermost active spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut cuts: Vec<u64> = spans.iter().flat_map(|s| [s.start_ns, s.end_ns]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<&Span> = spans
            .iter()
            .filter(|s| s.start_ns <= a && s.end_ns >= b)
            .collect();
        let innermost: Vec<&&Span> = active
            .iter()
            .filter(|s| !active.iter().any(|c| c.parent == s.id))
            .collect();
        if innermost.is_empty() {
            continue;
        }
        let share = (b - a) as f64 / 1e9 / innermost.len() as f64;
        for s in innermost {
            *out.entry(s.name).or_default() += share;
        }
    }
    out
}

/// Sum of span durations per name (CPU-like time when spans run in
/// parallel on several threads).
pub fn busy_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.secs();
    }
    out
}

/// Group spans by job id.
pub fn by_job(spans: Vec<Span>) -> BTreeMap<u64, Vec<Span>> {
    let mut out: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        out.entry(s.job).or_default().push(s);
    }
    out
}

/// Print one job's layer table: self time and share of the job's wall per
/// layer, and the share all layers together cover (everything but the root
/// span's own time, which is glue in the benchmark). Returns that coverage.
pub fn print_layer_table(title: &str, root: &str, selfs: &BTreeMap<&'static str, f64>) -> f64 {
    let wall: f64 = selfs.values().sum();
    println!("-- layer self times, {title} (wall {wall:.4} s)");
    let mut rows: Vec<(&&str, &f64)> = selfs.iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, t) in rows {
        println!("  {name:<22} {t:>10.4} s {:>6.2}%", 100.0 * t / wall);
    }
    let unattributed = selfs.get(root).copied().unwrap_or(0.0);
    let coverage = if wall > 0.0 {
        1.0 - unattributed / wall
    } else {
        0.0
    };
    println!("  layers cover {:.2}% of the job wall", 100.0 * coverage);
    coverage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name,
            start_ns: s * 1_000_000_000,
            end_ns: e * 1_000_000_000,
        }
    }

    #[test]
    fn nested_spans_give_self_times() {
        let spans = [
            span(1, ROOT, "job", 0, 10),
            span(2, 1, "a", 0, 4),
            span(3, 1, "b", 5, 10),
            span(4, 3, "c", 6, 8),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 1.0);
        assert_eq!(t["a"], 4.0);
        assert_eq!(t["b"], 3.0);
        assert_eq!(t["c"], 2.0);
    }

    #[test]
    fn parallel_children_share_wall_time() {
        // Two workers under one ingest span: 0..4 both busy, 4..6 one idle.
        let spans = [
            span(1, ROOT, "job", 0, 6),
            span(2, 1, "ingest", 0, 6),
            span(3, 2, "interp", 0, 4),
            span(4, 2, "session", 0, 6),
        ];
        let t = self_times(&spans);
        assert_eq!(t["interp"], 2.0);
        assert_eq!(t["session"], 4.0);
        assert_eq!(t.values().sum::<f64>(), 6.0);
        assert_eq!(busy_times(&spans)["interp"], 4.0);
    }
}
