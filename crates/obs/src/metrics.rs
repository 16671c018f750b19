//! Metric primitives and the global registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomics:
//! registration takes the registry mutex once, recording never does. All
//! record paths check [`crate::enabled`] first so disabled instrumentation
//! costs one relaxed load.

use crate::report::{MetricKind, MetricSnapshot};
use crate::span::{Span, Stopwatch};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default histogram bucket upper bounds for span durations, in
/// nanoseconds: 1 µs … 10 s, one decade per bucket (plus the implicit
/// overflow bucket).
pub const TIME_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Monotone event counter.
#[derive(Clone, Debug)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time value; `set_max` turns it into a high-water mark.
#[derive(Clone, Debug)]
pub struct Gauge(pub(crate) Arc<AtomicI64>);

impl Gauge {
    #[inline(always)]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    #[inline(always)]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if larger (high-water mark).
    #[inline(always)]
    pub fn set_max(&self, v: i64) {
        if crate::enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistInner {
    /// Inclusive upper bounds, strictly increasing; an implicit +inf bucket
    /// follows.
    pub(crate) bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

/// Fixed-bucket histogram (`observe` ≤ bound goes in that bucket).
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistInner>);

impl Histogram {
    #[inline(always)]
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.record(v);
        }
    }

    /// Record unconditionally — the benchmark harness measures through this
    /// path, so the measurement exists whether or not `--metrics` is on.
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        let idx = h
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value, 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the fixed buckets, clamped to the observed min/max so the
    /// estimate never leaves the data range. Returns 0 for an empty
    /// histogram. Accuracy is bounded by bucket width: with the decade
    /// [`TIME_BOUNDS_NS`] buckets the estimate lands in the right decade
    /// and interpolates within it.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let min = self.0.min.load(Ordering::Relaxed);
        let max = self.0.max.load(Ordering::Relaxed);
        if q <= 0.0 {
            return min;
        }
        if q >= 1.0 {
            return max;
        }
        // Rank of the target observation, 1-based: ceil(q * n), at least 1.
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                cum += c;
                continue;
            }
            if cum + c >= target {
                // Interpolate within this bucket's value range.
                let lo = if i == 0 {
                    min
                } else {
                    self.0.bounds[i - 1].saturating_add(1)
                };
                let hi = if i < self.0.bounds.len() {
                    self.0.bounds[i]
                } else {
                    max
                };
                let (lo, hi) = (lo.clamp(min, max), hi.clamp(min, max));
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est.round() as u64).clamp(min, max);
            }
            cum += c;
        }
        max
    }

    /// Per-bucket counts (overflow bucket last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Point-in-time copy of this histogram as the report row
    /// `subsystem/name`.
    pub fn snapshot(&self, subsystem: &str, name: &str) -> MetricSnapshot {
        let min = self.0.min.load(Ordering::Relaxed);
        MetricSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: if min == u64::MAX { 0 } else { min },
            max: self.0.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            bounds: self.bounds().to_vec(),
            buckets: self.bucket_counts(),
            ..MetricSnapshot::scalar(subsystem, name, MetricKind::Histogram, 0)
        }
    }

    /// Start a gated RAII span recording into this histogram: free when
    /// metrics are disabled (no clock read), and no registry lock, so it
    /// is safe on hot paths once the handle is registered.
    #[inline]
    pub fn start_span(&self) -> Span {
        Span::start(self.clone())
    }

    /// Start an unconditional stopwatch recording into this histogram.
    #[inline]
    pub fn start_timer(&self) -> Stopwatch {
        Stopwatch::start(self.clone())
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

pub(crate) type Registry = BTreeMap<(String, String), Metric>;

pub(crate) fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A named subsystem view of the registry; cheap to copy around.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    subsystem: &'static str,
}

/// Get (or create) the scope for one pipeline subsystem — `"interp"`,
/// `"compressor"`, `"merge"`, `"codec"`, `"deflate"`, `"simmpi"`, `"bench"`.
pub fn scope(subsystem: &'static str) -> Scope {
    Scope { subsystem }
}

impl Scope {
    pub fn name(&self) -> &'static str {
        self.subsystem
    }

    fn key(&self, name: &str) -> (String, String) {
        (self.subsystem.to_owned(), name.to_owned())
    }

    /// Get or register a counter. Registration locks the registry; do it at
    /// construction time, not per event.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = registry().lock().expect("obs registry poisoned");
        match reg
            .entry(self.key(name))
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!(
                "metric {}/{name} already registered as {other:?}, not a counter",
                self.subsystem
            ),
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = registry().lock().expect("obs registry poisoned");
        match reg
            .entry(self.key(name))
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!(
                "metric {}/{name} already registered as {other:?}, not a gauge",
                self.subsystem
            ),
        }
    }

    /// Get or register a histogram with the given inclusive upper bounds
    /// (strictly increasing; an overflow bucket is added). Bounds of an
    /// already-registered histogram win.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut reg = registry().lock().expect("obs registry poisoned");
        match reg.entry(self.key(name)).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            other => panic!(
                "metric {}/{name} already registered as {other:?}, not a histogram",
                self.subsystem
            ),
        }
    }

    /// Always-on stopwatch over the same `<name>_ns` histogram — the
    /// benchmark harness's measurement path (Fig. 16/18 derive from it).
    pub fn timer(&self, name: &str) -> Stopwatch {
        Stopwatch::start(self.histogram(&format!("{name}_ns"), &TIME_BOUNDS_NS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_disabled_records_nothing() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(false);
        let c = scope("t-metrics").counter("disabled");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        let g = scope("t-metrics").gauge("hw");
        g.set(0);
        g.set_max(5);
        g.set_max(3);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        // 1..=1000 uniform into decade buckets: true p50=500, p90=900,
        // p99=990. Interpolation within the 101–1000 bucket is exact for
        // uniform data up to bucket-edge rounding.
        let h = scope("t-metrics").histogram("uniform", &[10, 100, 1_000, 10_000]);
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!((490..=510).contains(&p50), "p50={p50}");
        assert!((890..=910).contains(&p90), "p90={p90}");
        assert!((980..=1000).contains(&p99), "p99={p99}");
        // Extremes clamp to observed min/max.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_point_mass_and_empty() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        let h = scope("t-metrics").histogram("point", &TIME_BOUNDS_NS);
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..100 {
            h.observe(5_000);
        }
        // All mass at one value: every quantile is that value (min==max
        // clamping defeats within-bucket interpolation error).
        assert_eq!(h.quantile(0.5), 5_000);
        assert_eq!(h.quantile(0.99), 5_000);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        // 90 fast observations (~2µs) + 10 slow (~2s): p50/p90 must stay in
        // the fast decade, p99 in the slow one — the exact shape that
        // motivates quantiles over means for span histograms.
        let h = scope("t-metrics").histogram("bimodal", &TIME_BOUNDS_NS);
        for _ in 0..90 {
            h.observe(2_000);
        }
        for _ in 0..10 {
            h.observe(2_000_000_000);
        }
        assert!(h.quantile(0.50) <= 10_000, "p50={}", h.quantile(0.50));
        assert!(h.quantile(0.90) <= 10_000, "p90={}", h.quantile(0.90));
        assert!(
            h.quantile(0.99) >= 1_000_000_000,
            "p99={}",
            h.quantile(0.99)
        );
        crate::set_enabled(false);
    }

    #[test]
    fn same_name_returns_same_handle() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        let a = scope("t-metrics").counter("shared");
        let b = scope("t-metrics").counter("shared");
        let before = a.get();
        a.inc();
        b.inc();
        assert_eq!(a.get(), before + 2);
        crate::set_enabled(false);
    }
}
