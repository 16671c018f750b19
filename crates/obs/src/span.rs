//! RAII span timing.
//!
//! [`Span`] is the gated variant: when metrics are disabled it never reads
//! the clock, so an instrumented hot path pays only the enable-flag load.
//! [`Stopwatch`] always measures — it is the measurement path for the
//! benchmark harness (the Fig. 16/18 overhead columns come from it) and
//! records through [`Histogram::record`], which bypasses the enable gate.

use crate::metrics::Histogram;
use std::time::Instant;

/// Gated RAII timer. Started via [`Histogram::start_span`]; records elapsed
/// nanoseconds into its histogram on drop, but only if metrics were enabled
/// when the span started.
#[derive(Debug)]
pub struct Span {
    inner: Option<(Instant, Histogram)>,
}

impl Span {
    pub(crate) fn start(hist: Histogram) -> Self {
        Span {
            inner: if crate::enabled() {
                Some((Instant::now(), hist))
            } else {
                None
            },
        }
    }

    /// Elapsed nanoseconds so far, or 0 if the span is disabled.
    pub fn elapsed_ns(&self) -> u64 {
        match &self.inner {
            Some((start, _)) => start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.inner.take() {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Unconditional timer. Started via [`crate::Scope::timer`]; always reads
/// the clock and always records, so measurements exist whether or not
/// `--metrics` is on. Use for the benchmark measurement path, not for
/// hot-loop instrumentation.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
    hist: Histogram,
    recorded: bool,
}

impl Stopwatch {
    pub(crate) fn start(hist: Histogram) -> Self {
        Stopwatch {
            start: Instant::now(),
            hist,
            recorded: false,
        }
    }

    /// Stop, record, and return elapsed nanoseconds.
    pub fn stop_ns(mut self) -> u64 {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.hist.record(ns);
        self.recorded = true;
        ns
    }

    /// Stop, record, and return elapsed seconds.
    pub fn stop_secs(self) -> f64 {
        self.stop_ns() as f64 / 1e9
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        if !self.recorded {
            self.hist.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::{scope, TIME_BOUNDS_NS};

    #[test]
    fn span_disabled_records_nothing() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(false);
        let h = scope("t-span").histogram("noop_ns", &TIME_BOUNDS_NS);
        let before = h.count();
        drop(h.start_span());
        assert_eq!(h.count(), before);
    }

    #[test]
    fn span_enabled_records_once() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        let h = scope("t-span").histogram("timed_ns", &TIME_BOUNDS_NS);
        let before = h.count();
        drop(h.start_span());
        assert_eq!(h.count(), before + 1);
        crate::set_enabled(false);
    }

    #[test]
    fn nested_spans_each_record() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        let m = scope("t-span");
        let outer_h = m.histogram("outer_ns", &TIME_BOUNDS_NS);
        let inner_h = m.histogram("inner_ns", &TIME_BOUNDS_NS);
        let (o0, i0) = (outer_h.count(), inner_h.count());
        {
            let _outer = outer_h.start_span();
            let _inner = inner_h.start_span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(outer_h.count(), o0 + 1);
        assert_eq!(inner_h.count(), i0 + 1);
        // The outer span encloses the inner one, so its recorded duration
        // must be at least as long.
        assert!(outer_h.sum() >= inner_h.sum());
        crate::set_enabled(false);
    }

    #[test]
    fn stopwatch_records_even_when_disabled() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(false);
        let h = scope("t-span").histogram("sw_ns", &TIME_BOUNDS_NS);
        let before = h.count();
        let ns = scope("t-span").timer("sw").stop_ns();
        assert_eq!(h.count(), before + 1);
        assert!(h.sum() >= ns.min(h.sum()));
    }
}
