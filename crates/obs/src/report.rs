//! Registry snapshots and report emitters.
//!
//! [`report`] snapshots every registered metric; [`Report::to_text`]
//! renders an aligned table for stdout and [`Report::to_jsonl`] one JSON
//! object per metric for `results/metrics.jsonl`. JSON is emitted by hand
//! (offline build — no serde): the shape is fixed and covered by a golden
//! test.

use crate::metrics::{registry, Metric};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Point-in-time copy of one metric's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    pub subsystem: String,
    pub name: String,
    pub kind: MetricKind,
    /// Counter value or gauge value (gauges may be negative).
    pub value: i64,
    /// Histogram-only fields; empty/zero otherwise.
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Interpolated quantile estimates (see [`crate::Histogram::quantile`]).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    /// A counter or gauge row holding `value`.
    pub fn scalar(subsystem: &str, name: &str, kind: MetricKind, value: i64) -> MetricSnapshot {
        MetricSnapshot {
            subsystem: subsystem.to_owned(),
            name: name.to_owned(),
            kind,
            value,
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            bounds: Vec::new(),
            buckets: Vec::new(),
        }
    }

    pub fn counter(subsystem: &str, name: &str, value: u64) -> MetricSnapshot {
        MetricSnapshot::scalar(subsystem, name, MetricKind::Counter, value as i64)
    }

    pub fn gauge(subsystem: &str, name: &str, value: i64) -> MetricSnapshot {
        MetricSnapshot::scalar(subsystem, name, MetricKind::Gauge, value)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// All metrics at one instant. Registry snapshots are sorted by
/// (subsystem, name); reports built by hand (a daemon's stats reply, a
/// container's telemetry section) keep the order they were built in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    pub metrics: Vec<MetricSnapshot>,
}

impl Report {
    /// The value of the counter or gauge `subsystem/name`, if present.
    pub fn value(&self, subsystem: &str, name: &str) -> Option<i64> {
        self.get(subsystem, name).map(|m| m.value)
    }

    /// The row `subsystem/name`, if present.
    pub fn get(&self, subsystem: &str, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .iter()
            .find(|m| m.subsystem == subsystem && m.name == name)
    }
}

/// Snapshot the global registry.
pub fn report() -> Report {
    let reg = registry().lock().expect("obs registry poisoned");
    let metrics = reg
        .iter()
        .map(|((subsystem, name), metric)| match metric {
            Metric::Counter(c) => MetricSnapshot::counter(subsystem, name, c.get()),
            Metric::Gauge(g) => MetricSnapshot::gauge(subsystem, name, g.get()),
            Metric::Histogram(h) => h.snapshot(subsystem, name),
        })
        .collect();
    Report { metrics }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Report {
    /// Aligned text table, one metric per row.
    pub fn to_text(&self) -> String {
        if self.metrics.is_empty() {
            return "no metrics recorded\n".to_owned();
        }
        let mut rows: Vec<[String; 4]> = vec![[
            "subsystem".into(),
            "metric".into(),
            "kind".into(),
            "value".into(),
        ]];
        for m in &self.metrics {
            let value = match m.kind {
                MetricKind::Counter | MetricKind::Gauge => m.value.to_string(),
                MetricKind::Histogram => {
                    // Span histograms are named *_ns; show humane durations.
                    if m.name.ends_with("_ns") {
                        format!(
                            "n={} sum={} mean={} p50={} p90={} p99={} max={}",
                            m.count,
                            fmt_ns(m.sum),
                            fmt_ns(m.mean() as u64),
                            fmt_ns(m.p50),
                            fmt_ns(m.p90),
                            fmt_ns(m.p99),
                            fmt_ns(m.max),
                        )
                    } else {
                        format!(
                            "n={} sum={} mean={:.1} p50={} p90={} p99={} max={}",
                            m.count,
                            m.sum,
                            m.mean(),
                            m.p50,
                            m.p90,
                            m.p99,
                            m.max
                        )
                    }
                }
            };
            rows.push([
                m.subsystem.clone(),
                m.name.clone(),
                m.kind.as_str().to_owned(),
                value,
            ]);
        }
        let mut widths = [0usize; 4];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                if j < 3 {
                    for _ in cell.len()..widths[j] {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
            if i == 0 {
                for (j, w) in widths.iter().enumerate() {
                    if j > 0 {
                        out.push_str("  ");
                    }
                    for _ in 0..*w {
                        out.push('-');
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// JSON-lines: one object per metric, keys in fixed order. Counters and
    /// gauges carry `value`; histograms carry `count`/`sum`/`min`/`max`/
    /// `bounds`/`buckets`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str("{\"subsystem\":");
            json_str(&mut out, &m.subsystem);
            out.push_str(",\"name\":");
            json_str(&mut out, &m.name);
            out.push_str(",\"kind\":\"");
            out.push_str(m.kind.as_str());
            out.push('"');
            match m.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    out.push_str(&format!(",\"value\":{}", m.value));
                }
                MetricKind::Histogram => {
                    out.push_str(&format!(
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"bounds\":{},\"buckets\":{}",
                        m.count,
                        m.sum,
                        m.min,
                        m.max,
                        m.p50,
                        m.p90,
                        m.p99,
                        json_u64_array(&m.bounds),
                        json_u64_array(&m.buckets),
                    ));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_u64_array(xs: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::scope;

    #[test]
    fn jsonl_golden_shape() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        let m = scope("golden");
        m.counter("events").add(7);
        m.gauge("live_bytes").set(-3);
        m.histogram("lat", &[10, 100]).observe(5);
        m.histogram("lat", &[10, 100]).observe(50);
        m.histogram("lat", &[10, 100]).observe(5000);
        let got = report().to_jsonl();
        let want = concat!(
            "{\"subsystem\":\"golden\",\"name\":\"events\",\"kind\":\"counter\",\"value\":7}\n",
            "{\"subsystem\":\"golden\",\"name\":\"lat\",\"kind\":\"histogram\",",
            "\"count\":3,\"sum\":5055,\"min\":5,\"max\":5000,",
            "\"p50\":100,\"p90\":5000,\"p99\":5000,",
            "\"bounds\":[10,100],\"buckets\":[1,1,1]}\n",
            "{\"subsystem\":\"golden\",\"name\":\"live_bytes\",\"kind\":\"gauge\",\"value\":-3}\n",
        );
        assert_eq!(got, want);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn text_table_is_aligned_and_complete() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        let m = scope("texttab");
        m.counter("a_counter").add(42);
        m.gauge("a_gauge").set(9);
        let text = report().to_text();
        assert!(text.contains("a_counter"));
        assert!(text.contains("a_gauge"));
        assert!(text.contains("42"));
        // Header divider present.
        assert!(text.lines().nth(1).unwrap().starts_with('-'));
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_report_text() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        assert_eq!(report().to_text(), "no metrics recorded\n");
        assert_eq!(report().to_jsonl(), "");
    }
}
