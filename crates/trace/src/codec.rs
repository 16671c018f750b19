//! Compact varint binary codec.
//!
//! The build environment is fully offline (no serde, no format crates), so
//! trace artifacts are serialized with a small hand-rolled codec: LEB128
//! varints for unsigned integers, zigzag+LEB128 for signed, raw little-endian
//! bits for `f64`. All trace-size numbers reported by the benchmark harness
//! are sizes of these encodings. The observability
//! [`Report`](cypress_obs::Report), the one telemetry payload, is encoded
//! here too. Whole-artifact traffic through [`Codec::to_bytes`] /
//! [`Codec::from_bytes`] is counted under the `codec` observability scope.

use std::sync::OnceLock;

/// Byte counters for whole-artifact encode/decode traffic, registered once.
fn codec_counters() -> &'static (cypress_obs::Counter, cypress_obs::Counter) {
    static COUNTERS: OnceLock<(cypress_obs::Counter, cypress_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let m = cypress_obs::scope("codec");
        (m.counter("bytes_encoded"), m.counter("bytes_decoded"))
    })
}

/// Encoding error-free writer over a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Reset to empty, keeping the allocation — lets hot paths reuse one
    /// scratch encoder (e.g. per-event raw-size accounting in sessions)
    /// instead of allocating per call.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 unsigned varint.
    pub fn put_uvar(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_ivar(&mut self, v: i64) {
        self.put_uvar(zigzag(v));
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_uvar(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Encoded length in bytes of [`Encoder::put_uvar`]`(v)`, without encoding.
/// Lets accounting paths (e.g. raw-size stats in sessions) compute sizes
/// arithmetically instead of serializing into a scratch buffer.
#[inline]
pub fn uvar_len(v: u64) -> usize {
    // ceil(bits/7); 1 byte minimum for v == 0.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encoded length in bytes of [`Encoder::put_ivar`]`(v)`.
#[inline]
pub fn ivar_len(v: i64) -> usize {
    uvar_len(zigzag(v))
}

/// Zigzag map i64 -> u64 (small magnitudes become small codes).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub type DecodeResult<T> = Result<T, DecodeError>;

/// Reader over an encoded byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discard the next `n` bytes (e.g. an unparseable payload from a newer
    /// peer that has already passed integrity checks).
    pub fn skip(&mut self, n: usize) -> DecodeResult<()> {
        if self.buf.len() < n {
            return Err(DecodeError(format!(
                "unexpected end of input (skip {n}, have {})",
                self.buf.len()
            )));
        }
        self.buf = &self.buf[n..];
        Ok(())
    }

    pub fn get_u8(&mut self) -> DecodeResult<u8> {
        if self.buf.is_empty() {
            return Err(DecodeError("unexpected end of input (u8)".into()));
        }
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        Ok(v)
    }

    pub fn get_uvar(&mut self) -> DecodeResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift >= 64 {
                return Err(DecodeError("varint too long".into()));
            }
            // The 10th byte may only contribute one bit.
            if shift == 63 && (b & 0x7e) != 0 {
                return Err(DecodeError("varint overflows u64".into()));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_ivar(&mut self) -> DecodeResult<i64> {
        Ok(unzigzag(self.get_uvar()?))
    }

    pub fn get_f64(&mut self) -> DecodeResult<f64> {
        if self.buf.len() < 8 {
            return Err(DecodeError("unexpected end of input (f64)".into()));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[..8]);
        self.buf = &self.buf[8..];
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    pub fn get_bytes(&mut self) -> DecodeResult<Vec<u8>> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Like [`Decoder::get_bytes`] but borrows the bytes from the input
    /// buffer instead of copying them — the basis of zero-copy section views.
    pub fn get_bytes_ref(&mut self) -> DecodeResult<&'a [u8]> {
        let n = self.get_uvar()? as usize;
        if self.buf.len() < n {
            return Err(DecodeError(format!(
                "byte string of length {n} exceeds remaining {}",
                self.buf.len()
            )));
        }
        let out = &self.buf[..n];
        self.buf = &self.buf[n..];
        Ok(out)
    }

    pub fn get_str(&mut self) -> DecodeResult<String> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|e| DecodeError(format!("invalid utf-8 string: {e}")))
    }
}

/// Types that serialize with this codec.
pub trait Codec: Sized {
    fn encode(&self, enc: &mut Encoder);
    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self>;

    /// Encoded size in bytes.
    fn encoded_size(&self) -> usize {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.len()
    }

    /// Encode into a standalone buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        let out = enc.finish();
        if cypress_obs::enabled() {
            codec_counters().0.add(out.len() as u64);
        }
        out
    }

    /// Decode from a standalone buffer, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> DecodeResult<Self> {
        if cypress_obs::enabled() {
            codec_counters().1.add(buf.len() as u64);
        }
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        if !dec.is_done() {
            return Err(DecodeError(format!(
                "{} trailing bytes after decode",
                dec.remaining()
            )));
        }
        Ok(v)
    }
}

/// Version byte of the [`Report`](cypress_obs::Report) encoding — the one
/// telemetry payload: daemon stats replies and container telemetry
/// sections alike.
const REPORT_VERSION: u8 = 1;

/// Upper bound on the row, bound and bucket counts in a decoded report;
/// rejects absurd length prefixes before anything is allocated.
const MAX_REPORT_ITEMS: u64 = 1 << 20;

/// Read a collection length, refusing counts beyond [`MAX_REPORT_ITEMS`]
/// or beyond the bytes left (every item takes at least one byte).
fn report_len(dec: &mut Decoder<'_>, what: &str) -> DecodeResult<usize> {
    let n = dec.get_uvar()?;
    if n > MAX_REPORT_ITEMS || n > dec.remaining() as u64 {
        return Err(DecodeError(format!("report claims {n} {what}")));
    }
    Ok(n as usize)
}

fn get_u64s(dec: &mut Decoder<'_>, what: &str) -> DecodeResult<Vec<u64>> {
    let n = report_len(dec, what)?;
    (0..n).map(|_| dec.get_uvar()).collect()
}

fn put_u64s(enc: &mut Encoder, xs: &[u64]) {
    enc.put_uvar(xs.len() as u64);
    for &x in xs {
        enc.put_uvar(x);
    }
}

impl Codec for cypress_obs::Report {
    fn encode(&self, enc: &mut Encoder) {
        use cypress_obs::MetricKind;
        enc.put_u8(REPORT_VERSION);
        enc.put_uvar(self.metrics.len() as u64);
        for m in &self.metrics {
            enc.put_str(&m.subsystem);
            enc.put_str(&m.name);
            match m.kind {
                MetricKind::Counter => enc.put_u8(0),
                MetricKind::Gauge => enc.put_u8(1),
                MetricKind::Histogram => enc.put_u8(2),
            }
            if m.kind != MetricKind::Histogram {
                enc.put_ivar(m.value);
                continue;
            }
            for v in [m.count, m.sum, m.min, m.max, m.p50, m.p90, m.p99] {
                enc.put_uvar(v);
            }
            put_u64s(enc, &m.bounds);
            put_u64s(enc, &m.buckets);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        use cypress_obs::{MetricKind, MetricSnapshot};
        let version = dec.get_u8()?;
        if version != REPORT_VERSION {
            return Err(DecodeError(format!(
                "report version {version} unsupported (only {REPORT_VERSION})"
            )));
        }
        let n = report_len(dec, "rows")?;
        let metrics = (0..n)
            .map(|_| {
                let (subsystem, name) = (dec.get_str()?, dec.get_str()?);
                let kind = match dec.get_u8()? {
                    0 => MetricKind::Counter,
                    1 => MetricKind::Gauge,
                    2 => MetricKind::Histogram,
                    k => return Err(DecodeError(format!("bad report metric kind {k}"))),
                };
                if kind != MetricKind::Histogram {
                    return Ok(MetricSnapshot::scalar(
                        &subsystem,
                        &name,
                        kind,
                        dec.get_ivar()?,
                    ));
                }
                let mut h = MetricSnapshot::scalar(&subsystem, &name, kind, 0);
                for v in [
                    &mut h.count,
                    &mut h.sum,
                    &mut h.min,
                    &mut h.max,
                    &mut h.p50,
                    &mut h.p90,
                    &mut h.p99,
                ] {
                    *v = dec.get_uvar()?;
                }
                h.bounds = get_u64s(dec, "histogram bounds")?;
                h.buckets = get_u64s(dec, "histogram buckets")?;
                if h.buckets.len() != h.bounds.len() + 1 {
                    return Err(DecodeError(format!(
                        "histogram {subsystem}/{name} has {} buckets for {} bounds",
                        h.buckets.len(),
                        h.bounds.len()
                    )));
                }
                Ok(h)
            })
            .collect::<DecodeResult<Vec<_>>>()?;
        Ok(cypress_obs::Report { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    fn sample_report() -> cypress_obs::Report {
        use cypress_obs::{MetricKind, MetricSnapshot};
        let mut hist =
            MetricSnapshot::scalar("collector", "batch_events", MetricKind::Histogram, 0);
        hist.count = 3;
        hist.sum = 5055;
        hist.min = 5;
        hist.max = 5000;
        hist.p50 = 100;
        hist.p90 = 5000;
        hist.p99 = 5000;
        hist.bounds = vec![10, 100];
        hist.buckets = vec![1, 1, 1];
        cypress_obs::Report {
            metrics: vec![
                MetricSnapshot::counter("store", "loads", 7),
                MetricSnapshot::gauge("collector", "resident_blocks", -3),
                hist,
            ],
        }
    }

    #[test]
    fn report_round_trips_every_row_kind() {
        let r = sample_report();
        assert_eq!(cypress_obs::Report::from_bytes(&r.to_bytes()).unwrap(), r);
        let empty = cypress_obs::Report::default();
        assert_eq!(
            cypress_obs::Report::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn report_rejects_truncation_other_versions_and_oversized_counts() {
        let bytes = sample_report().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                cypress_obs::Report::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        for version in [0, REPORT_VERSION + 1] {
            let mut b = bytes.clone();
            b[0] = version;
            assert!(cypress_obs::Report::from_bytes(&b).is_err(), "v{version}");
        }
        // A row count far beyond the input must fail before allocating.
        for claimed in [MAX_REPORT_ITEMS + 1, u64::MAX, 1 << 40, 64] {
            let mut e = Encoder::new();
            e.put_u8(REPORT_VERSION);
            e.put_uvar(claimed);
            e.put_str("x");
            assert!(cypress_obs::Report::from_bytes(&e.finish()).is_err());
        }
        // Same for a histogram's bounds count, and for a bucket count that
        // does not match its bounds.
        let mut e = Encoder::new();
        e.put_u8(REPORT_VERSION);
        e.put_uvar(1);
        e.put_str("s");
        e.put_str("h");
        e.put_u8(2);
        for _ in 0..7 {
            e.put_uvar(0);
        }
        let prefix = e.finish();
        let mut huge = Encoder::new();
        huge.put_uvar(u64::MAX >> 1);
        let huge = [prefix.clone(), huge.finish()].concat();
        assert!(cypress_obs::Report::from_bytes(&huge).is_err());
        let mut skew = Encoder::new();
        put_u64s(&mut skew, &[10]);
        put_u64s(&mut skew, &[1]);
        let skew = [prefix, skew.finish()].concat();
        assert!(cypress_obs::Report::from_bytes(&skew).is_err());
    }

    #[test]
    fn uvar_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_uvar(v);
            let b = e.finish();
            let mut d = Decoder::new(&b);
            assert_eq!(d.get_uvar().unwrap(), v);
            assert!(d.is_done());
        }
    }

    #[test]
    fn ivar_round_trip_boundaries() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut e = Encoder::new();
            e.put_ivar(v);
            let b = e.finish();
            let mut d = Decoder::new(&b);
            assert_eq!(d.get_ivar().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_uvar(300);
        let b = e.finish();
        let mut d = Decoder::new(&b[..1]);
        assert!(d.get_uvar().is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        let b = [0xffu8; 11];
        let mut d = Decoder::new(&b);
        assert!(d.get_uvar().is_err());
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn uvar_round_trip_random() {
        let mut rng = Rng::new(0x5eed_c0de);
        for _ in 0..4000 {
            // Bias toward varied magnitudes by masking to a random width.
            let width = rng.range_u64(1..65) as u32;
            let v = rng.next_u64() >> (64 - width);
            let mut e = Encoder::new();
            e.put_uvar(v);
            let b = e.finish();
            let mut d = Decoder::new(&b);
            assert_eq!(d.get_uvar().unwrap(), v);
            assert!(d.is_done());
        }
    }

    #[test]
    fn ivar_round_trip_random() {
        let mut rng = Rng::new(0x1234_5678);
        for _ in 0..4000 {
            let width = rng.range_u64(1..65) as u32;
            let v = (rng.next_u64() >> (64 - width)) as i64;
            let v = if rng.chance(0.5) { v.wrapping_neg() } else { v };
            let mut e = Encoder::new();
            e.put_ivar(v);
            let b = e.finish();
            let mut d = Decoder::new(&b);
            assert_eq!(d.get_ivar().unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trip_random_bits() {
        let mut rng = Rng::new(0xf64f_64f6);
        for _ in 0..2000 {
            let v = f64::from_bits(rng.next_u64());
            let mut e = Encoder::new();
            e.put_f64(v);
            let b = e.finish();
            let mut d = Decoder::new(&b);
            let got = d.get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn mixed_sequence_round_trip_random() {
        let mut rng = Rng::new(0xabcd);
        for _ in 0..256 {
            let n = rng.range_usize(0..50);
            let vals: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            let mut e = Encoder::new();
            e.put_uvar(vals.len() as u64);
            for &v in &vals {
                e.put_ivar(v);
            }
            let b = e.finish();
            let mut d = Decoder::new(&b);
            let m = d.get_uvar().unwrap() as usize;
            let got: Vec<i64> = (0..m).map(|_| d.get_ivar().unwrap()).collect();
            assert_eq!(got, vals);
        }
    }
}
