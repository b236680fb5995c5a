//! Small statistics helpers: medians, nearest-rank percentiles, a
//! lock-free log-linear histogram for per-call times, and an FNV
//! fingerprint of run reports.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gridagg_core::metrics::{MemberOutcome, RunReport};

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sub-buckets per power of two: values are kept to within 1/8.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// A log-linear histogram of `u64` samples (eight buckets per power of
/// two) that any number of threads can record into without locks.
/// Memory is fixed, whatever the sample count.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    (SUB + u64::from(e - SUB_BITS) * SUB + sub) as usize
}

/// The midpoint of a bucket's value range.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let e = (i - SUB) / SUB + u64::from(SUB_BITS);
    let sub = (i - SUB) % SUB;
    let width = 1u64 << (e - u64::from(SUB_BITS));
    ((SUB + sub) * width) as f64 + width as f64 / 2.0
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Add every sample of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Relaxed), Relaxed);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Non-empty buckets as (midpoint, count), ascending.
    pub fn nonzero(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (bucket_mid(i), b.load(Relaxed)))
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    /// Nearest-rank percentile `p`, as its bucket's midpoint (0 when
    /// empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank {rank} is within the {total} recorded samples")
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Mix every field of a report (floats by bit pattern) into `h`.
pub fn hash_report(h: &mut Fnv, r: &RunReport) {
    h.word(r.n as u64);
    h.word(r.rounds);
    h.word(r.true_value.to_bits());
    h.word(r.protocol_steps);
    let s = &r.net;
    for w in [
        s.sent,
        s.delivered,
        s.dropped_loss,
        s.dropped_bandwidth,
        s.bytes_sent,
        s.bytes_delivered,
        s.total_hops,
        s.peak_in_flight,
    ] {
        h.word(w);
    }
    for w in s.load_by_distance {
        h.word(w);
    }
    for o in &r.outcomes {
        match *o {
            MemberOutcome::Completed {
                completeness,
                value,
                at,
            } => {
                h.word(1);
                h.word(completeness.to_bits());
                h.word(value.to_bits());
                h.word(at);
            }
            MemberOutcome::Crashed => h.word(2),
            MemberOutcome::TimedOut => h.word(3),
        }
    }
}

/// Fingerprint of one report: equal reports, and only those in
/// practice, share it.
pub fn fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv::default();
    hash_report(&mut h, r);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
    }

    #[test]
    fn histogram_buckets_are_within_an_eighth() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 123_456, u64::MAX / 3] {
            let mid = bucket_mid(bucket_of(v));
            let err = (mid - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 1.0 / 8.0, "v={v} mid={mid}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_follow_the_samples() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        assert!((p50 - 500.0).abs() / 500.0 < 0.13, "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 - 990.0).abs() / 990.0 < 0.13, "p99 {p99}");
        assert_eq!(Histogram::default().percentile(50.0), 0.0);
    }
}
