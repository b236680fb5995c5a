//! Wire encoding for aggregate values.
//!
//! The paper's scalability argument rests on "all messages sent over the
//! network are constant size bounded … larger than the byte-size of
//! individual votes and any composable function evaluation". This module
//! makes that concrete: every [`Aggregate`] implementation here
//! serializes to at most [`MAX_AGGREGATE_WIRE_SIZE`] bytes, independent
//! of the group size — and the tests enforce it.
//!
//! Note the contributor [`crate::VoteSet`] is deliberately *not*
//! encodable: it is simulation instrumentation, and would be O(N) on the
//! wire.

use bytes::{Buf, BufMut};

use crate::funcs::{
    All, Any, Average, Count, Histogram16, Max, MeanVar, Min, Sum, TopK, HISTOGRAM_BUCKETS, TOP_K,
};
use crate::Aggregate;

/// Upper bound (bytes) on any encoded aggregate value: the histogram is
/// the largest at `2·8 (range) + 16·8 (buckets) = 144`, plus slack.
pub const MAX_AGGREGATE_WIRE_SIZE: usize = 160;

/// Errors from decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A length or discriminant field was invalid.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("buffer too short for aggregate value"),
            WireError::Malformed => f.write_str("malformed aggregate encoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// An [`Aggregate`] with a binary wire form.
///
/// Implementations append to any [`BufMut`] and decode from any [`Buf`]
/// (C-RW-VALUE: pass `&mut buf` when you need to keep using the buffer).
pub trait WireAggregate: Aggregate {
    /// Append the encoded value to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Decode a value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or malformed input.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError>;

    /// Exact encoded size in bytes. Must be `<=`
    /// [`MAX_AGGREGATE_WIRE_SIZE`] for every value.
    fn wire_size(&self) -> usize;
}

fn get_f64<B: Buf>(buf: &mut B) -> Result<f64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_f64())
}

fn get_u64<B: Buf>(buf: &mut B) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64())
}

impl WireAggregate for Average {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.sum());
        buf.put_u64(self.count());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let sum = get_f64(buf)?;
        let count = get_u64(buf)?;
        if count == 0 {
            return Err(WireError::Malformed);
        }
        Ok(Average::from_parts(sum, count))
    }

    fn wire_size(&self) -> usize {
        16
    }
}

impl WireAggregate for Sum {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(Sum::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Min {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(Min::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Max {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(self.summary());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(Max::from_vote(get_f64(buf)?))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Count {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        // the raw count, not `summary() as u64`: no float round-trip on
        // the wire (lint rule D004)
        buf.put_u64(self.value());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let n = get_u64(buf)?;
        if n == 0 {
            return Err(WireError::Malformed);
        }
        Ok(Count::from_parts(n))
    }

    fn wire_size(&self) -> usize {
        8
    }
}

impl WireAggregate for Histogram16 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        for &b in self.buckets() {
            buf.put_u64(b);
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for c in &mut counts {
            *c = get_u64(buf)?;
        }
        if counts.iter().all(|&c| c == 0) {
            return Err(WireError::Malformed);
        }
        Ok(Histogram16::from_parts(counts))
    }

    fn wire_size(&self) -> usize {
        HISTOGRAM_BUCKETS * 8
    }
}

impl WireAggregate for TopK {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.items().len() as u8);
        for &v in self.items() {
            buf.put_f64(v);
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let len = buf.get_u8() as usize;
        if len == 0 || len > TOP_K {
            return Err(WireError::Malformed);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(get_f64(buf)?);
        }
        Ok(TopK::from_parts(items))
    }

    fn wire_size(&self) -> usize {
        1 + self.items().len() * 8
    }
}

impl WireAggregate for MeanVar {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.count());
        buf.put_f64(self.mean());
        buf.put_f64(if self.count() == 0 {
            0.0
        } else {
            self.variance() * crate::conv::count_to_f64(self.count())
        });
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let count = get_u64(buf)?;
        let mean = get_f64(buf)?;
        let m2 = get_f64(buf)?;
        if count == 0 || m2 < 0.0 || !m2.is_finite() {
            return Err(WireError::Malformed);
        }
        Ok(MeanVar::from_parts(count, mean, m2))
    }

    fn wire_size(&self) -> usize {
        24
    }
}

impl WireAggregate for Any {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(self.holds()));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(Any::from_vote(0.0)),
            1 => Ok(Any::from_vote(1.0)),
            _ => Err(WireError::Malformed),
        }
    }

    fn wire_size(&self) -> usize {
        1
    }
}

impl WireAggregate for All {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(self.holds()));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(All::from_vote(0.0)),
            1 => Ok(All::from_vote(1.0)),
            _ => Err(WireError::Malformed),
        }
    }

    fn wire_size(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<A: WireAggregate>(a: &A) -> A {
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), a.wire_size(), "declared size mismatch");
        assert!(a.wire_size() <= MAX_AGGREGATE_WIRE_SIZE);
        let mut rd: &[u8] = &buf;
        let out = A::decode(&mut rd).expect("decode");
        assert_eq!(rd.remaining(), 0, "trailing bytes");
        out
    }

    fn fold<A: Aggregate>(votes: &[f64]) -> A {
        let mut acc = A::from_vote(votes[0]);
        for &v in &votes[1..] {
            acc.merge(&A::from_vote(v));
        }
        acc
    }

    const VOTES: [f64; 5] = [3.5, -2.0, 7.25, 0.0, 11.0];

    #[test]
    fn average_roundtrip() {
        let a: Average = fold(&VOTES);
        let b = roundtrip(&a);
        assert_eq!(a.count(), b.count());
        assert!((a.sum() - b.sum()).abs() < 1e-9);
    }

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(roundtrip(&fold::<Sum>(&VOTES)), fold::<Sum>(&VOTES));
        assert_eq!(roundtrip(&fold::<Min>(&VOTES)), fold::<Min>(&VOTES));
        assert_eq!(roundtrip(&fold::<Max>(&VOTES)), fold::<Max>(&VOTES));
        assert_eq!(roundtrip(&fold::<Count>(&VOTES)), fold::<Count>(&VOTES));
    }

    #[test]
    fn histogram_roundtrip_preserves_buckets() {
        let h: Histogram16 = fold(&[5.0, 15.0, 15.0, 95.0]);
        let h2 = roundtrip(&h);
        assert_eq!(h.buckets(), h2.buckets());
    }

    #[test]
    fn topk_roundtrip() {
        let t: TopK = fold(&VOTES);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn meanvar_roundtrip_close() {
        let mv: MeanVar = fold(&VOTES);
        let mv2 = roundtrip(&mv);
        assert_eq!(mv.count(), mv2.count());
        assert!((mv.mean() - mv2.mean()).abs() < 1e-9, "{mv:?} vs {mv2:?}");
        assert!(
            (mv.variance() - mv2.variance()).abs() < 1e-6,
            "{} vs {}",
            mv.variance(),
            mv2.variance()
        );
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        fold::<Average>(&VOTES).encode(&mut buf);
        let mut short: &[u8] = &buf[..10];
        assert_eq!(Average::decode(&mut short), Err(WireError::Truncated));
        let mut empty: &[u8] = &[];
        assert_eq!(Sum::decode(&mut empty), Err(WireError::Truncated));
        assert_eq!(TopK::decode(&mut empty), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_input_errors() {
        // zero-count average
        let mut buf = Vec::new();
        buf.put_f64(1.0);
        buf.put_u64(0);
        assert_eq!(Average::decode(&mut &buf[..]), Err(WireError::Malformed));
        // topk with oversized length
        let mut buf = Vec::new();
        buf.put_u8(200);
        assert_eq!(TopK::decode(&mut &buf[..]), Err(WireError::Malformed));
    }

    #[test]
    fn sizes_are_constant_bounded() {
        // wire size must not grow with the number of merged votes
        let small: Average = fold(&VOTES[..2]);
        let big: Average = fold(&VOTES);
        assert_eq!(small.wire_size(), big.wire_size());
        let h_small: Histogram16 = fold(&VOTES[..2]);
        let h_big: Histogram16 = fold(&VOTES);
        assert_eq!(h_small.wire_size(), h_big.wire_size());
    }

    #[test]
    fn bool_roundtrips() {
        assert_eq!(roundtrip(&Any::from_vote(1.0)), Any::from_vote(1.0));
        assert_eq!(roundtrip(&Any::from_vote(0.0)), Any::from_vote(0.0));
        assert_eq!(roundtrip(&All::from_vote(0.0)), All::from_vote(0.0));
        let mut buf = Vec::new();
        buf.put_u8(7);
        assert_eq!(Any::decode(&mut &buf[..]), Err(WireError::Malformed));
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("short"));
        assert!(WireError::Malformed.to_string().contains("malformed"));
    }

    #[test]
    fn tagged_roundtrips_exact_and_counted() {
        let n = crate::EXACT_TRACK_MAX + 1;
        let mut counted = crate::Tagged::<Average>::from_vote_for_scale(3, 5.0, n);
        counted
            .try_merge(&crate::Tagged::from_vote_for_scale(9, 7.0, n))
            .unwrap();
        assert!(!counted.votes().is_exact());
        let mut exact = crate::Tagged::<Average>::from_vote(3, 5.0, 128);
        exact
            .try_merge(&crate::Tagged::from_vote(9, 7.0, 128))
            .unwrap();
        for t in [&exact, &counted] {
            let mut buf = Vec::new();
            encode_tagged(t, &mut buf);
            let back: crate::Tagged<Average> = decode_tagged(&mut &buf[..]).unwrap();
            assert_eq!(&back, t);
            assert_eq!(back.vote_count(), 2);
        }
        // the counted encoding is count-only: constant size
        let mut big = crate::Tagged::<Average>::empty_for_scale(n);
        for m in 0..100 {
            big.try_merge(&crate::Tagged::from_vote_for_scale(m, 1.0, n))
                .unwrap();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_tagged(&counted, &mut a);
        encode_tagged(&big, &mut b);
        assert_eq!(a.len(), b.len());
    }
}

/// Encode a [`Tagged`](crate::Tagged) aggregate *including its
/// contributor set*.
///
/// The contributor bitmap is O(N/8) bytes, so this codec intentionally
/// exceeds the constant-size wire model — it exists for the real-network
/// runtime and test transports, where exact completeness measurement is
/// worth the bytes. A production deployment would ship only the
/// [`WireAggregate`] value (see the module docs).
///
/// Counted contributor sets (see [`crate::VoteSet::for_scale`]) have no
/// bitmap; they are written as the sentinel word count `u16::MAX`
/// followed by the `u64` contributor count. Exact sets never reach the
/// sentinel: they are capped at [`crate::EXACT_TRACK_MAX`] members
/// (256 words) at every `for_scale` construction site.
pub fn encode_tagged<A: WireAggregate, B: BufMut>(tagged: &crate::Tagged<A>, buf: &mut B) {
    match tagged.aggregate() {
        Some(agg) => {
            buf.put_u8(1);
            agg.encode(buf);
        }
        None => buf.put_u8(0),
    }
    let votes = tagged.votes();
    if votes.is_exact() {
        let words = votes.words();
        buf.put_u16(words.len() as u16);
        for &w in words {
            buf.put_u64(w);
        }
    } else {
        buf.put_u16(u16::MAX);
        buf.put_u64(votes.len() as u64);
    }
}

/// Decode a [`Tagged`](crate::Tagged) aggregate written by
/// [`encode_tagged`].
///
/// # Errors
///
/// Returns [`WireError`] on truncated or malformed input.
pub fn decode_tagged<A: WireAggregate, B: Buf>(buf: &mut B) -> Result<crate::Tagged<A>, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let agg = match buf.get_u8() {
        0 => None,
        1 => Some(A::decode(buf)?),
        _ => return Err(WireError::Malformed),
    };
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let n_words = buf.get_u16() as usize;
    let votes = if n_words == u16::MAX as usize {
        // counted contributor set: sentinel word count, then the count
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let count = buf.get_u64();
        let count = usize::try_from(count).map_err(|_| WireError::Malformed)?;
        crate::VoteSet::counted(count)
    } else {
        if buf.remaining() < n_words * 8 {
            return Err(WireError::Truncated);
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(buf.get_u64());
        }
        crate::VoteSet::from_words(words)
    };
    crate::Tagged::from_parts(agg, votes).map_err(|_| WireError::Malformed)
}

/// Memoizes the encoded wire form of a value until the value changes.
///
/// Protocols re-send the *same* aggregate many times between state
/// changes (gossip fanout, straggler replies), and re-encoding an
/// unchanged value is pure waste on the hot path. `EncodeMemo` keeps
/// the last value alongside its encoded bytes and only re-runs the
/// encoder when handed something different.
///
/// The encoder is passed per call rather than stored, so one memo can
/// serve any `(value, codec)` pairing — e.g. a full
/// `Payload` via `codec::encode` — as long as the same encoder is used
/// consistently for a given memo.
#[derive(Debug, Clone, Default)]
pub struct EncodeMemo<T> {
    last: Option<T>,
    buf: Vec<u8>,
}

impl<T: Clone + PartialEq> EncodeMemo<T> {
    /// An empty memo; the first [`bytes_for`](Self::bytes_for) call
    /// always encodes.
    pub fn new() -> Self {
        EncodeMemo {
            last: None,
            buf: Vec::new(),
        }
    }

    /// The encoded bytes of `value`, re-encoding via `encode` only if
    /// `value` differs from the previously memoized one. The returned
    /// slice is valid until the next call.
    pub fn bytes_for(&mut self, value: &T, encode: impl FnOnce(&T, &mut Vec<u8>)) -> &[u8] {
        if self.last.as_ref() != Some(value) {
            self.buf.clear();
            encode(value, &mut self.buf);
            self.last = Some(value.clone());
        }
        &self.buf
    }

    /// Drop the memoized value so the next call re-encodes
    /// unconditionally (e.g. after the encoder's behavior changed).
    pub fn invalidate(&mut self) {
        self.last = None;
    }

    /// Whether a value is currently memoized.
    pub fn is_primed(&self) -> bool {
        self.last.is_some()
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::{Average, Tagged};
    use std::cell::Cell;

    #[test]
    fn encodes_once_per_distinct_value() {
        let calls = Cell::new(0u32);
        let enc = |t: &Tagged<Average>, buf: &mut Vec<u8>| {
            calls.set(calls.get() + 1);
            encode_tagged(t, buf);
        };
        let mut memo = EncodeMemo::new();
        assert!(!memo.is_primed());

        let a = Tagged::<Average>::from_vote(1, 2.0, 64);
        let first = memo.bytes_for(&a, enc).to_vec();
        assert_eq!(calls.get(), 1);
        assert!(memo.is_primed());

        // same value again: no re-encode, same bytes
        let again = memo.bytes_for(&a, enc).to_vec();
        assert_eq!(calls.get(), 1);
        assert_eq!(first, again);

        // a different value re-encodes
        let mut b = a.clone();
        b.try_merge(&Tagged::from_vote(9, 4.0, 64)).unwrap();
        let changed = memo.bytes_for(&b, enc).to_vec();
        assert_eq!(calls.get(), 2);
        assert_ne!(first, changed);

        // and the memo tracks the *latest* value, not the first
        memo.bytes_for(&b, enc);
        assert_eq!(calls.get(), 2);
        memo.bytes_for(&a, enc);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn memoized_bytes_match_fresh_encoding() {
        let mut t = Tagged::<Average>::from_vote(3, 10.0, 128);
        t.try_merge(&Tagged::from_vote(77, 30.0, 128)).unwrap();
        let mut memo = EncodeMemo::new();
        let cached = memo.bytes_for(&t, encode_tagged).to_vec();
        let mut fresh = Vec::new();
        encode_tagged(&t, &mut fresh);
        assert_eq!(cached, fresh);
        // cached bytes decode back to the original value
        let back: Tagged<Average> = decode_tagged(&mut &cached[..]).unwrap();
        assert_eq!(back.vote_count(), t.vote_count());
        assert_eq!(back.aggregate(), t.aggregate());
    }

    #[test]
    fn invalidate_forces_reencode() {
        let calls = Cell::new(0u32);
        let enc = |t: &Tagged<Average>, buf: &mut Vec<u8>| {
            calls.set(calls.get() + 1);
            encode_tagged(t, buf);
        };
        let mut memo = EncodeMemo::new();
        let t = Tagged::<Average>::from_vote(0, 1.0, 64);
        memo.bytes_for(&t, enc);
        memo.invalidate();
        assert!(!memo.is_primed());
        memo.bytes_for(&t, enc);
        assert_eq!(calls.get(), 2);
    }
}

#[cfg(test)]
mod tagged_wire_tests {
    use super::*;
    use crate::{Average, Tagged};

    #[test]
    fn tagged_roundtrip() {
        let mut t = Tagged::<Average>::from_vote(3, 10.0, 256);
        t.try_merge(&Tagged::from_vote(200, 30.0, 256)).unwrap();
        let mut buf = Vec::new();
        encode_tagged(&t, &mut buf);
        let back: Tagged<Average> = decode_tagged(&mut &buf[..]).unwrap();
        assert_eq!(back.vote_count(), 2);
        assert!(back.votes().contains(3) && back.votes().contains(200));
        assert_eq!(back.aggregate().unwrap().summary(), 20.0);
    }

    #[test]
    fn empty_tagged_roundtrip() {
        let t = Tagged::<Average>::empty(64);
        let mut buf = Vec::new();
        encode_tagged(&t, &mut buf);
        let back: Tagged<Average> = decode_tagged(&mut &buf[..]).unwrap();
        assert!(back.aggregate().is_none());
        assert_eq!(back.vote_count(), 0);
    }

    #[test]
    fn mismatched_value_and_set_rejected() {
        // a tagged with a value but fabricated empty voteset decodes
        // fine; a voteset without a value is rejected by from_parts
        let mut buf = Vec::new();
        buf.put_u8(0); // no value
        buf.put_u16(1);
        buf.put_u64(0b1); // ...but one contributor
        let r: Result<Tagged<Average>, _> = decode_tagged(&mut &buf[..]);
        assert_eq!(r.unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn truncated_tagged_rejected() {
        let t = Tagged::<Average>::from_vote(0, 1.0, 64);
        let mut buf = Vec::new();
        encode_tagged(&t, &mut buf);
        for cut in 0..buf.len() {
            let mut short: &[u8] = &buf[..cut];
            let r: Result<Tagged<Average>, _> = decode_tagged(&mut short);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }
}
