//! Socket-pool endpoints and the datagram frame format.
//!
//! Thousands of members share a small pool of UDP sockets. A member's
//! **home socket** is `member % pool_size`; every datagram carries a
//! per-message frame header naming the destination *and* source member,
//! so one endpoint demultiplexes traffic for many members and replies
//! can be routed without per-member ports. Frames destined for members
//! homed on the same socket are **coalesced** into one datagram (up to
//! a configurable byte cap), which is what turns 10,000 members' gossip
//! into a few hundred `sendto` calls per round.
//!
//! ## Frame format
//!
//! ```text
//! datagram := frame*
//! frame    := dst_member: u32 | src_member: u32 | len: u16 | payload: [u8; len]
//! ```
//!
//! `payload` is the [`gridagg_core::message::codec`] encoding of one
//! protocol message. Malformed input at any layer — short header,
//! clipped payload, out-of-range member id — is reported as a
//! [`DecodeError`] value, never a panic: the receive path treats the
//! network as hostile exactly like the codec does.
//!
//! ## Fault injection
//!
//! [`FaultInjector`] drops and reorders traffic *at the socket
//! boundary*, reusing the simulator's [`LossModel`] implementations
//! (uniform loss, soft partitions, distance loss, mid-run switches), so
//! a loopback cluster exhibits the paper's loss regimes on real
//! sockets with the same models the figures were generated from.

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use gridagg_core::message::codec::DecodeError;
use gridagg_group::MemberId;
use gridagg_simnet::loss::LossModel;
use gridagg_simnet::rng::DetRng;

use crate::WorkerStats;

/// Bytes of the per-frame header: dst u32, src u32, len u16.
pub const FRAME_HEADER_LEN: usize = 10;

/// One demultiplexed frame inside a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Destination member.
    pub dst: u32,
    /// Sending member.
    pub src: u32,
    /// The codec-encoded payload bytes.
    pub payload: &'a [u8],
}

/// Append one frame to a datagram under construction.
pub fn push_frame(buf: &mut Vec<u8>, dst: u32, src: u32, payload: &[u8]) {
    debug_assert!(payload.len() <= u16::MAX as usize, "payload exceeds frame");
    buf.extend_from_slice(&dst.to_be_bytes());
    buf.extend_from_slice(&src.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Wire size of one frame carrying `payload_len` payload bytes.
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len
}

/// Iterator over the frames of one received datagram. Yields
/// `Err(DecodeError)` (and then stops) if the datagram is truncated,
/// clipped mid-frame, or names a member outside the group — the
/// demux header rejects garbage with an error value, never a panic.
#[derive(Debug)]
pub struct FrameIter<'a> {
    rest: &'a [u8],
    n_members: u32,
    failed: bool,
}

impl<'a> FrameIter<'a> {
    /// Iterate the frames of `datagram` for a group of `n_members`.
    pub fn new(datagram: &'a [u8], n_members: u32) -> Self {
        FrameIter {
            rest: datagram,
            n_members,
            failed: false,
        }
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<Frame<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < FRAME_HEADER_LEN {
            self.failed = true;
            return Some(Err(DecodeError::Truncated { variant: "frame" }));
        }
        let dst = u32::from_be_bytes(self.rest[0..4].try_into().expect("4 bytes"));
        let src = u32::from_be_bytes(self.rest[4..8].try_into().expect("4 bytes"));
        let len = u16::from_be_bytes(self.rest[8..10].try_into().expect("2 bytes")) as usize;
        if self.rest.len() < FRAME_HEADER_LEN + len {
            self.failed = true;
            return Some(Err(DecodeError::Truncated { variant: "frame" }));
        }
        if dst >= self.n_members || src >= self.n_members {
            self.failed = true;
            return Some(Err(DecodeError::Malformed { variant: "frame" }));
        }
        let payload = &self.rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        self.rest = &self.rest[FRAME_HEADER_LEN + len..];
        Some(Ok(Frame { dst, src, payload }))
    }
}

/// The shared pool of UDP sockets members multiplex over.
///
/// All sockets are bound to loopback ephemeral ports and set
/// non-blocking; workers own disjoint subsets and poll them. The
/// address table is shared read-only across workers.
#[derive(Debug)]
pub struct EndpointPool {
    sockets: Vec<UdpSocket>,
    addrs: Arc<Vec<SocketAddr>>,
}

impl EndpointPool {
    /// Bind `count` non-blocking loopback sockets on ephemeral ports.
    ///
    /// # Errors
    ///
    /// Returns any socket I/O error raised while binding.
    pub fn bind(count: usize) -> std::io::Result<Self> {
        let mut sockets = Vec::with_capacity(count);
        let mut addrs = Vec::with_capacity(count);
        for _ in 0..count {
            let socket = UdpSocket::bind(("127.0.0.1", 0))?;
            socket.set_nonblocking(true)?;
            addrs.push(socket.local_addr()?);
            sockets.push(socket);
        }
        Ok(EndpointPool {
            sockets,
            addrs: Arc::new(addrs),
        })
    }

    /// The shared address table (index = socket index).
    pub fn addrs(&self) -> Arc<Vec<SocketAddr>> {
        self.addrs.clone()
    }

    /// The home socket index of a member in a pool of `pool` sockets.
    pub fn home_socket(member: u32, pool: usize) -> usize {
        member as usize % pool.max(1)
    }

    /// Split the pool into per-worker socket sets: worker `w` owns the
    /// sockets whose index `% workers == w`, each tagged with its pool
    /// index. Consumes the pool; the address table survives via
    /// [`EndpointPool::addrs`].
    pub fn split(self, workers: usize) -> Vec<Vec<(usize, UdpSocket)>> {
        let workers = workers.max(1);
        let mut out: Vec<Vec<(usize, UdpSocket)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, s) in self.sockets.into_iter().enumerate() {
            out[i % workers].push((i, s));
        }
        out
    }
}

/// A worker's one frame-send path: loss-filters frames through its
/// [`FaultInjector`], coalesces the survivors per destination socket
/// into datagrams of at most `max_datagram` bytes, and sequences sealed
/// datagrams through the reorder pocket onto `wire`.
pub(crate) struct Coalescer {
    faults: FaultInjector,
    addrs: Arc<Vec<SocketAddr>>,
    max_datagram: usize,
    /// Per-destination-socket datagram under construction.
    bufs: Vec<Vec<u8>>,
    /// Frames coalesced into each `bufs` entry so far.
    frames: Vec<u32>,
    /// Sealed datagrams, in wire order: `(dest addr, bytes)`.
    pub(crate) wire: Vec<(SocketAddr, Vec<u8>)>,
    /// Recycled datagram buffers.
    spare: Vec<Vec<u8>>,
}

impl Coalescer {
    pub(crate) fn new(
        faults: FaultInjector,
        addrs: Arc<Vec<SocketAddr>>,
        max_datagram: usize,
    ) -> Self {
        Coalescer {
            faults,
            bufs: (0..addrs.len()).map(|_| Vec::new()).collect(),
            frames: vec![0; addrs.len()],
            addrs,
            max_datagram,
            wire: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Append the frame `src -> dst` to its destination socket's
    /// datagram, sealing that datagram first if the frame would
    /// overflow it. Returns `false` when injected loss ate the frame.
    // lint:hot — every protocol frame and every retry crosses here.
    pub(crate) fn send(
        &mut self,
        src: MemberId,
        dst: MemberId,
        round: u64,
        payload: &[u8],
        stats: &mut WorkerStats,
    ) -> bool {
        if self.faults.drop_frame(src, dst, round) {
            stats.injected_drops += 1;
            return false;
        }
        let sock = EndpointPool::home_socket(dst.0, self.bufs.len());
        if self.bufs[sock].len() + frame_len(payload.len()) > self.max_datagram {
            self.seal(sock, stats);
        }
        push_frame(&mut self.bufs[sock], dst.0, src.0, payload);
        self.frames[sock] += 1;
        stats.frames_sent += 1;
        true
    }

    /// Move socket `sock`'s datagram under construction, if any,
    /// through the reorder pocket onto `wire`.
    fn seal(&mut self, sock: usize, stats: &mut WorkerStats) {
        if self.bufs[sock].is_empty() {
            return;
        }
        let full = std::mem::replace(&mut self.bufs[sock], self.spare.pop().unwrap_or_default());
        if self.faults.sequence(self.addrs[sock], full, &mut self.wire) {
            stats.reordered += 1;
        }
        if self.frames[sock] > 1 {
            stats.batched_sends += 1;
        }
        self.frames[sock] = 0;
    }

    /// Seal every pending datagram and release the held-back one, so
    /// `wire` holds the whole batch.
    pub(crate) fn seal_all(&mut self, stats: &mut WorkerStats) {
        for sock in 0..self.bufs.len() {
            self.seal(sock, stats);
        }
        self.faults.flush_pocket(&mut self.wire);
    }

    /// Return a sent datagram's buffer for reuse.
    pub(crate) fn recycle(&mut self, mut bytes: Vec<u8>) {
        bytes.clear();
        self.spare.push(bytes);
    }
}

/// Channel-fault injection at the socket boundary: per-frame loss via a
/// simulator [`LossModel`] and per-datagram reordering via a one-deep
/// hold-back pocket. Each worker owns one injector with a private
/// deterministic stream, so member-local fault decisions are
/// reproducible per seed even though wall-clock interleavings are not.
#[derive(Debug)]
pub struct FaultInjector {
    loss: Option<Arc<dyn LossModel>>,
    reorder: f64,
    rng: DetRng,
    /// Held-back datagram (destination addr, bytes) awaiting a later
    /// send, realizing a pairwise reorder.
    pocket: Option<(SocketAddr, Vec<u8>)>,
}

impl FaultInjector {
    /// An injector with the given loss model (`None` = perfect), a
    /// per-datagram reorder probability, and a private random stream.
    pub fn new(loss: Option<Arc<dyn LossModel>>, reorder: f64, rng: DetRng) -> Self {
        FaultInjector {
            loss,
            reorder,
            pocket: None,
            rng,
        }
    }

    /// Whether the frame `from -> to` sent in `round` should be dropped.
    pub fn drop_frame(&mut self, from: MemberId, to: MemberId, round: u64) -> bool {
        match &self.loss {
            Some(model) => model.dropped(from, to, round, &mut self.rng),
            None => false,
        }
    }

    /// Route one outbound datagram through the reorder pocket: returns
    /// the datagram(s) to actually put on the wire now, in order. With
    /// probability `reorder` the datagram is held back and rides behind
    /// the *next* one (a pairwise swap, the classic UDP reorder shape).
    pub fn sequence(
        &mut self,
        dest: SocketAddr,
        bytes: Vec<u8>,
        out: &mut Vec<(SocketAddr, Vec<u8>)>,
    ) -> bool {
        if self.reorder > 0.0 && self.pocket.is_none() && self.rng.chance(self.reorder) {
            self.pocket = Some((dest, bytes));
            return true;
        }
        out.push((dest, bytes));
        if let Some(held) = self.pocket.take() {
            out.push(held);
        }
        false
    }

    /// Flush a held-back datagram at the end of a batch so nothing is
    /// delayed past one wakeup.
    pub fn flush_pocket(&mut self, out: &mut Vec<(SocketAddr, Vec<u8>)>) {
        if let Some(held) = self.pocket.take() {
            out.push(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_simnet::loss::UniformLoss;

    #[test]
    fn frame_header_constant_matches_format() {
        // dst u32 + src u32 + len u16
        assert_eq!(FRAME_HEADER_LEN, 4 + 4 + 2);
    }

    #[test]
    fn frames_roundtrip_through_a_datagram() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 3, 1, b"abc");
        push_frame(&mut dgram, 9, 2, b"");
        push_frame(&mut dgram, 0, 3, b"xyzw");
        let frames: Vec<Frame<'_>> = FrameIter::new(&dgram, 16)
            .collect::<Result<_, _>>()
            .expect("clean datagram");
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames[0],
            Frame {
                dst: 3,
                src: 1,
                payload: b"abc"
            }
        );
        assert_eq!(frames[1].payload, b"");
        assert_eq!(
            frames[2],
            Frame {
                dst: 0,
                src: 3,
                payload: b"xyzw"
            }
        );
    }

    #[test]
    fn truncated_header_rejected_with_decode_error() {
        for len in 1..FRAME_HEADER_LEN {
            let junk = vec![0u8; len];
            let r: Vec<_> = FrameIter::new(&junk, 8).collect();
            assert_eq!(r, vec![Err(DecodeError::Truncated { variant: "frame" })]);
        }
    }

    #[test]
    fn clipped_payload_rejected_with_decode_error() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 1, 0, b"hello");
        dgram.truncate(dgram.len() - 2);
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Truncated { variant: "frame" })]);
    }

    #[test]
    fn out_of_range_member_rejected_as_malformed() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 200, 0, b"x");
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Malformed { variant: "frame" })]);

        let mut dgram = Vec::new();
        push_frame(&mut dgram, 0, 200, b"x");
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r, vec![Err(DecodeError::Malformed { variant: "frame" })]);
    }

    #[test]
    fn error_stops_iteration_after_valid_prefix() {
        let mut dgram = Vec::new();
        push_frame(&mut dgram, 1, 0, b"ok");
        dgram.extend_from_slice(&[0xFF; 5]); // garbage tail
        let r: Vec<_> = FrameIter::new(&dgram, 8).collect();
        assert_eq!(r.len(), 2);
        assert!(r[0].is_ok());
        assert!(r[1].is_err());
    }

    #[test]
    fn empty_datagram_yields_nothing() {
        assert_eq!(FrameIter::new(&[], 8).count(), 0);
    }

    #[test]
    fn pool_binds_and_splits_round_robin() {
        let pool = EndpointPool::bind(5).expect("bind");
        assert_eq!(pool.addrs().len(), 5);
        let sets = pool.split(2);
        assert_eq!(sets.len(), 2);
        assert_eq!(
            sets[0].iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            [0, 2, 4]
        );
        assert_eq!(sets[1].iter().map(|(i, _)| *i).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(EndpointPool::home_socket(7, 5), 2);
    }

    #[test]
    fn injector_drops_with_the_loss_model() {
        let loss = Arc::new(UniformLoss::new(1.0).expect("probability"));
        let mut inj = FaultInjector::new(Some(loss), 0.0, DetRng::seeded(1));
        assert!(inj.drop_frame(MemberId(0), MemberId(1), 0));
        let mut none = FaultInjector::new(None, 0.0, DetRng::seeded(1));
        assert!(!none.drop_frame(MemberId(0), MemberId(1), 0));
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams() {
        let addr: SocketAddr = "127.0.0.1:9".parse().expect("addr");
        let mut inj = FaultInjector::new(None, 1.0, DetRng::seeded(7));
        let mut wire = Vec::new();
        let held = inj.sequence(addr, vec![1], &mut wire);
        assert!(held && wire.is_empty());
        inj.sequence(addr, vec![2], &mut wire);
        // the second datagram goes first, the held one follows
        assert_eq!(wire.iter().map(|(_, b)| b[0]).collect::<Vec<_>>(), [2, 1]);
        inj.flush_pocket(&mut wire);
        assert_eq!(wire.len(), 2, "pocket was already empty");
    }

    #[test]
    fn coalescer_seals_before_overflow_and_counts_only_batches() {
        let addrs = Arc::new(vec!["127.0.0.1:9".parse().expect("addr"); 2]);
        let faults = FaultInjector::new(None, 0.0, DetRng::seeded(1));
        let mut out = Coalescer::new(faults, addrs, 2 * frame_len(3));
        let mut stats = WorkerStats::default();
        for _ in 0..3 {
            assert!(out.send(MemberId(1), MemberId(4), 0, b"abc", &mut stats));
        }
        // The third frame would overflow, so the two before it were
        // sealed into one batched datagram first.
        assert_eq!(out.wire.len(), 1);
        assert_eq!(out.wire[0].1.len(), 2 * frame_len(3));
        assert_eq!(out.frames[0], 1);
        assert_eq!(stats.batched_sends, 1);
        // A single-frame datagram is sent but not counted as batched.
        out.seal_all(&mut stats);
        assert_eq!(out.wire.len(), 2);
        assert_eq!(stats.batched_sends, 1);
        assert_eq!(stats.frames_sent, 3);
    }
}
