//! The sharded event loop: one worker thread drives many members.
//!
//! A `Worker` owns a disjoint subset of the socket pool and, with it,
//! the shard of members homed on those sockets. Its loop is a batched
//! multiplexer:
//!
//! 1. **drain** — poll every owned socket non-blocking, demultiplex
//!    frames into per-member mailboxes ([`FrameIter`] rejects garbage
//!    as `DecodeError` values, counted not panicked);
//! 2. **deliver** — run `on_message` for every mailbox in member order,
//!    collecting gossip into the outbox;
//! 3. **tick** — once the worker's round deadline
//!    (`epoch + interval·(round+1)`) has passed, run `on_round` (plus
//!    termination, linger, and retry-on-silence bookkeeping) for every
//!    live member in member order, then advance the round. Every member
//!    starts at the shared epoch and advances one round per deadline,
//!    so one clock serves the whole shard;
//! 4. **flush** — coalesce queued frames per destination socket into
//!    few large datagrams, route them through the [`FaultInjector`],
//!    and put them on the wire;
//! 5. **sleep** until the deadline (bounded by a short poll cap so
//!    inbound traffic is never stalled a full round).
//!
//! Everything a member needs lives in its `MemberSlot`; everything a
//! worker reuses across wakeups (receive buffer, outbox, datagram
//! buffers, free list) is preallocated scratch, so the steady-state
//! loop does not allocate.

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gridagg_aggregate::wire::{EncodeMemo, WireAggregate};
use gridagg_core::hiergossip::HierGossip;
use gridagg_core::message::codec;
use gridagg_core::protocol::{AggregationProtocol, Ctx, Outbox};
use gridagg_core::Payload;
use gridagg_group::MemberId;
use gridagg_simnet::rng::DetRng;

use crate::endpoint::{Coalescer, FaultInjector, FrameIter};
use crate::{MemberOutcome, RuntimeConfig};

/// Cap on the frames a member keeps for retry-on-silence resends.
const RETRY_FRAME_CAP: usize = 16;

/// Wire bytes sent between inbound drains. Loopback `send_to` delivers
/// straight into the destination socket's kernel receive queue
/// (`rmem_default` ≈ 208 KB), so a worker that emits a multi-megabyte
/// round burst before reading again overflows those queues and the
/// kernel drops datagrams silently — loss far above the injected rate,
/// invisible to every counter here. Draining after every 64 KB of
/// sends keeps each receive queue shallow no matter the burst size.
const DRAIN_EVERY_BYTES: u64 = 64 * 1024;

/// Per-worker observability counters, merged into the
/// [`RuntimeReport`](crate::cluster::RuntimeReport) at teardown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Datagrams put on the wire.
    pub datagrams_sent: u64,
    /// Datagrams received off the wire.
    pub datagrams_recv: u64,
    /// Protocol frames sent (several frames coalesce into one datagram).
    pub frames_sent: u64,
    /// Protocol frames received and demultiplexed.
    pub frames_recv: u64,
    /// Datagrams that carried more than one coalesced frame.
    pub batched_sends: u64,
    /// Wire bytes sent (headers included).
    pub bytes_sent: u64,
    /// Event-loop iterations.
    pub wakeups: u64,
    /// High-water mark of any member mailbox depth.
    pub mailbox_high_water: u64,
    /// Retry-on-silence frame resends.
    pub retries: u64,
    /// Frames dropped by the injected loss model.
    pub injected_drops: u64,
    /// Datagrams held back and swapped by the reorder injector.
    pub reordered: u64,
    /// Frames or payloads rejected by the decoders (`DecodeError`s).
    pub decode_errors: u64,
    /// Well-formed frames addressed to members this worker does not own.
    pub stray_frames: u64,
}

impl WorkerStats {
    /// Accumulate `other` into `self` (counters add, high-waters max).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_recv += other.datagrams_recv;
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.batched_sends += other.batched_sends;
        self.bytes_sent += other.bytes_sent;
        self.wakeups += other.wakeups;
        self.mailbox_high_water = self.mailbox_high_water.max(other.mailbox_high_water);
        self.retries += other.retries;
        self.injected_drops += other.injected_drops;
        self.reordered += other.reordered;
        self.decode_errors += other.decode_errors;
        self.stray_frames += other.stray_frames;
    }
}

/// Everything one member needs inside its worker's shard.
struct MemberSlot<A> {
    id: MemberId,
    proto: HierGossip<A>,
    rng: DetRng,
    /// Memoized wire form of the last payload sent: gossip fans the
    /// same payload to several peers, so most sends reuse the bytes.
    memo: EncodeMemo<Payload<A>>,
    /// Inbound messages; non-empty exactly while the member is on the
    /// worker's dirty list.
    mailbox: VecDeque<(MemberId, Payload<A>)>,
    /// Round of the most recent inbound message (for retry-on-silence).
    last_rx_round: u64,
    /// Once the member has reported: the round whose tick retires it,
    /// after it has lingered to keep answering stragglers.
    retire_at: Option<u64>,
    retired: bool,
    /// Encoded frames of the most recent non-empty flush, kept for
    /// retry-on-silence. `(dst, payload bytes)`, entries reused.
    last_frames: Vec<(u32, Vec<u8>)>,
    last_frames_len: usize,
}

/// One shard-owning worker thread of a [`Cluster`](crate::cluster::Cluster).
pub(crate) struct Worker<A> {
    /// Owned sockets, each tagged with its pool index.
    pub(crate) sockets: Vec<(usize, UdpSocket)>,
    pub(crate) n_members: u32,
    /// `round_interval` arrives clamped by [`Cluster::launch`](crate::cluster::Cluster::launch).
    pub(crate) cfg: RuntimeConfig,
    pub(crate) epoch: Instant,
    pub(crate) done: mpsc::Sender<MemberOutcome<A>>,
    pub(crate) shutdown: Arc<AtomicBool>,

    slots: Vec<MemberSlot<A>>,
    /// Global member id -> local slot index (`u32::MAX` = not ours).
    local_of: Vec<u32>,
    /// Completed rounds, shared by every member of the shard.
    round: u64,
    live: usize,
    stats: WorkerStats,
    out: Coalescer,

    // Reused scratch:
    outbox: Outbox<A>,
    dirty: Vec<u32>,
    recv_buf: Vec<u8>,
}

impl<A: WireAggregate> Worker<A> {
    /// Assemble a worker over its sockets and the members homed there.
    /// `members` is the full per-member constructor output; the worker
    /// adopts the subset whose home socket it owns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        worker_id: usize,
        sockets: Vec<(usize, UdpSocket)>,
        addrs: Arc<Vec<SocketAddr>>,
        members: Vec<(MemberId, HierGossip<A>)>,
        n_members: u32,
        cfg: RuntimeConfig,
        epoch: Instant,
        root_rng: &DetRng,
        done: mpsc::Sender<MemberOutcome<A>>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        let mut local_of = vec![u32::MAX; n_members as usize];
        let mut slots = Vec::with_capacity(members.len());
        for (id, proto) in members {
            local_of[id.index()] = slots.len() as u32;
            slots.push(MemberSlot {
                id,
                proto,
                rng: root_rng.fork(0x7275_6E00 ^ u64::from(id.0)), // "run"
                memo: EncodeMemo::new(),
                mailbox: VecDeque::new(),
                last_rx_round: 0,
                retire_at: None,
                retired: false,
                last_frames: Vec::new(),
                last_frames_len: 0,
            });
        }
        let faults = FaultInjector::new(
            cfg.loss.clone(),
            cfg.reorder,
            root_rng.fork(0x6661_756C ^ worker_id as u64), // "faul"
        );
        Worker {
            sockets,
            n_members,
            out: Coalescer::new(faults, addrs, cfg.max_datagram),
            cfg,
            epoch,
            done,
            shutdown,
            live: slots.len(),
            slots,
            local_of,
            round: 0,
            stats: WorkerStats::default(),
            outbox: Outbox::new(),
            dirty: Vec::new(),
            recv_buf: vec![0u8; 64 * 1024],
        }
    }

    /// The worker's event loop; returns its counters at exit.
    pub(crate) fn run(mut self) -> WorkerStats {
        let poll_cap = (self.cfg.round_interval / 4)
            .clamp(Duration::from_micros(200), Duration::from_millis(2));
        loop {
            self.stats.wakeups += 1;
            self.drain_sockets();
            self.deliver_mailboxes();
            self.tick_due(Instant::now());
            self.flush_ready();
            if self.live == 0 || self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let until_deadline = self.deadline().saturating_duration_since(Instant::now());
            std::thread::sleep(until_deadline.min(poll_cap).max(Duration::from_micros(50)));
        }
        self.stats
    }

    /// End of the current round: `epoch + interval·(round+1)`.
    fn deadline(&self) -> Instant {
        self.epoch + self.cfg.round_interval * u32::try_from(self.round + 1).unwrap_or(u32::MAX)
    }

    /// Poll every owned socket dry, demultiplexing frames into member
    /// mailboxes.
    // lint:hot — the receive path: every datagram of a 10k-member
    // cluster crosses this loop; scratch is reused, nothing allocates.
    fn drain_sockets(&mut self) {
        for (_, socket) in &self.sockets {
            // `WouldBlock` (or any transient error) ends this socket's drain.
            while let Ok((len, _)) = socket.recv_from(&mut self.recv_buf) {
                self.stats.datagrams_recv += 1;
                for frame in FrameIter::new(&self.recv_buf[..len], self.n_members) {
                    let frame = match frame {
                        Ok(f) => f,
                        Err(_) => {
                            self.stats.decode_errors += 1;
                            break; // rest of the datagram is unusable
                        }
                    };
                    self.stats.frames_recv += 1;
                    let local = self.local_of[frame.dst as usize];
                    if local == u32::MAX {
                        self.stats.stray_frames += 1;
                        continue;
                    }
                    let mut bytes = frame.payload;
                    let payload = match codec::decode::<A, _>(&mut bytes) {
                        Ok(p) => p,
                        Err(_) => {
                            self.stats.decode_errors += 1;
                            continue;
                        }
                    };
                    let slot = &mut self.slots[local as usize];
                    if slot.retired {
                        continue;
                    }
                    if slot.mailbox.is_empty() {
                        self.dirty.push(local);
                    }
                    slot.mailbox.push_back((MemberId(frame.src), payload));
                    self.stats.mailbox_high_water =
                        self.stats.mailbox_high_water.max(slot.mailbox.len() as u64);
                }
            }
        }
    }

    /// Run `on_message` for every member with mail, in member order, and
    /// flush the gossip each delivery produced.
    fn deliver_mailboxes(&mut self) {
        self.dirty.sort_unstable();
        for i in 0..self.dirty.len() {
            let local = self.dirty[i] as usize;
            let slot = &mut self.slots[local];
            slot.last_rx_round = self.round;
            while let Some((from, payload)) = slot.mailbox.pop_front() {
                let mut ctx = Ctx::new(self.round, &mut slot.rng);
                slot.proto
                    .on_message(from, payload, &mut ctx, &mut self.outbox);
            }
            self.flush_outbox(local, false);
        }
        self.dirty.clear();
    }

    /// Once `now` has passed the round deadline, step every live member
    /// through the round in member order and advance the clock. A late
    /// worker catches up one round per call.
    fn tick_due(&mut self, now: Instant) {
        if now < self.deadline() {
            return;
        }
        let round = self.round;
        for local in 0..self.slots.len() {
            let slot = &mut self.slots[local];
            if slot.retired {
                continue;
            }
            if let Some(retire_at) = slot.retire_at {
                if round >= retire_at {
                    slot.retired = true;
                    self.live -= 1;
                }
                continue;
            }
            if !slot.proto.is_done() && round < self.cfg.max_rounds {
                let mut ctx = Ctx::new(round, &mut slot.rng);
                slot.proto.on_round(&mut ctx, &mut self.outbox);
                // Retry-on-silence backs off exponentially: resend
                // after r, 2r, 4r, ... silent rounds, not every
                // round — a congested cluster must not answer
                // silence with a retry storm.
                let silent_rounds = round.saturating_sub(slot.last_rx_round);
                let r = self.cfg.retry_silent_rounds;
                let silent = r > 0
                    && silent_rounds >= r
                    && silent_rounds.is_multiple_of(r)
                    && (silent_rounds / r).is_power_of_two();
                self.flush_outbox(local, silent);
            }
            let slot = &mut self.slots[local];
            if slot.proto.is_done() || round + 1 >= self.cfg.max_rounds {
                slot.retire_at = Some((round + 1).saturating_add(self.cfg.linger_rounds));
                let outcome = MemberOutcome {
                    member: slot.id,
                    estimate: slot.proto.estimate().cloned(),
                    rounds: round + 1,
                };
                // The collector may already have what it needs and
                // hung up; lingering members keep serving either way.
                let _ = self.done.send(outcome);
            }
        }
        self.round += 1;
    }

    /// Encode and coalesce one member's queued gossip; on `retry`,
    /// additionally resend the frames of its last non-empty flush.
    // lint:hot — every protocol message is encoded here.
    fn flush_outbox(&mut self, local: usize, retry: bool) {
        let slot = &mut self.slots[local];
        if !self.outbox.is_empty() {
            slot.last_frames_len = 0;
        }
        for (to, payload) in self.outbox.drain() {
            let bytes = slot
                .memo
                .bytes_for(&payload, |p, buf| codec::encode(p, buf));
            // Remember the frame for retry-on-silence before loss
            // injection: a retry resends what the protocol *tried* to
            // send, whether or not the channel ate it.
            if slot.last_frames_len < RETRY_FRAME_CAP {
                if slot.last_frames.len() == slot.last_frames_len {
                    // lint:allow(D009) one-time retry-cache growth, bounded by RETRY_FRAME_CAP
                    slot.last_frames.push((to.0, Vec::new()));
                }
                let entry = &mut slot.last_frames[slot.last_frames_len];
                entry.0 = to.0;
                entry.1.clear();
                entry.1.extend_from_slice(bytes);
                slot.last_frames_len += 1;
            }
            self.out
                .send(slot.id, to, self.round, bytes, &mut self.stats);
        }
        if retry && !slot.proto.is_done() {
            for (to, bytes) in &slot.last_frames[..slot.last_frames_len] {
                if self
                    .out
                    .send(slot.id, MemberId(*to), self.round, bytes, &mut self.stats)
                {
                    self.stats.retries += 1;
                }
            }
        }
    }

    /// Seal every pending datagram, sequence the batch through the
    /// reorder pocket, and put it on the wire.
    // lint:hot — one call per wakeup; sends the whole coalesced batch.
    fn flush_ready(&mut self) {
        self.out.seal_all(&mut self.stats);
        let mut wire = std::mem::take(&mut self.out.wire);
        let mut since_drain = 0u64;
        for (dest, bytes) in wire.drain(..) {
            self.stats.datagrams_sent += 1;
            self.stats.bytes_sent += bytes.len() as u64;
            since_drain += bytes.len() as u64;
            let _ = self.sockets[0].1.send_to(&bytes, dest);
            self.out.recycle(bytes);
            // Backpressure: reading our own sockets mid-burst stops the
            // kernel receive queues from overflowing (see
            // DRAIN_EVERY_BYTES). Received frames wait in mailboxes for
            // the next delivery pass.
            if since_drain >= DRAIN_EVERY_BYTES {
                since_drain = 0;
                self.drain_sockets();
            }
        }
        self.out.wire = wire;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointPool;
    use gridagg_aggregate::Average;
    use gridagg_core::hiergossip::HierGossipConfig;
    use gridagg_core::scope::ScopeIndex;
    use gridagg_group::view::View;
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};

    /// A one-socket worker over members `0..n`, epoch now, and the
    /// receiving end of its outcome channel.
    fn worker(
        n: u32,
        cfg: RuntimeConfig,
    ) -> (Worker<Average>, mpsc::Receiver<MemberOutcome<Average>>) {
        let h = Hierarchy::for_group(4, n as usize).expect("shape");
        let index = ScopeIndex::build(&View::complete(n as usize), &FairHashPlacement::new(h, 9));
        let proto =
            |i| HierGossip::new(MemberId(i), 1.0, index.clone(), HierGossipConfig::default());
        let members = (0..n).map(|i| (MemberId(i), proto(i))).collect();
        let pool = EndpointPool::bind(1).expect("bind");
        let (addrs, sockets) = (pool.addrs(), pool.split(1).remove(0));
        let (tx, rx) = mpsc::channel();
        let (rng, stop) = (DetRng::seeded(1), Arc::new(AtomicBool::new(false)));
        let w = Worker::new(
            0,
            sockets,
            addrs,
            members,
            n,
            cfg,
            Instant::now(),
            &rng,
            tx,
            stop,
        );
        (w, rx)
    }

    #[test]
    fn round_clock_steps_live_members_once_per_pass_in_order() {
        // Members report at the first round, then linger three more.
        let cfg = RuntimeConfig {
            max_rounds: 1,
            linger_rounds: 3,
            ..Default::default()
        };
        let interval = cfg.round_interval;
        let (mut w, rx) = worker(8, cfg);
        let epoch = w.epoch;
        w.tick_due(epoch + interval / 2);
        assert_eq!(w.round, 0, "a pass before the deadline advances nothing");
        w.slots[5].retired = true;
        w.live -= 1;
        // Ten rounds late: the past deadline fires on the next pass, and
        // each pass advances exactly one round.
        let late = epoch + interval * 10;
        for round in 1..=10 {
            w.tick_due(late);
            assert_eq!(w.round, round);
            assert_eq!(w.live, if round <= 4 { 7 } else { 0 }, "round {round}");
        }
        w.tick_due(late);
        assert_eq!(w.round, 10, "round 11 is not due yet");
        let reported: Vec<u32> = rx.try_iter().map(|o| o.member.0).collect();
        assert_eq!(
            reported,
            [0, 1, 2, 3, 4, 6, 7],
            "ascending, retired skipped"
        );
    }

    #[test]
    fn retries_count_only_frames_that_survive_loss() {
        for loss in [0.0, 1.0] {
            let (mut w, _rx) = worker(8, RuntimeConfig::default().with_uniform_loss(loss));
            w.tick_due(w.epoch + w.cfg.round_interval);
            let cached = w.slots[0].last_frames_len as u64;
            assert!(cached > 0 && !w.slots[0].proto.is_done());
            let before = w.stats;
            w.flush_outbox(0, true);
            let resent = if loss == 0.0 { cached } else { 0 };
            assert_eq!(w.stats.retries, resent);
            assert_eq!(w.stats.frames_sent - before.frames_sent, resent);
            assert_eq!(
                w.stats.injected_drops - before.injected_drops,
                cached - resent
            );
        }
    }

    #[test]
    fn worker_stats_merge_adds_and_maxes() {
        let mut a = WorkerStats {
            datagrams_sent: 3,
            mailbox_high_water: 5,
            ..Default::default()
        };
        let b = WorkerStats {
            datagrams_sent: 4,
            mailbox_high_water: 2,
            frames_recv: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.datagrams_sent, 7);
        assert_eq!(a.mailbox_high_water, 5);
        assert_eq!(a.frames_recv, 9);
    }
}
