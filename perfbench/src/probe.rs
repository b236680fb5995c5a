//! The traced run's protocol decorator.
//!
//! [`Timed`] wraps one member's protocol instance and times every
//! `on_message` and `on_round` call from outside, counting the sends
//! each call queued and the allocations it made on its thread. Totals
//! live in the decorator (handed back by `Simulation::run_returning`);
//! time is also filed in a shared [`Probe`] under (round, phase,
//! thread), which is what separates the engine's own serial time from
//! the protocol time on each round's busiest thread. Nothing here
//! allocates per call, so memory does not grow with message count.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use gridagg_aggregate::Tagged;
use gridagg_core::message::Payload;
use gridagg_core::protocol::{AggregationProtocol, Ctx, Outbox};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

use crate::alloc;
use crate::assemble::Agg;
use crate::stats::Histogram;

const PHASE_MESSAGE: u64 = 0;
const PHASE_ROUND: u64 = 1;

/// Histogram lanes: threads that run at the same time record into
/// different lanes, so they do not contend on one cache line.
const LANES: usize = 4;

#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicU64);

static NEXT_PROBE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (probe id, round-phase key, slot) of this thread's current slot.
    static SLOT: Cell<(u64, u64, usize)> = const { Cell::new((0, 0, 0)) };
}

/// Time filed per (round, phase, thread) for one run, plus the
/// `on_message` latency histogram.
#[derive(Debug)]
pub struct Probe {
    id: u64,
    next_slot: AtomicUsize,
    /// `2 * round + phase + 1` for each used slot (0 = unused).
    slot_key: Vec<AtomicU64>,
    slot_ns: Vec<PaddedCounter>,
    message_ns: Vec<Histogram>,
    sample_every: u64,
    delivered: AtomicU64,
}

impl Probe {
    /// A probe for a run of at most `max_rounds` rounds on at most
    /// `threads` engine threads. Every `sample_every`-th payload
    /// delivered anywhere in the group is kept by its receiver
    /// (`sample_every` = 0 keeps none), so the samples follow the
    /// run's traffic mix.
    pub fn new(max_rounds: u64, threads: usize, sample_every: u64) -> Arc<Self> {
        // every (round, phase) gets one slot per worker thread plus
        // one for the inline path on the calling thread
        let slots = (max_rounds as usize + 2) * 2 * (threads + 1) + 64;
        Arc::new(Probe {
            id: NEXT_PROBE.fetch_add(1, Relaxed),
            next_slot: AtomicUsize::new(0),
            slot_key: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            slot_ns: (0..slots).map(|_| PaddedCounter::default()).collect(),
            message_ns: (0..LANES).map(|_| Histogram::default()).collect(),
            sample_every,
            delivered: AtomicU64::new(0),
        })
    }

    #[inline]
    fn file(&self, round: Round, phase: u64, ns: u64) {
        let key = 2 * round + phase + 1;
        let slot = SLOT.with(|c| {
            let (probe, k, slot) = c.get();
            if probe == self.id && k == key {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Relaxed);
            assert!(
                slot < self.slot_key.len(),
                "probe slots exhausted: more (round, phase, thread) segments than sized for"
            );
            self.slot_key[slot].store(key, Relaxed);
            c.set((self.id, key, slot));
            slot
        });
        self.slot_ns[slot].0.fetch_add(ns, Relaxed);
        if phase == PHASE_MESSAGE {
            self.message_ns[slot % LANES].record(ns);
        }
    }

    /// Protocol time on the critical path: for each round and phase,
    /// the busiest thread's protocol time, summed over the run. Call
    /// after the run has ended.
    pub fn critical_path_s(&self) -> f64 {
        let used = self.next_slot.load(Relaxed).min(self.slot_key.len());
        let mut per_key: Vec<(u64, u64)> = (0..used)
            .map(|s| {
                (
                    self.slot_key[s].load(Relaxed),
                    self.slot_ns[s].0.load(Relaxed),
                )
            })
            .collect();
        per_key.sort_unstable();
        let mut total = 0u64;
        let mut i = 0;
        while i < per_key.len() {
            let key = per_key[i].0;
            let mut max = 0;
            while i < per_key.len() && per_key[i].0 == key {
                max = max.max(per_key[i].1);
                i += 1;
            }
            total += max;
        }
        total as f64 / 1e9
    }

    /// The `on_message` latency histogram, all lanes merged into `into`.
    pub fn merge_message_ns(&self, into: &Histogram) {
        for h in &self.message_ns {
            into.merge(h);
        }
    }
}

/// Per-member totals of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// `on_message` calls.
    pub message_calls: u64,
    /// Nanoseconds inside `on_message`.
    pub message_ns: u64,
    /// `on_round` calls.
    pub round_calls: u64,
    /// Nanoseconds inside `on_round`.
    pub round_ns: u64,
    /// Messages queued in the outbox by either call.
    pub sends: u64,
    /// Allocations made inside either call.
    pub allocs: u64,
}

impl Totals {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        self.message_calls += other.message_calls;
        self.message_ns += other.message_ns;
        self.round_calls += other.round_calls;
        self.round_ns += other.round_ns;
        self.sends += other.sends;
        self.allocs += other.allocs;
    }
}

/// A protocol instance timed from outside.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    probe: Arc<Probe>,
    /// This member's totals.
    pub totals: Totals,
    /// Payloads sampled from this member's deliveries.
    pub samples: Vec<Payload<Agg>>,
}

impl<P> Timed<P> {
    /// Wrap `inner`, filing its time in `probe`.
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        Timed {
            inner,
            probe,
            totals: Totals::default(),
            samples: Vec::new(),
        }
    }
}

impl<P: AggregationProtocol<Agg>> AggregationProtocol<Agg> for Timed<P> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<Agg>) {
        let round = ctx.round;
        let (queued, allocs) = (out.len(), alloc::thread_allocs());
        let t0 = Instant::now();
        self.inner.on_round(ctx, out);
        let ns = t0.elapsed().as_nanos() as u64;
        self.totals.round_calls += 1;
        self.totals.round_ns += ns;
        self.totals.sends += (out.len() - queued) as u64;
        self.totals.allocs += alloc::thread_allocs() - allocs;
        self.probe.file(round, PHASE_ROUND, ns);
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<Agg>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<Agg>,
    ) {
        let every = self.probe.sample_every;
        if every > 0 && self.probe.delivered.fetch_add(1, Relaxed) % every == every / 2 {
            self.samples.push(payload.clone());
        }
        let round = ctx.round;
        let (queued, allocs) = (out.len(), alloc::thread_allocs());
        let t0 = Instant::now();
        self.inner.on_message(from, payload, ctx, out);
        let ns = t0.elapsed().as_nanos() as u64;
        self.totals.message_calls += 1;
        self.totals.message_ns += ns;
        self.totals.sends += (out.len() - queued) as u64;
        self.totals.allocs += alloc::thread_allocs() - allocs;
        self.probe.file(round, PHASE_MESSAGE, ns);
    }

    fn estimate(&self) -> Option<&Tagged<Agg>> {
        self.inner.estimate()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn completed_at(&self) -> Option<Round> {
        self.inner.completed_at()
    }
}
