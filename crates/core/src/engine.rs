//! The round-driven simulation engine.
//!
//! Wires a `Group`, a
//! [`SimNetwork`], a
//! [`FailureProcess`], and one
//! protocol instance per member; advances rounds until every surviving
//! member terminates (or a round cap is hit); and produces a
//! [`RunReport`].
//!
//! Round structure (paper §7 semantics):
//! 1. crash injection for this round,
//! 2. delivery of due messages to *alive* members,
//! 3. one protocol step (`on_round`) at each alive, unfinished member,
//! 4. submission of all emitted gossip to the lossy network.
//!
//! The protocol is "started simultaneously at all members" (round 0);
//! thereafter members proceed asynchronously.
//!
//! The round loop is **event-driven**: instead of scanning all `N`
//! members every round, it visits only members with pending work — the
//! union of *active* members (started, not yet done) and members whose
//! staggered start round has arrived — walked in ascending member-id
//! order, which is exactly the order the dense scan visited them. Done
//! and not-yet-due members cost nothing per round, which is what makes
//! million-member runs affordable once most of the group has finished.
//!
//! Every member step is split in two. A **step** (`Lane::step_message`,
//! `Lane::step_visit`) makes the one protocol call for one member and
//! returns a `StepRecord`; the member's gossip stays in the lane's
//! `Outbox` and its trace events in the lane's `EventBuf`. An **apply**
//! (`Books::apply_message`, `Books::apply_visit`) then does all of the
//! engine's bookkeeping for that record — the `Deliver`/`Start`/
//! `Terminate` events, the scheduling sets, the step count — and submits
//! the sends to the network. The serial driver applies each record right
//! after its step.
//!
//! With [`Simulation::with_engine_jobs`] a large round phase is
//! **forked** instead: the delivery worklist and the visit set are
//! sharded into contiguous member-id ranges over `split_at_mut` protocol
//! slices, and scoped threads step their shard, staging each record with
//! its sends. The join then replays the staged records through the same
//! apply functions *in exactly the serial order*, so the single shared
//! network RNG (loss and delay draws live inside `SimNetwork::send`)
//! consumes an identical stream and the whole run — trace bytes
//! included — is byte-identical at any thread count. See DESIGN.md §16.

use std::collections::{BTreeMap, VecDeque};
// lint:allow(D002) scoped fork-join over disjoint member ranges; the serial replay phase keeps every run byte-identical at any thread count (tests/engine_forkjoin.rs)
use std::thread::scope as thread_scope;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_group::failure::{FailureProcess, LivenessEvent};
use gridagg_group::MemberId;
use gridagg_simnet::bitset::DenseBitSet;
use gridagg_simnet::network::{Envelope, SendOutcome, SimNetwork};
use gridagg_simnet::rng::DetRng;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::metrics::{MemberOutcome, RunReport};
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::trace::{NoTrace, TraceEvent, TraceSink};

/// Hard ceiling on engine threads: the per-envelope shard-owner table
/// stores worker indices as `u8`, and beyond this width the fork-join
/// barriers cost more than the shards win.
pub const MAX_ENGINE_JOBS: usize = 64;

/// Below this many work items (deliveries or visits) a round phase runs
/// inline: spawning scoped threads costs more than stepping a handful
/// of members. Both paths are byte-identical, so this is purely a
/// latency heuristic.
const PAR_MIN_ITEMS: usize = 128;

/// Step-side event collector: the protocol-level trace events of a
/// step, emitted into the real sink by its apply. Pure instrumentation
/// — nothing reads it back during the step, so D008 purity holds by
/// construction.
#[derive(Debug, Default)]
struct EventBuf(Vec<TraceEvent>);

impl TraceSink for EventBuf {
    fn record(&mut self, event: TraceEvent) {
        self.0.push(event);
    }
}

/// One outgoing message: destination, payload, wire size.
type Outgoing<A> = (MemberId, Payload<A>, u32);

/// A step's sends, as its apply receives them: the serial driver's
/// outbox, or the sends a fork-join worker staged for the replay.
///
/// The sends are pushed into a closure rather than pulled through an
/// iterator argument: an outbox `Drain` passed by value into the apply
/// is kept on the stack and dropped out of line, about 5 ns on every
/// step, sends or not.
trait Sends<A> {
    /// Hand every send to `send` in emission order, consuming them.
    fn each(self, send: impl FnMut(MemberId, Payload<A>, u32));
}

impl<A: WireAggregate> Sends<A> for &mut Outbox<A> {
    // lint:hot — sizes each payload for the network as it leaves.
    #[inline(always)]
    fn each(self, mut send: impl FnMut(MemberId, Payload<A>, u32)) {
        for (to, payload) in self.drain() {
            let bytes = payload.wire_size();
            send(to, payload, bytes);
        }
    }
}

/// The next `count` sends in a shard's staging queue.
struct Staged<'a, A> {
    queue: &'a mut VecDeque<Outgoing<A>>,
    count: u32,
}

impl<A> Sends<A> for Staged<'_, A> {
    // lint:hot — the staged sends of one record, front of the queue.
    #[inline(always)]
    fn each(self, mut send: impl FnMut(MemberId, Payload<A>, u32)) {
        for _ in 0..self.count {
            let (to, payload, bytes) = self.queue.pop_front().expect("one staged send per count");
            send(to, payload, bytes);
        }
    }
}

/// Outcome of one member step (an `on_message` delivery or an
/// `on_round` visit): what its apply needs besides the sends and the
/// protocol's own trace events.
#[derive(Debug, Clone, Copy, Default)]
struct StepRecord {
    member: MemberId,
    /// Delivery only: sender and send round for the `Deliver` event.
    from: MemberId,
    sent_at: Round,
    /// Done state before the step; a visit to a done member makes no
    /// protocol call.
    was_done: bool,
    /// Done state after the step.
    now_done: bool,
    /// Completeness at termination (traced runs only; 0.0 otherwise).
    completeness: f64,
    /// The step's events in its lane's `EventBuf`, which the fork-join
    /// replay slices out, and its number of sends once staged.
    ev_start: u32,
    ev_len: u32,
    send_len: u32,
}

/// Step scratch: the gossip and trace events of the step in progress.
/// The serial driver owns one lane; each fork-join shard owns another.
#[derive(Debug)]
struct Lane<A> {
    out: Outbox<A>,
    events: EventBuf,
}

impl<A: WireAggregate> Lane<A> {
    fn new() -> Self {
        Lane {
            out: Outbox::new(),
            events: EventBuf::default(),
        }
    }

    // lint:hot — the engine's one `on_message` call site. The step and
    // apply functions are forced inline: out of line, they add 20–30% to
    // the engine's own per-step cost (measured with a no-op protocol).
    #[inline(always)]
    fn step_message<P: AggregationProtocol<A>, S: TraceSink>(
        &mut self,
        round: Round,
        n: usize,
        protocol: &mut P,
        stream: &mut DetRng,
        env: Envelope<Payload<A>>,
    ) -> StepRecord {
        let Envelope {
            from,
            to,
            sent_at,
            payload,
        } = env;
        let rec = StepRecord {
            member: to,
            from,
            sent_at,
            was_done: protocol.is_done(),
            ..StepRecord::default()
        };
        self.step::<P, S>(rec, round, n, protocol, stream, |p, ctx, out| {
            p.on_message(from, payload, ctx, out);
        })
    }

    // lint:hot — the engine's one `on_round` call site; a member that is
    // already done is not called.
    #[inline(always)]
    fn step_visit<P: AggregationProtocol<A>, S: TraceSink>(
        &mut self,
        round: Round,
        n: usize,
        member: MemberId,
        protocol: &mut P,
        stream: &mut DetRng,
    ) -> StepRecord {
        let done = protocol.is_done();
        let rec = StepRecord {
            member,
            was_done: done,
            now_done: done,
            ..StepRecord::default()
        };
        if done {
            return rec;
        }
        self.step::<P, S>(rec, round, n, protocol, stream, |p, ctx, out| {
            p.on_round(ctx, out);
        })
    }

    // lint:hot — one protocol call under a context traced into the lane.
    #[inline(always)]
    fn step<P: AggregationProtocol<A>, S: TraceSink>(
        &mut self,
        mut rec: StepRecord,
        round: Round,
        n: usize,
        protocol: &mut P,
        stream: &mut DetRng,
        call: impl FnOnce(&mut P, &mut Ctx<'_>, &mut Outbox<A>),
    ) -> StepRecord {
        rec.ev_start = self.events.0.len() as u32;
        {
            let mut ctx = if S::ENABLED {
                Ctx::traced(round, stream, &mut self.events)
            } else {
                Ctx::new(round, stream)
            };
            call(protocol, &mut ctx, &mut self.out);
        }
        rec.ev_len = self.events.0.len() as u32 - rec.ev_start;
        rec.now_done = protocol.is_done();
        if S::ENABLED && !rec.was_done && rec.now_done {
            rec.completeness = protocol.estimate().map_or(0.0, |est| est.completeness(n));
        }
        rec
    }
}

/// One fork-join worker's scratch, owned by `drive` and reused across
/// rounds so the steady state allocates nothing.
#[derive(Debug)]
struct ShardBuf<A> {
    /// Delivery worklist, enqueued in global envelope order.
    inbox: Vec<Envelope<Payload<A>>>,
    lane: Lane<A>,
    /// Staged steps and their sends, in step order; the replay pops
    /// them from the front.
    records: VecDeque<StepRecord>,
    sends: VecDeque<Outgoing<A>>,
}

impl<A: WireAggregate> ShardBuf<A> {
    fn new() -> Self {
        ShardBuf {
            inbox: Vec::new(),
            lane: Lane::new(),
            records: VecDeque::new(),
            sends: VecDeque::new(),
        }
    }

    // lint:hot — worker side of a fork-join delivery phase: steps on an
    // exclusively owned member range, staged for the ordered replay.
    fn deliver<P: AggregationProtocol<A>, S: TraceSink>(
        &mut self,
        round: Round,
        n: usize,
        base: usize,
        protocols: &mut [P],
        rngs: &mut [DetRng],
    ) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for env in inbox.drain(..) {
            let idx = env.to.index() - base;
            let rec =
                self.lane
                    .step_message::<P, S>(round, n, &mut protocols[idx], &mut rngs[idx], env);
            self.stage(rec);
        }
        self.inbox = inbox;
    }

    // lint:hot — worker side of a fork-join visit phase.
    fn visit<P: AggregationProtocol<A>, S: TraceSink>(
        &mut self,
        round: Round,
        n: usize,
        base: usize,
        ids: &[u32],
        protocols: &mut [P],
        rngs: &mut [DetRng],
    ) {
        for &id in ids {
            let idx = id as usize - base;
            let rec = self.lane.step_visit::<P, S>(
                round,
                n,
                MemberId(id),
                &mut protocols[idx],
                &mut rngs[idx],
            );
            self.stage(rec);
        }
    }

    // lint:hot — wire sizes are computed on the worker; the payloads
    // wait here for the replay.
    fn stage(&mut self, mut rec: StepRecord) {
        rec.send_len = self.lane.out.len() as u32;
        let sends = &mut self.sends;
        self.lane
            .out
            .each(|to, payload, bytes| sends.push_back((to, payload, bytes)));
        self.records.push_back(rec);
    }

    /// The next staged step, with its trace events and its sends.
    fn replay_next(&mut self) -> Option<(StepRecord, &[TraceEvent], Staged<'_, A>)> {
        let rec = self.records.pop_front()?;
        let events = &self.lane.events.0[rec.ev_start as usize..][..rec.ev_len as usize];
        let sends = Staged {
            queue: &mut self.sends,
            count: rec.send_len,
        };
        Some((rec, events, sends))
    }
}

/// The engine's books: the network and the scheduling state. Within a
/// round phase only the apply functions update them, one step record at
/// a time in serial order.
#[derive(Debug)]
struct Books<A> {
    net: SimNetwork<Payload<A>>,
    /// Members that started, officially or by a gossip wake-up.
    started: DenseBitSet,
    /// Started and not yet done: the members a visit can do anything
    /// for.
    active: DenseBitSet,
    /// Members waiting for their start round (or an earlier gossip
    /// wake-up).
    unstarted: DenseBitSet,
    /// Unstarted members whose start round has arrived; they start at
    /// their next alive visit.
    due: DenseBitSet,
    protocol_steps: u64,
    /// No member stepped this round and no alive member waits to start.
    all_settled: bool,
}

impl<A: WireAggregate> Books<A> {
    // lint:hot — bookkeeping for one delivery; a protocol message wakes
    // a member that has not started yet.
    #[inline(always)]
    fn apply_message<S: TraceSink>(
        &mut self,
        round: Round,
        rec: &StepRecord,
        events: &[TraceEvent],
        sends: impl Sends<A>,
        sink: &mut S,
    ) {
        let to = rec.member.index();
        if S::ENABLED {
            sink.record(TraceEvent::Deliver {
                from: rec.from,
                to: rec.member,
                round,
                sent_at: rec.sent_at,
            });
            if !self.started.contains(to) {
                sink.record(TraceEvent::Start {
                    member: rec.member,
                    round,
                });
            }
        }
        if self.started.insert(to) {
            self.unstarted.remove(to);
            self.due.remove(to);
        }
        self.settle(round, rec, events, sends, sink);
    }

    // lint:hot — bookkeeping for one visit to an alive member.
    #[inline(always)]
    fn apply_visit<S: TraceSink>(
        &mut self,
        round: Round,
        rec: &StepRecord,
        events: &[TraceEvent],
        sends: impl Sends<A>,
        sink: &mut S,
    ) {
        let i = rec.member.index();
        if self.unstarted.contains(i) {
            // due member starting at its official round
            self.unstarted.remove(i);
            self.due.remove(i);
            self.started.insert(i);
            if S::ENABLED {
                sink.record(TraceEvent::Start {
                    member: rec.member,
                    round,
                });
            }
        }
        if !rec.was_done {
            self.all_settled = false;
            self.protocol_steps += 1;
        }
        self.settle(round, rec, events, sends, sink);
    }

    // lint:hot — the tail both applies share: the active set, the
    // step's own events, termination, then its sends in order. This is
    // the only place a step's sends reach the network.
    #[inline(always)]
    fn settle<S: TraceSink>(
        &mut self,
        round: Round,
        rec: &StepRecord,
        events: &[TraceEvent],
        sends: impl Sends<A>,
        sink: &mut S,
    ) {
        let from = rec.member;
        // a message can finish a member (drop it from the visit set) or
        // re-arm a finished one (put it back)
        if rec.now_done {
            self.active.remove(from.index());
        } else {
            self.active.insert(from.index());
        }
        if S::ENABLED {
            for ev in events {
                sink.record(*ev);
            }
            if !rec.was_done && rec.now_done {
                sink.record(TraceEvent::Terminate {
                    member: from,
                    round,
                    completeness: rec.completeness,
                });
            }
        }
        sends.each(|to, payload, bytes| {
            let outcome = self.net.send(round, from, to, payload, bytes);
            if S::ENABLED {
                sink.record(TraceEvent::Send {
                    from,
                    to,
                    round,
                    bytes: u64::from(bytes),
                });
                match outcome {
                    SendOutcome::Queued { .. } => {}
                    SendOutcome::DroppedLoss => {
                        sink.record(TraceEvent::DropLoss { from, to, round });
                    }
                    SendOutcome::DroppedBandwidth => {
                        sink.record(TraceEvent::DropBandwidth { from, to, round });
                    }
                }
            }
        });
    }
}

/// The assembled simulation for one run.
#[derive(Debug)]
pub struct Simulation<A, P> {
    protocols: Vec<P>,
    failure: FailureProcess,
    rngs: Vec<DetRng>,
    true_value: f64,
    max_rounds: Round,
    start_rounds: Option<Vec<Round>>,
    books: Books<A>,
    engine_jobs: usize,
}

impl<A, P> Simulation<A, P>
where
    A: WireAggregate + Send + Sync,
    P: AggregationProtocol<A> + Send,
{
    /// Assemble a simulation.
    ///
    /// `protocols[i]` is member `i`'s instance; `seed` drives the
    /// per-member random streams (network and failure processes carry
    /// their own forks of the same run seed); `true_value` is the ground
    /// truth the report compares estimates against.
    ///
    /// # Panics
    ///
    /// Panics if `protocols` is empty.
    pub fn new(
        net: SimNetwork<Payload<A>>,
        protocols: Vec<P>,
        failure: FailureProcess,
        seed: u64,
        true_value: f64,
        max_rounds: Round,
    ) -> Self {
        assert!(!protocols.is_empty(), "simulation needs members");
        let n = protocols.len();
        let mut net = net;
        net.reserve_nodes(n);
        let root = DetRng::seeded(seed).fork(0x6D62_7273); // "mbrs"
        let rngs = (0..n).map(|i| root.fork(i as u64)).collect();
        Simulation {
            protocols,
            failure,
            rngs,
            true_value,
            max_rounds,
            start_rounds: None,
            books: Books {
                net,
                started: (0..n).collect(),
                active: DenseBitSet::with_capacity(n),
                unstarted: DenseBitSet::with_capacity(n),
                due: DenseBitSet::with_capacity(n),
                protocol_steps: 0,
                all_settled: false,
            },
            engine_jobs: 1,
        }
    }

    /// Step members on `jobs` scoped threads inside each round
    /// (fork-join over contiguous member-id shards with a serial
    /// ordered replay). The run — report, proxy counters, and every
    /// trace byte — is identical at any value; `1` (the default) keeps
    /// the fully serial loop. Values are clamped to
    /// `1..=`[`MAX_ENGINE_JOBS`].
    #[must_use]
    pub fn with_engine_jobs(mut self, jobs: usize) -> Self {
        self.engine_jobs = jobs.clamp(1, MAX_ENGINE_JOBS);
        self
    }

    /// Stagger protocol initiation: member `i` starts at
    /// `start_rounds[i]` — *or earlier*, as soon as the first protocol
    /// message reaches it (gossip-triggered initiation).
    ///
    /// This models the paper's relaxation of the "initiated
    /// simultaneously at all members" assumption: "our results apply in
    /// cases such as a multicast being used for protocol initiation" —
    /// a multicast reaches members at slightly different times, and the
    /// gossip itself wakes up anyone the multicast missed.
    ///
    /// # Panics
    ///
    /// Panics if `start_rounds.len()` differs from the member count.
    pub fn with_start_rounds(mut self, start_rounds: Vec<Round>) -> Self {
        assert_eq!(
            start_rounds.len(),
            self.protocols.len(),
            "one start round per member"
        );
        self.books.started = start_rounds
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == 0)
            .map(|(i, _)| i)
            .collect();
        self.start_rounds = Some(start_rounds);
        self
    }

    /// Run to completion (all alive members done) or to the round cap,
    /// consuming the simulation and returning the report.
    ///
    /// Equivalent to [`Simulation::run_with`] with tracing disabled.
    pub fn run(self) -> RunReport {
        self.run_with(&mut NoTrace)
    }

    /// Run, narrating the run to `sink` as [`TraceEvent`]s.
    ///
    /// With the default [`NoTrace`] sink every emission site compiles
    /// away (`S::ENABLED` is `const false`), so the traced and untraced
    /// paths execute identical protocol and network decisions: tracing
    /// never perturbs a run, it only observes it.
    pub fn run_with<S: TraceSink>(mut self, sink: &mut S) -> RunReport {
        self.drive(sink)
    }

    /// Run like [`Simulation::run`], but hand the protocol instances
    /// back alongside the report. The continuous aggregation service
    /// ([`crate::continuous`]) uses this to carry long-lived protocol
    /// state (e.g. Flow-Updating flows) across epoch boundaries.
    pub fn run_returning(mut self) -> (RunReport, Vec<P>) {
        let report = self.drive(&mut NoTrace);
        (report, self.protocols)
    }

    // lint:hot — the engine round loop: N=10^6 members visit this code
    // every round, so allocations must be per-run scratch, not per-round.
    fn drive<S: TraceSink>(&mut self, sink: &mut S) -> RunReport {
        let n = self.protocols.len();
        let mut lane = Lane::new();
        // Delivery scratch, reused every round: `drain_into` refills it
        // in place, so the steady state is zero per-round allocation.
        let mut delivery = Vec::new(); // lint:allow(D009) per-run scratch, refilled in place each round
        let mut round: Round = 0;

        // Event-driven scheduling state (see `Books`): a bucket queue
        // keyed by start round feeds `due` without per-round scans.
        let books = &mut self.books;
        let mut start_buckets: BTreeMap<Round, Vec<u32>> = BTreeMap::new();
        for (i, protocol) in self.protocols.iter().enumerate() {
            if !books.started.contains(i) {
                books.unstarted.insert(i);
            } else if !protocol.is_done() {
                books.active.insert(i);
            }
        }
        if let Some(starts) = &self.start_rounds {
            for (i, &r) in starts.iter().enumerate() {
                if books.unstarted.contains(i) {
                    start_buckets.entry(r).or_default().push(i as u32);
                }
            }
        }
        if S::ENABLED {
            for i in books.started.iter() {
                sink.record(TraceEvent::Start {
                    member: MemberId(i as u32),
                    round: 0,
                });
            }
        }
        // Visit scratch: the ascending alive members of active ∪ due,
        // rebuilt each round so the sets can be edited while visiting.
        let mut visit: Vec<u32> = Vec::new(); // lint:allow(D009) per-run scratch, reused across rounds

        // Fork-join scratch: one buffer set per engine thread plus the
        // per-envelope shard-owner table, allocated once per run and
        // reused every round.
        let jobs = self.engine_jobs.min(n);
        let mut shards: Vec<ShardBuf<A>> = (0..if jobs > 1 { jobs } else { 0 })
            .map(|_| ShardBuf::new())
            .collect();
        let mut owner: Vec<u8> = Vec::new(); // lint:allow(D009) per-run scratch, refilled in place each round

        loop {
            // 1. crash injection
            let liveness = self.failure.step(round);
            if S::ENABLED {
                for ev in &liveness {
                    sink.record(match *ev {
                        LivenessEvent::Crashed(member) => TraceEvent::Crash { member, round },
                        LivenessEvent::Recovered(member) => TraceEvent::Recover { member, round },
                    });
                }
            }

            // members whose official start round arrives become due;
            // they actually start at their next alive visit below
            while start_buckets
                .first_key_value()
                .is_some_and(|(&r, _)| r <= round)
            {
                let (_, ids) = start_buckets.pop_first().expect("checked non-empty");
                for id in ids {
                    // skip anyone gossip already woke up
                    if self.books.unstarted.contains(id as usize) {
                        self.books.due.insert(id as usize);
                    }
                }
            }

            // 2. deliver due messages to alive members
            self.books.net.drain_into(round, &mut delivery);
            if jobs > 1 && delivery.len() >= PAR_MIN_ITEMS {
                self.deliver_parallel(round, &mut delivery, &mut shards, &mut owner, sink);
            } else {
                for env in delivery.drain(..) {
                    if !self.failure.is_alive(env.to) {
                        continue;
                    }
                    let to = env.to.index();
                    let rec = lane.step_message::<P, S>(
                        round,
                        n,
                        &mut self.protocols[to],
                        &mut self.rngs[to],
                        env,
                    );
                    let events = &lane.events.0;
                    self.books
                        .apply_message(round, &rec, events, &mut lane.out, sink);
                    lane.events.0.clear();
                }
            }

            // 3.+4. step alive, started, unfinished members — visiting
            // only the union of active and due-to-start members, in
            // ascending id order (the same order the dense scan used).
            // Dead members are skipped but stay active/due, so they
            // resume on recovery.
            let (books, failure) = (&mut self.books, &self.failure);
            // an alive member still waiting for its start round keeps
            // the run open, even though nothing visits it yet
            books.all_settled = !books
                .unstarted
                .iter()
                .any(|i| !books.due.contains(i) && failure.is_alive(MemberId(i as u32)));
            visit.clear();
            visit.extend(
                books
                    .active
                    .iter_union(&books.due)
                    .map(|i| i as u32)
                    .filter(|&i| failure.is_alive(MemberId(i))),
            );
            if jobs > 1 && visit.len() >= PAR_MIN_ITEMS {
                self.visit_parallel(round, &visit, &mut shards, sink);
            } else {
                for &iv in &visit {
                    let i = iv as usize;
                    let rec = lane.step_visit::<P, S>(
                        round,
                        n,
                        MemberId(iv),
                        &mut self.protocols[i],
                        &mut self.rngs[i],
                    );
                    let events = &lane.events.0;
                    self.books
                        .apply_visit(round, &rec, events, &mut lane.out, sink);
                    lane.events.0.clear();
                }
            }

            round += 1;
            if self.books.all_settled || round >= self.max_rounds {
                break;
            }
        }

        let outcomes = self
            .protocols
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if let (true, Some(est)) = (p.is_done(), p.estimate()) {
                    MemberOutcome::Completed {
                        completeness: est.completeness(n),
                        value: est
                            .aggregate()
                            .map_or(f64::NAN, gridagg_aggregate::Aggregate::summary),
                        at: p.completed_at().unwrap_or(round),
                    }
                } else if !self.failure.is_alive(MemberId(i as u32)) {
                    MemberOutcome::Crashed
                } else {
                    MemberOutcome::TimedOut
                }
            })
            .collect();

        RunReport {
            n,
            rounds: round,
            outcomes,
            true_value: self.true_value,
            net: self.books.net.stats().clone(), // lint:allow(D009) once at end of run, building the report
            protocol_steps: self.books.protocol_steps,
        }
    }

    /// Fork-join delivery phase: partition this round's envelopes by
    /// destination shard, step each shard's deliveries on a scoped
    /// thread, then apply the staged records in the original envelope
    /// order.
    // lint:hot — fork-join delivery path; all scratch lives in `shards`.
    fn deliver_parallel<S: TraceSink>(
        &mut self,
        round: Round,
        delivery: &mut Vec<Envelope<Payload<A>>>,
        shards: &mut [ShardBuf<A>],
        owner: &mut Vec<u8>,
        sink: &mut S,
    ) {
        let Simulation {
            protocols,
            rngs,
            failure,
            books,
            ..
        } = self;
        let (n, jobs) = (protocols.len(), shards.len());
        owner.clear();
        for shard in shards.iter_mut() {
            shard.lane.events.0.clear();
        }
        // Partition by destination shard; dead destinations drop here,
        // exactly where the serial loop drops them.
        for env in delivery.drain(..) {
            if failure.is_alive(env.to) {
                let w = env.to.index() * jobs / n;
                owner.push(w as u8);
                shards[w].inbox.push(env);
            }
        }

        // Fork: each worker exclusively owns a contiguous protocol/rng
        // range (`split_at_mut`), so no shared state is touched.
        thread_scope(|scope| {
            let mut prot_rest: &mut [P] = protocols;
            let mut rng_rest: &mut [DetRng] = rngs;
            let mut lo = 0usize;
            for (w, buf) in shards.iter_mut().enumerate() {
                let hi = ((w + 1) * n).div_ceil(jobs);
                let (prots, pr) = prot_rest.split_at_mut(hi - lo);
                let (prngs, rr) = rng_rest.split_at_mut(hi - lo);
                prot_rest = pr;
                rng_rest = rr;
                if !buf.inbox.is_empty() {
                    let base = lo;
                    scope.spawn(move || buf.deliver::<P, S>(round, n, base, prots, prngs));
                }
                lo = hi;
            }
        });

        // Join: apply in original envelope order.
        for &w in owner.iter() {
            let (rec, events, sends) = shards[w as usize]
                .replay_next()
                .expect("one staged step per owned envelope");
            books.apply_message(round, &rec, events, sends, sink);
        }
    }

    /// Fork-join visit phase: chunk the ascending visit set into
    /// contiguous ranges, step each chunk on a scoped thread, then apply
    /// the staged records in visit order.
    // lint:hot — fork-join visit path; all scratch lives in `shards`.
    fn visit_parallel<S: TraceSink>(
        &mut self,
        round: Round,
        visit: &[u32],
        shards: &mut [ShardBuf<A>],
        sink: &mut S,
    ) {
        let Simulation {
            protocols,
            rngs,
            books,
            ..
        } = self;
        let (n, jobs, v) = (protocols.len(), shards.len(), visit.len());
        // Chunk the ascending visit set evenly by count; each chunk's
        // id span yields the `split_at_mut` boundary for its worker.
        thread_scope(|scope| {
            let mut prot_rest: &mut [P] = protocols;
            let mut rng_rest: &mut [DetRng] = rngs;
            let mut lo = 0usize;
            for (c, buf) in shards.iter_mut().enumerate() {
                buf.lane.events.0.clear();
                let ids = &visit[c * v / jobs..(c + 1) * v / jobs];
                // the protocol slice runs to just past the chunk's last
                // id; the final chunk takes the rest of the group
                let hi = if c + 1 == jobs {
                    n
                } else {
                    *ids.last().expect("chunks are non-empty when v >= jobs") as usize + 1
                };
                let (prots, pr) = prot_rest.split_at_mut(hi - lo);
                let (prngs, rr) = rng_rest.split_at_mut(hi - lo);
                prot_rest = pr;
                rng_rest = rr;
                let base = lo;
                scope.spawn(move || buf.visit::<P, S>(round, n, base, ids, prots, prngs));
                lo = hi;
            }
        });

        // Join: apply in visit (ascending member-id) order.
        for buf in shards.iter_mut() {
            while let Some((rec, events, sends)) = buf.replay_next() {
                books.apply_visit(round, &rec, events, sends, sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hiergossip::{HierGossip, HierGossipConfig};
    use crate::scope::ScopeIndex;
    use gridagg_aggregate::Average;
    use gridagg_group::failure::FailureModel;
    use gridagg_group::view::View;
    use gridagg_group::{GroupBuilder, VoteDistribution};
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
    use gridagg_simnet::network::NetworkConfig;

    fn hier_sim(n: usize, seed: u64) -> Simulation<Average, HierGossip<Average>> {
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(seed)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
        let protocols = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let net = SimNetwork::new(NetworkConfig::default(), seed);
        let failure = FailureProcess::new(FailureModel::None, n, seed);
        let truth = (n as f64 - 1.0) / 2.0; // mean of 0..n-1
        Simulation::new(net, protocols, failure, seed, truth, 10_000)
    }

    #[test]
    fn perfect_network_reaches_full_completeness() {
        let report = hier_sim(64, 3).run();
        assert_eq!(report.completed(), 64);
        assert_eq!(report.crashed(), 0);
        // near-1.0: a rare straggler race can shave a subtree (see
        // runner tests); this seed completes fully
        assert!(report.mean_completeness().unwrap() > 0.99);
        assert!(report.mean_value_error().unwrap() < 1e-2);
    }

    #[test]
    fn run_is_deterministic() {
        let a = hier_sim(50, 9).run();
        let b = hier_sim(50, 9).run();
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.net.sent, b.net.sent);
        assert_eq!(a.mean_completeness(), b.mean_completeness());
    }

    #[test]
    fn different_seeds_differ() {
        let a = hier_sim(50, 1).run();
        let b = hier_sim(50, 2).run();
        assert_ne!(a.net.sent, b.net.sent);
    }

    #[test]
    fn message_complexity_near_n_log2_n() {
        // messages ≈ N · phases · rounds/phase · M; for N=64, K=4, M=2:
        // phases ≈ 3, rpp ≈ 6 ⇒ ≈ 2300; assert the right order.
        let report = hier_sim(64, 5).run();
        let msgs = report.messages() as f64;
        assert!(msgs > 500.0 && msgs < 10_000.0, "messages {msgs}");
    }

    #[test]
    fn time_complexity_is_polylog() {
        let r64 = hier_sim(64, 5).run();
        let r512 = hier_sim(512, 5).run();
        // rounds grow far slower than N: 8× group → < 3× rounds
        assert!(
            (r512.rounds as f64) < 3.0 * r64.rounds as f64,
            "{} vs {}",
            r512.rounds,
            r64.rounds
        );
    }

    #[test]
    fn crash_recovery_members_resume_and_complete() {
        // §2 model: members "arbitrarily suffer crash failures and then
        // recover". A recovered member resumes with its state intact
        // (crash-recovery with stable storage) and can still finish.
        let n = 64;
        let seed = 17;
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(seed)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
        let protocols: Vec<HierGossip<Average>> = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let net = SimNetwork::new(NetworkConfig::default(), seed);
        let failure = FailureProcess::new(
            gridagg_group::failure::FailureModel::PerRoundWithRecovery { pf: 0.05, pr: 0.5 },
            n,
            seed,
        );
        let report = Simulation::new(net, protocols, failure, seed, 31.5, 10_000).run();
        // with fast recovery nearly everyone completes, despite ~5%/round churn
        assert!(
            report.completed() > n * 3 / 4,
            "only {} of {n} completed under churn",
            report.completed()
        );
        assert!(report.mean_completeness().unwrap() > 0.5);
    }

    #[test]
    fn staggered_start_still_completes() {
        // members start over a 5-round window (multicast initiation);
        // gossip wakes the rest; completeness stays high
        let n = 64;
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(8)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 8));
        let protocols: Vec<HierGossip<Average>> = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let net = SimNetwork::new(NetworkConfig::default(), 8);
        let failure = FailureProcess::new(FailureModel::None, n, 8);
        let starts: Vec<Round> = (0..n as u64).map(|i| i % 5).collect();
        let report = Simulation::new(net, protocols, failure, 8, 31.5, 10_000)
            .with_start_rounds(starts)
            .run();
        assert_eq!(report.completed(), n);
        assert!(report.mean_completeness().unwrap() > 0.95);
    }

    #[test]
    fn late_member_woken_by_gossip() {
        // one member officially starts absurdly late, but phase-1
        // gossip from its box mates wakes it almost immediately
        let n = 16;
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(4)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 4));
        let protocols: Vec<HierGossip<Average>> = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let net = SimNetwork::new(NetworkConfig::default(), 4);
        let failure = FailureProcess::new(FailureModel::None, n, 4);
        let mut starts = vec![0 as Round; n];
        starts[3] = 1_000_000; // would never start on its own
        let report = Simulation::new(net, protocols, failure, 4, 7.5, 10_000)
            .with_start_rounds(starts)
            .run();
        // the sleeper finished long before its official start round
        assert!(report.rounds < 1000, "ran {} rounds", report.rounds);
        assert_eq!(report.completed(), n);
    }

    #[test]
    fn event_loop_visits_only_members_with_pending_work() {
        // 100% loss so gossip never wakes the sleeper, and a round cap
        // below the schedule end so nobody finishes: the 7 started
        // members are visited every round, the never-started member 7
        // exactly never. The dense scan would have touched all 8.
        let n = 8;
        let group = GroupBuilder::new(n)
            .votes(VoteDistribution::Index)
            .seed(2)
            .build();
        let h = Hierarchy::for_group(4, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 2));
        let protocols: Vec<HierGossip<Average>> = group
            .members()
            .iter()
            .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
            .collect();
        let net = SimNetwork::new(
            NetworkConfig::default()
                .with_loss(gridagg_simnet::loss::UniformLoss::new(1.0).unwrap()),
            2,
        );
        let failure = FailureProcess::new(FailureModel::None, n, 2);
        let mut starts = vec![0 as Round; n];
        starts[7] = 1_000_000; // due far beyond the cap: never visited
        let report = Simulation::new(net, protocols, failure, 2, 3.5, 5)
            .with_start_rounds(starts)
            .run();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.protocol_steps, 7 * 5);
    }

    #[test]
    fn done_members_drop_out_of_the_round_loop() {
        // on a perfect network every member finishes at the schedule
        // end, and the settling round that detects termination visits
        // nobody — so steps stay strictly below the dense-scan n*rounds
        let report = hier_sim(64, 3).run();
        assert!(report.protocol_steps > 0);
        assert!(
            report.protocol_steps < 64 * report.rounds,
            "steps {} vs dense {}",
            report.protocol_steps,
            64 * report.rounds
        );
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        // Tracing must observe, never perturb: same seed, same report.
        let untraced = hier_sim(50, 9).run();
        let mut trace = crate::trace::RunTrace::for_group(50);
        let traced = hier_sim(50, 9).run_with(&mut trace);
        assert_eq!(untraced.rounds, traced.rounds);
        assert_eq!(untraced.net, traced.net);
        assert_eq!(untraced.outcomes, traced.outcomes);
        assert!(!trace.is_empty(), "traced run must record events");
    }

    #[test]
    fn trace_narrates_the_run_consistently() {
        let n = 64;
        let mut trace = crate::trace::RunTrace::for_group(n);
        let report = hier_sim(n, 3).run_with(&mut trace);

        // network accounting and the trace agree message-for-message
        let hist = trace.per_round_messages();
        let sent: u64 = hist.iter().map(|h| h.sent).sum();
        let delivered: u64 = hist.iter().map(|h| h.delivered).sum();
        assert_eq!(sent, report.net.sent);
        assert_eq!(delivered, report.net.delivered);

        // every member started in round 0 and terminated
        let terms = trace.terminations();
        assert_eq!(terms.iter().filter(|t| t.is_some()).count(), n);

        // phase timelines exist and are monotone in round
        for tl in trace.phase_timelines() {
            assert!(!tl.is_empty(), "hiergossip members change phases");
            for w in tl.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
        }

        // incompleteness falls from near 1 to the report's terminal value
        let curve = trace.incompleteness_over_time();
        assert_eq!(curve.len() as Round, report.rounds);
        assert!(curve[0] > 0.9, "round 0: members only know themselves");
        let last = *curve.last().unwrap();
        assert!(
            last <= report.mean_incompleteness() + 1e-9,
            "curve must reach terminal incompleteness: {last}"
        );
    }

    #[test]
    fn fork_join_run_is_byte_identical_to_serial() {
        // N=256 keeps rounds above PAR_MIN_ITEMS, so the parallel
        // phases genuinely engage; the whole trace stream — every
        // event, in order — and the report must match the serial run
        // at any thread count.
        let mut serial_trace = crate::trace::RunTrace::for_group(256);
        let serial = hier_sim(256, 7).run_with(&mut serial_trace);
        for jobs in [2, 4] {
            let mut par_trace = crate::trace::RunTrace::for_group(256);
            let par = hier_sim(256, 7)
                .with_engine_jobs(jobs)
                .run_with(&mut par_trace);
            assert_eq!(serial.rounds, par.rounds, "jobs={jobs}");
            assert_eq!(serial.net, par.net, "jobs={jobs}");
            assert_eq!(serial.outcomes, par.outcomes, "jobs={jobs}");
            assert_eq!(serial.protocol_steps, par.protocol_steps, "jobs={jobs}");
            assert_eq!(
                serial_trace.events, par_trace.events,
                "jobs={jobs}: full trace streams must be identical"
            );
        }
    }

    #[test]
    fn fork_join_untraced_matches_serial_untraced() {
        // The untraced (NoTrace) path skips all event buffering in the
        // workers; proxy counters must still be identical.
        let serial = hier_sim(300, 11).run();
        let par = hier_sim(300, 11).with_engine_jobs(3).run();
        assert_eq!(serial.rounds, par.rounds);
        assert_eq!(serial.net, par.net);
        assert_eq!(serial.outcomes, par.outcomes);
        assert_eq!(serial.protocol_steps, par.protocol_steps);
    }

    #[test]
    fn fork_join_handles_churn_and_staggered_starts() {
        // Dead members and due-to-start members exercise the replay's
        // bookkeeping branches (dead skip, gossip wake-up, official
        // start) — outcomes must match the serial engine exactly.
        let build = || {
            let n = 256;
            let seed = 17;
            let group = GroupBuilder::new(n)
                .votes(VoteDistribution::Index)
                .seed(seed)
                .build();
            let h = Hierarchy::for_group(4, n).unwrap();
            let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
            let protocols: Vec<HierGossip<Average>> = group
                .members()
                .iter()
                .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
                .collect();
            let net = SimNetwork::new(
                NetworkConfig::default()
                    .with_loss(gridagg_simnet::loss::UniformLoss::new(0.25).unwrap()),
                seed,
            );
            let failure = FailureProcess::new(
                FailureModel::PerRoundWithRecovery { pf: 0.02, pr: 0.5 },
                n,
                seed,
            );
            let starts: Vec<Round> = (0..n as u64).map(|i| i % 7).collect();
            Simulation::new(net, protocols, failure, seed, 127.5, 10_000).with_start_rounds(starts)
        };
        let serial = build().run();
        let par = build().with_engine_jobs(4).run();
        assert_eq!(serial.rounds, par.rounds);
        assert_eq!(serial.net, par.net);
        assert_eq!(serial.outcomes, par.outcomes);
        assert_eq!(serial.protocol_steps, par.protocol_steps);
    }

    #[test]
    fn engine_jobs_clamped_to_limits() {
        let sim = hier_sim(8, 1).with_engine_jobs(0);
        assert_eq!(sim.engine_jobs, 1);
        let sim = hier_sim(8, 1).with_engine_jobs(10_000);
        assert_eq!(sim.engine_jobs, MAX_ENGINE_JOBS);
    }

    #[test]
    #[should_panic(expected = "one start round per member")]
    fn start_rounds_length_checked() {
        let sim = hier_sim(8, 1);
        let _ = sim.with_start_rounds(vec![0; 3]);
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_simulation_panics() {
        let net: SimNetwork<Payload<Average>> = SimNetwork::new(NetworkConfig::default(), 1);
        let failure = FailureProcess::new(FailureModel::None, 0, 1);
        let _: Simulation<Average, HierGossip<Average>> =
            Simulation::new(net, Vec::new(), failure, 1, 0.0, 10);
    }
}
