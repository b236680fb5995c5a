//! The **Hierarchical Gossiping** protocol (§6.3) — the paper's primary
//! contribution.
//!
//! Each member executes `log_K N` phases over the Grid Box Hierarchy:
//!
//! * **Phase 1** — gossip *individual votes* within the member's own grid
//!   box: each round, pick `M` random gossipees from the box and send one
//!   randomly selected known vote (with its owner's identifier). After
//!   the phase, apply the aggregate function to the known votes.
//! * **Phase `i` (≥ 2)** — gossip *child-subtree aggregates* within the
//!   member's height-`i` subtree: each round, pick `M` random gossipees
//!   from the subtree and send one randomly selected known aggregate of
//!   the `K` height-`(i−1)` child subtrees. A member learns a sibling
//!   subtree's aggregate when it first receives it.
//! * **Bump-up (step 2b)** — a member moves to phase `i+1` as soon as it
//!   has all `K` child aggregates, or after the per-phase timeout
//!   (`⌈C·log_M N⌉` rounds in the paper's simulations) — so members
//!   progress through phases *asynchronously*.
//! * **Final phase** — entering phase `log_K N + 1`, the member holds an
//!   estimate of the global aggregate and terminates.
//!
//! No leader election, no failure detection, no retransmission state:
//! robustness comes purely from gossip redundancy.
//!
//! Two orthogonal refinements are configurable (see [`Exchange`] and
//! DESIGN.md §6): whether a gossip message carries one value or the
//! member's whole (constant-size) known set for the phase, and the
//! reactive reply that makes a contact a two-way exchange. Partial
//! membership views ([`HierGossip::with_view`]) implement the §2
//! relaxation.

use std::sync::Arc;

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_hierarchy::{Addr, AddrSlab};
use gridagg_simnet::bitset::DenseBitSet;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::scope::ScopeIndex;
use crate::trace::TraceEvent;

/// Tunable parameters of Hierarchical Gossiping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierGossipConfig {
    /// Gossip fanout `M`: gossipees contacted per round (paper default 2).
    pub fanout: u32,
    /// Phase-length factor `C`: a phase lasts `⌈C·log_M N⌉` rounds
    /// (paper default 1.0).
    pub round_factor: f64,
    /// Explicit rounds-per-phase override (Figure 8 sweeps this
    /// directly); `None` derives it from `C`, `M`, `N`.
    pub rounds_per_phase: Option<u32>,
    /// Step 2(b): bump up early once all child aggregates are known
    /// (paper simulations enable this; the analysis disables it).
    pub early_bump: bool,
    /// Record a [`PhaseTrace`] entry at each phase end. Instrumentation
    /// only — recording never draws randomness or sends messages, so
    /// turning it off changes no protocol behavior — but the entries
    /// cost O(phases) heap per member, which the million-member bench
    /// cells cannot afford.
    pub phase_trace: bool,
    /// Gossip-exchange mode: what one message to a gossipee carries.
    pub exchange: Exchange,
}

/// What a gossip message carries.
///
/// The protocol description (§6.3) sends "one randomly selected known
/// vote" per gossipee ([`Exchange::One`]). The simulation section's
/// round efficiency ("attempts to *gossip with* M randomly selected
/// members"; incompleteness of 1e-4 at 5 rounds/phase in Figure 8) is
/// only reachable when an exchange shares the member's whole known set
/// for the current phase — which is still constant-size in `N`: at most
/// `K` child aggregates, or the votes of one grid box (expected `K`).
/// [`Exchange::Batch`] is therefore the default; the `ablation_bump`
/// bench quantifies the difference. See DESIGN.md for the full
/// discussion of this interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exchange {
    /// One randomly selected known value per message (paper-literal).
    One,
    /// The full known set for the current phase per message (paper-
    /// calibrated; still O(K) = O(1) bytes).
    #[default]
    Batch,
}

impl Default for HierGossipConfig {
    fn default() -> Self {
        HierGossipConfig {
            fanout: 2,
            round_factor: 1.0,
            rounds_per_phase: None,
            early_bump: true,
            phase_trace: true,
            exchange: Exchange::Batch,
        }
    }
}

impl HierGossipConfig {
    /// Rounds per phase for a group of `n`: the override if set, else
    /// `⌈C·log_M N⌉` (base `max(M, 2)` so `M = 1` stays finite).
    pub fn rounds_per_phase(&self, n: usize) -> u32 {
        if let Some(r) = self.rounds_per_phase {
            return r.max(1);
        }
        let base = (self.fanout.max(2)) as f64;
        let r = self.round_factor * (n.max(2) as f64).ln() / base.ln();
        (r.ceil() as u32).max(1)
    }
}

/// A lazily built, `Arc`-shared batch of child-subtree aggregates —
/// the body of a [`Payload::AggBatch`].
type SharedAggBatch<A> = Arc<Vec<(Addr, Arc<Tagged<A>>)>>;

/// One member's Hierarchical Gossiping state machine.
#[derive(Debug)]
pub struct HierGossip<A> {
    me: MemberId,
    n: usize,
    index: Arc<ScopeIndex>,
    cfg: HierGossipConfig,
    rounds_per_phase: u32,
    phases: usize,
    my_box: Addr,

    /// Known votes of members in my grid box: parallel vec for
    /// deterministic random selection (insertion order is part of the
    /// protocol's RNG-visible behavior) + a fixed-size bitset for cheap
    /// dedup, keyed by the member's dense position within the box slice
    /// (see [`ScopeIndex::position_in`]) — O(box size / 8) bytes instead
    /// of a sorted-vec set of raw ids.
    known_votes: Vec<(MemberId, f64)>,
    have_vote: DenseBitSet,

    /// Known subtree aggregates, keyed by subtree prefix (first
    /// reception wins; own computations overwrite own-scope keys).
    /// Values are `Arc`-shared with in-flight payloads: adopting a
    /// received aggregate or staging one for gossip never copies the
    /// contributor bitmap. Stored in a dense chain-local slab — every
    /// relevant prefix is a child of one of this member's ancestors (or
    /// the root), so lookups are O(1) slot arithmetic instead of a
    /// B-tree walk on the per-round hot path.
    aggs: AddrSlab<Arc<Tagged<A>>>,

    /// Current phase (1-based); `phases + 1` means terminated.
    phase: usize,
    rounds_in_phase: u32,

    /// Partial membership view: when set, gossipees are drawn only from
    /// `view ∩ scope` ("this can be relaxed in our final hierarchical
    /// gossiping solution", §2). `None` = complete view.
    my_view: Option<Vec<MemberId>>,

    /// Cached for the current phase:
    scope: Addr,
    my_pos_in_scope: Option<usize>,
    /// gossipee candidates this phase: `view ∩ scope` when a partial
    /// view is set (empty and unused otherwise)
    view_scope: Vec<MemberId>,
    children: Vec<Addr>,

    done_at: Option<Round>,
    estimate: Option<Arc<Tagged<A>>>,

    /// Arc-shared gossip bodies, built lazily and reused across sends
    /// and rounds until the underlying state changes (new vote, new
    /// aggregate, or phase transition). Fanning out to `M` gossipees is
    /// then `M` reference-count bumps instead of `M` deep clones.
    vote_batch: Option<Arc<Vec<(MemberId, f64)>>>,
    agg_batch: Option<SharedAggBatch<A>>,
    /// Scratch reused by gossipee sampling (indices) and One-mode
    /// candidate selection (known child subtrees).
    scratch_picks: Vec<usize>,
    scratch_children: Vec<Addr>,

    /// Per-phase completion trace: `(phase, components_known,
    /// components_expected, votes_covered)` recorded at each phase end.
    /// Cheap instrumentation used by diagnostics and tests.
    pub trace: Vec<PhaseTrace>,
}

/// One entry of [`HierGossip::trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTrace {
    /// The phase that just finished (1-based).
    pub phase: usize,
    /// Components (votes or child aggregates) known at phase end.
    pub known: usize,
    /// Components expected (box size or non-empty child count).
    pub expected: usize,
    /// Votes covered by the composed aggregate.
    pub votes: usize,
    /// Round at which the phase finished.
    pub at: Round,
}

impl<A: Aggregate> HierGossip<A> {
    /// Create the protocol instance for member `me` with vote `vote`.
    pub fn new(me: MemberId, vote: f64, index: Arc<ScopeIndex>, cfg: HierGossipConfig) -> Self {
        let n = index.len();
        let hierarchy = *index.hierarchy();
        let my_box = index.box_of(me);
        let my_pos = index.position_in(&my_box, me);
        let mut have_vote = DenseBitSet::with_capacity(index.count_in(&my_box));
        if let Some(pos) = my_pos {
            have_vote.insert(pos);
        }
        HierGossip {
            me,
            n,
            index,
            cfg,
            rounds_per_phase: cfg.rounds_per_phase(n),
            phases: hierarchy.phases(),
            my_box,
            known_votes: vec![(me, vote)],
            have_vote,
            aggs: AddrSlab::new(my_box),
            my_view: None,
            phase: 1,
            rounds_in_phase: 0,
            scope: my_box,
            my_pos_in_scope: my_pos,
            view_scope: Vec::new(),
            children: Vec::new(),
            done_at: None,
            estimate: None,
            vote_batch: None,
            agg_batch: None,
            scratch_picks: Vec::new(),
            scratch_children: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Restrict gossipee selection to a partial membership view (sorted
    /// and deduplicated internally). The member still *addresses* the
    /// full hierarchy — box addresses are computable from identifiers —
    /// but only contacts members it knows about, which is the paper's
    /// §2 view relaxation.
    pub fn with_view(mut self, mut view: Vec<MemberId>) -> Self {
        view.sort_unstable();
        view.dedup();
        self.my_view = Some(view);
        self.refresh_view_scope();
        self
    }

    /// Recompute `view ∩ scope` after a phase change.
    fn refresh_view_scope(&mut self) {
        let Some(view) = &self.my_view else {
            self.view_scope.clear();
            return;
        };
        let me = self.me;
        let scope = self.scope;
        self.view_scope = view
            .iter()
            .copied()
            .filter(|&m| m != me && scope.contains(&self.index.box_of(m)))
            .collect();
    }

    /// The current phase (for tests and instrumentation).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// The per-phase round budget in effect.
    pub fn rounds_per_phase(&self) -> u32 {
        self.rounds_per_phase
    }

    fn hierarchy(&self) -> gridagg_hierarchy::Hierarchy {
        *self.index.hierarchy()
    }

    /// Whether the aggregate of every nonempty child subtree of the
    /// current phase's scope is known (meaningful from phase 2 on).
    fn phase_complete(&self) -> bool {
        self.children.iter().all(|c| self.aggs.contains_key(c))
    }

    /// Votes covered by this member's current best aggregate: what it
    /// would report if forced to compose and terminate right now.
    fn current_coverage(&self) -> u64 {
        if let Some(est) = &self.estimate {
            return est.vote_count() as u64;
        }
        if self.phase == 1 {
            self.known_votes.len() as u64
        } else {
            // children are disjoint subtrees, so the sum is exact
            self.children
                .iter()
                .filter_map(|c| self.aggs.get(c))
                .map(|a| a.vote_count() as u64)
                .sum()
        }
    }

    /// The shared phase-1 gossip body: every known vote of my box.
    /// Rebuilt only after [`Self::learn_vote`] admits a new vote.
    fn vote_batch(&mut self) -> Arc<Vec<(MemberId, f64)>> {
        let known = &self.known_votes;
        self.vote_batch
            .get_or_insert_with(|| Arc::new(known.clone()))
            .clone()
    }

    /// The shared phase-≥2 gossip body: the known child aggregates of
    /// the current scope, in child order. Rebuilt only after a state
    /// change ([`Self::learn_agg`] or a phase transition).
    fn agg_batch(&mut self) -> SharedAggBatch<A> {
        let children = &self.children;
        let aggs = &self.aggs;
        self.agg_batch
            .get_or_insert_with(|| {
                Arc::new(
                    children
                        .iter()
                        .filter_map(|c| aggs.get(c).map(|a| (*c, a.clone())))
                        .collect(),
                )
            })
            .clone()
    }

    /// Close out the current phase: compose this scope's aggregate from
    /// the known components and advance.
    fn finish_phase(&mut self, round: Round) {
        // `for_scale` constructors: above the exact-tracking threshold
        // the contributor sets are counted, which is exact here because
        // `have_vote` dedups phase-1 votes and child subtrees are
        // disjoint by construction (see the voteset module docs).
        let composed = if self.phase == 1 {
            // deterministic fold order: by member id
            let mut votes = self.known_votes.clone();
            votes.sort_unstable_by_key(|(m, _)| *m);
            let mut acc = Tagged::<A>::empty_for_scale(self.n);
            for (m, v) in votes {
                acc.try_merge(&Tagged::from_vote_for_scale(m.index(), v, self.n))
                    .expect("votes are unique per member");
            }
            acc
        } else {
            let mut acc = Tagged::<A>::empty_for_scale(self.n);
            for child in &self.children {
                if let Some(a) = self.aggs.get(child) {
                    acc.try_merge(a)
                        .expect("child subtrees are disjoint by construction");
                }
            }
            acc
        };
        if self.cfg.phase_trace {
            let (known, expected) = if self.phase == 1 {
                (self.known_votes.len(), self.index.count_in(&self.my_box))
            } else {
                (
                    self.children
                        .iter()
                        .filter(|c| self.aggs.contains_key(c))
                        .count(),
                    self.children.len(),
                )
            };
            self.trace.push(PhaseTrace {
                phase: self.phase,
                known,
                expected,
                votes: composed.vote_count(),
                at: round,
            });
        }

        // Addr consistency: everything the composed aggregate claims to
        // cover must actually live inside the scope it is keyed under.
        // (Counted contributor sets carry no identity to check; their
        // disjointness rests on the structural dedup above.)
        #[cfg(feature = "strict-invariants")]
        if composed.votes().is_exact() {
            let scope = self.scope;
            let index = &self.index;
            assert!(
                composed
                    .votes()
                    .iter()
                    .all(|m| scope.contains(&index.box_of(MemberId(m as u32)))),
                "strict-invariants: phase-{} aggregate for {scope} covers a member \
                 outside its scope",
                self.phase
            );
        }

        // "M_j already knows about the aggregate value for its own
        // height-(i−1) subtree immediately after phase (i−1) concludes."
        // When a more complete evaluation of the same subtree was already
        // received from a faster peer, keep that one (see `upgrade`).
        Self::upgrade(&mut self.aggs, self.scope, &Arc::new(composed));

        // the scope (and possibly `aggs`) just changed: both cached
        // gossip bodies are stale
        self.vote_batch = None;
        self.agg_batch = None;

        self.phase += 1;
        self.rounds_in_phase = 0;
        // Phase monotonicity: phases only ever advance by one and never
        // run past the terminal `phases + 1` state.
        gridagg_aggregate::strict_assert!(
            self.phase <= self.phases + 1,
            "strict-invariants: phase {} advanced past termination ({} phases)",
            self.phase,
            self.phases
        );
        if self.phase > self.phases {
            let root = self.scope.prefix(0);
            self.estimate = self.aggs.get(&root).cloned();
            self.done_at = Some(round);
            return;
        }
        let hierarchy = self.hierarchy();
        self.scope = hierarchy.scope(&self.my_box, self.phase);
        self.my_pos_in_scope = self.index.position_in(&self.scope, self.me);
        self.children.clear();
        self.children
            .extend_from_slice(self.index.nonempty_children(&self.scope));
        self.refresh_view_scope();
    }

    /// One gossip emission: pick `M` gossipees in the current scope and
    /// send them the current-phase values (one random value or the full
    /// known set, per [`Exchange`]).
    // lint:hot — every member gossips every round; batches and pick
    // buffers are cached scratch, not rebuilt here.
    fn gossip(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        // The payload is built before gossipees are sampled (the RNG
        // draw order is part of the protocol's deterministic behavior).
        let payload = match (self.phase == 1, self.cfg.exchange) {
            (true, Exchange::One) => {
                let &(member, value) = ctx
                    .rng
                    .choose(&self.known_votes)
                    .expect("own vote always known");
                Payload::Vote { member, value }
            }
            (true, Exchange::Batch) => Payload::VoteBatch {
                votes: self.vote_batch(),
                reply: false,
            },
            (false, Exchange::One) => {
                self.scratch_children.clear();
                self.scratch_children.extend(
                    self.children
                        .iter()
                        .filter(|c| self.aggs.contains_key(c))
                        .copied(),
                );
                match ctx.rng.choose(&self.scratch_children) {
                    Some(&subtree) => Payload::Agg {
                        subtree,
                        agg: self
                            .aggs
                            .get(&subtree)
                            .expect("candidate filtered by presence")
                            .clone(), // lint:allow(D009) Arc refcount bump, no heap allocation
                    },
                    None => return, // cannot happen: own child present
                }
            }
            (false, Exchange::Batch) => Payload::AggBatch {
                aggs: self.agg_batch(),
                reply: false,
            },
        };
        if self.my_view.is_some() {
            // partial view: gossip only to known members of the scope
            if self.view_scope.is_empty() {
                return;
            }
            ctx.rng.sample_distinct_into(
                self.view_scope.len(),
                None,
                self.cfg.fanout as usize,
                &mut self.scratch_picks,
            );
            let view_scope = &self.view_scope;
            out.send_many(self.scratch_picks.iter().map(|&p| view_scope[p]), payload);
            return;
        }
        let scope_members = self.index.members_in(&self.scope);
        if scope_members.len() <= 1 {
            return;
        }
        ctx.rng.sample_distinct_into(
            scope_members.len(),
            self.my_pos_in_scope,
            self.cfg.fanout as usize,
            &mut self.scratch_picks,
        );
        out.send_many(
            self.scratch_picks.iter().map(|&p| scope_members[p]),
            payload,
        );
    }

    /// Store an aggregate for `key`, keeping whichever version covers
    /// more votes when two evaluations of the same subtree collide.
    ///
    /// Different members legitimately compute different vote subsets for
    /// the same subtree (their phases saw different gossip); all versions
    /// cover only that subtree's members, so *replacing* (never merging)
    /// preserves the no-double-counting invariant while letting complete
    /// evaluations displace partial ones as they spread — the same
    /// convergence rule Astrolabe-style systems use. Returns whether the
    /// slot changed; the stored `Arc` is shared with `agg`, never
    /// deep-copied.
    fn upgrade(aggs: &mut AddrSlab<Arc<Tagged<A>>>, key: Addr, agg: &Arc<Tagged<A>>) -> bool {
        match aggs.get_mut(&key) {
            Some(existing) if agg.vote_count() <= existing.vote_count() => false,
            Some(existing) => {
                *existing = agg.clone();
                true
            }
            None => {
                aggs.insert(key, agg.clone());
                true
            }
        }
    }

    /// Record a received vote. Only votes of the member's own grid box
    /// belong in its phase-1 aggregate (gossip never crosses boxes in
    /// phase 1, but guard the invariant anyway — `position_in` answers
    /// `None` for members of other boxes). Returns whether the vote was
    /// new.
    fn learn_vote(&mut self, member: MemberId, value: f64) -> bool {
        if let Some(pos) = self.index.position_in(&self.my_box, member) {
            if self.have_vote.insert(pos) {
                self.known_votes.push((member, value));
                self.vote_batch = None; // cached gossip body is stale
                return true;
            }
        }
        false
    }

    /// Record a received subtree aggregate if it is relevant. Returns
    /// whether the stored state changed (new subtree, or a more complete
    /// evaluation displacing a partial one). Adopting a received
    /// aggregate is a reference-count bump — the `Arc` is shared with
    /// the payload, never deep-copied.
    fn learn_agg(&mut self, subtree: Addr, agg: &Arc<Tagged<A>>) -> bool {
        if !self.relevant(&subtree) {
            return false;
        }
        // Addr consistency: a received subtree aggregate must only cover
        // members of that subtree, or adopting it would double-count
        // once sibling aggregates are composed. (Counted sets carry no
        // identity to check.)
        #[cfg(feature = "strict-invariants")]
        if agg.votes().is_exact() {
            let index = &self.index;
            assert!(
                agg.votes()
                    .iter()
                    .all(|m| subtree.contains(&index.box_of(MemberId(m as u32)))),
                "strict-invariants: received aggregate for {subtree} covers a member \
                 outside that subtree"
            );
        }
        let changed = Self::upgrade(&mut self.aggs, subtree, agg);
        if changed {
            self.agg_batch = None; // cached gossip body is stale
        }
        changed
    }

    /// Answer a push at the given level (`None` = phase-1 votes,
    /// `Some(len)` = aggregates with prefixes of length `len`) if we
    /// know strictly more values there than the push carried.
    fn reply_at_level(
        &mut self,
        from: MemberId,
        level: Option<usize>,
        carried: usize,
        out: &mut Outbox<A>,
    ) {
        match level {
            None => {
                // phase-1 votes: only meaningful within the same box
                if self.index.box_of(from) != self.my_box {
                    return;
                }
                if self.known_votes.len() > carried {
                    let votes = self.vote_batch();
                    out.send(from, Payload::VoteBatch { votes, reply: true });
                }
            }
            Some(len) => {
                if len == 0 || len > self.index.hierarchy().depth() {
                    return;
                }
                let scope = self.my_box.prefix(len - 1);
                // the sender gossips within its own scope at this level;
                // answer only if we share it
                if !scope.contains(&self.index.box_of(from)) {
                    return;
                }
                // The common case — the push is at our current level —
                // reuses the cached gossip body: `aggs` only ever holds
                // children with members, so filtering `children()` by
                // presence equals the cache built over
                // `nonempty_children` (same child order).
                let known = if scope == self.scope {
                    self.agg_batch()
                } else {
                    Arc::new(
                        scope
                            .children()
                            .filter_map(|c| self.aggs.get(&c).map(|a| (c, a.clone())))
                            .collect(),
                    )
                };
                if known.len() > carried {
                    out.send(
                        from,
                        Payload::AggBatch {
                            aggs: known,
                            reply: true,
                        },
                    );
                }
            }
        }
    }

    /// Whether an incoming aggregate for `prefix` is relevant to this
    /// member: it must name a child of one of this member's phase scopes
    /// — exactly the chain-local slab's slot condition, minus the root
    /// (the root aggregate is never gossiped).
    fn relevant(&self, prefix: &Addr) -> bool {
        !prefix.is_empty() && self.aggs.slot(prefix).is_some()
    }

    /// Narrate a phase transition that just happened: the phase entered
    /// (unless the protocol terminated — the engine emits `Terminate`)
    /// and the coverage carried into it. No-op on untraced runs.
    fn emit_phase_transition(&self, ctx: &mut Ctx<'_>) {
        if !ctx.is_traced() {
            return;
        }
        let me = self.me;
        let round = ctx.round;
        let votes = self.current_coverage();
        if self.done_at.is_none() {
            let phase = self.phase;
            ctx.emit(|| TraceEvent::PhaseEnter {
                member: me,
                round,
                phase,
            });
        }
        ctx.emit(|| TraceEvent::Coverage {
            member: me,
            round,
            votes,
        });
    }
}

impl<A: Aggregate> AggregationProtocol<A> for HierGossip<A> {
    // lint:hot — the per-round protocol step for every member.
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        // Step 2(b): bump up as soon as the phase is complete. Phase 1
        // always runs its full round budget, as in the paper.
        let early_ok = self.phase != 1 && self.cfg.early_bump;
        while self.done_at.is_none() && early_ok && self.phase_complete() {
            let me = self.me;
            let round = ctx.round;
            let leaving = self.phase;
            ctx.emit(|| TraceEvent::EarlyBump {
                member: me,
                round,
                phase: leaving,
            });
            self.finish_phase(ctx.round);
            self.emit_phase_transition(ctx);
        }
        if self.done_at.is_some() {
            return;
        }
        self.gossip(ctx, out);
        self.rounds_in_phase += 1;
        if self.rounds_in_phase >= self.rounds_per_phase {
            self.finish_phase(ctx.round);
            self.emit_phase_transition(ctx);
        }
    }

    fn on_message(
        &mut self,
        from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        out: &mut Outbox<A>,
    ) {
        // Is this a push we may answer? (Replies are never answered, so
        // exchanges always terminate.) Record the level and how many
        // values it carried before consuming the payload.
        let answer = match &payload {
            Payload::VoteBatch {
                votes,
                reply: false,
            } => Some((None, votes.len())),
            Payload::AggBatch { aggs, reply: false } => {
                aggs.first().map(|(a, _)| (Some(a.len()), aggs.len()))
            }
            // Replies and the non-batch shapes never get an answer.
            Payload::VoteBatch { reply: true, .. }
            | Payload::AggBatch { reply: true, .. }
            | Payload::Vote { .. }
            | Payload::Agg { .. }
            | Payload::Final { .. }
            | Payload::Flow { .. } => None,
        };

        // Learn the content. Terminated members keep serving replies
        // below but no longer update their (final) state.
        if self.done_at.is_none() {
            let changed = match &payload {
                Payload::Vote { member, value } => self.learn_vote(*member, *value),
                Payload::VoteBatch { votes, .. } => {
                    let mut any = false;
                    for &(member, value) in votes.iter() {
                        any |= self.learn_vote(member, value);
                    }
                    any
                }
                Payload::Agg { subtree, agg } => self.learn_agg(*subtree, agg),
                Payload::AggBatch { aggs, .. } => {
                    let mut any = false;
                    for (subtree, agg) in aggs.iter() {
                        any |= self.learn_agg(*subtree, agg);
                    }
                    any
                }
                Payload::Final { .. } | Payload::Flow { .. } => {
                    // Hierarchical gossip never emits Final, and Flow
                    // belongs to the Flow-Updating baseline; ignore.
                    false
                }
            };
            if changed && ctx.is_traced() {
                let me = self.me;
                let round = ctx.round;
                let votes = self.current_coverage();
                ctx.emit(|| TraceEvent::Coverage {
                    member: me,
                    round,
                    votes,
                });
            }
        }

        // "Gossiping with" is an exchange: if we know strictly more at
        // the push's level than it carried, answer with our known set.
        // This is what lets members that progressed (or terminated)
        // early keep rescuing stragglers — without it, phase laggards
        // starve once their peers bump up (see DESIGN.md).
        if let Some((level, carried)) = answer {
            self.reply_at_level(from, level, carried, out);
        }
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.estimate.as_deref()
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    fn completed_at(&self) -> Option<Round> {
        self.done_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Average;
    use gridagg_group::view::View;
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
    use gridagg_simnet::rng::DetRng;

    fn index(n: usize, k: u8) -> Arc<ScopeIndex> {
        let h = Hierarchy::for_group(k, n).unwrap();
        ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 7))
    }

    fn ctx_rng() -> DetRng {
        DetRng::seeded(1)
    }

    #[test]
    fn rounds_per_phase_formula() {
        let cfg = HierGossipConfig::default();
        // N=200, M=2, C=1 → ceil(log2 200) = 8
        assert_eq!(cfg.rounds_per_phase(200), 8);
        let fig8 = HierGossipConfig {
            rounds_per_phase: Some(3),
            ..Default::default()
        };
        assert_eq!(fig8.rounds_per_phase(200), 3);
        let c2 = HierGossipConfig {
            round_factor: 2.0,
            ..Default::default()
        };
        assert_eq!(c2.rounds_per_phase(200), 16);
    }

    #[test]
    fn starts_in_phase_one_with_own_vote() {
        let idx = index(16, 2);
        let p: HierGossip<Average> =
            HierGossip::new(MemberId(3), 42.0, idx, HierGossipConfig::default());
        assert_eq!(p.phase(), 1);
        assert!(!p.is_done());
        assert!(p.estimate().is_none());
        assert_eq!(p.known_votes.len(), 1);
    }

    #[test]
    fn solo_run_times_out_through_all_phases() {
        // Without any delivered messages, the member still terminates
        // after phases × rounds_per_phase rounds with its own vote only.
        let idx = index(16, 2);
        let phases = idx.hierarchy().phases();
        let cfg = HierGossipConfig::default();
        let rpp = cfg.rounds_per_phase(16);
        let mut p: HierGossip<Average> = HierGossip::new(MemberId(0), 5.0, idx, cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut round = 0;
        while !p.is_done() && round < 10_000 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            round += 1;
        }
        assert!(p.is_done());
        assert_eq!(round as u32, phases as u32 * rpp);
        let est = p.estimate().unwrap();
        assert_eq!(est.vote_count(), 1);
        assert_eq!(est.aggregate().unwrap().summary(), 5.0);
    }

    #[test]
    fn phase_one_gossip_targets_own_box() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..3 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
        }
        for (to, payload) in out.drain() {
            assert_eq!(idx.box_of(to), my_box, "phase-1 gossip left the box");
            assert!(matches!(
                payload,
                Payload::Vote { .. } | Payload::VoteBatch { .. }
            ));
        }
    }

    #[test]
    fn vote_received_joins_known_set_once() {
        let idx = index(64, 4);
        let me = MemberId(0);
        // find a box-mate
        let mate = *idx
            .members_in(&idx.box_of(me))
            .iter()
            .find(|&&m| m != me)
            .expect("box has a mate");
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx.clone(), HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let v = Payload::Vote {
            member: mate,
            value: 9.0,
        };
        p.on_message(mate, v.clone(), &mut ctx, &mut out);
        p.on_message(mate, v, &mut ctx, &mut out);
        assert_eq!(p.known_votes.len(), 2);
    }

    #[test]
    fn cross_box_vote_rejected() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let stranger = (0..64u32)
            .map(MemberId)
            .find(|&m| idx.box_of(m) != my_box)
            .expect("another box exists");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            stranger,
            Payload::Vote {
                member: stranger,
                value: 9.0,
            },
            &mut ctx,
            &mut out,
        );
        assert_eq!(p.known_votes.len(), 1);
    }

    #[test]
    fn irrelevant_aggregate_rejected() {
        let idx = index(64, 2); // depth 5
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        // a prefix whose parent does NOT contain my box
        let other_top = if my_box.digit(0) == 0 { 1 } else { 0 };
        let foreign = Addr::root(2)
            .unwrap()
            .child(other_top)
            .unwrap()
            .child(0)
            .unwrap();
        assert!(!foreign.parent().unwrap().contains(&my_box));
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            MemberId(1),
            Payload::Agg {
                subtree: foreign,
                agg: Arc::new(Tagged::from_vote(1, 1.0, 64)),
            },
            &mut ctx,
            &mut out,
        );
        assert!(p.aggs.is_empty());
    }

    #[test]
    fn early_bump_skips_waiting() {
        // Phase 1 runs its full round budget even with the whole box
        // known; once every sibling aggregate is known, one round
        // cascades phase 2 → phase 3 → done.
        let idx = index(8, 2); // depth 2, 4 boxes, 3 phases
        let me = MemberId(0);
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(3),
            ..Default::default()
        };
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx.clone(), cfg);
        let my_box = idx.box_of(me);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        for &m in idx.members_in(&my_box) {
            if m != me {
                let vote = Payload::Vote {
                    member: m,
                    value: 2.0,
                };
                p.on_message(m, vote, &mut ctx, &mut out);
            }
        }
        for round in 0..3 {
            assert_eq!(p.phase, 1, "phase 1 ended early at round {round}");
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert_eq!(p.phase, 2);
        // hand in the sibling aggregates of both levels
        let mut ctx = Ctx::new(2, &mut rng);
        let mut level = my_box;
        while let Some(parent) = level.parent() {
            for sibling in parent.children().filter(|c| *c != level) {
                let mut agg = Tagged::<Average>::empty(8);
                for &m in idx.members_in(&sibling) {
                    agg.try_merge(&Tagged::from_vote(m.index(), 3.0, 8))
                        .unwrap();
                }
                if agg.vote_count() > 0 {
                    let payload = Payload::Agg {
                        subtree: sibling,
                        agg: Arc::new(agg),
                    };
                    p.on_message(MemberId(1), payload, &mut ctx, &mut out);
                }
            }
            level = parent;
        }
        let mut ctx = Ctx::new(3, &mut rng);
        p.on_round(&mut ctx, &mut out);
        assert!(p.is_done(), "early bump should cascade to completion");
        let ends: Vec<(usize, Round)> = p.trace.iter().map(|t| (t.phase, t.at)).collect();
        assert_eq!(ends, vec![(1, 2), (2, 3), (3, 3)]);
        assert_eq!(p.estimate().unwrap().vote_count(), 8);
    }

    #[test]
    fn one_mode_sends_single_values() {
        let cfg = HierGossipConfig {
            exchange: Exchange::One,
            ..Default::default()
        };
        let idx = index(64, 4);
        let mut p: HierGossip<Average> = HierGossip::new(MemberId(0), 1.0, idx, cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..3 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
        }
        for (_, payload) in out.drain() {
            assert!(
                matches!(payload, Payload::Vote { .. }),
                "One mode must send single votes in phase 1"
            );
        }
    }

    #[test]
    fn batch_mode_sends_vote_batches() {
        let idx = index(64, 4);
        let mut p: HierGossip<Average> =
            HierGossip::new(MemberId(0), 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_round(&mut ctx, &mut out);
        for (_, payload) in out.drain() {
            match payload {
                Payload::VoteBatch { votes, reply } => {
                    assert_eq!(votes.len(), 1, "only own vote known at round 0");
                    assert!(!reply);
                }
                other => panic!("expected VoteBatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn push_from_behind_peer_gets_reply() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let mate = *idx
            .members_in(&my_box)
            .iter()
            .find(|&&m| m != me)
            .expect("box mate");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        // teach p a second vote so it knows strictly more than the push
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        p.on_message(
            mate,
            Payload::Vote {
                member: mate,
                value: 2.0,
            },
            &mut ctx,
            &mut out,
        );
        assert!(out.is_empty(), "single-value Vote pushes are not answered");
        // now a batch push carrying less than p knows triggers a reply
        p.on_message(
            mate,
            Payload::VoteBatch {
                votes: Arc::new(vec![(mate, 2.0)]),
                reply: false,
            },
            &mut ctx,
            &mut out,
        );
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1, "expected exactly one reply");
        assert_eq!(msgs[0].0, mate);
        match &msgs[0].1 {
            Payload::VoteBatch { votes, reply } => {
                assert!(*reply);
                assert_eq!(votes.len(), 2);
            }
            other => panic!("expected reply VoteBatch, got {other:?}"),
        }
    }

    #[test]
    fn replies_are_never_answered() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let mate = *idx
            .members_in(&my_box)
            .iter()
            .find(|&&m| m != me)
            .expect("box mate");
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        // a reply carrying *less* than we know must not trigger another
        // reply (termination of exchanges)
        p.on_message(
            mate,
            Payload::VoteBatch {
                votes: Arc::new(vec![]),
                reply: true,
            },
            &mut ctx,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn terminated_member_still_serves_replies() {
        let idx = index(4, 2);
        let me = MemberId(0);
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(1),
            ..Default::default()
        };
        let mut p: HierGossip<Average> = HierGossip::new(me, 1.0, idx.clone(), cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..10 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
        }
        assert!(p.is_done());
        // a straggler in the same box pushes an empty-ish batch; the
        // done member must answer with its known votes
        let mate = idx
            .members_in(&idx.box_of(me))
            .iter()
            .copied()
            .find(|&m| m != me);
        if let Some(mate) = mate {
            let mut ctx = Ctx::new(11, &mut rng);
            p.on_message(
                mate,
                Payload::VoteBatch {
                    votes: Arc::new(vec![]),
                    reply: false,
                },
                &mut ctx,
                &mut out,
            );
            let msgs: Vec<_> = out.drain().collect();
            assert_eq!(msgs.len(), 1, "done member must still serve state");
        }
    }

    #[test]
    fn partial_view_limits_gossip_targets() {
        let idx = index(64, 4);
        let me = MemberId(0);
        let my_box = idx.box_of(me);
        let known: Vec<MemberId> = idx
            .members_in(&my_box)
            .iter()
            .copied()
            .filter(|&m| m != me)
            .take(1)
            .collect();
        assert!(!known.is_empty(), "box has a mate");
        let allowed = known[0];
        let mut p: HierGossip<Average> =
            HierGossip::new(me, 1.0, idx, HierGossipConfig::default()).with_view(vec![me, allowed]);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..4 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            for (to, _) in out.drain() {
                assert_eq!(to, allowed, "gossip must stay inside the view");
            }
            if p.phase() > 1 {
                break;
            }
        }
    }

    #[test]
    fn trace_records_phase_progress() {
        let idx = index(16, 4);
        let phases = idx.hierarchy().phases();
        let mut p: HierGossip<Average> =
            HierGossip::new(MemberId(0), 1.0, idx, HierGossipConfig::default());
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        let mut round = 0;
        while !p.is_done() && round < 1000 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            out.drain().for_each(drop);
            round += 1;
        }
        assert_eq!(p.trace.len(), phases);
        for (i, t) in p.trace.iter().enumerate() {
            assert_eq!(t.phase, i + 1);
            assert!(t.known <= t.expected.max(t.known));
            assert!(t.votes >= 1);
        }
        // votes covered can only grow phase over phase
        for w in p.trace.windows(2) {
            assert!(w[1].votes >= w[0].votes);
        }
    }

    #[test]
    fn estimate_ignores_messages_after_done() {
        let idx = index(4, 2);
        let cfg = HierGossipConfig {
            rounds_per_phase: Some(1),
            ..Default::default()
        };
        let mut p: HierGossip<Average> = HierGossip::new(MemberId(0), 1.0, idx, cfg);
        let mut rng = ctx_rng();
        let mut out = Outbox::new();
        for round in 0..10 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
        }
        assert!(p.is_done());
        let before = p.estimate().unwrap().vote_count();
        let mut ctx = Ctx::new(11, &mut rng);
        p.on_message(
            MemberId(1),
            Payload::Vote {
                member: MemberId(1),
                value: 5.0,
            },
            &mut ctx,
            &mut out,
        );
        assert_eq!(p.estimate().unwrap().vote_count(), before);
    }
}
