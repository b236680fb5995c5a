//! Hierarchical leader election on the Grid Box Hierarchy (§6.2).
//!
//! "Each member is initially a leader of its own height-0 subtree. In
//! phase i, a leader is elected for each subtree of height i from the
//! leaders of its child subtrees … the algorithm finally terminates …
//! with the entire tree electing one leader who has the aggregate
//! function estimate for the entire group, and subsequently disseminates
//! this to the group via the tree."
//!
//! Leaders are elected *deterministically* from the (assumed consistent)
//! view: the `K′` members of a subtree with the smallest well-known hash
//! of their identifier. Because the hash is prefix-independent, a
//! parent-committee member is always also a committee member of its own
//! child subtree, so the election needs no extra communication — exactly
//! the §6.2 setting where "views \[are\] consistent and complete at all
//! members". There is **no failure detection and no re-election**: a
//! crashed subtree leader (committee) silently loses its subtree's
//! votes, which is the fragility the paper demonstrates and Figure-A
//! (`ablation_leader`) reproduces.
//!
//! The schedule is synchronous: `phases` upward phases of `phase_len`
//! rounds each (members retransmit within a phase to tolerate loss),
//! then `depth + 1` downward dissemination steps of `phase_len` rounds.

use std::collections::BTreeSet;
use std::sync::Arc;

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_hierarchy::{Addr, AddrInterner, AddrSlab};
use gridagg_simnet::rng::splitmix64;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::scope::ScopeIndex;
use crate::trace::TraceEvent;

/// Parameters of the leader-election baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderElectionConfig {
    /// Committee size `K′` per subtree (1 = single leader).
    pub committee: usize,
    /// Rounds per phase/step (retransmissions within a phase).
    pub phase_len: u32,
    /// Salt of the well-known election hash.
    pub salt: u64,
}

impl Default for LeaderElectionConfig {
    fn default() -> Self {
        LeaderElectionConfig {
            committee: 1,
            phase_len: 2,
            salt: 0xE1EC,
        }
    }
}

/// Election hash: prefix-independent so committee chains nest.
fn election_key(salt: u64, id: MemberId) -> u64 {
    splitmix64(salt ^ splitmix64(id.0 as u64 ^ 0x1EAD))
}

/// Precomputed committees for every subtree prefix, shared by all
/// members of a run (every member could compute this locally from its
/// view; sharing it is a simulation-level optimisation).
#[derive(Debug)]
pub struct LeaderDirectory {
    /// Committees indexed by interned prefix id (empty Vec = empty
    /// subtree). Dense: the prefix universe is fixed and small.
    committees: Vec<Vec<MemberId>>,
    interner: AddrInterner,
}

impl LeaderDirectory {
    /// Build the directory bottom-up from the scope index.
    pub fn build(index: &ScopeIndex, cfg: &LeaderElectionConfig) -> Arc<Self> {
        let h = *index.hierarchy();
        let k_prime = cfg.committee.max(1);
        let interner = index.interner().clone();
        let mut committees: Vec<Vec<MemberId>> = vec![Vec::new(); interner.len()];
        let pick = |mut cands: Vec<MemberId>| -> Vec<MemberId> {
            cands.sort_unstable_by_key(|&m| (election_key(cfg.salt, m), m));
            cands.truncate(k_prime);
            cands
        };
        // boxes first
        for b in 0..h.num_boxes() {
            let addr = h.box_at(b);
            let members = index.members_in(&addr).to_vec();
            if !members.is_empty() {
                committees[interner.intern(&addr) as usize] = pick(members);
            }
        }
        // then every ancestor level, from the committees one level down
        for len in (0..h.depth()).rev() {
            for i in 0..(h.k() as u64).pow(len as u32) {
                let p = Addr::from_index(h.k(), len, i).expect("valid prefix");
                let cands: Vec<MemberId> = p
                    .children()
                    .flat_map(|c| committees[interner.intern(&c) as usize].iter())
                    .copied()
                    .collect();
                if !cands.is_empty() {
                    committees[interner.intern(&p) as usize] = pick(cands);
                }
            }
        }
        Arc::new(LeaderDirectory {
            committees,
            interner,
        })
    }

    /// The committee of a prefix (empty slice for empty subtrees).
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is outside the hierarchy's prefix universe.
    pub fn committee(&self, prefix: &Addr) -> &[MemberId] {
        &self.committees[self.interner.intern(prefix) as usize]
    }

    /// Whether `id` sits on the committee of `prefix`.
    pub fn is_committee(&self, prefix: &Addr, id: MemberId) -> bool {
        self.committee(prefix).contains(&id)
    }
}

/// One member's leader-election instance.
#[derive(Debug)]
pub struct LeaderElection<A> {
    me: MemberId,
    n: usize,
    vote: f64,
    cfg: LeaderElectionConfig,
    index: Arc<ScopeIndex>,
    directory: Arc<LeaderDirectory>,
    my_box: Addr,
    /// votes gathered as a box-committee member
    votes: Vec<(MemberId, f64)>,
    have_vote: BTreeSet<u32>,
    /// child-subtree aggregates gathered as a committee member, in a
    /// dense chain-local slab (every key is a prefix of `my_box` or a
    /// child of one — O(1) slot lookups, address-ordered iteration)
    aggs: AddrSlab<Tagged<A>>,
    /// `Arc`-shared: the final result fans out along the tree, so every
    /// forwarded `Final` is a reference-count bump, not a deep clone.
    result: Option<Arc<Tagged<A>>>,
    done_at: Option<Round>,
    estimate: Option<Arc<Tagged<A>>>,
}

impl<A: Aggregate> LeaderElection<A> {
    /// Create the instance for member `me` with vote `vote`.
    pub fn new(
        me: MemberId,
        vote: f64,
        index: Arc<ScopeIndex>,
        directory: Arc<LeaderDirectory>,
        cfg: LeaderElectionConfig,
    ) -> Self {
        let my_box = index.box_of(me);
        let mut have_vote = BTreeSet::new();
        have_vote.insert(me.0);
        LeaderElection {
            me,
            n: index.len(),
            vote,
            cfg,
            index,
            directory,
            my_box,
            votes: vec![(me, vote)],
            have_vote,
            aggs: AddrSlab::new(my_box),
            result: None,
            done_at: None,
            estimate: None,
        }
    }

    fn depth(&self) -> usize {
        self.index.hierarchy().depth()
    }

    fn phases(&self) -> usize {
        self.index.hierarchy().phases()
    }

    /// Total schedule length in rounds: up phases + down steps.
    pub fn schedule_rounds(&self) -> Round {
        ((self.phases() + self.depth() + 1) as u32 * self.cfg.phase_len) as Round
    }

    /// Compose (and cache) my aggregate for the prefix of length `len`
    /// in my own address chain.
    fn compose_own(&mut self, len: usize) -> Tagged<A> {
        let prefix = self.my_box.prefix(len);
        if let Some(a) = self.aggs.get(&prefix) {
            return a.clone();
        }
        // `for_scale`: counted contributor sets above the exact
        // threshold are safe here because `have_vote` dedupes committee
        // votes and child slots adopt first-reception-wins, so merges
        // are structurally disjoint.
        let composed = if len == self.depth() {
            let mut votes = self.votes.clone();
            votes.sort_unstable_by_key(|(m, _)| *m);
            let mut acc = Tagged::<A>::empty_for_scale(self.n);
            for (m, v) in votes {
                acc.try_merge(&Tagged::from_vote_for_scale(m.index(), v, self.n))
                    .expect("unique votes");
            }
            acc
        } else {
            let mut acc = Tagged::<A>::empty_for_scale(self.n);
            for child in prefix.children() {
                if let Some(a) = self.aggs.get(&child) {
                    acc.try_merge(a).expect("disjoint children");
                }
            }
            acc
        };
        self.aggs.insert(prefix, composed.clone());
        composed
    }
}

impl<A: Aggregate> AggregationProtocol<A> for LeaderElection<A> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        let round = ctx.round;
        let depth = self.depth();
        let len_of = |step: usize| depth + 1 - step; // scope len at up phase `step`
        let l = self.cfg.phase_len as Round;
        let up_rounds = self.phases() as Round * l;

        if round >= self.schedule_rounds() {
            let estimate = self.result.clone().unwrap_or_else(|| {
                Arc::new(Tagged::from_vote_for_scale(
                    self.me.index(),
                    self.vote,
                    self.n,
                ))
            });
            self.estimate = Some(estimate);
            self.done_at = Some(round);
            return;
        }

        if round < up_rounds {
            let phase = (round / l) as usize + 1; // 1-based
            if phase == 1 {
                // everyone ships its vote to the box committee
                let me = self.me;
                out.send_many(
                    self.directory
                        .committee(&self.my_box)
                        .iter()
                        .copied()
                        .filter(|&m| m != me),
                    Payload::Vote {
                        member: self.me,
                        value: self.vote,
                    },
                );
            } else {
                // committee members of the child subtree ship its
                // aggregate to the parent-scope committee
                let child_len = len_of(phase - 1);
                let child = self.my_box.prefix(child_len);
                if self.directory.is_committee(&child, self.me) {
                    let agg = Arc::new(self.compose_own(child_len));
                    let scope = self.my_box.prefix(len_of(phase));
                    let me = self.me;
                    out.send_many(
                        self.directory
                            .committee(&scope)
                            .iter()
                            .copied()
                            .filter(|&m| m != me),
                        Payload::Agg {
                            subtree: child,
                            agg,
                        },
                    );
                }
            }
            return;
        }

        // downward dissemination
        let step = ((round - up_rounds) / l) as usize + 1; // 1-based
        if step == 1 && self.directory.is_committee(&self.my_box.prefix(0), self.me) {
            // root committee finalizes the group aggregate
            let root_agg = self.compose_own(0);
            self.result.get_or_insert(Arc::new(root_agg));
        }
        let Some(result) = self.result.clone() else {
            return;
        };
        if step <= self.depth() {
            // committee at len (step-1) forwards to committees at len step
            let from_len = step - 1;
            if self
                .directory
                .is_committee(&self.my_box.prefix(from_len), self.me)
            {
                let me = self.me;
                for child in self.my_box.prefix(from_len).children() {
                    out.send_many(
                        self.directory
                            .committee(&child)
                            .iter()
                            .copied()
                            .filter(|&m| m != me),
                        Payload::Final {
                            agg: result.clone(),
                        },
                    );
                }
            }
        } else {
            // final step: box committee broadcasts to its box
            if self.directory.is_committee(&self.my_box, self.me) {
                let me = self.me;
                out.send_many(
                    self.index
                        .members_in(&self.my_box)
                        .iter()
                        .copied()
                        .filter(|&m| m != me),
                    Payload::Final { agg: result },
                );
            }
        }
    }

    fn on_message(
        &mut self,
        _from: MemberId,
        payload: Payload<A>,
        ctx: &mut Ctx<'_>,
        _out: &mut Outbox<A>,
    ) {
        if self.done_at.is_some() {
            return;
        }
        let changed = match payload {
            Payload::Vote { member, value } => {
                if self.index.box_of(member) == self.my_box && self.have_vote.insert(member.0) {
                    self.votes.push((member, value));
                    true
                } else {
                    false
                }
            }
            Payload::Agg { subtree, agg } => {
                // a child of one of my ancestors — exactly the slab's
                // slot condition, minus the never-gossiped root
                if !subtree.is_empty() && self.aggs.slot(&subtree).is_some() {
                    // Addr consistency: an adopted child aggregate must
                    // only cover that child's members (see DESIGN.md §11).
                    // (Counted sets carry no identity to check.)
                    #[cfg(feature = "strict-invariants")]
                    if agg.votes().is_exact() {
                        let index = &self.index;
                        assert!(
                            agg.votes()
                                .iter()
                                .all(|m| subtree.contains(&index.box_of(MemberId(m as u32)))),
                            "strict-invariants: received aggregate for {subtree} covers a \
                             member outside that subtree"
                        );
                    }
                    // clone out of the shared payload only on first
                    // reception of this subtree
                    if self.aggs.contains_key(&subtree) {
                        false
                    } else {
                        self.aggs.insert(subtree, (*agg).clone());
                        true
                    }
                } else {
                    false
                }
            }
            Payload::Final { agg } => {
                let had = self.result.is_some();
                self.result.get_or_insert(agg);
                !had
            }
            Payload::VoteBatch { .. } | Payload::AggBatch { .. } | Payload::Flow { .. } => {
                // batch gossip is a hierarchical-gossip wire form and
                // Flow belongs to the Flow-Updating baseline; the
                // leader protocol never emits or consumes them
                false
            }
        };
        if changed && ctx.is_traced() {
            // coverage = what this member would report now: the final
            // result if present, else its gathered votes/child aggs
            let votes = match &self.result {
                Some(agg) => agg.vote_count() as u64,
                None => {
                    let from_aggs: u64 = self.aggs.values().map(|a| a.vote_count() as u64).sum();
                    from_aggs.max(self.votes.len() as u64)
                }
            };
            let me = self.me;
            let round = ctx.round;
            ctx.emit(|| TraceEvent::Coverage {
                member: me,
                round,
                votes,
            });
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

    fn setup(n: usize, k: u8, committee: usize) -> (Arc<ScopeIndex>, Arc<LeaderDirectory>) {
        let h = Hierarchy::for_group(k, n).unwrap();
        let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 7));
        let cfg = LeaderElectionConfig {
            committee,
            ..Default::default()
        };
        let dir = LeaderDirectory::build(&index, &cfg);
        (index, dir)
    }

    #[test]
    fn committees_have_requested_size() {
        let (index, dir) = setup(64, 4, 2);
        let h = *index.hierarchy();
        for b in 0..h.num_boxes() {
            let addr = h.box_at(b);
            let c = dir.committee(&addr);
            let box_size = index.count_in(&addr);
            assert_eq!(c.len(), box_size.min(2), "box {addr}");
        }
        let root = Addr::root(4).unwrap();
        assert_eq!(dir.committee(&root).len(), 2);
    }

    #[test]
    fn committee_chains_nest() {
        // a parent-committee member is a committee member of its own child
        let (index, dir) = setup(256, 4, 2);
        let h = *index.hierarchy();
        for len in 0..h.depth() {
            for i in 0..(h.k() as u64).pow(len as u32) {
                let p = Addr::from_index(4, len, i).unwrap();
                for &m in dir.committee(&p) {
                    let child = index.box_of(m).prefix(len + 1);
                    assert!(
                        dir.is_committee(&child, m),
                        "{m} leads {p} but not its child {child}"
                    );
                }
            }
        }
    }

    #[test]
    fn committee_members_belong_to_subtree() {
        let (index, dir) = setup(64, 2, 1);
        let h = *index.hierarchy();
        for len in 0..=h.depth() {
            for i in 0..(h.k() as u64).pow(len as u32) {
                let p = Addr::from_index(2, len, i).unwrap();
                for &m in dir.committee(&p) {
                    assert!(p.contains(&index.box_of(m)));
                }
            }
        }
    }

    #[test]
    fn directory_is_deterministic() {
        let (_, d1) = setup(64, 4, 1);
        let (_, d2) = setup(64, 4, 1);
        let root = Addr::root(4).unwrap();
        assert_eq!(d1.committee(&root), d2.committee(&root));
    }

    #[test]
    fn schedule_length() {
        let (index, dir) = setup(64, 4, 1);
        let cfg = LeaderElectionConfig::default();
        let p: LeaderElection<Average> =
            LeaderElection::new(MemberId(0), 1.0, index.clone(), dir, cfg);
        let h = index.hierarchy();
        assert_eq!(
            p.schedule_rounds(),
            ((h.phases() + h.depth() + 1) as u32 * cfg.phase_len) as Round
        );
    }
}
