//! Flat gossip — the no-hierarchy ablation.
//!
//! Gossip individual votes uniformly over the *whole* group for the same
//! round budget Hierarchical Gossiping would use. Without the Grid Box
//! Hierarchy, all `N` distinct votes compete for the same constant-size
//! messages, so coverage per vote collapses as `N` grows — the
//! quantitative argument for the hierarchy.

use std::collections::BTreeSet;

use gridagg_aggregate::{Aggregate, Tagged};
use gridagg_group::MemberId;
use gridagg_simnet::Round;

use crate::message::Payload;
use crate::protocol::{AggregationProtocol, Ctx, Outbox};
use crate::trace::TraceEvent;

/// Parameters of flat gossip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatGossipConfig {
    /// Gossipees contacted per round (`M`).
    pub fanout: u32,
    /// Total rounds to run (match the hierarchical budget for a fair
    /// comparison).
    pub total_rounds: u32,
}

impl Default for FlatGossipConfig {
    fn default() -> Self {
        FlatGossipConfig {
            fanout: 2,
            total_rounds: 32,
        }
    }
}

/// One member's flat-gossip instance.
#[derive(Debug)]
pub struct FlatGossip<A> {
    me: MemberId,
    n: usize,
    cfg: FlatGossipConfig,
    known: Vec<(MemberId, f64)>,
    have: BTreeSet<u32>,
    rounds: u32,
    done_at: Option<Round>,
    estimate: Option<Tagged<A>>,
    /// Scratch reused by gossipee sampling across rounds.
    scratch_picks: Vec<usize>,
}

impl<A: Aggregate> FlatGossip<A> {
    /// Create the instance for member `me` of a group of `n`.
    pub fn new(me: MemberId, vote: f64, n: usize, cfg: FlatGossipConfig) -> Self {
        let mut have = BTreeSet::new();
        have.insert(me.0);
        FlatGossip {
            me,
            n,
            cfg,
            known: vec![(me, vote)],
            have,
            rounds: 0,
            done_at: None,
            estimate: None,
            scratch_picks: Vec::new(),
        }
    }

    /// Number of distinct votes currently known.
    pub fn known_votes(&self) -> usize {
        self.known.len()
    }
}

impl<A: Aggregate> AggregationProtocol<A> for FlatGossip<A> {
    fn on_round(&mut self, ctx: &mut Ctx<'_>, out: &mut Outbox<A>) {
        if self.done_at.is_some() {
            return;
        }
        if self.rounds >= self.cfg.total_rounds {
            let mut votes = self.known.clone();
            votes.sort_unstable_by_key(|(m, _)| *m);
            // `for_scale`: counted contributor sets above the exact
            // threshold are safe here because `have` dedupes inserts
            // into `known`, so the merges are structurally disjoint.
            let mut acc = Tagged::<A>::empty_for_scale(self.n);
            for (m, v) in votes {
                // `have` dedupes inserts into `known`, so these merges
                // are disjoint; if that ever broke, dropping the
                // duplicate (try_merge leaves `acc` untouched on error)
                // beats panicking in a handler (lint rule D003).
                let _ = acc.try_merge(&Tagged::from_vote_for_scale(m.index(), v, self.n));
            }
            self.estimate = Some(acc);
            self.done_at = Some(ctx.round);
            return;
        }
        // The known set always holds at least the member's own vote, so
        // an empty choice is unreachable; bail instead of panicking in a
        // handler (lint rule D003).
        let Some(&(member, value)) = ctx.rng.choose(&self.known) else {
            return;
        };
        ctx.rng.sample_distinct_into(
            self.n,
            Some(self.me.index()),
            self.cfg.fanout as usize,
            &mut self.scratch_picks,
        );
        out.send_many(
            self.scratch_picks.iter().map(|&p| MemberId(p as u32)),
            Payload::Vote { member, value },
        );
        self.rounds += 1;
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
        match payload {
            Payload::Vote { member, value } => {
                if self.have.insert(member.0) {
                    self.known.push((member, value));
                    let me = self.me;
                    let round = ctx.round;
                    let votes = self.known.len() as u64;
                    ctx.emit(|| TraceEvent::Coverage {
                        member: me,
                        round,
                        votes,
                    });
                }
            }
            // Flat gossip exchanges single votes only; every other
            // wire shape is explicitly ignored so a new Payload
            // variant is a compile-time decision here, not a silent
            // drop.
            Payload::Agg { .. }
            | Payload::Final { .. }
            | Payload::VoteBatch { .. }
            | Payload::AggBatch { .. }
            | Payload::Flow { .. } => {}
        }
    }

    fn estimate(&self) -> Option<&Tagged<A>> {
        self.estimate.as_ref()
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
    use gridagg_simnet::rng::DetRng;

    #[test]
    fn runs_for_budget_then_finalizes() {
        let cfg = FlatGossipConfig {
            fanout: 2,
            total_rounds: 5,
        };
        let mut p: FlatGossip<Average> = FlatGossip::new(MemberId(0), 3.0, 10, cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        for round in 0..=5 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
        }
        assert!(p.is_done());
        assert_eq!(p.estimate().unwrap().vote_count(), 1);
        assert_eq!(p.completed_at(), Some(5));
    }

    #[test]
    fn gossip_targets_whole_group() {
        let cfg = FlatGossipConfig {
            fanout: 3,
            total_rounds: 100,
        };
        let mut p: FlatGossip<Average> = FlatGossip::new(MemberId(4), 3.0, 10, cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        let mut seen = BTreeSet::new();
        for round in 0..50 {
            let mut ctx = Ctx::new(round, &mut rng);
            p.on_round(&mut ctx, &mut out);
            for (to, _) in out.drain() {
                assert_ne!(to, MemberId(4));
                seen.insert(to.0);
            }
        }
        assert!(seen.len() >= 8, "covered only {seen:?}");
    }

    #[test]
    fn learns_new_votes_once() {
        let cfg = FlatGossipConfig::default();
        let mut p: FlatGossip<Average> = FlatGossip::new(MemberId(0), 3.0, 10, cfg);
        let mut rng = DetRng::seeded(1);
        let mut out = Outbox::new();
        let mut ctx = Ctx::new(0, &mut rng);
        let msg = Payload::Vote {
            member: MemberId(7),
            value: 1.0,
        };
        p.on_message(MemberId(7), msg.clone(), &mut ctx, &mut out);
        p.on_message(MemberId(7), msg, &mut ctx, &mut out);
        assert_eq!(p.known_votes(), 2);
    }
}
