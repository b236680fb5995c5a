//! Epoch-level membership churn: join / leave / crash / recover.
//!
//! The paper's simulations crash members without recovery (§7), but its
//! model lets members "arbitrarily suffer crash failures and then
//! recover" (§2), and a production group also sees *voluntary* churn —
//! members joining and leaving between aggregation epochs. This module
//! provides the membership side of the continuous aggregation service:
//! a [`MembershipProcess`] advances the group one epoch at a time,
//! emitting deterministic [`MembershipEvent`]s, and composes with the
//! per-round [`FailureModel`]s — between
//! epochs the *membership* churns (this module), within an epoch the
//! *failure process* crashes and recovers members round by round.
//!
//! Member identifiers are never reused: joiners extend the id space, a
//! member that [`MemberState::Left`] stays gone. A
//! [`MemberState::Down`] member is crashed but recoverable — the
//! crash-recovery model with stable storage.

use gridagg_simnet::rng::DetRng;

use crate::failure::FailureModel;
use crate::MemberId;

/// Liveness/membership state of one member id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the group and running.
    Up,
    /// Crashed; may recover with its identifier (and stable state).
    Down,
    /// Voluntarily departed; never returns (ids are not reused).
    Left,
}

/// Per-epoch churn rates, applied *between* aggregation epochs.
///
/// All probabilities are per member per epoch; `join_rate` is the
/// expected number of new members per epoch (fractional rates join
/// probabilistically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Expected joins per epoch (new ids appended to the group).
    pub join_rate: f64,
    /// Probability an up member voluntarily leaves, per epoch.
    pub leave_prob: f64,
    /// Probability an up member crashes between epochs.
    pub crash_prob: f64,
    /// Probability a down member recovers, per epoch.
    pub recover_prob: f64,
}

impl ChurnModel {
    /// No churn at all. With hiergossip restart and no within-epoch
    /// recovery, the continuous service is then the paper's periodic
    /// mode: within-epoch crashes are permanent, so the up-membership
    /// only shrinks.
    pub fn none() -> Self {
        ChurnModel {
            join_rate: 0.0,
            leave_prob: 0.0,
            crash_prob: 0.0,
            recover_prob: 0.0,
        }
    }

    /// Validate probability ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.join_rate.is_finite() && self.join_rate >= 0.0) {
            return Err(format!("join_rate={} must be >= 0", self.join_rate));
        }
        for (name, p) in [
            ("leave_prob", self.leave_prob),
            ("crash_prob", self.crash_prob),
            ("recover_prob", self.recover_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}={p} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// One membership change at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A new member entered the group (fresh id).
    Joined(MemberId),
    /// An up member left voluntarily (permanent).
    Left(MemberId),
    /// An up member crashed between epochs (recoverable).
    Crashed(MemberId),
    /// A down member came back up.
    Recovered(MemberId),
}

/// The running membership process for the continuous aggregation
/// service: tracks every id ever issued and advances the group one
/// epoch at a time.
///
/// ```
/// use gridagg_group::membership::{ChurnModel, MembershipProcess};
///
/// let mut group = MembershipProcess::new(
///     8,
///     ChurnModel {
///         join_rate: 1.0,
///         leave_prob: 0.0,
///         crash_prob: 0.0,
///         recover_prob: 0.0,
///     },
///     7,
/// );
/// assert_eq!(group.up_count(), 8);
/// group.epoch_step();
/// assert!(group.population() > 8, "one join per epoch on average");
/// ```
#[derive(Debug, Clone)]
pub struct MembershipProcess {
    states: Vec<MemberState>,
    model: ChurnModel,
    rng: DetRng,
}

impl MembershipProcess {
    /// A group of `initial_n` up members with the given churn model.
    /// `seed` should be a fork of the run seed.
    ///
    /// # Panics
    ///
    /// Panics if the churn model fails [`ChurnModel::validate`].
    pub fn new(initial_n: usize, model: ChurnModel, seed: u64) -> Self {
        model.validate().expect("invalid churn model");
        MembershipProcess {
            states: vec![MemberState::Up; initial_n],
            model,
            rng: DetRng::seeded(seed).fork(0x6D62_7368), // "mbsh"
        }
    }

    /// Total identifiers ever issued (up + down + left).
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// The state of a member id (`Left` for ids never issued).
    pub fn state(&self, id: MemberId) -> MemberState {
        self.states
            .get(id.index())
            .copied()
            .unwrap_or(MemberState::Left)
    }

    /// Whether `id` is currently up.
    pub fn is_up(&self, id: MemberId) -> bool {
        self.state(id) == MemberState::Up
    }

    /// Number of currently-up members.
    pub fn up_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == MemberState::Up)
            .count()
    }

    /// The currently-up members, ascending by id — the *true
    /// membership* an epoch's completeness score is measured against.
    pub fn up_members(&self) -> Vec<MemberId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == MemberState::Up)
            .map(|(i, _)| MemberId(i as u32))
            .collect()
    }

    /// Liveness mask over the whole id universe (`true` = up), for
    /// seeding a [`FailureProcess`](crate::failure::FailureProcess)
    /// over stable ids via
    /// [`FailureProcess::with_liveness`](crate::failure::FailureProcess::with_liveness).
    pub fn up_mask(&self) -> Vec<bool> {
        self.states.iter().map(|&s| s == MemberState::Up).collect()
    }

    /// Advance one epoch boundary: leaves, between-epoch crashes, and
    /// recoveries over existing members (in id order), then joins
    /// appended with fresh ids. Deterministic per seed.
    pub fn epoch_step(&mut self) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for i in 0..self.states.len() {
            let id = MemberId(i as u32);
            match self.states[i] {
                MemberState::Up => {
                    if self.rng.chance(self.model.leave_prob) {
                        self.states[i] = MemberState::Left;
                        events.push(MembershipEvent::Left(id));
                    } else if self.rng.chance(self.model.crash_prob) {
                        self.states[i] = MemberState::Down;
                        events.push(MembershipEvent::Crashed(id));
                    }
                }
                MemberState::Down => {
                    if self.rng.chance(self.model.recover_prob) {
                        self.states[i] = MemberState::Up;
                        events.push(MembershipEvent::Recovered(id));
                    }
                }
                MemberState::Left => {}
            }
        }
        let joins = {
            let whole = self.model.join_rate.floor();
            let frac = self.model.join_rate - whole;
            whole as usize + usize::from(self.rng.chance(frac))
        };
        for _ in 0..joins {
            let id = MemberId(self.states.len() as u32);
            self.states.push(MemberState::Up);
            events.push(MembershipEvent::Joined(id));
        }
        events
    }

    /// Fold a crash observed *during* an epoch (a `Crashed` outcome in
    /// the epoch's run report) back into the membership: the member is
    /// down — and recoverable — from the next epoch boundary on. No-op
    /// for members already down or left.
    pub fn note_crash(&mut self, id: MemberId) {
        if let Some(s) = self.states.get_mut(id.index()) {
            if *s == MemberState::Up {
                *s = MemberState::Down;
            }
        }
    }

    /// The within-epoch failure model composing with this membership:
    /// `pf`/`pr` are the per-round crash/recovery probabilities of the
    /// one-shot run an epoch executes. `pr > 0` finally makes
    /// [`FailureModel::PerRoundWithRecovery`] reachable from a runner.
    pub fn within_epoch_model(pf: f64, pr: f64) -> FailureModel {
        if pf <= 0.0 {
            FailureModel::None
        } else if pr > 0.0 {
            FailureModel::PerRoundWithRecovery { pf, pr }
        } else {
            FailureModel::PerRound { pf }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(join: f64, leave: f64, crash: f64, recover: f64) -> ChurnModel {
        ChurnModel {
            join_rate: join,
            leave_prob: leave,
            crash_prob: crash,
            recover_prob: recover,
        }
    }

    #[test]
    fn no_churn_is_static() {
        let mut p = MembershipProcess::new(16, ChurnModel::none(), 1);
        for _ in 0..10 {
            assert!(p.epoch_step().is_empty());
        }
        assert_eq!(p.up_count(), 16);
        assert_eq!(p.population(), 16);
    }

    #[test]
    fn joins_extend_the_id_space() {
        let mut p = MembershipProcess::new(4, model(2.0, 0.0, 0.0, 0.0), 2);
        let events = p.epoch_step();
        assert_eq!(events.len(), 2);
        assert_eq!(p.population(), 6);
        assert_eq!(p.up_count(), 6);
        assert!(matches!(events[0], MembershipEvent::Joined(MemberId(4))));
        assert!(matches!(events[1], MembershipEvent::Joined(MemberId(5))));
    }

    #[test]
    fn fractional_join_rate_averages_out() {
        let mut p = MembershipProcess::new(1, model(0.5, 0.0, 0.0, 0.0), 3);
        for _ in 0..200 {
            p.epoch_step();
        }
        let joined = p.population() - 1;
        assert!((60..=140).contains(&joined), "joined {joined} of ~100");
    }

    #[test]
    fn leavers_never_return() {
        let mut p = MembershipProcess::new(50, model(0.0, 0.5, 0.0, 1.0), 4);
        let mut left = std::collections::HashSet::new();
        for _ in 0..20 {
            for e in p.epoch_step() {
                match e {
                    MembershipEvent::Left(m) => {
                        assert!(left.insert(m), "{m} left twice");
                    }
                    MembershipEvent::Recovered(_) => panic!("nobody ever crashed"),
                    _ => {}
                }
            }
        }
        for &m in &left {
            assert_eq!(p.state(m), MemberState::Left);
        }
        assert_eq!(p.up_count(), 50 - left.len());
    }

    #[test]
    fn crash_then_recover_round_trips() {
        let mut p = MembershipProcess::new(100, model(0.0, 0.0, 0.3, 0.5), 5);
        let mut recovered = 0;
        for _ in 0..30 {
            for e in p.epoch_step() {
                match e {
                    MembershipEvent::Crashed(m) => assert_eq!(p.state(m), MemberState::Down),
                    MembershipEvent::Recovered(m) => {
                        assert_eq!(p.state(m), MemberState::Up);
                        recovered += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(recovered > 0, "crash/recover churn must recover someone");
    }

    #[test]
    fn note_crash_marks_down_and_recoverable() {
        let mut p = MembershipProcess::new(4, model(0.0, 0.0, 0.0, 1.0), 6);
        p.note_crash(MemberId(2));
        assert_eq!(p.state(MemberId(2)), MemberState::Down);
        assert_eq!(p.up_count(), 3);
        let events = p.epoch_step();
        assert_eq!(events, vec![MembershipEvent::Recovered(MemberId(2))]);
        // note_crash on a left member is a no-op
        let mut q = MembershipProcess::new(2, model(0.0, 1.0, 0.0, 1.0), 7);
        q.epoch_step();
        q.note_crash(MemberId(0));
        assert_eq!(q.state(MemberId(0)), MemberState::Left);
    }

    #[test]
    fn up_members_and_mask_agree() {
        let mut p = MembershipProcess::new(30, model(1.0, 0.1, 0.1, 0.3), 8);
        for _ in 0..5 {
            p.epoch_step();
        }
        let up = p.up_members();
        let mask = p.up_mask();
        assert_eq!(mask.len(), p.population());
        assert_eq!(up.len(), p.up_count());
        for &m in &up {
            assert!(mask[m.index()]);
            assert!(p.is_up(m));
        }
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut p = MembershipProcess::new(40, model(1.5, 0.05, 0.1, 0.4), seed);
            (0..12).map(|_| p.epoch_step().len()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should differ");
    }

    #[test]
    fn within_epoch_model_composition() {
        assert_eq!(
            MembershipProcess::within_epoch_model(0.0, 0.5),
            FailureModel::None
        );
        assert_eq!(
            MembershipProcess::within_epoch_model(0.01, 0.0),
            FailureModel::PerRound { pf: 0.01 }
        );
        assert_eq!(
            MembershipProcess::within_epoch_model(0.01, 0.2),
            FailureModel::PerRoundWithRecovery { pf: 0.01, pr: 0.2 }
        );
    }

    #[test]
    #[should_panic(expected = "invalid churn model")]
    fn bad_model_rejected() {
        let _ = MembershipProcess::new(4, model(0.0, 1.5, 0.0, 0.0), 1);
    }

    #[test]
    fn out_of_range_id_is_left() {
        let p = MembershipProcess::new(3, ChurnModel::none(), 1);
        assert_eq!(p.state(MemberId(99)), MemberState::Left);
        assert!(!p.is_up(MemberId(99)));
    }
}
