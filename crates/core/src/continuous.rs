//! Continuous aggregation — the paper's §2 extension as an epoch
//! service.
//!
//! "Our discussion considers only one run of the aggregation protocol,
//! but this can be extended to one which periodically calculate\[s\] the
//! global aggregate." [`run_continuous`] does exactly that: a sequence
//! of *epochs*, each one aggregation over the members' current votes,
//! with votes evolving between epochs. The result is a tracking series
//! — how well the group-wide estimate follows a drifting global
//! quantity (e.g. a slowly heating wing).
//!
//! The paper's periodic mode is the degenerate case
//! [`ContinuousProtocol::HierGossipRestart`] with [`ChurnModel::none`]
//! and `recovery = 0`: members that crash stay crashed across epochs
//! (the §7 no-recovery model), so the up-membership shrinks
//! monotonically and each epoch's hierarchy is re-derived from the
//! *surviving* population, exercising the approximate-`N` tolerance.
//!
//! A production deployment instead faces *churn*: members join, leave,
//! crash, and recover between epochs. Each epoch of [`run_continuous`]:
//!
//! 1. A [`MembershipProcess`] evolves the group between epochs —
//!    joins append fresh member ids, leaves/crashes take members down,
//!    recoveries bring crashed members back.
//! 2. Votes evolve per epoch via the [`VoteProcess`], and newly joined
//!    members draw fresh votes from the experiment's vote distribution.
//! 3. Each epoch runs one aggregation over the members that are up at
//!    epoch start, under a *within-epoch* failure model that may
//!    include recovery ([`MembershipProcess::within_epoch_model`] maps
//!    `(pf, pr)` to `FailureModel::PerRoundWithRecovery` when both
//!    are positive — the first runner to reach that model).
//! 4. Between epochs the view heals: the hierarchy (or overlay) is
//!    re-derived over the *current* up-membership, so recovered and
//!    newly joined members re-enter placement.
//!
//! Two protocol drivers are supported:
//!
//! * [`ContinuousProtocol::HierGossipRestart`] — the paper's answer to
//!   churn: restart a one-shot Hierarchical Gossiping run per epoch
//!   over the current membership, densely reindexed.
//! * [`ContinuousProtocol::FlowUpdating`] — the mass-conserving
//!   baseline ([`crate::baselines::flowupdate`]): protocol state
//!   *persists across epochs*; churn is absorbed by flow reclaim and
//!   overlay healing rather than by restart.
//!
//! Every epoch publishes a [`ChurnEpochReport`] carrying a
//! **completeness score**: the mean, over members that published an
//! estimate, of the fraction of the epoch's true membership whose votes
//! reached that estimate. Both drivers are scored against the same
//! membership, so the hiergossip-vs-Flow-Updating comparison in
//! `gridagg-bench` is apples-to-apples.

use gridagg_aggregate::{Aggregate, Average};
use gridagg_group::failure::FailureProcess;
use gridagg_group::membership::{ChurnModel, MembershipEvent, MembershipProcess};
use gridagg_group::view::View;
use gridagg_group::{MemberId, VoteDistribution};
use gridagg_hierarchy::{Addr, FairHashPlacement, Hierarchy, Placement};
use gridagg_simnet::network::SimNetwork;
use gridagg_simnet::rng::DetRng;

use crate::baselines::{ring_chord_neighbors, FlowUpdating, FlowUpdatingConfig};
use crate::config::ExperimentConfig;
use crate::engine::Simulation;
use crate::hiergossip::HierGossip;
use crate::metrics::MemberOutcome;
use crate::protocol::AggregationProtocol;
use crate::scope::ScopeIndex;

/// How member votes evolve between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoteProcess {
    /// Votes stay fixed (re-evaluation of a static quantity).
    Fixed,
    /// Independent Gaussian random walk per member with the given step
    /// standard deviation.
    RandomWalk {
        /// Per-epoch step standard deviation.
        sigma: f64,
    },
    /// Common additive drift plus individual Gaussian noise — models a
    /// global trend (the wing heating up) with sensor-local variation.
    Drift {
        /// Per-epoch additive trend applied to every vote.
        rate: f64,
        /// Per-epoch individual noise standard deviation.
        noise: f64,
    },
}

impl VoteProcess {
    /// Evolve one vote by one epoch.
    pub fn step(&self, vote: f64, rng: &mut DetRng) -> f64 {
        let gaussian = |rng: &mut DetRng, sigma: f64| {
            let u1 = rng.unit().max(1e-12);
            let u2 = rng.unit();
            sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        match *self {
            VoteProcess::Fixed => vote,
            VoteProcess::RandomWalk { sigma } => vote + gaussian(rng, sigma),
            VoteProcess::Drift { rate, noise } => vote + rate + gaussian(rng, noise),
        }
    }
}

/// How a continuous run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// All requested epochs ran.
    Completed,
    /// The up-membership fell below 2 before `epoch` could run; the
    /// outcome carries fewer epochs than requested.
    GroupCollapsed {
        /// The epoch that could not run.
        epoch: usize,
        /// Members up at that point (0 or 1).
        survivors: usize,
    },
}

/// Which protocol drives the continuous service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinuousProtocol {
    /// Restart a one-shot Hierarchical Gossiping run each epoch over
    /// the current up-membership.
    HierGossipRestart,
    /// Run the persistent Flow-Updating averaging protocol, re-armed
    /// (vote + healed overlay) each epoch.
    FlowUpdating,
}

/// Options of a continuous run, on top of an [`ExperimentConfig`]
/// (which supplies `n`, `k`, the network, within-epoch `pf`, and the
/// vote distribution).
#[derive(Debug, Clone, Copy)]
pub struct ContinuousOptions {
    /// The protocol driver.
    pub protocol: ContinuousProtocol,
    /// Number of epochs to run.
    pub epochs: usize,
    /// Churn applied between epochs.
    pub churn: ChurnModel,
    /// How surviving members' votes evolve between epochs.
    pub votes: VoteProcess,
    /// Within-epoch per-round recovery probability (`pr`). With the
    /// hiergossip driver, `pf > 0` and `pr > 0` select
    /// `FailureModel::PerRoundWithRecovery`; `pr = 0` keeps the
    /// paper's crash-without-recovery model.
    pub recovery: f64,
    /// Flow-Updating parameters (ignored by the hiergossip driver).
    pub fu: FlowUpdatingConfig,
}

impl ContinuousOptions {
    /// Defaults: hiergossip restart, 8 epochs, no churn, fixed votes,
    /// no within-epoch recovery. With
    /// [`ContinuousProtocol::HierGossipRestart`] these defaults are the
    /// paper's periodic mode.
    pub fn new(protocol: ContinuousProtocol) -> Self {
        ContinuousOptions {
            protocol,
            epochs: 8,
            churn: ChurnModel::none(),
            votes: VoteProcess::Fixed,
            recovery: 0.0,
            fu: FlowUpdatingConfig::default(),
        }
    }
}

/// One epoch's published result in a continuous run.
#[derive(Debug, Clone)]
pub struct ChurnEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Ids ever created by the membership process at epoch start.
    pub population: usize,
    /// Members up at epoch start — the epoch's true membership.
    pub up: usize,
    /// Members that joined in the churn step before this epoch.
    pub joins: usize,
    /// Members that left in the churn step before this epoch.
    pub leaves: usize,
    /// Members that crashed in the churn step before this epoch.
    pub crashes: usize,
    /// Members that recovered in the churn step before this epoch.
    pub recoveries: usize,
    /// True average over the up members' votes.
    pub true_value: f64,
    /// Median published estimate (`NaN` if nobody published).
    pub estimate: f64,
    /// Completeness score: mean over publishing members of the
    /// fraction of the true membership whose votes reached their
    /// estimate (0.0 if nobody published).
    pub completeness: f64,
    /// Members that published an estimate this epoch.
    pub published: usize,
    /// Gossip rounds the epoch ran.
    pub rounds: u64,
    /// Messages submitted to the network this epoch.
    pub messages: u64,
}

impl ChurnEpochReport {
    /// Absolute tracking error of the median estimate.
    pub fn tracking_error(&self) -> f64 {
        (self.estimate - self.true_value).abs()
    }
}

/// The outcome of a continuous run.
#[derive(Debug, Clone)]
pub struct ContinuousOutcome {
    /// One report per epoch that ran.
    pub epochs: Vec<ChurnEpochReport>,
    /// Why the run stopped. A run that outlives its group is
    /// truncated — check this rather than inferring it from
    /// `epochs.len()`.
    pub termination: Termination,
}

impl ContinuousOutcome {
    /// Whether the group collapsed before the requested epoch count.
    pub fn collapsed(&self) -> bool {
        matches!(self.termination, Termination::GroupCollapsed { .. })
    }
}

/// Upper bound on ids the membership process can ever create: the
/// initial group plus the per-epoch join maximum (`⌊rate⌋ + 1`).
fn universe_cap(n: usize, epochs: usize, churn: &ChurnModel) -> usize {
    n + epochs * (churn.join_rate.floor() as usize + 1)
}

/// Run the continuous aggregation service (averaging) for
/// `opts.epochs` epochs under churn.
///
/// Deterministic: the outcome is a pure function of
/// `(cfg, opts, seed)`.
///
/// # Panics
///
/// Panics if `cfg` fails validation, `opts.epochs == 0`, or the churn
/// model fails [`ChurnModel::validate`].
pub fn run_continuous(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    seed: u64,
) -> ContinuousOutcome {
    cfg.validate().expect("invalid experiment config");
    assert!(opts.epochs > 0, "need at least one epoch");

    let mut membership = MembershipProcess::new(cfg.n, opts.churn, seed);
    let mut vote_rng = DetRng::seeded(seed).fork(0x636F_6E74); // "cont"
    let dist: VoteDistribution = cfg.vote.into();
    let mut votes: Vec<f64> = crate::runner::build_group_for(cfg, seed).votes();

    // Flow-Updating instances persist across epochs over the stable id
    // universe; hiergossip builds fresh dense instances per epoch.
    let cap = universe_cap(cfg.n, opts.epochs, &opts.churn);
    let mut fu_protocols: Vec<FlowUpdating> = Vec::new();

    let mut epochs = Vec::with_capacity(opts.epochs);
    let mut termination = Termination::Completed;

    for epoch in 0..opts.epochs {
        // 1. churn + vote evolution between epochs
        let (mut joins, mut leaves, mut crashes, mut recoveries) = (0, 0, 0, 0);
        if epoch > 0 {
            for ev in membership.epoch_step() {
                match ev {
                    MembershipEvent::Joined(_) => joins += 1,
                    MembershipEvent::Left(_) => leaves += 1,
                    MembershipEvent::Crashed(_) => crashes += 1,
                    MembershipEvent::Recovered(_) => recoveries += 1,
                }
            }
            for v in votes.iter_mut() {
                *v = opts.votes.step(*v, &mut vote_rng);
            }
            // joiners draw fresh votes from the experiment distribution
            while votes.len() < membership.population() {
                let vote = dist.sample(votes.len(), &mut vote_rng);
                votes.push(vote);
            }
        }

        let up = membership.up_members();
        if up.len() < 2 {
            termination = Termination::GroupCollapsed {
                epoch,
                survivors: up.len(),
            };
            break;
        }

        // 2. ground truth over the epoch's true membership
        let true_value = {
            let mut acc = Average::from_vote(votes[up[0].index()]);
            for &m in &up[1..] {
                acc.merge(&Average::from_vote(votes[m.index()]));
            }
            acc.summary()
        };

        let epoch_seed = seed.wrapping_add(0x1000 + epoch as u64);
        let mut report = EpochAccumulator::new(up.len());

        match opts.protocol {
            ContinuousProtocol::HierGossipRestart => {
                run_hier_epoch(
                    cfg,
                    opts,
                    &up,
                    &votes,
                    epoch,
                    seed,
                    epoch_seed,
                    &mut membership,
                    &mut report,
                );
            }
            ContinuousProtocol::FlowUpdating => {
                run_fu_epoch(
                    cfg,
                    opts,
                    &up,
                    &votes,
                    cap,
                    epoch_seed,
                    &mut membership,
                    &mut fu_protocols,
                    &mut report,
                );
            }
        }

        epochs.push(ChurnEpochReport {
            epoch,
            population: membership.population(),
            up: up.len(),
            joins,
            leaves,
            crashes,
            recoveries,
            true_value,
            estimate: report.median_estimate(),
            completeness: report.mean_completeness(),
            published: report.values.len(),
            rounds: report.rounds,
            messages: report.messages,
        });
    }

    ContinuousOutcome {
        epochs,
        termination,
    }
}

/// Per-epoch result accumulation shared by both drivers.
struct EpochAccumulator {
    /// Published estimates of completed members.
    values: Vec<f64>,
    /// Per-completed-member completeness against the true membership.
    completeness: Vec<f64>,
    /// Size of the epoch's true membership.
    up: usize,
    rounds: u64,
    messages: u64,
}

impl EpochAccumulator {
    fn new(up: usize) -> Self {
        EpochAccumulator {
            values: Vec::new(),
            completeness: Vec::new(),
            up,
            rounds: 0,
            messages: 0,
        }
    }

    fn publish(&mut self, value: f64, votes_in_membership: usize) {
        self.values.push(value);
        self.completeness
            .push(votes_in_membership as f64 / self.up as f64);
    }

    fn median_estimate(&mut self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.sort_by(f64::total_cmp);
        let mid = self.values.len() / 2;
        if self.values.len().is_multiple_of(2) {
            (self.values[mid - 1] + self.values[mid]) / 2.0
        } else {
            self.values[mid]
        }
    }

    fn mean_completeness(&self) -> f64 {
        if self.completeness.is_empty() {
            return 0.0;
        }
        self.completeness.iter().sum::<f64>() / self.completeness.len() as f64
    }
}

/// One epoch of the restart driver: a dense one-shot hiergossip run
/// over the up-membership, with within-epoch crash (and optionally
/// recovery) injection.
#[allow(clippy::too_many_arguments)]
fn run_hier_epoch(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    up: &[MemberId],
    votes: &[f64],
    epoch: usize,
    seed: u64,
    epoch_seed: u64,
    membership: &mut MembershipProcess,
    acc: &mut EpochAccumulator,
) {
    let hierarchy = Hierarchy::for_group(cfg.k, up.len().max(2)).expect("validated k");
    let placement = FairHashPlacement::new(hierarchy, seed ^ (epoch as u64) << 8);
    let dense_index = {
        let dense_view = View::complete(up.len());
        let dense_placement = DensePlacement {
            hierarchy,
            inner: placement,
            survivors: up.iter().map(|m| m.index()).collect(),
        };
        ScopeIndex::build(&dense_view, &dense_placement)
    };
    let protocols: Vec<HierGossip<Average>> = up
        .iter()
        .enumerate()
        .map(|(dense, &orig)| {
            HierGossip::new(
                MemberId(dense as u32),
                votes[orig.index()],
                dense_index.clone(),
                cfg.hier_config(),
            )
        })
        .collect();
    let net = SimNetwork::new(crate::runner::network_config_for(cfg, None), epoch_seed);
    let model = MembershipProcess::within_epoch_model(cfg.pf, opts.recovery);
    let failure = FailureProcess::new(model, up.len(), epoch_seed);
    let run = Simulation::new(
        net,
        protocols,
        failure,
        epoch_seed,
        0.0, // truth tracked by the caller
        cfg.max_rounds(),
    )
    .with_engine_jobs(cfg.engine_jobs)
    .run();

    acc.rounds = run.rounds;
    acc.messages = run.net.sent;
    for (dense, outcome) in run.outcomes.iter().enumerate() {
        match outcome {
            MemberOutcome::Completed {
                completeness,
                value,
                ..
            } => {
                // dense vote bitsets cover only up members, so the
                // intersection with the true membership is exactly the
                // bitset size — recoverable from the dense completeness
                let votes_in = (completeness * up.len() as f64).round() as usize;
                acc.publish(*value, votes_in);
            }
            MemberOutcome::Crashed => membership.note_crash(up[dense]),
            MemberOutcome::TimedOut => {}
        }
    }
}

/// Placement over densely reindexed members: dense id `j` maps to the
/// original member `survivors[j]`, placed by the epoch's fair hash.
#[derive(Debug)]
struct DensePlacement {
    hierarchy: Hierarchy,
    inner: FairHashPlacement,
    survivors: Vec<usize>,
}

impl Placement for DensePlacement {
    fn place(&self, id: MemberId) -> Addr {
        let orig = self.survivors[id.index()];
        self.inner.place(MemberId(orig as u32))
    }

    fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

/// One epoch of the persistent Flow-Updating driver: re-arm surviving
/// instances over the healed ring-chord overlay, create instances for
/// joiners, run one epoch's round budget, and hand the instances back
/// for the next epoch.
#[allow(clippy::too_many_arguments)]
fn run_fu_epoch(
    cfg: &ExperimentConfig,
    opts: &ContinuousOptions,
    up: &[MemberId],
    votes: &[f64],
    cap: usize,
    epoch_seed: u64,
    membership: &mut MembershipProcess,
    protocols: &mut Vec<FlowUpdating>,
    acc: &mut EpochAccumulator,
) {
    // grow the instance vector to the current population; dead and
    // left members keep their (inert) instances
    while protocols.len() < membership.population() {
        let id = MemberId(protocols.len() as u32);
        protocols.push(FlowUpdating::new(
            id,
            votes[id.index()],
            cap,
            Vec::new(),
            opts.fu,
        ));
    }
    // heal the overlay: up members get ring-chord neighbours over the
    // sorted up-membership and their current vote
    for (idx, &m) in up.iter().enumerate() {
        let neighbors = ring_chord_neighbors(up, idx);
        protocols[m.index()].rearm(votes[m.index()], neighbors);
    }
    let was_up = membership.up_mask();
    let net = SimNetwork::new(crate::runner::network_config_for(cfg, None), epoch_seed);
    // within-epoch crashes only; recoveries happen between epochs via
    // the churn model (a mid-epoch rejoin over the persistent overlay
    // would silently resurrect stale flows)
    let model = MembershipProcess::within_epoch_model(cfg.pf, 0.0);
    let failure = FailureProcess::with_liveness(model, was_up.clone(), epoch_seed);
    let moved = std::mem::take(protocols);
    let (run, returned) = Simulation::new(
        net,
        moved,
        failure,
        epoch_seed,
        0.0,
        u64::from(opts.fu.rounds_per_epoch) + 2,
    )
    .with_engine_jobs(cfg.engine_jobs)
    .run_returning();
    *protocols = returned;

    acc.rounds = run.rounds;
    acc.messages = run.net.sent;
    for (i, outcome) in run.outcomes.iter().enumerate() {
        let id = MemberId(i as u32);
        if !was_up[i] {
            continue; // down before the epoch; outcome is not news
        }
        match outcome {
            MemberOutcome::Completed { value, .. } => {
                // count only influence from the epoch's true membership;
                // a counted contributor set (scale runs) has no identity
                // to filter by, so fall back to the raw contributor count
                let votes_in = protocols[i].estimate().map_or(0, |est| {
                    if est.votes().is_exact() {
                        est.votes()
                            .iter()
                            .filter(|&m| membership.is_up(MemberId(m as u32)))
                            .count()
                    } else {
                        est.vote_count()
                    }
                });
                acc.publish(*value, votes_in);
            }
            MemberOutcome::Crashed => membership.note_crash(id),
            MemberOutcome::TimedOut => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_group::failure::FailureModel;

    fn base(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_defaults()
            .with_n(n)
            .with_ucastl(0.05);
        c.pf = 0.0;
        c
    }

    /// The periodic-mode tests run at 10% unicast loss.
    fn lossy(n: usize) -> ExperimentConfig {
        base(n).with_ucastl(0.1)
    }

    fn churny() -> ChurnModel {
        ChurnModel {
            join_rate: 1.5,
            leave_prob: 0.02,
            crash_prob: 0.03,
            recover_prob: 0.3,
        }
    }

    /// The paper's periodic mode: hiergossip restart, no churn, no
    /// within-epoch recovery.
    fn periodic(votes: VoteProcess, epochs: usize) -> ContinuousOptions {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.votes = votes;
        opts.epochs = epochs;
        opts
    }

    #[test]
    fn no_churn_hier_tracks_like_periodic() {
        let out = run_continuous(&base(64), &periodic(VoteProcess::Fixed, 3), 5);
        assert_eq!(out.termination, Termination::Completed);
        assert_eq!(out.epochs.len(), 3);
        for e in &out.epochs {
            assert_eq!(e.up, 64);
            assert!(
                e.completeness > 0.9,
                "epoch {} cpl {}",
                e.epoch,
                e.completeness
            );
            assert!(e.tracking_error() < 1.0, "err {}", e.tracking_error());
        }
    }

    #[test]
    fn drift_is_tracked() {
        let drift = VoteProcess::Drift {
            rate: 2.0,
            noise: 0.1,
        };
        let out = run_continuous(&lossy(64), &periodic(drift, 5), 9);
        assert_eq!(out.epochs.len(), 5);
        // the true value drifts upward ~2.0/epoch and the estimate follows
        for w in out.epochs.windows(2) {
            assert!(w[1].true_value > w[0].true_value + 1.0);
        }
        for e in &out.epochs {
            assert!(
                e.tracking_error() < 2.0,
                "epoch {} error {}",
                e.epoch,
                e.tracking_error()
            );
        }
    }

    #[test]
    fn random_walk_changes_truth() {
        let walk = VoteProcess::RandomWalk { sigma: 5.0 };
        let out = run_continuous(&lossy(32), &periodic(walk, 4), 3);
        let truths: Vec<f64> = out.epochs.iter().map(|e| e.true_value).collect();
        let distinct = truths.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9);
        assert!(distinct, "random walk must move the truth: {truths:?}");
    }

    #[test]
    fn crashes_accumulate_across_epochs() {
        let mut cfg = lossy(128);
        cfg.pf = 0.01;
        let out = run_continuous(&cfg, &periodic(VoteProcess::Fixed, 4), 11);
        let up: Vec<usize> = out.epochs.iter().map(|e| e.up).collect();
        assert!(
            up.windows(2).all(|w| w[1] <= w[0]),
            "without churn the up-membership must shrink monotonically: {up:?}"
        );
        assert!(
            up[up.len() - 1] < up[0],
            "some members should have crashed over 4 epochs at pf=0.01"
        );
    }

    #[test]
    fn crash_collapse_is_reported_at_first_unrun_epoch() {
        // pf high enough that a 16-member group dies within a few
        // epochs; the truncation must be visible in the termination
        let mut cfg = lossy(16);
        cfg.pf = 0.35;
        let out = run_continuous(&cfg, &periodic(VoteProcess::Fixed, 12), 7);
        assert!(out.epochs.len() < 12, "group should have collapsed");
        assert!(out.collapsed());
        match out.termination {
            Termination::GroupCollapsed { epoch, survivors } => {
                assert_eq!(epoch, out.epochs.len(), "collapse at first unrun epoch");
                assert!(survivors < 2);
            }
            Termination::Completed => unreachable!("checked above"),
        }
    }

    #[test]
    fn even_count_median_averages_middle_pair() {
        let median = |values: &[f64]| {
            let mut acc = EpochAccumulator::new(values.len());
            for &v in values {
                acc.publish(v, values.len());
            }
            acc.median_estimate()
        };
        // median of {1, 3, 5, 7} is 4, not the upper-middle 5
        assert_eq!(median(&[5.0, 1.0, 7.0, 3.0]), 4.0);
        // odd counts return the middle element
        assert_eq!(median(&[5.0, 1.0, 7.0]), 5.0);
    }

    #[test]
    fn churn_run_is_deterministic() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 6;
        opts.churn = churny();
        opts.votes = VoteProcess::RandomWalk { sigma: 0.5 };
        let cfg = base(48);
        let a = run_continuous(&cfg, &opts, 9);
        let b = run_continuous(&cfg, &opts, 9);
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.up, y.up);
            assert_eq!(x.messages, y.messages);
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.completeness.to_bits(), y.completeness.to_bits());
        }
    }

    #[test]
    fn joins_grow_the_population() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 6;
        opts.churn = ChurnModel {
            join_rate: 3.0,
            ..ChurnModel::none()
        };
        let out = run_continuous(&base(32), &opts, 3);
        let first = out.epochs.first().unwrap();
        let last = out.epochs.last().unwrap();
        assert!(last.population > first.population);
        assert!(last.up > first.up, "joined members must re-enter the view");
        assert!(out.epochs.iter().skip(1).any(|e| e.joins > 0));
    }

    #[test]
    fn flow_updating_survives_churn_and_tracks() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::FlowUpdating);
        opts.epochs = 8;
        opts.churn = ChurnModel {
            join_rate: 0.5,
            leave_prob: 0.01,
            crash_prob: 0.02,
            recover_prob: 0.5,
        };
        let out = run_continuous(&base(48), &opts, 11);
        assert_eq!(out.epochs.len(), 8);
        for e in &out.epochs {
            assert!(e.published > 0, "epoch {} published nothing", e.epoch);
            assert!(e.completeness > 0.0);
        }
        // mass conservation keeps the persistent estimate near the
        // truth once the overlay has mixed for a few epochs
        let late = &out.epochs[out.epochs.len() - 1];
        assert!(
            late.tracking_error() < 10.0,
            "late error {}",
            late.tracking_error()
        );
    }

    #[test]
    fn recovered_members_reenter_the_hierarchy() {
        // crash-heavy churn with certain recovery: up-count dips and
        // rebounds, which only happens if recovered members re-enter
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 10;
        opts.churn = ChurnModel {
            join_rate: 0.0,
            leave_prob: 0.0,
            crash_prob: 0.25,
            recover_prob: 1.0,
        };
        let out = run_continuous(&base(32), &opts, 21);
        assert_eq!(out.epochs.len(), 10);
        let recoveries: usize = out.epochs.iter().map(|e| e.recoveries).sum();
        assert!(recoveries > 0, "someone must have recovered");
        // every crash recovers one epoch later, so membership never
        // drains and every epoch publishes
        for e in &out.epochs {
            assert!(e.published > 0);
        }
    }

    #[test]
    fn per_round_with_recovery_reachable_end_to_end() {
        // pf > 0 with recovery > 0 drives PerRoundWithRecovery through
        // the full runner stack; `recovery = 0` keeps PerRound
        let mut cfg = base(48);
        cfg.pf = 0.01;
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 4;
        opts.recovery = 0.5;
        let with_recovery = run_continuous(&cfg, &opts, 13);
        assert_eq!(with_recovery.epochs.len(), 4);

        // same scenario without recovery loses strictly more members
        let mut opts_no = opts;
        opts_no.recovery = 0.0;
        let without = run_continuous(&cfg, &opts_no, 13);
        let up_with: usize = with_recovery.epochs.iter().map(|e| e.up).sum();
        let up_without: usize = without.epochs.iter().map(|e| e.up).sum();
        assert!(
            up_with >= up_without,
            "recovery must not shrink membership: {up_with} vs {up_without}"
        );
        let published: usize = with_recovery.epochs.iter().map(|e| e.published).sum();
        assert!(published > 0);
    }

    #[test]
    fn collapse_is_surfaced() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 20;
        opts.churn = ChurnModel {
            join_rate: 0.0,
            leave_prob: 0.4,
            crash_prob: 0.3,
            recover_prob: 0.0,
        };
        let out = run_continuous(&base(16), &opts, 3);
        assert!(out.collapsed(), "group should have drained");
        assert!(out.epochs.len() < 20);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
        opts.epochs = 0;
        let _ = run_continuous(&base(16), &opts, 1);
    }

    #[test]
    fn fu_epoch_restarts_do_not_amplify_extremes() {
        // Regression guard for the dual-writer flow oscillation: with the
        // broadcast averaging variant, every epoch re-arm pumped a
        // mass-conserving oscillation whose *median* stayed perfect while
        // the extreme members diverged without bound (~×1.6 per epoch on a
        // lossless network). Pin the maximum member error and the global
        // mass imbalance, not just the published median.
        use crate::runner::network_config_for;
        let n = 96usize;
        let cfg = {
            let mut c = ExperimentConfig::paper_defaults()
                .with_n(n)
                .with_ucastl(0.0);
            c.pf = 0.0;
            c
        };
        let fu = FlowUpdatingConfig::default();
        let up: Vec<MemberId> = (0..n as u32).map(MemberId).collect();
        let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let truth = (n - 1) as f64 / 2.0;
        let mut protocols: Vec<FlowUpdating> = (0..n)
            .map(|i| FlowUpdating::new(MemberId(i as u32), votes[i], n, Vec::new(), fu))
            .collect();
        let mut last_maxerr = f64::INFINITY;
        for epoch in 0..12u64 {
            for (idx, &m) in up.iter().enumerate() {
                protocols[m.index()].rearm(votes[m.index()], ring_chord_neighbors(&up, idx));
            }
            let epoch_seed = 5u64.wrapping_add(0x1000 + epoch);
            let net = SimNetwork::new(network_config_for(&cfg, None), epoch_seed);
            let failure =
                FailureProcess::with_liveness(FailureModel::None, vec![true; n], epoch_seed);
            let moved = std::mem::take(&mut protocols);
            let (_run, returned) = Simulation::new(
                net,
                moved,
                failure,
                epoch_seed,
                0.0,
                u64::from(fu.rounds_per_epoch) + 2,
            )
            .run_returning();
            protocols = returned;
            last_maxerr = protocols
                .iter()
                .map(|p| (p.local_estimate() - truth).abs())
                .fold(0.0f64, f64::max);
            let mass: f64 = protocols.iter().map(FlowUpdating::local_estimate).sum();
            let imbalance = (mass - votes.iter().sum::<f64>()).abs();
            assert!(
                last_maxerr < 50.0,
                "epoch {epoch}: max member error {last_maxerr} amplified past the initial spread"
            );
            // the freeze-point snapshot carries in-flight pairwise
            // corrections, so early epochs show a bounded transient
            // imbalance; it must never amplify
            assert!(
                imbalance < 15.0,
                "epoch {epoch}: mass imbalance {imbalance}"
            );
            if epoch >= 6 {
                assert!(
                    imbalance < 0.01,
                    "epoch {epoch}: mass imbalance {imbalance} failed to decay"
                );
            }
        }
        assert!(
            last_maxerr < 0.01,
            "extremes must converge across epochs, still at {last_maxerr}"
        );
    }
}
