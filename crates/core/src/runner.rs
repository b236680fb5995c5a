//! Simulator assembly: config + seed → [`Simulation`] → [`RunReport`].
//!
//! One private `assemble` builds what every protocol shares, in one
//! fixed order: it validates the config, builds the group, asks the
//! protocol for its instances and round cap, then adds the lossy
//! network, the within-epoch failure process and the ground truth. All
//! five protocols of the §7 comparison therefore run under one fault
//! model by construction. A public `*_sim` builder per protocol supplies
//! only its instances and round cap, and the matching `run_*` function
//! runs the built simulation to completion. These are the entry points
//! used by the examples and the figure-regeneration binaries; to record
//! a run, call `run_with(&mut RunTrace::for_group(n))` on a builder's
//! simulation instead of `run()`.

use std::sync::Arc;

use gridagg_aggregate::wire::WireAggregate;
use gridagg_group::failure::FailureProcess;
use gridagg_group::membership::MembershipProcess;
use gridagg_group::view::View;
use gridagg_group::{Group, GroupBuilder};
use gridagg_hierarchy::{FairHashPlacement, Hierarchy, TopologicalPlacement};
use gridagg_simnet::loss::{PartitionLoss, Perfect, UniformLoss};
use gridagg_simnet::network::{NetworkConfig, SimNetwork};
use gridagg_simnet::topology::FieldKind;

use crate::baselines::{
    Centralized, CentralizedConfig, FlatGossip, FlatGossipConfig, Flood, FloodConfig,
    LeaderDirectory, LeaderElection, LeaderElectionConfig,
};
use crate::config::ExperimentConfig;
use crate::engine::Simulation;
use crate::hiergossip::HierGossip;
use crate::metrics::RunReport;
use crate::protocol::AggregationProtocol;
use crate::scope::ScopeIndex;

/// Build the group for a config (positions included when the config
/// needs topology awareness).
pub(crate) fn build_group_for(cfg: &ExperimentConfig, seed: u64) -> Group {
    let mut b = GroupBuilder::new(cfg.n).votes(cfg.vote.into()).seed(seed);
    if cfg.topo_aware || cfg.positioned {
        b = b.field(FieldKind::UniformRandom);
    }
    b.build()
}

/// Network configuration for an experiment (loss model, bandwidth cap,
/// optional positions for distance accounting).
pub(crate) fn network_config_for(
    cfg: &ExperimentConfig,
    positions: Option<Vec<gridagg_simnet::topology::Position>>,
) -> NetworkConfig {
    let mut net_cfg = NetworkConfig::default();
    net_cfg = match cfg.partl {
        Some(partl) => net_cfg.with_loss(
            PartitionLoss::new((cfg.n / 2) as u32, partl, cfg.ucastl)
                .expect("validated probabilities"),
        ),
        None if cfg.ucastl > 0.0 => {
            net_cfg.with_loss(UniformLoss::new(cfg.ucastl).expect("validated probability"))
        }
        None => net_cfg.with_loss(Perfect),
    };
    if let Some(cap) = cfg.bandwidth_cap {
        net_cfg = net_cfg.with_bandwidth_cap(cap);
    }
    if let Some(max_delay) = cfg.max_delay {
        net_cfg = net_cfg.with_delay(gridagg_simnet::delay::UniformDelay::new(1, max_delay));
    }
    if let Some(positions) = positions {
        net_cfg = net_cfg.with_positions(positions);
    }
    net_cfg
}

/// Build the scope index (fair hash or topologically aware placement).
fn build_index(cfg: &ExperimentConfig, group: &Group, seed: u64) -> Arc<ScopeIndex> {
    let hierarchy = Hierarchy::for_group(cfg.k, cfg.n_estimate.unwrap_or(cfg.n))
        .expect("validated group size and K");
    let view = View::complete(cfg.n);
    if cfg.topo_aware {
        let positions = group.positions().expect("topo-aware group has positions");
        let placement = TopologicalPlacement::new(hierarchy, &positions);
        ScopeIndex::build(&view, &placement)
    } else {
        let placement = FairHashPlacement::new(hierarchy, seed ^ 0x5A17);
        ScopeIndex::build(&view, &placement)
    }
}

/// Assemble one run: validate `cfg`, build the group, take the protocol
/// instances and round cap from `protocols`, then add the network, the
/// per-round crash process and the group's true aggregate.
fn assemble<A, P>(
    cfg: &ExperimentConfig,
    seed: u64,
    protocols: impl FnOnce(&Group) -> (Vec<P>, u64),
) -> Simulation<A, P>
where
    A: WireAggregate,
    P: AggregationProtocol<A> + Send,
{
    cfg.validate().expect("invalid experiment config");
    let group = build_group_for(cfg, seed);
    let (protocols, max_rounds) = protocols(&group);
    let net = SimNetwork::new(network_config_for(cfg, group.positions()), seed);
    let model = MembershipProcess::within_epoch_model(cfg.pf, 0.0);
    let failure = FailureProcess::new(model, cfg.n, seed);
    let truth = group.true_aggregate::<A>().summary();
    Simulation::new(net, protocols, failure, seed, truth, max_rounds)
        .with_engine_jobs(cfg.engine_jobs)
}

/// Assemble the **Hierarchical Gossiping** protocol (the paper's §6.3
/// contribution), with partial views and staggered starts when `cfg`
/// asks for them.
///
/// # Panics
///
/// Panics if `cfg` fails [`ExperimentConfig::validate`].
pub fn hiergossip_sim<A: WireAggregate>(
    cfg: &ExperimentConfig,
    seed: u64,
) -> Simulation<A, HierGossip<A>> {
    let sim = assemble(cfg, seed, |group| {
        let index = build_index(cfg, group, seed);
        let mut view_rng = gridagg_simnet::rng::DetRng::seeded(seed).fork(0x7669_6577); // "view"
        let protocols = group
            .members()
            .iter()
            .map(|m| {
                let p = HierGossip::new(m.id, m.vote, index.clone(), cfg.hier_config());
                match cfg.partial_view {
                    Some(size) => {
                        let view = View::sampled(m.id, cfg.n, size, &mut view_rng);
                        p.with_view(view.members().to_vec())
                    }
                    None => p,
                }
            })
            .collect();
        (protocols, cfg.max_rounds())
    });
    match cfg.start_spread {
        Some(spread) => {
            let mut start_rng = gridagg_simnet::rng::DetRng::seeded(seed).fork(0x7374_6172); // "star"
            let starts = (0..cfg.n)
                .map(|_| start_rng.below(spread.max(1) as usize) as u64)
                .collect();
            sim.with_start_rounds(starts)
        }
        None => sim,
    }
}

/// Run [`hiergossip_sim`] once.
///
/// # Panics
///
/// Panics if `cfg` fails [`ExperimentConfig::validate`].
pub fn run_hiergossip<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> RunReport {
    hiergossip_sim::<A>(cfg, seed).run()
}

/// Assemble the §4 fully distributed (flood) baseline.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn flood_sim<A: WireAggregate>(
    cfg: &ExperimentConfig,
    flood_cfg: FloodConfig,
    seed: u64,
) -> Simulation<A, Flood<A>> {
    assemble(cfg, seed, |group| {
        let protocols = group
            .members()
            .iter()
            .map(|m| Flood::new(m.id, m.vote, cfg.n, flood_cfg))
            .collect();
        let per_round = flood_cfg.per_round.max(1) as u64;
        let max_rounds = (cfg.n as u64).div_ceil(per_round) + flood_cfg.grace as u64 + 8;
        (protocols, max_rounds)
    })
}

/// Run [`flood_sim`] once.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_flood<A: WireAggregate>(
    cfg: &ExperimentConfig,
    flood_cfg: FloodConfig,
    seed: u64,
) -> RunReport {
    flood_sim::<A>(cfg, flood_cfg, seed).run()
}

/// Assemble the §5 centralized-leader baseline.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn centralized_sim<A: WireAggregate>(
    cfg: &ExperimentConfig,
    central_cfg: CentralizedConfig,
    seed: u64,
) -> Simulation<A, Centralized<A>> {
    assemble(cfg, seed, |group| {
        let protocols = group
            .members()
            .iter()
            .map(|m| Centralized::new(m.id, m.vote, cfg.n, central_cfg))
            .collect();
        (protocols, central_cfg.deadline(cfg.n) + 8)
    })
}

/// Run [`centralized_sim`] once.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_centralized<A: WireAggregate>(
    cfg: &ExperimentConfig,
    central_cfg: CentralizedConfig,
    seed: u64,
) -> RunReport {
    centralized_sim::<A>(cfg, central_cfg, seed).run()
}

/// Assemble the §6.2 hierarchical leader-election baseline.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn leader_election_sim<A: WireAggregate>(
    cfg: &ExperimentConfig,
    le_cfg: LeaderElectionConfig,
    seed: u64,
) -> Simulation<A, LeaderElection<A>> {
    assemble(cfg, seed, |group| {
        let index = build_index(cfg, group, seed);
        let directory = LeaderDirectory::build(&index, &le_cfg);
        let protocols: Vec<LeaderElection<A>> = group
            .members()
            .iter()
            .map(|m| LeaderElection::new(m.id, m.vote, index.clone(), directory.clone(), le_cfg))
            .collect();
        let max_rounds = protocols[0].schedule_rounds() + 8;
        (protocols, max_rounds)
    })
}

/// Run [`leader_election_sim`] once.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_leader_election<A: WireAggregate>(
    cfg: &ExperimentConfig,
    le_cfg: LeaderElectionConfig,
    seed: u64,
) -> RunReport {
    leader_election_sim::<A>(cfg, le_cfg, seed).run()
}

/// Assemble the flat-gossip (no hierarchy) ablation, with the same
/// round budget the hierarchical protocol would get.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn flatgossip_sim<A: WireAggregate>(
    cfg: &ExperimentConfig,
    seed: u64,
) -> Simulation<A, FlatGossip<A>> {
    assemble(cfg, seed, |group| {
        let hierarchy = Hierarchy::for_group(cfg.k, cfg.n).expect("validated");
        let budget = hierarchy.phases() as u32 * cfg.hier_config().rounds_per_phase(cfg.n);
        let fg_cfg = FlatGossipConfig {
            fanout: cfg.fanout,
            total_rounds: budget,
        };
        let protocols = group
            .members()
            .iter()
            .map(|m| FlatGossip::new(m.id, m.vote, cfg.n, fg_cfg))
            .collect();
        (protocols, budget as u64 + 8)
    })
}

/// Run [`flatgossip_sim`] once.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub fn run_flatgossip<A: WireAggregate>(cfg: &ExperimentConfig, seed: u64) -> RunReport {
    flatgossip_sim::<A>(cfg, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MemberOutcome;
    use crate::trace::RunTrace;
    use gridagg_aggregate::Average;

    fn perfect(n: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::default().with_n(n).with_ucastl(0.0);
        c.pf = 0.0;
        c
    }

    #[test]
    fn all_protocols_complete_on_perfect_network() {
        let cfg = perfect(64);
        // hierarchical gossip has a small residual straggler race even
        // on a perfect network (a member can time a phase out one round
        // before the rescuing reply lands), so allow a hair below 1.0
        let hier = run_hiergossip::<Average>(&cfg, 1);
        assert!(hier.mean_completeness().unwrap() > 0.99);
        let flood = run_flood::<Average>(&cfg, FloodConfig::default(), 1);
        assert_eq!(flood.mean_completeness(), Some(1.0));
        let central = run_centralized::<Average>(&cfg, CentralizedConfig::for_group(64), 1);
        assert_eq!(central.mean_completeness(), Some(1.0));
        let leader = run_leader_election::<Average>(&cfg, LeaderElectionConfig::default(), 1);
        assert_eq!(leader.mean_completeness(), Some(1.0));
    }

    #[test]
    fn all_protocols_compute_the_true_average() {
        let cfg = perfect(32);
        // deterministic protocols are exact; gossip is near-exact (see
        // the straggler note above)
        let hier = run_hiergossip::<Average>(&cfg, 2);
        assert!(hier.mean_value_error().unwrap() < 1e-2);
        for report in [
            run_flood::<Average>(&cfg, FloodConfig::default(), 2),
            run_centralized::<Average>(&cfg, CentralizedConfig::for_group(32), 2),
            run_leader_election::<Average>(&cfg, LeaderElectionConfig::default(), 2),
        ] {
            assert!(
                report.mean_value_error().unwrap() < 1e-12,
                "error {:?}",
                report.mean_value_error()
            );
        }
    }

    #[test]
    fn flatgossip_less_complete_than_hier_at_scale() {
        let cfg = ExperimentConfig::default().with_n(400);
        let hier = run_hiergossip::<Average>(&cfg, 3);
        let flat = run_flatgossip::<Average>(&cfg, 3);
        assert!(
            hier.mean_completeness() > flat.mean_completeness(),
            "hier {:?} flat {:?}",
            hier.mean_completeness(),
            flat.mean_completeness()
        );
    }

    #[test]
    fn lossy_network_still_mostly_complete() {
        let cfg = ExperimentConfig::default(); // ucastl 0.25, pf 0.001
        let report = run_hiergossip::<Average>(&cfg, 4);
        let mc = report.mean_completeness().unwrap();
        assert!(mc > 0.9, "mean completeness {mc}");
    }

    #[test]
    fn leader_crash_wipes_centralized_run() {
        // With per-round crash probability 0.05 the leader (member 0)
        // dies before dissemination in at least one of a handful of
        // seeded runs, leaving survivors with own-vote-only estimates —
        // §5's single-point-of-failure pathology.
        let mut cfg = perfect(32);
        cfg.pf = 0.05;
        let wiped = (0..8).any(|seed| {
            let report = run_centralized::<Average>(&cfg, CentralizedConfig::for_group(32), seed);
            report.outcomes.iter().any(|o| {
                matches!(o, MemberOutcome::Completed { completeness, .. }
                    if *completeness <= 2.0 / 32.0)
            })
        });
        assert!(wiped, "no run showed the leader-failure pathology");
    }

    #[test]
    fn hiergossip_deterministic_per_seed() {
        let cfg = ExperimentConfig::default();
        let a = run_hiergossip::<Average>(&cfg, 11);
        let b = run_hiergossip::<Average>(&cfg, 11);
        assert_eq!(a.mean_completeness(), b.mean_completeness());
        assert_eq!(a.net.sent, b.net.sent);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn builders_run_with_a_trace_match_plain_runners() {
        let cfg = ExperimentConfig::default().with_n(48);
        let seed = 7;
        let central = CentralizedConfig::for_group(48);
        let leader = LeaderElectionConfig::default();
        type Traced<'a> = Box<dyn Fn(&mut RunTrace) -> RunReport + 'a>;
        let cases: [(&str, RunReport, Traced); 5] = [
            (
                "hiergossip",
                run_hiergossip::<Average>(&cfg, seed),
                Box::new(|t| hiergossip_sim::<Average>(&cfg, seed).run_with(t)),
            ),
            (
                "flatgossip",
                run_flatgossip::<Average>(&cfg, seed),
                Box::new(|t| flatgossip_sim::<Average>(&cfg, seed).run_with(t)),
            ),
            (
                "flood",
                run_flood::<Average>(&cfg, FloodConfig::default(), seed),
                Box::new(|t| flood_sim::<Average>(&cfg, FloodConfig::default(), seed).run_with(t)),
            ),
            (
                "centralized",
                run_centralized::<Average>(&cfg, central, seed),
                Box::new(|t| centralized_sim::<Average>(&cfg, central, seed).run_with(t)),
            ),
            (
                "leader",
                run_leader_election::<Average>(&cfg, leader, seed),
                Box::new(|t| leader_election_sim::<Average>(&cfg, leader, seed).run_with(t)),
            ),
        ];
        for (name, plain, with_trace) in cases {
            let mut trace = RunTrace::for_group(cfg.n);
            let traced = with_trace(&mut trace);
            assert_eq!(plain.rounds, traced.rounds, "{name}: rounds");
            assert_eq!(plain.net, traced.net, "{name}: network stats");
            assert_eq!(plain.outcomes, traced.outcomes, "{name}: outcomes");
            assert_eq!(
                plain.protocol_steps, traced.protocol_steps,
                "{name}: protocol steps"
            );
            assert!(!trace.is_empty(), "{name}: empty trace");
            assert_eq!(trace.group_size(), 48, "{name}: trace group size");
        }
    }

    #[test]
    fn topo_aware_run_reduces_long_haul_share() {
        let mut cfg = perfect(256);
        cfg.topo_aware = true;
        let topo = run_hiergossip::<Average>(&cfg, 5);
        assert_eq!(topo.mean_completeness(), Some(1.0));
        let share = topo.net.long_haul_share(4);
        assert!(share < 0.5, "long-haul share {share}");
    }
}
