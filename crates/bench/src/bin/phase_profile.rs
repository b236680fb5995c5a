//! Phase profile — where does incompleteness come from?
//!
//! Runs one N=200 hiergossip simulation at 25% message loss and reads
//! the per-member [`PhaseTrace`] records off the protocol instances the
//! engine hands back, then reports, per phase: how many members
//! finished it missing components, the mean votes covered, and the
//! phase-end round distribution. This is the diagnostic that motivated
//! the reactive-reply exchange (DESIGN.md §6).
//!
//! [`PhaseTrace`]: gridagg_core::hiergossip::PhaseTrace

use gridagg_aggregate::Average;
use gridagg_bench::{base_seed, print_table, sci, write_csv};
use gridagg_core::engine::Simulation;
use gridagg_core::hiergossip::{HierGossip, HierGossipConfig};
use gridagg_core::protocol::AggregationProtocol;
use gridagg_core::scope::ScopeIndex;
use gridagg_group::failure::{FailureModel, FailureProcess};
use gridagg_group::view::View;
use gridagg_group::{GroupBuilder, VoteDistribution};
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_simnet::loss::UniformLoss;
use gridagg_simnet::network::{NetworkConfig, SimNetwork};

fn main() {
    let n = 200usize;
    let seed = base_seed();
    let group = GroupBuilder::new(n)
        .votes(VoteDistribution::Index)
        .seed(seed)
        .build();
    let h = Hierarchy::for_group(4, n).unwrap();
    let index = ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, seed));
    let protos: Vec<HierGossip<Average>> = group
        .members()
        .iter()
        .map(|m| HierGossip::new(m.id, m.vote, index.clone(), HierGossipConfig::default()))
        .collect();
    let net = SimNetwork::new(
        NetworkConfig::default().with_loss(UniformLoss::new(0.25).expect("valid")),
        seed,
    );
    let failure = FailureProcess::new(FailureModel::None, n, seed);
    let truth = (n as f64 - 1.0) / 2.0; // mean of the index votes 0..n-1
    let (_, protos) = Simulation::new(net, protos, failure, seed, truth, 500).run_returning();

    let phases = h.phases();
    let mut rows = Vec::new();
    for ph in 1..=phases {
        let (mut total, mut incomplete, mut missing, mut votes, mut last) = (0, 0, 0, 0usize, 0);
        for p in &protos {
            for t in &p.trace {
                if t.phase == ph {
                    total += 1;
                    if t.known < t.expected {
                        incomplete += 1;
                        missing += t.expected - t.known;
                    }
                    votes += t.votes;
                    last = last.max(t.at);
                }
            }
        }
        rows.push(vec![
            ph.to_string(),
            format!("{incomplete}/{total}"),
            missing.to_string(),
            format!("{:.1}", votes as f64 / total.max(1) as f64),
            last.to_string(),
        ]);
    }
    print_table(
        "Phase profile (N=200, ucastl=0.25): component losses by phase",
        &[
            "phase",
            "members short",
            "missing components",
            "mean votes",
            "last finish",
        ],
        &rows,
    );
    write_csv(
        "phase_profile.csv",
        &[
            "phase",
            "members_short",
            "missing_components",
            "mean_votes",
            "last_finish",
        ],
        &rows,
    );
    let mean_c: f64 = protos
        .iter()
        .filter_map(|p| p.estimate().map(|e| e.completeness(n)))
        .sum::<f64>()
        / n as f64;
    println!("final mean completeness: {}", sci(mean_c));
}
