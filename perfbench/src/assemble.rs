//! Hierarchical gossip assembled from the public constructors, one
//! timed stage per layer, so set-up can be measured apart from the run.
//!
//! The assembly is the one `run_hiergossip` performs for the configs
//! the benchmark uses (fair-hash placement, complete views,
//! simultaneous start, uniform or soft-partition loss, per-round
//! crashes); `tests/assembly.rs` holds it to equal reports. `wrap`
//! lets the traced run put a decorator around each protocol instance.

use std::time::Instant;

use gridagg_aggregate::{Aggregate, Average};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::engine::Simulation;
use gridagg_core::hiergossip::HierGossip;
use gridagg_core::protocol::AggregationProtocol;
use gridagg_core::scope::ScopeIndex;
use gridagg_group::failure::{FailureModel, FailureProcess};
use gridagg_group::view::View;
use gridagg_group::GroupBuilder;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_simnet::loss::{PartitionLoss, Perfect, UniformLoss};
use gridagg_simnet::network::{NetworkConfig, SimNetwork};

/// The aggregate every workload computes (the paper's average).
pub type Agg = Average;

/// When each set-up layer started and ended: `marks[i]..marks[i + 1]`
/// is stage `i` of [`SetupTimes::STAGES`].
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Stage boundaries, in order.
    pub marks: [Instant; 5],
}

impl SetupTimes {
    /// The set-up layers: `GroupBuilder::build`; hierarchy, placement
    /// and `ScopeIndex::build`; `HierGossip::new` for every member;
    /// network, failure process and `Simulation::new`.
    pub const STAGES: [&'static str; 4] =
        ["setup.group", "setup.scope", "setup.protocols", "setup.sim"];

    /// Seconds spent in stage `i`.
    pub fn stage_s(&self, i: usize) -> f64 {
        (self.marks[i + 1] - self.marks[i]).as_secs_f64()
    }

    /// All set-up layers together.
    pub fn total(&self) -> f64 {
        (self.marks[4] - self.marks[0]).as_secs_f64()
    }
}

/// Reject config fields this assembly does not reproduce, so a grid
/// change cannot silently measure a different program.
fn check_supported(cfg: &ExperimentConfig) {
    cfg.validate().expect("invalid experiment config");
    assert!(
        !cfg.topo_aware
            && !cfg.positioned
            && cfg.partial_view.is_none()
            && cfg.start_spread.is_none()
            && cfg.bandwidth_cap.is_none()
            && cfg.max_delay.is_none(),
        "the benchmark assembly covers fair-hash, complete-view, simultaneous-start configs only: {cfg:?}"
    );
}

/// The network configuration `run_hiergossip` uses for `cfg`: a soft
/// partition at `n / 2` when `partl` is set, else uniform loss.
pub fn network_config(cfg: &ExperimentConfig) -> NetworkConfig {
    let net = NetworkConfig::default();
    match cfg.partl {
        Some(partl) => net.with_loss(
            PartitionLoss::new((cfg.n / 2) as u32, partl, cfg.ucastl)
                .expect("validated probabilities"),
        ),
        None if cfg.ucastl > 0.0 => {
            net.with_loss(UniformLoss::new(cfg.ucastl).expect("validated probability"))
        }
        None => net.with_loss(Perfect),
    }
}

/// The fair-hash scope index `run_hiergossip` builds for `cfg`.
fn scope_index(cfg: &ExperimentConfig, seed: u64) -> std::sync::Arc<ScopeIndex> {
    let hierarchy = Hierarchy::for_group(cfg.k, cfg.n_estimate.unwrap_or(cfg.n))
        .expect("validated group size and K");
    let placement = FairHashPlacement::new(hierarchy, seed ^ 0x5A17);
    ScopeIndex::build(&View::complete(cfg.n), &placement)
}

/// Assemble one run of `cfg` at `seed`, timing each set-up layer.
///
/// # Panics
///
/// Panics if `cfg` is invalid or uses a field the assembly does not
/// cover (see [`check_supported`]).
pub fn assemble<P, F>(
    cfg: &ExperimentConfig,
    seed: u64,
    mut wrap: F,
) -> (Simulation<Agg, P>, SetupTimes)
where
    P: AggregationProtocol<Agg> + Send,
    F: FnMut(HierGossip<Agg>) -> P,
{
    check_supported(cfg);
    let t0 = Instant::now();
    let group = GroupBuilder::new(cfg.n)
        .votes(cfg.vote.into())
        .seed(seed)
        .build();
    let t1 = Instant::now();
    let index = scope_index(cfg, seed);
    let t2 = Instant::now();
    let hier = cfg.hier_config();
    let protocols: Vec<P> = group
        .members()
        .iter()
        .map(|m| wrap(HierGossip::new(m.id, m.vote, index.clone(), hier)))
        .collect();
    let t3 = Instant::now();
    let model = if cfg.pf > 0.0 {
        FailureModel::PerRound { pf: cfg.pf }
    } else {
        FailureModel::None
    };
    let sim = Simulation::new(
        SimNetwork::new(network_config(cfg), seed),
        protocols,
        FailureProcess::new(model, cfg.n, seed),
        seed,
        group.true_aggregate::<Agg>().summary(),
        cfg.max_rounds(),
    )
    .with_engine_jobs(cfg.engine_jobs);
    let t4 = Instant::now();
    (
        sim,
        SetupTimes {
            marks: [t0, t1, t2, t3, t4],
        },
    )
}
