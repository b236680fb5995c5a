//! # gridagg
//!
//! A complete Rust implementation of **"Scalable Fault-Tolerant
//! Aggregation in Large Process Groups"** (Gupta, van Renesse, Birman —
//! DSN 2001): the **Grid Box Hierarchy** and the **Hierarchical
//! Gossiping** protocol, together with every substrate the paper's
//! evaluation depends on — a deterministic lossy network simulator,
//! group membership with crash injection, composable aggregate
//! functions with no-double-counting enforcement, the paper's baseline
//! protocols, and its epidemic-theoretic analysis.
//!
//! This crate is a facade: it re-exports the workspace crates so an
//! application can depend on `gridagg` alone.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `gridagg-core` | Hierarchical Gossiping, baselines, engine, experiments |
//! | [`hierarchy`] | `gridagg-hierarchy` | grid box addresses, fair & topological placement |
//! | [`aggregate`] | `gridagg-aggregate` | composable `f`/`g` functions, vote sets, wire codec |
//! | [`group`] | `gridagg-group` | members, votes, views, failure injection |
//! | [`simnet`] | `gridagg-simnet` | round-based lossy network simulator |
//! | [`analysis`] | `gridagg-analysis` | Bailey epidemics, `C_1`/`C_i` bounds, Theorem 1 |
//!
//! # Quickstart
//!
//! Compute the average of 200 sensor readings across a group with 25%
//! message loss and per-round crashes, exactly the paper's §7 default
//! setting:
//!
//! ```
//! use gridagg::prelude::*;
//!
//! let cfg = ExperimentConfig::paper_defaults();
//! let report = run_hiergossip::<Average>(&cfg, 42);
//! // Despite heavy loss, nearly every vote reaches every member:
//! assert!(report.mean_completeness().unwrap() > 0.9);
//! ```
//!
//! See `examples/` for the airplane-wing sensor scenario, a soft
//! network partition study, and an Internet-scale protocol comparison.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub use gridagg_aggregate as aggregate;
pub use gridagg_analysis as analysis;
pub use gridagg_core as core;
pub use gridagg_group as group;
pub use gridagg_hierarchy as hierarchy;
pub use gridagg_runtime as runtime;
pub use gridagg_simnet as simnet;

/// The most common imports in one place.
pub mod prelude {
    pub use gridagg_aggregate::{
        Aggregate, Average, Count, Histogram16, Max, MeanVar, Min, Sum, Tagged, TopK, VoteSet,
    };
    pub use gridagg_analysis::{c1, c1_incompleteness, ci_lower_bound, theorem1_bound};
    pub use gridagg_core::baselines::{
        Centralized, CentralizedConfig, FlatGossip, FlatGossipConfig, Flood, FloodConfig,
        FlowUpdating, FlowUpdatingConfig, LeaderDirectory, LeaderElection, LeaderElectionConfig,
    };
    pub use gridagg_core::config::{ExperimentConfig, VoteSpec};
    pub use gridagg_core::continuous::{
        run_continuous, ChurnEpochReport, ContinuousOptions, ContinuousOutcome, ContinuousProtocol,
        VoteProcess,
    };
    pub use gridagg_core::runner::{
        run_centralized, run_flatgossip, run_flood, run_hiergossip, run_leader_election,
    };
    pub use gridagg_core::{
        run_many, summarize, AggregationProtocol, HierGossip, HierGossipConfig, MemberOutcome,
        RunReport, ScopeIndex, Simulation, Summary,
    };
    pub use gridagg_group::{
        failure::FailureModel,
        membership::{ChurnModel, MembershipProcess},
        view::View,
        GroupBuilder, MemberId, VoteDistribution,
    };
    pub use gridagg_hierarchy::{
        Addr, ExplicitPlacement, FairHashPlacement, Hierarchy, Placement, PrefixPlacement,
        TopologicalPlacement,
    };
    pub use gridagg_simnet::{
        loss::{PartitionLoss, Perfect, UniformLoss},
        network::{NetworkConfig, SimNetwork},
        rng::DetRng,
        topology::{FieldKind, Position},
        NodeId, Round,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let h = Hierarchy::for_group(2, 8).unwrap();
        assert_eq!(h.phases(), 3);
        let cfg = ExperimentConfig::paper_defaults();
        assert_eq!(cfg.n, 200);
    }
}
