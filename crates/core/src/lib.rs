//! # gridagg-core
//!
//! The protocols of *"Scalable Fault-Tolerant Aggregation in Large
//! Process Groups"* (Gupta, van Renesse, Birman — DSN 2001), with the
//! simulation engine and experiment machinery that reproduce the paper's
//! evaluation.
//!
//! ## What's here
//!
//! * [`hiergossip`] — **Hierarchical Gossiping** (§6.3), the paper's
//!   contribution: one-shot computation of a composable global aggregate
//!   at *every* member of a large group over a lossy, crash-prone
//!   network, by gossiping within successively taller subtrees of the
//!   Grid Box Hierarchy. `O(N·log²N)` messages, `O(log²N)` rounds,
//!   completeness ≥ `1 − 1/N` under the paper's assumptions.
//! * [`baselines`] — everything the paper compares against: flood (§4),
//!   centralized leader (§5), hierarchical leader election (§6.2), and
//!   flat gossip (no hierarchy) as an ablation.
//! * [`engine`] — the round-driven simulator loop; [`metrics`] — the
//!   completeness / message / time measurements; [`experiment`] —
//!   parallel multi-seed sweeps; [`runner`] — one-call entry points;
//!   [`config`] — the §7 parameter set with the paper's defaults.
//!
//! ## Quickstart
//!
//! ```
//! use gridagg_core::config::ExperimentConfig;
//! use gridagg_core::runner::run_hiergossip;
//! use gridagg_aggregate::Average;
//!
//! // The paper's default setting: N=200, K=4, M=2, C=1.0,
//! // ucastl=0.25, pf=0.001.
//! let cfg = ExperimentConfig::paper_defaults();
//! let report = run_hiergossip::<Average>(&cfg, 42);
//! let completeness = report.mean_completeness().unwrap();
//! assert!(completeness > 0.9); // robust despite 25% message loss
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod baselines;
pub mod config;
pub mod continuous;
pub mod engine;
pub mod experiment;
pub mod hiergossip;
pub mod json;
pub mod message;
pub mod metrics;
pub mod protocol;
pub mod runner;
pub mod scope;
pub mod trace;

pub use config::ExperimentConfig;
pub use engine::Simulation;
pub use experiment::{run_many, summarize, Summary};
pub use hiergossip::{HierGossip, HierGossipConfig};
pub use message::Payload;
pub use metrics::{MemberOutcome, RunReport};
pub use protocol::{AggregationProtocol, Ctx, Outbox};
pub use scope::ScopeIndex;
pub use trace::{NoTrace, RunTrace, TraceEvent, TraceSink};
