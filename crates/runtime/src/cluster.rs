//! Cluster assembly, outcome collection, and the [`RuntimeReport`].
//!
//! A [`Cluster`] binds the socket pool, shards members across worker
//! threads, and anchors every worker at a shared epoch so round
//! boundaries align cluster-wide. [`Cluster::join`] collects one
//! outcome per member, signals shutdown, joins every worker thread
//! (no thread or socket outlives the call), and folds the per-worker
//! counters into a [`RuntimeReport`] — the real-network mirror of the
//! simulator's `RunReport`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridagg_aggregate::wire::WireAggregate;
use gridagg_core::hiergossip::{HierGossip, HierGossipConfig};
use gridagg_core::scope::ScopeIndex;
use gridagg_group::MemberId;
use gridagg_simnet::rng::DetRng;

use crate::endpoint::EndpointPool;
use crate::multiplex::{Worker, WorkerStats};
use crate::{MemberOutcome, RuntimeConfig, RuntimeError};

/// Shortest round the runtime runs: [`RuntimeConfig::round_interval`]
/// is clamped up to this once, at launch.
const MIN_ROUND_INTERVAL: Duration = Duration::from_micros(200);

/// Aggregated result of one real-network cluster run: the per-member
/// outcomes plus the cluster-wide [`RuntimeReport`].
#[derive(Debug)]
pub struct ClusterRun<A> {
    /// One outcome per member, sorted by member id.
    pub outcomes: Vec<MemberOutcome<A>>,
    /// Cluster-wide wall-clock and wire observability.
    pub report: RuntimeReport,
}

/// The real-network mirror of the simulator's `RunReport`: wall-clock,
/// completeness, and wire-level counters of one cluster run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Group size.
    pub n: usize,
    /// Sockets in the shared pool.
    pub sockets: usize,
    /// Worker threads that drove the shards.
    pub workers: usize,
    /// Epoch-to-last-outcome wall clock.
    pub wall: Duration,
    /// Members that reported an outcome before the collection deadline.
    pub reported: usize,
    /// Mean completeness over **all** `n` members (missing = 0).
    pub mean_completeness: f64,
    /// Minimum completeness (0 if any member failed to report).
    pub min_completeness: f64,
    /// Mean wall-clock rounds members ran before terminating.
    pub mean_rounds: f64,
    /// Largest round count any member reached.
    pub max_rounds_seen: u64,
    /// Merged per-worker wire counters.
    pub stats: WorkerStats,
}

impl RuntimeReport {
    /// Protocol frames sent per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.stats.frames_sent as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Mean frames coalesced into each datagram (the multiplexing win).
    pub fn frames_per_datagram(&self) -> f64 {
        self.stats.frames_sent as f64 / (self.stats.datagrams_sent as f64).max(1.0)
    }
}

/// A launched cluster: members sharded over worker threads, gossiping
/// over the socket pool. Obtain one with [`Cluster::launch`], then
/// [`Cluster::join`] to collect outcomes and tear everything down.
#[derive(Debug)]
pub struct Cluster<A> {
    handles: Vec<JoinHandle<WorkerStats>>,
    done_rx: mpsc::Receiver<MemberOutcome<A>>,
    shutdown: Arc<AtomicBool>,
    addrs: Arc<Vec<SocketAddr>>,
    n: usize,
    sockets: usize,
    workers: usize,
    epoch: Instant,
    /// When [`Cluster::join`] stops waiting for outcomes.
    deadline: Instant,
}

impl<A: WireAggregate + Send + 'static> Cluster<A> {
    /// Bind the socket pool, shard `votes.len()` members across worker
    /// threads, and start every member's round clock at a shared epoch.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BudgetExceeded`] when the member count exceeds
    /// `sockets × members_per_socket` — the configured multiplexing
    /// budget — and [`RuntimeError::Io`] for socket or thread-spawn
    /// failures. Failing loudly here is what keeps an over-subscribed
    /// cluster from hanging half-started.
    ///
    /// # Panics
    ///
    /// Panics if `votes.len()` does not match the index population.
    pub fn launch(
        votes: Vec<f64>,
        index: Arc<ScopeIndex>,
        proto_cfg: HierGossipConfig,
        mut rt_cfg: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let n = votes.len();
        assert_eq!(n, index.len(), "one vote per indexed member");
        rt_cfg.round_interval = rt_cfg.round_interval.max(MIN_ROUND_INTERVAL);

        let sockets = rt_cfg.sockets.max(1);
        if n > rt_cfg.capacity() {
            return Err(RuntimeError::BudgetExceeded {
                members: n,
                sockets,
                members_per_socket: rt_cfg.members_per_socket.max(1),
            });
        }
        let workers = rt_cfg.workers.max(1).min(sockets);

        let pool = EndpointPool::bind(sockets)?;
        let addrs = pool.addrs();
        let socket_sets = pool.split(workers);

        // Shard members: member -> home socket -> owning worker. The
        // same arithmetic the send path uses, so ownership is exclusive.
        let mut shards: Vec<Vec<(MemberId, HierGossip<A>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, vote) in votes.iter().enumerate() {
            let me = MemberId(i as u32);
            let sock = EndpointPool::home_socket(me.0, sockets);
            let proto = HierGossip::<A>::new(me, *vote, index.clone(), proto_cfg);
            shards[sock % workers].push((me, proto));
        }

        // Anchor all round clocks at a shared epoch far enough out that
        // every worker is polling before round 0 ends.
        let grace = Duration::from_millis(20 + (n as u64 / 200));
        let epoch = Instant::now() + grace;
        // Hard collection deadline: the full round budget plus linger
        // and slack — a wedged worker must not hang the collector.
        let budget = rt_cfg
            .max_rounds
            .saturating_add(rt_cfg.linger_rounds)
            .saturating_add(16);
        let deadline = epoch
            + rt_cfg.round_interval * u32::try_from(budget).unwrap_or(u32::MAX)
            + Duration::from_secs(5);

        let (done_tx, done_rx) = mpsc::channel::<MemberOutcome<A>>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let root_rng = DetRng::seeded(rt_cfg.seed);

        let mut handles = Vec::with_capacity(workers);
        for (w, (sockets_of, members)) in socket_sets.into_iter().zip(shards).enumerate() {
            let worker = Worker::new(
                w,
                sockets_of,
                addrs.clone(),
                members,
                n as u32,
                rt_cfg.clone(),
                epoch,
                &root_rng,
                done_tx.clone(),
                shutdown.clone(),
            );
            let spawned = std::thread::Builder::new()
                .name(format!("gridagg-w{w}"))
                .spawn(move || worker.run());
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Unwind anything already running before reporting.
                    shutdown.store(true, Ordering::Relaxed);
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(RuntimeError::Io(e));
                }
            }
        }
        drop(done_tx);

        Ok(Cluster {
            handles,
            done_rx,
            shutdown,
            addrs,
            n,
            sockets,
            workers,
            epoch,
            deadline,
        })
    }

    /// The socket pool's address table — where the cluster listens.
    /// Exposed so tests can throw hostile datagrams at a live cluster.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Collect one outcome per member (bounded by the round budget),
    /// signal shutdown, and join every worker thread. No worker thread
    /// or pool socket survives this call — the graceful-teardown
    /// property the lifecycle tests pin down.
    pub fn join(self) -> ClusterRun<A> {
        let Cluster {
            handles,
            done_rx,
            shutdown,
            n,
            sockets,
            workers,
            epoch,
            deadline,
            ..
        } = self;

        let mut outcomes: Vec<MemberOutcome<A>> = Vec::with_capacity(n);
        let mut last_done = epoch;
        while outcomes.len() < n {
            let now = Instant::now();
            let Some(wait) = deadline.checked_duration_since(now) else {
                break;
            };
            match done_rx.recv_timeout(wait) {
                Ok(o) => {
                    last_done = Instant::now();
                    outcomes.push(o);
                }
                Err(_) => break, // timeout or every worker already gone
            }
        }

        shutdown.store(true, Ordering::Relaxed);
        let mut stats = WorkerStats::default();
        for h in handles {
            if let Ok(s) = h.join() {
                stats.merge(&s);
            }
        }
        outcomes.sort_by_key(|o| o.member);

        let reported = outcomes.len();
        let mean_completeness =
            outcomes.iter().map(|o| o.completeness(n)).sum::<f64>() / (n as f64).max(1.0);
        let min_completeness = if reported < n {
            0.0
        } else {
            outcomes
                .iter()
                .map(|o| o.completeness(n))
                .fold(f64::INFINITY, f64::min)
                .min(1.0)
        };
        let mean_rounds =
            outcomes.iter().map(|o| o.rounds as f64).sum::<f64>() / (reported as f64).max(1.0);
        let max_rounds_seen = outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);
        let report = RuntimeReport {
            n,
            sockets,
            workers,
            wall: last_done.saturating_duration_since(epoch),
            reported,
            mean_completeness,
            min_completeness,
            mean_rounds,
            max_rounds_seen,
            stats,
        };
        ClusterRun { outcomes, report }
    }
}

/// Launch a cluster and immediately join it: the one-call entry point
/// for running a whole group over localhost UDP.
///
/// # Errors
///
/// See [`Cluster::launch`].
pub fn run_cluster<A: WireAggregate + Send + 'static>(
    votes: Vec<f64>,
    index: Arc<ScopeIndex>,
    proto_cfg: HierGossipConfig,
    rt_cfg: RuntimeConfig,
) -> Result<ClusterRun<A>, RuntimeError> {
    Ok(Cluster::launch(votes, index, proto_cfg, rt_cfg)?.join())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridagg_aggregate::Average;
    use gridagg_group::view::View;
    use gridagg_hierarchy::{FairHashPlacement, Hierarchy};

    fn index(n: usize) -> Arc<ScopeIndex> {
        let h = Hierarchy::for_group(4, n).expect("shape");
        ScopeIndex::build(&View::complete(n), &FairHashPlacement::new(h, 9))
    }

    #[test]
    fn budget_exceeded_fails_loudly_not_hangs() {
        let n = 40;
        let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cfg = RuntimeConfig {
            sockets: 2,
            members_per_socket: 8,
            ..Default::default()
        };
        let err = Cluster::<Average>::launch(votes, index(n), HierGossipConfig::default(), cfg)
            .expect_err("over budget");
        match err {
            RuntimeError::BudgetExceeded {
                members,
                sockets,
                members_per_socket,
            } => {
                assert_eq!(members, 40);
                assert_eq!(sockets, 2);
                assert_eq!(members_per_socket, 8);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn report_reflects_multiplexed_wire_traffic() {
        let n = 24;
        let votes: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cfg = RuntimeConfig {
            sockets: 4,
            workers: 2,
            ..Default::default()
        };
        let run =
            run_cluster::<Average>(votes, index(n), HierGossipConfig::default(), cfg).expect("run");
        let r = &run.report;
        assert_eq!(r.n, n);
        assert_eq!(r.sockets, 4);
        assert!(r.workers <= 2);
        assert_eq!(r.reported, n, "every member reports");
        assert!(r.stats.frames_sent > 0);
        assert!(r.stats.datagrams_sent > 0);
        assert!(
            r.stats.datagrams_sent <= r.stats.frames_sent,
            "coalescing can only shrink the datagram count"
        );
        assert!(r.stats.wakeups > 0);
        assert!(r.mean_completeness > 0.9, "got {}", r.mean_completeness);
        assert!(r.wall > Duration::ZERO);
    }
}
