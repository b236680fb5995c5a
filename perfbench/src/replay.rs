//! Simnet measured by replay: a run's `Send` events, recorded from the
//! public trace stream, are pushed in order through a fresh
//! `SimNetwork` with the run's network configuration and seed, with a
//! drain at every round boundary, exactly as the engine calls it.
//!
//! The replay is only a measurement of the run's traffic if it
//! reproduces the run's `NetworkStats`; [`replay`] returns them so the
//! caller can insist on equality.

use std::time::Instant;

use gridagg_core::config::ExperimentConfig;
use gridagg_core::trace::{TraceEvent, TraceSink};
use gridagg_group::MemberId;
use gridagg_simnet::network::SimNetwork;
use gridagg_simnet::stats::NetworkStats;
use gridagg_simnet::Round;

use crate::assemble::network_config;

/// One recorded send: round, sender, destination, wire bytes.
type SendRec = (u32, u32, u32, u32);

/// A trace sink that keeps only `Send` events, 16 bytes each.
#[derive(Debug, Default)]
pub struct SendLog {
    sends: Vec<SendRec>,
}

impl SendLog {
    /// Sends recorded.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

impl TraceSink for SendLog {
    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::Send {
            from,
            to,
            round,
            bytes,
        } = event
        {
            let narrow = |v: u64| u32::try_from(v).expect("round and byte counts fit in u32");
            self.sends
                .push((narrow(round), from.0, to.0, narrow(bytes)));
        }
    }
}

/// Time spent in the network during a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTimes {
    /// Seconds inside `send`.
    pub send_s: f64,
    /// Seconds inside `drain_into`.
    pub drain_s: f64,
    /// `send` calls.
    pub sends: u64,
    /// Envelopes drained.
    pub drained: u64,
}

impl ReplayTimes {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &ReplayTimes) {
        self.send_s += other.send_s;
        self.drain_s += other.drain_s;
        self.sends += other.sends;
        self.drained += other.drained;
    }
}

/// Replay `log` over `rounds` rounds through a fresh network for
/// `(cfg, seed)`. Sends are timed per round, not per call, so the
/// clock does not dominate a ~50 ns operation.
///
/// # Panics
///
/// Panics if the log holds a send at or after `rounds`.
pub fn replay(
    cfg: &ExperimentConfig,
    seed: u64,
    log: &SendLog,
    rounds: Round,
) -> (NetworkStats, ReplayTimes) {
    let mut net: SimNetwork<()> = SimNetwork::new(network_config(cfg), seed);
    net.reserve_nodes(cfg.n);
    let mut due = Vec::new();
    let mut times = ReplayTimes::default();
    let mut next = 0;
    for round in 0..rounds {
        let t0 = Instant::now();
        net.drain_into(round, &mut due);
        let t1 = Instant::now();
        times.drained += due.len() as u64;
        let start = next;
        while next < log.sends.len() && u64::from(log.sends[next].0) == round {
            let (_, from, to, bytes) = log.sends[next];
            std::hint::black_box(net.send(round, MemberId(from), MemberId(to), (), bytes));
            next += 1;
        }
        let t2 = Instant::now();
        times.drain_s += (t1 - t0).as_secs_f64();
        times.send_s += (t2 - t1).as_secs_f64();
        times.sends += (next - start) as u64;
    }
    assert_eq!(
        next,
        log.sends.len(),
        "sends recorded past the run's last round"
    );
    (net.stats().clone(), times)
}
