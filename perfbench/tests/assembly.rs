//! The traced run measures the program `run_hiergossip` runs: its
//! assembly from public constructors, with or without the decorator,
//! gives the same report, and its simnet replay reproduces the run's
//! network counters.

use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::run_hiergossip;
use gridagg_perfbench::assemble::{assemble, Agg};
use gridagg_perfbench::probe::{Probe, Timed, Totals};
use gridagg_perfbench::replay::{replay, SendLog};
use gridagg_perfbench::stats::fingerprint;

/// Small configurations covering each loss and failure model the
/// workloads use, on the serial and the fork-join engine.
fn configs() -> Vec<(&'static str, ExperimentConfig)> {
    let d = || ExperimentConfig::paper_defaults();
    vec![
        ("uniform n=200", d()),
        ("uniform n=1024", d().with_n(1024)),
        ("partition n=200", d().with_partl(0.6)),
        (
            "partition n=1024 jobs=2",
            d().with_n(1024).with_partl(0.55).with_engine_jobs(2),
        ),
        ("crashes n=200", d().with_pf(0.008)),
        (
            "crashes n=1024 jobs=2",
            d().with_n(1024).with_pf(0.004).with_engine_jobs(2),
        ),
    ]
}

#[test]
fn assembly_matches_run_hiergossip() {
    for (name, cfg) in configs() {
        for seed in [1, 2001] {
            let want = run_hiergossip::<Agg>(&cfg, seed);
            let (sim, _) = assemble(&cfg, seed, |p| p);
            let got = sim.run();
            assert_eq!(got.rounds, want.rounds, "{name} seed {seed}");
            assert_eq!(got.net, want.net, "{name} seed {seed}");
            assert_eq!(fingerprint(&got), fingerprint(&want), "{name} seed {seed}");
        }
    }
}

#[test]
fn decorated_assembly_matches_and_counts_every_send() {
    for (name, cfg) in configs() {
        let want = run_hiergossip::<Agg>(&cfg, 7);
        let probe = Probe::new(cfg.max_rounds(), cfg.engine_jobs, 16);
        let (sim, _) = assemble(&cfg, 7, |p| Timed::new(p, probe.clone()));
        let (got, members) = sim.run_returning();
        assert_eq!(fingerprint(&got), fingerprint(&want), "{name}");
        let mut t = Totals::default();
        for m in &members {
            t.add(&m.totals);
        }
        assert_eq!(t.sends, got.net.sent, "{name}: decorator sends");
        assert_eq!(t.round_calls, got.protocol_steps, "{name}: on_round calls");
        assert!(
            t.message_calls > 0 && t.message_calls <= got.net.delivered,
            "{name}"
        );
        assert!(probe.critical_path_s() > 0.0, "{name}");
        let samples: usize = members.iter().map(|m| m.samples.len()).sum();
        // the deliveries numbered 8, 24, 40, ... are sampled
        assert_eq!(
            samples as u64,
            (t.message_calls + 7) / 16,
            "{name}: one sample per 16 deliveries"
        );
    }
}

#[test]
fn replay_reproduces_network_stats() {
    for (name, cfg) in configs() {
        let (sim, _) = assemble(&cfg, 3, |p| p);
        let mut log = SendLog::default();
        let report = sim.run_with(&mut log);
        assert_eq!(log.len() as u64, report.net.sent, "{name}");
        let (stats, times) = replay(&cfg, 3, &log, report.rounds);
        assert_eq!(stats, report.net, "{name}");
        assert_eq!(times.sends, report.net.sent, "{name}");
        assert_eq!(times.drained, report.net.delivered, "{name}");
    }
}

#[test]
fn replay_of_a_different_seed_does_not_match() {
    // the fidelity check has teeth: another network seed draws other losses
    let cfg = ExperimentConfig::paper_defaults();
    let (sim, _) = assemble(&cfg, 3, |p| p);
    let mut log = SendLog::default();
    let report = sim.run_with(&mut log);
    let (stats, _) = replay(&cfg, 4, &log, report.rounds);
    assert_ne!(stats, report.net);
}
