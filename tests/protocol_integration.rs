//! Cross-crate integration tests: full protocol runs assembled from the
//! public API, exercising every aggregate type, every loss model, and
//! every protocol.

use gridagg::prelude::*;

fn perfect(n: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_ucastl(0.0);
    c.pf = 0.0;
    c
}

#[test]
fn every_aggregate_type_runs_hierarchically() {
    let mut cfg = perfect(64);
    cfg.vote = VoteSpec::Uniform { lo: 10.0, hi: 90.0 };
    macro_rules! check {
        ($agg:ty) => {
            let report = run_hiergossip::<$agg>(&cfg, 11);
            assert!(
                report.mean_completeness().unwrap() > 0.95,
                concat!(stringify!($agg), " incomplete")
            );
        };
    }
    check!(Average);
    check!(Sum);
    check!(Count);
    check!(Min);
    check!(Max);
    check!(MeanVar);
    check!(Histogram16);
    check!(TopK);
}

#[test]
fn min_max_match_ground_truth_exactly_when_complete() {
    let mut cfg = perfect(128);
    cfg.vote = VoteSpec::Index;
    let min_report = run_hiergossip::<Min>(&cfg, 3);
    let max_report = run_hiergossip::<Max>(&cfg, 3);
    // index votes: min 0, max 127
    assert_eq!(min_report.true_value, 0.0);
    assert_eq!(max_report.true_value, 127.0);
    for report in [min_report, max_report] {
        for o in &report.outcomes {
            if let MemberOutcome::Completed {
                completeness,
                value,
                ..
            } = o
            {
                if *completeness == 1.0 {
                    assert_eq!(*value, report.true_value);
                }
            }
        }
    }
}

#[test]
fn count_aggregate_counts_members() {
    let cfg = perfect(100);
    let report = run_hiergossip::<Count>(&cfg, 5);
    assert_eq!(report.true_value, 100.0);
    let complete_and_right = report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o, MemberOutcome::Completed { completeness, value, .. }
                if *completeness == 1.0 && *value == 100.0)
        })
        .count();
    assert!(complete_and_right > 90);
}

#[test]
fn larger_k_means_fewer_phases_and_taller_boxes() {
    let mut small_k = perfect(256);
    small_k.k = 2;
    let mut large_k = perfect(256);
    large_k.k = 16;
    let a = run_hiergossip::<Average>(&small_k, 1);
    let b = run_hiergossip::<Average>(&large_k, 1);
    // both complete, but the deep hierarchy takes more rounds
    assert!(a.mean_completeness().unwrap() > 0.95);
    assert!(b.mean_completeness().unwrap() > 0.95);
    assert!(
        a.last_completion().unwrap() > b.last_completion().unwrap(),
        "K=2 ({} rounds) should be slower than K=16 ({} rounds)",
        a.last_completion().unwrap(),
        b.last_completion().unwrap()
    );
}

#[test]
fn all_protocols_agree_on_perfect_network() {
    let n = 64;
    let cfg = perfect(n);
    let reports = [
        run_hiergossip::<Average>(&cfg, 2),
        run_flood::<Average>(&cfg, FloodConfig::default(), 2),
        run_centralized::<Average>(&cfg, CentralizedConfig::for_group(n), 2),
        run_leader_election::<Average>(&cfg, LeaderElectionConfig::default(), 2),
    ];
    let truth = reports[0].true_value;
    for r in &reports {
        assert_eq!(r.true_value, truth, "same group, same ground truth");
        assert!(r.mean_completeness().unwrap() > 0.99);
    }
}

#[test]
fn committee_variant_tolerates_single_leader_crash() {
    // Crash injection with recovery disabled; committee K'=3 should beat
    // K'=1 in expectation across seeds.
    let mut cfg = ExperimentConfig::paper_defaults()
        .with_n(128)
        .with_ucastl(0.0);
    cfg.pf = 0.004;
    let avg = |committee: usize| {
        let reports = run_many(12, 77, |seed| {
            run_leader_election::<Average>(
                &cfg,
                LeaderElectionConfig {
                    committee,
                    ..Default::default()
                },
                seed,
            )
        });
        summarize(&reports).mean_incompleteness
    };
    let single = avg(1);
    let committee = avg(3);
    assert!(
        committee < single,
        "K'=3 ({committee}) should beat K'=1 ({single})"
    );
}

#[test]
fn soft_partition_degrades_gracefully() {
    let cfg = ExperimentConfig::paper_defaults().with_partl(0.7);
    let reports = run_many(10, 5, |seed| run_hiergossip::<Average>(&cfg, seed));
    let s = summarize(&reports);
    // Figure 9's qualitative claim: no collapse even at partl = 0.7
    assert!(
        s.mean_incompleteness < 0.25,
        "incompleteness {} under partition",
        s.mean_incompleteness
    );
}

#[test]
fn crash_recovery_model_is_available() {
    // The paper's model (§2) allows crash *and recovery*; the failure
    // substrate supports it even though §7 uses crash-only.
    use gridagg::group::failure::{FailureProcess, LivenessEvent};
    let mut p = FailureProcess::new(
        FailureModel::PerRoundWithRecovery { pf: 0.3, pr: 0.5 },
        50,
        9,
    );
    let mut crashed = 0;
    let mut recovered = 0;
    for r in 0..40 {
        for e in p.step(r) {
            match e {
                LivenessEvent::Crashed(_) => crashed += 1,
                LivenessEvent::Recovered(_) => recovered += 1,
            }
        }
    }
    assert!(crashed > 0 && recovered > 0);
}

#[test]
fn wire_codec_round_trips_across_the_stack() {
    // An aggregate produced by a protocol run survives the wire codec.
    use bytes_roundtrip::check;
    let cfg = perfect(32);
    let report = run_hiergossip::<Average>(&cfg, 4);
    let value = report
        .outcomes
        .iter()
        .find_map(|o| match o {
            MemberOutcome::Completed { value, .. } => Some(*value),
            _ => None,
        })
        .unwrap();
    check(value, 32);
}

mod bytes_roundtrip {
    use gridagg::aggregate::wire::WireAggregate;
    use gridagg::aggregate::{Aggregate, Average};

    pub fn check(mean: f64, count: u64) {
        let agg = Average::from_parts(mean * count as f64, count);
        let mut buf = Vec::new();
        agg.encode(&mut buf);
        let decoded = Average::decode(&mut buf.as_slice()).unwrap();
        assert!((decoded.summary() - agg.summary()).abs() < 1e-9);
    }
}

#[test]
fn bandwidth_cap_limits_but_does_not_break_gossip() {
    let mut cfg = ExperimentConfig::paper_defaults();
    // fanout 2 pushes + replies per round; cap at 4 sends/round
    cfg.bandwidth_cap = Some(4);
    let report = run_hiergossip::<Average>(&cfg, 6);
    assert!(report.mean_completeness().unwrap() > 0.9);
}

#[test]
fn reports_are_reproducible_across_identical_runs() {
    let cfg = ExperimentConfig::paper_defaults();
    let a = run_hiergossip::<Average>(&cfg, 31337);
    let b = run_hiergossip::<Average>(&cfg, 31337);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.net.sent, b.net.sent);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x, y);
    }
}

#[test]
fn partial_views_degrade_gracefully() {
    // §2 relaxation: smaller views → lower completeness, never a crash
    let mut small = ExperimentConfig::paper_defaults();
    small.partial_view = Some(40);
    let mut large = ExperimentConfig::paper_defaults();
    large.partial_view = Some(150);
    let s = summarize(&run_many(6, 3, |seed| {
        run_hiergossip::<Average>(&small, seed)
    }));
    let l = summarize(&run_many(6, 3, |seed| {
        run_hiergossip::<Average>(&large, seed)
    }));
    assert!(
        l.mean_incompleteness < s.mean_incompleteness,
        "larger views must help: {} vs {}",
        l.mean_incompleteness,
        s.mean_incompleteness
    );
    assert!(l.mean_incompleteness < 0.05);
}

#[test]
fn approximate_n_estimate_suffices() {
    // §6.1: "an approximate estimate of N at each member usually suffices"
    for est in [64usize, 500] {
        let mut cfg = ExperimentConfig::paper_defaults();
        cfg.n_estimate = Some(est);
        let s = summarize(&run_many(6, 9, |seed| {
            run_hiergossip::<Average>(&cfg, seed)
        }));
        assert!(
            s.mean_incompleteness < 0.1,
            "estimate {est}: incompleteness {}",
            s.mean_incompleteness
        );
    }
}

#[test]
fn staggered_multicast_initiation_works() {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.start_spread = Some(8);
    let s = summarize(&run_many(6, 21, |seed| {
        run_hiergossip::<Average>(&cfg, seed)
    }));
    assert!(
        s.mean_incompleteness < 0.1,
        "staggered start incompleteness {}",
        s.mean_incompleteness
    );
}

#[test]
fn predicate_aggregates_answer_threshold_queries() {
    use gridagg::aggregate::{All, Any};
    // votes are 0/1 predicates: "is my reading above the threshold?"
    let mut cfg = perfect(64);
    cfg.vote = VoteSpec::Index; // member 0 votes 0.0, everyone else non-zero
    let any = run_hiergossip::<Any>(&cfg, 2);
    let all = run_hiergossip::<All>(&cfg, 2);
    // Any: at least one non-zero vote exists → 1.0 at complete members
    // All: member 0's zero vote breaks the conjunction → 0.0
    for o in &any.outcomes {
        if let MemberOutcome::Completed {
            completeness,
            value,
            ..
        } = o
        {
            if *completeness == 1.0 {
                assert_eq!(*value, 1.0);
            }
        }
    }
    for o in &all.outcomes {
        if let MemberOutcome::Completed {
            completeness,
            value,
            ..
        } = o
        {
            if *completeness == 1.0 {
                assert_eq!(*value, 0.0);
            }
        }
    }
}

#[test]
fn periodic_epochs_survive_failures_end_to_end() {
    // the paper's periodic mode: restart per epoch, no churn, no
    // within-epoch recovery
    let mut cfg = ExperimentConfig::paper_defaults().with_n(96);
    cfg.pf = 0.005;
    let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
    opts.epochs = 3;
    opts.votes = VoteProcess::RandomWalk { sigma: 1.0 };
    let epochs = run_continuous(&cfg, &opts, 13).epochs;
    assert_eq!(epochs.len(), 3);
    for e in &epochs {
        assert!(
            e.completeness > 0.7,
            "epoch {} completeness collapsed",
            e.epoch
        );
    }
}

#[test]
fn complexity_predictions_bracket_measurements() {
    use gridagg::analysis;
    let cfg = perfect(256);
    let report = run_hiergossip::<Average>(&cfg, 5);
    let predicted_rounds = analysis::expected_rounds(256, 4, 2, 1.0);
    let predicted_msgs = analysis::expected_messages(256, 4, 2, 1.0);
    // early bump finishes below the synchronous schedule; replies at
    // most double the push count
    assert!(report.rounds <= predicted_rounds + 8);
    assert!(
        report.messages() <= 2 * predicted_msgs,
        "{} vs 2x{}",
        report.messages(),
        predicted_msgs
    );
    assert!(
        report.messages() >= predicted_msgs / 8,
        "{} vs {}/8",
        report.messages(),
        predicted_msgs
    );
}
