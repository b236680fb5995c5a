//! Periodic aggregation: tracking a drifting global quantity — first
//! with the paper's monotone-shrink periodic mode, then with the
//! churn-tolerant continuous service (members join, leave, crash, and
//! recover between epochs).
//!
//! §2: "Our discussion considers only one run of the aggregation
//! protocol, but this can be extended to one which periodically
//! calculate[s] the global aggregate." Here the wing slowly heats up
//! (+1.5°/epoch drift plus sensor noise) while the membership churns,
//! and the group re-aggregates every epoch — the estimate tracks the
//! moving truth, and the hierarchy re-derives itself from the current
//! up-membership each epoch.
//!
//! Run with: `cargo run --release --example periodic_monitoring`

use gridagg::prelude::*;

fn print_epochs(outcome: &ContinuousOutcome) {
    println!(
        "{:>6} {:>5} {:>3} {:>3} {:>3} {:>3} {:>10} {:>10} {:>9} {:>14}",
        "epoch", "up", "+j", "-l", "-c", "+r", "truth", "estimate", "error", "completeness"
    );
    for e in &outcome.epochs {
        println!(
            "{:>6} {:>5} {:>3} {:>3} {:>3} {:>3} {:>10.3} {:>10.3} {:>9.4} {:>14.4}",
            e.epoch,
            e.up,
            e.joins,
            e.leaves,
            e.crashes,
            e.recoveries,
            e.true_value,
            e.estimate,
            e.tracking_error(),
            e.completeness,
        );
    }
}

fn main() {
    let mut cfg = ExperimentConfig::paper_defaults().with_n(256);
    cfg.pf = 0.002; // members keep dying during epochs
    cfg.vote = VoteSpec::Gaussian {
        mean: 60.0,
        std_dev: 3.0,
    };
    let mut opts = ContinuousOptions::new(ContinuousProtocol::HierGossipRestart);
    opts.epochs = 8;
    opts.votes = VoteProcess::Drift {
        rate: 1.5,
        noise: 0.5,
    };

    // --- the paper's periodic mode: no churn, crash-without-recovery ---
    let outcome = run_continuous(&cfg, &opts, 42);
    println!("periodic (crash-only, §7 model):");
    print_epochs(&outcome);
    let max_err = outcome
        .epochs
        .iter()
        .map(ChurnEpochReport::tracking_error)
        .fold(0.0f64, f64::max);
    println!(
        "\nthe estimate follows a +1.5°/epoch drift with max error {max_err:.3}° while \n\
         the population shrinks from {} to {} members (collapsed early: {})\n",
        outcome.epochs.first().map_or(0, |e| e.up),
        outcome.epochs.last().map_or(0, |e| e.up),
        outcome.collapsed(),
    );

    // --- the continuous service: joins, leaves, crashes, recoveries ---
    opts.churn = ChurnModel {
        join_rate: 2.0,
        leave_prob: 0.01,
        crash_prob: 0.02,
        recover_prob: 0.5,
    };
    println!("continuous (churn: joins/leaves/crashes/recoveries):");
    print_epochs(&run_continuous(&cfg, &opts, 42));
    println!(
        "\nunder churn the view heals every epoch: recovered and newly joined members\n\
         re-enter the hierarchy, and each epoch publishes a completeness score against\n\
         the epoch's true membership"
    );
}
