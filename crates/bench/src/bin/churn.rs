//! Churn scenarios — restart-per-epoch Hierarchical Gossiping vs the
//! persistent Flow-Updating baseline under sustained join/leave/crash/
//! recover churn.
//!
//! The paper's protocol is one-shot (§7); its §2 "periodically
//! calculate the global aggregate" extension meets reality here: the
//! continuous service runs 24 epochs while the membership churns, and
//! each epoch publishes a completeness score against the epoch's true
//! membership. Restarting hiergossip each epoch buys fresh-view
//! accuracy at a per-epoch message cost; Flow-Updating carries its
//! mass-conserving state across epochs and absorbs churn by flow
//! reclaim and overlay healing.
//!
//! Outputs (under `results/`):
//! * `churn.csv` — the hiergossip-vs-Flow-Updating comparison grid
//!   (per churn level: completeness, tracking error, messages/epoch).
//! * `churn_epochs.csv` — the per-epoch trajectory (first seed of each
//!   cell): population, churn events, truth, estimate, completeness.

use gridagg_bench::sweep::Sweep;
use gridagg_bench::{base_seed, print_table, runs, sci, write_csv};
use gridagg_core::config::ExperimentConfig;
use gridagg_core::continuous::{
    run_continuous, ContinuousOptions, ContinuousOutcome, ContinuousProtocol, VoteProcess,
};
use gridagg_group::membership::ChurnModel;

const EPOCHS: usize = 24;

fn scenario_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults().with_n(96);
    cfg.pf = 0.002; // within-epoch crashes on top of between-epoch churn
    cfg
}

fn levels() -> Vec<(&'static str, ChurnModel)> {
    vec![
        ("none", ChurnModel::none()),
        (
            "low",
            ChurnModel {
                join_rate: 0.5,
                leave_prob: 0.005,
                crash_prob: 0.01,
                recover_prob: 0.5,
            },
        ),
        (
            "high",
            ChurnModel {
                join_rate: 2.0,
                leave_prob: 0.02,
                crash_prob: 0.05,
                recover_prob: 0.5,
            },
        ),
    ]
}

fn options_for(protocol: ContinuousProtocol, churn: ChurnModel) -> ContinuousOptions {
    let mut opts = ContinuousOptions::new(protocol);
    opts.epochs = EPOCHS;
    opts.churn = churn;
    opts.votes = VoteProcess::RandomWalk { sigma: 0.5 };
    opts.recovery = 0.3; // hier mode: within-epoch PerRoundWithRecovery
    opts
}

struct CellSummary {
    mean_completeness: f64,
    mean_error: f64,
    mean_messages: f64,
    epochs_run: f64,
    collapsed: usize,
}

fn summarize_cells(outcomes: &[ContinuousOutcome]) -> CellSummary {
    let mut cpl = Vec::new();
    let mut err = Vec::new();
    let mut msgs = Vec::new();
    let mut epochs_run = 0usize;
    let mut collapsed = 0usize;
    for out in outcomes {
        epochs_run += out.epochs.len();
        collapsed += usize::from(out.collapsed());
        for e in &out.epochs {
            cpl.push(e.completeness);
            if e.published > 0 {
                err.push(e.tracking_error());
            }
            msgs.push(e.messages as f64);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    CellSummary {
        mean_completeness: mean(&cpl),
        mean_error: mean(&err),
        mean_messages: mean(&msgs),
        epochs_run: epochs_run as f64 / outcomes.len() as f64,
        collapsed,
    }
}

fn main() {
    // Engine threads compose with the sweep width (cells × engine
    // threads never oversubscribe); the CSVs are byte-identical at any
    // value of either knob, and the config artifact never records the
    // execution knob.
    let mut cfg = scenario_config();
    cfg = cfg.with_engine_jobs(gridagg_bench::sweep::engine_jobs(
        gridagg_bench::sweep::jobs(),
    ));
    let protocols = [
        ("hiergossip", ContinuousProtocol::HierGossipRestart),
        ("flowupdate", ContinuousProtocol::FlowUpdating),
    ];

    let mut sweep = Sweep::new();
    for (pi, &(pname, protocol)) in protocols.iter().enumerate() {
        for (li, (lname, churn)) in levels().into_iter().enumerate() {
            let opts = options_for(protocol, churn);
            let base = base_seed() + (pi as u64) * 100_000 + (li as u64) * 10_000;
            sweep.push_seeded(
                &format!("churn/{pname}/{lname}"),
                runs(),
                base,
                move |seed| run_continuous(&cfg, &opts, seed),
            );
        }
    }
    let results = sweep.run_or_exit("churn");

    let mut rows = Vec::new();
    let mut epoch_rows = Vec::new();
    let level_names: Vec<&str> = levels().iter().map(|(n, _)| *n).collect();
    for (ci, chunk) in results.chunks(runs()).enumerate() {
        let (pname, _) = protocols[ci / level_names.len()];
        let lname = level_names[ci % level_names.len()];
        let s = summarize_cells(chunk);
        rows.push(vec![
            pname.to_string(),
            lname.to_string(),
            sci(s.mean_completeness),
            sci(s.mean_error),
            sci(s.mean_messages),
            format!("{:.2}", s.epochs_run),
            s.collapsed.to_string(),
        ]);
        // per-epoch trajectory for the cell's first seed
        for e in &chunk[0].epochs {
            epoch_rows.push(vec![
                pname.to_string(),
                lname.to_string(),
                e.epoch.to_string(),
                e.up.to_string(),
                e.joins.to_string(),
                e.leaves.to_string(),
                e.crashes.to_string(),
                e.recoveries.to_string(),
                format!("{:.6}", e.true_value),
                format!("{:.6}", e.estimate),
                format!("{:.6}", e.completeness),
                e.published.to_string(),
                e.messages.to_string(),
            ]);
        }
    }

    print_table(
        &format!("Churn scenarios: hiergossip restart vs Flow-Updating (N=96, {EPOCHS} epochs)"),
        &[
            "protocol",
            "churn",
            "completeness",
            "|error|",
            "msgs/epoch",
            "epochs",
            "collapsed",
        ],
        &rows,
    );
    write_csv(
        "churn.csv",
        &[
            "protocol",
            "churn",
            "completeness",
            "error",
            "msgs_per_epoch",
            "epochs_run",
            "collapsed",
        ],
        &rows,
    );
    write_csv(
        "churn_epochs.csv",
        &[
            "protocol",
            "churn",
            "epoch",
            "up",
            "joins",
            "leaves",
            "crashes",
            "recoveries",
            "truth",
            "estimate",
            "completeness",
            "published",
            "messages",
        ],
        &epoch_rows,
    );
    gridagg_bench::write_json("churn.config.json", &cfg);

    // Shape checks robust at the CI smoke's low run count: every epoch
    // must publish a completeness score in [0, 1], and without churn
    // the restart protocol must stay essentially complete.
    for out in &results {
        for e in &out.epochs {
            assert!(
                (0.0..=1.0).contains(&e.completeness),
                "completeness out of range: {}",
                e.completeness
            );
        }
    }
    let hier_none = summarize_cells(&results[..runs()]);
    assert!(
        hier_none.mean_completeness > 0.9,
        "hiergossip without churn must stay near-complete, got {}",
        hier_none.mean_completeness
    );
    // Flow-Updating is a tracking protocol: its estimates lag the vote
    // random walk, but a mean error beyond a few units means the
    // mass-conserving exchange is oscillating again (the dual-writer
    // bug produced errors in the hundreds here).
    for (ci, chunk) in results.chunks(runs()).enumerate() {
        if ci / level_names.len() == 1 {
            let s = summarize_cells(chunk);
            assert!(
                s.mean_error < 10.0,
                "flowupdate/{} mean tracking error {} — oscillation regression?",
                level_names[ci % level_names.len()],
                s.mean_error
            );
        }
    }
    println!("shape check: per-epoch completeness published and bounded = true");
}
