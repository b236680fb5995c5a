//! Golden-run equivalence: the optimized hot path must be
//! *byte-identical* in behavior to the pre-optimization tree.
//!
//! The numbers below were captured from the seed implementation (before
//! buffer pooling, `Arc`-shared payloads, and cached gossip bodies were
//! introduced) at three group sizes. Every optimization since must
//! preserve the exact RNG draw sequence and message flow, so any drift
//! in rounds, message counts, byte counts, or the *bit patterns* of the
//! derived metrics is a behavior change, not noise — this suite is the
//! proof the optimizations are pure.
//!
//! Floats are compared as `u64` bit patterns (`f64::to_bits`), so even
//! a last-ulp difference from a reordered fold fails loudly.

use gridagg::core::baselines::{CentralizedConfig, FloodConfig, LeaderElectionConfig};
use gridagg::core::runner::hiergossip_sim;
use gridagg::core::trace::RunTrace;
use gridagg::core::RunReport;
use gridagg::prelude::*;

/// One frozen run outcome from the seed tree.
struct Golden {
    rounds: Round,
    sent: u64,
    delivered: u64,
    bytes_sent: u64,
    dropped_loss: u64,
    completed: usize,
    mean_completeness_bits: u64,
    mean_value_bits: u64,
}

fn check(label: &str, n: usize, seed: u64, report: &RunReport, golden: &Golden) {
    assert_eq!(
        report.rounds, golden.rounds,
        "{label} n={n} s={seed}: rounds"
    );
    assert_eq!(report.net.sent, golden.sent, "{label} n={n} s={seed}: sent");
    assert_eq!(
        report.net.delivered, golden.delivered,
        "{label} n={n} s={seed}: delivered"
    );
    assert_eq!(
        report.net.bytes_sent, golden.bytes_sent,
        "{label} n={n} s={seed}: bytes"
    );
    assert_eq!(
        report.net.dropped_loss, golden.dropped_loss,
        "{label} n={n} s={seed}: dropped"
    );
    assert_eq!(
        report.completed(),
        golden.completed,
        "{label} n={n} s={seed}: completed"
    );
    assert_eq!(
        report.mean_completeness().unwrap_or(-1.0).to_bits(),
        golden.mean_completeness_bits,
        "{label} n={n} s={seed}: mean completeness bits"
    );
    assert_eq!(
        report.mean_value_error().unwrap_or(-1.0).to_bits(),
        golden.mean_value_bits,
        "{label} n={n} s={seed}: mean value-error bits"
    );
}

fn cfg(n: usize) -> ExperimentConfig {
    // The goldens hold at any fork-join engine width: `engine_jobs` is
    // a pure execution knob (DESIGN.md §16), so CI reruns this whole
    // suite — frozen values untouched — with GRIDAGG_ENGINE_JOBS=4.
    let jobs = std::env::var("GRIDAGG_ENGINE_JOBS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1);
    ExperimentConfig::paper_defaults()
        .with_n(n)
        .with_engine_jobs(jobs)
}

#[test]
fn hiergossip_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 15,
                sent: 2041,
                delivered: 1521,
                bytes_sent: 104201,
                dropped_loss: 520,
                completed: 64,
                mean_completeness_bits: 0x3ff0000000000000,
                mean_value_bits: 0x3cb4c076cde21a9c,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 21,
                sent: 10964,
                delivered: 8253,
                bytes_sent: 577166,
                dropped_loss: 2711,
                completed: 251,
                mean_completeness_bits: 0x3fef97d734041466,
                mean_value_bits: 0x3f6a92c4baad445d,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 31,
                sent: 65280,
                delivered: 48822,
                bytes_sent: 3629370,
                dropped_loss: 16458,
                completed: 997,
                mean_completeness_bits: 0x3fef28cf786cdee0,
                mean_value_bits: 0x3f6128e0b35ff2b9,
            },
        ),
    ] {
        let report = run_hiergossip::<Average>(&cfg(n), seed);
        check("hier", n, seed, &report, &golden);
    }
}

#[test]
fn traced_hiergossip_matches_untraced_and_seed_trace_counts() {
    // Tracing must not perturb a run, and the trace itself is part of
    // the frozen behavior: the seed tree recorded exactly these event
    // counts.
    for (n, seed, events) in [(64usize, 3u64, 5207usize), (256, 7, 27706)] {
        let plain = run_hiergossip::<Average>(&cfg(n), seed);
        let mut trace = RunTrace::for_group(n);
        let traced = hiergossip_sim::<Average>(&cfg(n), seed).run_with(&mut trace);
        assert_eq!(plain.rounds, traced.rounds, "n={n}: rounds");
        assert_eq!(plain.net, traced.net, "n={n}: network stats");
        assert_eq!(plain.outcomes, traced.outcomes, "n={n}: outcomes");
        assert_eq!(trace.len(), events, "n={n}: trace event count");
    }
}

#[test]
fn event_driven_engine_trace_is_byte_identical() {
    // The struct-of-arrays engine rewrite (event-driven round loop,
    // bitset vote sets, ring-buffered message queue) must not move a
    // single event: these are FNV-1a fingerprints over the debug
    // rendering of the *complete* trace stream, frozen from the dense
    // per-member scan. Any reordering, added, or dropped event — even
    // two swapped deliveries inside one round — changes the hash.
    //
    // The third row staggers starts over five rounds under crashes and
    // loss, so official starts, gossip wake-ups and skipped dead members
    // all land in the frozen stream.
    let staggered = ExperimentConfig {
        start_spread: Some(5),
        ..cfg(256).with_pf(0.01).with_ucastl(0.25)
    };
    for (config, seed, events, fingerprint) in [
        (cfg(256), 7u64, 27706usize, 0xf959_bd98_aaa1_ba54u64),
        (cfg(1024), 11, 159084, 0x887b_75fd_3307_1046),
        (staggered, 29, 26266, 0x0ca8_1136_a6f6_e92b),
    ] {
        let n = config.n;
        let mut trace = RunTrace::for_group(n);
        hiergossip_sim::<Average>(&config, seed).run_with(&mut trace);
        assert_eq!(trace.len(), events, "n={n}: trace event count");
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for event in &trace.events {
            for byte in format!("{event:?}").bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(hash, fingerprint, "n={n}: trace fingerprint {hash:#x}");
    }
}

#[test]
fn counted_vote_sets_track_exact_cardinality_under_dedup_merges() {
    use gridagg::aggregate::VoteSet;

    // Mirror the merge discipline of the gossip protocols: every member
    // contributes exactly once (the protocols dedup on first reception
    // before touching the set), and partial aggregates from disjoint
    // subgroups are unioned upward. Under that discipline the counted
    // representation — which the engine switches to above
    // `EXACT_TRACK_MAX` — must report the same cardinality as the exact
    // bitset at every step of the merge tree.
    let scale = 1 << 20; // forces the counted representation
    for group_size in [256usize, 1024] {
        let mut exact_root = VoteSet::new(group_size);
        let mut counted_root = VoteSet::for_scale(scale);
        for chunk_base in (0..group_size).step_by(64) {
            let mut exact_part = VoteSet::new(group_size);
            let mut counted_part = VoteSet::for_scale(scale);
            for member in chunk_base..(chunk_base + 64).min(group_size) {
                exact_part.union_with(&VoteSet::singleton(member, group_size));
                counted_part.union_with(&VoteSet::singleton_for_scale(member, scale));
                assert_eq!(exact_part.len(), counted_part.len());
            }
            assert!(exact_root.is_disjoint(&exact_part));
            assert!(counted_root.is_disjoint(&counted_part));
            exact_root.union_with(&exact_part);
            counted_root.union_with(&counted_part);
            assert_eq!(exact_root.len(), counted_root.len());
        }
        assert_eq!(exact_root.len(), group_size);
        assert_eq!(counted_root.len(), group_size);
        assert!(exact_root.is_exact());
        assert!(!counted_root.is_exact());
    }
}

#[test]
fn flatgossip_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 20,
                sent: 2294,
                delivered: 1710,
                bytes_sent: 29822,
                dropped_loss: 584,
                completed: 62,
                mean_completeness_bits: 0x3fd5210842108421,
                mean_value_bits: 0x3fb4a30fd594062f,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 52,
                sent: 99924,
                delivered: 74888,
                bytes_sent: 1299012,
                dropped_loss: 25036,
                completed: 978,
                mean_completeness_bits: 0x3fb1a871146acc2c,
                mean_value_bits: 0x3fab131c23a5bd29,
            },
        ),
    ] {
        let report = run_flatgossip::<Average>(&cfg(n), seed);
        check("flat", n, seed, &report, &golden);
    }
}

#[test]
fn flood_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 12,
                sent: 4032,
                delivered: 3024,
                bytes_sent: 52416,
                dropped_loss: 1008,
                completed: 64,
                mean_completeness_bits: 0x3fe8200000000000,
                mean_value_bits: 0x3fa07f1a5dc6dc4b,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 36,
                sent: 63935,
                delivered: 47835,
                bytes_sent: 831155,
                dropped_loss: 16100,
                completed: 249,
                mean_completeness_bits: 0x3fe77cea68de1282,
                mean_value_bits: 0x3f90bcd02eb735ed,
            },
        ),
    ] {
        let report = run_flood::<Average>(&cfg(n), FloodConfig::default(), seed);
        check("flood", n, seed, &report, &golden);
    }
}

#[test]
fn centralized_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 16,
                sent: 189,
                delivered: 148,
                bytes_sent: 2709,
                dropped_loss: 41,
                completed: 63,
                mean_completeness_bits: 0x3fe930c30c30c30c,
                mean_value_bits: 0x3fb737b0b33d4144,
            },
        ),
        (
            1024,
            11,
            Golden {
                rounds: 106,
                sent: 3007,
                delivered: 2234,
                bytes_sent: 43183,
                dropped_loss: 773,
                completed: 944,
                mean_completeness_bits: 0x3fe528e5f75270d0,
                mean_value_bits: 0x3fc110b072b89b78,
            },
        ),
    ] {
        let report = run_centralized::<Average>(&cfg(n), CentralizedConfig::for_group(n), seed);
        check("central", n, seed, &report, &golden);
    }
}

#[test]
fn leader_election_matches_seed_behavior() {
    for (n, seed, golden) in [
        (
            64,
            3,
            Golden {
                rounds: 14,
                sent: 252,
                delivered: 193,
                bytes_sent: 3998,
                dropped_loss: 59,
                completed: 64,
                mean_completeness_bits: 0x3febb00000000000,
                mean_value_bits: 0x3fa696a9bde22121,
            },
        ),
        (
            256,
            7,
            Golden {
                rounds: 18,
                sent: 1000,
                delivered: 762,
                bytes_sent: 16036,
                dropped_loss: 238,
                completed: 251,
                mean_completeness_bits: 0x3fe96f0b38187a64,
                mean_value_bits: 0x3f9f0b7220423b8d,
            },
        ),
    ] {
        let report = run_leader_election::<Average>(&cfg(n), LeaderElectionConfig::default(), seed);
        check("leader", n, seed, &report, &golden);
    }
}
