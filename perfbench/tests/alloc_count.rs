//! The process-wide allocation counter sees what the thread-local one
//! cannot. Counting is process-global, so this binary holds one test
//! per mode: the default run executes one, `--ignored` the other.

use gridagg_core::config::ExperimentConfig;
use gridagg_core::runner::run_hiergossip;
use gridagg_perfbench::alloc;
use gridagg_perfbench::assemble::Agg;

/// `allocs_single_run` of the hiergossip N=1024 seed-2001 cell of
/// `BENCH_protocols.json` (one engine thread, `bench_baseline`'s
/// thread-local counter around `run_hiergossip`).
const COMMITTED_N1024: u64 = 65_310;

#[test]
fn counts_match_bench_baseline_and_include_shard_threads() {
    let cfg = ExperimentConfig::paper_defaults().with_n(1024);
    let count = |jobs: usize| {
        alloc::enable();
        let (a0, t0) = (alloc::allocs(), alloc::thread_allocs());
        std::hint::black_box(run_hiergossip::<Agg>(&cfg.with_engine_jobs(jobs), 2001));
        let counts = (alloc::allocs() - a0, alloc::thread_allocs() - t0);
        alloc::disable();
        counts
    };
    let (serial, serial_thread) = count(1);
    assert_eq!(
        serial_thread, COMMITTED_N1024,
        "thread-local count differs from bench_baseline"
    );
    assert_eq!(
        serial, serial_thread,
        "one engine thread: process and thread counts agree"
    );
    let (forked, forked_thread) = count(2);
    assert!(
        forked_thread < forked / 2,
        "two engine threads: shard work is off the calling thread ({forked_thread} of {forked})"
    );
    assert!(
        forked >= serial * 9 / 10,
        "two engine threads: the process count keeps shard allocations ({forked} vs {serial})"
    );
    assert!(alloc::peak_bytes() > 0);
}

/// `allocs_single_run` of the N=65536 cell; about 15 s in a release
/// build: `cargo test --release -- --ignored`.
const COMMITTED_N65536: u64 = 6_054_820;

#[test]
#[ignore = "N=65536: run with --release -- --ignored"]
fn counts_match_bench_baseline_at_65536() {
    let mut cfg = ExperimentConfig::paper_defaults().with_n(65_536);
    cfg.phase_trace = false; // as bench_baseline above N = 16384
    alloc::enable();
    let t0 = alloc::thread_allocs();
    std::hint::black_box(run_hiergossip::<Agg>(&cfg, 2001));
    let count = alloc::thread_allocs() - t0;
    alloc::disable();
    assert_eq!(count, COMMITTED_N65536);
}
