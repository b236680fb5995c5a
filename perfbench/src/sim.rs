//! The two simulator workloads, `sim-scale` and `fig-sweep`, in timed
//! and traced form.

use std::path::Path;
use std::time::Instant;

use gridagg_core::config::ExperimentConfig;
use gridagg_core::metrics::{MemberOutcome, RunReport};

use crate::assemble::{assemble, SetupTimes};
use crate::metrics::Layers;
use crate::probe::{Probe, Timed, Totals};
use crate::replay::{replay, ReplayTimes, SendLog};
use crate::report::{Outcome, Spans};
use crate::stats::{fingerprint, median, percentile, Fnv, Histogram};
use crate::{alloc, procfs};

/// The seed whose outputs are pinned to committed values.
pub const DEFAULT_SEED: u64 = 2001;

/// Set-up samples `sim-scale` takes in one invocation.
const SIM_SCALE_SETUPS: usize = 9;

/// Seeded runs per `fig-sweep` grid point: 20 points x 50 = 1000 runs,
/// so the p99 run latency has ten samples beyond it.
const RUNS_PER_POINT: u64 = 50;

/// `sim-scale`: the paper's defaults at N = 65536 on two engine
/// threads, per-phase trace recording off as in `bench_baseline` above
/// N = 16384.
fn sim_scale_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults()
        .with_n(65_536)
        .with_engine_jobs(2);
    cfg.phase_trace = false;
    cfg
}

/// `(rounds, messages, bytes, delivered, peak in flight)` of the
/// hiergossip rows of `BENCH_protocols.json` at seed 2001.
type Row = (u64, u64, u64, u64, u64);
const ROW_N65536: Row = (54, 7_080_426, 408_480_640, 5_309_494, 162_078);
const ROW_N1024: Row = (28, 56_488, 3_022_003, 42_331, 2_528);

/// Fingerprint of every `fig-sweep` report at [`DEFAULT_SEED`]: FNV
/// over the per-report fingerprints, in grid order.
const FIG_SWEEP_FP_DEFAULT: u64 = 0x2385_8873_3a64_5021;

fn row_of(r: &RunReport) -> Row {
    (
        r.rounds,
        r.net.sent,
        r.net.bytes_sent,
        r.net.delivered,
        r.net.peak_in_flight,
    )
}

/// The grid of `fig06`, `fig07`, `fig09` and `fig10`, in that order.
fn fig_points() -> Vec<ExperimentConfig> {
    let d = ExperimentConfig::paper_defaults;
    let mut pts: Vec<ExperimentConfig> = [200, 400, 800, 1600, 3200]
        .iter()
        .map(|&n| d().with_n(n))
        .collect();
    pts.extend(
        [0.7, 0.6, 0.5, 0.4, 0.25]
            .iter()
            .map(|&u| d().with_ucastl(u)),
    );
    pts.extend(
        [0.5, 0.55, 0.6, 0.65, 0.7]
            .iter()
            .map(|&p| d().with_partl(p)),
    );
    pts.extend(
        [0.008, 0.006, 0.004, 0.002, 0.001]
            .iter()
            .map(|&pf| d().with_pf(pf)),
    );
    pts
}

/// Every `(config, seed)` run of the `fig-sweep` grid for `seed`, as
/// the figure binaries derive them from their base seed.
fn fig_runs(seed: u64) -> Vec<(ExperimentConfig, u64)> {
    let mut runs = Vec::new();
    for (i, cfg) in fig_points().into_iter().enumerate() {
        for j in 0..RUNS_PER_POINT {
            runs.push((cfg, seed + i as u64 * 10_000 + j));
        }
    }
    runs
}

/// Mean termination round over members that completed.
fn rounds_mean(r: &RunReport) -> f64 {
    let (sum, count) = r.outcomes.iter().fold((0.0, 0u64), |(s, c), o| match o {
        MemberOutcome::Completed { at, .. } => (s + *at as f64, c + 1),
        _ => (s, c),
    });
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Members still running at the round cap: the only way a simulated
/// member ends without an estimate other than an injected crash.
fn timed_out(r: &RunReport) -> u64 {
    r.outcomes
        .iter()
        .filter(|o| matches!(o, MemberOutcome::TimedOut))
        .count() as u64
}

/// Structural checks every report must pass.
fn check_report(out: &mut Outcome, what: &str, r: &RunReport) {
    let s = &r.net;
    out.check(r.outcomes.len() == r.n, || {
        format!("{what}: {} outcomes for {} members", r.outcomes.len(), r.n)
    });
    out.check(
        s.sent == s.delivered + s.dropped_loss + s.dropped_bandwidth,
        || format!("{what}: network counters do not add up: {s:?}"),
    );
}

fn plain_run(cfg: &ExperimentConfig, seed: u64) -> (RunReport, SetupTimes, f64) {
    let (sim, setup) = assemble(cfg, seed, |p| p);
    let t0 = Instant::now();
    let report = sim.run();
    (report, setup, t0.elapsed().as_secs_f64())
}

/// Anchor every invocation to committed output: the N = 1024 row of
/// `BENCH_protocols.json` at seed 2001, run here on two engine threads.
fn check_anchor(out: &mut Outcome) {
    let cfg = ExperimentConfig::paper_defaults()
        .with_n(1024)
        .with_engine_jobs(2);
    let (r, ..) = plain_run(&cfg, DEFAULT_SEED);
    out.check(row_of(&r) == ROW_N1024, || {
        format!(
            "anchor N=1024 seed {DEFAULT_SEED}: {:?} != committed {ROW_N1024:?}",
            row_of(&r)
        )
    });
}

/// Timed `sim-scale`.
pub fn sim_scale(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    check_anchor(out);
    let cfg = sim_scale_config();
    let start = Instant::now();
    let (mut setups, mut walls, mut cpus, mut rates) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<RunReport> = None;
    let mut peak_rss = 0.0;
    loop {
        let (sim, setup) = assemble(&cfg, seed, |p| p);
        let c0 = procfs::process_cpu()?;
        let t0 = Instant::now();
        let report = sim.run();
        let wall = t0.elapsed().as_secs_f64();
        let cpu = procfs::process_cpu()?.since(&c0).total();
        eprintln!(
            "sim-scale: run {}: set-up {:.4} s, run {wall:.3} s, cpu {cpu:.2} s",
            walls.len() + 1,
            setup.total(),
        );
        if walls.is_empty() {
            // later runs in the same process reuse a fragmented heap
            peak_rss = procfs::peak_rss_mb()?;
        }
        setups.push(setup.total());
        walls.push(wall);
        cpus.push(cpu);
        rates.push(report.net.sent as f64 / wall);
        check_report(out, "sim-scale", &report);
        match &first {
            None => first = Some(report),
            Some(f) => out.check(fingerprint(f) == fingerprint(&report), || {
                "sim-scale: a repeated run of the same seed gave a different report".into()
            }),
        }
        let rep = setup.total() + wall;
        if start.elapsed().as_secs_f64() + rep > seconds {
            break;
        }
    }
    // more set-up samples than runs: set-up is short and noisy
    while setups.len() < SIM_SCALE_SETUPS {
        let (sim, setup) = assemble(&cfg, seed, |p| p);
        drop(sim);
        setups.push(setup.total());
    }
    let r = first.expect("at least one run");
    if seed == DEFAULT_SEED {
        out.check(row_of(&r) == ROW_N65536, || {
            format!(
                "sim-scale seed {seed}: {:?} != committed {ROW_N65536:?}",
                row_of(&r)
            )
        });
    }
    let reps = walls.len() as u64;
    out.attempted = r.n as u64 * reps;
    out.failed = timed_out(&r) * reps;
    out.metric("setup_s", median(&setups), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("msgs_per_s", median(&rates), "msg/s");
    out.metric("cpu_s", median(&cpus), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("rounds_mean", rounds_mean(&r), "rounds");
    out.metric(
        "completeness_mean",
        r.mean_completeness().unwrap_or(0.0),
        "fraction",
    );
    Ok(())
}

/// One pass over the `fig-sweep` grid.
struct GridPass {
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    messages: u64,
    fingerprint: u64,
    run_ms: Vec<f64>,
    rounds_mean: f64,
    completeness_mean: f64,
    members: u64,
    timed_out: u64,
}

/// The order a timed pass runs the grid in: seed-major, every point's
/// `j`-th run before any point's `j + 1`-th. The cheap N = 200 runs that
/// set the p50 and the N = 3200 runs that set the p99 are then spread
/// over the whole pass, so every time metric samples the same stretch
/// of host speed as `wall_s` does.
fn interleaved(runs: usize) -> impl Iterator<Item = usize> {
    let per = RUNS_PER_POINT as usize;
    (0..per).flat_map(move |j| (j..runs).step_by(per))
}

/// What a pass keeps of one run, indexed by grid position.
#[derive(Clone, Copy, Default)]
struct RunSummary {
    fingerprint: u64,
    rounds_mean: f64,
    completeness: f64,
}

fn grid_pass(runs: &[(ExperimentConfig, u64)], out: &mut Outcome) -> Result<GridPass, String> {
    let (mut setup_s, mut messages, mut members, mut to) = (0.0, 0, 0, 0);
    let mut summaries = vec![RunSummary::default(); runs.len()];
    let mut run_ms = Vec::with_capacity(runs.len());
    let c0 = procfs::process_cpu()?;
    let t0 = Instant::now();
    for i in interleaved(runs.len()) {
        let (cfg, seed) = &runs[i];
        let (r, setup, wall) = plain_run(cfg, *seed);
        setup_s += setup.total();
        run_ms.push((setup.total() + wall) * 1e3);
        check_report(out, "fig-sweep", &r);
        messages += r.net.sent;
        members += r.n as u64;
        to += timed_out(&r);
        summaries[i] = RunSummary {
            fingerprint: fingerprint(&r),
            rounds_mean: rounds_mean(&r),
            completeness: r.mean_completeness().unwrap_or(0.0),
        };
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu()?.since(&c0).total();
    // Fold in grid order, whatever order the runs went in.
    let mut fp = Fnv::default();
    let (mut rounds, mut completeness) = (0.0, 0.0);
    for s in &summaries {
        fp.word(s.fingerprint);
        rounds += s.rounds_mean;
        completeness += s.completeness;
    }
    Ok(GridPass {
        wall_s,
        cpu_s,
        setup_s,
        messages,
        fingerprint: fp.finish(),
        run_ms,
        rounds_mean: rounds / runs.len() as f64,
        completeness_mean: completeness / runs.len() as f64,
        members,
        timed_out: to,
    })
}

/// Timed `fig-sweep`.
pub fn fig_sweep(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    check_anchor(out);
    let runs = fig_runs(seed);
    let start = Instant::now();
    let mut passes: Vec<GridPass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let pass = grid_pass(&runs, out)?;
        let took = pass.wall_s;
        eprintln!(
            "fig-sweep: pass {}: grid {took:.3} s, set-up {:.3} s, run p50 {:.3} ms, p99 {:.1} ms",
            passes.len() + 1,
            pass.setup_s,
            percentile(&pass.run_ms, 50.0),
            percentile(&pass.run_ms, 99.0),
        );
        if passes.is_empty() {
            peak_rss = procfs::peak_rss_mb()?;
        }
        if let Some(first) = passes.first() {
            out.check(first.fingerprint == pass.fingerprint, || {
                "fig-sweep: a repeated grid gave different reports".into()
            });
        }
        passes.push(pass);
        if start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    let first = &passes[0];
    eprintln!(
        "fig-sweep: grid fingerprint {:#018x} at seed {seed}",
        first.fingerprint
    );
    if seed == DEFAULT_SEED {
        out.check(first.fingerprint == FIG_SWEEP_FP_DEFAULT, || {
            format!(
                "fig-sweep seed {seed}: fingerprint {:#018x} != recorded {FIG_SWEEP_FP_DEFAULT:#018x}",
                first.fingerprint
            )
        });
    }
    let of = |f: fn(&GridPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let run_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run_ms.iter().copied())
        .collect();
    eprintln!(
        "fig-sweep: {} runs over {} passes",
        run_ms.len(),
        passes.len()
    );
    out.attempted = first.members * passes.len() as u64;
    out.failed = first.timed_out * passes.len() as u64;
    out.metric("setup_s", median(&of(|p| p.setup_s)), "s");
    out.metric("wall_s", median(&of(|p| p.wall_s)), "s");
    out.metric(
        "msgs_per_s",
        median(&of(|p| p.messages as f64 / p.wall_s)),
        "msg/s",
    );
    out.metric("cpu_s", median(&of(|p| p.cpu_s)), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("rounds_mean", first.rounds_mean, "rounds");
    out.metric("completeness_mean", first.completeness_mean, "fraction");
    Ok(())
}

/// Per-layer sums over the traced runs of one invocation.
#[derive(Default)]
struct Traced {
    setup: [f64; 4],
    untraced_wall_s: f64,
    /// Set-up + run of each untraced run, in ms.
    run_ms: Vec<f64>,
    decorated_wall_s: f64,
    critical_s: f64,
    protocol_steps: u64,
    totals: Totals,
    run_allocs: u64,
    peak_heap_bytes: u64,
    messages: u64,
    peak_in_flight: u64,
    timed_out: u64,
    replay: ReplayTimes,
    message_ns: Histogram,
}

/// Spans for one assembly: the set-up parent and one child per layer.
fn record_setup(spans: &mut Spans, name: &str, parent: usize, setup: &SetupTimes) {
    let m = &setup.marks;
    let id = spans.record(name, Some(parent), m[0], m[4]);
    for (i, stage) in SetupTimes::STAGES.iter().enumerate() {
        spans.record(stage, Some(id), m[i], m[i + 1]);
    }
}

/// One run of `(cfg, seed)` three ways: untraced, with every protocol
/// instance decorated, and with its sends logged and replayed through
/// a fresh network. All three must agree.
fn trace_one(
    cfg: &ExperimentConfig,
    seed: u64,
    acc: &mut Traced,
    spans: &mut Spans,
    parent: usize,
    out: &mut Outcome,
) {
    let what = format!("n={} seed={seed}", cfg.n);

    let (sim, setup) = assemble(cfg, seed, |p| p);
    record_setup(spans, "setup", parent, &setup);
    for (i, s) in acc.setup.iter_mut().enumerate() {
        *s += setup.stage_s(i);
    }
    let t0 = Instant::now();
    let plain = sim.run();
    let t1 = Instant::now();
    spans.record("run", Some(parent), t0, t1);
    acc.untraced_wall_s += (t1 - t0).as_secs_f64();
    acc.run_ms
        .push((setup.total() + (t1 - t0).as_secs_f64()) * 1e3);
    let base = fingerprint(&plain);
    acc.timed_out += timed_out(&plain);
    drop(plain);

    let probe = Probe::new(cfg.max_rounds(), cfg.engine_jobs, 0);
    let (sim, setup) = assemble(cfg, seed, |p| Timed::new(p, probe.clone()));
    record_setup(spans, "setup.decorated", parent, &setup);
    alloc::enable();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let (report, members) = sim.run_returning();
    let t1 = Instant::now();
    let allocs = alloc::allocs() - a0;
    alloc::disable();
    spans.record("run.decorated", Some(parent), t0, t1);
    out.check(fingerprint(&report) == base, || {
        format!("{what}: decorated run differs from the untraced run")
    });
    let mut totals = Totals::default();
    for m in &members {
        totals.add(&m.totals);
    }
    drop(members);
    out.check(totals.sends == report.net.sent, || {
        format!(
            "{what}: decorator counted {} sends, network {}",
            totals.sends, report.net.sent
        )
    });
    acc.totals.add(&totals);
    acc.decorated_wall_s += (t1 - t0).as_secs_f64();
    acc.critical_s += probe.critical_path_s();
    probe.merge_message_ns(&acc.message_ns);
    acc.protocol_steps += report.protocol_steps;
    acc.run_allocs += allocs;
    acc.peak_heap_bytes = acc.peak_heap_bytes.max(alloc::peak_bytes());
    acc.messages += report.net.sent;
    acc.peak_in_flight = acc.peak_in_flight.max(report.net.peak_in_flight);
    drop(report);

    let (sim, _) = assemble(cfg, seed, |p| p);
    let mut log = SendLog::default();
    let s = spans.open("run.send_log", Some(parent));
    let logged = sim.run_with(&mut log);
    spans.close(s);
    out.check(fingerprint(&logged) == base, || {
        format!("{what}: send-logged run differs from the untraced run")
    });

    let s = spans.open("simnet.replay", Some(parent));
    let (stats, times) = replay(cfg, seed, &log, logged.rounds);
    spans.close(s);
    out.check(stats == logged.net, || {
        format!(
            "{what}: replay stats {stats:?} != run stats {:?}",
            logged.net
        )
    });
    acc.replay.add(&times);
}

fn report_traced(acc: &Traced, out: &mut Outcome) {
    let msgs = acc.messages.max(1) as f64;
    let t = &acc.totals;
    let mut m = Layers::default();
    for (i, stage) in SetupTimes::STAGES.iter().enumerate() {
        m.set(&format!("{stage}_s"), acc.setup[i]);
    }
    m.set("protocol.on_message.calls", t.message_calls as f64);
    m.set("protocol.on_message.busy_s", t.message_ns as f64 / 1e9);
    m.set(
        "protocol.on_message.ns.p50",
        acc.message_ns.percentile(50.0),
    );
    m.set(
        "protocol.on_message.ns.p99",
        acc.message_ns.percentile(99.0),
    );
    m.set("protocol.on_round.calls", t.round_calls as f64);
    m.set("protocol.on_round.busy_s", t.round_ns as f64 / 1e9);
    m.set("protocol.sends", t.sends as f64);
    m.set("protocol.allocs", t.allocs as f64);
    m.set("protocol.allocs_per_msg", t.allocs as f64 / msgs);
    m.set("engine.run_s", acc.decorated_wall_s);
    m.set("engine.self_s", acc.decorated_wall_s - acc.critical_s);
    m.set("engine.protocol_steps", acc.protocol_steps as f64);
    m.set("run.allocs", acc.run_allocs as f64);
    m.set("run.allocs_per_msg", acc.run_allocs as f64 / msgs);
    m.set("run.peak_heap_mb", acc.peak_heap_bytes as f64 / 1e6);
    m.set("run_ms.p50", percentile(&acc.run_ms, 50.0));
    m.set("run_ms.p99", percentile(&acc.run_ms, 99.0));
    let r = &acc.replay;
    m.set("simnet.send.ns", r.send_s * 1e9 / r.sends.max(1) as f64);
    m.set(
        "simnet.drain.ns_per_msg",
        r.drain_s * 1e9 / r.drained.max(1) as f64,
    );
    m.set("simnet.busy_s", r.send_s + r.drain_s);
    m.set("simnet.peak_in_flight", acc.peak_in_flight as f64);
    m.set(
        "trace.overhead_frac",
        acc.decorated_wall_s / acc.untraced_wall_s - 1.0,
    );
    m.report(out);
}

/// Traced `sim-scale` (`fig_grid` false) or `fig-sweep`: every run of
/// the workload once, three ways (see [`trace_one`]); spans go to
/// `spans_path`.
pub fn traced(
    fig_grid: bool,
    seed: u64,
    out: &mut Outcome,
    spans_path: &Path,
) -> Result<(), String> {
    check_anchor(out);
    let (name, runs) = if fig_grid {
        ("fig-sweep", fig_runs(seed))
    } else {
        ("sim-scale", vec![(sim_scale_config(), seed)])
    };
    let mut spans = Spans::new(format!("{name}-seed{seed}"));
    let root = spans.open(name, None);
    let mut acc = Traced::default();
    for (cfg, s) in &runs {
        trace_one(cfg, *s, &mut acc, &mut spans, root, out);
    }
    spans.close(root);
    out.failed = acc.timed_out;
    out.attempted = runs.iter().map(|(c, _)| c.n as u64).sum();
    report_traced(&acc, out);
    let t = &acc.totals;
    spans.aggregate(
        "protocol.on_message",
        t.message_calls,
        t.message_ns as f64 / 1e9,
        Some(&acc.message_ns),
    );
    spans.aggregate(
        "protocol.on_round",
        t.round_calls,
        t.round_ns as f64 / 1e9,
        None,
    );
    spans.aggregate("simnet.send", acc.replay.sends, acc.replay.send_s, None);
    spans.aggregate("simnet.drain", acc.replay.drained, acc.replay.drain_s, None);
    spans.write(spans_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_visits_every_run_once_seed_major() {
        let n = fig_runs(0).len();
        let order: Vec<usize> = interleaved(n).collect();
        assert_eq!(&order[..3], &[0, 50, 100]);
        assert_eq!(order[n / 50], 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
