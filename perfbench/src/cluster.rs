//! `cluster-loopback`: the `cluster_10k` `full` grid — 10,000 members
//! over 64 loopback UDP sockets on 2 workers, 10% injected loss, 100 ms
//! rounds, 32 KB datagrams — in timed and traced form, checked against
//! an in-run simulator reference at the same N and loss.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridagg_core::config::ExperimentConfig;
use gridagg_core::hiergossip::HierGossipConfig;
use gridagg_core::message::{codec, Payload};
use gridagg_core::scope::ScopeIndex;
use gridagg_group::view::View;
use gridagg_hierarchy::{FairHashPlacement, Hierarchy};
use gridagg_runtime::{Cluster, RuntimeConfig, RuntimeReport};
use gridagg_simnet::rng::DetRng;

use crate::assemble::{assemble, Agg};
use crate::metrics::Layers;
use crate::probe::{Probe, Timed};
use crate::procfs::{self, Cpu};
use crate::report::{Outcome, Spans};
use crate::stats::{fingerprint, median};

const N: usize = 10_000;
const SOCKETS: usize = 64;
const WORKERS: usize = 2;
const LOSS: f64 = 0.10;
const ROUND: Duration = Duration::from_millis(100);
const DATAGRAM: usize = 32 * 1024;
/// Worker thread name prefix (`Cluster::launch` names them `gridagg-w<i>`).
const WORKER_PREFIX: &str = "gridagg-w";
/// The cluster may fall this far below the simulator's completeness.
const SIM_MARGIN: f64 = 0.02;
/// How often the traced run samples `/proc` while the cluster runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

fn runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        sockets: SOCKETS,
        workers: WORKERS,
        round_interval: ROUND,
        max_datagram: DATAGRAM,
        seed,
        ..Default::default()
    }
    .with_uniform_loss(LOSS)
}

/// Member votes drawn from the workload seed, uniform on [0, 100).
fn votes(seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seeded(seed).fork(0x766F_7465); // "vote"
    (0..N).map(|_| rng.unit() * 100.0).collect()
}

fn scope_index(seed: u64) -> Arc<ScopeIndex> {
    let h = Hierarchy::for_group(4, N).expect("hierarchy shape");
    ScopeIndex::build(&View::complete(N), &FairHashPlacement::new(h, seed))
}

/// The simulator reference: same protocol, N and loss, no crashes.
fn reference_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults()
        .with_n(N)
        .with_ucastl(LOSS)
        .with_pf(0.0)
        .with_engine_jobs(2);
    cfg.phase_trace = false;
    cfg
}

/// One launch-and-join of the cluster.
struct ClusterSample {
    scope_s: f64,
    launch_s: f64,
    join_s: f64,
    cpu: Cpu,
    report: RuntimeReport,
    /// Members that ended without an estimate or did not report.
    failed: u64,
    marks: [Instant; 4],
}

/// `/proc` state sampled while a traced cluster runs.
#[derive(Debug)]
struct Sampled {
    /// Per worker: CPU between its first and last sample over the
    /// wall time between them.
    busy_frac: Vec<f64>,
    sys_frac: f64,
    rx_queue_max: u64,
    kernel_drops: u64,
}

/// A thread reading worker CPU and pool-socket state from `/proc`
/// until stopped or until the workers start to exit.
struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<Sampled, String>>,
}

fn sample_loop(ports: Vec<u16>, stop: Arc<AtomicBool>) -> Result<Sampled, String> {
    let mut first: Vec<(String, Instant, Cpu)> = Vec::new();
    let mut last: Vec<(String, Instant, Cpu)> = Vec::new();
    let (mut rx_max, mut drops, mut sockets_seen) = (0, 0, false);
    let started = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let threads = procfs::threads_cpu(WORKER_PREFIX)?;
        if threads.len() < WORKERS {
            // a new thread names itself once it runs; until every
            // worker has been seen, keep looking, then a missing
            // worker means the cluster is shutting down
            if first.is_empty() && started.elapsed() < Duration::from_secs(2) {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            break;
        }
        let now = Instant::now();
        last = threads.into_iter().map(|(n, c)| (n, now, c)).collect();
        if first.is_empty() {
            first = last.clone();
        }
        match procfs::udp_sockets(&ports) {
            Ok(rows) => {
                rx_max = rx_max.max(rows.iter().map(|r| r.rx_queue).max().unwrap_or(0));
                drops = rows.iter().map(|r| r.drops).sum();
                sockets_seen = true;
            }
            // each worker closes its sockets when its last member
            // retires, so once every port has been seen a missing one
            // marks the cluster's teardown; missing from the start, the
            // sockets are not where the benchmark looks
            Err(_) if sockets_seen => break,
            Err(e) => return Err(e),
        }
        std::thread::sleep(SAMPLE_EVERY);
    }
    if first.len() != WORKERS || last.len() != WORKERS {
        return Err(format!(
            "sampled {} then {} of {WORKERS} worker threads",
            first.len(),
            last.len()
        ));
    }
    let mut busy = Vec::new();
    let (mut user, mut sys) = (0.0, 0.0);
    for ((name, t0, c0), (name1, t1, c1)) in first.iter().zip(&last) {
        if name != name1 {
            return Err(format!(
                "worker threads changed while sampling: {name} vs {name1}"
            ));
        }
        let d = c1.since(c0);
        let span = (*t1 - *t0).as_secs_f64();
        if span <= 0.0 {
            return Err("the cluster finished before a second /proc sample".into());
        }
        busy.push(d.total() / span);
        user += d.user;
        sys += d.sys;
    }
    Ok(Sampled {
        busy_frac: busy,
        sys_frac: if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
        rx_queue_max: rx_max,
        kernel_drops: drops,
    })
}

impl Sampler {
    fn start(ports: Vec<u16>) -> Result<Self, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("perfbench-proc".into())
            .spawn(move || sample_loop(ports, flag))
            .map_err(|e| format!("cannot spawn the /proc sampler: {e}"))?;
        Ok(Sampler { stop, handle })
    }

    fn finish(self) -> Result<Sampled, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| "the /proc sampler panicked".to_string())?
    }
}

/// Launch and join one cluster; with `sample`, also watch it from
/// `/proc` while it runs.
fn one_cluster(seed: u64, sample: bool) -> Result<(ClusterSample, Option<Sampled>), String> {
    let votes = votes(seed);
    let c0 = procfs::process_cpu()?;
    let t0 = Instant::now();
    let index = scope_index(seed);
    let t1 = Instant::now();
    let cluster = Cluster::<Agg>::launch(
        votes,
        index,
        HierGossipConfig::default(),
        runtime_config(seed),
    )
    .map_err(|e| format!("cluster launch failed: {e}"))?;
    let t2 = Instant::now();
    let sampler = if sample {
        Some(Sampler::start(
            cluster.addrs().iter().map(|a| a.port()).collect(),
        )?)
    } else {
        None
    };
    let run = cluster.join();
    let t3 = Instant::now();
    let cpu = procfs::process_cpu()?.since(&c0);
    let sampled = sampler.map(Sampler::finish).transpose()?;
    let with_estimate = run.outcomes.iter().filter(|o| o.estimate.is_some()).count();
    let sample = ClusterSample {
        scope_s: (t1 - t0).as_secs_f64(),
        launch_s: (t2 - t1).as_secs_f64(),
        join_s: (t3 - t2).as_secs_f64(),
        cpu,
        failed: (N - with_estimate) as u64,
        report: run.report,
        marks: [t0, t1, t2, t3],
    };
    Ok((sample, sampled))
}

fn check_sample(out: &mut Outcome, s: &ClusterSample, reference: f64) {
    let r = &s.report;
    out.check(r.reported == N, || {
        format!("cluster: only {}/{N} members reported", r.reported)
    });
    out.check(r.stats.decode_errors == 0, || {
        format!("cluster: {} decode errors", r.stats.decode_errors)
    });
    out.check(r.mean_completeness + SIM_MARGIN >= reference, || {
        format!(
            "cluster: completeness {:.4} below the simulator's {reference:.4} (margin {SIM_MARGIN})",
            r.mean_completeness
        )
    });
}

/// Mean completeness of the simulator reference for `seed`.
fn reference(seed: u64) -> f64 {
    let (sim, _) = assemble(&reference_config(), seed, |p| p);
    sim.run().mean_completeness().unwrap_or(0.0)
}

/// Timed `cluster-loopback`.
pub fn timed(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let (s, _) = one_cluster(seed, false)?;
        let took = s.scope_s + s.launch_s + s.join_s;
        eprintln!(
            "cluster-loopback: run {}: set-up {:.4} s, join {:.3} s, cpu {:.2} s, rounds {:.2}",
            samples.len() + 1,
            s.scope_s + s.launch_s,
            s.join_s,
            s.cpu.total(),
            s.report.mean_rounds
        );
        if samples.is_empty() {
            // later runs in the same process reuse a fragmented heap
            peak_rss = procfs::peak_rss_mb()?;
        }
        samples.push(s);
        if start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    let sim = reference(seed);
    for s in &samples {
        check_sample(out, s, sim);
    }
    let of = |f: fn(&ClusterSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    out.attempted = (N * samples.len()) as u64;
    out.failed = samples.iter().map(|s| s.failed).sum();
    out.metric("setup_s", median(&of(|s| s.scope_s + s.launch_s)), "s");
    out.metric("wall_s", median(&of(|s| s.join_s)), "s");
    out.metric(
        "msgs_per_s",
        median(&of(|s| s.report.stats.frames_sent as f64 / s.join_s)),
        "msg/s",
    );
    out.metric("cpu_s", median(&of(|s| s.cpu.total())), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric(
        "rounds_mean",
        median(&of(|s| s.report.mean_rounds)),
        "rounds",
    );
    out.metric(
        "completeness_mean",
        median(&of(|s| s.report.mean_completeness)),
        "fraction",
    );
    Ok(())
}

/// Encode and decode every sampled payload, in passes, until at least
/// `budget` has been spent encoding. Returns (encode ns, decode ns,
/// bytes) per payload; fails if a payload does not survive the round
/// trip.
fn codec_passes(
    payloads: &[Payload<Agg>],
    budget: Duration,
    spans: &mut Spans,
    parent: usize,
) -> Result<(f64, f64, f64), String> {
    if payloads.is_empty() {
        return Err("the reference run sampled no payloads".into());
    }
    let mut bufs: Vec<Vec<u8>> = payloads.iter().map(|_| Vec::new()).collect();
    for (p, b) in payloads.iter().zip(bufs.iter_mut()) {
        codec::encode(p, b);
        let decoded = codec::decode::<Agg, _>(&mut b.as_slice())
            .map_err(|e| format!("codec round trip failed: {e:?}"))?;
        if decoded != *p {
            return Err("codec round trip changed a payload".into());
        }
    }
    let bytes = bufs.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len() as f64;
    let (mut enc, mut dec, mut calls) = (Duration::ZERO, Duration::ZERO, 0u64);
    while enc < budget || calls < 3 * payloads.len() as u64 {
        let s = spans.open("codec.encode", Some(parent));
        let t0 = Instant::now();
        for (p, b) in payloads.iter().zip(bufs.iter_mut()) {
            b.clear();
            codec::encode(std::hint::black_box(p), b);
        }
        enc += t0.elapsed();
        spans.close(s);
        let s = spans.open("codec.decode", Some(parent));
        let t0 = Instant::now();
        for b in &bufs {
            let mut slice = std::hint::black_box(b.as_slice());
            let _ = std::hint::black_box(codec::decode::<Agg, _>(&mut slice));
        }
        dec += t0.elapsed();
        spans.close(s);
        calls += payloads.len() as u64;
    }
    spans.aggregate("codec.encode", calls, enc.as_secs_f64(), None);
    spans.aggregate("codec.decode", calls, dec.as_secs_f64(), None);
    Ok((
        enc.as_secs_f64() * 1e9 / calls as f64,
        dec.as_secs_f64() * 1e9 / calls as f64,
        bytes,
    ))
}

/// Traced `cluster-loopback`: one untraced cluster run, one with the
/// `/proc` sampler, then the decorated simulator reference whose
/// sampled payloads time the codec.
pub fn traced(seed: u64, out: &mut Outcome, spans_path: &std::path::Path) -> Result<(), String> {
    let mut spans = Spans::new(format!("cluster-loopback-seed{seed}"));
    let root = spans.open("cluster-loopback", None);
    let (plain, _) = one_cluster(seed, false)?;
    let m = plain.marks;
    spans.record("setup.scope", Some(root), m[0], m[1]);
    spans.record("cluster.launch", Some(root), m[1], m[2]);
    spans.record("cluster.join", Some(root), m[2], m[3]);
    let (s, sampled) = one_cluster(seed, true)?;
    let sampled = sampled.expect("sampling was asked for");
    let m = s.marks;
    spans.record("setup.scope.traced", Some(root), m[0], m[1]);
    spans.record("cluster.launch.traced", Some(root), m[1], m[2]);
    spans.record("cluster.join.traced", Some(root), m[2], m[3]);

    let cfg = reference_config();
    let r = spans.open("reference", Some(root));
    let (sim, _) = assemble(&cfg, seed, |p| p);
    let base = sim.run();
    let probe = Probe::new(cfg.max_rounds(), cfg.engine_jobs, 128);
    let (sim, _) = assemble(&cfg, seed, |p| Timed::new(p, probe.clone()));
    let (decorated, members) = sim.run_returning();
    spans.close(r);
    out.check(fingerprint(&decorated) == fingerprint(&base), || {
        "cluster reference: decorated run differs from the untraced run".into()
    });
    let sim_completeness = base.mean_completeness().unwrap_or(0.0);
    check_sample(out, &plain, sim_completeness);
    check_sample(out, &s, sim_completeness);
    let payloads: Vec<Payload<Agg>> = members.into_iter().flat_map(|m| m.samples).collect();
    let codec_span = spans.open("codec", Some(root));
    let (enc_ns, dec_ns, bytes) = codec_passes(
        &payloads,
        Duration::from_millis(300),
        &mut spans,
        codec_span,
    )?;
    spans.close(codec_span);
    spans.close(root);

    let r = &s.report;
    let st = &r.stats;
    out.attempted = N as u64;
    out.failed = s.failed;
    let mut l = Layers::default();
    l.set("setup.scope_s", s.scope_s);
    l.set("setup.launch_s", s.launch_s);
    l.set("codec.encode.ns", enc_ns);
    l.set("codec.decode.ns", dec_ns);
    l.set("codec.bytes_per_payload", bytes);
    let busy = &sampled.busy_frac;
    l.set(
        "rt.worker.busy_frac.max",
        busy.iter().copied().fold(0.0, f64::max),
    );
    l.set(
        "rt.worker.busy_frac.mean",
        busy.iter().sum::<f64>() / busy.len() as f64,
    );
    l.set("rt.worker.sys_frac", sampled.sys_frac);
    l.set("rt.wakeups", st.wakeups as f64);
    l.set("rt.mailbox_high_water", st.mailbox_high_water as f64);
    l.set("rt.frames_per_datagram", r.frames_per_datagram());
    l.set(
        "rt.bytes_per_frame",
        st.bytes_sent as f64 / st.frames_sent.max(1) as f64,
    );
    l.set("rt.kernel_drops", sampled.kernel_drops as f64);
    l.set("rt.rx_queue.max_bytes", sampled.rx_queue_max as f64);
    l.set("rt.injected_drops", st.injected_drops as f64);
    l.set("rt.decode_errors", st.decode_errors as f64);
    l.set("rt.stray_frames", st.stray_frames as f64);
    l.set("rt.retries_per_member", st.retries as f64 / N as f64);
    l.set(
        "rt.delivered_ratio",
        st.frames_recv as f64 / st.frames_sent.max(1) as f64,
    );
    l.set("rt.rounds_max", r.max_rounds_seen as f64);
    l.set("rt.join_s", s.join_s);
    // one untraced run: its set-up + join is both percentiles
    let run_ms = (plain.scope_s + plain.launch_s + plain.join_s) * 1e3;
    l.set("run_ms.p50", run_ms);
    l.set("run_ms.p99", run_ms);
    l.set("trace.overhead_frac", s.join_s / plain.join_s - 1.0);
    l.report(out);
    spans.write(spans_path)
}
