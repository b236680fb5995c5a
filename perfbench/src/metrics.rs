//! The metrics each invocation prints, by name and unit: the
//! end-to-end ones of a timed run and the per-layer ones of a traced
//! run. `BENCHMARK.json` lists the same names (`tests/benchmark_json.rs`).
//!
//! Every traced invocation reports all per-layer metrics. A layer the workload
//! never calls reports 0: the simulator workloads never encode a
//! payload or open a socket, and the cluster never steps the simulator
//! engine or its network.

use crate::report::Outcome;

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds_mean", "rounds"),
    ("completeness_mean", "fraction"),
];

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("setup.group_s", "s"),
    ("setup.scope_s", "s"),
    ("setup.protocols_s", "s"),
    ("setup.sim_s", "s"),
    ("setup.launch_s", "s"),
    ("protocol.on_message.calls", "count"),
    ("protocol.on_message.busy_s", "s"),
    ("protocol.on_message.ns.p50", "ns"),
    ("protocol.on_message.ns.p99", "ns"),
    ("protocol.on_round.calls", "count"),
    ("protocol.on_round.busy_s", "s"),
    ("protocol.sends", "count"),
    ("protocol.allocs", "count"),
    ("protocol.allocs_per_msg", "allocs/msg"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.protocol_steps", "count"),
    ("run.allocs", "count"),
    ("run.allocs_per_msg", "allocs/msg"),
    ("run.peak_heap_mb", "MB"),
    ("run_ms.p50", "ms"),
    ("run_ms.p99", "ms"),
    ("simnet.send.ns", "ns"),
    ("simnet.drain.ns_per_msg", "ns"),
    ("simnet.busy_s", "s"),
    ("simnet.peak_in_flight", "count"),
    ("codec.encode.ns", "ns"),
    ("codec.decode.ns", "ns"),
    ("codec.bytes_per_payload", "bytes"),
    ("rt.worker.busy_frac.max", "fraction"),
    ("rt.worker.busy_frac.mean", "fraction"),
    ("rt.worker.sys_frac", "fraction"),
    ("rt.wakeups", "count"),
    ("rt.mailbox_high_water", "count"),
    ("rt.frames_per_datagram", "frames/dgram"),
    ("rt.bytes_per_frame", "bytes"),
    ("rt.kernel_drops", "count"),
    ("rt.rx_queue.max_bytes", "bytes"),
    ("rt.injected_drops", "count"),
    ("rt.decode_errors", "count"),
    ("rt.stray_frames", "count"),
    ("rt.retries_per_member", "retries/member"),
    ("rt.delivered_ratio", "fraction"),
    ("rt.rounds_max", "rounds"),
    ("rt.join_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Values for [`PER_LAYER`], 0 until set.
#[derive(Debug)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Set metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = value;
    }

    /// Report every metric into `out`.
    pub fn report(&self, out: &mut Outcome) {
        for ((name, unit), v) in PER_LAYER.iter().zip(&self.values) {
            out.metric(name, *v, unit);
        }
    }
}
