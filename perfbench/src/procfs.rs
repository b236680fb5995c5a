//! Readers for the `/proc` files the benchmark measures from outside
//! the program: process and thread CPU time, peak resident memory,
//! thread names, and the kernel's per-socket UDP state.
//!
//! Each reader is a pure parser over the file's text (unit-tested on
//! fixture text) plus a thin loader. An unreadable file, a malformed
//! line or a missing socket is an error, never a zero.

use std::fs;

/// Clock ticks per second for the `clock_t` fields of `stat` files.
fn clock_ticks() -> Result<f64, String> {
    // `sysconf(_SC_CLK_TCK)`; `_SC_CLK_TCK` is 2 on Linux (glibc and musl).
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    // SAFETY: `sysconf` takes a plain integer and reads no memory of ours.
    let ticks = unsafe { sysconf(2) };
    if ticks <= 0 {
        return Err(format!("sysconf(_SC_CLK_TCK) returned {ticks}"));
    }
    Ok(ticks as f64)
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// User and system CPU time in clock ticks, from the text of a
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` file.
pub fn parse_stat_ticks(text: &str) -> Result<(u64, u64), String> {
    // the command name (field 2) is parenthesised and may hold spaces,
    // so count fields from the last ')'
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or_else(|| format!("stat line has no ')': {text:?}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state); utime is field 14, stime field 15
    let get = |i: usize, name: &str| -> Result<u64, String> {
        fields
            .get(i)
            .ok_or_else(|| format!("stat line too short for {name}: {text:?}"))?
            .parse()
            .map_err(|e| format!("bad {name} in stat line: {e}"))
    };
    Ok((get(11, "utime")?, get(12, "stime")?))
}

/// CPU time split into user and system seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub sys: f64,
}

impl Cpu {
    /// User plus system seconds.
    pub fn total(&self) -> f64 {
        self.user + self.sys
    }

    /// Time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

fn cpu_of(path: &str) -> Result<Cpu, String> {
    let (u, s) = parse_stat_ticks(&read(path)?)?;
    let hz = clock_ticks()?;
    Ok(Cpu {
        user: u as f64 / hz,
        sys: s as f64 / hz,
    })
}

/// This process's CPU time, all threads included.
pub fn process_cpu() -> Result<Cpu, String> {
    cpu_of("/proc/self/stat")
}

/// `VmHWM` (peak resident set) in kB, from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(text: &str) -> Result<u64, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("status has no VmHWM line")?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next().ok_or("VmHWM line has no value")?;
    if parts.next() != Some("kB") {
        return Err(format!("VmHWM line not in kB: {line:?}"));
    }
    value.parse().map_err(|e| format!("bad VmHWM value: {e}"))
}

/// Peak resident memory of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(parse_vm_hwm_kb(&read("/proc/self/status")?)? as f64 * 1024.0 / 1e6)
}

/// CPU time of every live thread of this process whose name starts
/// with `prefix`, keyed by thread name (sorted).
pub fn threads_cpu(prefix: &str) -> Result<Vec<(String, Cpu)>, String> {
    let dir =
        fs::read_dir("/proc/self/task").map_err(|e| format!("cannot list /proc/self/task: {e}"))?;
    let mut out = Vec::new();
    for entry in dir {
        let entry = entry.map_err(|e| format!("cannot list /proc/self/task: {e}"))?;
        let base = entry.path();
        let Ok(comm) = fs::read_to_string(base.join("comm")) else {
            continue; // the thread exited between listing and reading
        };
        let name = comm.trim_end().to_string();
        if !name.starts_with(prefix) {
            continue;
        }
        let Ok(stat) = fs::read_to_string(base.join("stat")) else {
            continue;
        };
        let (u, s) = parse_stat_ticks(&stat)?;
        let hz = clock_ticks()?;
        out.push((
            name,
            Cpu {
                user: u as f64 / hz,
                sys: s as f64 / hz,
            },
        ));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Kernel state of one UDP socket from `/proc/net/udp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRow {
    /// Local port.
    pub port: u16,
    /// Bytes queued for the receiver.
    pub rx_queue: u64,
    /// Datagrams the kernel dropped on this socket.
    pub drops: u64,
}

/// Parse the rows of `/proc/net/udp` text (header skipped).
pub fn parse_net_udp(text: &str) -> Result<Vec<UdpRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() {
            continue;
        }
        if f.len() < 13 {
            return Err(format!("short /proc/net/udp row: {line:?}"));
        }
        let port_hex = f[1]
            .rsplit_once(':')
            .ok_or_else(|| format!("bad local address {:?}", f[1]))?
            .1;
        let rx_hex = f[4]
            .split_once(':')
            .ok_or_else(|| format!("bad queue field {:?}", f[4]))?
            .1;
        rows.push(UdpRow {
            port: u16::from_str_radix(port_hex, 16)
                .map_err(|e| format!("bad port {port_hex:?}: {e}"))?,
            rx_queue: u64::from_str_radix(rx_hex, 16)
                .map_err(|e| format!("bad rx_queue {rx_hex:?}: {e}"))?,
            drops: f[12]
                .parse()
                .map_err(|e| format!("bad drops {:?}: {e}", f[12]))?,
        });
    }
    Ok(rows)
}

/// The rows for exactly `ports`, in `ports` order; a port with no row
/// is an error (the socket is not where the benchmark expects it).
pub fn select_ports(rows: &[UdpRow], ports: &[u16]) -> Result<Vec<UdpRow>, String> {
    ports
        .iter()
        .map(|p| {
            rows.iter()
                .find(|r| r.port == *p)
                .copied()
                .ok_or_else(|| format!("pool port {p} has no /proc/net/udp row"))
        })
        .collect()
}

/// The kernel rows of this process's network namespace for `ports`.
pub fn udp_sockets(ports: &[u16]) -> Result<Vec<UdpRow>, String> {
    select_ports(&parse_net_udp(&read("/proc/self/net/udp")?)?, ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_skip_a_comm_with_spaces_and_parens() {
        let text = "4242 (gridagg (w) 0) S 1 2 3 0 -1 4194304 81 0 0 0 731 42 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_ticks(text), Ok((731, 42)));
    }

    #[test]
    fn stat_without_paren_or_short_fails() {
        assert!(parse_stat_ticks("4242 cat S 1 2").is_err());
        assert!(parse_stat_ticks("4242 (cat) S 1 2 3").is_err());
        assert!(parse_stat_ticks("1 (x) S 1 2 3 0 -1 4 81 0 0 0 zz 42").is_err());
    }

    #[test]
    fn vm_hwm_reads_kb_and_rejects_missing_line() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    1748 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Ok(1748));
        assert!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n").is_err());
        assert!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n").is_err());
    }

    const UDP: &str = "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  101: 0100007F:A1B2 00000000:0000 07 00000000:00001A00 00:00000000 00000000     0        0 81234 2 0000000000000000 7
  102: 0100007F:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 81235 2 0000000000000000 0
";

    #[test]
    fn net_udp_rows_decode_hex_ports_queues_and_drops() {
        let rows = parse_net_udp(UDP).expect("parse");
        assert_eq!(
            rows,
            vec![
                UdpRow {
                    port: 0xA1B2,
                    rx_queue: 0x1A00,
                    drops: 7
                },
                UdpRow {
                    port: 53,
                    rx_queue: 0,
                    drops: 0
                },
            ]
        );
    }

    #[test]
    fn a_missing_pool_port_is_an_error_not_a_zero() {
        let rows = parse_net_udp(UDP).expect("parse");
        assert_eq!(select_ports(&rows, &[53]).expect("present")[0].port, 53);
        let err = select_ports(&rows, &[53, 9999]).expect_err("9999 is absent");
        assert!(err.contains("9999"), "{err}");
    }

    #[test]
    fn malformed_udp_rows_fail() {
        assert!(parse_net_udp("hdr\n  1: 0100007F:ZZZZ 0:0 07 0:0 0 0 0 0 0 1 2 0 0\n").is_err());
        assert!(parse_net_udp("hdr\n  1: 0100007F:0035 0:0\n").is_err());
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(peak_rss_mb().expect("status") > 0.0);
        assert!(process_cpu().expect("stat").total() >= 0.0);
        assert!(threads_cpu("no-such-thread-prefix")
            .expect("task")
            .is_empty());
    }
}
