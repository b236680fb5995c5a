//! # gridagg-bench
//!
//! The figure/table regeneration harness: one binary per figure of the
//! paper's evaluation (§7) plus the complexity table and ablations.
//! Shared helpers here: run-count control, aligned table printing, and
//! CSV output under `results/`.
//!
//! Every `figNN` binary prints the paper's series (x, incompleteness,
//! auxiliary columns) and writes `results/figNN.csv`. Absolute values
//! need not match the 2001 testbed; the *shapes* — directions, rough
//! factors, crossovers — are the reproduction target (see
//! EXPERIMENTS.md).
//!
//! Environment knobs:
//! * `GRIDAGG_RUNS` — runs per sweep point (default 40; figures in the
//!   paper average "several runs").
//! * `GRIDAGG_SEED` — base seed (default 2001).
//! * `GRIDAGG_OUT` — output directory for CSVs (default `results`).
//! * `GRIDAGG_JOBS` — sweep worker threads (default: all cores); the
//!   `--jobs N` flag takes precedence. See [`sweep`].

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod plot;
pub mod sweep;

/// Runs per sweep point (`GRIDAGG_RUNS`, default 40).
pub fn runs() -> usize {
    std::env::var("GRIDAGG_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Base seed (`GRIDAGG_SEED`, default 2001).
pub fn base_seed() -> u64 {
    std::env::var("GRIDAGG_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2001)
}

/// Output directory (`GRIDAGG_OUT`, default `results`), created on
/// demand.
///
/// # Panics
///
/// Panics if the directory cannot be created: results silently landing
/// nowhere is worse than a loud stop (a bench run whose CSVs vanish
/// looks identical to one that succeeded).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("GRIDAGG_OUT").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&path) {
        panic!(
            "gridagg-bench: cannot create output directory {}: {e}",
            path.display()
        );
    }
    path
}

/// Write a CSV under the output directory.
///
/// # Panics
///
/// Panics if the file cannot be written — bench output is the whole
/// point of a run, so an I/O failure must not be reduced to a log line.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    let path = out_dir().join(name);
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => panic!("gridagg-bench: could not write {}: {e}", path.display()),
    }
}

/// Serialize a value as pretty JSON under the output directory —
/// experiment configs are recorded next to their results so every CSV
/// is reproducible from its own provenance file.
///
/// # Panics
///
/// Panics if the file cannot be written (see [`write_csv`]).
pub fn write_json<T: gridagg_core::json::ToJson>(name: &str, value: &T) {
    let path = out_dir().join(name);
    let body = value.to_json().to_string_pretty();
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => panic!("gridagg-bench: could not write {}: {e}", path.display()),
    }
}

/// Time budget per benchmark in milliseconds (`GRIDAGG_BENCH_MS`,
/// default 300).
pub fn bench_budget_ms() -> u64 {
    std::env::var("GRIDAGG_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64)
}

/// Calibrated mean wall-clock time of `f`: one warm-up call sizes an
/// iteration count targeting `budget_ms` of work (capped at
/// `max_iters`), then the mean per-iteration duration and the number of
/// timed iterations are returned.
///
/// Callers that *record* timings (e.g. `bench_baseline`) bound cost
/// with a hard iteration cap — pass [`runs()`] so `GRIDAGG_RUNS=2`
/// keeps a CI smoke run cheap — and format the result themselves.
pub fn time_mean(
    budget_ms: u64,
    max_iters: u32,
    mut f: impl FnMut(),
) -> (std::time::Duration, u32) {
    use std::time::{Duration, Instant};
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(50));
    let target = Duration::from_millis(budget_ms);
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, u128::from(max_iters.max(1))) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed() / iters, iters)
}

/// Format a float in compact scientific-ish notation for tables.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 0.01 && x.abs() < 10_000.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Print an aligned table with a title.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    println!("{out}");
}

/// Shape check helper: non-increasing series.
pub fn is_decreasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] <= w[0])
}

/// Shape check helper tolerant of sampling noise: each step may exceed
/// its predecessor by at most 30% + epsilon, and the series must fall
/// clearly end to end.
pub fn is_decreasing_noisy(values: &[f64]) -> bool {
    if values.len() < 2 {
        return true;
    }
    let steps_ok = values.windows(2).all(|w| w[1] <= w[0] * 1.3 + 1e-6);
    let overall = values[values.len() - 1] <= values[0] * 0.5 + 1e-9;
    steps_ok && overall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.1234), "0.1234");
        assert!(sci(1.5e-7).contains('e'));
        assert!(sci(1.0e9).contains('e'));
    }

    #[test]
    fn decreasing_check() {
        assert!(is_decreasing(&[3.0, 2.0, 2.0, 0.0]));
        assert!(!is_decreasing(&[1.0, 2.0]));
        assert!(is_decreasing(&[]));
    }

    #[test]
    fn noisy_decreasing_check() {
        // small upward noise allowed
        assert!(is_decreasing_noisy(&[0.17, 0.066, 0.0054, 0.0057]));
        // clear end-to-end fall required
        assert!(!is_decreasing_noisy(&[0.01, 0.0099]));
        // large upward jump rejected
        assert!(!is_decreasing_noisy(&[0.1, 0.2, 0.001]));
        assert!(is_decreasing_noisy(&[1.0]));
    }

    #[test]
    fn defaults_without_env() {
        assert!(runs() > 0);
        let _ = base_seed();
    }
}
