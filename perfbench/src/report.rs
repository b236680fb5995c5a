//! What one benchmark invocation prints and writes: the result line
//! (metrics by name with units, output checks, attempted and failed
//! counts) and, for traced runs, the span file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Histogram;

/// JSON string literal for `s`.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `x`, with every digit `{}` keeps (shortest
/// round-trip form).
///
/// # Panics
///
/// Panics on NaN or infinity: a metric that is not a number is a
/// benchmark bug, not a value to print.
fn number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x}")
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    /// Members (or runs) attempted.
    pub attempted: u64,
    /// Of those, the ones that ended without a result for a reason
    /// other than an injected crash.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.metrics.iter().any(|(n, ..)| n == name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record an output check; a false `ok` fails the invocation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// `(name, unit)` of every metric recorded, in order.
    pub fn names(&self) -> Vec<(&str, &str)> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect()
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The one-line result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Per-call layer aggregate: count, total time and latency histogram.
struct Aggregate {
    name: String,
    count: u64,
    total_s: f64,
    histogram: Vec<(f64, u64)>,
}

/// Spans around each call into a layer, all sharing one run id, plus
/// per-run aggregates for layers called per message. Kept in memory
/// and written once when the run ends.
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Spans {
    /// An empty recorder for run `run_id`.
    pub fn new(run_id: String) -> Self {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// Open a span; returns its id for [`Spans::close`] and children.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Record a finished span from its start and end instants.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: at(start),
            end: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Record a per-run aggregate for a per-call layer.
    pub fn aggregate(
        &mut self,
        name: &str,
        count: u64,
        total_s: f64,
        histogram: Option<&Histogram>,
    ) {
        self.aggregates.push(Aggregate {
            name: name.to_string(),
            count,
            total_s,
            histogram: histogram.map(Histogram::nonzero).unwrap_or_default(),
        });
    }

    /// Write every span and aggregate to `path` as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path, if the file cannot be written.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = format!("{{\"run_id\": {}, \"spans\": [\n", quote(&self.run_id));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { ",\n" },
                quote(&s.name),
                number(s.start),
                number(s.end),
            );
        }
        out.push_str("\n], \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            let hist: Vec<String> = a
                .histogram
                .iter()
                .map(|(mid, c)| format!("[{}, {c}]", number(*mid)))
                .collect();
            let _ = write!(
                out,
                "{}  {{\"name\": {}, \"count\": {}, \"total_s\": {}, \"ns_histogram\": [{}]}}",
                if i == 0 { "" } else { ",\n" },
                quote(&a.name),
                a.count,
                number(a.total_s),
                hist.join(", ")
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.25, "s");
        o.metric("msgs_per_s", 1e7, "msg/s");
        o.check(true, || unreachable!());
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"msgs_per_s\": {\"value\": 10000000, \"unit\": \"msg/s\"}}}"
        );
        o.check(false, || "broken".into());
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_metric_is_refused() {
        let mut o = Outcome::default();
        o.metric("x", f64::NAN, "s");
        let _ = o.to_json();
    }
}
