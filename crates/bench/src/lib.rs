//! Shared harness utilities for the experiment binaries.
//!
//! Every binary times one claim of the paper that no work-counter test
//! carries yet (the README's "Experiments" section lists them and names
//! the tier-1 test for each claim that moved out of a binary). Output is
//! a markdown table on stdout; the scaling benches also write a
//! `BENCH_*.json`.

use std::time::{Duration, Instant};

pub use ivm_obs::Json;

/// Scale factor for experiment sizes, read from `RIVM_SCALE` (default 1.0).
/// Use e.g. `RIVM_SCALE=0.2` for a quick smoke run.
pub fn scale() -> f64 {
    std::env::var("RIVM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`], at least `min`.
pub fn scaled(n: usize, min: usize) -> usize {
    ((n as f64 * scale()) as usize).max(min)
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Throughput in operations per second.
///
/// Total on every input: an empty or unstarted stream (zero ops, or a
/// zero duration such as `ShardedStats::max_busy()` before any worker
/// reported) yields `0.0` rather than `inf`/`NaN`, so downstream ratio
/// math and the `BENCH_*.json` emissions never see a non-finite row.
pub fn per_sec(d: Duration, ops: usize) -> f64 {
    if ops == 0 || d.as_secs_f64() == 0.0 {
        0.0
    } else {
        ops as f64 / d.as_secs_f64()
    }
}

/// `a / b` guarded for speedup columns: `NaN` when the baseline is zero
/// or either input is non-finite (the JSON emitters render `NaN` as
/// `null` instead of leaking an invalid token).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 || !a.is_finite() || !b.is_finite() {
        f64::NAN
    } else {
        a / b
    }
}

/// A simple markdown table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print as github-flavored markdown.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Start a `BENCH_*.json` document with the header fields every
/// experiment shares: the bench name and the [`scale`] it ran at. Bins
/// append their own fields and hand the document to
/// [`write_bench_json`] — one emission path instead of a hand-rolled
/// string builder per binary.
pub fn bench_doc(bench: &str) -> Json {
    Json::obj()
        .field("bench", Json::str(bench))
        .field("scale", Json::num(scale()))
}

/// Write `doc` to the path named by the `env_var` override (default
/// `default_path`), reporting where it went on stdout — the shared tail
/// of every `BENCH_*.json` emission. Non-finite numbers were already
/// mapped to `null` by [`Json::num`], so the file is always valid JSON.
pub fn write_bench_json(env_var: &str, default_path: &str, doc: &Json) {
    let path = std::env::var(env_var).unwrap_or_else(|_| default_path.to_string());
    let mut body = doc.render();
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// Format a float compactly.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "n/a".into()
    } else if v == f64::INFINITY {
        "inf".into()
    } else if v >= 1e6 {
        format!("{:.2e}", v)
    } else if v >= 100.0 {
        format!("{:.0}", v)
    } else {
        format!("{:.2}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // smoke: no panic
    }

    #[test]
    fn scaled_respects_min() {
        assert!(scaled(100, 10) >= 10);
    }

    #[test]
    fn bench_doc_carries_header_and_nulls_non_finite() {
        let doc = bench_doc("t").field("x", Json::num(f64::NAN));
        let s = doc.render();
        assert!(s.starts_with(r#"{"bench":"t","scale":"#), "{s}");
        assert!(s.contains(r#""x":null"#), "{s}");
    }

    /// The empty/unstarted-stream guards: no `inf`/`NaN` throughput from
    /// zero ops or a zero busy-time denominator, and speedup ratios over
    /// a zero baseline come back `NaN` (rendered `null` in JSON) instead
    /// of panicking or leaking `inf`.
    #[test]
    fn per_sec_and_ratio_guard_degenerate_inputs() {
        assert_eq!(per_sec(Duration::ZERO, 0), 0.0);
        assert_eq!(per_sec(Duration::ZERO, 100), 0.0);
        assert_eq!(per_sec(Duration::from_secs(1), 0), 0.0);
        assert!(per_sec(Duration::from_secs(2), 100).is_finite());
        assert!(ratio(1.0, 0.0).is_nan());
        assert!(ratio(0.0, 0.0).is_nan());
        assert!(ratio(f64::INFINITY, 1.0).is_nan());
        assert_eq!(ratio(4.0, 2.0), 2.0);
        assert_eq!(fmt(f64::NAN), "n/a");
    }
}
