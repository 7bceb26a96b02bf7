//! Latency samples, quantiles, process memory, and the failure ledger.

use std::ops::Range;
use std::time::Duration;

/// Per-call latencies of one operation type, in nanoseconds.
pub struct Latencies {
    /// Saturating at 4.29 s; reserved up front so the benchmark's own
    /// buffer never reallocates inside a run (that would show in RSS).
    samples: Vec<u32>,
    total: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            samples: Vec::with_capacity(1 << 22),
            total: 0,
        }
    }
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.total += ns;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total)
    }

    /// Σ of the samples in `range`, in nanoseconds.
    pub fn sum_ns(&self, range: Range<usize>) -> u64 {
        self.samples[range].iter().map(|&ns| u64::from(ns)).sum()
    }

    /// The `q`-quantile of the samples in `range`, in microseconds
    /// (nearest rank); 0 without samples.
    pub fn quantile_us_in(&self, range: Range<usize>, q: f64) -> f64 {
        let mut sorted = self.samples[range].to_vec();
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        f64::from(sorted[rank - 1]) / 1e3
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_us_in(0..self.len(), q)
    }

    pub fn mean_us(&self) -> f64 {
        ratio(self.total as f64 / 1e3, self.samples.len() as f64)
    }
}

/// `a / b`, or 0 when `b` is 0: a metric a workload does not exercise is
/// reported as 0, never as NaN (the result line must stay valid JSON).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// One `kB` field of `/proc/self/status`, in bytes (0 off Linux).
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

/// Current resident set of this process (`VmRSS`).
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// Operations attempted and failed: a batch, read, recovery or delivery
/// that returned `Err`, was evicted, or disagreed with the oracle.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human-readable report.
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what.into());
        }
    }

    /// Count one checked operation, failing it with `what()` unless `good`.
    pub fn check(&mut self, good: bool, what: impl FnOnce() -> String) {
        if good {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }
}
