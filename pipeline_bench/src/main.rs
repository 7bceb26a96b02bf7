//! `pipeline`: one end-to-end benchmark of the ingest → journal → route →
//! maintain → fan-out path, with a per-layer budget. See `README.md`.
//!
//! ```text
//! pipeline-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! runs one workload in this process and prints a report followed by one
//! JSON result line. Without `--workload` it runs every workload, both
//! passes, each in a child process of its own.

mod budget;
mod measure;
mod oracle;
mod run;
mod schema;
mod workloads;

use ivm::obs::Json;
use run::{Config, Outcome};
use schema::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::SPECS;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !SPECS.iter().any(|s| s.name == value) {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    return Err(bad(&format!("one of {}", names.join(", "))));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("a number of seconds in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Per-run scratch space beside the executable, i.e. inside the build
/// directory: the durable stores and the trace files live there.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("the executable has a directory")?;
    Ok(dir.join("pipeline"))
}

/// The `(name, unit)` table a pass prints.
fn contract(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = contract(trace).iter().fold(Json::obj(), |o, (name, unit)| {
        let value = Json::num(outcome.metrics.get(name));
        o.field(
            *name,
            Json::obj()
                .field("value", value)
                .field("unit", Json::str(*unit)),
        )
    });
    Json::obj()
        .field("correct", Json::Bool(outcome.ledger.failed == 0))
        .field("attempted", Json::num(outcome.ledger.attempted as f64))
        .field("failed", Json::num(outcome.ledger.failed as f64))
        .field("metrics", metrics)
        .render()
}

fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = SPECS.iter().find(|s| s.name == name).expect("validated");
    let scratch = scratch_root()?.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = Config {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
    };
    println!(
        "# pipeline / {} / seed {} / {} s / {} pass",
        spec.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!(
        "cores {} / profile {} / closed loop, 1 caller",
        std::thread::available_parallelism().map_or(0, usize::from),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!("sizes: {}", spec.sizes);
    let outcome = run::run(&cfg);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    for line in &outcome.report {
        println!("{line}");
    }
    for (name, unit) in contract(args.trace) {
        println!("{name:<42} {:>16.4} {unit}", outcome.metrics.get(name));
    }
    let ledger = &outcome.ledger;
    println!(
        "failed_ops_pct {:.4} % ({} of {} operations)",
        100.0 * measure::ratio(ledger.failed as f64, ledger.attempted as f64),
        ledger.failed,
        ledger.attempted
    );
    for note in &ledger.notes {
        println!("FAILED: {note}");
    }
    println!("{}", result_line(&outcome, args.trace));
    Ok(if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a fresh child process
/// so `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for spec in &SPECS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| format!("spawning {}: {e}", spec.name))?;
            if !status.success() {
                failed.push(format!("{} --trace {trace}", spec.name));
            }
            println!();
        }
    }
    if failed.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    println!("FAILED: {}", failed.join(", "));
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.clone() {
        Some(name) => run_one(&args, &name),
        None => run_all(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("pipeline-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Json::as_arr).expect(key);
            let name = |i: &Json| {
                i.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            };
            items.iter().map(name).collect()
        };
        assert_eq!(names("workloads"), SPECS.map(|s| s.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|(n, _)| n));
        assert_eq!(names("per_layer"), PER_LAYER.map(|(n, _)| n));
        let units = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Json::as_arr).expect(key);
            let unit = |i: &Json| {
                i.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string()
            };
            items.iter().map(unit).collect()
        };
        assert_eq!(units("end_to_end"), END_TO_END.map(|(_, u)| u));
        assert_eq!(units("per_layer"), PER_LAYER.map(|(_, u)| u));
    }

    /// All five workloads at a fraction of a second, both passes, oracle
    /// on: keeps the harness compiling and correct as APIs move.
    #[test]
    fn every_workload_runs_and_agrees_with_the_oracle() {
        for spec in &SPECS {
            for trace in [false, true] {
                let scratch = std::env::temp_dir().join(format!(
                    "pipeline-bench-test-{}-{}-{trace}",
                    std::process::id(),
                    spec.name
                ));
                std::fs::create_dir_all(&scratch).unwrap();
                let cfg = Config {
                    spec,
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    scratch: scratch.clone(),
                };
                let outcome = run::run(&cfg);
                let _ = std::fs::remove_dir_all(&scratch);
                let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert_eq!(
                    outcome.ledger.failed, 0,
                    "{}: {:?}",
                    spec.name, outcome.ledger.notes
                );
                assert!(outcome.ledger.attempted > 0);
                assert!(result_line(&outcome, trace).contains(contract(trace)[0].0));
            }
        }
    }
}
