//! `ledger`: the stack perf ledger of this repository.
//!
//! One run is one workload in one process, so peak memory and the
//! process-wide `janus-obs` recorder belong to that workload alone:
//!
//! ```text
//! ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--all` runs every workload, timed and traced, each in a child process;
//! `--quick` does the same at 1/50 length; `--aa` runs every workload twice
//! with one seed and holds the two against the bounds; `--describe` prints
//! what `BENCHMARK.json` must say.

mod adapter;
mod metrics;
mod probes;
mod report;
mod span;
mod spy;
mod stats;
mod sys;
mod workloads;

use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunArgs, WORKLOADS};

/// Length of the measured pass when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = workloads::FULL_RUN_SECONDS;

/// 0 if everything held, 1 if a gate, a run or an agreement did not.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

enum Mode {
    One(String),
    All,
    Quick,
    AaCheck,
    Describe,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       ledger --all | --quick | --aa  [--seed N] [--seconds S]
       ledger --describe";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => mode = Some(Mode::One(value()?.clone())),
            "--all" => mode = Some(Mode::All),
            "--quick" => mode = Some(Mode::Quick),
            "--aa" => mode = Some(Mode::AaCheck),
            "--describe" => mode = Some(Mode::Describe),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number of seconds in (0, 600]"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    cli.mode = mode.ok_or_else(|| USAGE.to_string())?;
    if matches!(cli.mode, Mode::Quick) {
        cli.seconds = DEFAULT_SECONDS / 50.0;
    }
    Ok(cli)
}

/// Run one workload in this process and print its table and result line.
fn run_one(args: &RunArgs) -> ExitCode {
    let outcome = match workloads::run(args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report::write_artifacts(args, &outcome) {
        eprintln!("ledger: artifacts not written: {e}");
    }
    print!("{}", report::table(args, &outcome));
    println!("{}", report::result_line(&outcome, args.trace));
    exit_code(report::correct(&outcome))
}

/// Run one workload in a child process of this program; pass its output
/// through if `echo`, and return the metrics of its result line, or `None`
/// if it failed.
fn run_child(args: &RunArgs, echo: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let (_, line) = stdout.trim_end().rsplit_once('\n')?;
    let result: Value = serde_json::from_str(line).ok()?;
    if !out.status.success() || result["correct"] != true {
        return None;
    }
    let metrics = result["metrics"].as_object()?;
    Some(
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
            .collect(),
    )
}

/// Every workload, timed then traced, one child process each.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: w.name.to_string(),
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
            };
            if run_child(&args, true).is_none() {
                eprintln!("ledger: {} (trace {}) failed", w.name, trace as u8);
                ok = false;
            }
        }
    }
    exit_code(ok)
}

/// Every workload twice with the same seed: two runs of one commit must
/// agree on every end-to-end metric within its bound.
fn run_aa(cli: &Cli) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in &WORKLOADS {
        let args = RunArgs {
            workload: w.name.to_string(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: false,
        };
        let (Some(first), Some(second)) = (run_child(&args, false), run_child(&args, false)) else {
            eprintln!("ledger: {} failed", w.name);
            ok = false;
            continue;
        };
        for m in metrics::end_to_end() {
            let find = |run: &[(String, f64)]| run.iter().find(|(n, _)| *n == m.name).map(|p| p.1);
            let (Some(a), Some(b)) = (find(&first), find(&second)) else {
                eprintln!("ledger: {} did not report {}", w.name, m.name);
                ok = false;
                continue;
            };
            let worse_by = match m.better {
                metrics::Better::Lower => (b - a) / a,
                metrics::Better::Higher => (a - b) / a,
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse_by.abs() > bound {
                ok = false;
                "  DISAGREE"
            } else {
                ""
            };
            println!(
                "{:<22} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                a,
                b,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.mode {
        Mode::One(workload) => run_one(&RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        }),
        Mode::All | Mode::Quick => run_all(&cli),
        Mode::AaCheck => run_aa(&cli),
        Mode::Describe => {
            let described = report::benchmark_json(DEFAULT_SECONDS);
            println!(
                "{}",
                serde_json::to_string_pretty(&described).expect("a value tree renders")
            );
            ExitCode::SUCCESS
        }
    }
}
