//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro lab [--only <glob>]... [--jobs N] [--seed N] [--verify]
//! repro list
//! repro [plan|table1|...|faults|crash|trace|all]... [--json]
//! ```
//!
//! `repro lab` runs the experiment DAG: independent tasks in parallel
//! (bounded by `--jobs`), each emitting its artifacts plus a
//! reproducibility `manifest.json` and a `diagnostics.json` under
//! `artifacts/<task>/`. `--only` selects tasks by name or `tag/name`
//! glob (e.g. `--only 'ci/*'`, `--only 'fig*'`), closed over
//! dependencies. `--verify` re-runs each selected task from its
//! recorded manifest and fails on any bitwise difference in the
//! canonical (timing-masked) artifact digests.
//!
//! The experiment names (`fig12`, `faults`, ...) remain as thin aliases
//! that run the matching task serially; `all` runs every task. Add
//! `--json` to also dump each artifact's raw rows as JSON (for
//! EXPERIMENTS.md bookkeeping).
//!
//! Performance is measured by the perf ledger (`ledger/`, declared in
//! `BENCHMARK.json`), not by this binary.

use janus_bench::lab::registry;
use janus_lab::{Dag, Executor, LabEnv, RunSummary, TaskStatus};
use std::collections::BTreeSet;

/// Where the lab writes artifacts, relative to the invocation directory.
const ARTIFACT_ROOT: &str = "artifacts";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dag = registry();
    let code = match args.first().map(String::as_str) {
        Some("lab") => run_lab(&dag, &args[1..]),
        Some("list") => {
            print_task_list(&dag);
            0
        }
        _ => run_legacy(&dag, &args),
    };
    std::process::exit(code);
}

/// `repro lab`: execute (or verify) the selected subgraph.
fn run_lab(dag: &Dag, args: &[String]) -> i32 {
    let mut only: Vec<String> = Vec::new();
    let mut jobs = janus_tensor::pool::threads().min(4);
    let mut seed = 0u64;
    let mut verify = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => match it.next() {
                Some(glob) => only.push(glob.clone()),
                None => return usage("--only needs a glob argument"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage("--jobs needs a positive integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage("--seed needs an integer"),
            },
            "--verify" => verify = true,
            other => return usage(&format!("unknown `repro lab` flag `{other}`")),
        }
    }
    let selected = if only.is_empty() {
        dag.all()
    } else {
        match dag.select(&only) {
            Ok(sel) => sel,
            Err(e) => {
                eprintln!("{e}");
                print_task_list(dag);
                return 2;
            }
        }
    };
    let exec = Executor::new(ARTIFACT_ROOT, jobs, seed, LabEnv::detect());
    let summary = if verify {
        exec.verify(dag, &selected)
    } else {
        exec.run(dag, &selected)
    };
    print_summary(if verify { "verify" } else { "run" }, &summary);
    i32::from(!summary.ok())
}

fn print_summary(mode: &str, summary: &RunSummary) {
    println!(
        "lab {mode}: {} ok, {} failed, {} skipped in {} ms",
        summary.count(TaskStatus::Ok),
        summary.count(TaskStatus::Failed),
        summary.count(TaskStatus::Skipped),
        summary.elapsed_ms
    );
    for o in &summary.outcomes {
        if o.status == TaskStatus::Failed {
            println!("  FAILED {}: {}", o.name, o.detail);
        }
    }
}

/// The registry-derived task listing (also the unknown-subcommand help).
fn print_task_list(dag: &Dag) {
    eprintln!("tasks (repro <name>, or repro lab --only <glob>):");
    for t in dag.tasks() {
        let mut notes = Vec::new();
        if !t.tags.is_empty() {
            notes.push(
                t.tags
                    .iter()
                    .map(|tag| format!("{tag}/{}", t.name))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
        }
        if t.exclusive {
            notes.push("exclusive".to_string());
        }
        if !t.deps.is_empty() {
            notes.push(format!("needs {}", t.deps.join(", ")));
        }
        if notes.is_empty() {
            eprintln!("  {}", t.name);
        } else {
            eprintln!("  {:<12} ({})", t.name, notes.join("; "));
        }
    }
    eprintln!("  all          (every task, serially)");
}

fn usage(msg: &str) -> i32 {
    eprintln!("{msg}");
    eprintln!("usage: repro lab [--only <glob>]... [--jobs N] [--seed N] [--verify]");
    2
}

/// The pre-lab CLI: experiment names as serial aliases over the task
/// registry.
fn run_legacy(dag: &Dag, args: &[String]) -> i32 {
    let mut names: Vec<String> = args.to_vec();
    let json = names.iter().any(|a| a == "--json");
    names.retain(|a| a != "--json");
    if names.is_empty() || names.iter().any(|a| a == "all") {
        names = dag
            .topo_order(0)
            .into_iter()
            .map(|i| dag.tasks()[i].name.clone())
            .collect();
    }

    let exec = Executor::new(ARTIFACT_ROOT, 1, 0, LabEnv::detect());
    for name in &names {
        let code = run_alias(dag, &exec, name, json);
        if code != 0 {
            return code;
        }
    }
    0
}

/// Run one named task serially through the executor; with `--json`,
/// echo each JSON artifact as a compact `JSON[stem]: ...` line.
fn run_alias(dag: &Dag, exec: &Executor, name: &str, json: bool) -> i32 {
    let Some(idx) = dag.find(name) else {
        eprintln!("unknown experiment: {name}");
        print_task_list(dag);
        return 2;
    };
    let selected: BTreeSet<usize> = dag
        .select(&[name.to_string()])
        .expect("registered name selects");
    let summary = exec.run(dag, &selected);
    if !summary.ok() {
        print_summary("run", &summary);
        return 1;
    }
    if json {
        dump_artifacts(&dag.tasks()[idx].name);
    }
    0
}

/// Echo every JSON artifact of `task` as a compact `JSON[stem]: ...`
/// line (the format EXPERIMENTS.md bookkeeping consumes).
fn dump_artifacts(task: &str) {
    let dir = std::path::Path::new(ARTIFACT_ROOT).join(task);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .is_some_and(|n| n != "manifest.json" && n != "diagnostics.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        // Artifacts are written pretty; the dump line is compact.
        match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(v) => println!(
                "JSON[{stem}]: {}",
                serde_json::to_string(&v).expect("re-render parsed JSON")
            ),
            Err(_) => println!("JSON[{stem}]: {}", text.trim()),
        }
    }
}
