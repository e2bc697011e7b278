//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [lab] [<name>]... [--only <glob>]... [--jobs N] [--verify] [--json]
//! repro list
//! ```
//!
//! Every experiment is a task of the lab's list
//! (`janus_bench::experiments::registry`). `repro` runs the selected
//! tasks — the non-exclusive ones in parallel (bounded by `--jobs`), then
//! each exclusive one alone — and each writes its artifacts plus a
//! reproducibility `manifest.json` and a `diagnostics.json` under
//! `artifacts/<task>/`.
//!
//! A selector is a task name or a `tag/name` glob (`fig12`, `'fig*'`,
//! `'ci/*'`); a bare word selects exactly as `--only <word>` does. No
//! selector selects every task. The leading `lab` is optional.
//! `--verify` re-runs each selected task from its recorded manifest and
//! fails on any bitwise difference in the canonical (timing-masked)
//! artifact digests. `--json` also echoes each artifact's raw rows as a
//! `JSON[stem]: ...` line (for EXPERIMENTS.md bookkeeping).
//!
//! Exit status: 0 when every task succeeded, 1 when one failed, 2 on a
//! usage error. Performance is measured by the perf ledger (`ledger/`,
//! declared in `BENCHMARK.json`), not by this binary.

use janus_bench::experiments::registry;
use janus_lab::{Dag, Executor, LabEnv, RunSummary, TaskStatus};
use std::collections::BTreeSet;

/// Where the lab writes artifacts, relative to the invocation directory.
const ARTIFACT_ROOT: &str = "artifacts";

const USAGE: &str =
    "usage: repro [lab] [<name>]... [--only <glob>]... [--jobs N] [--verify] [--json]
       repro list";

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    /// Print the task list.
    List,
    /// Run (or verify) the selected tasks.
    Run(Opts),
}

/// The options of a run.
#[derive(Debug, PartialEq, Eq)]
struct Opts {
    /// Selected task indices, in registration order.
    selected: BTreeSet<usize>,
    /// Concurrent task bound; `None` picks the default.
    jobs: Option<usize>,
    /// Verify recorded manifests instead of running.
    verify: bool,
    /// Echo each JSON artifact after the run.
    json: bool,
}

/// Parse the arguments against the task list. An error is a usage
/// error: exit status 2.
fn parse(dag: &Dag, args: &[String]) -> Result<Command, String> {
    let args = match args.first().map(String::as_str) {
        Some("list") if args.len() == 1 => return Ok(Command::List),
        Some("lab") => &args[1..],
        _ => args,
    };
    let mut only = Vec::new();
    let mut jobs = None;
    let (mut verify, mut json) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => match it.next() {
                Some(glob) => only.push(glob.clone()),
                None => return Err("--only needs a glob argument".to_string()),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => jobs = Some(n),
                None => return Err("--jobs needs a positive integer".to_string()),
            },
            "--verify" => verify = true,
            "--json" => json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            word => only.push(word.to_string()),
        }
    }
    let selected = if only.is_empty() {
        dag.all()
    } else {
        dag.select(&only).map_err(|e| e.to_string())?
    };
    Ok(Command::Run(Opts {
        selected,
        jobs,
        verify,
        json,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dag = registry();
    let code = match parse(&dag, &args) {
        Ok(Command::List) => {
            print_task_list(&dag);
            0
        }
        Ok(Command::Run(opts)) => run(&dag, &opts),
        Err(msg) => {
            eprintln!("{msg}");
            print_task_list(&dag);
            2
        }
    };
    std::process::exit(code);
}

/// Run or verify the selection, print the summary, and echo the JSON
/// artifacts of the tasks that succeeded when asked.
fn run(dag: &Dag, opts: &Opts) -> i32 {
    let jobs = opts
        .jobs
        .unwrap_or_else(|| janus_tensor::pool::threads().min(4));
    let exec = Executor::new(ARTIFACT_ROOT, jobs, LabEnv::detect());
    let summary = if opts.verify {
        exec.verify(dag, &opts.selected)
    } else {
        exec.run(dag, &opts.selected)
    };
    print_summary(if opts.verify { "verify" } else { "run" }, &summary);
    if opts.json {
        for o in &summary.outcomes {
            if o.status == TaskStatus::Ok {
                dump_artifacts(&o.name);
            }
        }
    }
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

/// The registry-derived task listing (also the usage-error help).
fn print_task_list(dag: &Dag) {
    eprintln!("{USAGE}");
    eprintln!("tasks:");
    for t in dag.tasks() {
        let mut notes: Vec<String> = t
            .tags
            .iter()
            .map(|tag| format!("{tag}/{}", t.name))
            .collect();
        if t.exclusive {
            notes.push("exclusive".to_string());
        }
        if notes.is_empty() {
            eprintln!("  {}", t.name);
        } else {
            eprintln!("  {:<12} ({})", t.name, notes.join("; "));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&registry(), &args)
    }

    fn names(dag: &Dag, cmd: &Command) -> Vec<String> {
        match cmd {
            Command::Run(opts) => opts
                .selected
                .iter()
                .map(|&i| dag.tasks()[i].name.clone())
                .collect(),
            Command::List => panic!("expected a run"),
        }
    }

    #[test]
    fn bare_names_select_like_only() {
        let dag = registry();
        let bare = parse_args(&["fig13", "table1"]).unwrap();
        assert_eq!(names(&dag, &bare), ["table1", "fig13"]);
        assert_eq!(
            bare,
            parse_args(&["--only", "fig13", "--only", "table1"]).unwrap()
        );
        assert_eq!(bare, parse_args(&["lab", "table1", "fig13"]).unwrap());
    }

    #[test]
    fn lab_only_with_jobs_and_verify() {
        let dag = registry();
        let cmd = parse_args(&["lab", "--only", "ci/*", "--jobs", "4", "--verify"]).unwrap();
        assert_eq!(
            names(&dag, &cmd),
            ["faults", "migrate", "serve", "analyze", "crash", "trace"]
        );
        let Command::Run(opts) = cmd else {
            unreachable!()
        };
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.verify && !opts.json);
    }

    #[test]
    fn no_selector_selects_every_task() {
        let dag = registry();
        for args in [&[][..], &["lab"], &["--jobs", "2"]] {
            let Command::Run(opts) = parse_args(args).unwrap() else {
                panic!("expected a run")
            };
            assert_eq!(opts.selected, dag.all(), "{args:?}");
        }
        assert_eq!(parse_args(&["list"]).unwrap(), Command::List);
    }

    #[test]
    fn json_flag_is_recorded() {
        let Command::Run(opts) = parse_args(&["fig3", "--json"]).unwrap() else {
            panic!("expected a run")
        };
        assert!(opts.json && !opts.verify);
        assert_eq!(opts.jobs, None);
    }

    #[test]
    fn usage_errors_exit_2() {
        for args in [
            &["bogus"][..],
            &["all"],
            &["lab", "--only", "nope*"],
            &["--seed", "7"],
            &["lab", "--seed", "7"],
            &["--jobs"],
            &["--jobs", "0"],
            &["--only"],
        ] {
            assert!(parse_args(args).is_err(), "{args:?} must be a usage error");
        }
    }
}
