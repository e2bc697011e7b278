//! What a run prints and what it leaves under `artifacts/ledger/`.

use crate::adapter;
use crate::metrics::{self, MetricSpec};
use crate::span::{self, Span};
use crate::sys;
use crate::workloads::{Outcome, RunArgs, WORKLOADS};
use serde::Value;
use std::path::PathBuf;

/// Spans `trace.json` holds at most, earliest first; the per-layer numbers
/// are computed from all of them.
const TRACE_SPANS_WRITTEN: usize = 20_000;

/// The metric tables a run of this kind reports against.
pub fn specs(trace: bool) -> Vec<MetricSpec> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// The program and arguments that run one workload, from the repository's
/// root; the driver appends `--workload`, `--seed`, `--seconds`, `--trace`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
];

/// Unit, direction and, for an end-to-end metric, bound: what
/// `BENCHMARK.json` and `metrics.json` both say of a metric.
fn declaration(m: &MetricSpec) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("unit".to_string(), Value::Str(m.unit.into())),
        ("better".to_string(), Value::Str(m.better.word().into())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound".to_string(), Value::Num(bound)));
    }
    fields
}

/// The contents of `BENCHMARK.json`, from the tables this program reports
/// against, so the file cannot name a metric the program does not print.
pub fn benchmark_json(run_seconds: f64) -> Value {
    let strings =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let metric = |m: MetricSpec| {
        let mut entry = vec![("name".to_string(), Value::Str(m.name.clone()))];
        entry.extend(declaration(&m));
        Value::Obj(entry)
    };
    Value::Obj(vec![
        ("command".into(), strings(&COMMAND)),
        ("paths".into(), strings(&["ledger"])),
        ("run_seconds".into(), Value::Num(run_seconds)),
        (
            "workloads".into(),
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(w.name.into())),
                            ("why".into(), Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(metrics::end_to_end().into_iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Value::Arr(metrics::per_layer().into_iter().map(metric).collect()),
        ),
    ])
}

/// The line the benchmark contract asks for: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every metric with its value and unit.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = specs(trace)
        .into_iter()
        .map(|m| {
            let value = outcome.metrics[&m.name];
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name, entry)
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct(outcome))),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree renders")
}

/// Whether every gate held and no operation failed.
pub fn correct(outcome: &Outcome) -> bool {
    outcome.gate_failures.is_empty() && outcome.failed == 0 && outcome.attempted > 0
}

/// Every metric by name, with its unit, for a reader.
pub fn table(args: &RunArgs, outcome: &Outcome) -> String {
    let mut out = format!(
        "# {} seed {} {} s {}\n",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace {
            "per-layer (traced pass and probes)"
        } else {
            "end-to-end (tracing off)"
        }
    );
    for (key, value) in &outcome.manifest {
        if matches!(
            key.as_str(),
            "plan_digest" | "paradigms" | "op_samples" | "tail_percentile"
        ) {
            let rendered = serde_json::to_string(value).expect("a value tree renders");
            out.push_str(&format!("# {key} {rendered}\n"));
        }
    }
    for m in specs(args.trace) {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
        out.push_str(&format!(
            "{:<36} {:>16.4} {}{}\n",
            m.name, outcome.metrics[&m.name], m.unit, bound
        ));
    }
    out.push_str(&format!(
        "# attempted {} failed {} failed_share {}\n",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    for failure in &outcome.gate_failures {
        out.push_str(&format!("# GATE FAILED: {failure}\n"));
    }
    out
}

fn manifest(args: &RunArgs, outcome: &Outcome) -> Value {
    let (pool_width, simd) = adapter::compute_fingerprint();
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .map_or("", |w| w.why);
    Value::Obj(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("why".into(), Value::Str(why.into())),
        // A string: a u64 seed need not fit a JSON number.
        ("seed".into(), Value::Str(args.seed.to_string())),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("config".into(), Value::Obj(outcome.manifest.clone())),
        ("git_describe".into(), Value::Str(sys::git_describe())),
        ("rustc".into(), Value::Str(sys::rustc_version())),
        ("nproc".into(), Value::Num(sys::cores() as f64)),
        ("pool_width".into(), Value::Num(pool_width as f64)),
        ("simd_detected".into(), Value::Bool(simd)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        (
            "gate_failures".into(),
            Value::Arr(
                outcome
                    .gate_failures
                    .iter()
                    .map(|g| Value::Str(g.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn trace(spans: &[Span]) -> Value {
    let mut earliest: Vec<&Span> = spans.iter().collect();
    earliest.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    earliest.truncate(TRACE_SPANS_WRITTEN);
    let totals = span::totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            let entry = Value::Obj(vec![
                ("count".into(), Value::Num(t.count as f64)),
                ("total_us".into(), Value::Num(t.total_us)),
                ("self_us".into(), Value::Num(t.self_us)),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Obj(vec![
        ("spans_recorded".into(), Value::Num(spans.len() as f64)),
        ("spans_written".into(), Value::Num(earliest.len() as f64)),
        ("totals_by_name".into(), Value::Obj(totals)),
        ("spans".into(), span::to_json(earliest)),
    ])
}

/// Write `metrics.json`, `manifest.json` and, for a traced run,
/// `trace.json` under `artifacts/ledger/<workload>/<timed|traced>/` of the
/// working directory. Returns the directory.
pub fn write_artifacts(args: &RunArgs, outcome: &Outcome) -> Result<PathBuf, String> {
    let dir = PathBuf::from("artifacts/ledger")
        .join(&args.workload)
        .join(if args.trace { "traced" } else { "timed" });
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, value: &Value| -> Result<(), String> {
        let path = dir.join(name);
        let text = serde_json::to_string_pretty(value).expect("a value tree renders");
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    };
    let metrics = specs(args.trace)
        .into_iter()
        .map(|m| {
            let mut entry = vec![("value".to_string(), Value::Num(outcome.metrics[&m.name]))];
            entry.extend(declaration(&m));
            (m.name, Value::Obj(entry))
        })
        .collect();
    write("metrics.json", &Value::Obj(metrics))?;
    write("manifest.json", &manifest(args, outcome))?;
    if args.trace {
        write("trace.json", &trace(&outcome.spans))?;
    }
    Ok(dir)
}
