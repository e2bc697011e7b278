//! The lab task registry: every `repro` subcommand as a declarative
//! [`TaskSpec`] node in the experiment DAG.
//!
//! `repro lab` executes this graph (independent nodes in parallel),
//! emitting `artifacts/<task>/manifest.json` + `diagnostics.json` next
//! to each node's output files. The legacy `repro <name>` verbs are thin
//! aliases that run the matching node serially. Node conventions:
//!
//! - Pure-simulator tasks (tables, figures, plan, ablations) are fully
//!   deterministic: their artifacts verify bitwise.
//! - Chaos tasks (`faults`, `crash`) mask their wall-clock-dependent
//!   JSON fields (retransmit counters, recovery latencies) so the
//!   determinism claims — zero loss/weight divergence, plan digests,
//!   checkpoint ledgers — still verify bitwise.
//! - Tasks that mutate the global span recorder (`serve`, `analyze`,
//!   `crash`, `trace`) or time a real localhost mesh (`migrate`) run
//!   [`exclusive`](TaskSpec::exclusive). Their wall-clock fields are
//!   masked or their files volatile; `trace`'s simulator-derived
//!   timelines still verify.

use crate::experiments::*;
use janus_lab::{Dag, OutFile, TaskReport, TaskSpec};
use serde::Serialize;
use serde_json::Value;

/// Pretty-rendered JSON bytes with a trailing newline.
fn json_bytes<T: Serialize>(v: &T) -> Vec<u8> {
    let mut s = serde_json::to_string_pretty(v).expect("experiment rows serialize");
    s.push('\n');
    s.into_bytes()
}

/// A JSON object literal from key/value pairs.
fn obj(fields: &[(&str, Value)]) -> Value {
    Value::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn sval(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn nval(n: f64) -> Value {
    Value::Num(n)
}

/// A deterministic simulator task: run, print its table under the
/// stdout lock, and emit `<name>.json`.
fn sim_task<T: Serialize + 'static>(
    name: &'static str,
    run: impl Fn() -> T + Send + Sync + 'static,
    print: impl Fn(&T) + Send + Sync + 'static,
) -> TaskSpec {
    TaskSpec::new(name, move |_ctx| {
        let rows = run();
        {
            let _g = janus_lab::stdout_lock();
            print(&rows);
        }
        Ok(TaskReport {
            files: vec![OutFile::new(format!("{name}.json"), json_bytes(&rows))],
            config: obj(&[("experiment", sval(name)), ("machines", nval(4.0))]),
            plan_digests: Vec::new(),
        })
    })
}

/// Build the full experiment graph. Construction cannot fail: the
/// registry is static and covered by tests, so a bad edge is a bug.
pub fn registry() -> Dag {
    // plan's artifact carries the per-model IterationPlan digests, so
    // its report surfaces them into the manifest's `plan_digests`.
    let plan_task = TaskSpec::new("plan", |_ctx| {
        let rows = plan::run();
        {
            let _g = janus_lab::stdout_lock();
            plan::print(&rows);
        }
        let mut digests: Vec<String> = rows.iter().map(|r| r.digest.clone()).collect();
        digests.dedup();
        Ok(TaskReport {
            files: vec![OutFile::new("plan.json", json_bytes(&rows))],
            config: obj(&[("experiment", sval("plan")), ("machines", nval(4.0))]),
            plan_digests: digests,
        })
    });

    let mut tasks = vec![
        plan_task,
        sim_task("rmetric", rmetric::run, |rows| rmetric::print(rows)),
        sim_task("table1", table1::run, |rows| table1::print(rows)),
        sim_task("goodput", goodput::run, |rows| goodput::print(rows)),
        sim_task("fig3", fig3::run, |rows| fig3::print(rows)),
        sim_task("fig12", fig12::run, |rows| fig12::print(rows)),
        sim_task("fig13", fig13::run, fig13::print),
        sim_task("fig14", fig14::run, |rows| fig14::print(rows)),
        sim_task("fig15", sensitivity::run_fig15, |rows| {
            sensitivity::print("Figure 15 — batch-size sensitivity (Janus vs Tutel)", rows)
        }),
        sim_task("fig16", sensitivity::run_fig16, |rows| {
            sensitivity::print(
                "Figure 16 — sequence-length sensitivity (OOM = exceeds 80 GB)",
                rows,
            )
        }),
        sim_task("fig17", fig17::run, |rows| fig17::print(rows)),
    ];

    tasks.push(TaskSpec::new("ablations", |_ctx| {
        let credits = ablations::credit_sweep();
        let latency = ablations::latency_sweep();
        let a2a = ablations::a2a_style();
        {
            let _g = janus_lab::stdout_lock();
            ablations::print(&credits, &latency, &a2a);
        }
        Ok(TaskReport {
            files: vec![
                OutFile::new("ablation_credits.json", json_bytes(&credits)),
                OutFile::new("ablation_latency.json", json_bytes(&latency)),
                OutFile::new("ablation_a2a.json", json_bytes(&a2a)),
            ],
            config: obj(&[("experiment", sval("ablations")), ("machines", nval(4.0))]),
            plan_digests: Vec::new(),
        })
    }));

    // Chaos under the reliability layer. Retransmit/ack/delay counters
    // depend on real timing, so `counters`/`totals` are masked; the
    // divergence bounds and the plan digest still verify bitwise.
    tasks.push(
        TaskSpec::new("faults", |_ctx| {
            let report = faults::run();
            {
                let _g = janus_lab::stdout_lock();
                faults::print(&report);
            }
            Ok(TaskReport {
                files: vec![OutFile::new("faults.json", json_bytes(&report))],
                config: obj(&[
                    ("experiment", sval("faults")),
                    ("seed", nval(report.seed as f64)),
                    ("iters", nval(report.iters as f64)),
                ]),
                plan_digests: vec![report.plan_digest.clone()],
            })
        })
        .tag("ci")
        .mask(&["counters", "totals"]),
    );

    // Elastic migration: skew-triggered re-placement and permanent-death
    // drains, priced in the simulator and trained for real (threads +
    // localhost TCP). Everything is deterministic except the measured
    // TCP wall times, which live under the masked `timing` key. Binds
    // localhost sockets and times a real mesh → exclusive.
    tasks.push(
        TaskSpec::new("migrate", |_ctx| {
            let report = migrate::run();
            {
                let _g = janus_lab::stdout_lock();
                migrate::print(&report);
            }
            Ok(TaskReport {
                files: vec![OutFile::new("migrate_report.json", json_bytes(&report))],
                config: obj(&[
                    ("experiment", sval("migrate")),
                    ("seed", nval(report.seed as f64)),
                    ("iters", nval(report.iters as f64)),
                ]),
                plan_digests: vec![report.plan_digest.clone()],
            })
        })
        .tag("ci")
        .exclusive()
        .mask(migrate::MASKED_KEYS),
    );

    // The serving-plane SLO sweep. The simulated half (latency vs
    // replica budget) is deterministic and verifies bitwise; the real
    // TCP half's measured latencies are wall-clock → masked, while its
    // structural fields (completions, failovers, replica plans) still
    // verify. Enables the global recorder for the request-latency
    // histogram it prints → exclusive.
    tasks.push(
        TaskSpec::new("serve", |_ctx| {
            let report = serve::run();
            {
                let _g = janus_lab::stdout_lock();
                serve::print(&report);
            }
            Ok(TaskReport {
                files: vec![OutFile::new("serve_slo.json", json_bytes(&report.slo))],
                config: obj(&[
                    ("experiment", sval("serve")),
                    ("seed", nval(report.slo.seed as f64)),
                    ("requests", nval(report.slo.requests as f64)),
                    ("zipf", nval(report.slo.zipf)),
                ]),
                plan_digests: Vec::new(),
            })
        })
        .tag("ci")
        .exclusive()
        .mask(janus_serve::report::MASKED_KEYS),
    );

    // Trace analytics: critical-path blame, skew detection, and
    // sim-vs-real drift calibration over one instrumented FakeClock run
    // and the same plan simulated. Mutates the global recorder →
    // exclusive. The blame/drift/skew *structure* (segment keys,
    // deterministic gate-skew flags, sim predictions, the plan digest)
    // verifies bitwise; every tick-derived value is masked.
    tasks.push(
        TaskSpec::new("analyze", |_ctx| {
            let report = analyze::run()?;
            {
                let _g = janus_lab::stdout_lock();
                analyze::print(&report);
            }
            Ok(TaskReport {
                files: vec![OutFile::new("analysis.json", json_bytes(&report))],
                config: obj(&[
                    ("experiment", sval("analyze")),
                    ("preset", sval(report.preset.clone())),
                    ("iters", nval(report.iters as f64)),
                ]),
                plan_digests: vec![report.plan_digest.clone()],
            })
        })
        .tag("ci")
        .exclusive()
        .mask(analyze::MASKED_KEYS),
    );

    // Crash recovery enables the global span recorder → exclusive.
    // Recovery latency percentiles are wall-clock → masked.
    tasks.push(
        TaskSpec::new("crash", |_ctx| {
            let report = crash::run();
            {
                let _g = janus_lab::stdout_lock();
                crash::print(&report);
            }
            Ok(TaskReport {
                files: vec![OutFile::new("crash.json", json_bytes(&report))],
                config: obj(&[
                    ("experiment", sval("crash")),
                    ("seed", nval(report.seed as f64)),
                    ("iters", nval(report.iters as f64)),
                ]),
                plan_digests: vec![report.plan_digest.clone()],
            })
        })
        .tag("ci")
        .exclusive()
        .mask(&["recover_p50_us", "recover_p99_us"]),
    );

    // Instrumented training + trace export. Per-rank traces and the
    // metrics dump carry real timestamps (volatile); the two
    // simulator-derived timelines are deterministic and verify.
    tasks.push(
        TaskSpec::new("trace", |ctx| {
            let dir = ctx.dir.to_str().ok_or("artifact dir is not UTF-8")?;
            let report = trace_run::run_in(dir).map_err(|e| e.to_string())?;
            let timeline = ctx.dir.join("fig13_timeline.json");
            trace_export::write(timeline.to_str().ok_or("artifact dir is not UTF-8")?)
                .map_err(|e| e.to_string())?;
            {
                let _g = janus_lab::stdout_lock();
                trace_run::print(&report);
                println!(
                    "wrote {} (open in chrome://tracing or Perfetto)",
                    timeline.display()
                );
            }
            let mut files = vec![OutFile::on_disk("fig13_timeline.json", false)];
            for (path, _events) in &report.traces {
                let name = std::path::Path::new(path)
                    .file_name()
                    .and_then(|n| n.to_str())
                    .ok_or_else(|| format!("bad trace path {path}"))?;
                // Only the simulator timeline is clock-free.
                files.push(OutFile::on_disk(name, name != "trace_sim.json"));
            }
            files.push(OutFile::on_disk("METRICS.txt", true));
            files.push(OutFile::volatile("trace.json", json_bytes(&report)));
            Ok(TaskReport {
                files,
                config: obj(&[("experiment", sval("trace")), ("iters", nval(2.0))]),
                plan_digests: Vec::new(),
            })
        })
        .tag("ci")
        .exclusive(),
    );

    Dag::new(tasks).expect("static registry is a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_valid_and_complete() {
        let dag = registry();
        let names: Vec<&str> = dag.tasks().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "plan",
                "rmetric",
                "table1",
                "goodput",
                "fig3",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "ablations",
                "faults",
                "migrate",
                "serve",
                "analyze",
                "crash",
                "trace",
            ]
        );
    }

    /// CI runs `ci/*`; pinning it exactly keeps a wall-clock node from
    /// slipping back into the CI graph.
    #[test]
    fn ci_selection_is_dep_closed() {
        let dag = registry();
        let sel = dag.select(&["ci/*".to_string()]).unwrap();
        let names: BTreeSet<&str> = sel.iter().map(|&i| dag.tasks()[i].name.as_str()).collect();
        let expected: BTreeSet<&str> =
            ["faults", "migrate", "serve", "analyze", "crash", "trace"].into();
        assert_eq!(names, expected);
    }
}
