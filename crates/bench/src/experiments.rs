//! One module per paper artifact. Every `run()` regenerates the numbers
//! the paper reports; every `print()` lays them out next to the paper's
//! published values; every `task()` is the artifact's entry in the lab's
//! task list, [`registry`].
//!
//! Task conventions:
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

use crate::paper_cluster;
use crate::table;
use janus_core::sim::engine::{simulate_iteration, EngineOpts, ParadigmPolicy};
use janus_core::sim::IterationReport;
use janus_lab::{Dag, OutFile, TaskReport, TaskSpec};
use janus_moe::config::{pr_moe_transformer_xl, ModelConfig, ModelPreset};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;

fn run(machines: usize, model: ModelConfig, opts: &EngineOpts) -> IterationReport {
    simulate_iteration(paper_cluster(machines), model, opts)
        .expect("engine-built graphs must simulate cleanly")
}

/// The lab's task list, in run order. `repro` selects from it by name or
/// `tag/name` glob.
pub fn registry() -> Dag {
    Dag::new(vec![
        plan::task(),
        rmetric::task(),
        table1::task(),
        goodput::task(),
        fig3::task(),
        fig12::task(),
        fig13::task(),
        fig14::task(),
        sensitivity::fig15_task(),
        sensitivity::fig16_task(),
        fig17::task(),
        ablations::task(),
        faults::task(),
        migrate::task(),
        serve::task(),
        analyze::task(),
        crash::task(),
        trace_run::task(),
    ])
    .expect("static registry has unique, path-safe names")
}

/// The one shape of every experiment task: `run` in the task's artifact
/// directory, `print` under the stdout lock (so concurrent tasks
/// interleave whole tables, never lines), and `report` the files, config
/// and plan digests for the executor to write and hash.
fn lab_task<R: 'static>(
    name: &'static str,
    run: impl Fn(&Path) -> Result<R, String> + Send + Sync + 'static,
    print: impl Fn(&R) + Send + Sync + 'static,
    report: impl Fn(&R) -> TaskReport + Send + Sync + 'static,
) -> TaskSpec {
    TaskSpec::new(name, move |dir| {
        let out = run(dir)?;
        {
            let _g = janus_lab::stdout_lock();
            print(&out);
        }
        Ok(report(&out))
    })
}

/// A deterministic simulator task whose rows become `<name>.json`.
fn sim_task<R: Serialize + 'static>(
    name: &'static str,
    run: impl Fn() -> R + Send + Sync + 'static,
    print: impl Fn(&R) + Send + Sync + 'static,
) -> TaskSpec {
    lab_task(
        name,
        move |_| Ok(run()),
        print,
        move |rows| json_report(&format!("{name}.json"), rows, sim_config(name), Vec::new()),
    )
}

/// The report of a task whose one artifact is `rows` as JSON.
fn json_report<T: Serialize>(
    file: &str,
    rows: &T,
    config: Value,
    plan_digests: Vec<String>,
) -> TaskReport {
    TaskReport {
        files: vec![OutFile::new(file, json_bytes(rows))],
        config,
        plan_digests,
    }
}

/// The config every simulator task records: the paper's 4-machine
/// cluster.
fn sim_config(name: &str) -> Value {
    task_config(name, &[("machines", Value::Num(4.0))])
}

/// The config of a seeded chaos run.
fn seeded_config(name: &str, seed: u64, iters: u64) -> Value {
    let num = |x: u64| Value::Num(x as f64);
    task_config(name, &[("seed", num(seed)), ("iters", num(iters))])
}

/// A manifest config object: `{"experiment": name, ...fields}`.
fn task_config(name: &str, fields: &[(&str, Value)]) -> Value {
    let mut obj = vec![("experiment".to_string(), Value::Str(name.to_string()))];
    obj.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Obj(obj)
}

/// Pretty-rendered JSON bytes with a trailing newline.
fn json_bytes<T: Serialize>(v: &T) -> Vec<u8> {
    let mut s = serde_json::to_string_pretty(v).expect("experiment rows serialize");
    s.push('\n');
    s.into_bytes()
}

/// Table 1: model configurations and per-machine cross-node traffic under
/// both paradigms, analytic and simulated.
pub mod table1 {
    use super::*;
    use janus_moe::traffic;

    /// One row of Table 1 plus the simulator's cross-check.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Total experts per MoE block (= GPUs).
        pub experts: usize,
        /// Model size in billions of parameters.
        pub model_size_b: f64,
        /// Analytic expert-centric traffic (GiB/machine/iteration).
        pub ec_gib: f64,
        /// Analytic data-centric traffic.
        pub dc_gib: f64,
        /// Simulated expert-centric traffic (balanced workload).
        pub sim_ec_gib: f64,
        /// Simulated data-centric traffic.
        pub sim_dc_gib: f64,
        /// EC/DC reduction factor.
        pub reduction: f64,
        /// Paper's published (EC, DC) GiB values.
        pub paper: (f64, f64),
    }

    /// Paper Table 1 reference values: (model, experts, EC GB, DC GB).
    const PAPER: [(&str, usize, f64, f64); 6] = [
        ("MoE-BERT", 16, 6.0, 0.56),
        ("MoE-BERT", 32, 9.0, 1.69),
        ("MoE-GPT", 16, 1.5, 0.14),
        ("MoE-GPT", 32, 2.25, 0.42),
        ("MoE-Transformer-xl", 16, 6.0, 0.19),
        ("MoE-Transformer-xl", 32, 9.0, 0.56),
    ];

    /// Regenerate Table 1.
    pub fn run() -> Vec<Row> {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let mut rows = Vec::new();
        for preset in ModelPreset::all() {
            for (experts, machines) in [(16usize, 2usize), (32, 4)] {
                let model = preset.config(experts);
                let analytic = traffic::table1_row(&model, machines, 8);
                let mut opts = EngineOpts::janus_expert_centric();
                opts.imbalance = janus_moe::workload::Imbalance::Balanced;
                let ec = super::run(machines, model.clone(), &opts);
                let mut opts = EngineOpts::data_centric(true, true);
                opts.imbalance = janus_moe::workload::Imbalance::Balanced;
                let dc = super::run(machines, model.clone(), &opts);
                let paper = PAPER
                    .iter()
                    .find(|(name, e, _, _)| preset.name() == *name && *e == experts)
                    .map(|(_, _, a, b)| (*a, *b))
                    .expect("paper reference");
                rows.push(Row {
                    model: model.name.clone(),
                    experts,
                    model_size_b: analytic.model_size_b,
                    ec_gib: analytic.ec_traffic_gib,
                    dc_gib: analytic.dc_traffic_gib,
                    sim_ec_gib: ec.cross_node_bytes_per_machine / GIB,
                    sim_dc_gib: dc.cross_node_bytes_per_machine / GIB,
                    reduction: analytic.reduction,
                    paper,
                });
            }
        }
        rows
    }

    /// Print the table.
    pub fn print(rows: &[Row]) {
        println!("Table 1 — cross-node traffic per machine per iteration (GiB)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.experts.to_string(),
                    format!("{:.2}", r.model_size_b),
                    format!("{:.2}", r.ec_gib),
                    format!("{:.2}", r.sim_ec_gib),
                    format!("{:.2}", r.paper.0),
                    format!("{:.2}", r.dc_gib),
                    format!("{:.2}", r.sim_dc_gib),
                    format!("{:.2}", r.paper.1),
                    format!("{:.1}×", r.reduction),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "model",
                    "experts",
                    "size (B)",
                    "EC calc",
                    "EC sim",
                    "EC paper",
                    "DC calc",
                    "DC sim",
                    "DC paper",
                    "reduction"
                ],
                &body
            )
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("table1", run, |rows| print(rows))
    }
}

/// §3.1 goodput observation: intra-node vs inter-node All-to-All.
pub mod goodput {
    use super::*;
    use janus_core::sim::collectives::{a2a_goodput, GoodputReport};
    use janus_topology::ClusterSpec;

    /// The two stress environments.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Environment label.
        pub env: String,
        /// Simulated aggregate goodput (Gbps).
        pub goodput_gbps: f64,
        /// Paper's measured value (Gbps).
        pub paper_gbps: f64,
    }

    /// Run both stress tests.
    pub fn run() -> Vec<Row> {
        let intra: GoodputReport =
            a2a_goodput(&ClusterSpec::a100(1, 8).build(), 64e6).expect("intra-node run");
        let inter = a2a_goodput(&ClusterSpec::a100(4, 8).build(), 64e6).expect("inter-node run");
        vec![
            Row {
                env: "1 machine × 8 GPUs (NVLink)".into(),
                goodput_gbps: intra.goodput_gbps,
                paper_gbps: 1846.58,
            },
            Row {
                env: "4 machines × 8 GPUs (RDMA)".into(),
                goodput_gbps: inter.cross_node_gbps,
                paper_gbps: 101.9,
            },
        ]
    }

    /// Print the comparison.
    pub fn print(rows: &[Row]) {
        println!("§3.1 — All-to-All goodput stress test\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.env.clone(),
                    format!("{:.1}", r.goodput_gbps),
                    format!("{:.1}", r.paper_gbps),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["environment", "sim Gbps", "paper Gbps"], &body)
        );
        let gap = rows[0].goodput_gbps / rows[1].goodput_gbps;
        println!(
            "intra/inter gap: {gap:.1}× (paper: {:.1}×)\n",
            1846.58 / 101.9
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("goodput", run, |rows| print(rows))
    }
}

/// Figure 3: iteration latency and the share spent in All-to-All under
/// the expert-centric paradigm.
pub mod fig3 {
    use super::*;

    /// One bar of Figure 3.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Experts (= GPUs).
        pub experts: usize,
        /// Iteration latency (s).
        pub iter_time: f64,
        /// All-to-All latency (s).
        pub a2a_time: f64,
        /// Share of the iteration.
        pub share: f64,
    }

    /// Run the six expert-centric profiles.
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        for preset in ModelPreset::all() {
            for (experts, machines) in [(16usize, 2usize), (32, 4)] {
                let model = preset.config(experts);
                let report = super::run(machines, model, &EngineOpts::janus_expert_centric());
                rows.push(Row {
                    model: preset.name().into(),
                    experts,
                    iter_time: report.iter_time,
                    a2a_time: report.comm_time,
                    share: report.comm_share(),
                });
            }
        }
        rows
    }

    /// Print the profile.
    pub fn print(rows: &[Row]) {
        println!("Figure 3 — expert-centric iteration latency vs All-to-All latency");
        println!("(paper reports A2A shares of 38.5%–68.4% across these bars)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.experts.to_string(),
                    table::ms(r.iter_time),
                    table::ms(r.a2a_time),
                    format!("{:.1}%", r.share * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &["model", "experts", "iter (ms)", "a2a (ms)", "a2a share"],
                &body
            )
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("fig3", run, |rows| print(rows))
    }
}

/// Figure 12: ablation of the data-centric optimizations.
pub mod fig12 {
    use super::*;

    /// One model's ablation staircase (speedups vs Janus expert-centric).
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Baseline (expert-centric) iteration time (s).
        pub ec_time: f64,
        /// Plain data-centric speedup.
        pub dc: f64,
        /// + topology-aware priority.
        pub dc_topo: f64,
        /// + prefetch (full stack).
        pub dc_topo_prefetch: f64,
        /// Paper's (DC, full) speedups.
        pub paper: (f64, f64),
    }

    /// Run the ablation on the 32-GPU configurations.
    pub fn run() -> Vec<Row> {
        let paper = [
            ("MoE-BERT", (1.26, 1.31)),
            ("MoE-GPT", (1.58, 1.63)),
            ("MoE-Transformer-xl", (1.79, 1.81)),
        ];
        ModelPreset::all()
            .into_iter()
            .map(|preset| {
                let model = preset.config(32);
                let ec = super::run(4, model.clone(), &EngineOpts::janus_expert_centric());
                let t = |topo: bool, pf: bool| {
                    super::run(4, model.clone(), &EngineOpts::data_centric(topo, pf)).iter_time
                };
                let p = paper
                    .iter()
                    .find(|(n, _)| *n == preset.name())
                    .map(|(_, p)| *p)
                    .expect("paper reference");
                Row {
                    model: preset.name().into(),
                    ec_time: ec.iter_time,
                    dc: ec.iter_time / t(false, false),
                    dc_topo: ec.iter_time / t(true, false),
                    dc_topo_prefetch: ec.iter_time / t(true, true),
                    paper: p,
                }
            })
            .collect()
    }

    /// Print the staircase.
    pub fn print(rows: &[Row]) {
        println!("Figure 12 — ablation: speedup over Janus expert-centric (32 GPUs)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    table::ms(r.ec_time),
                    table::speedup(r.dc),
                    table::speedup(r.dc_topo),
                    table::speedup(r.dc_topo_prefetch),
                    format!(
                        "{} / {}",
                        table::speedup(r.paper.0),
                        table::speedup(r.paper.1)
                    ),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "model",
                    "EC iter (ms)",
                    "DC",
                    "+topo",
                    "+prefetch",
                    "paper DC/full"
                ],
                &body
            )
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("fig12", run, |rows| print(rows))
    }
}

/// Figure 13: computation/communication overlap timeline on MoE-GPT.
pub mod fig13 {
    use super::*;

    /// The timeline summary.
    #[derive(Debug, Clone, Serialize)]
    pub struct Summary {
        /// Forward-phase duration with prefetch (s).
        pub fwd_time: f64,
        /// Forward-phase duration without prefetch (s).
        pub fwd_time_no_prefetch: f64,
        /// Block completion timestamps at worker 0 (s).
        pub block_finish: Vec<f64>,
        /// Expert arrival timestamps at worker 0 for the MoE block (s).
        pub expert_arrivals: Vec<(String, f64)>,
        /// Experts already pulled when the 11th block's computation ends.
        pub experts_before_gate: usize,
        /// Fetch time hidden behind the first 11 blocks' compute (s) —
        /// the quantity the paper reports as "computation-communication
        /// overlap" (74.9 ms).
        pub overlap: f64,
        /// The paper's headline ratio: (fwd + overlap) / fwd — how much
        /// slower the forward phase would run if none of the fetching
        /// were hidden.
        pub fwd_speedup: f64,
    }

    /// Run MoE-GPT with prefetch on / topology-aware off (the paper's
    /// Figure 13 configuration).
    pub fn run() -> Summary {
        let model = ModelPreset::MoeGpt.config(32);
        let with = super::run(4, model.clone(), &EngineOpts::data_centric(false, true));
        let without = super::run(4, model, &EngineOpts::data_centric(false, false));
        let gate = with
            .block_finish_w0
            .get(10)
            .copied()
            .expect("12-block model");
        let mut arrivals: Vec<(String, f64)> = with.expert_arrival_w0.clone();
        arrivals.sort_by(|a, b| a.1.total_cmp(&b.1));
        let experts_before_gate = arrivals.iter().filter(|(_, t)| *t <= gate).count();
        // Overlap: fetch busy time at worker 0 that ran while the first
        // 11 blocks were still computing (plus the machine-level NIC
        // fetches hidden in the same window).
        let overlap: f64 = with
            .sim
            .records
            .iter()
            .filter(|r| {
                r.kind == "transfer"
                    && (r.label.starts_with("w0/")
                        && (r.label.contains("/pull-int")
                            || r.label.contains("/copy-s2")
                            || r.label.contains("/pull-peer"))
                        || r.label.starts_with("M0/") && r.label.contains("/fetch-ext"))
            })
            .map(|r| (r.finish.min(gate) - r.start.min(gate)).max(0.0))
            .sum();
        Summary {
            fwd_time: with.fwd_time,
            fwd_time_no_prefetch: without.fwd_time,
            block_finish: with.block_finish_w0.clone(),
            expert_arrivals: arrivals,
            experts_before_gate,
            overlap,
            fwd_speedup: (with.fwd_time + overlap) / with.fwd_time,
        }
    }

    /// Print the timeline.
    pub fn print(s: &Summary) {
        println!("Figure 13 — MoE-GPT forward timeline (prefetch on, topo-aware off)\n");
        println!("block completion at worker 0 (ms):");
        let body: Vec<Vec<String>> = s
            .block_finish
            .iter()
            .enumerate()
            .map(|(b, t)| vec![format!("block {b}"), table::ms(*t)])
            .collect();
        println!("{}", table::render(&["block", "finish (ms)"], &body));
        println!("expert arrivals at worker 0 (first 8 shown, ms):");
        let body: Vec<Vec<String>> = s
            .expert_arrivals
            .iter()
            .take(8)
            .map(|(l, t)| vec![l.clone(), table::ms(*t)])
            .collect();
        println!("{}", table::render(&["transfer", "finish (ms)"], &body));
        println!(
            "experts pulled before the 11th block finished: {} of {}",
            s.experts_before_gate,
            s.expert_arrivals.len()
        );
        println!(
            "fetch/compute overlap: {} ms (paper: ~74.9 ms)",
            table::ms(s.overlap)
        );
        println!(
            "forward phase: {} ms ({} ms without prefetch); hiding ratio {} (paper: 210.4 ms, 1.36×)\n",
            table::ms(s.fwd_time),
            table::ms(s.fwd_time_no_prefetch),
            table::speedup(s.fwd_speedup)
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("fig13", run, print)
    }
}

/// Figure 14: end-to-end Janus vs Tutel.
pub mod fig14 {
    use super::*;

    /// One model's end-to-end comparison.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Tutel iteration time (s).
        pub tutel_time: f64,
        /// Janus (unified) iteration time (s).
        pub janus_time: f64,
        /// Speedup.
        pub speedup: f64,
        /// Paper's speedup.
        pub paper: f64,
    }

    /// Run the three 32-GPU end-to-end comparisons.
    pub fn run() -> Vec<Row> {
        let paper = [
            ("MoE-BERT", 1.28),
            ("MoE-GPT", 1.48),
            ("MoE-Transformer-xl", 1.52),
        ];
        ModelPreset::all()
            .into_iter()
            .map(|preset| {
                let model = preset.config(32);
                let tutel = super::run(4, model.clone(), &EngineOpts::tutel());
                let janus = super::run(4, model, &EngineOpts::default());
                let p = paper.iter().find(|(n, _)| *n == preset.name()).unwrap().1;
                Row {
                    model: preset.name().into(),
                    tutel_time: tutel.iter_time,
                    janus_time: janus.iter_time,
                    speedup: tutel.iter_time / janus.iter_time,
                    paper: p,
                }
            })
            .collect()
    }

    /// Print the comparison.
    pub fn print(rows: &[Row]) {
        println!("Figure 14 — end-to-end iteration time, Janus vs Tutel (32 GPUs)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    table::ms(r.tutel_time),
                    table::ms(r.janus_time),
                    table::speedup(r.speedup),
                    table::speedup(r.paper),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &["model", "Tutel (ms)", "Janus (ms)", "speedup", "paper"],
                &body
            )
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("fig14", run, |rows| print(rows))
    }
}

/// Figures 15/16: batch-size and sequence-length sensitivity.
pub mod sensitivity {
    use super::*;

    /// One sweep point.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Batch size.
        pub batch: usize,
        /// Sequence length.
        pub seq: usize,
        /// Gate top-k.
        pub k: usize,
        /// Tutel iteration time (s); `None` means out of memory.
        pub tutel_time: Option<f64>,
        /// Janus iteration time (s).
        pub janus_time: f64,
        /// Speedup (when Tutel fits).
        pub speedup: Option<f64>,
    }

    fn sweep_point(model: ModelConfig) -> Row {
        let (batch, seq, k) = (model.batch, model.seq_len, model.top_k);
        let tutel = super::run(4, model.clone(), &EngineOpts::tutel());
        let janus = super::run(4, model.clone(), &EngineOpts::default());
        assert!(
            !janus.memory.oom,
            "Janus must fit in every paper configuration"
        );
        let tutel_time = (!tutel.memory.oom).then_some(tutel.iter_time);
        Row {
            model: model.name.clone(),
            batch,
            seq,
            k,
            tutel_time,
            janus_time: janus.iter_time,
            speedup: tutel_time.map(|t| t / janus.iter_time),
        }
    }

    /// Figure 15 sweep: batch sizes 64 and 128 with the paper's fixed
    /// (S, k) per model.
    pub fn run_fig15() -> Vec<Row> {
        let mut rows = Vec::new();
        for (preset, s, k) in [
            (ModelPreset::MoeBert, 256, 4),
            (ModelPreset::MoeGpt, 128, 8),
            (ModelPreset::MoeTransformerXl, 256, 2),
        ] {
            for b in [64usize, 128] {
                let mut model = preset.config(32);
                model.batch = b;
                model.seq_len = s;
                model.top_k = k;
                rows.push(sweep_point(model));
            }
        }
        rows
    }

    /// Figure 16 sweep: sequence lengths 256 and 512 with the paper's
    /// fixed (B, k) per model. MoE-BERT at S = 512 is the OOM case.
    pub fn run_fig16() -> Vec<Row> {
        let mut rows = Vec::new();
        for (preset, b, k) in [
            (ModelPreset::MoeBert, 256, 4),
            (ModelPreset::MoeGpt, 32, 8),
            (ModelPreset::MoeTransformerXl, 64, 2),
        ] {
            for s in [256usize, 512] {
                let mut model = preset.config(32);
                model.batch = b;
                model.seq_len = s;
                model.top_k = k;
                rows.push(sweep_point(model));
            }
        }
        rows
    }

    /// Print a sweep.
    pub fn print(title: &str, rows: &[Row]) {
        println!("{title}\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.batch.to_string(),
                    r.seq.to_string(),
                    r.k.to_string(),
                    r.tutel_time.map(table::ms).unwrap_or_else(|| "OOM".into()),
                    table::ms(r.janus_time),
                    r.speedup.map(table::speedup).unwrap_or_else(|| "—".into()),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "model",
                    "B",
                    "S",
                    "k",
                    "Tutel (ms)",
                    "Janus (ms)",
                    "speedup"
                ],
                &body
            )
        );
    }

    /// The Figure 15 lab task.
    pub fn fig15_task() -> TaskSpec {
        sim_task("fig15", run_fig15, |rows| {
            print("Figure 15 — batch-size sensitivity (Janus vs Tutel)", rows)
        })
    }

    /// The Figure 16 lab task.
    pub fn fig16_task() -> TaskSpec {
        sim_task("fig16", run_fig16, |rows| {
            print(
                "Figure 16 — sequence-length sensitivity (OOM = exceeds 80 GB)",
                rows,
            )
        })
    }
}

/// Figure 17: unified paradigm on PR-MoE.
pub mod fig17 {
    use super::*;

    /// One cluster size's comparison.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// GPU count.
        pub gpus: usize,
        /// Pure expert-centric iteration time (s).
        pub ec_time: f64,
        /// Pure data-centric iteration time (s).
        pub dc_time: f64,
        /// Unified iteration time (s).
        pub unified_time: f64,
        /// Unified speedup over expert-centric.
        pub speedup: f64,
        /// Paper's speedup over expert-centric.
        pub paper: f64,
    }

    /// Run PR-MoE-Transformer-xl on 16 and 32 GPUs.
    ///
    /// The unified runs use the paper's conservative threshold (§7.5):
    /// blocks whose measured gain would be eaten by the PCIe ceiling
    /// (`R ≤ 2`) stay expert-centric, which selects data-centric for the
    /// two shallow MoE blocks and expert-centric for the two deep ones on
    /// both cluster sizes — the split §7.5 describes.
    pub fn run() -> Vec<Row> {
        [(16usize, 2usize, 2.06), (32, 4, 1.44)]
            .into_iter()
            .map(|(gpus, machines, paper)| {
                let model = pr_moe_transformer_xl(gpus);
                let ec = super::run(machines, model.clone(), &EngineOpts::janus_expert_centric());
                let dc = super::run(
                    machines,
                    model.clone(),
                    &EngineOpts::data_centric(true, true),
                );
                let mut unified_opts = EngineOpts {
                    r_threshold: 2.0,
                    ..EngineOpts::default()
                };
                unified_opts.policy = ParadigmPolicy::Unified;
                let unified = super::run(machines, model, &unified_opts);
                Row {
                    gpus,
                    ec_time: ec.iter_time,
                    dc_time: dc.iter_time,
                    unified_time: unified.iter_time,
                    speedup: ec.iter_time / unified.iter_time,
                    paper,
                }
            })
            .collect()
    }

    /// Print the comparison.
    pub fn print(rows: &[Row]) {
        println!("Figure 17 — PR-MoE-Transformer-xl: unified vs pure paradigms\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.gpus.to_string(),
                    table::ms(r.ec_time),
                    table::ms(r.dc_time),
                    table::ms(r.unified_time),
                    table::speedup(r.speedup),
                    table::speedup(r.paper),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "GPUs",
                    "EC (ms)",
                    "DC (ms)",
                    "unified (ms)",
                    "unified/EC",
                    "paper"
                ],
                &body
            )
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("fig17", run, |rows| print(rows))
    }
}

/// §5.1.3 / §7.3: the R metric across configurations.
pub mod rmetric {
    use super::*;
    use janus_moe::traffic::r_for_block;

    /// R of one model's MoE blocks on one cluster.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Machines.
        pub machines: usize,
        /// Distinct R values across MoE blocks.
        pub r_values: Vec<f64>,
        /// Paper's value(s) where published.
        pub paper: &'static str,
    }

    /// Compute R for every evaluation model.
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        for (preset, paper) in [
            (ModelPreset::MoeBert, "5.33"),
            (ModelPreset::MoeGpt, "5.33"),
            (ModelPreset::MoeTransformerXl, "16"),
        ] {
            let model = preset.config(32);
            let mut r_values: Vec<f64> = model
                .moe_blocks()
                .iter()
                .map(|&b| r_for_block(&model, b, 4, 8))
                .collect();
            r_values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            rows.push(Row {
                model: model.name,
                machines: 4,
                r_values,
                paper,
            });
        }
        for gpus in [16usize, 32] {
            let machines = gpus / 8;
            let model = pr_moe_transformer_xl(gpus);
            let mut r_values: Vec<f64> = model
                .moe_blocks()
                .iter()
                .map(|&b| r_for_block(&model, b, machines, 8))
                .collect();
            r_values.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            rows.push(Row {
                model: model.name,
                machines,
                paper: if gpus == 16 {
                    "4 / 1 (with n=4)"
                } else {
                    "—"
                },
                r_values,
            });
        }
        rows
    }

    /// Print the metric table.
    pub fn print(rows: &[Row]) {
        println!("R = BSk/(4nHE) per MoE block (R > 1 favours data-centric)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.machines.to_string(),
                    r.r_values
                        .iter()
                        .map(|v| format!("{v:.2}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    r.paper.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["model", "machines", "R (per block)", "paper"], &body)
        );
    }

    /// The lab task.
    pub fn task() -> TaskSpec {
        sim_task("rmetric", run, |rows| print(rows))
    }
}

/// The compiled [`IterationPlan`] for every evaluation model: per-block
/// `R`, the threshold it was judged against, the chosen paradigm, and
/// the plan's content digest — the same IR the simulator's `build_graph`
/// and the numerical `exec::unified` engine execute.
pub mod plan {
    use super::*;
    use janus_core::plan::{IterationPlan, PlanOpts};
    use janus_core::Paradigm;

    /// One run of consecutive MoE blocks sharing the same plan entry.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Model name.
        pub model: String,
        /// Machines (× 8 GPUs).
        pub machines: usize,
        /// Block range, e.g. `"1-23"` (inclusive).
        pub blocks: String,
        /// Experts per block in this range.
        pub experts: usize,
        /// Gain metric of these blocks.
        pub r: f64,
        /// Threshold the plan judged `R` against.
        pub threshold: f64,
        /// Chosen paradigm.
        pub paradigm: String,
        /// Hex content digest of the whole plan.
        pub digest: String,
    }

    /// Compile plans for the evaluation presets (default `R > 1` rule)
    /// and PR-MoE (the paper's conservative `R > 2` threshold, §7.5).
    pub fn run() -> Vec<Row> {
        let mut rows = Vec::new();
        for preset in ModelPreset::all() {
            let model = preset.config(32);
            rows.extend(rows_for(&model, 4, &PlanOpts::default()));
        }
        for gpus in [16usize, 32] {
            let model = pr_moe_transformer_xl(gpus);
            let opts = PlanOpts {
                r_threshold: 2.0,
                ..PlanOpts::default()
            };
            rows.extend(rows_for(&model, gpus / 8, &opts));
        }
        rows
    }

    fn rows_for(model: &ModelConfig, machines: usize, opts: &PlanOpts) -> Vec<Row> {
        let cluster = crate::paper_cluster(machines);
        let compiled = IterationPlan::compile(model, &cluster, opts);
        let digest = format!("{:016x}", compiled.digest());
        let name = |p: Paradigm| match p {
            Paradigm::DataCentric => "data-centric",
            Paradigm::ExpertCentric => "expert-centric",
        };
        // Group consecutive MoE blocks with identical plan entries.
        let mut rows: Vec<Row> = Vec::new();
        let mut range: Option<(usize, usize, usize, f64, Paradigm)> = None;
        let flush = |r: &Option<(usize, usize, usize, f64, Paradigm)>, rows: &mut Vec<Row>| {
            if let Some((lo, hi, experts, rv, p)) = *r {
                rows.push(Row {
                    model: model.name.clone(),
                    machines,
                    blocks: if lo == hi {
                        lo.to_string()
                    } else {
                        format!("{lo}-{hi}")
                    },
                    experts,
                    r: rv,
                    threshold: compiled.r_threshold,
                    paradigm: name(p).to_string(),
                    digest: digest.clone(),
                });
            }
        };
        for bp in &compiled.blocks {
            let Some(rv) = bp.r else { continue };
            match range {
                Some((lo, hi, experts, prev_r, p))
                    if experts == bp.experts
                        && prev_r.to_bits() == rv.to_bits()
                        && p == bp.paradigm
                        && hi + 1 == bp.block =>
                {
                    range = Some((lo, bp.block, experts, prev_r, p));
                }
                _ => {
                    flush(&range, &mut rows);
                    range = Some((bp.block, bp.block, bp.experts, rv, bp.paradigm));
                }
            }
        }
        flush(&range, &mut rows);
        rows
    }

    /// Print the plan table.
    pub fn print(rows: &[Row]) {
        println!("compiled IterationPlan per model (sim and exec consume this IR verbatim)\n");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.machines.to_string(),
                    r.blocks.clone(),
                    r.experts.to_string(),
                    format!("{:.2}", r.r),
                    format!("{:.1}", r.threshold),
                    r.paradigm.clone(),
                    r.digest.clone(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "model",
                    "machines",
                    "blocks",
                    "experts",
                    "R",
                    "threshold",
                    "paradigm",
                    "plan digest"
                ],
                &body
            )
        );
    }

    /// The lab task. The artifact carries the per-model plan digests, so
    /// the report surfaces them into the manifest's `plan_digests`.
    pub fn task() -> TaskSpec {
        lab_task(
            "plan",
            |_| Ok(run()),
            |rows| print(rows),
            |rows| {
                let mut digests: Vec<String> = rows.iter().map(|r| r.digest.clone()).collect();
                digests.dedup();
                json_report("plan.json", rows, sim_config("plan"), digests)
            },
        )
    }
}

/// Design-choice ablations beyond the paper's Figure 12: credit-buffer
/// sizing, per-message latency sensitivity (the knob behind the §7.5
/// crossover), and flat vs staged All-to-All.
pub mod ablations {
    use super::*;
    use janus_core::sim::engine::DcOpts;

    /// Credit-buffer sweep result.
    #[derive(Debug, Clone, Serialize)]
    pub struct CreditRow {
        /// Buffer capacity (experts).
        pub credits: u32,
        /// Iteration time (s) on MoE-GPT/32e.
        pub iter_time: f64,
        /// Experts staged before the MoE block's gate at worker 0.
        pub staged_before_gate: usize,
    }

    /// Sweep the credit-based buffer capacity (§5.1.1): too small starves
    /// the prefetch pipeline; beyond ~a dozen slots the returns vanish.
    pub fn credit_sweep() -> Vec<CreditRow> {
        let model = ModelPreset::MoeGpt.config(32);
        [1u32, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|credits| {
                let mut opts = EngineOpts::data_centric(true, true);
                opts.dc = DcOpts { credits, ..opts.dc };
                let report = super::run(4, model.clone(), &opts);
                let gate = report.block_finish_w0[10];
                let staged = report
                    .expert_arrival_w0
                    .iter()
                    .filter(|(_, t)| *t <= gate)
                    .count();
                CreditRow {
                    credits,
                    iter_time: report.iter_time,
                    staged_before_gate: staged,
                }
            })
            .collect()
    }

    /// Per-message latency sensitivity row.
    #[derive(Debug, Clone, Serialize)]
    pub struct LatencyRow {
        /// Issue latency (µs).
        pub latency_us: f64,
        /// Expert-centric iteration (s), PR-MoE/16gpu.
        pub ec_time: f64,
        /// Data-centric iteration (s).
        pub dc_time: f64,
        /// Who wins.
        pub dc_wins: bool,
    }

    /// Sweep the per-message issue latency on PR-MoE (many small experts,
    /// E up to 4): this is the physical effect that makes All-to-All
    /// preferable at small `R` — with free messages, pulling experts
    /// always wins; with realistic per-pull costs the deep blocks flip.
    pub fn latency_sweep() -> Vec<LatencyRow> {
        let model = pr_moe_transformer_xl(16);
        [0.0, 50e-6, 150e-6, 300e-6, 1e-3]
            .into_iter()
            .map(|latency| {
                let mut ec = EngineOpts::janus_expert_centric();
                ec.msg_latency = latency;
                let mut dc = EngineOpts::data_centric(true, true);
                dc.msg_latency = latency;
                let ec_time = super::run(2, model.clone(), &ec).iter_time;
                let dc_time = super::run(2, model.clone(), &dc).iter_time;
                LatencyRow {
                    latency_us: latency * 1e6,
                    ec_time,
                    dc_time,
                    dc_wins: dc_time < ec_time,
                }
            })
            .collect()
    }

    /// Flat vs staged (Tutel-2DH-style) All-to-All row.
    #[derive(Debug, Clone, Serialize)]
    pub struct A2aRow {
        /// Model name.
        pub model: String,
        /// Flat collective iteration time (s).
        pub flat_time: f64,
        /// Staged collective iteration time (s).
        pub staged_time: f64,
        /// Cross-node traffic of both (GiB/machine) — must be equal.
        pub traffic_gib: f64,
    }

    /// Compare the two expert-centric collectives: identical bytes, but
    /// the staged variant serializes its stages under the fluid model.
    pub fn a2a_style() -> Vec<A2aRow> {
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        ModelPreset::all()
            .into_iter()
            .map(|preset| {
                let model = preset.config(32);
                let flat = super::run(4, model.clone(), &EngineOpts::janus_expert_centric());
                let mut staged_opts = EngineOpts::janus_expert_centric();
                staged_opts.hierarchical_a2a = true;
                let staged = super::run(4, model, &staged_opts);
                A2aRow {
                    model: preset.name().into(),
                    flat_time: flat.iter_time,
                    staged_time: staged.iter_time,
                    traffic_gib: flat.cross_node_bytes_per_machine / GIB,
                }
            })
            .collect()
    }

    /// Print all three ablations.
    pub fn print(credits: &[CreditRow], latency: &[LatencyRow], a2a: &[A2aRow]) {
        println!("Ablation A — credit-buffer capacity (MoE-GPT/32e, full Janus)\n");
        let body: Vec<Vec<String>> = credits
            .iter()
            .map(|r| {
                vec![
                    r.credits.to_string(),
                    table::ms(r.iter_time),
                    r.staged_before_gate.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["credits", "iter (ms)", "staged before gate"], &body)
        );

        println!("Ablation B — per-message latency vs paradigm choice (PR-MoE/16gpu)\n");
        let body: Vec<Vec<String>> = latency
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.latency_us),
                    table::ms(r.ec_time),
                    table::ms(r.dc_time),
                    if r.dc_wins { "DC".into() } else { "EC".into() },
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["latency (µs)", "EC (ms)", "DC (ms)", "winner"], &body)
        );

        println!("Ablation C — flat vs staged All-to-All (same bytes, 32 GPUs)\n");
        let body: Vec<Vec<String>> = a2a
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    table::ms(r.flat_time),
                    table::ms(r.staged_time),
                    format!("{:.2}", r.traffic_gib),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(&["model", "flat (ms)", "staged (ms)", "traffic GiB"], &body)
        );
    }

    /// The lab task: one artifact per sweep.
    pub fn task() -> TaskSpec {
        lab_task(
            "ablations",
            |_| Ok((credit_sweep(), latency_sweep(), a2a_style())),
            |(credits, latency, a2a)| print(credits, latency, a2a),
            |(credits, latency, a2a)| TaskReport {
                files: vec![
                    OutFile::new("ablation_credits.json", json_bytes(credits)),
                    OutFile::new("ablation_latency.json", json_bytes(latency)),
                    OutFile::new("ablation_a2a.json", json_bytes(a2a)),
                ],
                config: sim_config("ablations"),
                plan_digests: Vec::new(),
            },
        )
    }
}

/// `repro trace`: train the unified numerical engine with span recording
/// enabled, write one Chrome trace per rank plus the simulator timeline,
/// dump the metrics registry as Prometheus text, and print the
/// compute/communication overlap report.
pub mod trace_run {
    use super::*;
    use janus_core::exec::model::{CommSnapshot, ExecConfig};
    use janus_core::exec::trainer::Trainer;
    use janus_core::plan::PlanOpts;
    use janus_obs::{global, validate_chrome_trace, OverlapReport};
    use std::path::Path;

    /// Everything `repro trace` produced.
    #[derive(Debug, Clone, Serialize)]
    pub struct Report {
        /// Trace files written, paired with their validated event counts.
        pub traces: Vec<(String, usize)>,
        /// Metrics dump path.
        pub metrics_path: String,
        /// Overlap/latency analysis over the numerical run's spans.
        pub overlap: OverlapReport,
        /// Cluster-wide communication counter totals. Cache columns are
        /// machine totals reported by every local worker.
        pub totals: CommSnapshot,
    }

    /// Train the mixed-paradigm preset for two iterations with recording
    /// on, writing `trace_rank{N}.json`, `trace_sim.json`, and
    /// `METRICS.txt` under `dir`. Every trace written is re-validated
    /// against the Chrome trace-event schema before this returns.
    pub fn run_in(dir: &Path) -> std::io::Result<Report> {
        let rec = global();
        rec.enable();
        let cfg = ExecConfig::mixed_paradigms();
        let run = Trainer::new(&cfg, &PlanOpts::default()).run(2);
        let metrics_text = rec.prometheus_text();
        rec.disable();

        let mut traces = Vec::new();
        let mut write_trace = |name: String, json: String| -> std::io::Result<()> {
            let events = validate_chrome_trace(&json)
                .map_err(|e| std::io::Error::other(format!("{name}: {e}")))?;
            let path = dir.join(&name);
            std::fs::write(&path, json)?;
            traces.push((path.display().to_string(), events));
            Ok(())
        };
        for rank in 0..cfg.world() {
            write_trace(
                format!("trace_rank{rank}.json"),
                janus_obs::chrome_trace(&run.trace_for_rank(rank)),
            )?;
        }

        // The simulator timeline goes through the same exporter: its
        // transfer records become cat="comm" events, so the same overlap
        // analysis applies to simulated runs.
        let model = ModelPreset::MoeGpt.config(32);
        let mut opts = EngineOpts::data_centric(false, true);
        opts.include_backward = false;
        let sim = super::run(2, model, &opts);
        write_trace("trace_sim.json".to_string(), sim.sim.to_chrome_trace())?;

        let metrics_path = dir.join("METRICS.txt");
        std::fs::write(&metrics_path, metrics_text)?;

        Ok(Report {
            traces,
            metrics_path: metrics_path.display().to_string(),
            overlap: run.overlap_report(),
            totals: run.comm_totals(),
        })
    }

    /// Print the files written and the overlap report.
    pub fn print(report: &Report) {
        for (path, events) in &report.traces {
            println!("wrote {path} ({events} events, schema-validated)");
        }
        println!("wrote {} (Prometheus text format)\n", report.metrics_path);
        println!("{}", report.overlap.render());
        let t = &report.totals;
        println!(
            "comm totals: {} cache fetches, {} hits, {} misses, {} grad prefolds, \
             {} pull retries, {} retransmits",
            t.cache_fetches,
            t.cache_hits,
            t.cache_misses,
            t.grad_prefolds,
            t.pull_retries,
            t.retransmits
        );
        println!("open traces in https://ui.perfetto.dev or chrome://tracing");
    }

    /// Run the Figure 13 configuration and write its task timeline to
    /// `path` as a Chrome trace (load in `chrome://tracing` or Perfetto).
    fn write_fig13_timeline(path: &Path) -> std::io::Result<()> {
        let model = ModelPreset::MoeGpt.config(32);
        let mut opts = EngineOpts::data_centric(false, true);
        opts.include_backward = false;
        let report = super::run(4, model, &opts);
        std::fs::write(path, report.sim.to_chrome_trace())
    }

    /// The lab task. Per-rank traces and the metrics dump carry real
    /// timestamps (volatile); the two simulator-derived timelines are
    /// deterministic and verify. Enables the global recorder → exclusive.
    pub fn task() -> TaskSpec {
        lab_task(
            "trace",
            |dir| {
                let report = run_in(dir).map_err(|e| e.to_string())?;
                let timeline = dir.join("fig13_timeline.json");
                write_fig13_timeline(&timeline).map_err(|e| e.to_string())?;
                Ok((report, timeline))
            },
            |(report, timeline)| {
                print(report);
                println!(
                    "wrote {} (open in chrome://tracing or Perfetto)",
                    timeline.display()
                );
            },
            |(report, _)| {
                let mut files = vec![OutFile::on_disk("fig13_timeline.json", false)];
                for (path, _events) in &report.traces {
                    let name = Path::new(path)
                        .file_name()
                        .and_then(|n| n.to_str())
                        .expect("trace paths end in the file name written");
                    // Only the simulator timeline is clock-free.
                    files.push(OutFile::on_disk(name, name != "trace_sim.json"));
                }
                files.push(OutFile::on_disk("METRICS.txt", true));
                files.push(OutFile::volatile("trace.json", json_bytes(report)));
                TaskReport {
                    files,
                    config: task_config("trace", &[("iters", Value::Num(2.0))]),
                    plan_digests: Vec::new(),
                }
            },
        )
        .tag("ci")
        .exclusive()
    }
}

/// `repro crash`: supervised training with rank kills and checkpoint
/// recovery. Each scenario crashes one or more ranks (optionally over
/// lossy links), the supervisor restores the mesh from the latest
/// committed checkpoint cut, and the finished run must be bitwise
/// identical to the fault-free one.
pub mod crash {
    use super::*;
    use janus_comm::faulty::{CrashAt, CrashPoint, FaultPlan};
    use janus_comm::reliable::RetransmitPolicy;
    use janus_core::exec::elastic::RoundOpts;
    use janus_core::exec::model::ExecConfig;
    use janus_core::exec::trainer::{diff_runs, Trainer};
    use janus_core::plan::PlanOpts;
    use janus_obs::global;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    /// One crash scenario's recovery ledger and divergence vs clean.
    #[derive(Debug, Clone, Serialize)]
    pub struct ScenarioRow {
        /// Scenario label.
        pub scenario: String,
        /// Worker deaths observed (injected and collateral).
        pub crashes: u64,
        /// Rounds replayed after a failure.
        pub recoveries: u64,
        /// Checkpoints committed (ranks × cuts).
        pub ckpts_written: u64,
        /// Checkpoints restored from the store.
        pub ckpts_restored: u64,
        /// Iterations re-executed because a round failed.
        pub replayed_iters: u64,
        /// Bytes of committed checkpoints.
        pub ckpt_bytes_written: u64,
        /// Bytes read back while restoring.
        pub ckpt_bytes_restored: u64,
        /// Median recovery time (restore + replay), µs.
        pub recover_p50_us: u64,
        /// Tail recovery time, µs.
        pub recover_p99_us: u64,
        /// Largest |Δ| across loss histories vs the fault-free run.
        pub max_loss_diff: f32,
        /// Largest |Δ| across final expert weights vs the fault-free run.
        pub max_weight_diff: f32,
    }

    /// One rank's recovery bookkeeping, summed over all scenarios.
    #[derive(Debug, Clone, Serialize)]
    pub struct RankRow {
        /// Worker rank.
        pub rank: usize,
        /// Times this rank died.
        pub crashes: u64,
        /// Checkpoints of this rank committed to the store.
        pub ckpts_written: u64,
        /// Times this rank was restored from a committed cut.
        pub ckpts_restored: u64,
    }

    /// The whole crash-recovery run.
    #[derive(Debug, Clone, Serialize)]
    pub struct Report {
        /// Chaos seed (`JANUS_CHAOS_SEED` or the default).
        pub seed: u64,
        /// Training iterations per scenario.
        pub iters: u64,
        /// Hex digest of the `IterationPlan` every scenario executed.
        pub plan_digest: String,
        /// Per-scenario ledgers.
        pub scenarios: Vec<ScenarioRow>,
        /// Per-rank breakdown (summed over scenarios).
        pub ranks: Vec<RankRow>,
        /// `ckpt_save` spans recorded by the observability layer.
        pub ckpt_save_spans: u64,
        /// `ckpt_load` spans recorded by the observability layer.
        pub ckpt_load_spans: u64,
        /// `janus_recoveries_total` as seen by the metrics registry.
        pub recoveries_observed: u64,
    }

    /// Run every crash scenario and diff each against the clean run.
    /// Panics (failing the repro) if any scenario diverges from the
    /// fault-free numerics or a scenario turns out vacuous.
    pub fn run() -> Report {
        let seed = std::env::var("JANUS_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        // Same mixed-paradigm shape as `repro faults`: one data-centric
        // block (cache + pre-reduction under recovery) and one
        // expert-centric block (collectives under recovery).
        let cfg = ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: 8,
            blocks: 2,
            experts: 8,
            experts_per_block: vec![4, 8],
            top_k: 2,
            tokens: 64,
            seed: 99,
            lr: 0.01,
        };
        let iters = 4u64;
        let world = cfg.world();
        let sup = RoundOpts {
            retransmit: RetransmitPolicy {
                initial_backoff: Duration::from_micros(500),
                max_backoff: Duration::from_millis(8),
                max_attempts: 400,
                flush_quiet: Duration::from_millis(40),
                ..RetransmitPolicy::default()
            },
            ..RoundOpts::default()
        };
        // (label, faults, round length)
        let scenarios: Vec<(&str, FaultPlan, u64)> = vec![
            (
                "iteration-crash",
                FaultPlan {
                    seed,
                    crashes: vec![CrashPoint {
                        rank: world - 1,
                        at: CrashAt::Iteration(1),
                    }],
                    ..FaultPlan::default()
                },
                1,
            ),
            (
                "send-op-crash",
                FaultPlan {
                    seed,
                    crashes: vec![CrashPoint {
                        rank: 1,
                        at: CrashAt::SendOp(5 + seed % 6),
                    }],
                    ..FaultPlan::default()
                },
                1,
            ),
            (
                "crash-coarse-cut",
                FaultPlan {
                    seed,
                    crashes: vec![CrashPoint {
                        rank: 0,
                        at: CrashAt::Iteration(2),
                    }],
                    ..FaultPlan::default()
                },
                2,
            ),
            (
                "crash-lossy-links",
                FaultPlan {
                    seed,
                    drop: 0.03,
                    delay: 0.2,
                    max_delay_ops: 3,
                    crashes: vec![CrashPoint {
                        rank: 2,
                        at: CrashAt::Iteration(2),
                    }],
                    ..FaultPlan::default()
                },
                1,
            ),
            (
                "double-crash",
                FaultPlan {
                    seed,
                    crashes: vec![
                        CrashPoint {
                            rank: 0,
                            at: CrashAt::Iteration(1),
                        },
                        CrashPoint {
                            rank: world - 1,
                            at: CrashAt::Iteration(3),
                        },
                    ],
                    ..FaultPlan::default()
                },
                1,
            ),
        ];

        // Record ckpt spans and recovery metrics for the whole sweep.
        let rec = global();
        rec.enable();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let clean = trainer.run(iters);
        let mut rows = Vec::new();
        let mut ranks: Vec<RankRow> = (0..world)
            .map(|rank| RankRow {
                rank,
                crashes: 0,
                ckpts_written: 0,
                ckpts_restored: 0,
            })
            .collect();
        for (name, faults, ckpt_every) in scenarios {
            let opts = RoundOpts {
                ckpt_every,
                ..sup.clone()
            };
            let out = trainer
                .run_rounds(&opts, iters, faults)
                .unwrap_or_else(|e| panic!("{name}: round driver failed: {e}"));
            let report = out.recovery;
            let d = diff_runs(&clean, &out.run);
            assert_eq!(
                d.max_loss_diff, 0.0,
                "{name}: diverged from clean run: {d:?}"
            );
            assert_eq!(
                d.max_weight_diff, 0.0,
                "{name}: diverged from clean run: {d:?}"
            );
            assert!(report.crashes > 0, "{name}: vacuous — no crash fired");
            assert!(report.recoveries > 0, "{name}: vacuous — nothing recovered");
            for (row, pr) in ranks.iter_mut().zip(&report.per_rank) {
                row.crashes += pr.crashes;
                row.ckpts_written += pr.ckpts_written;
                row.ckpts_restored += pr.ckpts_restored;
            }
            rows.push(ScenarioRow {
                scenario: name.to_string(),
                crashes: report.crashes,
                recoveries: report.recoveries,
                ckpts_written: report.ckpts_written,
                ckpts_restored: report.ckpts_restored,
                replayed_iters: report.replayed_iterations,
                ckpt_bytes_written: report.ckpt_bytes_written,
                ckpt_bytes_restored: report.ckpt_bytes_restored,
                recover_p50_us: report.recover_us_percentile(50.0),
                recover_p99_us: report.recover_us_percentile(99.0),
                max_loss_diff: d.max_loss_diff,
                max_weight_diff: d.max_weight_diff,
            });
        }
        let ckpt_save_spans = rec.histogram("janus_ckpt_save_us").count();
        let ckpt_load_spans = rec.histogram("janus_ckpt_load_us").count();
        let recoveries_observed = rec
            .counter("janus_recoveries_total")
            .load(Ordering::Relaxed);
        rec.disable();
        assert!(ckpt_save_spans > 0, "vacuous: no ckpt_save spans recorded");
        assert!(ckpt_load_spans > 0, "vacuous: no ckpt_load spans recorded");
        assert!(
            ranks.iter().map(|r| r.ckpts_restored).sum::<u64>() > 0,
            "vacuous: no rank was ever restored from a checkpoint"
        );
        Report {
            seed,
            iters,
            plan_digest: format!("{:016x}", trainer.plan().digest()),
            scenarios: rows,
            ranks,
            ckpt_save_spans,
            ckpt_load_spans,
            recoveries_observed,
        }
    }

    /// Print the per-scenario and per-rank recovery tables.
    pub fn print(report: &Report) {
        println!(
            "Crash recovery — supervised training with rank kills \
             (seed {:#x}, {} iters per scenario): every scenario is \
             bitwise identical to the fault-free run\n",
            report.seed, report.iters
        );
        let body: Vec<Vec<String>> = report
            .scenarios
            .iter()
            .map(|s| {
                vec![
                    s.scenario.clone(),
                    s.crashes.to_string(),
                    s.recoveries.to_string(),
                    s.ckpts_written.to_string(),
                    s.ckpts_restored.to_string(),
                    s.replayed_iters.to_string(),
                    s.ckpt_bytes_written.to_string(),
                    s.ckpt_bytes_restored.to_string(),
                    s.recover_p50_us.to_string(),
                    s.recover_p99_us.to_string(),
                    format!("{:e}", s.max_loss_diff),
                    format!("{:e}", s.max_weight_diff),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "scenario",
                    "crashes",
                    "recoveries",
                    "ckpts-written",
                    "ckpts-restored",
                    "replayed-iters",
                    "bytes-written",
                    "bytes-restored",
                    "recover-p50-us",
                    "recover-p99-us",
                    "loss |Δ|",
                    "weight |Δ|",
                ],
                &body
            )
        );
        println!("per-rank totals over all scenarios:");
        let rank_body: Vec<Vec<String>> = report
            .ranks
            .iter()
            .map(|r| {
                vec![
                    r.rank.to_string(),
                    r.crashes.to_string(),
                    r.ckpts_written.to_string(),
                    r.ckpts_restored.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &["rank", "crashes", "ckpts-written", "ckpts-restored"],
                &rank_body
            )
        );
        println!(
            "observability: {} ckpt_save spans, {} ckpt_load spans, \
             {} recoveries on the metrics registry",
            report.ckpt_save_spans, report.ckpt_load_spans, report.recoveries_observed
        );
    }

    /// The lab task. Enables the global span recorder → exclusive.
    /// Recovery latency percentiles are wall-clock → masked.
    pub fn task() -> TaskSpec {
        lab_task(
            "crash",
            |_| Ok(run()),
            print,
            |r| {
                let config = seeded_config("crash", r.seed, r.iters);
                json_report("crash.json", r, config, vec![r.plan_digest.clone()])
            },
        )
        .tag("ci")
        .exclusive()
        .mask(&["recover_p50_us", "recover_p99_us"])
    }
}

/// Fault injection: the unified engine over a lossy mesh, with the
/// reliability layer recovering every drop, delay, duplicate, and
/// partition — numerics bitwise equal to the fault-free run.
pub mod faults {
    use super::*;
    use janus_comm::faulty::{FaultPlan, FaultyTransport, Partition};
    use janus_comm::local::local_mesh;
    use janus_comm::reliable::{ReliableTransport, RetransmitPolicy};
    use janus_core::exec::model::{CommSnapshot, ExecConfig};
    use janus_core::exec::trainer::{diff_runs, Trainer};
    use janus_core::plan::PlanOpts;
    use std::time::Duration;

    /// One rank's reliability counters after the chaos run.
    #[derive(Debug, Clone, Serialize)]
    pub struct Row {
        /// Worker rank.
        pub rank: usize,
        /// Fault-injection and recovery counters for this rank.
        pub counters: CommSnapshot,
    }

    /// The whole chaos run: divergence vs clean plus per-rank counters.
    #[derive(Debug, Clone, Serialize)]
    pub struct Report {
        /// Chaos seed (`JANUS_CHAOS_SEED` or the default).
        pub seed: u64,
        /// Training iterations run.
        pub iters: u64,
        /// Hex digest of the `IterationPlan` both runs executed.
        pub plan_digest: String,
        /// Largest |Δ| across loss histories vs the fault-free run.
        pub max_loss_diff: f32,
        /// Largest |Δ| across final expert weights vs the fault-free run.
        pub max_weight_diff: f32,
        /// Per-rank counters.
        pub rows: Vec<Row>,
        /// Sum over all ranks (cache columns are machine totals reported
        /// by every local worker, so they sum once per local worker).
        pub totals: CommSnapshot,
    }

    /// Train clean and under a combined fault plan, then diff the runs.
    pub fn run() -> Report {
        let seed = std::env::var("JANUS_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        // Uneven expert counts so the compiled plan mixes paradigms: the
        // data-centric block exercises the cache / pre-reduction path
        // (its hit/miss/prefold columns below stay non-zero), while the
        // expert-centric block keeps collectives under fault injection.
        let cfg = ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: 8,
            blocks: 2,
            experts: 8,
            experts_per_block: vec![4, 8],
            top_k: 2,
            tokens: 64,
            seed: 99,
            lr: 0.01,
        };
        let iters = 3u64;
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let clean = trainer.run(iters);
        let plan = FaultPlan {
            seed,
            drop: 0.04,
            duplicate: 0.15,
            delay: 0.2,
            max_delay_ops: 3,
            reorder: 0.25,
            partitions: vec![Partition {
                a: 0,
                b: cfg.world() - 1,
                from_op: 2,
                to_op: 10,
            }],
            ..FaultPlan::default()
        };
        let policy = RetransmitPolicy {
            initial_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(8),
            max_attempts: 400,
            flush_quiet: Duration::from_millis(40),
            ..RetransmitPolicy::default()
        };
        let endpoints: Vec<_> = local_mesh(cfg.world())
            .into_iter()
            .map(|t| ReliableTransport::with_policy(FaultyTransport::new(t, plan.clone()), policy))
            .collect();
        let chaotic = trainer.run_on(endpoints, iters);
        let d = diff_runs(&clean, &chaotic);
        Report {
            seed,
            iters,
            plan_digest: format!("{:016x}", trainer.plan().digest()),
            max_loss_diff: d.max_loss_diff,
            max_weight_diff: d.max_weight_diff,
            totals: chaotic.comm_totals(),
            rows: chaotic
                .comm
                .iter()
                .enumerate()
                .map(|(rank, c)| Row { rank, counters: *c })
                .collect(),
        }
    }

    /// Print the per-rank counter table.
    pub fn print(report: &Report) {
        println!(
            "Fault injection — unified training over a lossy mesh \
             (seed {:#x}, {} iters): max loss |Δ| = {:e}, max weight |Δ| = {:e} \
             vs the fault-free run\n",
            report.seed, report.iters, report.max_loss_diff, report.max_weight_diff
        );
        let line = |label: String, c: &CommSnapshot| {
            vec![
                label,
                c.faults_dropped.to_string(),
                c.faults_delayed.to_string(),
                c.faults_duplicated.to_string(),
                c.retransmits.to_string(),
                c.duplicates_dropped.to_string(),
                c.out_of_order_held.to_string(),
                c.acks_sent.to_string(),
                c.pull_retries.to_string(),
                c.pull_timeouts.to_string(),
                c.cache_hits.to_string(),
                c.cache_misses.to_string(),
                c.grad_prefolds.to_string(),
                c.migrations.to_string(),
                c.migration_bytes.to_string(),
                c.epoch_bumps.to_string(),
                c.degraded.to_string(),
            ]
        };
        let mut body: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| line(r.rank.to_string(), &r.counters))
            .collect();
        body.push(line("total".to_string(), &report.totals));
        println!(
            "{}",
            table::render(
                &[
                    "rank",
                    "dropped",
                    "delayed",
                    "duplicated",
                    "retransmits",
                    "dup-dropped",
                    "ooo-held",
                    "acks",
                    "pull-retries",
                    "pull-timeouts",
                    "cache-hits",
                    "cache-misses",
                    "prefolds",
                    "migrations",
                    "mig-bytes",
                    "epochs",
                    "degraded"
                ],
                &body
            )
        );
        println!(
            "\n(migration columns stay zero here: transient faults are retried \
             in place — only the elastic driver's permanent-death and skew \
             verdicts re-place experts; see `repro migrate`)"
        );
    }

    /// The lab task. Retransmit/ack/delay counters depend on real timing,
    /// so `counters`/`totals` are masked; the divergence bounds and the
    /// plan digest still verify bitwise.
    pub fn task() -> TaskSpec {
        lab_task(
            "faults",
            |_| Ok(run()),
            print,
            |r| {
                let config = seeded_config("faults", r.seed, r.iters);
                json_report("faults.json", r, config, vec![r.plan_digest.clone()])
            },
        )
        .tag("ci")
        .mask(&["counters", "totals"])
    }
}

/// Elastic expert migration: a skewed workload priced in the simulator
/// and trained for real (threads and localhost TCP), before and after a
/// skew-triggered re-placement, plus graceful degradation after a
/// permanent rank death.
pub mod migrate {
    use super::*;
    use janus_comm::local::local_mesh;
    use janus_comm::tcp::tcp_mesh_localhost;
    use janus_comm::FaultPlan;
    use janus_core::ckpt::CheckpointPolicy;
    use janus_core::exec::elastic::{
        apply_gate_skew, expert_loads, placement_moves, skew_ratio, Cut, GateSkew, PermanentDeath,
        RoundOpts, RoundsOutcome,
    };
    use janus_core::exec::model::{ExecConfig, WorkerState};
    use janus_core::exec::trainer::Trainer;
    use janus_core::exec::weights::expert_to_bytes;
    use janus_core::paradigm::Paradigm;
    use janus_core::placement::Placement;
    use janus_core::plan::PlanOpts;
    use janus_netsim::{price_migration, MigrationFlow, MigrationNet};
    use std::time::Instant;

    /// JSON keys holding wall-clock measurements: masked in the lab
    /// manifest so the rest of the report verifies bitwise.
    pub const MASKED_KEYS: &[&str] = &["timing"];

    /// Iterations trained by every run in this experiment.
    pub const ITERS: u64 = 6;

    /// Fluid-model price of one iteration's cross-machine expert
    /// traffic, at per-worker NIC granularity (one uplink/downlink per
    /// GPU; intra-machine copies ride NVLink/PCIe and are free).
    #[derive(Debug, Clone, Serialize)]
    pub struct SimIterCost {
        /// Total bytes crossing a machine boundary per iteration. In a
        /// symmetric cluster this barely moves with placement — the
        /// tokens just cross in the other direction.
        pub cross_machine_bytes: u64,
        /// Bytes landing on the busiest worker's NIC — the straggler
        /// metric that bounds iteration time, and what a swap unloads.
        pub peak_downlink_bytes: u64,
        /// Straggler-bound iteration time: the slowest worker's expert
        /// compute plus its NIC transfers.
        pub makespan_s: f64,
    }

    /// The simulator half: skew detection, the priced swap, and the
    /// before/after iteration traffic.
    #[derive(Debug, Clone, Serialize)]
    pub struct SimSection {
        /// Max/mean live-rank probe load under the balanced placement.
        pub skew_ratio_before: f64,
        /// Same ratio under the rebalanced placement.
        pub skew_ratio_after: f64,
        /// Experts the rebalance moved.
        pub moves: usize,
        /// One-time migration traffic that crosses the network.
        pub migration_cross_bytes: u64,
        /// Fluid-model time to ship the migrating experts.
        pub migration_makespan_s: f64,
        /// Per-iteration traffic before the swap.
        pub iter_before: SimIterCost,
        /// Per-iteration traffic after the swap.
        pub iter_after: SimIterCost,
        /// Iterations until the per-iteration makespan saving has paid
        /// for the migration (`inf` when the saving is zero).
        pub payback_iterations: f64,
        /// One-time traffic to re-apportion a dead rank's experts.
        pub drain_cross_bytes: u64,
        /// Fluid-model time of the drain.
        pub drain_makespan_s: f64,
    }

    /// One committed placement epoch, digests in hex.
    #[derive(Debug, Clone, Serialize)]
    pub struct EpochRow {
        /// Epoch number installed.
        pub epoch: u64,
        /// Iteration boundary it was installed at.
        pub at_iter: u64,
        /// Why the placement changed.
        pub reason: String,
        /// Experts that changed owner.
        pub moves: usize,
        /// Placement table digest.
        pub placement_digest: String,
        /// Digest of the plan carrying this placement.
        pub plan_digest: String,
    }

    /// One elastic (threaded) training run's ledger.
    #[derive(Debug, Clone, Serialize)]
    pub struct ElasticSection {
        /// Placement epochs committed, in order.
        pub epochs: Vec<EpochRow>,
        /// Ranks declared permanently dead.
        pub dead_ranks: Vec<usize>,
        /// Whether the run finished without its full world.
        pub degraded: bool,
        /// Expert blobs that changed owner.
        pub migrations: u64,
        /// Bytes of expert state shipped live.
        pub migration_bytes: u64,
        /// Migration exchanges torn down and retried.
        pub aborted_migrations: u64,
        /// True when a fresh run restarted from the post-migration cut
        /// continues bitwise identically to the elastic run.
        pub resume_bitwise: bool,
        /// Placement the run finished under.
        pub final_placement_digest: String,
    }

    /// The real-TCP half: the same skewed workload trained under the
    /// balanced and the migrated placement on a localhost mesh.
    #[derive(Debug, Clone, Serialize)]
    pub struct TcpSection {
        /// Largest |Δ| between the two placements' loss histories.
        /// Ownership regroups gradient folds, so the runs agree to
        /// floating-point reassociation (~1e-6), not bitwise — the
        /// bitwise guarantee belongs to same-placement resumes
        /// (`resume_bitwise` above).
        pub max_loss_diff: f32,
        /// Whether `max_loss_diff` is within the reassociation bound.
        pub losses_equivalent: bool,
        /// Cluster-wide cross-machine bytes, balanced placement.
        pub remote_bytes_balanced: u64,
        /// Cluster-wide cross-machine bytes, migrated placement.
        pub remote_bytes_migrated: u64,
        /// Busiest sender's cross-machine bytes, balanced placement.
        pub max_rank_remote_bytes_balanced: u64,
        /// Busiest sender's cross-machine bytes, migrated placement.
        pub max_rank_remote_bytes_migrated: u64,
        /// Per-rank cross-machine bytes, balanced placement.
        pub per_rank_remote_bytes_balanced: Vec<u64>,
        /// Per-rank cross-machine bytes, migrated placement.
        pub per_rank_remote_bytes_migrated: Vec<u64>,
    }

    /// Wall-clock measurements — printed, never digested (masked).
    #[derive(Debug, Clone, Serialize)]
    pub struct Timing {
        /// Mean wall microseconds per iteration, balanced placement.
        pub tcp_wall_us_per_iter_balanced: f64,
        /// Mean wall microseconds per iteration, migrated placement.
        pub tcp_wall_us_per_iter_migrated: f64,
        /// Whether the migrated placement's run was faster.
        pub tcp_wall_improved: bool,
    }

    /// Everything `repro migrate` measures.
    #[derive(Debug, Clone, Serialize)]
    pub struct Report {
        /// Model/cluster seed.
        pub seed: u64,
        /// Iterations per run.
        pub iters: u64,
        /// Digest of the placement-free base plan.
        pub plan_digest: String,
        /// Block whose gate is biased hot.
        pub skewed_block: usize,
        /// Expert the bias overloads.
        pub skewed_expert: usize,
        /// Simulator pricing.
        pub sim: SimSection,
        /// Live skew migration under the elastic driver.
        pub elastic: ElasticSection,
        /// Graceful degradation after a permanent death.
        pub degraded: ElasticSection,
        /// Balanced-vs-migrated runs on a real TCP mesh.
        pub tcp: TcpSection,
        /// Wall-clock (masked).
        pub timing: Timing,
    }

    /// The skewed workload: uneven expert counts mix paradigms (block 0
    /// data-centric, block 1 expert-centric) and the biased expert sits
    /// in the expert-centric block, initially on rank 0.
    fn config() -> (ExecConfig, GateSkew) {
        let cfg = ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: 8,
            blocks: 2,
            experts: 8,
            experts_per_block: vec![4, 16],
            top_k: 2,
            tokens: 64,
            seed: 2026,
            lr: 0.01,
        };
        let skew = GateSkew {
            block: 1,
            expert: 0,
            boost: 6.0,
        };
        (cfg, skew)
    }

    fn hex(d: u64) -> String {
        format!("{d:016x}")
    }

    /// Per-rank routing histograms: `loads[rank][block][expert]` tokens,
    /// from the same deterministic probe the elastic driver uses.
    fn per_rank_loads(cfg: &ExecConfig, skew: &GateSkew) -> Vec<Vec<Vec<f64>>> {
        (0..cfg.world())
            .map(|rank| {
                let mut state = WorkerState::init(cfg, rank);
                apply_gate_skew(&mut state, skew);
                (0..cfg.blocks)
                    .map(|b| {
                        state.gates[b]
                            .route(&state.inputs)
                            .histogram()
                            .into_iter()
                            .map(|h| h as f64)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Serialized size of one expert's state in block `b`.
    fn expert_blob_bytes(cfg: &ExecConfig, b: usize) -> u64 {
        expert_to_bytes(&WorkerState::reference_expert(cfg, b, 0)).len() as u64
    }

    /// One iteration's cross-machine flows under `p`, between worker
    /// NICs (`MigrationFlow`'s machine indices carry *ranks* here — one
    /// NIC per GPU): expert-centric blocks ship token batches to the
    /// owner and activations back; data-centric blocks pull the expert
    /// once per needing machine (through its designated local worker)
    /// and push a same-sized gradient home. Same-machine traffic rides
    /// NVLink/PCIe and is omitted — the fluid model prices it as free.
    #[allow(clippy::needless_range_loop)]
    fn iteration_flows(
        cfg: &ExecConfig,
        plan: &janus_core::plan::IterationPlan,
        p: &Placement,
        loads: &[Vec<Vec<f64>>],
    ) -> Vec<MigrationFlow> {
        let mut flows = Vec::new();
        let token_bytes = (12 + 4 * cfg.hidden_dim) as f64;
        for b in 0..cfg.blocks {
            match plan.blocks[b].paradigm {
                Paradigm::ExpertCentric => {
                    for rank in 0..cfg.world() {
                        for (e, &tokens) in loads[rank][b].iter().enumerate() {
                            let owner = p.owner_of(b, e);
                            let cross = cfg.machine_of(rank) != cfg.machine_of(owner);
                            if cross && tokens > 0.0 {
                                let bytes = (tokens * token_bytes) as u64;
                                for (s, d) in [(rank, owner), (owner, rank)] {
                                    flows.push(MigrationFlow {
                                        src_machine: s,
                                        dst_machine: d,
                                        bytes,
                                    });
                                }
                            }
                        }
                    }
                }
                Paradigm::DataCentric => {
                    let blob = expert_blob_bytes(cfg, b);
                    for m in 0..cfg.machines {
                        for e in 0..cfg.experts_in(b) {
                            let owner = p.owner_of(b, e);
                            let needed = (0..cfg.world())
                                .any(|r| cfg.machine_of(r) == m && loads[r][b][e] > 0.0);
                            if cfg.machine_of(owner) != m && needed {
                                let local = p.designated_local(m, e, cfg.gpus_per_machine);
                                for (s, d) in [(owner, local), (local, owner)] {
                                    flows.push(MigrationFlow {
                                        src_machine: s,
                                        dst_machine: d,
                                        bytes: blob,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        flows
    }

    /// Effective per-worker expert throughput (token-slots/second) and
    /// NIC rate (bytes/second). Toy-scale rates picked so compute and
    /// transfer are comparable at `hidden_dim = 8`, as they are at real
    /// scale — the *ratios* are what the experiment pins.
    const SLOTS_PER_S: f64 = 2e7;
    const NIC_BPS: f64 = 1e9;

    /// Price one iteration: the straggler bound `max over workers of
    /// (owned-expert compute + NIC in + NIC out)`, plus the traffic
    /// totals. `flows` is rank-indexed and cross-machine only.
    fn price_iteration(
        cfg: &ExecConfig,
        p: &Placement,
        loads: &[Vec<Vec<f64>>],
        flows: &[MigrationFlow],
    ) -> SimIterCost {
        let world = cfg.world();
        let mut bytes_in = vec![0u64; world];
        let mut bytes_out = vec![0u64; world];
        for f in flows {
            bytes_out[f.src_machine] += f.bytes;
            bytes_in[f.dst_machine] += f.bytes;
        }
        let makespan_s = (0..world)
            .filter(|&r| p.is_live(r))
            .map(|r| {
                let slots: f64 = (0..cfg.blocks)
                    .map(|b| {
                        p.owned_in(b, r)
                            .iter()
                            .map(|&e| loads.iter().map(|rank| rank[b][e]).sum::<f64>())
                            .sum::<f64>()
                    })
                    .sum();
                slots / SLOTS_PER_S + (bytes_in[r] + bytes_out[r]) as f64 / NIC_BPS
            })
            .fold(0.0, f64::max);
        SimIterCost {
            cross_machine_bytes: flows.iter().map(|f| f.bytes).sum(),
            peak_downlink_bytes: bytes_in.into_iter().max().unwrap_or(0),
            makespan_s,
        }
    }

    /// One NIC per worker for pricing the bulk migration itself.
    fn nic_net(cfg: &ExecConfig) -> MigrationNet {
        MigrationNet::symmetric(cfg.world(), NIC_BPS)
    }

    /// The one-time flows of a placement change: each moved expert's
    /// blob travels from its old owner's NIC to its new owner's.
    /// Same-machine moves are omitted (free under the fluid model).
    fn move_flows(cfg: &ExecConfig, prev: &Placement, next: &Placement) -> Vec<MigrationFlow> {
        placement_moves(prev, next)
            .into_iter()
            .filter(|mv| cfg.machine_of(mv.from) != cfg.machine_of(mv.to))
            .map(|mv| MigrationFlow {
                src_machine: mv.from,
                dst_machine: mv.to,
                bytes: expert_blob_bytes(cfg, mv.block),
            })
            .collect()
    }

    /// Check that a fresh run restarted from the last post-migration cut
    /// continues bitwise identically to the elastic run past the cut.
    fn resume_matches(trainer: &Trainer, skew: Option<&GateSkew>, out: &RoundsOutcome) -> bool {
        let Some(cut) = out.cuts.last() else {
            return false;
        };
        let world = trainer.cfg().world();
        let reference =
            trainer.run_from(local_mesh(world), cut, skew, ITERS, CheckpointPolicy::Never);
        (0..world).all(|rank| {
            if !cut.placement.is_live(rank) {
                return true;
            }
            let tail = &out.run.losses[rank][cut.at_iter as usize..];
            tail == reference.losses[rank].as_slice()
                && out.run.outputs[rank].data() == reference.outputs[rank].data()
        })
    }

    fn epoch_rows(out: &RoundsOutcome) -> Vec<EpochRow> {
        out.elastic
            .epochs
            .iter()
            .map(|e| EpochRow {
                epoch: e.epoch,
                at_iter: e.at_iter,
                reason: e.reason.clone(),
                moves: e.moves,
                placement_digest: hex(e.placement_digest),
                plan_digest: hex(e.plan_digest),
            })
            .collect()
    }

    fn elastic_section(trainer: &Trainer, el: &RoundOpts) -> ElasticSection {
        let out = trainer
            .run_rounds(el, ITERS, FaultPlan::default())
            .expect("elastic run completes");
        ElasticSection {
            epochs: epoch_rows(&out),
            dead_ranks: out.elastic.dead_ranks.clone(),
            degraded: out.elastic.degraded,
            migrations: out.elastic.migrations,
            migration_bytes: out.elastic.migration_bytes,
            aborted_migrations: out.elastic.aborted_migrations,
            resume_bitwise: resume_matches(trainer, el.skew.as_ref(), &out),
            final_placement_digest: hex(out.elastic.final_placement_digest),
        }
    }

    /// One pinned training run: fixed placement, skewed gates, no
    /// elasticity — the controlled A/B measurement.
    struct PinnedRun {
        losses: Vec<Vec<f32>>,
        remote_bytes: Vec<u64>,
        wall_us_per_iter: f64,
    }

    /// Train from the deterministic init under `placement` on a fresh
    /// localhost TCP mesh.
    fn pinned_run(trainer: &Trainer, placement: &Placement, skew: &GateSkew) -> PinnedRun {
        let mesh = tcp_mesh_localhost(trainer.cfg().world()).expect("localhost mesh");
        let t0 = Instant::now();
        let run = trainer.run_from(
            mesh,
            &Cut::fresh(placement.clone()),
            Some(skew),
            ITERS,
            CheckpointPolicy::Never,
        );
        let wall_us_per_iter = t0.elapsed().as_micros() as f64 / ITERS as f64;
        PinnedRun {
            losses: run.losses,
            remote_bytes: run.comm.iter().map(|c| c.remote_bytes).collect(),
            wall_us_per_iter,
        }
    }

    /// Run the whole experiment.
    pub fn run() -> Report {
        let (cfg, skew) = config();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let plan = trainer.plan();
        let world = cfg.world();

        // --- Simulator half: detect the skew, price the swap. ---
        let loads = expert_loads(&cfg, Some(&skew));
        let per_rank = per_rank_loads(&cfg, &skew);
        let balanced = WorkerState::balanced_placement(&cfg);
        let ratio_before = skew_ratio(&balanced, &loads);
        let (migrated, moves) = balanced.rebalance(&loads, 6);
        let ratio_after = skew_ratio(&migrated, &loads);
        assert!(
            ratio_after < ratio_before,
            "rebalance must reduce the skew ratio ({ratio_before} -> {ratio_after})"
        );

        let net = nic_net(&cfg);
        let mig_est = price_migration(&net, &move_flows(&cfg, &balanced, &migrated));
        let iter_before = price_iteration(
            &cfg,
            &balanced,
            &per_rank,
            &iteration_flows(&cfg, plan, &balanced, &per_rank),
        );
        let iter_after = price_iteration(
            &cfg,
            &migrated,
            &per_rank,
            &iteration_flows(&cfg, plan, &migrated, &per_rank),
        );
        assert!(
            iter_after.makespan_s < iter_before.makespan_s,
            "migration must shorten the simulated iteration \
             ({} -> {})",
            iter_before.makespan_s,
            iter_after.makespan_s
        );
        assert!(
            iter_after.peak_downlink_bytes < iter_before.peak_downlink_bytes,
            "migration must unload the hottest downlink ({} -> {})",
            iter_before.peak_downlink_bytes,
            iter_after.peak_downlink_bytes
        );
        let saving = iter_before.makespan_s - iter_after.makespan_s;
        let payback_iterations = if saving > 0.0 {
            mig_est.makespan_s / saving
        } else {
            f64::INFINITY
        };
        let dead_rank = world - 1;
        let drain_est = price_migration(
            &net,
            &move_flows(&cfg, &balanced, &balanced.drain(dead_rank)),
        );

        // --- Elastic half: the driver performs the swap live. ---
        let elastic = elastic_section(
            &trainer,
            &RoundOpts {
                ckpt_every: 2,
                skew_ratio: 1.2,
                max_moves: 6,
                skew: Some(skew),
                ..RoundOpts::default()
            },
        );
        assert!(
            elastic.epochs.iter().any(|e| e.reason.contains("skew")),
            "the elastic run must commit a skew rebalance"
        );
        assert!(
            elastic.resume_bitwise,
            "skew migration must be bitwise-resumable"
        );

        // --- Degradation half: permanent death mid-run. ---
        let degraded = elastic_section(
            &trainer,
            &RoundOpts {
                ckpt_every: 2,
                deaths: vec![PermanentDeath {
                    rank: dead_rank,
                    at_iter: 3,
                    during_migration: false,
                }],
                ..RoundOpts::default()
            },
        );
        assert!(degraded.degraded && degraded.dead_ranks == vec![dead_rank]);
        assert!(degraded.resume_bitwise, "drain must be bitwise-resumable");

        // --- Real TCP half: balanced vs migrated, same workload. ---
        let tcp_balanced = pinned_run(&trainer, &balanced, &skew);
        let tcp_migrated = pinned_run(&trainer, &migrated, &skew);
        let max_loss_diff = tcp_balanced
            .losses
            .iter()
            .zip(&tcp_migrated.losses)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
            .fold(0f32, f32::max);
        let losses_equivalent = max_loss_diff < 1e-4;
        assert!(
            losses_equivalent,
            "placement must change communication, not training \
             (max loss |Δ| = {max_loss_diff:e})"
        );
        let max_rank = |bytes: &[u64]| bytes.iter().copied().max().unwrap_or(0);
        assert!(
            max_rank(&tcp_migrated.remote_bytes) < max_rank(&tcp_balanced.remote_bytes),
            "migration must unload the busiest worker's measured cross-machine \
             traffic ({} -> {})",
            max_rank(&tcp_balanced.remote_bytes),
            max_rank(&tcp_migrated.remote_bytes)
        );

        Report {
            seed: cfg.seed,
            iters: ITERS,
            plan_digest: hex(plan.digest()),
            skewed_block: skew.block,
            skewed_expert: skew.expert,
            sim: SimSection {
                skew_ratio_before: ratio_before,
                skew_ratio_after: ratio_after,
                moves: moves.len(),
                migration_cross_bytes: mig_est.cross_machine_bytes,
                migration_makespan_s: mig_est.makespan_s,
                iter_before,
                iter_after,
                payback_iterations,
                drain_cross_bytes: drain_est.cross_machine_bytes,
                drain_makespan_s: drain_est.makespan_s,
            },
            elastic,
            degraded,
            tcp: TcpSection {
                max_loss_diff,
                losses_equivalent,
                remote_bytes_balanced: tcp_balanced.remote_bytes.iter().sum(),
                remote_bytes_migrated: tcp_migrated.remote_bytes.iter().sum(),
                max_rank_remote_bytes_balanced: tcp_balanced
                    .remote_bytes
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
                max_rank_remote_bytes_migrated: tcp_migrated
                    .remote_bytes
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
                per_rank_remote_bytes_balanced: tcp_balanced.remote_bytes,
                per_rank_remote_bytes_migrated: tcp_migrated.remote_bytes,
            },
            timing: Timing {
                tcp_wall_improved: tcp_migrated.wall_us_per_iter < tcp_balanced.wall_us_per_iter,
                tcp_wall_us_per_iter_balanced: tcp_balanced.wall_us_per_iter,
                tcp_wall_us_per_iter_migrated: tcp_migrated.wall_us_per_iter,
            },
        }
    }

    /// Print the before/after table and the migration ledgers.
    pub fn print(report: &Report) {
        println!(
            "Elastic migration — expert {} of block {} biased hot \
             (probe skew ratio {:.2}); rebalance moves {} experts, \
             paying for itself in {:.1} simulated iterations\n",
            report.skewed_expert,
            report.skewed_block,
            report.sim.skew_ratio_before,
            report.sim.moves,
            report.sim.payback_iterations
        );
        let body = vec![
            vec![
                "probe skew ratio (max/mean)".to_string(),
                format!("{:.3}", report.sim.skew_ratio_before),
                format!("{:.3}", report.sim.skew_ratio_after),
            ],
            vec![
                "sim iter makespan (ms)".to_string(),
                format!("{:.3}", report.sim.iter_before.makespan_s * 1e3),
                format!("{:.3}", report.sim.iter_after.makespan_s * 1e3),
            ],
            vec![
                "sim peak downlink (KB/iter)".to_string(),
                format!(
                    "{:.1}",
                    report.sim.iter_before.peak_downlink_bytes as f64 / 1e3
                ),
                format!(
                    "{:.1}",
                    report.sim.iter_after.peak_downlink_bytes as f64 / 1e3
                ),
            ],
            vec![
                "sim cross-machine (KB/iter)".to_string(),
                format!(
                    "{:.1}",
                    report.sim.iter_before.cross_machine_bytes as f64 / 1e3
                ),
                format!(
                    "{:.1}",
                    report.sim.iter_after.cross_machine_bytes as f64 / 1e3
                ),
            ],
            vec![
                "tcp cross-machine (KB, whole run)".to_string(),
                format!("{:.1}", report.tcp.remote_bytes_balanced as f64 / 1e3),
                format!("{:.1}", report.tcp.remote_bytes_migrated as f64 / 1e3),
            ],
            vec![
                "tcp max-rank cross (KB)".to_string(),
                format!(
                    "{:.1}",
                    report.tcp.max_rank_remote_bytes_balanced as f64 / 1e3
                ),
                format!(
                    "{:.1}",
                    report.tcp.max_rank_remote_bytes_migrated as f64 / 1e3
                ),
            ],
            vec![
                "tcp wall (µs/iter)".to_string(),
                format!("{:.0}", report.timing.tcp_wall_us_per_iter_balanced),
                format!("{:.0}", report.timing.tcp_wall_us_per_iter_migrated),
            ],
        ];
        println!(
            "{}",
            table::render(&["metric", "balanced", "migrated"], &body)
        );
        println!(
            "\nlive swap: {} expert blobs ({} B) shipped over the reliable \
             transport; max loss |Δ| across placements = {:e} \
             (reassociation only)",
            report.elastic.migrations, report.elastic.migration_bytes, report.tcp.max_loss_diff
        );
        for e in &report.elastic.epochs {
            println!(
                "  epoch {} @ iter {}: {} ({} moves, placement {})",
                e.epoch, e.at_iter, e.reason, e.moves, e.placement_digest
            );
        }
        println!(
            "degraded: rank {} lost permanently -> {} epochs, finished {} \
             (resume bitwise: {})",
            report
                .degraded
                .dead_ranks
                .first()
                .copied()
                .unwrap_or(usize::MAX),
            report.degraded.epochs.len(),
            if report.degraded.degraded {
                "without it"
            } else {
                "intact"
            },
            report.degraded.resume_bitwise
        );
        for e in &report.degraded.epochs {
            println!(
                "  epoch {} @ iter {}: {} ({} moves, placement {})",
                e.epoch, e.at_iter, e.reason, e.moves, e.placement_digest
            );
        }
    }

    /// The lab task. Everything is deterministic except the measured TCP
    /// wall times, which live under the masked `timing` key. Binds
    /// localhost sockets and times a real mesh → exclusive.
    pub fn task() -> TaskSpec {
        lab_task(
            "migrate",
            |_| Ok(run()),
            print,
            |r| {
                let config = seeded_config("migrate", r.seed, r.iters);
                json_report(
                    "migrate_report.json",
                    r,
                    config,
                    vec![r.plan_digest.clone()],
                )
            },
        )
        .tag("ci")
        .exclusive()
        .mask(MASKED_KEYS)
    }
}

/// The serving-plane SLO sweep: p50/p99 versus replica budget, simulated
/// and real (localhost TCP), under a Zipf-skewed gate.
pub mod serve {
    use super::*;
    use janus_obs::global;
    pub use janus_serve::report::SloReport;

    /// Request-latency percentile bounds read back from the `janus-obs`
    /// recorder histogram (`serve/latency_us`) the serving engine feeds,
    /// aggregated over the whole real TCP sweep. Power-of-two bucket
    /// upper bounds — wall clock, so printed but never digested.
    #[derive(Debug, Clone, Serialize)]
    pub struct LatencyHistogram {
        /// Requests observed by the recorder.
        pub samples: u64,
        /// Median latency upper bound, µs.
        pub p50_le_us: u64,
        /// p90 latency upper bound, µs.
        pub p90_le_us: u64,
        /// Tail latency upper bound, µs.
        pub p99_le_us: u64,
    }

    /// The SLO artifact plus the recorder-side latency histogram.
    pub struct Report {
        pub slo: SloReport,
        pub latency: LatencyHistogram,
    }

    /// Build the full SLO report (simulated sweep + real TCP sweep) with
    /// the global recorder enabled, so the engine's per-request latency
    /// histogram is captured and surfaced alongside the sweep tables.
    pub fn run() -> Report {
        let rec = global();
        rec.enable();
        let slo = janus_serve::report::build();
        rec.disable();
        let h = rec.histogram("serve/latency_us");
        let latency = LatencyHistogram {
            samples: h.count(),
            p50_le_us: h.quantile_le(0.50),
            p90_le_us: h.quantile_le(0.90),
            p99_le_us: h.quantile_le(0.99),
        };
        Report { slo, latency }
    }

    pub fn print(report: &Report) {
        let slo = &report.slo;
        println!(
            "Serving SLO — continuous batching over disaggregated expert \
             workers (zipf {}, {} requests × {} tokens, top-{} of {} \
             experts, gate histogram {:?}):\n",
            slo.zipf, slo.requests, slo.tokens_per_request, slo.top_k, slo.experts, slo.hist
        );
        let sim_body: Vec<Vec<String>> = slo
            .sim
            .iter()
            .map(|r| {
                vec![
                    r.budget.to_string(),
                    format!("{:?}", r.counts),
                    r.hot_replicas.to_string(),
                    format!("{:.3}", r.p50_ms),
                    format!("{:.3}", r.p99_ms),
                    format!("{:.3}", r.mean_ms),
                ]
            })
            .collect();
        println!(
            "{}",
            table::render(
                &[
                    "budget",
                    "replicas",
                    "hot",
                    "sim p50 ms",
                    "sim p99 ms",
                    "sim mean ms"
                ],
                &sim_body
            )
        );
        if !slo.real.is_empty() {
            let real_body: Vec<Vec<String>> = slo
                .real
                .iter()
                .map(|r| {
                    vec![
                        r.budget.to_string(),
                        format!("{:?}", r.counts),
                        r.completed.to_string(),
                        r.redispatches.to_string(),
                        r.p50_us.to_string(),
                        r.p99_us.to_string(),
                        r.mean_us.to_string(),
                    ]
                })
                .collect();
            println!(
                "{}",
                table::render(
                    &[
                        "budget",
                        "replicas",
                        "completed",
                        "redispatch",
                        "tcp p50 µs",
                        "tcp p99 µs",
                        "tcp mean µs"
                    ],
                    &real_body
                )
            );
        }
        let lat = &report.latency;
        println!(
            "recorder latency histogram (serve/latency_us, {} samples): \
             p50 ≤ {}µs, p90 ≤ {}µs, p99 ≤ {}µs",
            lat.samples, lat.p50_le_us, lat.p90_le_us, lat.p99_le_us
        );
        println!(
            "sim p99 improves with replica budget: {}\n",
            slo.sim_p99_improves
        );
    }

    /// The lab task. The simulated half (latency vs replica budget)
    /// verifies bitwise; the real TCP half's measured latencies are
    /// masked, while its structural fields (completions, failovers,
    /// replica plans) still verify. Enables the global recorder for the
    /// request-latency histogram it prints → exclusive.
    pub fn task() -> TaskSpec {
        lab_task(
            "serve",
            |_| Ok(run()),
            print,
            |report| {
                let slo = &report.slo;
                let config = task_config(
                    "serve",
                    &[
                        ("seed", Value::Num(slo.seed as f64)),
                        ("requests", Value::Num(slo.requests as f64)),
                        ("zipf", Value::Num(slo.zipf)),
                    ],
                );
                json_report("serve_slo.json", slo, config, Vec::new())
            },
        )
        .tag("ci")
        .exclusive()
        .mask(janus_serve::report::MASKED_KEYS)
    }
}

/// `repro analyze`: trace analytics over an instrumented FakeClock run —
/// critical-path blame, straggler / expert-skew detection, and
/// sim-vs-real drift calibration of the `janus-netsim` cost model
/// against the numerical engines, all driven by the *same* compiled
/// [`IterationPlan`](janus_core::plan::IterationPlan).
pub mod analyze {
    use super::*;
    use janus_core::exec::model::ExecConfig;
    use janus_core::exec::trainer::Trainer;
    use janus_core::plan::PlanOpts;
    use janus_core::sim::drift::sim_segments;
    use janus_core::sim::engine::build_graph_from_plan;
    use janus_core::sim::setup::SimSetup;
    use janus_moe::workload::{AssignmentMatrix, Imbalance};
    use janus_netsim::simulate;
    use janus_obs::analysis::{
        critical_path, detect_skew, expert_compute_loads, measure_skew, rank_compute_loads,
        CriticalPathReport, MeasuredSkewReport, SkewConfig, SkewReport,
    };
    use janus_obs::drift::{drift_report, real_segments, DriftReport};
    use janus_obs::{global, FakeClock};
    use std::sync::Arc;

    /// JSON keys of `analysis.json` holding wall-clock (FakeClock
    /// tick-count) measurements — masked by the lab manifest and the
    /// golden test before digesting. Everything else — blame structure,
    /// drift segment keys, sim predictions, skew flags on deterministic
    /// gate histograms — verifies bitwise across `--jobs` and thread
    /// counts.
    pub const MASKED_KEYS: &[&str] = &[
        // critical-path blame (tick-dependent)
        "wall_us",
        "us",
        "segments",
        // drift: the measured side and everything derived from it
        "actual_us",
        "rel_err",
        "accuracy",
        "share_act",
        "share_err",
        "scale",
        "calibration",
        // measured (wall-clock) skew
        "load_us",
        "ratio_q",
        "hot",
        "imbalance_q",
    ];

    /// Iterations of the instrumented run.
    pub const ITERS: u64 = 2;

    /// Skew verdict over one deterministic gate histogram.
    #[derive(Debug, Clone, Serialize)]
    pub struct GateSkew {
        /// Workload descriptor (`zipf-1.2`, `uniform`).
        pub workload: String,
        pub report: SkewReport,
    }

    /// Did the sim-vs-real alignment cover every comm segment the plan
    /// schedules? `expected` lists the sim-side pull/prefetch/a2a keys;
    /// `missing` the subset the real trace failed to match.
    #[derive(Debug, Clone, Serialize)]
    pub struct CommCoverage {
        pub expected: Vec<String>,
        pub missing: Vec<String>,
        pub complete: bool,
    }

    /// Everything `repro analyze` measures, in one artifact.
    #[derive(Debug, Clone, Serialize)]
    pub struct Report {
        /// Scenario preset.
        pub preset: String,
        /// Digest of the plan both the engine and the simulator ran.
        pub plan_digest: String,
        pub iters: u64,
        /// Critical-path blame of the instrumented run.
        pub blame: CriticalPathReport,
        /// Skew verdicts over deterministic gate histograms: the Zipf
        /// workload must flag its hot expert, the uniform one must not.
        pub gate_skew: Vec<GateSkew>,
        /// Measured per-rank compute loads (wall-clock values, masked).
        pub rank_skew: MeasuredSkewReport,
        /// Measured per-(block, expert) compute loads (masked).
        pub expert_skew: MeasuredSkewReport,
        /// Sim-vs-real drift calibration over aligned segments.
        pub drift: DriftReport,
        /// Comm coverage of the drift alignment.
        pub coverage: CommCoverage,
    }

    /// Train the mixed-paradigm preset under a ticking FakeClock with
    /// recording on, then run the *same* compiled plan through the
    /// simulator and align the two. Fails loudly if blame does not sum
    /// to wall time within 1% or the drift alignment leaves a plan comm
    /// segment uncovered — those are the subsystem's two contracts.
    pub fn run() -> Result<Report, String> {
        let cfg = ExecConfig::mixed_paradigms();
        let plan_opts = PlanOpts::default();
        let rec = global();
        rec.enable_with_clock(Arc::new(FakeClock::ticking(1)));
        let trainer = Trainer::new(&cfg, &plan_opts);
        let plan = trainer.plan();
        let run = trainer.run(ITERS);
        rec.disable();
        let events = run.trace;

        let blame = critical_path(&events);
        for it in &blame.iterations {
            let on_path: f64 = it.by_category.iter().map(|b| b.us).sum();
            if (on_path - it.wall_us).abs() > 0.01 * it.wall_us.max(1.0) {
                return Err(format!(
                    "iter {}: blame {on_path}µs does not sum to wall {}µs within 1%",
                    it.iter, it.wall_us
                ));
            }
        }

        // Deterministic gate-histogram skew: same generator the
        // simulator samples workloads from.
        let skew_cfg = SkewConfig::default();
        let gate_skew = [
            ("zipf-1.2", Imbalance::Zipf(1.2)),
            ("uniform", Imbalance::Balanced),
        ]
        .into_iter()
        .map(|(name, imbalance)| {
            let asg = AssignmentMatrix::generate(
                cfg.world(),
                cfg.experts,
                cfg.tokens,
                imbalance,
                cfg.seed,
            );
            let loads: Vec<(String, f64)> = (0..cfg.experts)
                .map(|e| (format!("e{e}"), asg.expert_load(e) as f64))
                .collect();
            GateSkew {
                workload: name.to_string(),
                report: detect_skew(&loads, &skew_cfg),
            }
        })
        .collect();

        let rank_skew = measure_skew(&rank_compute_loads(&events), &skew_cfg);
        let expert_skew = measure_skew(&expert_compute_loads(&events), &skew_cfg);

        // Drift: the identical plan through the cost model.
        let setup = SimSetup::new(
            cfg.cluster(),
            cfg.model_config(),
            Imbalance::Balanced,
            cfg.seed,
        );
        let (graph, _) = build_graph_from_plan(&setup, &EngineOpts::default(), plan);
        let sim = simulate(&graph, &setup.cluster.capacities())
            .map_err(|e| format!("plan does not simulate: {e:?}"))?;
        let sim_segs = sim_segments(&sim);
        let real_segs = real_segments(&events, |pid| cfg.machine_of(pid as usize));
        let drift = drift_report(&sim_segs, &real_segs);

        let expected: Vec<String> = sim_segs
            .iter()
            .filter(|(k, _)| matches!(k.category.as_str(), "pull" | "prefetch" | "a2a"))
            .map(|(k, _)| k.label())
            .collect();
        let missing: Vec<String> = expected
            .iter()
            .filter(|l| drift.unmatched_sim.contains(l))
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "drift alignment left plan comm segments uncovered: {}",
                missing.join(", ")
            ));
        }
        let coverage = CommCoverage {
            complete: missing.is_empty(),
            expected,
            missing,
        };

        Ok(Report {
            preset: "mixed_paradigms".to_string(),
            plan_digest: format!("{:016x}", plan.digest()),
            iters: ITERS,
            blame,
            gate_skew,
            rank_skew,
            expert_skew,
            drift,
            coverage,
        })
    }

    /// Print the blame table, skew verdicts, and drift summary.
    pub fn print(report: &Report) {
        println!(
            "Trace analytics — preset {}, plan {}, {} iterations:\n",
            report.preset, report.plan_digest, report.iters
        );
        println!("{}", report.blame.render());
        for g in &report.gate_skew {
            println!(
                "gate skew [{}]: max/mean {:.2}, cv {:.2}, flagged {:?}",
                g.workload, g.report.max_over_mean, g.report.cv, g.report.flagged
            );
        }
        let hot: Vec<&str> = report
            .rank_skew
            .entries
            .iter()
            .filter(|e| e.hot)
            .map(|e| e.key.as_str())
            .collect();
        println!(
            "measured rank skew: imbalance {:.2}, hot ranks {hot:?}",
            report.rank_skew.imbalance_q
        );
        println!();
        println!("{}", report.drift.render());
        println!(
            "plan comm coverage: {}/{} sim segments matched by the real trace{}",
            report.coverage.expected.len() - report.coverage.missing.len(),
            report.coverage.expected.len(),
            if report.coverage.complete {
                " (complete)"
            } else {
                ""
            }
        );
    }

    /// The lab task. Mutates the global recorder → exclusive. The
    /// blame/drift/skew *structure* (segment keys, deterministic
    /// gate-skew flags, sim predictions, the plan digest) verifies
    /// bitwise; every tick-derived value is masked.
    pub fn task() -> TaskSpec {
        lab_task(
            "analyze",
            |_| run(),
            print,
            |r| {
                let config = task_config(
                    "analyze",
                    &[
                        ("preset", Value::Str(r.preset.clone())),
                        ("iters", Value::Num(r.iters as f64)),
                    ],
                );
                json_report("analysis.json", r, config, vec![r.plan_digest.clone()])
            },
        )
        .tag("ci")
        .exclusive()
        .mask(MASKED_KEYS)
    }
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

    /// CI runs `ci/*`; pinning it exactly keeps a wall-clock task from
    /// slipping back into the CI selection.
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
