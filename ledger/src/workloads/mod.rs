//! The five workloads and what every one of them reports.
//!
//! A run is one workload in one process: set-up, then either the timed pass
//! with all tracing off (end-to-end metrics) or a short untraced pass, a
//! traced pass and the layer probes (per-layer metrics).

mod serve;
mod sim;
mod train;

use crate::adapter::{kind, Stack};
use crate::metrics::Layers;
use crate::span::{NameTotals, Span};
use crate::spy::SpyCounts;
use crate::stats::{mean, median, percentile, ratio, sorted, supported_tail};
use crate::sys;
use serde::Value;
use std::collections::BTreeMap;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "train_dc_wire",
        why: "forced data-centric, tiny experts, reliable+tcp: the pull protocol and the transport stack do the work, the kernels almost none",
    },
    WorkloadSpec {
        name: "train_ec_compute",
        why: "forced expert-centric, wide experts, in-process channels: tensor kernels and expert fwd/bwd do the work, transport almost none",
    },
    WorkloadSpec {
        name: "train_unified_mixed",
        why: "R rule picks data-centric for block 0 and expert-centric for block 1 over one plain tcp mesh: pulls and All-to-All share the layers",
    },
    WorkloadSpec {
        name: "serve_zipf",
        why: "zipf-skewed serving over liveness+tcp, a saturated phase and a paced open-loop phase: thousands of tiny request/response frames",
    },
    WorkloadSpec {
        name: "sim_paper_sweep",
        why: "the paper's simulated iterations (2 models x 3 engines): topology, graph build and netsim only, no numerics and no sockets",
    },
];

/// Length of a full run's measured pass, seconds; shorter runs scale their
/// probes down by the same share.
pub const FULL_RUN_SECONDS: f64 = 10.0;

/// What the command line asks of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    /// Feeds the input generators and nothing else.
    pub seed: u64,
    /// How long the measured pass lasts.
    pub seconds: f64,
    /// Per-layer run (traced pass and probes) instead of the timed pass.
    pub trace: bool,
}

impl RunArgs {
    /// 1 for a full-length run; the share of one otherwise.
    fn scale(&self) -> f64 {
        self.seconds / FULL_RUN_SECONDS
    }
}

/// What one run found.
pub struct Outcome {
    /// Operations the measured passes attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Correctness gates that did not hold; empty on a correct run.
    pub gate_failures: Vec<String>,
    /// Every end-to-end metric, or with `trace` every per-layer metric.
    pub metrics: BTreeMap<String, f64>,
    /// Workload configuration, digests and sample counts for the manifest.
    pub manifest: Vec<(String, Value)>,
    /// The benchmark's own spans of the traced pass.
    pub spans: Vec<Span>,
}

/// Run the workload `args` names.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train_dc_wire" => train::run(&train::dc_wire(), args),
        "train_ec_compute" => train::run(&train::ec_compute(), args),
        "train_unified_mixed" => train::run(&train::unified_mixed(), args),
        "serve_zipf" => serve::run(args),
        "sim_paper_sweep" => sim::run(args),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// Median and tail of a set of latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Latency {
    p50_ms: f64,
    tail_ms: f64,
    /// The percentile `tail_ms` is: the highest with ten samples beyond it,
    /// capped at the workload's own so that it does not move with the
    /// length of the run.
    tail_pct: f64,
    samples: usize,
}

impl Latency {
    fn of(op_ms: &[f64], tail_cap: f64) -> Latency {
        let ops = sorted(op_ms);
        let tail_pct = supported_tail(ops.len()).unwrap_or(75.0).min(tail_cap);
        Latency {
            p50_ms: percentile(&ops, 50.0),
            tail_ms: percentile(&ops, tail_pct),
            tail_pct,
            samples: ops.len(),
        }
    }
}

/// The measurements every timed pass hands over, whatever an operation is.
struct TimedPass {
    /// Wall time of each complete set-up the run made, seconds.
    setup_s: Vec<f64>,
    /// Latency of one operation.
    latency: Latency,
    /// Units of work per second (tokens, requests, simulated tasks).
    work_per_s: f64,
    /// Processor milliseconds the process used per operation of the pass.
    cpu_ms_per_op: f64,
}

impl TimedPass {
    /// The end-to-end metrics.
    fn metrics(&self) -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("setup_s".to_string(), median(&self.setup_s)),
            ("op_ms_p50".to_string(), self.latency.p50_ms),
            ("op_ms_tail".to_string(), self.latency.tail_ms),
            ("work_per_s".to_string(), self.work_per_s),
            ("cpu_ms_per_op".to_string(), self.cpu_ms_per_op),
            ("peak_rss_mb".to_string(), sys::peak_rss_mib()),
        ])
    }

    /// Sample counts and the tail percentile, for the manifest.
    fn manifest(&self) -> Vec<(String, Value)> {
        vec![
            ("op_samples".into(), num(self.latency.samples as f64)),
            ("tail_percentile".into(), num(self.latency.tail_pct)),
            ("setup_samples".into(), num(self.setup_s.len() as f64)),
        ]
    }
}

/// How many complete set-ups a timed run makes; `setup_s` is their median.
const SETUPS: usize = 3;

/// Make [`SETUPS`] complete set-ups with `set_up`, which is told whether
/// this is the last one and returns what it built and the seconds it took.
/// Returns what the last one built (the timed pass runs on it) and every
/// set-up's seconds.
fn set_up_repeatedly<T>(
    mut set_up: impl FnMut(bool) -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        seconds.push(set_up(false)?.1);
    }
    let (built, last) = set_up(true)?;
    seconds.push(last);
    Ok((built, seconds))
}

/// Share of `--seconds` the untraced reference pass and the traced pass of a
/// per-layer run each get; the probes take the rest of the run's time.
const TRACE_PASS_SHARE: f64 = 0.3;

/// Spans and recorder overhead of a traced pass, shared by every workload.
fn record_trace_pass(
    layers: &mut Layers,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    recorder_events: usize,
    spans_dropped: u64,
) {
    let (plain, traced) = (median(untraced_ms), median(traced_ms));
    layers.set(
        "obs.trace_overhead_pct",
        (ratio(traced, plain) - 1.0) * 100.0,
    );
    layers.set(
        "obs.events_per_op",
        ratio(recorder_events as f64, traced_ms.len() as f64),
    );
    layers.set("trace.op_ms_p50", traced);
    layers.set("trace.ops", traced_ms.len() as f64);
    layers.set("trace.spans_dropped", spans_dropped as f64);
}

fn num(v: impl Into<f64>) -> Value {
    Value::Num(v.into())
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Record what the spies of a traced pass counted, summed over the ranks
/// and divided by the pass's `ops`. `by_name` holds the span totals of the
/// same pass.
fn record_spied_traffic(
    layers: &mut Layers,
    stack: Stack,
    app: &[SpyCounts],
    wire: &[SpyCounts],
    by_name: &BTreeMap<&'static str, NameTotals>,
    ops: f64,
) {
    let sum = |counts: &[SpyCounts]| {
        counts
            .iter()
            .fold(SpyCounts::default(), |acc, c| acc.plus(c))
    };
    let (all, frames) = (sum(app), sum(wire));
    let per_op = |n: u64| ratio(n as f64, ops);
    layers.set("comm.app_msgs_per_op", per_op(all.sent_total()));
    layers.set("comm.app_bytes_per_op", per_op(all.sent_bytes_total()));
    layers.set(
        "comm.pull_requests_per_op",
        per_op(all.sent[kind::PULL_REQUEST]),
    );
    layers.set(
        "comm.expert_payload_bytes_per_op",
        per_op(all.sent_bytes[kind::EXPERT_PAYLOAD]),
    );
    layers.set(
        "comm.grad_push_bytes_per_op",
        per_op(all.sent_bytes[kind::GRAD_PUSH]),
    );
    layers.set(
        "comm.collective_bytes_per_op",
        per_op(all.sent_bytes[kind::COLLECTIVE]),
    );
    layers.set("comm.barrier_msgs_per_op", per_op(all.sent[kind::BARRIER]));
    layers.set(
        "comm.token_msgs_per_op",
        per_op(all.sent[kind::TOKEN_DISPATCH] + all.sent[kind::TOKEN_RETURN]),
    );
    let ms_per_op = |ns: f64| ratio(ns / 1e6, ops);
    layers.set(
        "comm.send_busy_ms_per_op",
        ms_per_op(mean(
            &app.iter().map(|c| c.send_ns as f64).collect::<Vec<_>>(),
        )),
    );
    layers.set(
        "comm.recv_blocked_ms_per_op",
        ms_per_op(
            app.iter()
                .map(|c| c.recv_blocked_ns as f64)
                .fold(0.0, f64::max),
        ),
    );
    if stack.has_wire_layer() {
        layers.set(
            "comm.wire_frames_per_app_msg",
            ratio(frames.sent_total() as f64, all.sent_total() as f64),
        );
        let of = |name: &str| by_name.get(name).copied().unwrap_or_default();
        let (send, recv, flush) = (of("app.send"), of("app.recv"), of("app.flush"));
        layers.set(
            "comm.stack_self_ms_per_op",
            ratio((send.self_us + recv.self_us + flush.self_us) / 1e3, ops),
        );
        layers.set(
            "comm.stack_send_tax_us",
            ratio(send.self_us, send.count as f64),
        );
    }
}
