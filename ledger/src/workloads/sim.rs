//! The simulation workload: the iterations behind the paper's figures.
//!
//! One operation is one sweep step: `simulate_iteration` of MoE-BERT and
//! MoE-GPT under the Janus, Tutel and data-centric engines, one after
//! another on one thread (a closed loop with one caller). The work is
//! simulated tasks.

use super::{
    num, record_trace_pass, set_up_repeatedly, train, Latency, Outcome, RunArgs, TimedPass,
    TRACE_PASS_SHARE,
};
use crate::adapter::{
    self, sim_cases, sim_layers, simulate_case, SimCase, SimLayers, SimOutcome, SimShape, Stack,
};
use crate::metrics::Layers;
use crate::probes::{self, ComputeCalls, ProbeContext};
use crate::span;
use crate::stats::ratio;
use crate::sys;
use std::time::{Duration, Instant};

/// The paper's 32-GPU cluster with one expert per GPU.
const SHAPE: SimShape = SimShape {
    machines: 2,
    gpus_per_machine: 8,
    experts: 16,
};
/// Step time is reported at the median and, at most, this percentile.
const TAIL_CAP: f64 = 75.0;

/// One sweep step; every case must succeed.
fn sweep(seed: u64) -> Result<Vec<SimOutcome>, String> {
    sim_cases()
        .into_iter()
        .map(|case| {
            let _span = span::enter("sim.case", 0);
            simulate_case(SHAPE, case, seed)
        })
        .collect()
}

/// One complete set-up: the reference sweep every timed step must repeat
/// bit for bit, and the paper's headline ordering on it.
fn set_up(seed: u64, gate_failures: &mut Vec<String>) -> Result<(Vec<SimOutcome>, f64), String> {
    let t0 = Instant::now();
    let reference = sweep(seed)?;
    let time_of = |model: &'static str, engine: &'static str| {
        let at = sim_cases()
            .iter()
            .position(|c| *c == SimCase { model, engine })
            .expect("case is in the sweep");
        reference[at].iter_time
    };
    let (janus, tutel) = (time_of("MoE-BERT", "janus"), time_of("MoE-BERT", "tutel"));
    if janus >= tutel {
        gate_failures.push(format!(
            "MoE-BERT: Janus simulates at {janus} s, Tutel at {tutel} s; the paper has Janus faster"
        ));
    }
    Ok((reference, t0.elapsed().as_secs_f64()))
}

/// What a loop of sweep steps measured.
#[derive(Default)]
struct Pass {
    step_ms: Vec<f64>,
    tasks: usize,
    wall_s: f64,
    cpu_s: f64,
    /// Simulations that failed or whose iteration time differed, in any
    /// bit, from the reference.
    failed: u64,
}

fn timed_steps(seed: u64, reference: &[SimOutcome], budget: Duration) -> Pass {
    let mut pass = Pass::default();
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    while pass.step_ms.is_empty() || start.elapsed() < budget {
        span::set_op(pass.step_ms.len() as u64);
        let op = span::enter("op", 0);
        let t = Instant::now();
        let step = sweep(seed);
        pass.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(op);
        match step {
            Ok(outcomes) => {
                pass.tasks += outcomes.iter().map(|o| o.tasks).sum::<usize>();
                pass.failed += outcomes
                    .iter()
                    .zip(reference)
                    .filter(|(got, want)| got.iter_time.to_bits() != want.iter_time.to_bits())
                    .count() as u64;
            }
            Err(_) => pass.failed += reference.len() as u64,
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = sys::cpu_seconds() - cpu0;
    pass
}

fn check(what: &str, pass: &Pass, gate_failures: &mut Vec<String>) {
    if pass.failed > 0 {
        gate_failures.push(format!(
            "{what}: {} simulations failed or did not repeat the reference bit for bit",
            pass.failed
        ));
    }
}

fn manifest_of() -> Vec<(String, serde::Value)> {
    vec![
        ("machines".into(), num(SHAPE.machines as f64)),
        (
            "gpus_per_machine".into(),
            num(SHAPE.gpus_per_machine as f64),
        ),
        ("experts".into(), num(SHAPE.experts as f64)),
        ("cases_per_step".into(), num(sim_cases().len() as f64)),
    ]
}

/// The staged timings of one simulation at the sweep's shape, for the
/// per-layer run of a workload that does not simulate.
pub fn probe_layers(seed: u64) -> Result<SimLayers, String> {
    sim_layers(SHAPE, sim_cases()[0], seed)
}

/// Run the simulation workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut gate_failures = Vec::new();
    let cases = sim_cases().len() as u64;
    if !args.trace {
        let (reference, setup_s) = set_up_repeatedly(|_| set_up(args.seed, &mut gate_failures))?;
        let pass = timed_steps(args.seed, &reference, Duration::from_secs_f64(args.seconds));
        check("timed pass", &pass, &mut gate_failures);
        let steps = pass.step_ms.len();
        let timed = TimedPass {
            setup_s,
            work_per_s: ratio(pass.tasks as f64, pass.wall_s),
            cpu_ms_per_op: ratio(pass.cpu_s * 1e3, steps as f64),
            latency: Latency::of(&pass.step_ms, TAIL_CAP),
        };
        let mut manifest = manifest_of();
        manifest.extend(timed.manifest());
        return Ok(Outcome {
            attempted: steps as u64 * cases,
            failed: pass.failed,
            gate_failures,
            metrics: timed.metrics(),
            manifest,
            spans: Vec::new(),
        });
    }

    let (reference, _) = set_up(args.seed, &mut gate_failures)?;
    let budget = Duration::from_secs_f64(args.seconds * TRACE_PASS_SHARE);
    let plain = timed_steps(args.seed, &reference, budget);
    check("untraced pass", &plain, &mut gate_failures);
    adapter::set_recorder(true);
    span::set_enabled(true);
    let traced = timed_steps(args.seed, &reference, budget);
    // The staged calls run under the benchmark's spans too.
    let stages: Result<Vec<SimLayers>, String> = sim_cases()
        .into_iter()
        .map(|case| sim_layers(SHAPE, case, args.seed))
        .collect();
    adapter::set_recorder(false);
    span::set_enabled(false);
    check("traced pass", &traced, &mut gate_failures);
    let recorder = adapter::drain_recorder();
    span::flush_thread();
    let (spans, spans_dropped) = span::take_all();

    let mut layers = Layers::zeroed();
    record_trace_pass(
        &mut layers,
        &plain.step_ms,
        &traced.step_ms,
        recorder.events,
        spans_dropped,
    );
    probes::record_sim_layers(&mut layers, &stages?);
    probes::run_all(
        &mut layers,
        &ProbeContext {
            shape: adapter::TrainPlan::compile(&train::probe_shape(), args.seed).probe_shape(),
            train: &train::probe_shape(),
            stack: Stack::Local,
            a2a_chunk_bytes: 4096,
            serve: &adapter::default_serve_probe_setup(args.seed),
            seed: args.seed,
            scale: args.scale(),
        },
        ComputeCalls::default(),
    )?;

    let mut manifest = manifest_of();
    manifest.push(("recorder_events".into(), num(recorder.events as f64)));
    Ok(Outcome {
        attempted: (plain.step_ms.len() + traced.step_ms.len()) as u64 * cases,
        failed: plain.failed + traced.failed,
        gate_failures,
        metrics: layers.into_map(),
        manifest,
        spans,
    })
}
