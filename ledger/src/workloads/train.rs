//! The three training workloads: one engine (`unified::run_iteration`), three
//! plans, three transport stacks. The world is always 2 machines × 2 GPUs.
//!
//! Load is a closed loop: every rank starts its next iteration when the
//! previous one's barrier let it go. One operation is one iteration, timed
//! as the slowest rank's `run_iteration`; the work is tokens.

use super::{
    num, record_trace_pass, set_up_repeatedly, text, Latency, Outcome, RunArgs, TimedPass,
    TRACE_PASS_SHARE,
};
use crate::adapter::{
    self, on_stack, spies_for, Policy, RankCounters, RankSpies, Stack, TrainJob, TrainPlan,
    TrainRank, TrainShape,
};
use crate::metrics::Layers;
use crate::probes::{self, ComputeCalls, ProbeContext};
use crate::span;
use crate::spy::SpyCounts;
use crate::stats::{mean, median, ratio};
use crate::sys;
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One training workload.
pub struct TrainWorkload {
    shape: TrainShape,
    stack: Stack,
    /// Paradigm the plan must choose for each block, or the workload does
    /// not measure what it says.
    paradigms: &'static [&'static str],
}

/// Protocol-bound: every expert is pulled over the full reliable stack.
pub fn dc_wire() -> TrainWorkload {
    TrainWorkload {
        shape: TrainShape {
            hidden: 16,
            tokens: 32,
            blocks: 2,
            experts_per_block: vec![16, 16],
            top_k: 2,
            policy: Policy::DataCentric,
            lr: 0.00001,
        },
        stack: Stack::ReliableTcp,
        paradigms: &["data-centric", "data-centric"],
    }
}

/// Compute-bound: wide experts, All-to-All over in-process channels.
pub fn ec_compute() -> TrainWorkload {
    TrainWorkload {
        shape: TrainShape {
            hidden: 128,
            tokens: 128,
            blocks: 2,
            experts_per_block: vec![8, 8],
            top_k: 2,
            policy: Policy::ExpertCentric,
            lr: 0.00001,
        },
        stack: Stack::Local,
        paradigms: &["expert-centric", "expert-centric"],
    }
}

/// The real Janus: the R rule splits the blocks between the paradigms.
pub fn unified_mixed() -> TrainWorkload {
    TrainWorkload {
        shape: TrainShape {
            hidden: 32,
            tokens: 256,
            blocks: 2,
            experts_per_block: vec![4, 8],
            top_k: 2,
            policy: Policy::Unified,
            lr: 0.00001,
        },
        stack: Stack::Tcp,
        paradigms: &["data-centric", "expert-centric"],
    }
}

/// The training shape the plan-compile probe uses beside a workload that
/// does not train.
pub fn probe_shape() -> TrainShape {
    unified_mixed().shape
}

/// Iterations whose rank-0 losses set-up compares, bit for bit, with a run
/// of the same plan over in-process channels.
const CHECK_ITERS: u64 = 3;
/// Iterations run before anything is timed, so caches and pools are warm.
const WARMUP_ITERS: u64 = 8;
/// Iterations between two looks at the clock; the ranks agree on stopping
/// only there.
const CHUNK: usize = 4;
/// Iteration time is reported at the median and, at most, this percentile.
const TAIL_CAP: f64 = 90.0;

/// What one rank saw in one session on a mesh.
#[derive(Default)]
struct RankLog {
    /// Losses of the check iterations.
    check: Vec<f32>,
    /// When the rank had checked and warmed up.
    ready: Option<Instant>,
    /// Start and end of its measured pass.
    window: Option<(Instant, Instant)>,
    /// Wall time of each measured iteration, ms.
    iter_ms: Vec<f64>,
    /// Loss of each measured iteration.
    losses: Vec<f32>,
    errors: Vec<String>,
    /// Counters at the start and end of the measured pass.
    counters: (RankCounters, RankCounters),
    app: (SpyCounts, SpyCounts),
    wire: (SpyCounts, SpyCounts),
    /// Processor seconds of the whole process over the pass; rank 0 only.
    cpu_s: f64,
}

struct Session<'a> {
    plan: &'a TrainPlan,
    stack: Stack,
    spies: Option<&'a [RankSpies]>,
    /// How long to measure once ready; `None` ends the session there.
    measure: Option<Duration>,
    /// Record recorder events and benchmark spans during the measured pass.
    traced: bool,
}

fn step(rank: &mut TrainRank<'_>, iter: u64, log: &mut RankLog) -> f32 {
    if !log.errors.is_empty() {
        return f32::NAN;
    }
    rank.step(iter).unwrap_or_else(|e| {
        log.errors.push(e);
        f32::NAN
    })
}

/// Bring the mesh up, check, warm up and, if asked, measure.
fn session(s: &Session<'_>) -> Result<Vec<RankLog>, String> {
    let world = s.plan.world();
    // Ranks agree on stopping at a rendezvous of the benchmark's own, never
    // through the transport under test: rank 0 (or a rank that failed)
    // raises `stop` before the rendezvous and everyone reads it after.
    let gate = Barrier::new(world);
    let stop = AtomicBool::new(false);
    let snapshot = |r: usize| match s.spies {
        Some(spies) => (spies[r].app.snapshot(), spies[r].wire.snapshot()),
        None => Default::default(),
    };
    let job = TrainJob::new(s.plan, |mut rank: TrainRank<'_>| {
        let r = rank.rank();
        let mut log = RankLog::default();
        let mut iter = 0u64;
        for _ in 0..CHECK_ITERS {
            let loss = step(&mut rank, iter, &mut log);
            log.check.push(loss);
            iter += 1;
        }
        for _ in 0..WARMUP_ITERS {
            step(&mut rank, iter, &mut log);
            iter += 1;
        }
        gate.wait();
        log.ready = Some(Instant::now());
        if let Some(budget) = s.measure {
            if s.traced && r == 0 {
                adapter::set_recorder(true);
                span::set_enabled(true);
            }
            gate.wait();
            let (app, wire) = snapshot(r);
            (log.app.0, log.wire.0, log.counters.0) = (app, wire, rank.counters());
            let cpu0 = sys::cpu_seconds();
            let start = Instant::now();
            loop {
                for _ in 0..CHUNK {
                    span::set_op(iter);
                    let op = span::enter("op", r);
                    let t = Instant::now();
                    let loss = step(&mut rank, iter, &mut log);
                    log.iter_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    drop(op);
                    log.losses.push(loss);
                    iter += 1;
                }
                if (r == 0 && start.elapsed() >= budget) || !log.errors.is_empty() {
                    stop.store(true, Ordering::SeqCst);
                }
                gate.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            log.window = Some((start, Instant::now()));
            log.cpu_s = sys::cpu_seconds() - cpu0;
            let (app, wire) = snapshot(r);
            (log.app.1, log.wire.1, log.counters.1) = (app, wire, rank.counters());
            gate.wait();
            if s.traced && r == 0 {
                adapter::set_recorder(false);
                span::set_enabled(false);
            }
        }
        if let Err(e) = rank.finish() {
            log.errors.push(e);
        }
        span::flush_thread();
        log
    });
    on_stack(s.stack, world, s.spies, job)
}

/// Rank-0 losses of the check iterations over in-process channels.
fn reference_losses(plan: &TrainPlan) -> Result<Vec<f32>, String> {
    let job = TrainJob::new(plan, |mut rank: TrainRank<'_>| {
        let losses: Result<Vec<f32>, String> = (0..CHECK_ITERS).map(|i| rank.step(i)).collect();
        rank.finish().and(losses)
    });
    on_stack(Stack::Local, plan.world(), None, job)?.swap_remove(0)
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// One complete set-up: compile the plan, compute the reference, bring the
/// mesh up, check against the reference and warm up; then measure if asked.
/// Returns the plan, the per-rank logs and the seconds set-up took.
fn set_up(
    w: &TrainWorkload,
    seed: u64,
    measure: Option<Duration>,
    gate_failures: &mut Vec<String>,
) -> Result<(TrainPlan, Vec<RankLog>, f64), String> {
    let t0 = Instant::now();
    let plan = TrainPlan::compile(&w.shape, seed);
    let reference = reference_losses(&plan)?;
    let logs = session(&Session {
        plan: &plan,
        stack: w.stack,
        spies: None,
        measure,
        traced: false,
    })?;
    let ready = logs.iter().filter_map(|l| l.ready).max().unwrap_or(t0);
    if plan.paradigms() != w.paradigms {
        gate_failures.push(format!(
            "plan chose {:?}, the workload needs {:?}",
            plan.paradigms(),
            w.paradigms
        ));
    }
    if bits(&logs[0].check) != bits(&reference) {
        gate_failures.push(format!(
            "first losses over {} are {:?}, over in-process channels {:?}",
            w.stack.name(),
            logs[0].check,
            reference
        ));
    }
    Ok((plan, logs, (ready - t0).as_secs_f64()))
}

/// Per-iteration numbers of a measured pass across its ranks.
struct Pass {
    /// Slowest rank's time of each iteration, ms.
    iter_ms: Vec<f64>,
    /// Slowest minus fastest rank of each iteration, ms.
    skew_ms: Vec<f64>,
    /// Mean loss over ranks of each iteration.
    losses: Vec<f32>,
    wall_s: f64,
    failed: u64,
}

fn pass_of(logs: &[RankLog]) -> Pass {
    let n = logs.iter().map(|l| l.iter_ms.len()).min().unwrap_or(0);
    let over_ranks = |i: usize| logs.iter().map(move |l| l.iter_ms[i]);
    let iter_ms: Vec<f64> = (0..n).map(|i| over_ranks(i).fold(0.0, f64::max)).collect();
    let skew_ms = (0..n)
        .map(|i| iter_ms[i] - over_ranks(i).fold(f64::INFINITY, f64::min))
        .collect();
    let losses: Vec<f32> = (0..n)
        .map(|i| logs.iter().map(|l| l.losses[i]).sum::<f32>() / logs.len() as f32)
        .collect();
    let start = logs.iter().filter_map(|l| l.window.map(|w| w.0)).min();
    let end = logs.iter().filter_map(|l| l.window.map(|w| w.1)).max();
    Pass {
        failed: losses.iter().filter(|l| !l.is_finite()).count() as u64,
        wall_s: start.zip(end).map_or(0.0, |(s, e)| (e - s).as_secs_f64()),
        iter_ms,
        skew_ms,
        losses,
    }
}

/// The gates every measured pass must hold.
fn check_pass(logs: &[RankLog], pass: &Pass, gate_failures: &mut Vec<String>) {
    for (r, log) in logs.iter().enumerate() {
        for e in &log.errors {
            gate_failures.push(format!("rank {r}: {e}"));
        }
    }
    if pass.failed > 0 {
        gate_failures.push(format!("{} iterations lost a finite loss", pass.failed));
    }
    let first = mean(&logs.iter().map(|l| l.check[0] as f64).collect::<Vec<_>>());
    match pass.losses.last() {
        Some(&last) if (last as f64) < first => {}
        last => gate_failures.push(format!(
            "training did not learn: loss {first} at iteration 0, {last:?} at the end"
        )),
    }
}

/// Run a training workload.
pub fn run(w: &TrainWorkload, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        run_traced(w, args)
    } else {
        run_timed(w, args)
    }
}

fn manifest_of(w: &TrainWorkload, plan: &TrainPlan) -> Vec<(String, Value)> {
    let s = &w.shape;
    vec![
        ("stack".into(), text(w.stack.name())),
        ("world".into(), num(plan.world() as f64)),
        ("hidden".into(), num(s.hidden as f64)),
        ("tokens_per_rank".into(), num(s.tokens as f64)),
        (
            "experts_per_block".into(),
            Value::Arr(s.experts_per_block.iter().map(|&e| num(e as f64)).collect()),
        ),
        ("top_k".into(), num(s.top_k as f64)),
        ("lr".into(), num(s.lr)),
        (
            "plan_digest".into(),
            text(format!("{:016x}", plan.digest())),
        ),
        (
            "paradigms".into(),
            Value::Arr(plan.paradigms().into_iter().map(text).collect()),
        ),
    ]
}

fn run_timed(w: &TrainWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let mut gate_failures = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    // The last set-up goes straight on into the timed pass.
    let ((plan, logs), setup_s) = set_up_repeatedly(|last| {
        let (plan, logs, secs) = set_up(w, args.seed, last.then_some(budget), &mut gate_failures)?;
        Ok(((plan, logs), secs))
    })?;
    let pass = pass_of(&logs);
    check_pass(&logs, &pass, &mut gate_failures);
    let ops = pass.iter_ms.len();
    let timed = TimedPass {
        setup_s,
        work_per_s: ratio((plan.tokens_per_iteration() * ops) as f64, pass.wall_s),
        cpu_ms_per_op: ratio(logs[0].cpu_s * 1e3, ops as f64),
        latency: Latency::of(&pass.iter_ms, TAIL_CAP),
    };
    let mut manifest = manifest_of(w, &plan);
    manifest.extend(timed.manifest());
    Ok(Outcome {
        attempted: ops as u64,
        failed: pass.failed,
        gate_failures,
        metrics: timed.metrics(),
        manifest,
        spans: Vec::new(),
    })
}

fn run_traced(w: &TrainWorkload, args: &RunArgs) -> Result<Outcome, String> {
    let mut gate_failures = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds * TRACE_PASS_SHARE);

    // What users run: no spies, recorder off.
    let (plan, plain_logs, _) = set_up(w, args.seed, Some(budget), &mut gate_failures)?;
    let plain = pass_of(&plain_logs);
    check_pass(&plain_logs, &plain, &mut gate_failures);

    // The same again under the spies, the recorder and the benchmark's spans.
    let spies = spies_for(plan.world());
    let logs = session(&Session {
        plan: &plan,
        stack: w.stack,
        spies: Some(&spies),
        measure: Some(budget),
        traced: true,
    })?;
    let recorder = adapter::drain_recorder();
    let (spans, spans_dropped) = span::take_all();
    let pass = pass_of(&logs);
    check_pass(&logs, &pass, &mut gate_failures);
    if bits(&logs[0].check) != bits(&plain_logs[0].check) {
        gate_failures.push("the spied mesh computed other losses than the plain one".into());
    }

    let mut layers = Layers::zeroed();
    let ops = pass.iter_ms.len() as f64;
    record_trace_pass(
        &mut layers,
        &plain.iter_ms,
        &pass.iter_ms,
        recorder.events,
        spans_dropped,
    );

    // janus-core::exec: the recorder's events through the blame walker.
    let blamed = recorder.iterations as f64;
    for (c, us) in adapter::blame_categories().iter().zip(&recorder.blame_us) {
        layers.set(&format!("exec.blame_{c}_ms"), ratio(us / 1e3, blamed));
    }
    layers.set(
        "exec.blame_coverage",
        ratio(recorder.blame_us.iter().sum(), recorder.wall_us),
    );
    layers.set("exec.rank_skew_ms", median(&pass.skew_ms));
    let by_name = span::totals_by_name(&spans);
    let total = |name: &str| by_name.get(name).copied().unwrap_or_default();
    layers.set(
        "exec.self_ms",
        ratio(total("op").self_us / 1e3, total("op").count as f64),
    );

    // janus-core::queue: counter deltas over the traced pass.
    let world_sum = |pick: fn(&RankCounters) -> u64| -> f64 {
        logs.iter()
            .map(|l| (pick(&l.counters.1) - pick(&l.counters.0)) as f64)
            .sum()
    };
    let (hits, misses) = (world_sum(|c| c.cache_hits), world_sum(|c| c.cache_misses));
    layers.set("queue.cache_hit_share", ratio(hits, hits + misses));
    layers.set(
        "queue.cache_fetches_per_op",
        world_sum(|c| c.cache_fetches) / ops,
    );
    layers.set(
        "queue.grad_prefolds_per_op",
        world_sum(|c| c.grad_prefolds) / ops,
    );
    layers.set(
        "comm.remote_bytes_per_op",
        world_sum(|c| c.remote_bytes) / ops,
    );
    let since_start = |pick: fn(&RankCounters) -> u64| -> f64 {
        logs.iter().map(|l| pick(&l.counters.1) as f64).sum()
    };
    layers.set("comm.retransmits", since_start(|c| c.retransmits));
    layers.set(
        "comm.duplicates_dropped",
        since_start(|c| c.duplicates_dropped),
    );
    layers.set("comm.pull_retries", since_start(|c| c.pull_retries));

    // janus-comm: what the spies counted over the traced pass.
    let app: Vec<SpyCounts> = logs.iter().map(|l| l.app.1.since(&l.app.0)).collect();
    let wire: Vec<SpyCounts> = logs.iter().map(|l| l.wire.1.since(&l.wire.0)).collect();
    super::record_spied_traffic(&mut layers, w.stack, &app, &wire, &by_name, ops);

    let (expert_calls, _) = plan.expert_calls_per_rank();
    probes::run_all(
        &mut layers,
        &ProbeContext {
            shape: plan.probe_shape(),
            train: &w.shape,
            stack: w.stack,
            a2a_chunk_bytes: plan.token_bytes() / plan.world(),
            serve: &adapter::default_serve_probe_setup(args.seed),
            seed: args.seed,
            scale: args.scale(),
        },
        ComputeCalls {
            expert_calls,
            local_experts: plan.local_experts(),
            gate_calls: w.shape.blocks,
        },
    )?;
    probes::record_sim_layers(&mut layers, &[adapter::sim_layers_of_training(&plan)?]);

    let mut manifest = manifest_of(w, &plan);
    manifest.push(("recorder_events".into(), num(recorder.events as f64)));
    manifest.push(("blamed_iterations".into(), num(blamed)));
    Ok(Outcome {
        attempted: (plain.iter_ms.len() + pass.iter_ms.len()) as u64,
        failed: plain.failed + pass.failed,
        gate_failures,
        metrics: layers.into_map(),
        manifest,
        spans,
    })
}
