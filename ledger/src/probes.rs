//! Layer probes: standalone calls into one layer at the workload's own
//! shapes, timed from here. Every workload runs every probe, so a layer's
//! number can be read beside any end-to-end figure.

use crate::adapter::{
    self, ExpertProbe, PairNumbers, ProbeShape, ServeSetup, SimLayers, Stack, TrainShape,
};
use crate::metrics::Layers;
use crate::span;
use crate::stats::{median, ratio};
use std::time::{Duration, Instant};

/// Median nanoseconds one call of `f` takes. Calls are timed in batches of
/// about 200 µs, so the clock's own cost disappears, for about `budget`.
pub fn ns_per_call(mut f: impl FnMut(), budget: Duration) -> f64 {
    const BATCH: Duration = Duration::from_micros(200);
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        (0..calls).for_each(|_| f());
        if t.elapsed() >= BATCH || calls >= 1 << 22 {
            break;
        }
        calls *= 2;
    }
    let mut samples = Vec::new();
    let end = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < end {
        let t = Instant::now();
        (0..calls).for_each(|_| f());
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&samples)
}

/// What the probes need to know about the workload they run beside.
pub struct ProbeContext<'a> {
    /// Shapes of the tensor, expert and gate probes.
    pub shape: ProbeShape,
    /// Training shape whose plan the compile probe builds.
    pub train: &'a TrainShape,
    /// Stack the collective probe runs on.
    pub stack: Stack,
    /// Bytes one rank sends each peer in the collective probe.
    pub a2a_chunk_bytes: usize,
    /// Model and request shapes of the serving probes.
    pub serve: &'a ServeSetup,
    /// Generator seed.
    pub seed: u64,
    /// 1 for a full run; smaller shortens every probe.
    pub scale: f64,
}

/// Expert forward calls per rank per iteration and experts a rank owns: what
/// turns the expert probe times into a per-iteration compute floor. Zero
/// for a workload that does not train.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeCalls {
    pub expert_calls: usize,
    pub local_experts: usize,
    pub gate_calls: usize,
}

/// Run the probes of every layer below the engines and record them.
pub fn run_all(
    layers: &mut Layers,
    ctx: &ProbeContext<'_>,
    calls: ComputeCalls,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(0.08 * ctx.scale.max(0.05));
    let _span = span::enter("probes", 0);

    // janus-tensor
    let (matmul, flops) = adapter::matmul_probe(ctx.shape, ctx.seed);
    let matmul_ns = ns_per_call(matmul, budget);
    layers.set("tensor.matmul_fwd_us", matmul_ns / 1e3);
    layers.set("tensor.matmul_gflops", ratio(flops, matmul_ns));
    layers.set(
        "tensor.pool_region_us",
        ns_per_call(adapter::pool_region_probe(), budget) / 1e3,
    );

    // janus-moe
    let mut expert = ExpertProbe::new(ctx.shape, ctx.seed);
    let fwd_us = ns_per_call(|| expert.forward(), budget) / 1e3;
    let bwd_us = ns_per_call(|| expert.backward(), budget) / 1e3;
    let apply_us = ns_per_call(|| expert.apply(), budget) / 1e3;
    let gate_us = ns_per_call(adapter::gate_probe(ctx.shape, ctx.seed), budget) / 1e3;
    layers.set("moe.expert_fwd_us", fwd_us);
    layers.set("moe.expert_bwd_us", bwd_us);
    layers.set("moe.expert_apply_us", apply_us);
    layers.set("moe.gate_route_us", gate_us);
    layers.set(
        "moe.compute_floor_ms",
        (calls.expert_calls as f64 * (fwd_us + bwd_us)
            + calls.local_experts as f64 * apply_us
            + calls.gate_calls as f64 * gate_us)
            / 1e3,
    );

    // janus-core::queue and ::plan
    layers.set(
        "queue.cache_hit_ns",
        ns_per_call(adapter::cache_hit_probe(), budget),
    );
    let wakes = adapter::cache_fill_wake_us(((200.0 * ctx.scale) as usize).max(20));
    layers.set("queue.cache_fill_wake_us", median(&wakes));
    layers.set(
        "queue.credit_acquire_ns",
        ns_per_call(adapter::credit_probe(), budget),
    );
    layers.set(
        "plan.compile_us",
        ns_per_call(adapter::plan_compile_probe(ctx.train, ctx.seed), budget) / 1e3,
    );

    // janus-comm
    let pair = |stack| -> Result<PairNumbers, String> {
        let _span = span::enter("probe.pair", 0);
        adapter::pair_probe(stack, ctx.scale, None)
    };
    let (tcp, reliable, local) = (
        pair(Stack::Tcp)?,
        pair(Stack::ReliableTcp)?,
        pair(Stack::Local)?,
    );
    layers.set("comm.tcp.msgs_per_s_0b", tcp.msgs_per_s_0b);
    layers.set("comm.tcp.gb_per_s_64k", tcp.gb_per_s_64k);
    layers.set("comm.tcp.rtt_us_p50", tcp.rtt_us_p50);
    layers.set("comm.reliable_tcp.msgs_per_s_0b", reliable.msgs_per_s_0b);
    layers.set("comm.reliable_tcp.gb_per_s_64k", reliable.gb_per_s_64k);
    layers.set("comm.reliable_tcp.rtt_us_p50", reliable.rtt_us_p50);
    layers.set("comm.local.rtt_us_p50", local.rtt_us_p50);
    layers.set(
        "comm.reliable_tax_ratio",
        ratio(tcp.msgs_per_s_0b, reliable.msgs_per_s_0b),
    );
    let (encode, decode, payload) = adapter::codec_probes();
    layers.set(
        "comm.codec_encode_gb_s",
        ratio(payload as f64, ns_per_call(encode, budget)),
    );
    layers.set(
        "comm.codec_decode_gb_s",
        ratio(payload as f64, ns_per_call(decode, budget)),
    );
    let rounds = ((300.0 * ctx.scale) as usize).max(20);
    let (a2a_us, barrier_us) = adapter::collective_probe(ctx.stack, ctx.a2a_chunk_bytes, rounds)?;
    layers.set("comm.a2a_us", a2a_us);
    layers.set("comm.barrier_us", barrier_us);

    // janus-serve
    layers.set(
        "serve.batcher_admit_ns",
        ns_per_call(adapter::batcher_probe(ctx.serve), budget),
    );
    let (gate, reference) = adapter::serve_model_probes(ctx.serve);
    layers.set("serve.gate_route_us", ns_per_call(gate, budget) / 1e3);
    layers.set(
        "serve.reference_fwd_us",
        ns_per_call(reference, budget) / 1e3,
    );

    // janus-obs
    let (span_on, span_off) = adapter::recorder_probes();
    layers.set("obs.span_ns", ns_per_call(span_on, budget));
    layers.set("obs.disabled_span_ns", ns_per_call(span_off, budget));
    Ok(())
}

/// Record the staged wall times of simulated iterations: the sum over
/// `stages`, one entry per simulation.
pub fn record_sim_layers(layers: &mut Layers, stages: &[SimLayers]) {
    let sum = |pick: fn(&SimLayers) -> f64| stages.iter().map(pick).sum::<f64>();
    layers.set("topology.build_us", sum(|s| s.topology_ms) * 1e3);
    layers.set("coresim.setup_ms", sum(|s| s.setup_ms));
    layers.set("coresim.build_graph_ms", sum(|s| s.build_graph_ms));
    layers.set("netsim.simulate_ms", sum(|s| s.simulate_ms));
    layers.set("coresim.report_ms", sum(|s| s.report_ms));
    layers.set(
        "netsim.tasks",
        stages.iter().map(|s| s.tasks).sum::<usize>() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_harness_times_a_call_not_its_batch() {
        let spin = || {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(50) {
                std::hint::black_box(0u8);
            }
        };
        let ns = ns_per_call(spin, Duration::from_millis(20));
        assert!(
            (50_000.0..500_000.0).contains(&ns),
            "{ns} ns for a 50 µs call"
        );
    }
}
