//! The names, units and bounds of everything the ledger reports.
//!
//! `BENCHMARK.json` at the repository root repeats these tables; a test
//! keeps the two in step.

use crate::adapter::blame_categories;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; what one operation and one unit of work are
/// is the workload's to say (README.md, "Workloads").
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        e2e("setup_s", "s", Lower, 0.25),
        e2e("op_ms_p50", "ms", Lower, 0.10),
        e2e("op_ms_tail", "ms", Lower, 0.25),
        e2e("work_per_s", "1/s", Higher, 0.15),
        e2e("cpu_ms_per_op", "ms", Lower, 0.10),
        e2e("peak_rss_mb", "MiB", Lower, 0.25),
    ]
}

/// The per-layer metrics, grouped by the module they measure. Every
/// workload reports every one; a layer a workload does not exercise reads 0
/// in its counts, while the probe timings are taken everywhere. "Per op"
/// is per training iteration, per served request or per sweep step.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut v = vec![
        // janus-tensor (probes)
        layer("tensor.matmul_fwd_us", "us", Lower),
        layer("tensor.matmul_gflops", "gflop/s", Higher),
        layer("tensor.pool_region_us", "us", Lower),
        // janus-moe (probes)
        layer("moe.expert_fwd_us", "us", Lower),
        layer("moe.expert_bwd_us", "us", Lower),
        layer("moe.expert_apply_us", "us", Lower),
        layer("moe.gate_route_us", "us", Lower),
        layer("moe.compute_floor_ms", "ms", Lower),
        // janus-core::queue (counter deltas, then probes)
        layer("queue.cache_hit_share", "ratio", Higher),
        layer("queue.cache_fetches_per_op", "count", Lower),
        layer("queue.grad_prefolds_per_op", "count", Higher),
        layer("queue.cache_hit_ns", "ns", Lower),
        layer("queue.cache_fill_wake_us", "us", Lower),
        layer("queue.credit_acquire_ns", "ns", Lower),
        // janus-core::plan (probe)
        layer("plan.compile_us", "us", Lower),
    ];
    // janus-core::exec (the janus-obs recorder, reduced by critical_path)
    for c in blame_categories() {
        v.push(layer(&format!("exec.blame_{c}_ms"), "ms", Lower));
    }
    v.extend([
        layer("exec.blame_coverage", "ratio", Higher),
        layer("exec.rank_skew_ms", "ms", Lower),
        layer("exec.self_ms", "ms", Lower),
        // janus-comm (spies)
        layer("comm.app_msgs_per_op", "count", Lower),
        layer("comm.app_bytes_per_op", "bytes", Lower),
        layer("comm.pull_requests_per_op", "count", Lower),
        layer("comm.expert_payload_bytes_per_op", "bytes", Lower),
        layer("comm.grad_push_bytes_per_op", "bytes", Lower),
        layer("comm.collective_bytes_per_op", "bytes", Lower),
        layer("comm.barrier_msgs_per_op", "count", Lower),
        layer("comm.token_msgs_per_op", "count", Lower),
        layer("comm.wire_frames_per_app_msg", "ratio", Lower),
        layer("comm.send_busy_ms_per_op", "ms", Lower),
        layer("comm.recv_blocked_ms_per_op", "ms", Lower),
        layer("comm.stack_self_ms_per_op", "ms", Lower),
        layer("comm.stack_send_tax_us", "us", Lower),
        layer("comm.retransmits", "count", Lower),
        layer("comm.duplicates_dropped", "count", Lower),
        layer("comm.pull_retries", "count", Lower),
        layer("comm.remote_bytes_per_op", "bytes", Lower),
        // janus-comm (probes)
        layer("comm.tcp.msgs_per_s_0b", "1/s", Higher),
        layer("comm.tcp.gb_per_s_64k", "GB/s", Higher),
        layer("comm.tcp.rtt_us_p50", "us", Lower),
        layer("comm.reliable_tcp.msgs_per_s_0b", "1/s", Higher),
        layer("comm.reliable_tcp.gb_per_s_64k", "GB/s", Higher),
        layer("comm.reliable_tcp.rtt_us_p50", "us", Lower),
        layer("comm.local.rtt_us_p50", "us", Lower),
        layer("comm.reliable_tax_ratio", "ratio", Lower),
        layer("comm.codec_encode_gb_s", "GB/s", Higher),
        layer("comm.codec_decode_gb_s", "GB/s", Higher),
        layer("comm.a2a_us", "us", Lower),
        layer("comm.barrier_us", "us", Lower),
        // janus-serve (outcome structs, then probes)
        layer("serve.batches", "count", Lower),
        layer("serve.tokens_per_batch", "count", Higher),
        layer("serve.dispatches_per_batch", "count", Lower),
        layer("serve.worker_cache_hit_share", "ratio", Higher),
        layer("serve.pulls_served", "count", Lower),
        layer("serve.redispatches", "count", Lower),
        layer("serve.pace_lag_ms", "ms", Lower),
        layer("serve.batcher_admit_ns", "ns", Lower),
        layer("serve.gate_route_us", "us", Lower),
        layer("serve.reference_fwd_us", "us", Lower),
        // janus-topology, janus-core::sim, janus-netsim (staged calls)
        layer("topology.build_us", "us", Lower),
        layer("coresim.setup_ms", "ms", Lower),
        layer("coresim.build_graph_ms", "ms", Lower),
        layer("netsim.simulate_ms", "ms", Lower),
        layer("coresim.report_ms", "ms", Lower),
        layer("netsim.tasks", "count", Lower),
        // janus-obs
        layer("obs.trace_overhead_pct", "%", Lower),
        layer("obs.events_per_op", "count", Lower),
        layer("obs.span_ns", "ns", Lower),
        layer("obs.disabled_span_ns", "ns", Lower),
        // the traced pass itself
        layer("trace.op_ms_p50", "ms", Lower),
        layer("trace.ops", "count", Higher),
        layer("trace.spans_dropped", "count", Lower),
    ]);
    v
}

/// The per-layer numbers of one run: every name of [`per_layer`], 0 until
/// a pass or a probe sets it.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Every per-layer metric at 0.
    pub fn zeroed() -> Layers {
        Layers(per_layer().into_iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Set `name`, which [`per_layer`] must list: a number nobody declared
    /// would be missing from `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }

    /// Name and value of every metric.
    pub fn into_map(self) -> BTreeMap<String, f64> {
        self.0
    }
}

#[cfg(test)]
/// Whether `name` is spelled as the benchmark contract asks: it starts
/// with a letter or digit and continues with letters, digits, `_`, `.`
/// and `-`, 64 characters at most.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is spelled as the contract asks.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_units_meet_the_contract() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = HashSet::new();
        for m in &all {
            assert!(valid_name(&m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().len() <= 16);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_set_up_the_widest() {
        let e = end_to_end();
        let setup = e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &e {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25);
            assert!(b <= setup.bound.unwrap());
        }
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn name_check_rejects_what_the_contract_rejects() {
        assert!(valid_name("comm.tcp.rtt_us_p50"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("gflop/s") && valid_unit("%") && !valid_unit("a b"));
    }
}
