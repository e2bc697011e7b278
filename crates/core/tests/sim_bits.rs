//! Bitwise pins of whole simulated iterations.
//!
//! Each case runs `simulate_iteration` and compares the exact bits of
//! the iteration time, the number of simulated tasks, and an FNV-1a
//! digest over every per-link byte count, per-link busy time, and
//! per-domain memory peak. Any change to the sampler, the graph
//! builders, the fair-share solver, or the event loop that alters a
//! single floating-point operation's order fails here.
//!
//! The first six cases are the paper sweep (MoE-BERT and MoE-GPT with
//! 16 experts on two 8-GPU A100 machines, under Janus, Tutel, and the
//! data-centric engine); the last three run a heavier Zipf(1.0) skew on
//! four machines with 32 experts.

use janus_core::sim::engine::{simulate_iteration, EngineOpts};
use janus_core::Fnv64;
use janus_moe::config::ModelPreset;
use janus_moe::workload::Imbalance;
use janus_topology::ClusterSpec;

/// One pinned case: its inputs and the values recorded for them.
struct Case {
    machines: usize,
    experts: usize,
    model: ModelPreset,
    engine: &'static str,
    imbalance: Option<Imbalance>,
    iter_time_bits: u64,
    tasks: usize,
    digest: u64,
}

fn opts(engine: &str) -> EngineOpts {
    match engine {
        "janus" => EngineOpts::default(),
        "tutel" => EngineOpts::tutel(),
        "data-centric" => EngineOpts::data_centric(false, false),
        other => panic!("unknown engine {other}"),
    }
}

fn result_digest(sim: &janus_netsim::SimResult) -> u64 {
    let mut h = Fnv64::new();
    for v in [&sim.link_bytes, &sim.link_busy, &sim.mem_peak] {
        h.word(v.len() as u64);
        for x in v {
            h.word(x.to_bits());
        }
    }
    h.finish()
}

const CASES: &[Case] = &[
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeBert,
        engine: "janus",
        imbalance: None,
        iter_time_bits: 0x3feabb022edcaa20,
        tasks: 9859,
        digest: 0x9111323063961905,
    },
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeBert,
        engine: "tutel",
        imbalance: None,
        iter_time_bits: 0x3ff37e6e2d41827e,
        tasks: 4563,
        digest: 0xafdc82d3d991a803,
    },
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeBert,
        engine: "data-centric",
        imbalance: None,
        iter_time_bits: 0x3feabb022edcaa20,
        tasks: 9867,
        digest: 0xb2b8489affa96a3a,
    },
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeGpt,
        engine: "janus",
        imbalance: None,
        iter_time_bits: 0x3fd93ca471f59769,
        tasks: 2755,
        digest: 0x8f0600a3a1a38803,
    },
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeGpt,
        engine: "tutel",
        imbalance: None,
        iter_time_bits: 0x3fdf75d14aa7f102,
        tasks: 1431,
        digest: 0xc98a08787db137d0,
    },
    Case {
        machines: 2,
        experts: 16,
        model: ModelPreset::MoeGpt,
        engine: "data-centric",
        imbalance: None,
        iter_time_bits: 0x3fd93ca471f59769,
        tasks: 2757,
        digest: 0x805a1a652ff56c91,
    },
    Case {
        machines: 4,
        experts: 32,
        model: ModelPreset::MoeGpt,
        engine: "janus",
        imbalance: Some(Imbalance::Zipf(1.0)),
        iter_time_bits: 0x3fd9423b7f3eea6c,
        tasks: 10243,
        digest: 0xd6a485e7e5253afe,
    },
    Case {
        machines: 4,
        experts: 32,
        model: ModelPreset::MoeGpt,
        engine: "tutel",
        imbalance: Some(Imbalance::Zipf(1.0)),
        iter_time_bits: 0x3ff0cc498d9804e7,
        tasks: 4903,
        digest: 0xbb0ba7df8807c82b,
    },
    Case {
        machines: 4,
        experts: 32,
        model: ModelPreset::MoeGpt,
        engine: "data-centric",
        imbalance: Some(Imbalance::Zipf(1.0)),
        iter_time_bits: 0x3fd9c483b9de42d9,
        tasks: 10247,
        digest: 0x93ac5ab975aa9a64,
    },
];

#[test]
fn simulated_iterations_are_bitwise_pinned() {
    let mut failures = Vec::new();
    for c in CASES {
        let base = opts(c.engine);
        let opts = EngineOpts {
            seed: 1,
            imbalance: c.imbalance.unwrap_or(base.imbalance),
            ..base
        };
        let report = simulate_iteration(
            ClusterSpec::a100(c.machines, 8).build(),
            c.model.config(c.experts),
            &opts,
        )
        .unwrap_or_else(|e| panic!("{:?}/{} {}: {e}", c.model, c.experts, c.engine));
        let got = (
            report.iter_time.to_bits(),
            report.sim.records.len(),
            result_digest(&report.sim),
        );
        if got != (c.iter_time_bits, c.tasks, c.digest) {
            failures.push(format!(
                "{:?}/{} {} on {} machines: got iter_time {:#018x}, tasks {}, digest {:#018x}; \
                 pinned {:#018x}, {}, {:#018x}",
                c.model,
                c.experts,
                c.engine,
                c.machines,
                got.0,
                got.1,
                got.2,
                c.iter_time_bits,
                c.tasks,
                c.digest
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
