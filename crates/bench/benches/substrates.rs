//! Micro-benchmarks of the substrate crates: the fair allocator, the
//! simulator core, the gate/workload generators, tensor kernels, and the
//! wire codecs.

use criterion::{criterion_group, criterion_main, Criterion};
use janus_comm::collectives::all_to_all;
use janus_comm::runtime::run_workers;
use janus_comm::Message;
use janus_core::exec::model::ExecConfig;
use janus_core::exec::trainer::Trainer;
use janus_core::exec::weights::{expert_from_bytes, expert_to_bytes};
use janus_core::paradigm::ParadigmPolicy;
use janus_core::plan::{fetch_plan, PlanOpts};
use janus_moe::expert::ExpertFfn;
use janus_moe::gate::TopKGate;
use janus_moe::workload::{AssignmentMatrix, Imbalance};
use janus_netsim::fair::max_min_rates;
use janus_netsim::{simulate, GraphBuilder, Work};
use janus_tensor::Matrix;
use janus_topology::{ClusterSpec, LinkId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fair(c: &mut Criterion) {
    // 64 flows over 32 links, structured like a fetch burst.
    let flows: Vec<Vec<LinkId>> = (0..64)
        .map(|i| vec![LinkId(i % 32), LinkId((i * 7 + 3) % 32)])
        .collect();
    let caps = vec![25e9; 32];
    c.bench_function("fair_max_min_64_flows", |b| {
        b.iter(|| black_box(max_min_rates(black_box(&flows), black_box(&caps))))
    });
}

fn bench_simulate(c: &mut Criterion) {
    let build = || {
        let mut g = GraphBuilder::new(8, 0);
        let lanes: Vec<_> = (0..4).map(|_| g.lane()).collect();
        let pool = g.pool(2);
        for i in 0..200 {
            let a = g.task(Work::AcquireCredits { pool, amount: 1 }, &[]);
            let t = g.task(
                Work::Transfer {
                    route: vec![LinkId(i % 8)],
                    bytes: 1e6,
                    lane: Some(lanes[i % 4]),
                    latency: 1e-4,
                },
                &[a],
            );
            let comp = g.task(
                Work::Compute {
                    lane: lanes[i % 4],
                    duration: 1e-4,
                },
                &[t],
            );
            g.task(Work::ReleaseCredits { pool, amount: 1 }, &[comp]);
        }
        g.build()
    };
    let graph = build();
    let caps = vec![25e9; 8];
    c.bench_function("simulate_200_task_pipeline", |b| {
        b.iter(|| black_box(simulate(black_box(&graph), black_box(&caps)).unwrap()))
    });
}

fn bench_workload_and_gate(c: &mut Criterion) {
    c.bench_function("workload_zipf_assignment", |b| {
        b.iter(|| {
            black_box(AssignmentMatrix::generate(
                32,
                32,
                4096,
                Imbalance::Zipf(0.3),
                7,
            ))
        })
    });
    let mut rng = StdRng::seed_from_u64(1);
    let gate = TopKGate::new(64, 16, 2, &mut rng);
    let x = Matrix::uniform(256, 64, 1.0, &mut rng);
    c.bench_function("gate_route_256_tokens", |b| {
        b.iter(|| black_box(gate.route(black_box(&x))))
    });
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = Matrix::uniform(128, 128, 1.0, &mut rng);
    let bm = Matrix::uniform(128, 128, 1.0, &mut rng);
    c.bench_function("matmul_128", |b| {
        b.iter(|| black_box(a.matmul(black_box(&bm))))
    });
    let expert = ExpertFfn::new(64, &mut rng);
    let x = Matrix::uniform(128, 64, 1.0, &mut rng);
    c.bench_function("expert_forward_128x64", |b| {
        b.iter(|| black_box(expert.forward(black_box(&x))))
    });
}

fn bench_plan(c: &mut Criterion) {
    let cluster = ClusterSpec::a100(4, 8).build();
    c.bench_function("fetch_plan_32_workers", |b| {
        b.iter(|| black_box(fetch_plan(black_box(&cluster), 32, true)))
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let expert = ExpertFfn::new(64, &mut rng);
    c.bench_function("expert_serialize", |b| {
        b.iter(|| black_box(expert_to_bytes(black_box(&expert))))
    });
    let blob = expert_to_bytes(&expert);
    c.bench_function("expert_deserialize", |b| {
        b.iter(|| black_box(expert_from_bytes(black_box(blob.clone())).unwrap()))
    });
    let msg = Message::ExpertPayload {
        block: 1,
        expert: 2,
        nonce: 0,
        data: blob,
    };
    c.bench_function("message_encode_decode", |b| {
        b.iter(|| black_box(Message::decode(black_box(msg.encode())).unwrap()))
    });
}

fn bench_collectives(c: &mut Criterion) {
    c.bench_function("local_all_to_all_4_workers", |b| {
        b.iter(|| {
            run_workers(4, |comm| {
                all_to_all(&comm, 0, vec![vec![0u8; 1024]; 4])
                    .unwrap()
                    .len()
            })
        })
    });
}

fn bench_numerical_iteration(c: &mut Criterion) {
    // A forced expert-centric plan through the unified loop: mesh
    // bring-up, weight init, and one iteration per sample.
    let trainer = Trainer::new(
        &ExecConfig::small(),
        &PlanOpts {
            policy: ParadigmPolicy::ExpertCentric,
            ..PlanOpts::default()
        },
    );
    c.bench_function("exec_expert_centric_iteration", |b| {
        b.iter(|| black_box(trainer.run(1).losses))
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(10);
    targets = bench_fair, bench_simulate, bench_workload_and_gate, bench_tensor,
        bench_plan, bench_codec, bench_collectives, bench_numerical_iteration
}
criterion_main!(substrates);
