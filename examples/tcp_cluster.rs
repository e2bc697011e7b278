//! Run real data-centric MoE training over TCP sockets on localhost —
//! the same protocol the in-process examples use, but with every pull
//! request, expert payload, and pre-reduced gradient crossing a real
//! length-prefixed socket stream.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use janus::comm::tcp::tcp_mesh_localhost;
use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::Trainer;
use janus::core::plan::PlanOpts;
use janus::core::ParadigmPolicy;

fn main() {
    let cfg = ExecConfig {
        machines: 2,
        gpus_per_machine: 2,
        hidden_dim: 8,
        blocks: 2,
        experts: 8,
        experts_per_block: vec![],
        top_k: 2,
        tokens: 16,
        seed: 11,
        lr: 0.05,
    };
    println!("bringing up a {}-rank TCP mesh on localhost…", cfg.world());
    let endpoints = tcp_mesh_localhost(cfg.world()).expect("mesh setup");
    let trainer = Trainer::new(
        &cfg,
        &PlanOpts {
            policy: ParadigmPolicy::DataCentric,
            ..PlanOpts::default()
        },
    );
    let run = trainer.run_on(endpoints, 5);

    for (rank, curve) in run.losses.iter().enumerate() {
        let first = curve.first().expect("at least one iteration");
        let last = curve.last().expect("at least one iteration");
        println!("rank {rank}: loss {first:.4} → {last:.4}");
        assert!(last < first, "training must make progress");
    }
    // Every worker reports its machine's cache totals.
    let (fetches, hits) = (run.comm[0].cache_fetches, run.comm[0].cache_hits);
    println!("\nmachine-0 cache: {fetches} cross-machine fetches, {hits} local hits");
    println!("every expert crossed the wire once per machine per block per iteration —");
    println!("the hierarchical fetch working over real sockets.");
}
