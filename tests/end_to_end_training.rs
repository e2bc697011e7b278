//! Cross-crate integration tests for the numerical engine: real MoE
//! training over real transports under every paradigm policy.

use janus::comm::tcp::tcp_mesh_localhost;
use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::{diff_runs, Trainer};
use janus::core::plan::PlanOpts;
use janus::core::ParadigmPolicy;

fn cfg() -> ExecConfig {
    ExecConfig {
        machines: 2,
        gpus_per_machine: 2,
        hidden_dim: 8,
        blocks: 2,
        experts: 8,
        experts_per_block: vec![],
        top_k: 2,
        tokens: 12,
        seed: 99,
        lr: 0.03,
    }
}

/// A trainer whose plan runs every block under `policy`.
fn forced(cfg: &ExecConfig, policy: ParadigmPolicy) -> Trainer {
    Trainer::new(
        cfg,
        &PlanOpts {
            policy,
            ..PlanOpts::default()
        },
    )
}

/// The §3.2 equivalence claim end to end: identical forward results and
/// identical weight trajectories — bitwise, since both paradigms fold
/// per-source gradients in the same pre-reduction order — at every
/// cluster shape.
#[test]
fn paradigms_match_across_transports_and_scales() {
    for machines in [1usize, 2] {
        for gpus in [1usize, 2] {
            if machines * gpus < 2 {
                continue;
            }
            let cfg = ExecConfig {
                machines,
                gpus_per_machine: gpus,
                ..cfg()
            };
            let diff = diff_runs(
                &forced(&cfg, ParadigmPolicy::ExpertCentric).run(2),
                &forced(&cfg, ParadigmPolicy::DataCentric).run(2),
            );
            assert_eq!(diff.max_output_diff, 0.0, "{machines}x{gpus}: {diff:?}");
            assert_eq!(diff.max_weight_diff, 0.0, "{machines}x{gpus}: {diff:?}");
        }
    }
}

/// The R-rule plan over a real TCP transport: a mixed-paradigm plan
/// converges, and its losses match the in-process mesh bitwise.
#[test]
fn unified_training_runs_over_tcp() {
    let cfg = ExecConfig::mixed_paradigms();
    let trainer = Trainer::new(&cfg, &PlanOpts::default());
    let endpoints = tcp_mesh_localhost(cfg.world()).expect("tcp mesh");
    let tcp = trainer.run_on(endpoints, 3);
    let local = trainer.run(3);
    for (curve, local_curve) in tcp.losses.iter().zip(&local.losses) {
        assert!(curve.last().unwrap() < curve.first().unwrap(), "{curve:?}");
        assert_eq!(curve, local_curve, "transport must not change numerics");
    }
}

/// The data-centric protocol converges over real sockets.
#[test]
fn training_converges_over_tcp() {
    let cfg = cfg();
    let endpoints = tcp_mesh_localhost(cfg.world()).expect("tcp mesh");
    let run = forced(&cfg, ParadigmPolicy::DataCentric).run_on(endpoints, 4);
    for curve in run.losses {
        assert!(curve.last().unwrap() < curve.first().unwrap(), "{curve:?}");
    }
}

/// The expert-centric collectives also run over TCP; the two transports
/// give identical results (the protocol is transport-agnostic).
#[test]
fn transports_are_interchangeable() {
    let cfg = cfg();
    let trainer = forced(&cfg, ParadigmPolicy::ExpertCentric);
    let local = trainer.run(1);
    let endpoints = tcp_mesh_localhost(cfg.world()).expect("tcp mesh");
    let tcp = trainer.run_on(endpoints, 1);
    assert_eq!(
        local.losses, tcp.losses,
        "same inputs and weights ⇒ bitwise-equal losses"
    );
}

/// The hierarchical cache works as specified: per machine, every external
/// expert is fetched exactly once per block per iteration and shared by
/// siblings.
#[test]
fn cache_fetch_counts_match_the_hierarchical_design() {
    let cfg = cfg();
    let iters = 3u64;
    let run = forced(&cfg, ParadigmPolicy::DataCentric).run(iters);
    // 4 external experts per machine × 2 blocks × 3 iterations; every
    // worker reports its machine's cache totals. A cache that survived
    // an iteration boundary would fetch less.
    for c in &run.comm {
        assert_eq!(
            c.cache_fetches,
            4 * 2 * iters,
            "exactly one wire crossing per expert"
        );
        assert!(
            c.cache_hits >= c.cache_fetches,
            "siblings must share the cached copies"
        );
    }
}

/// The full data-centric protocol survives adversarial cross-peer
/// reordering and duplicated barriers, producing the same losses as the
/// clean run (per-pair FIFO is its only ordering assumption).
#[test]
fn data_centric_training_survives_chaos_transport() {
    use janus::comm::faulty::{FaultPlan, FaultyTransport};
    use janus::comm::local::local_mesh;

    let cfg = cfg();
    let trainer = forced(&cfg, ParadigmPolicy::DataCentric);
    let clean = trainer.run(3);
    let endpoints: Vec<_> = local_mesh(cfg.world())
        .into_iter()
        .map(|t| FaultyTransport::new(t, FaultPlan::reorder_only(1234, 0.5, 0.3)))
        .collect();
    let chaotic = trainer.run_on(endpoints, 3);
    // First-iteration losses are bitwise identical (no updates yet);
    // later iterations may differ by f32 summation-order noise because
    // gradient contributions arrive — and are summed — in a different
    // order at owners and aggregators.
    for (c, h) in clean.losses.iter().zip(&chaotic.losses) {
        assert_eq!(c[0], h[0], "pre-update loss must be bitwise identical");
        for (a, b) in c.iter().zip(h) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                "losses diverged beyond fp noise: {a} vs {b}"
            );
        }
    }
}

/// A failing plain run names the rank and the iteration it failed at:
/// rank 1 dies on a send, and its peers' `PeerDead` surfaces through the
/// one iteration loop's panic message.
#[test]
fn failing_plain_run_names_rank_and_iteration() {
    use janus::comm::faulty::{CrashAt, CrashPoint, FaultPlan, FaultyTransport};
    use janus::comm::liveness::{monitored_mesh, LivenessConfig};

    let cfg = cfg();
    let faults = FaultPlan {
        crashes: vec![CrashPoint {
            rank: 1,
            at: CrashAt::SendOp(7),
        }],
        ..FaultPlan::default()
    };
    let mesh: Vec<_> = monitored_mesh(cfg.world(), LivenessConfig::default())
        .into_iter()
        .map(|t| FaultyTransport::new(t, faults.clone()))
        .collect();
    let trainer = Trainer::new(&cfg, &PlanOpts::default());
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trainer.run_on(mesh, 2)))
        .err()
        .expect("a dead rank must fail the run");
    let msg = panic
        .downcast_ref::<String>()
        .expect("the panic carries a message");
    assert!(msg.contains("rank 0 at iteration 0: "), "{msg}");
}
