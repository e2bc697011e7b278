//! Training-level determinism: run-to-run and across thread counts.

use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::{TrainRun, Trainer};
use janus::core::plan::PlanOpts;
use janus::core::ParadigmPolicy;
use janus::tensor::{pool, simd};

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

fn train(cfg: &ExecConfig, policy: ParadigmPolicy, iters: u64) -> TrainRun {
    let opts = PlanOpts {
        policy,
        ..PlanOpts::default()
    };
    Trainer::new(cfg, &opts).run(iters)
}

fn train_data_centric(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train(cfg, ParadigmPolicy::DataCentric, iters)
}

fn train_expert_centric(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train(cfg, ParadigmPolicy::ExpertCentric, iters)
}

fn train_unified(cfg: &ExecConfig, iters: u64) -> TrainRun {
    train(cfg, ParadigmPolicy::Unified, iters)
}

fn assert_runs_identical(a: &TrainRun, b: &TrainRun, what: &str) {
    assert_eq!(
        a.losses, b.losses,
        "{what}: losses differ:\n{:?}\n{:?}",
        a.losses, b.losses
    );
    for (ra, rb) in a.experts.iter().zip(&b.experts) {
        for (ba, bb) in ra.iter().zip(rb) {
            for (ea, eb) in ba.iter().zip(bb) {
                assert_eq!(ea.w1.max_abs_diff(&eb.w1), 0.0, "{what}: w1 differs");
                assert_eq!(ea.w2.max_abs_diff(&eb.w2), 0.0, "{what}: w2 differs");
            }
        }
    }
}

/// The acceptance criterion of the parallel substrate: training under
/// both paradigms is bitwise identical whether the pool runs one thread
/// or many. Expert compute parallelises across tasks, but every combine
/// happens in expert-ascending order on the worker thread, so thread
/// count can never reorder a float reduction.
#[test]
fn training_is_bitwise_identical_across_thread_counts() {
    let cfg = cfg();
    let mixed = ExecConfig::mixed_paradigms();
    pool::set_threads(1);
    let dc_1 = train_data_centric(&cfg, 3);
    let ec_1 = train_expert_centric(&cfg, 3);
    let un_1 = train_unified(&mixed, 3);
    for threads in [2usize, 8] {
        pool::set_threads(threads);
        let dc_n = train_data_centric(&cfg, 3);
        let ec_n = train_expert_centric(&cfg, 3);
        let un_n = train_unified(&mixed, 3);
        assert_runs_identical(&dc_1, &dc_n, &format!("data-centric @ {threads} threads"));
        assert_runs_identical(&ec_1, &ec_n, &format!("expert-centric @ {threads} threads"));
        assert_runs_identical(&un_1, &un_n, &format!("unified @ {threads} threads"));
    }
    pool::set_threads(0);
}

/// The AVX2 kernels keep the scalar kernels' reduction order, so forcing
/// dispatch scalar or SIMD (the in-process `JANUS_SIMD`) must not move a
/// single bit of any paradigm's training run — at any thread count.
#[test]
fn training_is_bitwise_identical_with_simd_on_and_off() {
    let cfg = cfg();
    let mixed = ExecConfig::mixed_paradigms();
    simd::set_forced(Some(false));
    let dc_scalar = train_data_centric(&cfg, 3);
    let ec_scalar = train_expert_centric(&cfg, 3);
    let un_scalar = train_unified(&mixed, 3);
    simd::set_forced(Some(true));
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        let dc_simd = train_data_centric(&cfg, 3);
        let ec_simd = train_expert_centric(&cfg, 3);
        let un_simd = train_unified(&mixed, 3);
        let tag = format!("simd on vs off @ {threads} threads");
        assert_runs_identical(&dc_scalar, &dc_simd, &format!("data-centric, {tag}"));
        assert_runs_identical(&ec_scalar, &ec_simd, &format!("expert-centric, {tag}"));
        assert_runs_identical(&un_scalar, &un_simd, &format!("unified, {tag}"));
    }
    simd::set_forced(None);
    pool::set_threads(0);
}

#[test]
fn dc_is_bitwise_deterministic_run_to_run() {
    let cfg = cfg();
    let a = train_data_centric(&cfg, 3);
    let b = train_data_centric(&cfg, 3);
    assert_runs_identical(&a, &b, "run-to-run");
}
