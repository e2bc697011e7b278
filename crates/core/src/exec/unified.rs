//! The unified numerical engine: one iteration, per-block paradigms.
//!
//! Janus's core claim (§4) is that the paradigm is a *per-block* choice:
//! a PR-MoE-style model whose blocks differ in expert count can run some
//! blocks expert-centric and others data-centric in the same iteration.
//! This engine — the only iteration loop — executes a compiled
//! [`IterationPlan`], the single source of truth for that choice, by
//! dispatching each block to its paradigm's block bodies and threading
//! the residual stream across paradigm boundaries. A plan compiled with
//! a forced policy runs every block under one paradigm.
//!
//! Liveness across paradigms: a worker inside an expert-centric block's
//! All-to-All keeps serving data-centric pull requests and gradient
//! pushes through the collective's service callback, and every
//! data-centric wait (cache, inbox, barrier) already services the
//! protocol — so a fast worker can never deafen a slow one, whichever
//! paradigm either is currently executing.
//!
//! Numerics: both sets of block bodies produce bitwise identical outputs
//! and fold gradients in bitwise identical order, so a mixed plan equals
//! both forced plans bit for bit (asserted in `trainer` and the
//! proptests).

use crate::exec::data_centric::{self, BlockTapeDc, DcRuntime, MachineShared};
use crate::exec::expert_centric::{self, BlockTapeEc, IterOutput};
use crate::exec::model::{loss_and_grad, WorkerState};
use crate::exec::obs;
use crate::paradigm::Paradigm;
use crate::plan::IterationPlan;
use janus_comm::{Comm, CommError, Transport};
use janus_moe::expert::ExpertGrads;

/// Forward bookkeeping of one block, tagged by the paradigm that ran it.
enum BlockTape {
    Ec(BlockTapeEc),
    Dc(BlockTapeDc),
}

/// Run one unified training iteration following `plan`.
///
/// The plan must be compiled (once, by [`IterationPlan::compile`]) for
/// the same model and cluster shape as `state.cfg` — the engine never
/// recomputes paradigms or pull orders itself.
pub fn run_iteration<T: Transport>(
    comm: &Comm<T>,
    state: &mut WorkerState,
    shared: &MachineShared,
    plan: &IterationPlan,
    iter: u64,
) -> Result<IterOutput, CommError> {
    let cfg = state.cfg.clone();
    assert_eq!(
        plan.blocks.len(),
        cfg.blocks,
        "plan compiled for a different model"
    );
    assert_eq!(
        (plan.machines, plan.gpus_per_machine),
        (cfg.machines, cfg.gpus_per_machine),
        "plan compiled for a different cluster shape"
    );
    let rt = DcRuntime::new(comm, state, shared);
    let iter_span = obs::span(state.rank, "iter", || {
        (format!("iter/{iter}"), "iter".to_string())
    });

    let mut x = state.inputs.clone();
    let mut tapes: Vec<BlockTape> = Vec::with_capacity(cfg.blocks);

    // ---- Forward ----
    for b in 0..cfg.blocks {
        let (y, tape) = match plan.blocks[b].paradigm {
            Paradigm::ExpertCentric => {
                let (y, tape) =
                    expert_centric::forward_block(comm, state, b, iter, &x, &mut |from, m| {
                        rt.service(from, m)
                    })?;
                (y, BlockTape::Ec(tape))
            }
            Paradigm::DataCentric => {
                let (y, tape) = data_centric::forward_block(&rt, state, b, &x, plan.credits)?;
                (y, BlockTape::Dc(tape))
            }
        };
        tapes.push(tape);
        x = y;
    }

    let (loss, mut dy) = loss_and_grad(&x);
    let output = x;

    // ---- Backward ----
    // Expert-centric blocks fold their owners' gradients locally (bitwise
    // the data-centric fold); data-centric blocks route theirs through
    // the gradient protocol into the owner's inbox.
    let mut ec_grads: Vec<Option<Vec<ExpertGrads>>> = (0..cfg.blocks).map(|_| None).collect();
    for b in (0..cfg.blocks).rev() {
        dy = match &tapes[b] {
            BlockTape::Ec(tape) => {
                let (dx, grads) = expert_centric::backward_block(
                    comm,
                    state,
                    b,
                    iter,
                    tape,
                    &dy,
                    &mut |from, m| rt.service(from, m),
                )?;
                ec_grads[b] = Some(grads);
                dx
            }
            BlockTape::Dc(tape) => data_centric::backward_block(&rt, state, b, tape, &dy)?,
        };
    }

    // ---- Update ----
    let dc_blocks: Vec<usize> = plan
        .blocks
        .iter()
        .filter(|bp| bp.paradigm == Paradigm::DataCentric)
        .map(|bp| bp.block)
        .collect();
    data_centric::wait_and_apply_updates(&rt, state, &dc_blocks)?;
    for (b, grads) in ec_grads.into_iter().enumerate() {
        if let Some(grads) = grads {
            for (local, g) in grads.iter().enumerate() {
                state.experts[b][local].apply(g, cfg.lr);
            }
        }
    }
    rt.refresh_serving(state);
    data_centric::finish_iteration(&rt, state, iter)?;
    state.comm.record_transport(comm.transport().stats());
    state
        .comm
        .record_cache(shared.cache.stats(), shared.grads.prefolds());
    drop(iter_span);
    Ok(IterOutput { output, loss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::model::ExecConfig;
    use crate::plan::PlanOpts;
    use janus_comm::runtime::run_workers;

    #[test]
    fn mixed_plan_iteration_runs_and_loss_decreases() {
        let cfg = ExecConfig::mixed_paradigms();
        let plan = cfg.compile_plan(&PlanOpts::default());
        let paradigms = plan.paradigms();
        assert!(
            paradigms.contains(&Paradigm::ExpertCentric)
                && paradigms.contains(&Paradigm::DataCentric),
            "config must exercise both paradigms, got {paradigms:?}"
        );
        let shared = MachineShared::for_cluster(&cfg);
        let losses = run_workers(cfg.world(), |comm| {
            let mut state = WorkerState::init(&cfg, comm.rank());
            let sh = &shared[cfg.machine_of(comm.rank())];
            (0..3)
                .map(|i| run_iteration(&comm, &mut state, sh, &plan, i).unwrap().loss)
                .collect::<Vec<_>>()
        });
        for per_worker in losses {
            assert!(per_worker.iter().all(|l| l.is_finite()));
            assert!(
                per_worker.last().unwrap() < per_worker.first().unwrap(),
                "loss did not decrease: {per_worker:?}"
            );
        }
    }
}
