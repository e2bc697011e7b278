//! Numerical expert-centric training iteration (the All-to-All baseline).
//!
//! Forward, per block: route tokens, All-to-All the routed slots to the
//! expert owners, compute, All-to-All the results back, combine with the
//! gate weights on a residual stream. Backward mirrors the two
//! collectives; expert owners compute weight gradients per source rank
//! and fold them in exactly the order the data-centric engine does, so
//! the two paradigms (and the unified engine mixing them) apply bitwise
//! identical updates.
//!
//! The per-block bodies ([`forward_block`], [`backward_block`]) are what
//! [`unified::run_iteration`](crate::exec::unified::run_iteration)
//! dispatches an expert-centric block to; an all-expert-centric run is a
//! plan compiled with `ParadigmPolicy::ExpertCentric`. Both take a
//! `service` callback that is offered every unrelated message arriving
//! inside a collective — the data-centric protocol handler, so a worker
//! inside an All-to-All never goes deaf to pulls and gradient pushes.

use crate::exec::model::{ExecConfig, WorkerState};
use crate::exec::obs;
use crate::exec::weights::{tokens_from_bytes, tokens_to_bytes, Slot};
use crate::placement::Placement;
use janus_comm::collectives::all_to_all_among;
use janus_comm::{Comm, CommError, Message, Transport};
use janus_moe::expert::{ExpertGrads, ExpertScratch};
use janus_tensor::{pool, Matrix};

/// Output of one training iteration.
#[derive(Debug, Clone)]
pub struct IterOutput {
    /// Final block output for this worker's tokens.
    pub output: Matrix,
    /// `½‖y‖²` loss over this worker's output.
    pub loss: f32,
}

/// What each owned expert remembers between forward and backward. The
/// activation tape itself lives in the expert's [`WorkerState::scratch`]
/// slot.
pub(crate) struct ExpertTape {
    /// Global expert id.
    pub expert: usize,
    /// Origin of every row of the expert batch: `(src_rank, pos, slot)`
    /// where `pos` indexes the source's dispatch chunk, sources
    /// ascending, slot order within a source. Backward addresses the
    /// grad chunks by `pos` — the sender serializes backward chunks in
    /// dispatch order, so no value lookup (which `NaN` weights would
    /// defeat) is needed.
    pub origins: Vec<(usize, usize, Slot)>,
}

/// Per-block forward bookkeeping.
pub(crate) struct BlockTapeEc {
    /// Slots this worker dispatched, grouped per destination rank.
    pub sent: Vec<Vec<Slot>>,
    /// Tapes of the experts this worker owns.
    pub experts: Vec<ExpertTape>,
}

pub(crate) fn a2a_seq(iter: u64, block: usize, phase: u64) -> u64 {
    (iter << 16) | ((block as u64) << 4) | phase
}

/// Group this worker's routed slots for block `b` by destination rank
/// (the placement's owner), in (expert ascending, token ascending) order
/// — the deterministic order both paradigms share.
fn group_slots(
    cfg: &ExecConfig,
    placement: &Placement,
    b: usize,
    routing: &janus_moe::gate::Routing,
) -> Vec<Vec<Slot>> {
    let mut per_dst: Vec<Vec<Slot>> = vec![Vec::new(); cfg.world()];
    for e in 0..cfg.experts_in(b) {
        let dst = placement.owner_of(b, e);
        for (tok, w) in routing.tokens_for(e) {
            per_dst[dst].push((tok as u32, e as u32, w));
        }
    }
    per_dst
}

/// Count the payload bytes of `chunks` addressed to live ranks on other
/// machines — the deterministic cross-machine traffic metric the
/// migration experiments compare before/after a swap.
fn count_remote_bytes(state: &WorkerState, chunks: &[Vec<u8>]) {
    let my_machine = state.cfg.machine_of(state.rank);
    let total: u64 = chunks
        .iter()
        .enumerate()
        .filter(|&(dst, _)| {
            dst != state.rank
                && state.placement.is_live(dst)
                && state.cfg.machine_of(dst) != my_machine
        })
        .map(|(_, c)| c.len() as u64)
        .sum();
    state.comm.add_remote_bytes(total);
}

/// Decode received All-to-All chunks; a dead rank's slot comes back as an
/// empty chunk and decodes to an empty batch.
fn decode_chunks(
    received: Vec<Vec<u8>>,
    hidden_dim: usize,
) -> Result<Vec<(Vec<Slot>, Matrix)>, CommError> {
    received
        .into_iter()
        .map(|c| {
            if c.is_empty() {
                Ok((Vec::new(), Matrix::zeros(0, hidden_dim)))
            } else {
                tokens_from_bytes(c.into())
            }
        })
        .collect()
}

/// Combine returned rows onto `y` in canonical (expert ascending, token
/// ascending) order with the given weights. The canonical sort makes the
/// accumulation order *placement-invariant*: with the static contiguous
/// layout it reproduces the historical source-rank iteration bit for
/// bit, and after a migration the same tokens still fold in the same
/// order even though they now arrive from different ranks.
fn combine_canonical(
    y: &mut Matrix,
    received: Vec<Vec<u8>>,
    hidden_dim: usize,
    unit_weight: bool,
) -> Result<(), CommError> {
    let mut combined: Vec<(Slot, Vec<f32>)> = Vec::new();
    for chunk in received {
        if chunk.is_empty() {
            continue;
        }
        let (slots, rows) = tokens_from_bytes(chunk.into())?;
        debug_assert_eq!(rows.cols(), hidden_dim);
        for (i, slot) in slots.iter().enumerate() {
            combined.push((*slot, rows.row(i).to_vec()));
        }
    }
    combined.sort_by_key(|((tok, e, _), _)| (*e, *tok));
    for ((tok, _e, w), row) in &combined {
        let w = if unit_weight { 1.0 } else { *w };
        y.scatter_add_rows(&[*tok as usize], &[w], &rows_to_matrix_one(row));
    }
    Ok(())
}

/// Expert-centric forward for one block: dispatch All-to-All, owned-expert
/// compute, combine All-to-All, residual add. Returns the block output and
/// the tape backward needs. `service` is offered every unrelated message
/// that arrives while a collective waits.
pub(crate) fn forward_block<T: Transport>(
    comm: &Comm<T>,
    state: &WorkerState,
    b: usize,
    iter: u64,
    x: &Matrix,
    service: &mut dyn FnMut(usize, &Message) -> bool,
) -> Result<(Matrix, BlockTapeEc), CommError> {
    let cfg = &state.cfg;
    let world = cfg.world();
    let placement = &state.placement;
    let routing = state.gates[b].route(x);
    let sent = group_slots(cfg, placement, b, &routing);

    // Dispatch A2A.
    let chunks: Vec<Vec<u8>> = sent
        .iter()
        .map(|slots| {
            let idx: Vec<usize> = slots.iter().map(|s| s.0 as usize).collect();
            tokens_to_bytes(slots, &x.gather_rows(&idx)).to_vec()
        })
        .collect();
    count_remote_bytes(state, &chunks);
    let a2a_span = obs::span(state.rank, "comm", || {
        (format!("a2a_dispatch/b{b}"), format!("b{b}"))
    });
    let received = all_to_all_among(comm, a2a_seq(iter, b, 0), chunks, &placement.live, {
        let service = &mut *service;
        move |from, m| service(from, m)
    })?;
    obs::end_into(a2a_span, "janus_a2a_us");

    // Build per-owned-expert batches in (src asc, slot order) order.
    let decoded = decode_chunks(received, cfg.hidden_dim)?;
    let owned_ids = &state.owned_ids[b];
    // Per-owned-expert batch assembly + forward as parallel tasks;
    // each expert's activation tape is recorded in its scratch slot.
    let origins_per: Vec<Vec<(usize, usize, Slot)>> = {
        let decoded = &decoded;
        let experts = &state.experts;
        let rank = state.rank;
        pool::run_tasks(owned_ids.len(), |local| {
            let e = owned_ids[local];
            let _span = obs::span(rank, "compute", || {
                (format!("fwd/b{b}/e{e}"), format!("b{b}"))
            });
            let mut origins = Vec::new();
            for (src, (slots, _)) in decoded.iter().enumerate() {
                for (i, slot) in slots.iter().enumerate() {
                    if slot.1 as usize == e {
                        origins.push((src, i, *slot));
                    }
                }
            }
            let mut s = state.scratch_slot(b, e).lock();
            s.x.resize(origins.len(), cfg.hidden_dim);
            for (row, (src, i, _)) in origins.iter().enumerate() {
                s.x.row_mut(row).copy_from_slice(decoded[*src].1.row(*i));
            }
            experts[b][local].forward_scratch(&mut s);
            origins
        })
    };
    // Collect outputs in expert-ascending order (deterministic
    // regardless of task scheduling).
    let mut expert_tapes = Vec::new();
    let mut returns: Vec<(Vec<Slot>, Vec<Vec<f32>>)> =
        (0..world).map(|_| (Vec::new(), Vec::new())).collect();
    for (local, origins) in origins_per.into_iter().enumerate() {
        let e = owned_ids[local];
        let s = state.scratch_slot(b, e).lock();
        for (i, (src, _, slot)) in origins.iter().enumerate() {
            returns[*src].0.push(*slot);
            returns[*src].1.push(s.y.row(i).to_vec());
        }
        expert_tapes.push(ExpertTape { expert: e, origins });
    }

    // Combine A2A: send results home.
    let chunks: Vec<Vec<u8>> = returns
        .iter()
        .map(|(slots, rows)| tokens_to_bytes(slots, &rows_to_matrix(rows, cfg.hidden_dim)).to_vec())
        .collect();
    count_remote_bytes(state, &chunks);
    let a2a_span = obs::span(state.rank, "comm", || {
        (format!("a2a_combine/b{b}"), format!("b{b}"))
    });
    let received = all_to_all_among(comm, a2a_seq(iter, b, 1), chunks, &placement.live, {
        let service = &mut *service;
        move |from, m| service(from, m)
    })?;
    obs::end_into(a2a_span, "janus_a2a_us");

    // y = x + Σ wₖ·expertₖ(x), folded in canonical (expert, token)
    // order — placement-invariant, and bitwise the historical
    // source-rank order under the static contiguous layout.
    let mut y = x.clone();
    combine_canonical(&mut y, received, cfg.hidden_dim, false)?;
    Ok((
        y,
        BlockTapeEc {
            sent,
            experts: expert_tapes,
        },
    ))
}

/// Expert-centric backward for one block: grad-dispatch All-to-All,
/// per-source expert backward, grad fold, dx-return All-to-All, residual
/// add. Returns `dx` and the folded weight gradient of each owned expert
/// (local index order), bitwise identical to what the data-centric
/// owner's inbox fold would produce.
pub(crate) fn backward_block<T: Transport>(
    comm: &Comm<T>,
    state: &WorkerState,
    b: usize,
    iter: u64,
    tape: &BlockTapeEc,
    dy: &Matrix,
    service: &mut dyn FnMut(usize, &Message) -> bool,
) -> Result<(Matrix, Vec<ExpertGrads>), CommError> {
    let cfg = &state.cfg;
    let world = cfg.world();
    let placement = &state.placement;
    let h = cfg.hidden_dim;
    // Send ∂L/∂(expert output) for every dispatched slot: w·dy[token].
    let chunks: Vec<Vec<u8>> = tape
        .sent
        .iter()
        .map(|slots| {
            let mut rows = Vec::with_capacity(slots.len());
            for (tok, _e, w) in slots {
                let mut row = dy.row(*tok as usize).to_vec();
                for v in &mut row {
                    *v *= *w;
                }
                rows.push(row);
            }
            tokens_to_bytes(slots, &rows_to_matrix(&rows, h)).to_vec()
        })
        .collect();
    count_remote_bytes(state, &chunks);
    let a2a_span = obs::span(state.rank, "comm", || {
        (format!("a2a_grad_dispatch/b{b}"), format!("b{b}"))
    });
    let received = all_to_all_among(comm, a2a_seq(iter, b, 2), chunks, &placement.live, {
        let service = &mut *service;
        move |from, m| service(from, m)
    })?;
    obs::end_into(a2a_span, "janus_a2a_us");
    let decoded = decode_chunks(received, h)?;

    // Expert backward, one sub-batch per source rank, as parallel tasks.
    // Each source's rows form a contiguous run of the forward batch (the
    // forward assembled origins sources-ascending), and every forward op
    // is row-local, so the sliced activations are bitwise the ones that
    // source's own data-centric pass would have produced. Folding the
    // per-source gradients in the data-centric order then yields bitwise
    // the gradient a data-centric owner applies.
    let grads: Vec<ExpertGrads> = {
        let decoded = &decoded;
        let experts = &state.experts;
        let tape_experts = &tape.experts;
        let rank = state.rank;
        pool::run_tasks(tape_experts.len(), |ti| {
            let tape_e = &tape_experts[ti];
            let _span = obs::span(rank, "compute", || {
                let e = tape_e.expert;
                (format!("bwd/b{b}/e{e}"), format!("b{b}"))
            });
            let local = ti;
            debug_assert_eq!(state.owned_ids[b][local], tape_e.expert);
            let weights = &experts[b][local];
            let origins = &tape_e.origins;
            let mut s = state.scratch_slot(b, tape_e.expert).lock();
            s.dx.resize(origins.len(), h);
            let mut sub = ExpertScratch::new();
            let mut dy_src = Matrix::zeros(0, 0);
            let mut per_src: Vec<(usize, ExpertGrads)> = Vec::with_capacity(world);
            let mut r0 = 0;
            for (src, (_, mat)) in decoded.iter().enumerate() {
                // A permanently dead source contributes nothing — its
                // tokens are gone, not zero (matching the degraded
                // data-centric accumulation, which only ever sees live
                // contributions).
                if !placement.is_live(src) {
                    continue;
                }
                let mut r1 = r0;
                while r1 < origins.len() && origins[r1].0 == src {
                    r1 += 1;
                }
                let n = r1 - r0;
                dy_src.resize(n, h);
                sub.x.resize(n, h);
                sub.pre.resize(n, 4 * h);
                sub.hidden.resize(n, 4 * h);
                for (i, (_, pos, _)) in origins[r0..r1].iter().enumerate() {
                    dy_src.row_mut(i).copy_from_slice(mat.row(*pos));
                    sub.x.row_mut(i).copy_from_slice(s.x.row(r0 + i));
                    sub.pre.row_mut(i).copy_from_slice(s.pre.row(r0 + i));
                    sub.hidden.row_mut(i).copy_from_slice(s.hidden.row(r0 + i));
                }
                weights.backward_scratch(&dy_src, &mut sub);
                for i in 0..n {
                    s.dx.row_mut(r0 + i).copy_from_slice(sub.dx.row(i));
                }
                per_src.push((src, sub.grad.clone()));
                r0 = r1;
            }
            fold_like_dc(cfg, placement, b, tape_e.expert, per_src)
        })
    };
    // Route dx home, experts ascending.
    let mut returns: Vec<(Vec<Slot>, Vec<Vec<f32>>)> =
        (0..world).map(|_| (Vec::new(), Vec::new())).collect();
    for tape_e in tape.experts.iter() {
        let s = state.scratch_slot(b, tape_e.expert).lock();
        for (i, (src, _, slot)) in tape_e.origins.iter().enumerate() {
            returns[*src].0.push(*slot);
            returns[*src].1.push(s.dx.row(i).to_vec());
        }
    }
    let chunks: Vec<Vec<u8>> = returns
        .iter()
        .map(|(slots, rows)| tokens_to_bytes(slots, &rows_to_matrix(rows, h)).to_vec())
        .collect();
    count_remote_bytes(state, &chunks);
    let a2a_span = obs::span(state.rank, "comm", || {
        (format!("a2a_dx_return/b{b}"), format!("b{b}"))
    });
    let received = all_to_all_among(comm, a2a_seq(iter, b, 3), chunks, &placement.live, {
        let service = &mut *service;
        move |from, m| service(from, m)
    })?;
    obs::end_into(a2a_span, "janus_a2a_us");

    // dx = dy (residual) + returned expert input-gradients, folded in
    // the same canonical (expert, token) order as the forward combine.
    let mut dx = dy.clone();
    combine_canonical(&mut dx, received, h, true)?;
    Ok((dx, grads))
}

/// Fold per-source gradients of one owned expert exactly the way the
/// data-centric path does: live workers on machines other than the
/// owner's are pre-reduced ascending into one part attributed to that
/// machine's (live) designated aggregator, owner-machine workers
/// contribute individually, and the parts fold ascending by sender rank.
/// `per_src` holds `(source rank, gradient)` pairs, rank-ascending, live
/// sources only — a dead rank's tokens are gone, so it has no part.
fn fold_like_dc(
    cfg: &ExecConfig,
    placement: &Placement,
    b: usize,
    e: usize,
    per_src: Vec<(usize, ExpertGrads)>,
) -> ExpertGrads {
    let owner_machine = cfg.machine_of(placement.owner_of(b, e));
    let mut parts: Vec<(usize, ExpertGrads)> = Vec::new();
    for machine in 0..cfg.machines {
        let machine_srcs: Vec<&(usize, ExpertGrads)> = per_src
            .iter()
            .filter(|(src, _)| cfg.machine_of(*src) == machine)
            .collect();
        if machine_srcs.is_empty() {
            continue;
        }
        if machine == owner_machine {
            for (src, g) in machine_srcs {
                parts.push((*src, g.clone()));
            }
        } else {
            let mut sum = machine_srcs[0].1.clone();
            for (_, g) in &machine_srcs[1..] {
                sum.accumulate(g);
            }
            parts.push((
                placement.designated_local(machine, e, cfg.gpus_per_machine),
                sum,
            ));
        }
    }
    parts.sort_by_key(|(sender, _)| *sender);
    let mut it = parts.into_iter();
    let (_, mut grad) = it.next().expect("at least one live machine");
    for (_, g) in it {
        grad.accumulate(&g);
    }
    grad
}

fn rows_to_matrix(rows: &[Vec<f32>], cols: usize) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * cols);
    for r in rows {
        debug_assert_eq!(r.len(), cols);
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), cols, data)
}

fn rows_to_matrix_one(row: &[f32]) -> Matrix {
    Matrix::from_vec(1, row.len(), row.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::trainer::{TrainRun, Trainer};
    use crate::paradigm::ParadigmPolicy;
    use crate::plan::PlanOpts;

    /// Train `iters` iterations with every block forced expert-centric.
    fn run_ec(cfg: &ExecConfig, iters: u64) -> TrainRun {
        let opts = PlanOpts {
            policy: ParadigmPolicy::ExpertCentric,
            ..PlanOpts::default()
        };
        Trainer::new(cfg, &opts).run(iters)
    }

    #[test]
    fn iteration_runs_and_losses_are_finite() {
        let cfg = ExecConfig::small();
        let run = run_ec(&cfg, 1);
        for (losses, output) in run.losses.iter().zip(&run.outputs) {
            assert!(losses[0].is_finite() && losses[0] > 0.0);
            assert_eq!(output.shape(), (cfg.tokens, cfg.hidden_dim));
        }
    }

    #[test]
    fn loss_decreases_over_iterations() {
        for per_worker in run_ec(&ExecConfig::small(), 5).losses {
            assert!(
                per_worker.last().unwrap() < per_worker.first().unwrap(),
                "loss did not decrease: {per_worker:?}"
            );
        }
    }

    #[test]
    fn updated_weights_agree_across_repeat_runs() {
        // Determinism: two independent runs produce identical weights.
        let cfg = ExecConfig::small();
        assert_eq!(run_ec(&cfg, 3).experts, run_ec(&cfg, 3).experts);
    }

    #[test]
    fn per_block_layout_runs_with_nonuniform_experts() {
        // The mixed config has a different expert count per block; the
        // expert-centric bodies must handle it end to end.
        for losses in run_ec(&ExecConfig::mixed_paradigms(), 1).losses {
            assert!(losses[0].is_finite() && losses[0] > 0.0);
        }
    }
}
