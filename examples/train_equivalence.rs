//! Real distributed MoE training under all three paradigm policies,
//! demonstrating the paper's equivalence claim (§3.2) numerically — and
//! bitwise.
//!
//! Spawns one thread per simulated GPU, connected by an in-process
//! message mesh. One `Trainer` per compiled plan: the forced
//! data-centric plan exercises the full Janus Task Queue (pull requests,
//! the per-machine expert cache, gradient pre-reduction), the forced
//! expert-centric plan is the All-to-All baseline, and the R-rule plan
//! mixes paradigms across blocks. Outputs, losses, and trained weights
//! of all three match bit for bit.
//!
//! ```text
//! cargo run --release --example train_equivalence
//! ```

use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::{diff_runs, Trainer};
use janus::core::plan::PlanOpts;
use janus::core::{Paradigm, ParadigmPolicy};

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

fn main() {
    let cfg = ExecConfig {
        machines: 2,
        gpus_per_machine: 2,
        hidden_dim: 16,
        blocks: 3,
        experts: 8,
        experts_per_block: vec![],
        top_k: 2,
        tokens: 32,
        seed: 2023,
        lr: 0.02,
    };
    println!(
        "training a {}-block MoE ({} experts, top-{}) on {} simulated GPUs\n",
        cfg.blocks,
        cfg.experts,
        cfg.top_k,
        cfg.world()
    );

    let iters = 8;
    let run = forced(&cfg, ParadigmPolicy::DataCentric).run(iters);
    println!("data-centric loss curve (worker 0):");
    for (i, loss) in run.losses[0].iter().enumerate() {
        println!("  iter {i}: {loss:.4}");
    }

    // §3.2's claim: moving experts instead of tokens changes nothing
    // numerically. Both paradigms' block bodies compute per-source-worker
    // gradients and fold them in the same pre-reduction order, so the
    // equivalence is bitwise across any number of updates — not just
    // statistical.
    let diff = diff_runs(
        &forced(&cfg, ParadigmPolicy::ExpertCentric).run(iters),
        &run,
    );
    println!("\nexpert-centric vs data-centric after {iters} iterations:");
    println!("  max |Δ output|  = {:.3e}", diff.max_output_diff);
    println!("  max |Δ weights| = {:.3e}", diff.max_weight_diff);
    println!("  max |Δ loss|    = {:.3e}", diff.max_loss_diff);
    assert_eq!(diff.max_output_diff, 0.0);
    assert_eq!(diff.max_weight_diff, 0.0);
    assert_eq!(diff.max_loss_diff, 0.0);

    // By default the plan is compiled per block. On the mixed config the
    // R-rule picks data-centric for the small block and expert-centric
    // for the large one — and the run still matches the forced plans
    // exactly.
    let mixed = ExecConfig::mixed_paradigms();
    let trainer = Trainer::new(&mixed, &PlanOpts::default());
    let plan = trainer.plan();
    let unified = trainer.run(iters);
    println!(
        "\nunified run on a mixed plan (digest {:#018x}):",
        plan.digest()
    );
    for bp in &plan.blocks {
        println!(
            "  block {} ({} experts): R = {:.2} → {}",
            bp.block,
            bp.experts,
            bp.r.unwrap_or(f64::NAN),
            match bp.paradigm {
                Paradigm::DataCentric => "data-centric",
                Paradigm::ExpertCentric => "expert-centric",
            }
        );
    }
    let udiff = diff_runs(
        &unified,
        &forced(&mixed, ParadigmPolicy::DataCentric).run(iters),
    );
    println!(
        "  max |Δ weights| vs forced data-centric = {:.3e}",
        udiff.max_weight_diff
    );
    assert_eq!(udiff.max_output_diff, 0.0);
    assert_eq!(udiff.max_weight_diff, 0.0);

    println!("\nequivalence holds: moving experts instead of tokens changes nothing numerically");
}
