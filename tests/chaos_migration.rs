//! Combined-fault chaos for elastic expert migration: permanent rank
//! loss inside a partition window, and death *during* the migration
//! exchange itself.
//!
//! The elastic driver's contract under fire:
//!
//! * a rank that dies for good — even while the fault plan is also
//!   partitioning links — ends in a committed **drain**: its experts are
//!   re-apportioned across survivors and training completes degraded;
//! * a death in the middle of a migration exchange tears the attempt
//!   down with the round; the placement is **never** installed torn —
//!   every committed epoch's table validates, epochs only move forward,
//!   and the retry at the same boundary re-plans from the committed cut;
//! * the whole schedule is deterministic: the same seed and death/skew
//!   schedule produces bitwise-identical training across compute thread
//!   counts, and the post-migration continuation is bitwise identical to
//!   a reference run started *from* the migrated cut.
//!
//! Every test runs under a watchdog: a hung barrier is a loud failure,
//! never a stuck CI job.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use janus::comm::faulty::{CrashAt, CrashPoint, FaultPlan, Partition};
use janus::comm::local::local_mesh;
use janus::comm::reliable::RetransmitPolicy;
use janus::core::ckpt::CheckpointPolicy;
use janus::core::exec::elastic::{GateSkew, PermanentDeath, RoundOpts, RoundsOutcome};
use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::Trainer;
use janus::core::plan::PlanOpts;
use janus::tensor::pool;

const ITERS: u64 = 6;

/// `pool::set_threads` is process-global; the sweeps serialize here.
static THREAD_SWEEP: Mutex<()> = Mutex::new(());

fn cfg() -> ExecConfig {
    ExecConfig {
        tokens: 8,
        ..ExecConfig::small()
    }
}

fn chaos_seeds() -> [u64; 2] {
    let base = std::env::var("JANUS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    [base, base ^ 0x9E37_79B9]
}

/// Aggressive retransmit timeouts so partition-dropped traffic recovers
/// in microseconds.
fn chaos_policy() -> RetransmitPolicy {
    RetransmitPolicy {
        initial_backoff: Duration::from_micros(500),
        max_backoff: Duration::from_millis(8),
        max_attempts: 400,
        flush_quiet: Duration::from_millis(40),
        ..RetransmitPolicy::default()
    }
}

fn with_watchdog<R: Send + 'static>(
    label: &str,
    timeout: Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    let name = format!("chaos-migration:{label}");
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawning watchdog worker");
    match rx.recv_timeout(timeout) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{name} panicked; the original panic is above in stderr")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: {name} did not finish within {timeout:?} (hang, not a diagnostic)")
        }
    }
}

/// No committed epoch may ever be torn: every cut's table validates,
/// epochs only move forward, and the ledger agrees with the cuts.
fn assert_never_torn(out: &RoundsOutcome) {
    let mut last_epoch = 0;
    for cut in &out.cuts {
        cut.placement.assert_valid();
        assert!(
            cut.placement.epoch > last_epoch,
            "epochs must move forward: {} after {last_epoch}",
            cut.placement.epoch
        );
        last_epoch = cut.placement.epoch;
        for (rank, ckpt) in cut.ckpts.iter().enumerate() {
            assert_eq!(
                ckpt.is_some(),
                cut.placement.is_live(rank),
                "cut at iter {}: rank {rank} checkpoint presence must track liveness",
                cut.at_iter
            );
        }
    }
    assert_eq!(
        out.elastic.epochs.len(),
        out.cuts.len(),
        "every committed epoch must produce a cut"
    );
}

/// The elastic continuation past the last committed cut must be bitwise
/// identical to a fresh run started from that cut.
fn assert_bitwise_resume(trainer: &Trainer, el: &RoundOpts, out: &RoundsOutcome, label: &str) {
    let cut = out.cuts.last().expect("run committed at least one epoch");
    let world = trainer.cfg().world();
    let reference = trainer.run_from(
        local_mesh(world),
        cut,
        el.skew.as_ref(),
        ITERS,
        CheckpointPolicy::Never,
    );
    for rank in 0..world {
        if !cut.placement.is_live(rank) {
            continue;
        }
        assert_eq!(
            &out.run.losses[rank][cut.at_iter as usize..],
            reference.losses[rank].as_slice(),
            "{label}: rank {rank} losses diverge from the resumed reference"
        );
        assert_eq!(
            out.run.outputs[rank].data(),
            reference.outputs[rank].data(),
            "{label}: rank {rank} outputs diverge from the resumed reference"
        );
    }
}

/// Permanent death landing inside an active partition window: the
/// reliability layer keeps recovering the partition's drops while the
/// elastic driver drains the corpse — degraded completion, bitwise
/// identical across thread counts and to the resumed reference.
#[test]
fn permanent_death_inside_partition_window_drains_and_completes() {
    with_watchdog("death-in-partition", Duration::from_secs(240), || {
        let _sweep = THREAD_SWEEP.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = cfg();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let dead = cfg.world() - 1;
        for seed in chaos_seeds() {
            let faults = FaultPlan {
                seed,
                drop: 0.02,
                partitions: vec![Partition {
                    a: 0,
                    b: dead,
                    from_op: 2,
                    to_op: 12,
                }],
                ..FaultPlan::default()
            };
            let el = RoundOpts {
                ckpt_every: 2,
                retransmit: chaos_policy(),
                deaths: vec![PermanentDeath {
                    rank: dead,
                    at_iter: 3,
                    during_migration: false,
                }],
                ..RoundOpts::default()
            };
            let mut across: Option<RoundsOutcome> = None;
            for threads in [1usize, 4] {
                pool::set_threads(threads);
                let label = format!("death-in-partition seed={seed:#x} threads={threads}");
                let out = trainer
                    .run_rounds(&el, ITERS, faults.clone())
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                assert!(out.elastic.degraded, "{label}: run must finish degraded");
                assert_eq!(out.elastic.dead_ranks, vec![dead], "{label}");
                assert!(
                    out.elastic
                        .epochs
                        .iter()
                        .any(|e| e.reason.contains(&format!("drain rank {dead}"))),
                    "{label}: no drain epoch committed: {:?}",
                    out.elastic.epochs
                );
                assert!(
                    out.elastic.recoveries >= 1 && out.elastic.replayed_iterations >= 1,
                    "{label}: the death must cost a replayed round: {:?}",
                    out.elastic
                );
                // Survivors trained to the end; the corpse kept only its
                // committed prefix.
                for rank in 0..cfg.world() {
                    let want = if rank == dead { 2 } else { ITERS as usize };
                    assert_eq!(out.run.losses[rank].len(), want, "{label}: rank {rank}");
                }
                // Non-vacuity: the partition actually dropped traffic and
                // the reliability layer actually recovered it.
                let totals = out.run.comm_totals();
                assert!(totals.faults_dropped > 0, "{label}: partition never fired");
                assert!(totals.retransmits > 0, "{label}: nothing was retransmitted");
                assert!(totals.migrations > 0, "{label}: drain shipped no experts");
                assert_eq!(totals.degraded, 1, "{label}: degraded counter: {totals:?}");

                assert_never_torn(&out);
                assert_bitwise_resume(&trainer, &el, &out, &label);
                if let Some(prev) = &across {
                    assert_eq!(
                        prev.run.losses, out.run.losses,
                        "{label}: thread count changed the loss history"
                    );
                    assert_eq!(
                        prev.elastic.final_placement_digest, out.elastic.final_placement_digest,
                        "{label}: thread count changed the final placement"
                    );
                }
                across = Some(out);
            }
        }
        pool::set_threads(0); // restore the JANUS_THREADS/env default
    })
}

/// A rank dying in the middle of the migration exchange: the attempt is
/// torn down with the round, the placement is never installed torn, and
/// the retry (now draining the corpse) still commits a valid epoch and
/// finishes training — bitwise identical across thread counts.
#[test]
fn death_during_migration_aborts_cleanly_and_commits_on_retry() {
    with_watchdog("death-mid-migration", Duration::from_secs(240), || {
        let _sweep = THREAD_SWEEP.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = cfg();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let skew = GateSkew {
            block: 0,
            expert: 0,
            boost: 8.0,
        };
        let el = RoundOpts {
            ckpt_every: 2,
            retransmit: chaos_policy(),
            skew_ratio: 1.2,
            max_moves: 4,
            skew: Some(skew),
            deaths: vec![PermanentDeath {
                rank: 0,
                at_iter: 0,
                during_migration: true,
            }],
            ..RoundOpts::default()
        };
        let mut across: Option<RoundsOutcome> = None;
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let label = format!("death-mid-migration threads={threads}");
            let out = trainer
                .run_rounds(&el, ITERS, FaultPlan::default())
                .unwrap_or_else(|e| panic!("{label}: {e}"));

            assert!(
                out.elastic.aborted_migrations >= 1,
                "{label}: the mid-exchange death must abort an attempt: {:?}",
                out.elastic
            );
            assert!(out.elastic.degraded, "{label}: rank 0 is gone for good");
            assert_eq!(out.elastic.dead_ranks, vec![0], "{label}");
            assert!(
                out.elastic
                    .epochs
                    .iter()
                    .any(|e| e.reason.contains("drain")),
                "{label}: the retry must drain the corpse: {:?}",
                out.elastic.epochs
            );
            // Survivors still finished the full schedule.
            for rank in 1..cfg.world() {
                assert_eq!(
                    out.run.losses[rank].len(),
                    ITERS as usize,
                    "{label}: rank {rank} must train to completion"
                );
            }
            assert_never_torn(&out);
            assert_bitwise_resume(&trainer, &el, &out, &label);
            if let Some(prev) = &across {
                assert_eq!(
                    prev.run.losses, out.run.losses,
                    "{label}: thread count changed the loss history"
                );
                assert_eq!(
                    prev.elastic.final_placement_digest, out.elastic.final_placement_digest,
                    "{label}: thread count changed the final placement"
                );
            }
            across = Some(out);
        }
        pool::set_threads(0); // restore the JANUS_THREADS/env default
    })
}

/// Both ledgers from one loop: a skew-triggered rebalance commits at the
/// first boundary, then a transient crash in round 2 is replayed from the
/// committed cut under the migrated placement. The recovery ledger
/// counts the replay, the elastic ledger counts the epoch, and the whole
/// run past the migration is still bitwise the reference started from
/// the post-migration cut.
#[test]
fn crash_after_a_rebalance_fills_both_ledgers_and_resumes_bitwise() {
    with_watchdog("crash-after-rebalance", Duration::from_secs(240), || {
        let cfg = cfg();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let el = RoundOpts {
            ckpt_every: 2,
            retransmit: chaos_policy(),
            skew_ratio: 1.2,
            max_moves: 4,
            skew: Some(GateSkew {
                block: 0,
                expert: 0,
                boost: 8.0,
            }),
            ..RoundOpts::default()
        };
        let faults = FaultPlan {
            crashes: vec![CrashPoint {
                rank: 2,
                at: CrashAt::Iteration(3),
            }],
            ..FaultPlan::default()
        };
        let out = trainer.run_rounds(&el, ITERS, faults).unwrap();

        assert_eq!(out.recovery.recoveries, 1, "{:?}", out.recovery);
        assert_eq!(out.recovery.replayed_iterations, 2, "{:?}", out.recovery);
        assert_eq!(
            out.recovery.ckpts_restored,
            cfg.world() as u64,
            "round 2 replays from the cut at iteration 2: {:?}",
            out.recovery
        );
        assert_eq!(out.elastic.recoveries, 1, "{:?}", out.elastic);
        assert_eq!(out.elastic.epochs.len(), 1, "{:?}", out.elastic.epochs);
        assert_eq!(out.elastic.epochs[0].at_iter, 0);
        assert!(out.elastic.epochs[0].reason.contains("skew rebalance"));
        assert_eq!(out.elastic.aborted_migrations, 0, "{:?}", out.elastic);
        assert!(!out.elastic.degraded);
        assert_never_torn(&out);
        assert_bitwise_resume(&trainer, &el, &out, "crash-after-rebalance");
    })
}
