//! The crash-recovery ledger of the round loop.
//!
//! Supervised recovery is [`Trainer::run_rounds`] with the default
//! [`RoundOpts`]; the driver lives in [`elastic`](crate::exec::elastic)
//! and fills the [`RecoveryReport`] defined here. What stays in this
//! module is specific to crashes: the ledger, the marker injected crashes
//! panic with, and [`disarm`], which retires a crash point once it fired.
//!
//! [`Trainer::run_rounds`]: crate::exec::trainer::Trainer::run_rounds
//! [`RoundOpts`]: crate::exec::elastic::RoundOpts

use janus_comm::{CrashAt, FaultPlan};

/// The marker every injected crash panics with; the round driver uses it
/// to tell scheduled faults from genuine worker bugs.
pub const INJECTED_CRASH_MARKER: &str = "injected crash";

/// One rank's recovery bookkeeping.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct RankRecovery {
    /// Times this rank died (injected or not).
    pub crashes: u64,
    /// Checkpoints of this rank committed to the store.
    pub ckpts_written: u64,
    /// Times this rank was restored from a committed cut.
    pub ckpts_restored: u64,
}

/// What crash recovery cost a run under the round driver.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct RecoveryReport {
    /// Worker deaths observed (injected crashes and collateral panics).
    pub crashes: u64,
    /// Rounds replayed after a failure.
    pub recoveries: u64,
    /// Checkpoints committed to the store (ranks × cuts).
    pub ckpts_written: u64,
    /// Checkpoints restored from the store (ranks × replays that started
    /// from a committed cut).
    pub ckpts_restored: u64,
    /// Bytes of committed checkpoints.
    pub ckpt_bytes_written: u64,
    /// Bytes read back while restoring.
    pub ckpt_bytes_restored: u64,
    /// Iterations re-executed because a round failed (round length ×
    /// failed attempts).
    pub replayed_iterations: u64,
    /// Wall-clock time of each recovery (restore + replay of the failed
    /// round), in microseconds.
    pub recover_us: Vec<u64>,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankRecovery>,
}

impl RecoveryReport {
    /// The `p`-th percentile (0–100) of recovery times, in microseconds.
    pub fn recover_us_percentile(&self, p: f64) -> u64 {
        if self.recover_us.is_empty() {
            return 0;
        }
        let mut sorted = self.recover_us.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// Remove the crash point that produced `msg` from the plan so the
/// replay does not immediately die again. Injected panics name their
/// trigger (`… at iteration N` / `… at send op N`), which is parsed back
/// here rather than threading shared mutable state through the mesh.
pub(crate) fn disarm(plan: &mut FaultPlan, rank: usize, msg: &str) {
    let parse_after = |needle: &str| -> Option<u64> {
        let at = msg.find(needle)? + needle.len();
        let rest = &msg[at..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    };
    let fired = if let Some(i) = parse_after("at iteration ") {
        Some(CrashAt::Iteration(i))
    } else {
        parse_after("at send op ").map(CrashAt::SendOp)
    };
    plan.crashes
        .retain(|c| !(c.rank == rank && Some(c.at) == fired));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::elastic::{RoundOpts, RoundsOutcome};
    use crate::exec::model::ExecConfig;
    use crate::exec::trainer::{diff_runs, TrainRun, Trainer};
    use crate::plan::PlanOpts;
    use janus_comm::CrashPoint;

    fn small() -> ExecConfig {
        ExecConfig {
            tokens: 8,
            ..ExecConfig::small()
        }
    }

    fn supervised(
        cfg: &ExecConfig,
        opts: &RoundOpts,
        iters: u64,
        crashes: Vec<CrashPoint>,
    ) -> Result<RoundsOutcome, String> {
        let faults = FaultPlan {
            crashes,
            ..FaultPlan::default()
        };
        Trainer::new(cfg, &PlanOpts::default()).run_rounds(opts, iters, faults)
    }

    fn assert_matches_fault_free(cfg: &ExecConfig, run: &TrainRun, iters: u64) {
        let baseline = Trainer::new(cfg, &PlanOpts::default()).run(iters);
        let diff = diff_runs(run, &baseline);
        assert_eq!(diff.max_output_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_weight_diff, 0.0, "{diff:?}");
        assert_eq!(diff.max_loss_diff, 0.0, "{diff:?}");
    }

    #[test]
    fn iteration_crash_is_recovered_bitwise() {
        let cfg = small();
        let crash = CrashPoint {
            rank: 2,
            at: CrashAt::Iteration(1),
        };
        let out = supervised(&cfg, &RoundOpts::default(), 3, vec![crash]).unwrap();
        let report = &out.recovery;
        assert!(report.crashes >= 1, "{report:?}");
        assert_eq!(report.recoveries, 1, "{report:?}");
        assert_eq!(report.ckpts_restored, cfg.world() as u64, "{report:?}");
        assert_eq!(report.recover_us.len(), 1);
        assert_matches_fault_free(&cfg, &out.run, 3);
    }

    #[test]
    fn send_op_crash_is_recovered_bitwise() {
        let cfg = small();
        let crash = CrashPoint {
            rank: 1,
            at: CrashAt::SendOp(7),
        };
        let out = supervised(&cfg, &RoundOpts::default(), 2, vec![crash]).unwrap();
        assert!(out.recovery.crashes >= 1, "{:?}", out.recovery);
        assert!(out.recovery.recoveries >= 1, "{:?}", out.recovery);
        assert_matches_fault_free(&cfg, &out.run, 2);
    }

    #[test]
    fn crash_in_a_later_round_restores_from_the_committed_cut() {
        let cfg = small();
        let crash = CrashPoint {
            rank: 0,
            at: CrashAt::Iteration(2),
        };
        let opts = RoundOpts {
            ckpt_every: 2,
            ..RoundOpts::default()
        };
        let out = supervised(&cfg, &opts, 4, vec![crash]).unwrap();
        let report = &out.recovery;
        // The crash hits round [2,4), which replays from the cut at 2.
        assert_eq!(report.recoveries, 1, "{report:?}");
        assert_eq!(report.ckpts_restored, cfg.world() as u64, "{report:?}");
        assert_eq!(report.replayed_iterations, 2, "{report:?}");
        assert_matches_fault_free(&cfg, &out.run, 4);
    }

    #[test]
    fn exhausted_recovery_budget_surfaces_the_failure() {
        let cfg = small();
        // Crash a rank at iteration 0 but allow zero recoveries.
        let crash = CrashPoint {
            rank: 0,
            at: CrashAt::Iteration(0),
        };
        let opts = RoundOpts {
            max_recoveries: 0,
            ..RoundOpts::default()
        };
        let err = match supervised(&cfg, &opts, 2, vec![crash]) {
            Err(e) => e,
            Ok(_) => panic!("a crash with zero recoveries must fail"),
        };
        assert!(err.contains("gave up"), "{err}");
        assert!(err.contains(INJECTED_CRASH_MARKER), "{err}");
    }

    #[test]
    fn disarm_removes_only_the_fired_point() {
        let mut plan = FaultPlan {
            crashes: vec![
                CrashPoint {
                    rank: 1,
                    at: CrashAt::Iteration(0),
                },
                CrashPoint {
                    rank: 1,
                    at: CrashAt::Iteration(2),
                },
                CrashPoint {
                    rank: 2,
                    at: CrashAt::SendOp(5),
                },
            ],
            ..FaultPlan::default()
        };
        disarm(&mut plan, 1, "injected crash: rank 1 at iteration 0");
        assert_eq!(plan.crashes.len(), 2);
        assert!(plan.crashes.contains(&CrashPoint {
            rank: 1,
            at: CrashAt::Iteration(2)
        }));
        disarm(&mut plan, 2, "injected crash: rank 2 at send op 5");
        assert_eq!(plan.crashes.len(), 1);
    }
}
