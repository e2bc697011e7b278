//! Seeded chaos matrix: unified training must survive lossy links — and
//! crashed ranks.
//!
//! Each case stacks `ReliableTransport` over `FaultyTransport` over the
//! in-process mesh and trains with the unified engine while the fault
//! plan drops, delays, duplicates, reorders, and partitions traffic. The
//! reliability layer restores exactly-once per-pair FIFO delivery, and
//! because every gradient fold is ordered by sender (not arrival), the
//! result must be **bitwise identical** to the fault-free run — across
//! fault profiles, chaos seeds, and compute thread counts.
//!
//! The crash dimension goes further: `CrashPoint`s kill whole ranks
//! mid-iteration or mid-send, the round driver restores the survivors'
//! world from the latest committed checkpoint cut, and the finished run
//! must *still* be bitwise identical to the fault-free one.
//!
//! Every test runs under a watchdog: a hung collective is reported as a
//! failure, never as a stuck CI job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use janus::comm::faulty::{CrashAt, CrashPoint, FaultPlan, FaultyTransport, Partition};
use janus::comm::local::local_mesh;
use janus::comm::reliable::{ReliableTransport, RetransmitPolicy};
use janus::comm::runtime::run_on;
use janus::comm::transport::CommError;
use janus::core::exec::data_centric::MachineShared;
use janus::core::exec::elastic::RoundOpts;
use janus::core::exec::model::{CommSnapshot, ExecConfig, PullRetryPolicy, WorkerState};
use janus::core::exec::trainer::{diff_runs, TrainRun, Trainer};
use janus::core::exec::unified;
use janus::core::plan::PlanOpts;
use janus::core::ParadigmPolicy;
use janus::tensor::pool;

const ITERS: u64 = 3;

/// `pool::set_threads` is process-global, so tests that sweep thread
/// counts serialize on this lock instead of racing each other.
static THREAD_SWEEP: Mutex<()> = Mutex::new(());

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

/// Base chaos seed: `JANUS_CHAOS_SEED` (as set by the CI chaos shard) or
/// a fixed default. A second seed is derived so every local run still
/// covers two distinct fault schedules.
fn chaos_seeds() -> [u64; 2] {
    let base = std::env::var("JANUS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    [base, base ^ 0x9E37_79B9]
}

/// Retransmit policy tuned for tests: aggressive timeouts so dropped
/// messages recover in microseconds, with a budget far above anything a
/// fault plan here can exhaust.
fn chaos_policy() -> RetransmitPolicy {
    RetransmitPolicy {
        initial_backoff: Duration::from_micros(500),
        max_backoff: Duration::from_millis(8),
        max_attempts: 400,
        flush_quiet: Duration::from_millis(40),
        ..RetransmitPolicy::default()
    }
}

/// One reliable-over-faulty endpoint per rank.
fn chaos_mesh(
    world: usize,
    plan: &FaultPlan,
) -> Vec<ReliableTransport<FaultyTransport<janus::comm::local::LocalTransport>>> {
    local_mesh(world)
        .into_iter()
        .map(|t| {
            ReliableTransport::with_policy(FaultyTransport::new(t, plan.clone()), chaos_policy())
        })
        .collect()
}

/// The fault matrix: each profile exercises one failure mode, plus one
/// combined profile that layers them all.
fn fault_matrix(seed: u64, world: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drops",
            FaultPlan {
                seed,
                drop: 0.05,
                ..FaultPlan::default()
            },
        ),
        (
            "delays",
            FaultPlan {
                seed,
                delay: 0.4,
                max_delay_ops: 5,
                ..FaultPlan::default()
            },
        ),
        (
            "duplicates",
            FaultPlan {
                seed,
                duplicate: 0.3,
                ..FaultPlan::default()
            },
        ),
        (
            "partition",
            FaultPlan {
                seed,
                partitions: vec![Partition {
                    a: 0,
                    b: world - 1,
                    from_op: 2,
                    to_op: 10,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "combined",
            FaultPlan {
                seed,
                drop: 0.03,
                delay: 0.2,
                max_delay_ops: 3,
                duplicate: 0.15,
                reorder: 0.25,
                partitions: vec![Partition {
                    a: 1,
                    b: 2,
                    from_op: 4,
                    to_op: 9,
                }],
                ..FaultPlan::default()
            },
        ),
    ]
}

/// Run `f` on a helper thread and panic if it does not finish within
/// `timeout` — turning any protocol hang into a loud, named failure.
fn with_watchdog<R: Send + 'static>(
    label: &str,
    timeout: Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    let name = format!("chaos:{label}");
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

/// Sum the per-rank reliability counters of a run.
fn total_counters(run: &TrainRun) -> CommSnapshot {
    let mut sum = CommSnapshot::default();
    for c in &run.comm {
        sum.pull_retries += c.pull_retries;
        sum.pull_timeouts += c.pull_timeouts;
        sum.retransmits += c.retransmits;
        sum.duplicates_dropped += c.duplicates_dropped;
        sum.acks_sent += c.acks_sent;
        sum.out_of_order_held += c.out_of_order_held;
        sum.faults_dropped += c.faults_dropped;
        sum.faults_delayed += c.faults_delayed;
        sum.faults_duplicated += c.faults_duplicated;
    }
    sum
}

/// The headline chaos matrix: every fault profile × two chaos seeds ×
/// two compute thread counts, all bitwise identical to the clean run.
///
/// One `#[test]` on purpose: `pool::set_threads` is process-global, so
/// the thread sweep must not race a concurrently running test.
#[test]
fn chaos_matrix_is_bitwise_identical_to_fault_free_run() {
    with_watchdog("matrix", Duration::from_secs(240), || {
        let _sweep = THREAD_SWEEP.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = cfg();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        let mut baseline_across_threads: Option<TrainRun> = None;
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let baseline = trainer.run(ITERS);
            let clean = total_counters(&baseline);
            assert_eq!(
                clean,
                CommSnapshot::default(),
                "fault-free run must report zero reliability activity"
            );
            if let Some(prev) = &baseline_across_threads {
                let d = diff_runs(prev, &baseline);
                assert_eq!(d.max_output_diff, 0.0, "threads changed numerics: {d:?}");
                assert_eq!(d.max_weight_diff, 0.0, "threads changed numerics: {d:?}");
                assert_eq!(d.max_loss_diff, 0.0, "threads changed numerics: {d:?}");
            }
            for seed in chaos_seeds() {
                for (name, plan) in fault_matrix(seed, cfg.world()) {
                    let run = trainer.run_on(chaos_mesh(cfg.world(), &plan), ITERS);
                    let d = diff_runs(&baseline, &run);
                    let label = format!("{name} seed={seed:#x} threads={threads}");
                    assert_eq!(d.max_output_diff, 0.0, "{label}: {d:?}");
                    assert_eq!(d.max_weight_diff, 0.0, "{label}: {d:?}");
                    assert_eq!(d.max_loss_diff, 0.0, "{label}: {d:?}");

                    // Non-vacuity: the plan must actually have fired, and
                    // the reliability layer must actually have recovered.
                    let c = total_counters(&run);
                    match name {
                        "drops" | "partition" => {
                            assert!(c.faults_dropped > 0, "{label}: no drops injected: {c:?}");
                            assert!(c.retransmits > 0, "{label}: nothing retransmitted: {c:?}");
                        }
                        "delays" => {
                            assert!(c.faults_delayed > 0, "{label}: no delays injected: {c:?}");
                        }
                        "duplicates" => {
                            assert!(c.faults_duplicated > 0, "{label}: no dupes injected: {c:?}");
                            assert!(
                                c.duplicates_dropped > 0,
                                "{label}: receiver dropped no duplicates: {c:?}"
                            );
                        }
                        _ => {
                            assert!(
                                c.faults_dropped + c.faults_delayed + c.faults_duplicated > 0,
                                "{label}: combined plan injected nothing: {c:?}"
                            );
                        }
                    }
                    assert_eq!(c.pull_timeouts, 0, "{label}: a pull gave up: {c:?}");
                }
            }
            baseline_across_threads = Some(baseline);
        }
        pool::set_threads(0); // restore the JANUS_THREADS/env default
    })
}

/// The crash matrix: each scenario kills one or more ranks somewhere in
/// the run, optionally layered with link faults. The tuple's last field
/// is the minimum number of checkpoint restores the scenario must cause
/// (0 when the crash lands in the first round, which replays from
/// initialization rather than a committed cut); the field before it is
/// the round length (`ckpt_every`).
fn crash_matrix(seed: u64, world: usize) -> Vec<(&'static str, FaultPlan, u64, u64)> {
    vec![
        (
            // Rank dies entering iteration 1; cut 1 is already committed,
            // so every rank restores from it and replays one iteration.
            "crash-iteration",
            FaultPlan {
                seed,
                crashes: vec![CrashPoint {
                    rank: world - 1,
                    at: CrashAt::Iteration(1),
                }],
                ..FaultPlan::default()
            },
            1,
            world as u64,
        ),
        (
            // Rank dies mid-collective on a seed-chosen send; peers
            // blocked on it must surface `PeerDead`, not hang. Send
            // counters restart with each round's fresh mesh, so a low
            // index fires in round 0 and replays from initialization.
            "crash-send-op",
            FaultPlan {
                seed,
                crashes: vec![CrashPoint {
                    rank: 1,
                    at: CrashAt::SendOp(5 + seed % 6),
                }],
                ..FaultPlan::default()
            },
            1,
            0,
        ),
        (
            // Coarser cuts: with `ckpt_every = 2` the crash at iteration
            // 2 lands one full round past the committed cut, forcing a
            // restore plus a multi-iteration replay.
            "crash-coarse-cut",
            FaultPlan {
                seed,
                crashes: vec![CrashPoint {
                    rank: 0,
                    at: CrashAt::Iteration(2),
                }],
                ..FaultPlan::default()
            },
            2,
            world as u64,
        ),
        (
            // Crash × drop × delay: the lossy link layer and the crash
            // layer recover independently and the result is still clean.
            "crash-drop-delay",
            FaultPlan {
                seed,
                drop: 0.03,
                delay: 0.2,
                max_delay_ops: 3,
                crashes: vec![CrashPoint {
                    rank: 2,
                    at: CrashAt::Iteration(1),
                }],
                ..FaultPlan::default()
            },
            1,
            world as u64,
        ),
        (
            // Two distinct victims in two distinct rounds: two full
            // recovery cycles in one run.
            "double-crash",
            FaultPlan {
                seed,
                crashes: vec![
                    CrashPoint {
                        rank: 0,
                        at: CrashAt::Iteration(1),
                    },
                    CrashPoint {
                        rank: world - 1,
                        at: CrashAt::Iteration(2),
                    },
                ],
                ..FaultPlan::default()
            },
            1,
            2 * world as u64,
        ),
    ]
}

/// The headline crash property: a run in which ranks are killed and
/// recovered from checkpoints is **bitwise identical** to the fault-free
/// run — across crash scenarios, chaos seeds, and thread counts.
#[test]
fn crash_recovery_is_bitwise_identical_to_fault_free_run() {
    with_watchdog("crash", Duration::from_secs(240), || {
        let _sweep = THREAD_SWEEP.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = cfg();
        let trainer = Trainer::new(&cfg, &PlanOpts::default());
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let baseline = trainer.run(ITERS);
            for seed in chaos_seeds() {
                for (name, faults, ckpt_every, min_restores) in crash_matrix(seed, cfg.world()) {
                    let n_crashes = faults.crashes.len() as u64;
                    let label = format!("{name} seed={seed:#x} threads={threads}");
                    let opts = RoundOpts {
                        ckpt_every,
                        retransmit: chaos_policy(),
                        ..RoundOpts::default()
                    };
                    let out = trainer
                        .run_rounds(&opts, ITERS, faults)
                        .unwrap_or_else(|e| panic!("{label}: round driver failed: {e}"));
                    let report = out.recovery;
                    let d = diff_runs(&baseline, &out.run);
                    assert_eq!(d.max_output_diff, 0.0, "{label}: {d:?}");
                    assert_eq!(d.max_weight_diff, 0.0, "{label}: {d:?}");
                    assert_eq!(d.max_loss_diff, 0.0, "{label}: {d:?}");

                    // Non-vacuity: every scheduled crash fired, every
                    // failed round was recovered, and the scenarios that
                    // promise a checkpoint restore delivered one.
                    assert!(
                        report.crashes >= n_crashes,
                        "{label}: {n_crashes} crashes scheduled, {} observed",
                        report.crashes
                    );
                    assert!(
                        report.recoveries >= n_crashes,
                        "{label}: {} recoveries for {n_crashes} crashes",
                        report.recoveries
                    );
                    assert!(
                        report.ckpts_restored >= min_restores,
                        "{label}: wanted >= {min_restores} restores, got {}: {report:?}",
                        report.ckpts_restored
                    );
                    assert!(
                        report.ckpts_written >= cfg.world() as u64,
                        "{label}: no full checkpoint cut was committed: {report:?}"
                    );
                    assert!(
                        report.replayed_iterations >= 1,
                        "{label}: a recovery must replay work: {report:?}"
                    );
                    assert_eq!(
                        report.recover_us.len() as u64,
                        report.recoveries,
                        "{label}: every recovery must be timed: {report:?}"
                    );
                }
            }
        }
        pool::set_threads(0); // restore the JANUS_THREADS/env default
    })
}

/// A data-centric pull whose owner never answers must fail loudly within
/// its retry budget — naming the block, the expert, and the deaf peer —
/// instead of hanging the iteration.
#[test]
fn unanswered_pull_fails_with_block_expert_peer_diagnostic() {
    with_watchdog("deaf-peer", Duration::from_secs(60), || {
        // Two machines × one GPU: rank 0 owns expert 0, rank 1 owns
        // expert 1; top_k = 2 forces rank 0 to pull expert 1 remotely.
        let cfg = ExecConfig {
            machines: 2,
            gpus_per_machine: 1,
            hidden_dim: 8,
            blocks: 1,
            experts: 2,
            experts_per_block: vec![],
            top_k: 2,
            tokens: 8,
            seed: 7,
            lr: 0.03,
        };
        let plan = cfg.compile_plan(&PlanOpts {
            policy: ParadigmPolicy::DataCentric,
            ..PlanOpts::default()
        });
        let shared = MachineShared::for_cluster(&cfg);
        let done = Arc::new(AtomicBool::new(false));
        let results = run_on(local_mesh(cfg.world()), |comm| {
            if comm.rank() == 1 {
                // Deaf worker: holds its endpoint open (so the link stays
                // up) but never services a single pull request.
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return None;
            }
            let mut state = WorkerState::init(&cfg, comm.rank());
            state.pull_retry = PullRetryPolicy {
                deadline: Duration::from_millis(40),
                max_attempts: 3,
            };
            let sh = &shared[cfg.machine_of(comm.rank())];
            let out = unified::run_iteration(&comm, &mut state, sh, &plan, 0);
            done.store(true, Ordering::Release);
            Some((out, state.comm.snapshot()))
        });
        let (out, counters) = results
            .into_iter()
            .flatten()
            .next()
            .expect("rank 0 must report a result");
        let err = out.expect_err("a deaf owner must fail the iteration, not hang it");
        match &err {
            CommError::Timeout { attempts, .. } => {
                assert_eq!(*attempts, 3, "budget must be spent exactly: {err}")
            }
            other => panic!("expected CommError::Timeout, got {other:?}"),
        }
        let msg = err.to_string();
        for needle in [
            "data-centric pull of expert 1",
            "(block 0)",
            "peer rank 1",
            "by rank 0",
        ] {
            assert!(msg.contains(needle), "diagnostic {msg:?} lacks {needle:?}");
        }
        // Counters tell the same story: two re-requests, one loud failure.
        assert_eq!(counters.pull_retries, 2, "{counters:?}");
        assert_eq!(counters.pull_timeouts, 1, "{counters:?}");
    })
}
