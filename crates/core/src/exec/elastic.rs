//! The round loop: checkpoint-bounded rounds that survive crashed ranks,
//! permanent rank loss, and hot-expert skew.
//!
//! [`Trainer::run_rounds`] slices training into *rounds* of `ckpt_every`
//! iterations. Each round runs on a fresh transport mesh
//! (`Reliable<Faulty<Monitor<Local>>>` — fault injection above the
//! liveness monitor, so heartbeats neither perturb the fault schedule
//! nor are themselves dropped before the board sees silence). Every live
//! rank runs the trainer's span body — restore from the round's starting
//! cut (or initialize fresh at iteration 0), iterate, return the
//! end-of-round checkpoint *in its result* — and the driver commits a cut
//! to the [`CkptStore`] only when **every** live rank finished, so a
//! crash can never leave a torn, partially-written cut behind.
//!
//! **Recovery.** When a rank dies (an injected
//! [`CrashPoint`](janus_comm::CrashPoint) or any other panic), the
//! runtime marks it dead on the mesh health board and peers blocked on
//! it fail fast with [`janus_comm::CommError::PeerDead`]. The driver
//! disarms the crash points that fired, counts a recovery in the
//! [`RecoveryReport`], and replays the round from the last committed cut
//! — a bitwise snapshot at an iteration boundary, where the
//! end-of-iteration double barrier plus transport flush leave no
//! in-flight protocol state. The replay is therefore the computation the
//! fault-free run performs, and the recovered run is bitwise identical
//! to it.
//!
//! **Elasticity.** At a round boundary the driver may install a new
//! [`Placement`] epoch:
//!
//! * **Skew migration.** A deterministic routing probe ([`expert_loads`])
//!   prices every expert's load offline; when the max/mean live-rank
//!   load ratio crosses `skew_ratio`, the round starts with
//!   [`Placement::rebalance`] and the affected experts are shipped live
//!   — bitwise, via the checkpoint wire encoding of expert state
//!   ([`expert_to_bytes`]) — to their new owners.
//! * **Graceful degradation.** When a rank dies permanently (a
//!   [`PermanentDeath`] in the schedule, standing in for the liveness
//!   monitor's unrecoverable-death verdict), the failed round is
//!   replayed under [`Placement::drain`]: the dead rank's experts are
//!   re-apportioned across survivors, their weights recovered from its
//!   last committed checkpoint (or the deterministic init at iteration
//!   0), and training completes without the dead rank's tokens.
//!
//! Every placement change commits through a barrier tagged with the new
//! epoch before any iteration runs under it, so a death during the
//! migration exchange tears the attempt down with the mesh: the
//! placement is *not* installed, and the retry (now draining the new
//! corpse) starts again from the committed cut. Routing can never
//! observe a torn placement.
//!
//! A supervised run is this loop with no deaths and `skew_ratio = ∞`
//! (the [`RoundOpts`] default). The post-migration cut each rank
//! captures right after the commit barrier is returned to the caller;
//! the chaos tests restart reference runs from those cuts
//! ([`Trainer::run_from`]) and assert the continuation is bitwise
//! identical.

use crate::ckpt::{Checkpoint, CheckpointPolicy, CkptStore};
use crate::exec::data_centric::MachineShared;
use crate::exec::model::{ExecConfig, WorkerState};
use crate::exec::supervisor::{disarm, RankRecovery, RecoveryReport, INJECTED_CRASH_MARKER};
use crate::exec::trainer::{collect, SpanOut, TrainRun, Trainer};
use crate::exec::weights::{expert_from_bytes, expert_to_bytes};
use crate::placement::{Move, Placement};
use bytes::Bytes;
use janus_comm::collectives::barrier_among;
use janus_comm::liveness::monitor_mesh;
use janus_comm::local::local_mesh;
use janus_comm::runtime::run_on_result;
use janus_comm::{
    Comm, CrashAt, CrashPoint, FaultPlan, FaultyTransport, LivenessConfig, Message,
    ReliableTransport, RetransmitPolicy, Transport,
};
use std::collections::HashMap;
use std::time::Instant;

/// Deterministic gate bias: adds `boost` to the gate weight column of
/// one expert on every rank, making it run hot. The skew chaos tests use
/// this to provoke a rebalance without touching the token stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateSkew {
    /// Block whose gate is biased.
    pub block: usize,
    /// Expert to overload.
    pub expert: usize,
    /// Added to every row of the expert's gate column.
    pub boost: f32,
}

/// One scheduled unrecoverable rank death.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermanentDeath {
    /// Rank that dies.
    pub rank: usize,
    /// Iteration whose round the death lands in; the rank panics before
    /// executing this iteration.
    pub at_iter: u64,
    /// Die *inside the migration exchange* of the round instead of at
    /// the iteration — exercises the abort-and-retry path.
    pub during_migration: bool,
}

/// Round-driver knobs. The defaults are a supervised run: crash recovery
/// on, no skew trigger, no scheduled deaths.
#[derive(Debug, Clone)]
pub struct RoundOpts {
    /// Round length: a checkpoint cut is committed every `ckpt_every`
    /// completed iterations — the replay granularity after a crash and
    /// the only boundary a placement can change at.
    pub ckpt_every: u64,
    /// How many failed rounds the driver will recover from before giving
    /// up and surfacing the failure.
    pub max_recoveries: u32,
    /// Reliability policy for the per-round transport stack.
    pub retransmit: RetransmitPolicy,
    /// Liveness policy for the per-round transport stack. The default
    /// (heartbeats off) still detects panics — the runtime marks dead
    /// ranks on the health board directly; enable heartbeats to also
    /// suspect silently wedged peers.
    pub liveness: LivenessConfig,
    /// Skew trigger: rebalance when max/mean live-rank probe load
    /// exceeds this ratio. `INFINITY` disables skew migration.
    pub skew_ratio: f64,
    /// Cap on experts moved by one rebalance.
    pub max_moves: usize,
    /// Optional deterministic gate bias (applied on every rank after
    /// every init/restore, so it is part of the run's definition).
    pub skew: Option<GateSkew>,
    /// Scheduled permanent deaths.
    pub deaths: Vec<PermanentDeath>,
}

impl Default for RoundOpts {
    fn default() -> Self {
        RoundOpts {
            ckpt_every: 1,
            max_recoveries: 8,
            retransmit: RetransmitPolicy::default(),
            liveness: LivenessConfig::default(),
            skew_ratio: f64::INFINITY,
            max_moves: 4,
            skew: None,
            deaths: Vec::new(),
        }
    }
}

/// One committed placement epoch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EpochCommit {
    /// The epoch installed.
    pub epoch: u64,
    /// Iteration boundary it was installed at.
    pub at_iter: u64,
    /// Digest of the placement table.
    pub placement_digest: u64,
    /// Digest of the iteration plan carrying this placement.
    pub plan_digest: u64,
    /// Experts that changed owner.
    pub moves: usize,
    /// Why: `"skew rebalance …"` or `"drain rank N"`.
    pub reason: String,
}

/// What elasticity cost (and saved) an elastic run.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ElasticReport {
    /// Placement epochs committed, in order.
    pub epochs: Vec<EpochCommit>,
    /// Ranks declared permanently dead.
    pub dead_ranks: Vec<usize>,
    /// True when the run finished without its full world.
    pub degraded: bool,
    /// Expert blobs that changed owner (cluster-wide).
    pub migrations: u64,
    /// Bytes of expert state shipped by migrations.
    pub migration_bytes: u64,
    /// Failed rounds replayed.
    pub recoveries: u64,
    /// Iterations re-executed by replays.
    pub replayed_iterations: u64,
    /// Migration exchanges torn down by a death mid-exchange (the
    /// placement was not installed; the retry re-planned it).
    pub aborted_migrations: u64,
    /// Digest of the placement the run finished under.
    pub final_placement_digest: u64,
}

/// A checkpoint cut: where every rank of a run stands at an iteration
/// boundary. The round driver returns one per committed epoch (every
/// live rank's state at `at_iter`, captured immediately after the
/// epoch's commit barrier); [`Trainer::run_from`] starts a run from one.
pub struct Cut {
    /// Iteration boundary the cut was taken at.
    pub at_iter: u64,
    /// The placement the ranks hold at the cut.
    pub placement: Placement,
    /// Per-rank checkpoint bytes (`None` for dead ranks, and for every
    /// rank of a [`fresh`](Cut::fresh) cut).
    pub ckpts: Vec<Option<Bytes>>,
}

impl Cut {
    /// The cut before iteration 0 under `placement`: every live rank
    /// starts from the deterministic init, which is bit-identical under
    /// any placement.
    pub fn fresh(placement: Placement) -> Cut {
        let ckpts = vec![None; placement.world()];
        Cut {
            at_iter: 0,
            placement,
            ckpts,
        }
    }
}

/// Everything a run under the round driver produces.
pub struct RoundsOutcome {
    /// The finished training run (dead ranks contribute their committed
    /// prefix; `ckpts` holds the last committed cut).
    pub run: TrainRun,
    /// What crash recovery cost.
    pub recovery: RecoveryReport,
    /// The migration ledger.
    pub elastic: ElasticReport,
    /// Post-migration cuts, one per committed epoch.
    pub cuts: Vec<Cut>,
}

/// Deterministic offline load probe: `loads[b][e]` is the number of
/// token slots block `b`'s gate routes to expert `e` across every
/// rank's iteration-0 token embeddings (with `skew` applied). Gates and
/// inputs are pure functions of the config, so every rank — and the
/// driver — computes the identical histogram without touching the mesh.
/// (Deeper blocks route transformed activations at run time; the probe
/// is an estimate there, which is all a load balancer needs.)
pub fn expert_loads(cfg: &ExecConfig, skew: Option<&GateSkew>) -> Vec<Vec<f64>> {
    let mut loads: Vec<Vec<f64>> = (0..cfg.blocks)
        .map(|b| vec![0.0; cfg.experts_in(b)])
        .collect();
    for rank in 0..cfg.world() {
        let mut state = WorkerState::init(cfg, rank);
        if let Some(s) = skew {
            apply_gate_skew(&mut state, s);
        }
        for (b, row) in loads.iter_mut().enumerate() {
            let hist = state.gates[b].route(&state.inputs).histogram();
            for (l, h) in row.iter_mut().zip(hist) {
                *l += h as f64;
            }
        }
    }
    loads
}

/// Max/mean live-rank load under `p` — the skew trigger's input.
pub fn skew_ratio(p: &Placement, loads: &[Vec<f64>]) -> f64 {
    let per_rank: Vec<f64> = (0..p.world())
        .filter(|&r| p.is_live(r))
        .map(|r| {
            loads
                .iter()
                .enumerate()
                .map(|(b, row)| p.owned_in(b, r).iter().map(|&e| row[e]).sum::<f64>())
                .sum()
        })
        .collect();
    let max = per_rank.iter().cloned().fold(0.0, f64::max);
    let mean = per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Bias one expert's gate column on every replica of its block gate.
pub fn apply_gate_skew(state: &mut WorkerState, skew: &GateSkew) {
    let w = &mut state.gates[skew.block].weight;
    for r in 0..w.rows() {
        w[(r, skew.expert)] += skew.boost;
    }
}

/// The owner changes between two placements, ascending by `(block,
/// expert)` — the migration exchange's deterministic shipping list.
pub fn placement_moves(prev: &Placement, next: &Placement) -> Vec<Move> {
    let mut moves = Vec::new();
    for (b, (po, no)) in prev.owners.iter().zip(&next.owners).enumerate() {
        for (e, (&pf, &nt)) in po.iter().zip(no).enumerate() {
            if pf != nt {
                moves.push(Move {
                    block: b,
                    expert: e,
                    from: pf as usize,
                    to: nt as usize,
                });
            }
        }
    }
    moves
}

/// Collective sequence tag of one migrating expert blob. Bit 63 keeps
/// the tag clear of every training-collective sequence.
fn mig_seq(b: usize, e: usize) -> u64 {
    (1u64 << 63) | ((b as u64) << 32) | e as u64
}

/// One rank's outcome of one round: `Ok(Some((span, cut)))` when it
/// finished (`cut` is the post-migration checkpoint at the round's start,
/// captured right after the epoch commit barrier when the round installed
/// a new placement), `Ok(None)` when it is dead in the round's target
/// placement, `Err(panic message)` when it died.
type RoundResult = Result<Option<(SpanOut, Option<Bytes>)>, String>;

/// One `[start, end)` round as every rank sees it.
struct Round<'a> {
    opts: &'a RoundOpts,
    faults: &'a FaultPlan,
    /// The committed cut the ranks restore from, under its placement.
    from: &'a Cut,
    end: u64,
    /// Placement the round runs under; differs from the cut's when the
    /// round opens with a migration.
    target: &'a Placement,
    /// Blobs of moved experts whose previous owner is dead in `target`.
    orphans: &'a HashMap<(usize, usize), Bytes>,
    /// Permanent deaths still scheduled (this round's and later ones).
    deaths: &'a [PermanentDeath],
}

impl Trainer {
    /// Train `iters` iterations in checkpoint-bounded rounds, injecting
    /// `faults` (including [`janus_comm::CrashPoint`]s): failed rounds
    /// are replayed from the last committed cut, skew rebalances and
    /// permanent deaths re-place experts at round boundaries. Returns the
    /// finished run with both ledgers and the post-migration cuts — or an
    /// error once `max_recoveries` attempts have been spent.
    ///
    /// The headline properties (asserted by the chaos tests): without
    /// deaths or a skew trigger the run's losses, outputs, and final
    /// weights are **bitwise identical** to a fault-free
    /// [`Trainer::run`], regardless of where the crashes struck; with
    /// them, the continuation past every committed cut is bitwise the
    /// [`Trainer::run_from`] reference started from that cut.
    pub fn run_rounds(
        &self,
        opts: &RoundOpts,
        iters: u64,
        faults: FaultPlan,
    ) -> Result<RoundsOutcome, String> {
        assert!(iters > 0, "training needs at least one iteration");
        let cfg = self.cfg();
        let world = cfg.world();
        let round_len = opts.ckpt_every.max(1);
        // Only the skew trigger consults the probe.
        let loads = opts
            .skew_ratio
            .is_finite()
            .then(|| expert_loads(cfg, opts.skew.as_ref()));

        let store = CkptStore::new();
        let mut pending_faults = faults;
        let mut deaths = opts.deaths.clone();
        let mut placement = WorkerState::balanced_placement(cfg);
        // (table, reason, moves) of a placement change waiting to commit;
        // survives failed attempts so a drain is never lost.
        let mut pending_target: Option<(Placement, String, usize)> = None;
        let mut elastic = ElasticReport::default();
        let mut recovery = RecoveryReport {
            per_rank: vec![RankRecovery::default(); world],
            ..RecoveryReport::default()
        };
        let mut cuts: Vec<Cut> = Vec::new();
        // Committed progress per rank: loss history and counters so far,
        // plus the last committed round's output/experts/checkpoint.
        let mut committed: Vec<Option<SpanOut>> = (0..world).map(|_| None).collect();
        let mut recoveries_left = opts.max_recoveries;
        // Set after a failed attempt so the next committing attempt is
        // timed as the recovery.
        let mut recovering_since: Option<Instant> = None;
        let mut start: u64 = 0;

        while start < iters {
            let end = (start + round_len).min(iters);
            // Plan this round's placement: a pending drain (from a death
            // in the previous attempt) wins; otherwise consult the skew
            // trigger.
            if let (None, Some(loads)) = (&pending_target, &loads) {
                let ratio = skew_ratio(&placement, loads);
                if ratio > opts.skew_ratio {
                    let (next, moves) = placement.rebalance(loads, opts.max_moves);
                    if !moves.is_empty() {
                        pending_target = Some((
                            next,
                            format!("skew rebalance (load ratio {ratio:.2})"),
                            moves.len(),
                        ));
                    }
                }
            }
            let (target, reason, n_moves) = match &pending_target {
                Some((t, r, m)) => (t.clone(), r.clone(), *m),
                None => (placement.clone(), String::new(), 0),
            };

            // Orphan blobs: experts whose previous owner is dead in the
            // target. Recovered from the corpse's last committed
            // checkpoint, or from the deterministic init when nothing was
            // committed yet.
            let moves = placement_moves(&placement, &target);
            let mut orphans: HashMap<(usize, usize), Bytes> = HashMap::new();
            for mv in moves.iter().filter(|m| !target.is_live(m.from)) {
                let expert = if start == 0 {
                    WorkerState::reference_expert(cfg, mv.block, mv.expert)
                } else {
                    let bytes = store
                        .get(mv.from, start)
                        .expect("dead rank's cut was committed before it died");
                    let ckpt = Checkpoint::from_bytes(&bytes)
                        .map_err(|e| format!("recovering rank {} cut {start}: {e}", mv.from))?;
                    let local = ckpt.effective_placement().local_index(mv.block, mv.expert);
                    ckpt.experts[mv.block][local].clone()
                };
                orphans.insert((mv.block, mv.expert), expert_to_bytes(&expert));
            }

            let migrating = target != placement;
            let from = Cut {
                at_iter: start,
                placement: placement.clone(),
                ckpts: (0..world).map(|r| store.get(r, start)).collect(),
            };
            let results = self.run_round(&Round {
                opts,
                faults: &pending_faults,
                from: &from,
                end,
                target: &target,
                orphans: &orphans,
                deaths: &deaths,
            });

            let failed: Vec<(usize, String)> = results
                .iter()
                .enumerate()
                .filter_map(|(rank, r)| match r {
                    Err(msg) => Some((rank, msg.clone())),
                    Ok(_) => None,
                })
                .collect();

            if failed.is_empty() {
                // Commit: every live rank finished the round, so the cut
                // at `end` is complete and becomes the new restore point.
                let mut cut_ckpts: Vec<Option<Bytes>> = vec![None; world];
                for (rank, r) in results.into_iter().enumerate() {
                    let Ok(Some((out, migrated_cut))) = r else {
                        continue;
                    };
                    let ckpt = out.ckpt.clone().expect("rounds end on a cut");
                    recovery.ckpts_written += 1;
                    recovery.ckpt_bytes_written += ckpt.len() as u64;
                    recovery.per_rank[rank].ckpts_written += 1;
                    store.put(rank, end, ckpt);
                    cut_ckpts[rank] = migrated_cut;
                    match &mut committed[rank] {
                        Some(so_far) => so_far.absorb(out),
                        slot => *slot = Some(out),
                    }
                }
                if let Some(since) = recovering_since.take() {
                    // Only restores from a committed cut count; replays
                    // of round 0 re-initialize instead. Restores are
                    // tallied when the replay commits (here), bytes when
                    // it begins (below).
                    if start > 0 {
                        for rank in (0..world).filter(|&r| target.is_live(r)) {
                            recovery.ckpts_restored += 1;
                            recovery.per_rank[rank].ckpts_restored += 1;
                        }
                    }
                    let us = since.elapsed().as_micros() as u64;
                    recovery.recover_us.push(us);
                    janus_obs::global().observe("janus_time_to_recover_us", us);
                }
                if migrating {
                    elastic.epochs.push(EpochCommit {
                        epoch: target.epoch,
                        at_iter: start,
                        placement_digest: target.digest(),
                        plan_digest: self.plan().clone().with_placement(target.clone()).digest(),
                        moves: n_moves,
                        reason,
                    });
                    cuts.push(Cut {
                        at_iter: start,
                        placement: target.clone(),
                        ckpts: cut_ckpts,
                    });
                    placement = target;
                    pending_target = None;
                }
                start = end;
                continue;
            }

            // At least one rank died. Permanent deaths drain the corpse
            // from the *committed* placement (a torn migration was never
            // installed); crash points that fired are disarmed; either
            // way the round replays from the committed cut on the
            // recovery budget. So does a panic without the marker (a
            // genuine bug, or collateral damage from a peer's death): a
            // deterministic one exhausts `max_recoveries` and surfaces.
            if migrating {
                elastic.aborted_migrations += 1;
            }
            let mut drained = placement.clone();
            let mut drain_reasons = Vec::new();
            for (rank, msg) in &failed {
                recovery.crashes += 1;
                recovery.per_rank[*rank].crashes += 1;
                if let Some(pos) = deaths.iter().position(|d| d.rank == *rank) {
                    deaths.remove(pos);
                    elastic.dead_ranks.push(*rank);
                    drained = drained.drain(*rank);
                    drain_reasons.push(format!("drain rank {rank}"));
                } else if msg.contains(INJECTED_CRASH_MARKER) {
                    disarm(&mut pending_faults, *rank, msg);
                }
            }
            if !drain_reasons.is_empty() {
                let n = placement_moves(&placement, &drained).len();
                pending_target = Some((drained, drain_reasons.join(", "), n));
            }
            // else: keep any pending skew migration — the crash was
            // transient and the retry installs the same table.
            if recoveries_left == 0 {
                let detail: Vec<String> = failed
                    .iter()
                    .map(|(rank, msg)| format!("rank {rank}: {msg}"))
                    .collect();
                return Err(format!(
                    "round driver gave up after {} recoveries; last failures: {}",
                    opts.max_recoveries,
                    detail.join("; ")
                ));
            }
            recoveries_left -= 1;
            recovery.recoveries += 1;
            recovery.replayed_iterations += end - start;
            if start > 0 {
                recovery.ckpt_bytes_restored += (0..world)
                    .map(|r| store.get(r, start).map_or(0, |b| b.len() as u64))
                    .sum::<u64>();
            }
            janus_obs::global().count("janus_recoveries_total", 1);
            janus_obs::global().count("janus_migration_aborts_total", u64::from(migrating));
            // Keep an already-running recovery timer: back-to-back
            // failures are one outage from the run's point of view.
            recovering_since.get_or_insert_with(Instant::now);
        }

        let run = collect(committed);
        let totals = run.comm_totals();
        elastic.recoveries = recovery.recoveries;
        elastic.replayed_iterations = recovery.replayed_iterations;
        elastic.degraded = placement.live_count() < world;
        elastic.final_placement_digest = placement.digest();
        elastic.migrations = totals.migrations;
        elastic.migration_bytes = totals.migration_bytes;
        elastic.dead_ranks.sort_unstable();
        Ok(RoundsOutcome {
            run,
            recovery,
            elastic,
            cuts,
        })
    }

    /// Run one round on a fresh mesh. A rank that *observes* a death
    /// (e.g. `PeerDead` out of an iteration) converts it into a panic
    /// too, so every round outcome is uniform.
    fn run_round(&self, round: &Round<'_>) -> Vec<RoundResult> {
        let cfg = self.cfg();
        let world = cfg.world();
        let (start, prev, target) = (round.from.at_iter, &round.from.placement, round.target);
        let mesh: Vec<_> = monitor_mesh(local_mesh(world), round.opts.liveness)
            .into_iter()
            .map(|t| {
                ReliableTransport::with_policy(
                    FaultyTransport::new(t, round.faults.clone()),
                    round.opts.retransmit,
                )
            })
            .collect();
        let shared = MachineShared::for_cluster_placed(cfg, target);
        run_on_result(mesh, |comm| {
            let rank = comm.rank();
            if !target.is_live(rank) {
                // Permanently dead: contribute nothing. Live peers never
                // address dead ranks, so the early exit is silent.
                return None;
            }
            let mut state = self.enter(rank, round.from, round.opts.skew.as_ref());
            let my_death = round
                .deaths
                .iter()
                .find(|d| d.rank == rank && (start..round.end).contains(&d.at_iter));
            let migrated_cut = (target != prev).then(|| {
                let die_mid = my_death.is_some_and(|d| d.during_migration);
                migrate(&comm, &mut state, round, die_mid);
                state.comm.record_epoch_bump();
                janus_obs::global().count("janus_migration_epochs_total", 1);
                self.checkpoint(&state, start)
            });
            if target.live_count() < world {
                state.comm.set_degraded();
            }
            let inject = |i: u64| {
                let at = CrashAt::Iteration(i);
                if round.faults.crashes.contains(&CrashPoint { rank, at }) {
                    janus_obs::global().count("janus_crashes_injected_total", 1);
                    panic!("{INJECTED_CRASH_MARKER}: rank {rank} at iteration {i}");
                }
                if my_death.is_some_and(|d| !d.during_migration && d.at_iter == i) {
                    janus_obs::global().count("janus_permanent_deaths_total", 1);
                    panic!(
                        "{INJECTED_CRASH_MARKER}: rank {rank} permanently dead at iteration {i}"
                    );
                }
            };
            // Every boundary is a legal cut; the driver ends rounds only
            // on the ones it commits.
            let out = self.iterate(
                &comm,
                state,
                &shared[cfg.machine_of(rank)],
                start..round.end,
                CheckpointPolicy::EveryN(1),
                inject,
            );
            Some((out, migrated_cut))
        })
    }
}

/// The live migration exchange opening `round`, run by every rank live
/// in its target: ship departing experts bitwise (checkpoint wire
/// encoding) over the reliable transport, collect arriving ones (from the
/// wire, or from the orphans when the previous owner is dead), re-shard
/// the local state onto the target, and commit the epoch through a
/// barrier so no rank can start an iteration under the new table before
/// every rank holds it.
fn migrate<T: Transport>(
    comm: &Comm<T>,
    state: &mut WorkerState,
    round: &Round<'_>,
    die_mid: bool,
) {
    let rank = comm.rank();
    let (prev, target, iter) = (&round.from.placement, round.target, round.from.at_iter);
    let moves = placement_moves(prev, target);
    // A rank scheduled to die mid-exchange does so after its first
    // shipment, or at once when it has nothing to ship.
    let die = || -> ! {
        janus_obs::global().count("janus_permanent_deaths_total", 1);
        panic!(
            "{INJECTED_CRASH_MARKER}: rank {rank} permanently dead during migration at iteration {iter}"
        );
    };
    for mv in moves.iter().filter(|m| m.from == rank) {
        let local = state.local_index(mv.block, mv.expert);
        let blob = expert_to_bytes(&state.experts[mv.block][local]);
        comm.send(
            mv.to,
            Message::Collective {
                seq: mig_seq(mv.block, mv.expert),
                data: blob,
            },
        )
        .unwrap_or_else(|e| panic!("rank {rank} shipping expert {mv:?}: {e}"));
        if die_mid {
            die();
        }
    }
    if die_mid {
        die();
    }
    let mut blobs: HashMap<(usize, usize), Bytes> = HashMap::new();
    for mv in moves.iter().filter(|m| m.to == rank) {
        let key = (mv.block, mv.expert);
        let data = if target.is_live(mv.from) {
            let seq = mig_seq(mv.block, mv.expert);
            let (_, msg) = comm
                .recv_match(|from, m| {
                    from == mv.from && matches!(m, Message::Collective { seq: s, .. } if *s == seq)
                })
                .unwrap_or_else(|e| panic!("rank {rank} awaiting expert {mv:?}: {e}"));
            match msg {
                Message::Collective { data, .. } => data,
                _ => unreachable!("predicate admits only Collective"),
            }
        } else {
            round
                .orphans
                .get(&key)
                .unwrap_or_else(|| panic!("rank {rank}: no orphan blob for {mv:?}"))
                .clone()
        };
        state.comm.record_migration(data.len() as u64);
        janus_obs::global().count("janus_migration_bytes_total", data.len() as u64);
        blobs.insert(key, data);
    }
    state.remap_experts(target.clone(), |b, e| {
        let blob = blobs
            .remove(&(b, e))
            .unwrap_or_else(|| panic!("rank {rank}: gained expert ({b},{e}) without a blob"));
        expert_from_bytes(blob).unwrap_or_else(|e| panic!("rank {rank}: corrupt expert blob: {e}"))
    });
    // The commit barrier: after it, every live rank holds the new table,
    // so the first iteration under the epoch can never race a straggler
    // still executing the old one (a torn placement).
    barrier_among(comm, (1 << 62) | target.epoch, &target.live)
        .unwrap_or_else(|e| panic!("rank {rank} committing epoch {}: {e}", target.epoch));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOpts;

    fn small() -> ExecConfig {
        ExecConfig {
            tokens: 8,
            ..ExecConfig::small()
        }
    }

    fn elastic(cfg: &ExecConfig, opts: &RoundOpts, iters: u64) -> (Trainer, RoundsOutcome) {
        let trainer = Trainer::new(cfg, &PlanOpts::default());
        let out = trainer
            .run_rounds(opts, iters, FaultPlan::default())
            .unwrap();
        (trainer, out)
    }

    /// The reference continuation: a fresh, fault-free run started from
    /// `cut`.
    fn resume(trainer: &Trainer, cut: &Cut, skew: Option<&GateSkew>, iters: u64) -> TrainRun {
        let mesh = local_mesh(trainer.cfg().world());
        trainer.run_from(mesh, cut, skew, iters, CheckpointPolicy::Never)
    }

    #[test]
    fn permanent_death_drains_and_completes_degraded() {
        let cfg = small();
        let el = RoundOpts {
            ckpt_every: 2,
            deaths: vec![PermanentDeath {
                rank: 3,
                at_iter: 2,
                during_migration: false,
            }],
            ..RoundOpts::default()
        };
        let (_, out) = elastic(&cfg, &el, 4);
        assert!(out.elastic.degraded);
        assert_eq!(out.elastic.dead_ranks, vec![3]);
        assert_eq!(out.elastic.epochs.len(), 1, "{:?}", out.elastic.epochs);
        assert_eq!(out.elastic.epochs[0].at_iter, 2);
        assert!(out.elastic.epochs[0].reason.contains("drain rank 3"));
        assert!(out.elastic.migrations > 0, "{:?}", out.elastic);
        assert!(out.elastic.migration_bytes > 0);
        // The dead rank's loss history stops at the committed cut; the
        // survivors trained to the end.
        assert_eq!(out.run.losses[3].len(), 2);
        for r in 0..3 {
            assert_eq!(out.run.losses[r].len(), 4, "rank {r}");
        }
        // Orphans landed on survivors: every expert live-owned.
        assert_eq!(out.cuts.len(), 1);
        out.cuts[0].placement.assert_valid();
        assert!(!out.cuts[0].placement.is_live(3));
        let totals = out.run.comm_totals();
        assert_eq!(totals.degraded, 1);
        assert!(totals.epoch_bumps > 0);
    }

    #[test]
    fn degraded_run_is_bitwise_identical_to_resume_from_the_migrated_cut() {
        let cfg = small();
        let el = RoundOpts {
            ckpt_every: 2,
            deaths: vec![PermanentDeath {
                rank: 1,
                at_iter: 3,
                during_migration: false,
            }],
            ..RoundOpts::default()
        };
        let (trainer, out) = elastic(&cfg, &el, 6);
        assert!(out.elastic.degraded);
        let cut = &out.cuts[0];
        let reference = resume(&trainer, cut, None, 6);
        for rank in 0..cfg.world() {
            if !cut.placement.is_live(rank) {
                continue;
            }
            let since_cut = &out.run.losses[rank][cut.at_iter as usize..];
            assert_eq!(
                since_cut,
                &reference.losses[rank][..],
                "rank {rank} losses diverged from the reference continuation"
            );
            assert_eq!(
                out.run.outputs[rank].data(),
                reference.outputs[rank].data(),
                "rank {rank} final output not bitwise identical"
            );
            for (a, b) in out.run.experts[rank].iter().zip(&reference.experts[rank]) {
                for (ea, eb) in a.iter().zip(b) {
                    assert_eq!(ea.w1.data(), eb.w1.data(), "rank {rank} weights diverged");
                    assert_eq!(ea.w2.data(), eb.w2.data(), "rank {rank} weights diverged");
                }
            }
        }
    }

    #[test]
    fn gate_skew_triggers_a_rebalance_that_commits_bitwise() {
        let cfg = small();
        let skew = GateSkew {
            block: 0,
            expert: 0,
            boost: 8.0,
        };
        let loads = expert_loads(&cfg, Some(&skew));
        let balanced = WorkerState::balanced_placement(&cfg);
        let ratio = skew_ratio(&balanced, &loads);
        assert!(
            ratio > 1.2,
            "the bias must actually skew the probe: {ratio}"
        );
        let el = RoundOpts {
            ckpt_every: 2,
            skew_ratio: 1.2,
            skew: Some(skew),
            ..RoundOpts::default()
        };
        let (trainer, out) = elastic(&cfg, &el, 4);
        assert!(!out.elastic.degraded);
        assert!(!out.elastic.epochs.is_empty(), "skew never triggered");
        assert!(out.elastic.epochs[0].reason.contains("skew rebalance"));
        assert!(out.elastic.migrations > 0);
        // The rebalance spreads the probe load strictly better.
        let after = &out.cuts[0].placement;
        assert!(skew_ratio(after, &loads) < ratio, "rebalance did not help");
        // And the migrated run continues bitwise from its own cut.
        let cut = &out.cuts[0];
        let reference = resume(&trainer, cut, Some(&skew), 4);
        for rank in 0..cfg.world() {
            let since_cut = &out.run.losses[rank][cut.at_iter as usize..];
            assert_eq!(since_cut, &reference.losses[rank][..], "rank {rank}");
            assert_eq!(
                out.run.outputs[rank].data(),
                reference.outputs[rank].data(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn death_during_migration_aborts_cleanly_and_retries() {
        let cfg = small();
        let skew = GateSkew {
            block: 0,
            expert: 0,
            boost: 8.0,
        };
        // Rank 0 owns the skew-shedding experts of block 0 under the
        // balanced table, so it has blobs to ship — and dies mid-ship.
        let el = RoundOpts {
            ckpt_every: 2,
            skew_ratio: 1.2,
            skew: Some(skew),
            deaths: vec![PermanentDeath {
                rank: 0,
                at_iter: 0,
                during_migration: true,
            }],
            ..RoundOpts::default()
        };
        let (_, out) = elastic(&cfg, &el, 4);
        assert!(out.elastic.aborted_migrations >= 1, "{:?}", out.elastic);
        assert!(out.elastic.degraded);
        assert_eq!(out.elastic.dead_ranks, vec![0]);
        // The torn attempt was never installed: every committed epoch is
        // valid and the final placement excludes the corpse.
        for cut in &out.cuts {
            cut.placement.assert_valid();
        }
        let last = out.cuts.last().unwrap();
        assert!(!last.placement.is_live(0));
        // Survivors trained every iteration.
        for r in 1..cfg.world() {
            assert_eq!(out.run.losses[r].len(), 4, "rank {r}");
        }
    }

    #[test]
    fn placement_moves_lists_exactly_the_owner_changes() {
        let p = Placement::balanced(&[8], 4);
        let d = p.drain(2);
        let moves = placement_moves(&p, &d);
        assert_eq!(moves.len(), 2);
        assert!(moves.iter().all(|m| m.from == 2));
        assert!(moves.iter().all(|m| d.owner_of(m.block, m.expert) == m.to));
        assert!(placement_moves(&p, &p).is_empty());
    }
}
