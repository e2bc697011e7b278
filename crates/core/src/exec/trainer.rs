//! The one training driver: a compiled plan plus the per-rank span body
//! every run goes through.
//!
//! A [`Trainer`] is a config and its compiled [`IterationPlan`]. The plan
//! is the only place a paradigm is chosen: an "expert-centric run" is a
//! trainer compiled with `PlanOpts { policy: ParadigmPolicy::ExpertCentric,
//! .. }`, and likewise for data-centric. Every run — plain, over caller
//! endpoints, restarted from a [`Cut`], or sliced into rounds
//! ([`Trainer::run_rounds`], in [`elastic`](crate::exec::elastic)) — is
//! the same per-rank body: start from a cut (or the deterministic init)
//! under a placement, run a range of [`unified::run_iteration`]s, flush
//! the transport, snapshot the counters, and cut the end-of-span
//! checkpoint when the [`CheckpointPolicy`] selects that boundary.
//!
//! The paper's correctness claim (§3.2): "the computation result in
//! expert-centric paradigm is strictly equivalent to the results in
//! data-centric paradigm … data-centric paradigm does not affect the
//! convergence of training and model accuracy." Both sets of block bodies
//! compute per-source-worker gradients and fold them in the same order,
//! so the equivalence is bitwise, not merely statistical: the tests here
//! hold forced-EC ≡ forced-DC ≡ R-rule plans, through every driver, to
//! exactly zero difference.

use crate::ckpt::{Checkpoint, CheckpointPolicy};
use crate::exec::data_centric::MachineShared;
use crate::exec::elastic::{apply_gate_skew, Cut, GateSkew};
use crate::exec::model::{CommSnapshot, ExecConfig, WorkerState};
use crate::exec::unified;
use crate::plan::{IterationPlan, PlanOpts};
use bytes::Bytes;
use janus_comm::liveness::monitored_mesh;
use janus_comm::runtime::run_on;
use janus_comm::{Comm, LivenessConfig, Transport};
use janus_moe::expert::ExpertFfn;
use janus_obs::{OverlapReport, TraceEvent};
use janus_tensor::Matrix;
use std::ops::Range;

/// Result of one multi-iteration training run.
#[derive(Default)]
pub struct TrainRun {
    /// Per-worker loss history.
    pub losses: Vec<Vec<f32>>,
    /// Per-worker final outputs.
    pub outputs: Vec<Matrix>,
    /// Per-worker final expert weights (`[rank][block][local]`).
    pub experts: Vec<Vec<Vec<ExpertFfn>>>,
    /// Per-worker communication reliability counters (all zero on a
    /// fault-free plain-transport run).
    pub comm: Vec<CommSnapshot>,
    /// Per-worker end-of-run checkpoint: `None` unless the run's
    /// [`CheckpointPolicy`] selected its final boundary (rounds always
    /// cut theirs).
    pub ckpts: Vec<Option<Bytes>>,
    /// Span events drained from the global recorder, empty unless
    /// recording was enabled (`janus_obs::global().enable*()`) before the
    /// run. Events carry the worker rank as `pid`.
    pub trace: Vec<TraceEvent>,
}

impl TrainRun {
    /// Sum of every worker's communication counters — the cluster-wide
    /// totals the `repro` tables print.
    pub fn comm_totals(&self) -> CommSnapshot {
        let mut total = CommSnapshot::default();
        for snap in &self.comm {
            total.accumulate(snap);
        }
        total
    }

    /// Compute/communication overlap, per-link utilization, and pull
    /// latency percentiles derived from the run's trace. Empty (all
    /// zeros) unless recording was enabled for the run.
    pub fn overlap_report(&self) -> OverlapReport {
        OverlapReport::from_events(&self.trace)
    }

    /// The run's trace as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        janus_obs::chrome_trace(&self.trace)
    }

    /// The slice of the run's trace belonging to worker `rank`.
    pub fn trace_for_rank(&self, rank: usize) -> Vec<TraceEvent> {
        self.trace
            .iter()
            .filter(|e| e.pid == rank as u32)
            .cloned()
            .collect()
    }
}

/// What one rank brings back from one span of iterations (the default
/// is a rank that never ran).
#[derive(Default)]
pub(crate) struct SpanOut {
    pub losses: Vec<f32>,
    pub output: Matrix,
    pub experts: Vec<Vec<ExpertFfn>>,
    pub comm: CommSnapshot,
    /// Checkpoint at the span's end, when the policy selected it.
    pub ckpt: Option<Bytes>,
}

impl SpanOut {
    /// Append the next committed span of the same rank: histories and
    /// counters accumulate, end-of-span state is replaced.
    pub(crate) fn absorb(&mut self, next: SpanOut) {
        self.losses.extend(next.losses);
        self.comm.accumulate(&next.comm);
        self.output = next.output;
        self.experts = next.experts;
        self.ckpt = next.ckpt;
    }
}

/// Assemble per-rank results (`None`: the rank never ran) into a
/// [`TrainRun`] and claim whatever the run recorded.
pub(crate) fn collect(results: Vec<Option<SpanOut>>) -> TrainRun {
    let mut run = TrainRun::default();
    for out in results.into_iter().map(Option::unwrap_or_default) {
        run.losses.push(out.losses);
        run.outputs.push(out.output);
        run.experts.push(out.experts);
        run.comm.push(out.comm);
        run.ckpts.push(out.ckpt);
    }
    // Nothing unless the caller enabled recording. Drained here so
    // back-to-back runs don't bleed spans into each other's traces.
    if janus_obs::global().enabled() {
        run.trace = janus_obs::global().drain_events();
    }
    run
}

/// A training configuration and its compiled plan — the single entry
/// point for running it.
pub struct Trainer {
    cfg: ExecConfig,
    plan: IterationPlan,
    digest: u64,
}

impl Trainer {
    /// Compile `cfg`'s plan under `opts` (the R rule picks each block's
    /// paradigm by default; `opts.policy` forces one).
    pub fn new(cfg: &ExecConfig, opts: &PlanOpts) -> Self {
        let plan = cfg.compile_plan(opts);
        let digest = plan.digest();
        Trainer {
            cfg: cfg.clone(),
            plan,
            digest,
        }
    }

    /// The configuration being trained.
    pub fn cfg(&self) -> &ExecConfig {
        &self.cfg
    }

    /// The compiled plan every iteration follows.
    pub fn plan(&self) -> &IterationPlan {
        &self.plan
    }

    /// Train `iters` iterations from the deterministic init over an
    /// in-process mesh. The mesh is liveness-monitored with heartbeats
    /// off, so a panicking rank fails its peers fast instead of hanging
    /// them.
    pub fn run(&self, iters: u64) -> TrainRun {
        let mesh = monitored_mesh(self.cfg.world(), LivenessConfig::default());
        self.run_on(mesh, iters)
    }

    /// [`run`](Self::run) over caller-supplied transport endpoints (one
    /// per rank), e.g. a TCP mesh or a
    /// `ReliableTransport<FaultyTransport<LocalTransport>>` chaos stack.
    pub fn run_on<T: Transport + 'static>(&self, endpoints: Vec<T>, iters: u64) -> TrainRun {
        let start = Cut::fresh(WorkerState::balanced_placement(&self.cfg));
        self.run_from(endpoints, &start, None, iters, CheckpointPolicy::Never)
    }

    /// The general single-span run: start every live rank of
    /// `start.placement` from its cut bytes (or the deterministic init
    /// where the cut holds none), bias the gates by `skew`, train
    /// `start.at_iter..iters`, and cut [`TrainRun::ckpts`] when `policy`
    /// selects `iters`. A run started from a committed cut is bitwise the
    /// run that produced the cut, continued. Panics naming the rank and
    /// iteration if an iteration fails.
    pub fn run_from<T: Transport + 'static>(
        &self,
        endpoints: Vec<T>,
        start: &Cut,
        skew: Option<&GateSkew>,
        iters: u64,
        policy: CheckpointPolicy,
    ) -> TrainRun {
        assert_eq!(endpoints.len(), self.cfg.world(), "one endpoint per rank");
        assert!(start.at_iter < iters, "runs are non-empty");
        let shared = MachineShared::for_cluster_placed(&self.cfg, &start.placement);
        let results = run_on(endpoints, |comm| {
            let rank = comm.rank();
            if !start.placement.is_live(rank) {
                return None;
            }
            let state = self.enter(rank, start, skew);
            let sh = &shared[self.cfg.machine_of(rank)];
            Some(self.iterate(&comm, state, sh, start.at_iter..iters, policy, |_| {}))
        });
        collect(results)
    }

    /// `state`'s checkpoint at boundary `at`, stamped with the plan digest.
    pub(crate) fn checkpoint(&self, state: &WorkerState, at: u64) -> Bytes {
        Checkpoint::capture(state, at, self.digest).to_bytes()
    }

    /// First half of the per-rank body: the rank's state entering a span
    /// — deterministic init under the cut's placement, gates biased by
    /// `skew`, then the cut's checkpoint restored over the expert shard.
    /// Only the cut before iteration 0 may lack one.
    pub(crate) fn enter(&self, rank: usize, start: &Cut, skew: Option<&GateSkew>) -> WorkerState {
        let at = start.at_iter;
        let mut state = WorkerState::init_placed(&self.cfg, rank, start.placement.clone());
        if let Some(s) = skew {
            apply_gate_skew(&mut state, s);
        }
        if let Some(bytes) = &start.ckpts[rank] {
            let ckpt = Checkpoint::from_bytes(bytes)
                .unwrap_or_else(|e| panic!("rank {rank} reading cut {at}: {e}"));
            assert_eq!(
                ckpt.plan_digest, self.digest,
                "rank {rank}: checkpoint belongs to a different plan"
            );
            assert_eq!(ckpt.iter, at, "rank {rank}: wrong cut");
            ckpt.restore(&mut state)
                .unwrap_or_else(|e| panic!("rank {rank} restoring cut {at}: {e}"));
        } else {
            assert_eq!(at, 0, "rank {rank}: cut {at} holds no checkpoint for it");
        }
        state
    }

    /// Second half of the per-rank body, and the only iteration loop:
    /// run `span`, calling `before_iter` ahead of each iteration (where
    /// the round driver injects scheduled crashes), then drain the
    /// transport and snapshot the rank.
    pub(crate) fn iterate<T: Transport>(
        &self,
        comm: &Comm<T>,
        mut state: WorkerState,
        shared: &MachineShared,
        span: Range<u64>,
        policy: CheckpointPolicy,
        before_iter: impl Fn(u64),
    ) -> SpanOut {
        let rank = state.rank;
        let end = span.end;
        let mut losses = Vec::new();
        let mut output = None;
        for i in span {
            before_iter(i);
            let out = unified::run_iteration(comm, &mut state, shared, &self.plan, i)
                // Under a round driver a comm error here means a peer
                // died mid-round; the round is replayed, so this rank's
                // partial work is discarded along with it.
                .unwrap_or_else(|e| panic!("rank {rank} at iteration {i}: {e}"));
            losses.push(out.loss);
            output = Some(out.output);
        }
        // Drain reliability traffic (retransmits awaiting their final
        // acks) before the mesh is torn down. A flush failure here is not
        // fatal: every iteration already completed its barriers.
        let _ = comm.transport().flush();
        state.comm.record_transport(comm.transport().stats());
        let ckpt = policy
            .should_save(end)
            .then(|| self.checkpoint(&state, end));
        SpanOut {
            losses,
            output: output.expect("spans are non-empty"),
            experts: state.experts,
            comm: state.comm.snapshot(),
            ckpt,
        }
    }
}

/// Divergence between two training runs.
#[derive(Debug, Clone)]
pub struct ParadigmDiff {
    /// Largest |Δ| across all workers' final outputs.
    pub max_output_diff: f32,
    /// Largest |Δ| across all final expert weights.
    pub max_weight_diff: f32,
    /// Largest |Δ| across the loss histories.
    pub max_loss_diff: f32,
}

/// Largest divergence between two training runs across outputs, weights,
/// and loss histories.
pub fn diff_runs(a: &TrainRun, b: &TrainRun) -> ParadigmDiff {
    let mut max_output_diff = 0.0f32;
    let mut max_weight_diff = 0.0f32;
    let mut max_loss_diff = 0.0f32;
    for (oa, ob) in a.outputs.iter().zip(&b.outputs) {
        max_output_diff = max_output_diff.max(oa.max_abs_diff(ob));
    }
    for (wa, wb) in a.experts.iter().zip(&b.experts) {
        for (ba, bb) in wa.iter().zip(wb) {
            for (ea, eb) in ba.iter().zip(bb) {
                max_weight_diff = max_weight_diff
                    .max(ea.w1.max_abs_diff(&eb.w1))
                    .max(ea.w2.max_abs_diff(&eb.w2));
            }
        }
    }
    for (la, lb) in a.losses.iter().zip(&b.losses) {
        for (x, y) in la.iter().zip(lb) {
            max_loss_diff = max_loss_diff.max((x - y).abs());
        }
    }
    ParadigmDiff {
        max_output_diff,
        max_weight_diff,
        max_loss_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::elastic::RoundOpts;
    use crate::paradigm::{Paradigm, ParadigmPolicy};
    use janus_comm::local::local_mesh;
    use janus_comm::FaultPlan;

    const POLICIES: [ParadigmPolicy; 3] = [
        ParadigmPolicy::ExpertCentric,
        ParadigmPolicy::DataCentric,
        ParadigmPolicy::Unified,
    ];

    fn trainer(cfg: &ExecConfig, policy: ParadigmPolicy) -> Trainer {
        Trainer::new(
            cfg,
            &PlanOpts {
                policy,
                ..PlanOpts::default()
            },
        )
    }

    /// Losses, outputs and weights equal element for element — zero
    /// tolerance, and unlike `diff_runs` a NaN anywhere fails it.
    fn assert_bitwise(a: &TrainRun, b: &TrainRun, what: &str) {
        assert_eq!(a.losses, b.losses, "{what}: losses");
        for (oa, ob) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(oa.data(), ob.data(), "{what}: outputs");
        }
        assert_eq!(a.experts, b.experts, "{what}: weights");
    }

    /// The §3.2 claim and the driver claim in one table: on a uniform
    /// and on a paradigm-mixing config, forced expert-centric, forced
    /// data-centric and R-rule plans — each as a plain run and as
    /// fault-free rounds — produce bitwise identical losses, outputs and
    /// weights; and within a policy (the checkpoint embeds the plan
    /// digest) the two drivers cut byte-identical end-of-run checkpoints.
    #[test]
    fn every_policy_through_every_driver_is_bitwise_identical() {
        const ITERS: u64 = 3;
        for (name, cfg) in [
            ("small", ExecConfig::small()),
            ("mixed", ExecConfig::mixed_paradigms()),
        ] {
            let start = Cut::fresh(WorkerState::balanced_placement(&cfg));
            let mut reference: Option<TrainRun> = None;
            for policy in POLICIES {
                let t = trainer(&cfg, policy);
                let plain = t.run_from(
                    local_mesh(cfg.world()),
                    &start,
                    None,
                    ITERS,
                    CheckpointPolicy::EveryN(ITERS),
                );
                let rounds = t
                    .run_rounds(&RoundOpts::default(), ITERS, FaultPlan::default())
                    .unwrap();
                assert_eq!(rounds.recovery.crashes, 0);
                assert_eq!(rounds.recovery.recoveries, 0);
                assert_eq!(rounds.recovery.ckpts_written, ITERS * cfg.world() as u64);
                assert!(rounds.elastic.epochs.is_empty());
                assert!(!rounds.elastic.degraded);
                assert_eq!(rounds.elastic.migrations, 0);
                assert!(plain.ckpts.iter().all(Option::is_some));
                assert_eq!(
                    plain.ckpts, rounds.run.ckpts,
                    "{name}/{policy:?}: checkpoints"
                );
                for (driver, run) in [("plain", plain), ("rounds", rounds.run)] {
                    let what = format!("{name}/{policy:?}/{driver}");
                    for losses in &run.losses {
                        assert!(losses.last() < losses.first(), "{what}: {losses:?}");
                    }
                    match &reference {
                        Some(r) => assert_bitwise(r, &run, &what),
                        None => reference = Some(run),
                    }
                }
            }
        }
        let mixed = trainer(&ExecConfig::mixed_paradigms(), ParadigmPolicy::Unified);
        let paradigms = mixed.plan().paradigms();
        assert!(
            paradigms.contains(&Paradigm::ExpertCentric)
                && paradigms.contains(&Paradigm::DataCentric),
            "the R rule must mix paradigms on the mixed config, got {paradigms:?}"
        );
    }

    #[test]
    fn equivalence_holds_for_top1_gate_and_multi_expert_shards() {
        for cfg in [
            ExecConfig {
                top_k: 1,
                ..ExecConfig::small()
            },
            // 16 experts over 4 workers → 4 experts per worker.
            ExecConfig {
                experts: 16,
                ..ExecConfig::small()
            },
        ] {
            let ec = trainer(&cfg, ParadigmPolicy::ExpertCentric).run(2);
            let dc = trainer(&cfg, ParadigmPolicy::DataCentric).run(2);
            assert_bitwise(&ec, &dc, &format!("{cfg:?}"));
        }
    }

    /// A plain run is one span: it cuts no checkpoint unless asked, and
    /// a run restarted from its end-of-run cut continues it bitwise.
    #[test]
    fn a_run_restarted_from_its_own_cut_continues_bitwise() {
        let cfg = ExecConfig::mixed_paradigms();
        let t = trainer(&cfg, ParadigmPolicy::Unified);
        let whole = t.run(4);
        assert!(whole.ckpts.iter().all(Option::is_none));
        let placement = WorkerState::balanced_placement(&cfg);
        let head = t.run_from(
            local_mesh(cfg.world()),
            &Cut::fresh(placement.clone()),
            None,
            2,
            CheckpointPolicy::EveryN(2),
        );
        let cut = Cut {
            at_iter: 2,
            placement,
            ckpts: head.ckpts,
        };
        let tail = t.run_from(
            local_mesh(cfg.world()),
            &cut,
            None,
            4,
            CheckpointPolicy::Never,
        );
        for rank in 0..cfg.world() {
            assert_eq!(
                whole.losses[rank][2..],
                tail.losses[rank][..],
                "rank {rank}"
            );
            assert_eq!(whole.outputs[rank].data(), tail.outputs[rank].data());
        }
        assert_eq!(whole.experts, tail.experts);
    }
}
