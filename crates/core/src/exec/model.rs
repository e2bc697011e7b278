//! Worker-side model state for the numerical engines.
//!
//! The numerical engines exist to demonstrate the paper's §3.2
//! equivalence claim end to end, so the model is a stack of pure MoE
//! blocks (`y = x + Σ_k wₖ·expertₖ(x)`, top-k gated). Attention layers
//! add identical local compute to both paradigms and are omitted; the
//! simulation engines model their cost instead.

use crate::placement::Placement;
use crate::plan::{IterationPlan, PlanOpts};
use crate::queue::CacheStats;
use janus_comm::TransportStats;
use janus_moe::config::{BlockKind, ModelConfig};
use janus_moe::expert::{ExpertFfn, ExpertGrads, ExpertScratch};
use janus_moe::gate::TopKGate;
use janus_tensor::Matrix;
use janus_topology::{Cluster, ClusterSpec};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The buffered contributions for one owned expert: `(sender, grad,
/// contribution count)` tuples.
pub type GradParts = Vec<(usize, ExpertGrads, u32)>;

/// Gradient contributions addressed to this worker's owned experts,
/// keyed by `(block, expert)`, buffered until all of the world's
/// contributions arrived.
///
/// Lives on [`WorkerState`] (not inside one iteration's runtime) because
/// a fast peer may pass the end-of-iteration barriers and push its
/// next-iteration gradient while this worker is still draining the
/// current iteration's barrier — the contribution must survive into the
/// next iteration instead of being dropped with the old runtime.
#[derive(Default)]
pub struct GradInbox {
    inner: Mutex<HashMap<(usize, usize), GradParts>>,
    changed: Condvar,
}

impl GradInbox {
    /// Empty inbox.
    pub fn new() -> Self {
        GradInbox::default()
    }

    /// Buffer one contribution and wake any waiter.
    pub fn push(&self, key: (usize, usize), sender: usize, grad: ExpertGrads, contributions: u32) {
        self.inner
            .lock()
            .entry(key)
            .or_default()
            .push((sender, grad, contributions));
        self.changed.notify_all();
    }

    /// Lock the underlying map (used by the update fold).
    pub fn lock(&self) -> MutexGuard<'_, HashMap<(usize, usize), GradParts>> {
        self.inner.lock()
    }

    /// Block until a contribution lands or `timeout` elapses — the
    /// event-driven half of the engines' update wait; remote arrivals
    /// still need the caller's bounded-backoff service loop. Returns
    /// `true` when woken by a push, `false` on timeout, so callers can
    /// track how long nothing has arrived and fail loudly instead of
    /// waiting forever.
    pub fn wait_changed(&self, timeout: Duration) -> bool {
        let mut guard = self.inner.lock();
        !self
            .changed
            .wait_until(&mut guard, Instant::now() + timeout)
            .timed_out()
    }
}

/// Deadline/retry policy for data-centric expert pulls. Lives on
/// [`WorkerState`] rather than [`ExecConfig`] so existing configs stay
/// source-compatible; override the field after `init` to tighten it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullRetryPolicy {
    /// How long one pull attempt may wait for its payload before the
    /// request is re-issued (with a fresh nonce).
    pub deadline: Duration,
    /// Total attempts before the iteration fails loudly with a
    /// diagnostic naming the block, expert, and peer.
    pub max_attempts: u32,
}

impl Default for PullRetryPolicy {
    fn default() -> Self {
        // Generous for an in-process mesh: a healthy peer answers in
        // microseconds, so a missed deadline means real trouble (lossy
        // link, wedged peer), and the re-request is cheap.
        PullRetryPolicy {
            deadline: Duration::from_secs(5),
            max_attempts: 6,
        }
    }
}

/// Communication reliability counters accumulated by one worker across
/// its training run: protocol-level pull retries/timeouts plus the
/// transport stack's own delivery counters. Shared (`Arc`) between
/// [`WorkerState`] and the per-iteration runtimes.
#[derive(Default)]
pub struct CommCounters {
    pull_retries: AtomicU64,
    pull_timeouts: AtomicU64,
    /// Monotone source of pull nonces: every pull attempt gets a fresh
    /// one, so a re-request can never be satisfied by a stale payload.
    next_nonce: AtomicU32,
    transport: Mutex<TransportStats>,
    /// Latest cache-effectiveness snapshot (machine-level cache stats +
    /// gradient prefolds), recorded by the data-centric paths.
    cache: Mutex<(CacheStats, u64)>,
    /// Payload bytes this worker addressed to ranks on *other* machines
    /// (dispatch chunks, expert pulls, gradient pushes). Deterministic
    /// for a given seed and placement, so migration experiments can
    /// assert cross-machine traffic dropped, bit for bit.
    remote_bytes: AtomicU64,
    /// Committed expert migrations this worker took part in (as sender,
    /// receiver, or orphan adopter).
    migrations: AtomicU64,
    /// Expert-state bytes moved by those migrations.
    migration_bytes: AtomicU64,
    /// Placement epochs committed past the one the run started from.
    epoch_bumps: AtomicU64,
    /// 1 once the worker runs under a placement with dead ranks.
    degraded: AtomicU64,
}

impl CommCounters {
    /// A pull attempt missed its deadline and was re-issued.
    pub fn record_pull_retry(&self) {
        self.pull_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A pull exhausted its attempt budget.
    pub fn record_pull_timeout(&self) {
        self.pull_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A fresh, worker-unique nonce for the next pull attempt.
    pub fn next_nonce(&self) -> u32 {
        self.next_nonce.fetch_add(1, Ordering::Relaxed)
    }

    /// Replace the transport-stack snapshot ([`janus_comm::Transport::stats`]
    /// is cumulative, so the latest snapshot supersedes earlier ones).
    pub fn record_transport(&self, stats: TransportStats) {
        *self.transport.lock() = stats;
    }

    /// Replace the cache-effectiveness snapshot ([`CacheManager::stats`]
    /// and [`crate::queue::GradAccumulator::prefolds`] are cumulative,
    /// like transport stats). The cache is shared per machine, so every
    /// local worker reports its machine's totals.
    ///
    /// [`CacheManager::stats`]: crate::queue::CacheManager::stats
    pub fn record_cache(&self, stats: CacheStats, grad_prefolds: u64) {
        *self.cache.lock() = (stats, grad_prefolds);
    }

    /// Count payload bytes addressed to a rank on another machine.
    pub fn add_remote_bytes(&self, n: u64) {
        self.remote_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// A committed expert migration moved `bytes` of expert state
    /// through (or into) this worker.
    pub fn record_migration(&self, bytes: u64) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
        self.migration_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A new placement epoch was committed.
    pub fn record_epoch_bump(&self) {
        self.epoch_bumps.fetch_add(1, Ordering::Relaxed);
    }

    /// The worker is running degraded (at least one rank permanently
    /// dead in its placement).
    pub fn set_degraded(&self) {
        self.degraded.store(1, Ordering::Relaxed);
    }

    /// Copy out everything for reporting.
    pub fn snapshot(&self) -> CommSnapshot {
        let t = *self.transport.lock();
        let (c, prefolds) = *self.cache.lock();
        CommSnapshot {
            pull_retries: self.pull_retries.load(Ordering::Relaxed),
            pull_timeouts: self.pull_timeouts.load(Ordering::Relaxed),
            retransmits: t.retransmits,
            duplicates_dropped: t.duplicates_dropped,
            acks_sent: t.acks_sent,
            out_of_order_held: t.out_of_order_held,
            faults_dropped: t.faults_dropped,
            faults_delayed: t.faults_delayed,
            faults_duplicated: t.faults_duplicated,
            jittered_backoffs: t.jittered_backoffs,
            cache_fetches: c.fetches,
            cache_hits: c.hits,
            cache_misses: c.misses,
            grad_prefolds: prefolds,
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            migration_bytes: self.migration_bytes.load(Ordering::Relaxed),
            epoch_bumps: self.epoch_bumps.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of [`CommCounters`] for reporting (the `repro` tool's
/// fault table, test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommSnapshot {
    /// Pull attempts re-issued after a missed deadline.
    pub pull_retries: u64,
    /// Pulls that exhausted their attempt budget.
    pub pull_timeouts: u64,
    /// Frames retransmitted by the reliability layer.
    pub retransmits: u64,
    /// Duplicate frames discarded by sequence-number dedup.
    pub duplicates_dropped: u64,
    /// Cumulative acks sent.
    pub acks_sent: u64,
    /// Frames held for sequence reordering.
    pub out_of_order_held: u64,
    /// Messages dropped by fault injection (including partitions).
    pub faults_dropped: u64,
    /// Messages delayed by fault injection.
    pub faults_delayed: u64,
    /// Messages duplicated by fault injection.
    pub faults_duplicated: u64,
    /// Backoff sleeps shortened by deterministic seeded jitter.
    pub jittered_backoffs: u64,
    /// Expert fetches performed by this worker's machine cache (§5.1.2).
    pub cache_fetches: u64,
    /// Cache lookups served without a cross-machine pull.
    pub cache_hits: u64,
    /// Cache lookups that found nothing ready.
    pub cache_misses: u64,
    /// Gradient contributions folded away by pre-reduction.
    pub grad_prefolds: u64,
    /// Payload bytes addressed to ranks on other machines.
    pub remote_bytes: u64,
    /// Committed expert migrations this worker took part in.
    pub migrations: u64,
    /// Expert-state bytes moved by migrations.
    pub migration_bytes: u64,
    /// Placement epochs committed past the starting one.
    pub epoch_bumps: u64,
    /// 1 when the worker ran degraded (a rank permanently dead).
    pub degraded: u64,
}

impl CommSnapshot {
    /// Field-wise accumulate (used by `TrainRun::comm_totals`).
    pub fn accumulate(&mut self, other: &CommSnapshot) {
        self.pull_retries += other.pull_retries;
        self.pull_timeouts += other.pull_timeouts;
        self.retransmits += other.retransmits;
        self.duplicates_dropped += other.duplicates_dropped;
        self.acks_sent += other.acks_sent;
        self.out_of_order_held += other.out_of_order_held;
        self.faults_dropped += other.faults_dropped;
        self.faults_delayed += other.faults_delayed;
        self.faults_duplicated += other.faults_duplicated;
        self.jittered_backoffs += other.jittered_backoffs;
        self.cache_fetches += other.cache_fetches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.grad_prefolds += other.grad_prefolds;
        self.remote_bytes += other.remote_bytes;
        self.migrations += other.migrations;
        self.migration_bytes += other.migration_bytes;
        self.epoch_bumps += other.epoch_bumps;
        self.degraded = self.degraded.max(other.degraded);
    }
}

/// Configuration of a numerical training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Number of machines.
    pub machines: usize,
    /// Workers (GPUs) per machine.
    pub gpus_per_machine: usize,
    /// Token dimension `H`.
    pub hidden_dim: usize,
    /// Number of (MoE) blocks.
    pub blocks: usize,
    /// Experts per block (divisible by the world size).
    pub experts: usize,
    /// Optional per-block expert counts (length `blocks`); empty means
    /// every block has `experts` experts. Uneven counts give blocks
    /// different `R` values, so a unified plan can mix paradigms.
    pub experts_per_block: Vec<usize>,
    /// Gate fan-out.
    pub top_k: usize,
    /// Tokens per worker per iteration.
    pub tokens: usize,
    /// Base RNG seed; every worker derives the same weights from it.
    pub seed: u64,
    /// SGD learning rate.
    pub lr: f32,
}

impl ExecConfig {
    /// A small default configuration for tests and examples.
    pub fn small() -> Self {
        ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: 8,
            blocks: 2,
            experts: 8,
            experts_per_block: Vec::new(),
            top_k: 2,
            tokens: 16,
            seed: 7,
            lr: 0.05,
        }
    }

    /// A configuration whose compiled plan mixes paradigms: the first
    /// block's `R` exceeds 1 (data-centric) while the second's does not
    /// (expert-centric). Used by the unified-engine equivalence tests.
    pub fn mixed_paradigms() -> Self {
        ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: 8,
            blocks: 2,
            experts: 8,
            // R(b) = tokens·k / (4·n·H·E_per_worker): 64·2/(4·2·8·1) = 2
            // for the 4-expert block, 1 for the 8-expert block.
            experts_per_block: vec![4, 8],
            top_k: 2,
            tokens: 64,
            seed: 7,
            // 0.05 diverges on this shape within ~5 iterations; 0.01
            // trains stably for the longer equivalence runs.
            lr: 0.01,
        }
    }

    /// Total workers.
    pub fn world(&self) -> usize {
        self.machines * self.gpus_per_machine
    }

    /// Machine index of a rank.
    pub fn machine_of(&self, rank: usize) -> usize {
        rank / self.gpus_per_machine
    }

    /// Experts in block `b`.
    pub fn experts_in(&self, b: usize) -> usize {
        if self.experts_per_block.is_empty() {
            self.experts
        } else {
            self.experts_per_block[b]
        }
    }

    /// Experts per worker in block `b`.
    pub fn experts_per_worker_in(&self, b: usize) -> usize {
        let experts = self.experts_in(b);
        assert_eq!(
            experts % self.world(),
            0,
            "block {b}: experts must divide the world size"
        );
        experts / self.world()
    }

    /// Scratch-slot index of `(block, global expert)`: blocks may differ
    /// in expert count, so slots are laid out by prefix sum.
    pub fn scratch_index(&self, b: usize, e: usize) -> usize {
        debug_assert!(e < self.experts_in(b));
        (0..b).map(|p| self.experts_in(p)).sum::<usize>() + e
    }

    /// Total scratch slots across all blocks.
    pub fn scratch_slots(&self) -> usize {
        (0..self.blocks).map(|b| self.experts_in(b)).sum()
    }

    /// The equivalent [`ModelConfig`]: a stack of pure MoE blocks with
    /// `B·S = tokens` per worker, in f32 — the analytic-model view of
    /// this numerical run, used to compile its [`IterationPlan`].
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            name: "exec".to_string(),
            blocks: (0..self.blocks)
                .map(|b| BlockKind::Moe {
                    experts: self.experts_in(b),
                })
                .collect(),
            hidden_dim: self.hidden_dim,
            batch: self.tokens,
            seq_len: 1,
            top_k: self.top_k,
            dtype_bytes: 4,
            vocab: 0,
        }
    }

    /// The cluster this run models.
    pub fn cluster(&self) -> Cluster {
        ClusterSpec::a100(self.machines, self.gpus_per_machine).build()
    }

    /// Compile the iteration plan for this run — the same single
    /// compilation site the simulator uses.
    pub fn compile_plan(&self, opts: &PlanOpts) -> IterationPlan {
        IterationPlan::compile(&self.model_config(), &self.cluster(), opts)
    }
}

/// One worker's model replica + expert shard.
pub struct WorkerState {
    /// Configuration.
    pub cfg: ExecConfig,
    /// This worker's rank.
    pub rank: usize,
    /// Elastic expert placement this worker is executing under. Epoch 0
    /// balanced by default; the elastic driver installs migrated tables.
    /// Shared so the per-iteration runtimes can consult it cheaply.
    pub placement: Arc<Placement>,
    /// Cached `placement.owned_in(b, rank)` per block: `owned[b][i]` is
    /// the global id of `experts[b][i]`.
    pub owned_ids: Vec<Vec<usize>>,
    /// Replicated gates, one per block (identical on every worker).
    pub gates: Vec<TopKGate>,
    /// Owned experts: `experts[block][local_index]`.
    pub experts: Vec<Vec<ExpertFfn>>,
    /// This worker's token batch.
    pub inputs: Matrix,
    /// Cross-iteration inbox of gradient contributions for owned experts
    /// (shared with the iteration runtimes, hence the `Arc`).
    pub grads_inbox: Arc<GradInbox>,
    /// Reusable compute buffers, one slot per `(block, global expert)`
    /// (index `block · experts + expert`). A slot doubles as the
    /// activation tape of its expert between forward and backward, and
    /// its allocations persist across iterations, so steady-state expert
    /// passes are allocation-free. Slots are independent, so the engines
    /// run per-expert compute as parallel tasks, each locking only its
    /// own slot.
    pub scratch: Vec<Mutex<ExpertScratch>>,
    /// Deadline/retry policy for data-centric pulls.
    pub pull_retry: PullRetryPolicy,
    /// Ceiling on any single blocking wait in the engines (cache waits,
    /// gradient-inbox waits): when it elapses the iteration fails with a
    /// diagnostic naming what never arrived instead of hanging forever.
    pub wait_budget: Duration,
    /// Reliability counters for this worker's run (shared with the
    /// iteration runtimes; the `repro` tool prints the snapshot).
    pub comm: Arc<CommCounters>,
}

impl WorkerState {
    /// Deterministic initialization: gates and experts depend only on
    /// `(seed, block, expert)` — *not* on which worker materializes them —
    /// so every engine builds bit-identical weights.
    pub fn init(cfg: &ExecConfig, rank: usize) -> Self {
        Self::init_placed(cfg, rank, Self::balanced_placement(cfg))
    }

    /// The epoch-0 balanced placement for `cfg` (the static layout).
    pub fn balanced_placement(cfg: &ExecConfig) -> Placement {
        let counts: Vec<usize> = (0..cfg.blocks).map(|b| cfg.experts_in(b)).collect();
        Placement::balanced(&counts, cfg.world())
    }

    /// [`init`](Self::init) under an explicit placement: the worker
    /// materializes exactly the experts the table assigns it, in
    /// ascending global-id order. Because expert weights are seeded by
    /// `(seed, block, expert)` alone, a fresh worker can be launched
    /// from *any* placement with bit-identical initial weights — the
    /// reference runs of the migration chaos tests rely on this.
    pub fn init_placed(cfg: &ExecConfig, rank: usize, placement: Placement) -> Self {
        placement.assert_valid();
        assert_eq!(placement.world(), cfg.world(), "placement world mismatch");
        let gates = (0..cfg.blocks)
            .map(|b| {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xA11CE << 8) ^ b as u64);
                TopKGate::new(cfg.hidden_dim, cfg.experts_in(b), cfg.top_k, &mut rng)
            })
            .collect();
        let owned_ids: Vec<Vec<usize>> = (0..cfg.blocks)
            .map(|b| placement.owned_in(b, rank))
            .collect();
        let experts = owned_ids
            .iter()
            .enumerate()
            .map(|(b, ids)| {
                ids.iter()
                    .map(|&e| expert_weights(cfg, b, e))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xDA7A << 16) ^ rank as u64);
        let inputs = Matrix::uniform(cfg.tokens, cfg.hidden_dim, 1.0, &mut rng);
        let scratch = (0..cfg.scratch_slots())
            .map(|_| Mutex::new(ExpertScratch::new()))
            .collect();
        WorkerState {
            cfg: cfg.clone(),
            rank,
            placement: Arc::new(placement),
            owned_ids,
            gates,
            experts,
            inputs,
            grads_inbox: Arc::new(GradInbox::new()),
            scratch,
            pull_retry: PullRetryPolicy::default(),
            // Generous: a healthy mesh resolves any wait in microseconds,
            // so a blown budget means a peer is gone, not slow.
            wait_budget: Duration::from_secs(60),
            comm: Arc::new(CommCounters::default()),
        }
    }

    /// The scratch slot of `(block, global expert)`.
    pub fn scratch_slot(&self, block: usize, e: usize) -> &Mutex<ExpertScratch> {
        &self.scratch[self.cfg.scratch_index(block, e)]
    }

    /// The canonical initial weights of global expert `e` in block `b`.
    pub fn reference_expert(cfg: &ExecConfig, b: usize, e: usize) -> ExpertFfn {
        expert_weights(cfg, b, e)
    }

    /// Local shard index of an owned expert, panicking with the expert
    /// named when the placement does not assign it here.
    pub fn local_index(&self, block: usize, e: usize) -> usize {
        match self.owned_ids[block].binary_search(&e) {
            Ok(i) => i,
            Err(_) => panic!(
                "expert {e} (block {block}) not owned by rank {} under placement epoch {}",
                self.rank, self.placement.epoch
            ),
        }
    }

    /// Shared access to an owned expert by global id.
    pub fn owned(&self, block: usize, e: usize) -> &ExpertFfn {
        let i = self.local_index(block, e);
        &self.experts[block][i]
    }

    /// Re-shard the worker onto `next`: experts owned under both tables
    /// are carried over bitwise, experts gained are requested from
    /// `provide` (the migration protocol hands over the sender's blob,
    /// or a checkpointed orphan), experts lost are dropped. The swap is
    /// atomic from the engines' point of view — it happens between
    /// iterations, after the commit barrier.
    pub fn remap_experts(
        &mut self,
        next: Placement,
        mut provide: impl FnMut(usize, usize) -> ExpertFfn,
    ) {
        next.assert_valid();
        assert_eq!(next.world(), self.cfg.world(), "placement world mismatch");
        let mut new_experts = Vec::with_capacity(self.cfg.blocks);
        let mut new_owned = Vec::with_capacity(self.cfg.blocks);
        for b in 0..self.cfg.blocks {
            let ids = next.owned_in(b, self.rank);
            let shard = ids
                .iter()
                .map(|&e| match self.owned_ids[b].binary_search(&e) {
                    Ok(i) => self.experts[b][i].clone(),
                    Err(_) => provide(b, e),
                })
                .collect();
            new_experts.push(shard);
            new_owned.push(ids);
        }
        self.experts = new_experts;
        self.owned_ids = new_owned;
        self.placement = Arc::new(next);
    }
}

fn expert_weights(cfg: &ExecConfig, b: usize, e: usize) -> ExpertFfn {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0_0000 ^ ((b as u64) << 32) ^ e as u64);
    ExpertFfn::new(cfg.hidden_dim, &mut rng)
}

/// The training loss: `L = ½‖y‖²` over the worker's final
/// output, whose gradient is simply `y`.
pub fn loss_and_grad(y: &Matrix) -> (f32, Matrix) {
    let loss = 0.5 * y.data().iter().map(|v| v * v).sum::<f32>();
    (loss, y.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_helpers() {
        let cfg = ExecConfig::small();
        assert_eq!(cfg.world(), 4);
        assert_eq!(cfg.machine_of(3), 1);
    }

    #[test]
    fn per_block_layout_helpers() {
        let cfg = ExecConfig::mixed_paradigms();
        assert_eq!(cfg.experts_in(0), 4);
        assert_eq!(cfg.experts_in(1), 8);
        assert_eq!(cfg.experts_per_worker_in(0), 1);
        assert_eq!(cfg.experts_per_worker_in(1), 2);
        assert_eq!(cfg.scratch_index(0, 3), 3);
        assert_eq!(cfg.scratch_index(1, 0), 4);
        assert_eq!(cfg.scratch_slots(), 12);
        // Uniform configs keep the legacy layout.
        let small = ExecConfig::small();
        assert_eq!(small.experts_in(1), small.experts);
        assert_eq!(small.scratch_index(1, 0), small.experts);
    }

    #[test]
    fn exec_bridge_compiles_a_mixed_plan() {
        use crate::paradigm::Paradigm;
        let cfg = ExecConfig::mixed_paradigms();
        let plan = cfg.compile_plan(&PlanOpts::default());
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.blocks[0].paradigm, Paradigm::DataCentric);
        assert_eq!(plan.blocks[1].paradigm, Paradigm::ExpertCentric);
        assert_eq!(plan.blocks[0].r, Some(2.0));
        assert_eq!(plan.blocks[1].r, Some(1.0));
    }

    #[test]
    fn init_is_rank_consistent() {
        let cfg = ExecConfig::small();
        let w0 = WorkerState::init(&cfg, 0);
        let w1 = WorkerState::init(&cfg, 1);
        // Same gates everywhere.
        assert_eq!(w0.gates[0], w1.gates[0]);
        // Different input tokens per worker.
        assert_ne!(w0.inputs, w1.inputs);
        // Expert weights depend only on (block, expert id).
        assert_eq!(w1.experts[0][0], WorkerState::reference_expert(&cfg, 0, 2));
    }

    #[test]
    fn owned_accessors_check_ownership() {
        let cfg = ExecConfig::small();
        let w1 = WorkerState::init(&cfg, 1);
        let _ = w1.owned(0, 2);
        let _ = w1.owned(1, 3);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_expert_access_panics() {
        let cfg = ExecConfig::small();
        let w1 = WorkerState::init(&cfg, 1);
        let _ = w1.owned(0, 0);
    }

    #[test]
    fn loss_gradient_is_identity() {
        let y = Matrix::from_rows(&[&[3.0, 4.0]]);
        let (l, g) = loss_and_grad(&y);
        assert!((l - 12.5).abs() < 1e-6);
        assert_eq!(g, y);
    }

    /// Counters accumulate, nonces never repeat, and the transport
    /// snapshot is a replacement (transport stats are cumulative), not a
    /// running sum.
    #[test]
    fn comm_counters_snapshot_roundtrip() {
        let c = CommCounters::default();
        assert_eq!(c.snapshot(), CommSnapshot::default());
        assert_ne!(c.next_nonce(), c.next_nonce(), "nonces must be unique");
        c.record_pull_retry();
        c.record_pull_retry();
        c.record_pull_timeout();
        c.record_transport(TransportStats {
            retransmits: 5,
            faults_dropped: 2,
            ..TransportStats::default()
        });
        c.record_transport(TransportStats {
            retransmits: 7,
            faults_dropped: 3,
            acks_sent: 1,
            ..TransportStats::default()
        });
        let snap = c.snapshot();
        assert_eq!(snap.pull_retries, 2);
        assert_eq!(snap.pull_timeouts, 1);
        assert_eq!(snap.retransmits, 7, "latest snapshot supersedes");
        assert_eq!(snap.faults_dropped, 3);
        assert_eq!(snap.acks_sent, 1);
    }
}
