//! Numerical data-centric training iteration (the Janus paradigm).
//!
//! Tokens never leave their worker. Per block, each worker computes every
//! expert over its own routed slots, fetching non-resident expert weights
//! through the Janus Task Queue machinery:
//!
//! * the per-machine [`CacheManager`] deduplicates cross-machine fetches
//!   (each external expert crosses the fabric once per machine, §5.1.2);
//! * a designated local worker fetches each external expert for its
//!   machine and inserts it into the shared cache; siblings block on the
//!   cache's condition variable — woken the instant the insert lands —
//!   while staying responsive to pull requests through a bounded-backoff
//!   service pass (asynchronous communication, §5.1.1);
//! * internal experts are pulled directly from their local owner;
//! * a worker's internal and designated external pulls for a block go out
//!   as one pipeline in the staggered owner order of Algorithm 1, at most
//!   the plan's `credits` outstanding at once ([`CreditBuffer`]); payloads
//!   are claimed as they land while the worker keeps serving peers;
//! * backward gradients of external experts are pre-reduced by a
//!   designated local aggregator through [`GradAccumulator`] before one
//!   message per (machine, expert) returns to the owner; internal
//!   gradients go straight to the owner;
//! * owners update weights only after every worker's contribution landed,
//!   then the cache is invalidated — so no stale weights can leak across
//!   iterations and the computation is equivalent to the All-to-All
//!   baseline (paper §3.2).
//!
//! The per-block bodies ([`forward_block`], [`backward_block`]) and the
//! update/teardown steps ([`wait_and_apply_updates`], [`finish_iteration`])
//! are what [`unified::run_iteration`](crate::exec::unified::run_iteration)
//! dispatches a data-centric block to; an all-data-centric run is a plan
//! compiled with `ParadigmPolicy::DataCentric`.

use crate::exec::model::{CommCounters, ExecConfig, GradInbox, PullRetryPolicy, WorkerState};
use crate::exec::obs;
use crate::exec::weights::{expert_from_bytes, expert_to_bytes, grads_from_bytes, grads_to_bytes};
use crate::placement::Placement;
use crate::queue::credit::CreditGuard;
use crate::queue::{CacheManager, CreditBuffer, GradAccumulator};
use janus_comm::{Comm, CommError, Message, Transport};
use janus_moe::expert::{ExpertFfn, ExpertGrads};
use janus_obs::SpanGuard;
use janus_tensor::{pool, Matrix};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded backoff for waits that must keep servicing the protocol: start
/// small to catch imminent events, double up to a cap so an idle worker
/// never spins and never oversleeps a peer's request by more than the cap.
const BACKOFF_MIN: Duration = Duration::from_micros(10);
const BACKOFF_MAX: Duration = Duration::from_micros(200);

fn backoff_next(d: Duration) -> Duration {
    (d * 2).min(BACKOFF_MAX)
}

/// State shared by the workers of one machine: the Inter-Node Scheduler's
/// cache and gradient pre-reduction accumulator.
pub struct MachineShared {
    /// Expert cache, keyed by `(block, expert)`.
    pub cache: CacheManager<ExpertFfn>,
    /// Gradient pre-reduction, expecting one contribution per local GPU.
    pub grads: GradAccumulator<ExpertGrads>,
}

impl MachineShared {
    /// Shared state for a machine with `gpus` contributing workers.
    pub fn new(gpus: usize) -> Self {
        MachineShared {
            cache: CacheManager::new(),
            grads: GradAccumulator::new(gpus),
        }
    }

    /// Build one shared state per machine.
    pub fn for_cluster(cfg: &ExecConfig) -> Vec<Arc<MachineShared>> {
        (0..cfg.machines)
            .map(|_| Arc::new(MachineShared::new(cfg.gpus_per_machine)))
            .collect()
    }

    /// Build one shared state per machine under an elastic placement:
    /// the gradient pre-reduction expects one contribution per *live*
    /// local worker (a machine with no live workers gets a placeholder
    /// that nothing will ever touch).
    pub fn for_cluster_placed(cfg: &ExecConfig, placement: &Placement) -> Vec<Arc<MachineShared>> {
        (0..cfg.machines)
            .map(|m| {
                let live = placement.live_locals(m, cfg.gpus_per_machine).len();
                Arc::new(MachineShared::new(live.max(1)))
            })
            .collect()
    }
}

/// The data-centric protocol endpoint of one worker: serves pull requests
/// and gradient pushes, pulls experts, and waits on shared state without
/// going deaf to peers. Holds no borrow of [`WorkerState`], so per-block
/// routines can take the state mutably alongside it.
pub(crate) struct DcRuntime<'a, T: Transport> {
    comm: &'a Comm<T>,
    cfg: ExecConfig,
    rank: usize,
    machine: usize,
    /// Elastic expert placement the iteration executes under.
    placement: Arc<Placement>,
    shared: &'a MachineShared,
    /// Snapshot of owned expert weights served to peers. Stable during
    /// the iteration (updates land only at the end) and refreshed right
    /// after the update, because peers that already passed the
    /// end-of-iteration barriers pull next-iteration weights while this
    /// worker is still draining its own barrier.
    serving: RefCell<Vec<Vec<ExpertFfn>>>,
    /// Persistent inbox of gradient contributions for owned experts
    /// (outlives the iteration; see [`GradInbox`]).
    owner_grads: Arc<GradInbox>,
    /// Deadline/retry policy for pulls (from [`WorkerState::pull_retry`]).
    retry: PullRetryPolicy,
    /// Ceiling on any blocking wait (from [`WorkerState::wait_budget`]).
    wait_budget: Duration,
    /// Reliability counters shared with the worker.
    counters: Arc<CommCounters>,
}

impl<'a, T: Transport> DcRuntime<'a, T> {
    /// A runtime serving `state`'s current weights.
    pub(crate) fn new(comm: &'a Comm<T>, state: &WorkerState, shared: &'a MachineShared) -> Self {
        DcRuntime {
            comm,
            cfg: state.cfg.clone(),
            rank: state.rank,
            machine: state.cfg.machine_of(state.rank),
            placement: state.placement.clone(),
            shared,
            serving: RefCell::new(state.experts.clone()),
            owner_grads: state.grads_inbox.clone(),
            retry: state.pull_retry,
            wait_budget: state.wait_budget,
            counters: state.comm.clone(),
        }
    }

    /// Handle one protocol message if it belongs to this engine.
    /// Returns false for messages some other wait loop should claim.
    pub(crate) fn service(&self, from: usize, msg: &Message) -> bool {
        match msg {
            Message::PullRequest {
                block,
                expert,
                nonce,
            } => {
                let (b, e) = (*block as usize, *expert as usize);
                assert_eq!(
                    self.placement.owner_of(b, e),
                    self.rank,
                    "pull request routed to non-owner"
                );
                let local = self.placement.local_index(b, e);
                let data = expert_to_bytes(&self.serving.borrow()[b][local]);
                if self.cfg.machine_of(from) != self.machine {
                    self.counters.add_remote_bytes(data.len() as u64);
                }
                self.comm
                    .send(
                        from,
                        Message::ExpertPayload {
                            block: *block,
                            expert: *expert,
                            nonce: *nonce,
                            data,
                        },
                    )
                    .expect("serving an expert payload");
                true
            }
            Message::ExpertPayload { .. } => {
                // A live pull claims its payload by nonce through its own
                // predicate before the service path ever sees it, so any
                // payload reaching here is the stale answer to an attempt
                // that already missed its deadline: discard it.
                true
            }
            Message::GradPush {
                block,
                expert,
                contributions,
                data,
            } => {
                let (b, e) = (*block as usize, *expert as usize);
                let grad = grads_from_bytes(data.clone()).expect("decode gradient");
                if self.placement.owner_of(b, e) == self.rank {
                    self.add_owner_grad(b, e, from, grad, *contributions);
                } else {
                    debug_assert_eq!(
                        self.placement
                            .designated_local(self.machine, e, self.cfg.gpus_per_machine),
                        self.rank,
                        "gradient push routed to non-aggregator"
                    );
                    self.aggregate_external(b, e, from, grad, *contributions);
                }
                true
            }
            _ => false,
        }
    }

    fn add_owner_grad(
        &self,
        b: usize,
        e: usize,
        sender: usize,
        grad: ExpertGrads,
        contributions: u32,
    ) {
        self.owner_grads.push((b, e), sender, grad, contributions);
    }

    /// Fold a local contribution into the machine's pre-reduction; ship
    /// the pre-reduced gradient to the owner once all local workers have
    /// contributed.
    fn aggregate_external(
        &self,
        b: usize,
        e: usize,
        sender: usize,
        grad: ExpertGrads,
        contributions: u32,
    ) {
        debug_assert_eq!(contributions, 1, "aggregators receive raw contributions");
        if let Some((reduced, n)) = self
            .shared
            .grads
            .add((b, e), sender, grad, |acc, g| acc.accumulate(&g))
        {
            // The per-machine NIC flow of the pre-reduced gradient — the
            // real counterpart of the simulator's `grad-ext` transfer,
            // machine-scoped in the drift report.
            let _span = obs::span(self.rank, "comm", || {
                (format!("grad_ext/b{b}/e{e}"), format!("b{b}"))
            });
            let owner = self.placement.owner_of(b, e);
            let data = grads_to_bytes(&reduced);
            if self.cfg.machine_of(owner) != self.machine {
                self.counters.add_remote_bytes(data.len() as u64);
            }
            self.comm
                .send(
                    owner,
                    Message::GradPush {
                        block: b as u32,
                        expert: e as u32,
                        contributions: n as u32,
                        data,
                    },
                )
                .expect("shipping pre-reduced gradient");
        }
    }

    /// This rank's pulls for block `b`, in issue order: Algorithm 1's
    /// staggered owner order generalised to the live placement — owners
    /// `rank+1, rank+2, …` (mod world), each owner's experts ascending —
    /// so no owner is everyone's first stop (Figure 7a's pile-on).
    /// Internal experts are pulled from their local owner; an external
    /// expert only when this rank is its machine's designated fetcher
    /// (siblings read it from the shared cache). Yields
    /// `(expert, owner, external)`.
    fn block_pulls(&self, b: usize) -> Vec<(usize, usize, bool)> {
        let world = self.cfg.world();
        let gpus = self.cfg.gpus_per_machine;
        let mut pulls = Vec::new();
        for owner in (1..world).map(|d| (self.rank + d) % world) {
            if !self.placement.is_live(owner) {
                continue;
            }
            let external = self.cfg.machine_of(owner) != self.machine;
            for e in self.placement.owned_in(b, owner) {
                if !external || self.placement.designated_local(self.machine, e, gpus) == self.rank
                {
                    pulls.push((e, owner, external));
                }
            }
        }
        pulls
    }

    /// Send one pull attempt for `(b, e)` to `owner` under a fresh nonce.
    fn request(&self, b: usize, e: usize, owner: usize) -> Result<u32, CommError> {
        let nonce = self.counters.next_nonce();
        self.comm.send(
            owner,
            Message::PullRequest {
                block: b as u32,
                expert: e as u32,
                nonce,
            },
        )?;
        Ok(nonce)
    }

    /// Issue one pull: take its credit, open its spans, send attempt 1.
    fn issue<'c>(
        &self,
        b: usize,
        (e, owner, external): (usize, usize, bool),
        credit: CreditGuard<'c>,
    ) -> Result<InFlight<'c>, CommError> {
        let rank = self.rank;
        // The machine-level fetch of a designated external expert (sim:
        // `prefetch`) wraps the wire pull itself.
        let prefetch_span = if external {
            obs::span(rank, "comm", || {
                (format!("prefetch/b{b}/e{e}"), format!("b{b}"))
            })
        } else {
            None
        };
        let pull_span = obs::span(rank, "comm", || {
            (format!("pull/b{b}/e{e}"), format!("b{b}"))
        });
        let started = Instant::now();
        Ok(InFlight {
            e,
            owner,
            external,
            nonce: self.request(b, e, owner)?,
            attempt: 1,
            started,
            deadline: started + self.retry.deadline,
            _credit: credit,
            prefetch_span,
            pull_span,
        })
    }

    /// Re-request every in-flight pull whose attempt missed its deadline,
    /// under a fresh nonce (a stale payload from the earlier attempt can
    /// never satisfy the new one). A pull whose attempt budget is spent
    /// fails the iteration with a diagnostic naming the expert, block,
    /// peer and requesting rank instead of hanging.
    fn reissue_overdue(&self, b: usize, inflight: &mut [InFlight<'_>]) -> Result<(), CommError> {
        let now = Instant::now();
        let attempts = self.retry.max_attempts.max(1);
        for p in inflight.iter_mut().filter(|p| p.deadline <= now) {
            if p.attempt >= attempts {
                self.counters.record_pull_timeout();
                return Err(CommError::Timeout {
                    context: format!(
                        "data-centric pull of expert {} (block {b}) from peer rank {} by rank {}",
                        p.e, p.owner, self.rank
                    ),
                    attempts,
                    elapsed: p.started.elapsed(),
                });
            }
            self.counters.record_pull_retry();
            p.attempt += 1;
            p.nonce = self.request(b, p.e, p.owner)?;
            p.deadline = now + self.retry.deadline;
        }
        Ok(())
    }

    /// Pull every expert [`DcRuntime::block_pulls`] names for block `b`
    /// as one pipeline (§5.1.1): requests go out in issue order while a
    /// credit is free, so at most `credits` are outstanding at once;
    /// payloads are claimed by (block, expert, nonce) in whatever order
    /// they land, and peers are served on this thread meanwhile. A landed
    /// payload returns its credit, which lets the next request out.
    /// Designated externals are inserted into the machine's cache the
    /// moment they land; internal experts are returned, indexed by
    /// expert.
    fn pull_block(
        &self,
        b: usize,
        experts: usize,
        credits: u32,
    ) -> Result<Vec<Option<ExpertFfn>>, CommError> {
        let buffer = CreditBuffer::new(credits.max(1));
        let mut queue = self.block_pulls(b).into_iter().peekable();
        let mut inflight: Vec<InFlight<'_>> = Vec::new();
        let mut landed: Vec<Option<ExpertFfn>> = (0..experts).map(|_| None).collect();
        // Open while the head of the queue waits for a credit.
        let mut credit_span = None;
        loop {
            while let Some(&next) = queue.peek() {
                let Some(credit) = buffer.try_acquire(1) else {
                    if credit_span.is_none() {
                        credit_span = obs::span(self.rank, "comm", || {
                            (format!("credit_wait/b{b}/e{}", next.0), format!("b{b}"))
                        });
                    }
                    break;
                };
                obs::end_into(credit_span.take(), "janus_credit_wait_us");
                inflight.push(self.issue(b, next, credit)?);
                queue.next();
            }
            let Some(deadline) = inflight.iter().map(|p| p.deadline).min() else {
                return Ok(landed);
            };
            let got = self.comm.recv_match_or_consume_deadline(
                |_, m| {
                    matches!(m, Message::ExpertPayload { block, expert, nonce, .. }
                        if *block == b as u32
                            && inflight.iter().any(|p| p.e == *expert as usize && p.nonce == *nonce))
                },
                |from, m| self.service(from, m),
                deadline,
            )?;
            match got {
                Some((_, Message::ExpertPayload { expert, data, .. })) => {
                    let i = inflight
                        .iter()
                        .position(|p| p.e == expert as usize)
                        .expect("predicate admits only in-flight pulls");
                    let p = inflight.swap_remove(i);
                    let weights = expert_from_bytes(data)?;
                    obs::end_into(p.pull_span, "janus_pull_latency_us");
                    if p.external {
                        self.shared.cache.insert((b, p.e), weights);
                        obs::end_into(p.prefetch_span, "janus_prefetch_us");
                    } else {
                        landed[p.e] = Some(weights);
                    }
                }
                Some(_) => unreachable!("predicate admits only the payload"),
                None => self.reissue_overdue(b, &mut inflight)?,
            }
        }
    }

    /// Wait for a cache entry inserted by a sibling's fetch. Event-driven:
    /// blocks on the cache's condition variable — woken the moment the
    /// insert lands — with a bounded backoff so the worker still surfaces
    /// periodically to serve protocol traffic addressed to it.
    fn wait_cached(&self, b: usize, e: usize) -> Result<Arc<ExpertFfn>, CommError> {
        let span = obs::span(self.rank, "comm", || {
            (format!("cache_wait/b{b}/e{e}"), format!("b{b}"))
        });
        let result = self.wait_cached_inner(b, e);
        obs::end_into(span, "janus_cache_wait_us");
        result
    }

    fn wait_cached_inner(&self, b: usize, e: usize) -> Result<Arc<ExpertFfn>, CommError> {
        let start = Instant::now();
        let mut backoff = BACKOFF_MIN;
        loop {
            if let Some(v) = self.shared.cache.wait_for((b, e), backoff) {
                return Ok(v);
            }
            if start.elapsed() > self.wait_budget {
                let fetcher =
                    self.placement
                        .designated_local(self.machine, e, self.cfg.gpus_per_machine);
                return Err(CommError::Timeout {
                    context: format!(
                        "cache wait for expert {e} (block {b}) by rank {}: designated \
                         fetcher rank {fetcher} never inserted it",
                        self.rank
                    ),
                    attempts: 1,
                    elapsed: start.elapsed(),
                });
            }
            let handled = self.comm.service_pass(|from, m| self.service(from, m))?;
            backoff = if handled == 0 {
                backoff_next(backoff)
            } else {
                BACKOFF_MIN
            };
        }
    }

    /// Barrier among the live ranks that keeps serving while waiting.
    pub(crate) fn barrier(&self, epoch: u64) -> Result<(), CommError> {
        let _span = obs::span(self.rank, "sync", || {
            (format!("barrier/{epoch}"), "sync".to_string())
        });
        let world = self.cfg.world();
        for peer in 0..world {
            if peer != self.rank && self.placement.is_live(peer) {
                self.comm.send(peer, Message::Barrier { epoch })?;
            }
        }
        let expected = self.placement.live_count().saturating_sub(1);
        let mut seen = vec![false; world];
        for _ in 0..expected {
            let (from, _) = self.comm.recv_match_or_consume(
                |from, m| matches!(m, Message::Barrier { epoch: e } if *e == epoch) && !seen[from],
                |from, m| self.service(from, m),
            )?;
            seen[from] = true;
        }
        Ok(())
    }

    /// Refresh the served snapshot to `state`'s current (just-updated)
    /// weights: any pull arriving from here on is a next-iteration request
    /// from a peer that already passed the end-of-iteration barriers, and
    /// must see the new weights.
    pub(crate) fn refresh_serving(&self, state: &WorkerState) {
        self.serving.replace(state.experts.clone());
    }
}

/// Per-block forward bookkeeping: for every expert, the fetched/local
/// weights and the token slots `(token, weight)` it processed. The
/// activation tape itself (inputs, pre-activations, hidden) lives in the
/// expert's [`WorkerState::scratch`] slot, held there between forward
/// and backward so the pass stays allocation-free.
pub(crate) struct BlockTapeDc {
    per_expert: Vec<ExpertAssignment>,
}

/// An expert's fetched/local weights plus its `(token, weight)` slots.
type ExpertAssignment = (Arc<ExpertFfn>, Vec<(usize, f32)>);

/// One pull of a block's pipeline, waiting for its payload.
struct InFlight<'c> {
    e: usize,
    owner: usize,
    /// A designated external fetch, which lands in the machine's cache.
    external: bool,
    /// Nonce of the current attempt; only its payload is claimed.
    nonce: u32,
    attempt: u32,
    started: Instant,
    deadline: Instant,
    /// Returned when the payload lands: bounds the requests outstanding
    /// at once to the plan's credit budget.
    _credit: CreditGuard<'c>,
    prefetch_span: Option<SpanGuard<'static>>,
    pull_span: Option<SpanGuard<'static>>,
}

/// Data-centric forward for one block: hierarchical fetch as one pull
/// pipeline of at most `credits` outstanding requests, per-expert compute
/// over this worker's own tokens, combine on the residual stream.
pub(crate) fn forward_block<T: Transport>(
    rt: &DcRuntime<'_, T>,
    state: &WorkerState,
    b: usize,
    x: &Matrix,
    credits: u32,
) -> Result<(Matrix, BlockTapeDc), CommError> {
    let cfg = &state.cfg;
    let rank = state.rank;
    let machine = cfg.machine_of(rank);
    let placement = &state.placement;
    let experts = cfg.experts_in(b);
    let routing = state.gates[b].route(x);

    // Pull this worker's internal experts and its designated share of
    // the machine's external experts (the Inter-Node Scheduler's
    // hierarchical fetch, landing in the shared cache), then assemble
    // every expert's weights: own ones resident, internal ones pulled,
    // external ones from the cache a sibling (or this worker) filled.
    let pulled = rt.pull_block(b, experts, credits)?;
    let mut per_expert = Vec::with_capacity(experts);
    for (e, pulled) in pulled.into_iter().enumerate() {
        let owner = placement.owner_of(b, e);
        let weights: Arc<ExpertFfn> = if owner == rank {
            Arc::new(state.owned(b, e).clone())
        } else if cfg.machine_of(owner) == machine {
            Arc::new(pulled.expect("every internal expert was pulled"))
        } else {
            rt.wait_cached(b, e)?
        };
        per_expert.push((weights, routing.tokens_for(e)));
    }
    drop(routing);

    // Per-expert forward passes are independent: run them as parallel
    // tasks, each locking only its own scratch slot.
    {
        let per_expert = &per_expert;
        pool::run_tasks(experts, |e| {
            let _span = obs::span(rank, "compute", || {
                (format!("fwd/b{b}/e{e}"), format!("b{b}"))
            });
            let (weights, slots) = &per_expert[e];
            let idx: Vec<usize> = slots.iter().map(|(t, _)| *t).collect();
            let mut s = state.scratch_slot(b, e).lock();
            x.gather_rows_into(&idx, &mut s.x);
            weights.forward_scratch(&mut s);
        });
    }

    // Combine in expert-ascending order — the same accumulation order
    // as the expert-centric combine, and independent of how the
    // parallel tasks were scheduled.
    let mut y = x.clone();
    for (e, (_, slots)) in per_expert.iter().enumerate() {
        let s = state.scratch_slot(b, e).lock();
        let idx: Vec<usize> = slots.iter().map(|(t, _)| *t).collect();
        let ws: Vec<f32> = slots.iter().map(|(_, w)| *w).collect();
        y.scatter_add_rows(&idx, &ws, &s.y);
    }
    Ok((y, BlockTapeDc { per_expert }))
}

/// Data-centric backward for one block: per-expert backward against the
/// recorded tape, combine input gradients, route weight gradients.
pub(crate) fn backward_block<T: Transport>(
    rt: &DcRuntime<'_, T>,
    state: &WorkerState,
    b: usize,
    tape: &BlockTapeDc,
    dy: &Matrix,
) -> Result<Matrix, CommError> {
    let cfg = &state.cfg;
    let rank = state.rank;
    let machine = cfg.machine_of(rank);

    // Per-expert backward passes in parallel, against the activation
    // tape each scratch slot recorded during forward.
    {
        let per_expert = &tape.per_expert;
        pool::run_tasks(per_expert.len(), |e| {
            let _span = obs::span(rank, "compute", || {
                (format!("bwd/b{b}/e{e}"), format!("b{b}"))
            });
            let (weights, slots) = &per_expert[e];
            let idx: Vec<usize> = slots.iter().map(|(t, _)| *t).collect();
            let mut s = state.scratch_slot(b, e).lock();
            // dY for this expert's slots: w · dy[token]. Staged through
            // the slot's `dy` buffer (taken out so the pass can borrow
            // the scratch mutably).
            let mut dy_e = std::mem::take(&mut s.dy);
            dy.gather_rows_into(&idx, &mut dy_e);
            for (row, (_, w)) in (0..dy_e.rows()).zip(slots.iter()) {
                for v in dy_e.row_mut(row) {
                    *v *= *w;
                }
            }
            weights.backward_scratch(&dy_e, &mut s);
            s.dy = dy_e;
        });
    }

    // Combine input gradients and route weight gradients, experts
    // ascending — deterministic regardless of task scheduling.
    let mut dx = dy.clone();
    for (e, (_, slots)) in tape.per_expert.iter().enumerate() {
        let s = state.scratch_slot(b, e).lock();
        let idx: Vec<usize> = slots.iter().map(|(t, _)| *t).collect();
        dx.scatter_add_rows(&idx, &vec![1.0; idx.len()], &s.dx);

        // Route the gradient: own → local sum; internal → owner
        // directly; external → local aggregator for pre-reduction.
        let owner = state.placement.owner_of(b, e);
        if owner == rank {
            rt.add_owner_grad(b, e, rank, s.grad.clone(), 1);
        } else if cfg.machine_of(owner) == machine {
            // NVLink push straight to the owner (sim: `grad-int`).
            let _span = obs::span(rank, "comm", || {
                (format!("grad_push/b{b}/e{e}"), format!("b{b}"))
            });
            rt.comm.send(
                owner,
                Message::GradPush {
                    block: b as u32,
                    expert: e as u32,
                    contributions: 1,
                    data: grads_to_bytes(&s.grad),
                },
            )?;
        } else {
            let agg = state
                .placement
                .designated_local(machine, e, cfg.gpus_per_machine);
            if agg == rank {
                rt.aggregate_external(b, e, rank, s.grad.clone(), 1);
            } else {
                // Contribution to the machine's pre-reduction (sim:
                // `grad-acc`).
                let _span = obs::span(rank, "comm", || {
                    (format!("grad_push/b{b}/e{e}"), format!("b{b}"))
                });
                rt.comm.send(
                    agg,
                    Message::GradPush {
                        block: b as u32,
                        expert: e as u32,
                        contributions: 1,
                        data: grads_to_bytes(&s.grad),
                    },
                )?;
            }
        }
    }
    Ok(dx)
}

/// Wait until every owned expert of every block in `blocks` has all W
/// contributions in the inbox, then fold each in ascending sender order
/// (bitwise independent of message arrival order) and apply the SGD step.
/// The wait services aggregation and pull traffic between inbox checks,
/// sleeping on the inbox's condition variable with bounded backoff. The
/// whole wait is capped by [`WorkerState::wait_budget`]: when it blows,
/// the error names every `(block, expert)` still short of contributions
/// and how many arrived, so a dead pusher is identified, not guessed at.
pub(crate) fn wait_and_apply_updates<T: Transport>(
    rt: &DcRuntime<'_, T>,
    state: &mut WorkerState,
    blocks: &[usize],
) -> Result<(), CommError> {
    let cfg = state.cfg.clone();
    let rank = state.rank;
    // Every live rank contributes a gradient for every expert (a rank
    // with zero routed tokens still pushes a zero gradient); dead ranks
    // contribute nothing, so the expected count shrinks with the
    // placement's live set.
    let world = state.placement.live_count() as u32;
    let arrived =
        |parts: &Vec<(usize, ExpertGrads, u32)>| parts.iter().map(|(_, _, n)| *n).sum::<u32>();
    let wait_span = obs::span(rank, "reduce", || {
        ("grad_wait".to_string(), "update".to_string())
    });
    let start = Instant::now();
    let mut backoff = BACKOFF_MIN;
    loop {
        let done = {
            let map = rt.owner_grads.lock();
            blocks.iter().all(|&b| {
                state.owned_ids[b]
                    .iter()
                    .all(|&e| map.get(&(b, e)).is_some_and(|p| arrived(p) == world))
            })
        };
        if done {
            break;
        }
        if start.elapsed() > rt.wait_budget {
            let map = rt.owner_grads.lock();
            let mut missing = Vec::new();
            for &b in blocks {
                for &e in &state.owned_ids[b] {
                    let got = map.get(&(b, e)).map_or(0, &arrived);
                    if got != world {
                        missing.push(format!("block {b} expert {e} has {got}/{world}"));
                    }
                }
            }
            return Err(CommError::Timeout {
                context: format!(
                    "gradient wait by owner rank {rank}: contributions never arrived ({})",
                    missing.join(", ")
                ),
                attempts: 1,
                elapsed: start.elapsed(),
            });
        }
        let handled = rt.comm.service_pass(|from, m| rt.service(from, m))?;
        if handled == 0 {
            rt.owner_grads.wait_changed(backoff);
            backoff = backoff_next(backoff);
        } else {
            backoff = BACKOFF_MIN;
        }
    }
    obs::end_into(wait_span, "janus_grad_wait_us");
    let _apply_span = obs::span(rank, "reduce", || {
        ("apply".to_string(), "update".to_string())
    });
    // Fold each expert's contributions in ascending sender order: the
    // sum — and therefore the weight update — is bitwise independent
    // of the order gradient messages happened to arrive in.
    let mut map = rt.owner_grads.lock();
    for &b in blocks {
        let owned = state.owned_ids[b].clone();
        for (local, e) in owned.into_iter().enumerate() {
            let mut parts = map.remove(&(b, e)).expect("waited for all contributions");
            debug_assert_eq!(arrived(&parts), world);
            parts.sort_by_key(|(sender, _, _)| *sender);
            let mut it = parts.into_iter();
            let (_, mut grad, _) = it.next().expect("world > 0");
            for (_, g, _) in it {
                grad.accumulate(&g);
            }
            state.experts[b][local].apply(&grad, cfg.lr);
        }
    }
    Ok(())
}

/// End of iteration: synchronize, then invalidate the cache (stale
/// weights must never survive into the next iteration, §5.1.1). Call
/// after [`DcRuntime::refresh_serving`].
pub(crate) fn finish_iteration<T: Transport>(
    rt: &DcRuntime<'_, T>,
    state: &WorkerState,
    iter: u64,
) -> Result<(), CommError> {
    rt.barrier(iter * 2)?;
    // The machine's first live worker clears the shared cache between the
    // two barriers, so no sibling can still be reading it and no sibling
    // can race ahead into the next iteration before it is empty.
    let machine = state.cfg.machine_of(state.rank);
    let first_live_local = state
        .placement
        .live_locals(machine, state.cfg.gpus_per_machine)
        .first()
        .copied();
    if first_live_local == Some(state.rank) {
        rt.shared.cache.clear_for_next_iteration();
    }
    rt.barrier(iter * 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::trainer::{TrainRun, Trainer};
    use crate::paradigm::ParadigmPolicy;
    use crate::plan::PlanOpts;
    use janus_comm::local::local_mesh;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::mpsc;

    /// Train `iters` iterations with every block forced data-centric.
    fn run_dc(cfg: &ExecConfig, iters: u64) -> TrainRun {
        let opts = PlanOpts {
            policy: ParadigmPolicy::DataCentric,
            ..PlanOpts::default()
        };
        Trainer::new(cfg, &opts).run(iters)
    }

    #[test]
    fn iteration_runs_and_loss_decreases() {
        for losses in run_dc(&ExecConfig::small(), 4).losses {
            assert!(losses.iter().all(|l| l.is_finite()));
            assert!(
                losses.last().unwrap() < losses.first().unwrap(),
                "{losses:?}"
            );
        }
    }

    #[test]
    fn cache_hits_confirm_hierarchical_fetching() {
        // Each machine has 4 external experts over 2 blocks = 8 fetches;
        // the sibling worker reads them from the cache (8 hits minimum).
        // Every worker reports its machine's cache totals.
        for c in run_dc(&ExecConfig::small(), 1).comm {
            assert_eq!(
                c.cache_fetches, 8,
                "one fetch per external expert per block"
            );
            assert!(
                c.cache_hits >= 8,
                "siblings must hit the cache, got {}",
                c.cache_hits
            );
        }
    }

    /// Counts this rank's outstanding pulls: `PullRequest`s sent minus
    /// `ExpertPayload`s received, keeping the peak.
    struct PullCounter<T> {
        inner: T,
        outstanding: AtomicI64,
        peak: Arc<AtomicI64>,
    }

    impl<T: Transport> PullCounter<T> {
        fn landed(
            &self,
            got: Result<Option<(usize, Message)>, CommError>,
        ) -> Result<Option<(usize, Message)>, CommError> {
            if let Ok(Some((_, Message::ExpertPayload { .. }))) = &got {
                self.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            got
        }
    }

    impl<T: Transport> Transport for PullCounter<T> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn world_size(&self) -> usize {
            self.inner.world_size()
        }
        fn send(&self, to: usize, msg: Message) -> Result<(), CommError> {
            if matches!(msg, Message::PullRequest { .. }) {
                let now = self.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                self.peak.fetch_max(now, Ordering::SeqCst);
            }
            self.inner.send(to, msg)
        }
        fn recv(&self) -> Result<(usize, Message), CommError> {
            self.landed(self.inner.recv().map(Some))
                .map(|m| m.expect("blocking recv returns a message"))
        }
        fn try_recv(&self) -> Result<Option<(usize, Message)>, CommError> {
            self.landed(self.inner.try_recv())
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, CommError> {
            self.landed(self.inner.recv_timeout(timeout))
        }
    }

    /// The plan's credit budget bounds the pull pipeline: no rank ever has
    /// more than `credits` pulls outstanding, a budget of one still
    /// completes, and every budget trains bitwise like expert-centric.
    #[test]
    fn credits_bound_outstanding_pulls_and_keep_the_bits() {
        let cfg = ExecConfig::small();
        let ec = Trainer::new(
            &cfg,
            &PlanOpts {
                policy: ParadigmPolicy::ExpertCentric,
                ..PlanOpts::default()
            },
        )
        .run(2);
        // Per rank and block: 2 internal pulls + 2 designated externals.
        let pulls_per_block = 4;
        for credits in [1, 2, 16] {
            let trainer = Trainer::new(
                &cfg,
                &PlanOpts {
                    policy: ParadigmPolicy::DataCentric,
                    credits,
                    ..PlanOpts::default()
                },
            );
            let peaks: Vec<Arc<AtomicI64>> = (0..cfg.world()).map(|_| Arc::default()).collect();
            let mesh = local_mesh(cfg.world())
                .into_iter()
                .zip(&peaks)
                .map(|(inner, peak)| PullCounter {
                    inner,
                    outstanding: AtomicI64::new(0),
                    peak: peak.clone(),
                })
                .collect::<Vec<_>>();
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(trainer.run_on(mesh, 2));
            });
            let dc = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("credits = {credits}: no result within 60 s ({e})"));
            assert_eq!(dc.losses, ec.losses, "credits = {credits}: losses differ");
            assert_eq!(
                dc.outputs, ec.outputs,
                "credits = {credits}: outputs differ"
            );
            for (rank, peak) in peaks.iter().enumerate() {
                assert_eq!(
                    peak.load(Ordering::SeqCst),
                    i64::from(credits).min(pulls_per_block),
                    "credits = {credits}: rank {rank}'s peak outstanding pulls"
                );
            }
        }
    }

    #[test]
    fn single_machine_configuration_works() {
        let cfg = ExecConfig {
            machines: 1,
            gpus_per_machine: 4,
            ..ExecConfig::small()
        };
        for losses in run_dc(&cfg, 2).losses {
            assert!(losses[1] < losses[0]);
        }
    }

    #[test]
    fn single_gpu_per_machine_works() {
        let cfg = ExecConfig {
            machines: 4,
            gpus_per_machine: 1,
            ..ExecConfig::small()
        };
        for losses in run_dc(&cfg, 2).losses {
            assert!(losses[1] < losses[0]);
        }
    }

    #[test]
    fn nonuniform_expert_counts_work() {
        // The mixed config's blocks have different expert counts; the
        // data-centric bodies must handle the per-block layout.
        for losses in run_dc(&ExecConfig::mixed_paradigms(), 2).losses {
            assert!(losses.iter().all(|l| l.is_finite()));
        }
    }
}
