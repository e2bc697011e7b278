//! Every call the ledger makes into the repository, in one file.
//!
//! The rest of the benchmark speaks only the plain types defined here, so
//! the list of `use` lines below *is* the API footprint the ledger depends
//! on (README.md repeats it). A refactor that keeps these signatures keeps
//! the benchmark building; later changes may not edit the benchmark to
//! follow a signature they broke.

pub use janus_comm::{CommError, DeathHandle, Message, Transport, TransportStats};

use crate::span;
use crate::spy::{Layer, SpyLog, SpyTransport};
use bytes::Bytes;
use janus_comm::codec::{read_message_buffered, write_message, DEFAULT_MAX_FRAME};
use janus_comm::collectives::{all_to_all, barrier};
use janus_comm::liveness::{monitor_mesh, LivenessConfig};
use janus_comm::local::local_mesh;
use janus_comm::runtime::run_on;
use janus_comm::tcp::tcp_mesh_localhost;
use janus_comm::{Comm, ReliableTransport};
use janus_core::exec::data_centric::MachineShared;
use janus_core::exec::model::{ExecConfig, WorkerState};
use janus_core::exec::unified;
use janus_core::queue::{CacheManager, CreditBuffer};
use janus_core::sim::engine::{build_graph, simulate_iteration, simulate_iteration_on, EngineOpts};
use janus_core::sim::SimSetup;
use janus_core::{IterationPlan, Paradigm, ParadigmPolicy, PlanOpts};
use janus_moe::config::ModelPreset;
use janus_moe::expert::{ExpertFfn, ExpertScratch};
use janus_moe::gate::TopKGate;
use janus_netsim::simulate;
use janus_obs::{critical_path, Recorder, SpanMeta};
use janus_serve::{
    plan_from_workload, serve_on, Batcher, ReplicaPlan, RequestId, ServeConfig, ServeModel,
    ServeOpts, ServeSpec, ServeWorkload,
};
use janus_tensor::{pool, simd, Matrix};
use janus_topology::ClusterSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Number of message kinds on the wire.
pub const KINDS: usize = 11;

/// Indices into per-kind counters.
pub mod kind {
    pub const PULL_REQUEST: usize = 0;
    pub const EXPERT_PAYLOAD: usize = 1;
    pub const GRAD_PUSH: usize = 2;
    pub const TOKEN_DISPATCH: usize = 3;
    pub const TOKEN_RETURN: usize = 4;
    pub const BARRIER: usize = 5;
    pub const COLLECTIVE: usize = 6;
    pub const SHUTDOWN: usize = 7;
    pub const RELIABLE: usize = 8;
    pub const ACK: usize = 9;
    pub const HEARTBEAT: usize = 10;
}

/// Index of a message's kind.
pub fn kind_of(msg: &Message) -> usize {
    match msg {
        Message::PullRequest { .. } => kind::PULL_REQUEST,
        Message::ExpertPayload { .. } => kind::EXPERT_PAYLOAD,
        Message::GradPush { .. } => kind::GRAD_PUSH,
        Message::TokenDispatch { .. } => kind::TOKEN_DISPATCH,
        Message::TokenReturn { .. } => kind::TOKEN_RETURN,
        Message::Barrier { .. } => kind::BARRIER,
        Message::Collective { .. } => kind::COLLECTIVE,
        Message::Shutdown => kind::SHUTDOWN,
        Message::Reliable { .. } => kind::RELIABLE,
        Message::Ack { .. } => kind::ACK,
        Message::Heartbeat { .. } => kind::HEARTBEAT,
    }
}

/// Encoded size of a message: header plus payload, without the frame's
/// length prefix.
pub fn wire_bytes(msg: &Message) -> usize {
    let (header, payload) = msg.encode_parts();
    header.as_slice().len() + payload.map_or(0, |p| p.len())
}

// ---------------------------------------------------------------------
// Transport stacks
// ---------------------------------------------------------------------

/// The transport stacks the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// In-process channels.
    Local,
    /// Plain TCP over loopback.
    Tcp,
    /// Sequence numbers, acks and retransmits over TCP.
    ReliableTcp,
    /// Heartbeats and a health board over TCP, as `repro serve` runs.
    LivenessTcp,
}

impl Stack {
    /// Name used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Local => "local",
            Stack::Tcp => "tcp",
            Stack::ReliableTcp => "reliable+tcp",
            Stack::LivenessTcp => "liveness+tcp",
        }
    }

    /// Whether a layer sits between the application and the socket, so
    /// that wire frames differ from application messages.
    pub fn has_wire_layer(self) -> bool {
        matches!(self, Stack::ReliableTcp | Stack::LivenessTcp)
    }
}

/// The two spies of one rank. On a stack without a wire layer only `app`
/// is installed and `wire` stays empty.
pub struct RankSpies {
    /// Above the whole stack.
    pub app: Arc<SpyLog>,
    /// Between the reliability or liveness layer and the socket.
    pub wire: Arc<SpyLog>,
}

/// Fresh spy logs for a mesh of `world` ranks.
pub fn spies_for(world: usize) -> Vec<RankSpies> {
    (0..world)
        .map(|_| RankSpies {
            app: SpyLog::new(),
            wire: SpyLog::new(),
        })
        .collect()
}

/// Work to run on a mesh, whatever its transport type.
pub trait MeshJob {
    /// What the job returns.
    type Out;
    /// Run on `mesh`, one endpoint per rank.
    fn run<T: Transport + 'static>(self, mesh: Vec<T>) -> Self::Out;
}

/// How `repro serve` configures its liveness layer.
fn serve_liveness() -> LivenessConfig {
    LivenessConfig::heartbeats(8, Duration::from_secs(5))
}

/// Build `stack` for `world` ranks and run `job` on it. With `spies`, a
/// [`SpyTransport`] is stacked above the whole stack and, where the stack
/// has a wire layer, another directly above the socket; without, the job
/// gets the stack exactly as a user would build it.
pub fn on_stack<J: MeshJob>(
    stack: Stack,
    world: usize,
    spies: Option<&[RankSpies]>,
    job: J,
) -> Result<J::Out, String> {
    let tcp = || tcp_mesh_localhost(world).map_err(|e| format!("tcp mesh: {e}"));
    fn spy_all<T: Transport>(
        mesh: Vec<T>,
        layer: Layer,
        spies: &[RankSpies],
    ) -> Vec<SpyTransport<T>> {
        mesh.into_iter()
            .zip(spies)
            .map(|(t, s)| {
                let log = match layer {
                    Layer::App => s.app.clone(),
                    Layer::Wire => s.wire.clone(),
                };
                SpyTransport::new(t, layer, log)
            })
            .collect()
    }
    Ok(match (stack, spies) {
        (Stack::Local, None) => job.run(local_mesh(world)),
        (Stack::Local, Some(s)) => job.run(spy_all(local_mesh(world), Layer::App, s)),
        (Stack::Tcp, None) => job.run(tcp()?),
        (Stack::Tcp, Some(s)) => job.run(spy_all(tcp()?, Layer::App, s)),
        (Stack::ReliableTcp, None) => {
            job.run(tcp()?.into_iter().map(ReliableTransport::new).collect())
        }
        (Stack::ReliableTcp, Some(s)) => {
            let reliable = spy_all(tcp()?, Layer::Wire, s)
                .into_iter()
                .map(ReliableTransport::new)
                .collect();
            job.run(spy_all(reliable, Layer::App, s))
        }
        (Stack::LivenessTcp, None) => job.run(monitor_mesh(tcp()?, serve_liveness())),
        (Stack::LivenessTcp, Some(s)) => {
            let monitored = monitor_mesh(spy_all(tcp()?, Layer::Wire, s), serve_liveness());
            job.run(spy_all(monitored, Layer::App, s))
        }
    })
}

// ---------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------

/// Which paradigm the plan compiler is told to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Pull experts everywhere.
    DataCentric,
    /// All-to-All everywhere.
    ExpertCentric,
    /// Per block by the R rule: default `PlanOpts`.
    Unified,
}

/// Shape of a training workload. The world is always 2 machines × 2 GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainShape {
    /// Token width H.
    pub hidden: usize,
    /// Tokens per rank per iteration.
    pub tokens: usize,
    /// MoE blocks.
    pub blocks: usize,
    /// Experts of each block.
    pub experts_per_block: Vec<usize>,
    /// Gate fan-out.
    pub top_k: usize,
    /// Paradigm policy.
    pub policy: Policy,
    /// SGD learning rate.
    pub lr: f32,
}

/// A training configuration and its compiled iteration plan.
pub struct TrainPlan {
    cfg: ExecConfig,
    plan: IterationPlan,
}

impl TrainPlan {
    /// Compile the plan for `shape`; `seed` feeds the weight and token
    /// generators only.
    pub fn compile(shape: &TrainShape, seed: u64) -> TrainPlan {
        assert_eq!(shape.experts_per_block.len(), shape.blocks);
        let cfg = ExecConfig {
            machines: 2,
            gpus_per_machine: 2,
            hidden_dim: shape.hidden,
            blocks: shape.blocks,
            experts: shape.experts_per_block[0],
            experts_per_block: shape.experts_per_block.clone(),
            top_k: shape.top_k,
            tokens: shape.tokens,
            seed,
            lr: shape.lr,
        };
        let opts = match shape.policy {
            Policy::DataCentric => PlanOpts {
                policy: ParadigmPolicy::DataCentric,
                ..PlanOpts::default()
            },
            Policy::ExpertCentric => PlanOpts {
                policy: ParadigmPolicy::ExpertCentric,
                ..PlanOpts::default()
            },
            Policy::Unified => PlanOpts::default(),
        };
        let plan = cfg.compile_plan(&opts);
        TrainPlan { cfg, plan }
    }

    /// Ranks in the mesh.
    pub fn world(&self) -> usize {
        self.cfg.world()
    }

    /// Tokens the whole world processes per iteration.
    pub fn tokens_per_iteration(&self) -> usize {
        self.cfg.world() * self.cfg.tokens
    }

    /// Digest of the compiled plan.
    pub fn digest(&self) -> u64 {
        self.plan.digest()
    }

    /// Paradigm the plan chose for each block.
    pub fn paradigms(&self) -> Vec<&'static str> {
        self.plan
            .paradigms()
            .into_iter()
            .map(|p| match p {
                Paradigm::DataCentric => "data-centric",
                Paradigm::ExpertCentric => "expert-centric",
            })
            .collect()
    }

    /// Expert forward calls one rank makes per iteration, and the mean
    /// tokens each call carries: every rank routes `tokens · k` token
    /// copies per block; a data-centric block runs them where the tokens
    /// are, an expert-centric block where the experts are, and with even
    /// routing both come to the same count per rank.
    pub fn expert_calls_per_rank(&self) -> (usize, usize) {
        let calls: usize = (0..self.cfg.blocks)
            .map(|b| match self.plan.blocks[b].paradigm {
                Paradigm::DataCentric => self.cfg.experts_in(b),
                Paradigm::ExpertCentric => self.cfg.experts_per_worker_in(b) * self.cfg.world(),
            })
            .sum();
        let routed = self.cfg.blocks * self.cfg.tokens * self.cfg.top_k;
        (calls, (routed / calls.max(1)).max(1))
    }

    /// Experts one rank owns over all blocks: the optimizer steps it makes
    /// per iteration.
    pub fn local_experts(&self) -> usize {
        (0..self.cfg.blocks)
            .map(|b| self.cfg.experts_per_worker_in(b))
            .sum()
    }

    /// Bytes of one rank's token batch, the payload of its collectives.
    pub fn token_bytes(&self) -> usize {
        self.cfg.tokens * self.cfg.hidden_dim * 4
    }

    /// The probe shape of this workload.
    pub fn probe_shape(&self) -> ProbeShape {
        ProbeShape {
            hidden: self.cfg.hidden_dim,
            tokens_per_call: self.expert_calls_per_rank().1,
            gate_tokens: self.cfg.tokens,
            experts: self.cfg.experts_in(0),
            top_k: self.cfg.top_k,
        }
    }
}

/// Counters one rank accumulated since it started; all only grow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankCounters {
    pub pull_retries: u64,
    pub retransmits: u64,
    pub duplicates_dropped: u64,
    pub acks_sent: u64,
    pub cache_fetches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub grad_prefolds: u64,
    pub remote_bytes: u64,
}

trait TrainOps {
    fn step(&mut self, iter: u64) -> Result<f32, String>;
    fn counters(&self) -> RankCounters;
    fn finish(&self) -> Result<(), String>;
}

struct TrainOpsOn<'a, T: Transport> {
    comm: Comm<T>,
    state: WorkerState,
    shared: Arc<MachineShared>,
    plan: &'a IterationPlan,
}

impl<T: Transport> TrainOps for TrainOpsOn<'_, T> {
    fn step(&mut self, iter: u64) -> Result<f32, String> {
        unified::run_iteration(&self.comm, &mut self.state, &self.shared, self.plan, iter)
            .map(|out| out.loss)
            .map_err(|e| format!("rank {} iteration {iter}: {e}", self.state.rank))
    }

    fn counters(&self) -> RankCounters {
        let s = self.state.comm.snapshot();
        RankCounters {
            pull_retries: s.pull_retries,
            retransmits: s.retransmits,
            duplicates_dropped: s.duplicates_dropped,
            acks_sent: s.acks_sent,
            cache_fetches: s.cache_fetches,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            grad_prefolds: s.grad_prefolds,
            remote_bytes: s.remote_bytes,
        }
    }

    fn finish(&self) -> Result<(), String> {
        self.comm
            .transport()
            .flush()
            .map_err(|e| format!("rank {} flush: {e}", self.state.rank))
    }
}

/// One rank of a training mesh: its endpoint, model shard and plan.
pub struct TrainRank<'a> {
    rank: usize,
    ops: Box<dyn TrainOps + 'a>,
}

impl TrainRank<'_> {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Run training iteration `iter` (`unified::run_iteration`) and return
    /// its loss.
    pub fn step(&mut self, iter: u64) -> Result<f32, String> {
        self.ops.step(iter)
    }

    /// The rank's reliability and cache counters so far.
    pub fn counters(&self) -> RankCounters {
        self.ops.counters()
    }

    /// Flush the transport; call once before the rank returns, so traffic
    /// in flight is not lost with the mesh.
    pub fn finish(&self) -> Result<(), String> {
        self.ops.finish()
    }
}

/// A [`MeshJob`] that gives every rank of a training mesh to `body`.
pub struct TrainJob<'a, F> {
    plan: &'a TrainPlan,
    body: F,
}

impl<'a, F> TrainJob<'a, F> {
    /// Train `plan`, running `body` on each rank's thread.
    pub fn new<R>(plan: &'a TrainPlan, body: F) -> Self
    where
        F: Fn(TrainRank<'_>) -> R + Sync,
    {
        TrainJob { plan, body }
    }
}

impl<F, R> MeshJob for TrainJob<'_, F>
where
    F: Fn(TrainRank<'_>) -> R + Sync,
    R: Send,
{
    type Out = Vec<R>;

    fn run<T: Transport + 'static>(self, mesh: Vec<T>) -> Vec<R> {
        let cfg = &self.plan.cfg;
        let shared = MachineShared::for_cluster(cfg);
        run_on(mesh, |comm| {
            let rank = comm.rank();
            let ops = TrainOpsOn {
                state: WorkerState::init(cfg, rank),
                shared: shared[cfg.machine_of(rank)].clone(),
                plan: &self.plan.plan,
                comm,
            };
            (self.body)(TrainRank {
                rank,
                ops: Box::new(ops),
            })
        })
    }
}

// ---------------------------------------------------------------------
// The janus-obs recorder
// ---------------------------------------------------------------------

/// Names of the blame categories, in report order.
pub fn blame_categories() -> &'static [&'static str] {
    janus_obs::analysis::BLAME_CATEGORIES
}

/// Switch the process-wide `janus-obs` recorder on (clearing it) or off.
pub fn set_recorder(on: bool) {
    if on {
        janus_obs::global().enable();
    } else {
        janus_obs::global().disable();
    }
}

/// What the recorder held, reduced by `janus_obs::critical_path`.
#[derive(Debug, Clone, Default)]
pub struct RecorderReport {
    /// Events drained.
    pub events: usize,
    /// Iterations the blame walker found.
    pub iterations: usize,
    /// Sum of iteration wall times, µs.
    pub wall_us: f64,
    /// Blame per category over all iterations, µs, in
    /// [`blame_categories`] order.
    pub blame_us: Vec<f64>,
}

/// Drain the recorder and blame every iteration's wall time.
pub fn drain_recorder() -> RecorderReport {
    let events = janus_obs::global().drain_events();
    let report = critical_path(&events);
    let blame_us = blame_categories()
        .iter()
        .map(|c| {
            report
                .by_category
                .iter()
                .find(|b| b.category == *c)
                .map_or(0.0, |b| b.us)
        })
        .collect();
    RecorderReport {
        events: events.len(),
        iterations: report.iterations.len(),
        wall_us: report.wall_us,
        blame_us,
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// Shape of the serving workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeShape {
    pub experts: usize,
    pub hidden: usize,
    pub top_k: usize,
    pub clients: usize,
    pub tokens_per_request: usize,
    pub zipf: f64,
    pub max_batch_tokens: usize,
    /// Expert replicas over all workers; the world is one more (the
    /// frontend).
    pub replica_budget: usize,
}

/// How requests arrive in one serving phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Saturated: `per_step` requests join every engine step, unpaced.
    Saturated { per_step: usize },
    /// Open loop: one request every `every`, whatever the engine does.
    Paced { every: Duration },
}

/// The served model, generated from the seed.
pub struct ServeSetup {
    shape: ServeShape,
    seed: u64,
    model: ServeModel,
}

/// One generated request stream, its replica plan, and what
/// `ServeModel::forward_reference` answers to each request.
pub struct ServePhase {
    workload: ServeWorkload,
    plan: ReplicaPlan,
    opts: ServeOpts,
    reference: Vec<Matrix>,
}

/// What one serving phase measured.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Requests in the stream.
    pub requests: usize,
    /// Wall time of `serve_on`.
    pub wall: Duration,
    /// Responses missing or not bitwise-equal to `forward_reference`.
    pub mismatches: usize,
    /// Workers that died.
    pub dead_workers: usize,
    /// Admission-to-combine latency of each request, µs.
    pub latencies_us: Vec<u64>,
    pub batches: u64,
    pub dispatches: u64,
    pub redispatches: u64,
    pub pulls_served: u64,
    /// Worker weight-cache hits and lookups, summed over workers.
    pub worker_cache_hits: u64,
    pub worker_cache_lookups: u64,
    pub retransmits: u64,
    pub duplicates_dropped: u64,
}

impl ServeSetup {
    /// Build the model for `shape`; `seed` feeds the generators only.
    pub fn new(shape: &ServeShape, seed: u64) -> ServeSetup {
        let cfg = Self::config(shape, seed, 1, 1);
        ServeSetup {
            shape: shape.clone(),
            seed,
            model: ServeModel::new(&cfg),
        }
    }

    fn config(shape: &ServeShape, seed: u64, requests: usize, per_step: usize) -> ServeConfig {
        ServeConfig {
            experts: shape.experts,
            hidden_dim: shape.hidden,
            top_k: shape.top_k,
            clients: shape.clients,
            requests,
            tokens_per_request: shape.tokens_per_request,
            zipf: shape.zipf,
            arrivals_per_step: per_step,
            max_batch_tokens: shape.max_batch_tokens,
            seed,
        }
    }

    /// Ranks of the serving mesh: the frontend plus one per replica.
    pub fn world(&self) -> usize {
        self.shape.replica_budget + 1
    }

    /// Generate `requests` requests arriving as `arrivals` says, plan
    /// replicas from their gate histogram, and compute the reference
    /// answers. `salt` varies the stream between phases of one run.
    pub fn phase(&self, requests: usize, arrivals: Arrivals, salt: u64) -> ServePhase {
        let (per_step, pacing_step) = match arrivals {
            Arrivals::Saturated { per_step } => (per_step, None),
            Arrivals::Paced { every } => (1, Some(every)),
        };
        let cfg = Self::config(&self.shape, self.seed ^ salt, requests, per_step);
        let workload = ServeWorkload::generate(&cfg);
        let (_, plan) = plan_from_workload(&self.model, &workload, self.shape.replica_budget);
        assert_eq!(plan.world(), self.world());
        let reference = workload
            .requests
            .iter()
            .map(|req| self.model.forward_reference(&req.tokens))
            .collect();
        ServePhase {
            reference,
            workload,
            plan,
            opts: ServeOpts {
                service_floor_us: 0,
                pacing_step,
            },
        }
    }

    /// The probe shape of this workload.
    pub fn probe_shape(&self) -> ProbeShape {
        ProbeShape {
            hidden: self.shape.hidden,
            tokens_per_call: self.shape.max_batch_tokens * self.shape.top_k / self.shape.experts,
            gate_tokens: self.shape.max_batch_tokens,
            experts: self.shape.experts,
            top_k: self.shape.top_k,
        }
    }
}

/// A [`MeshJob`] that serves one phase and checks every response.
pub struct ServeJob<'a> {
    pub setup: &'a ServeSetup,
    pub phase: &'a ServePhase,
}

impl MeshJob for ServeJob<'_> {
    type Out = ServeOutcome;

    fn run<T: Transport + 'static>(self, mesh: Vec<T>) -> ServeOutcome {
        let spec = ServeSpec {
            model: &self.setup.model,
            workload: &self.phase.workload,
            plan: &self.phase.plan,
            max_batch_tokens: self.setup.shape.max_batch_tokens,
            opts: self.phase.opts.clone(),
            crash: None,
        };
        let t0 = Instant::now();
        let run = serve_on(mesh, &spec);
        let wall = t0.elapsed();
        let requests = &self.phase.workload.requests;
        let matching = self
            .phase
            .reference
            .iter()
            .zip(&run.frontend.responses)
            .filter(|(want, got)| {
                want.shape() == got.shape()
                    && want
                        .data()
                        .iter()
                        .zip(got.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
            .count();
        let stats = run.total_comm_stats();
        let mut out = ServeOutcome {
            requests: requests.len(),
            wall,
            mismatches: requests.len() - matching,
            dead_workers: run.workers.iter().filter(|w| w.is_err()).count(),
            latencies_us: run.frontend.latencies_us,
            batches: run.frontend.batches,
            dispatches: run.frontend.dispatches,
            redispatches: run.frontend.redispatches,
            pulls_served: run.frontend.pulls_served,
            retransmits: stats.retransmits,
            duplicates_dropped: stats.duplicates_dropped,
            ..ServeOutcome::default()
        };
        for w in run.workers.iter().flatten() {
            out.worker_cache_hits += w.cache.hits;
            out.worker_cache_lookups += w.cache.hits + w.cache.misses;
        }
        out
    }
}

// ---------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------

/// One simulated iteration of the paper sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCase {
    /// `"MoE-BERT"` or `"MoE-GPT"`.
    pub model: &'static str,
    /// `"janus"`, `"tutel"` or `"data-centric"`.
    pub engine: &'static str,
}

/// Cluster and expert count of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimShape {
    pub machines: usize,
    pub gpus_per_machine: usize,
    pub experts: usize,
}

/// The six simulations of one sweep step.
pub fn sim_cases() -> Vec<SimCase> {
    ["MoE-BERT", "MoE-GPT"]
        .into_iter()
        .flat_map(|model| {
            ["janus", "tutel", "data-centric"]
                .into_iter()
                .map(move |engine| SimCase { model, engine })
        })
        .collect()
}

fn sim_inputs(
    shape: SimShape,
    case: SimCase,
    seed: u64,
) -> (ClusterSpec, janus_moe::config::ModelConfig, EngineOpts) {
    let preset = match case.model {
        "MoE-BERT" => ModelPreset::MoeBert,
        "MoE-GPT" => ModelPreset::MoeGpt,
        other => panic!("unknown sim model {other}"),
    };
    let opts = match case.engine {
        "janus" => EngineOpts::default(),
        "tutel" => EngineOpts::tutel(),
        "data-centric" => EngineOpts::data_centric(false, false),
        other => panic!("unknown sim engine {other}"),
    };
    (
        ClusterSpec::a100(shape.machines, shape.gpus_per_machine),
        preset.config(shape.experts),
        EngineOpts { seed, ..opts },
    )
}

/// What one simulated iteration reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Simulated iteration time, seconds.
    pub iter_time: f64,
    /// Tasks the simulator ran.
    pub tasks: usize,
}

/// Run `simulate_iteration` for one case; `seed` is the workload seed of
/// the sampled token assignment.
pub fn simulate_case(shape: SimShape, case: SimCase, seed: u64) -> Result<SimOutcome, String> {
    let (cluster, model, opts) = sim_inputs(shape, case, seed);
    let report = simulate_iteration(cluster.build(), model, &opts)
        .map_err(|e| format!("{} {}: {e:?}", case.model, case.engine))?;
    Ok(SimOutcome {
        iter_time: report.iter_time,
        tasks: report.sim.records.len(),
    })
}

/// Wall time of each stage of one simulated iteration, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimLayers {
    pub topology_ms: f64,
    pub setup_ms: f64,
    pub build_graph_ms: f64,
    pub simulate_ms: f64,
    /// `simulate_iteration_on` minus graph build and simulation: deriving
    /// the report from the raw result.
    pub report_ms: f64,
    pub tasks: usize,
}

fn sim_layers_of(
    cluster: ClusterSpec,
    model: janus_moe::config::ModelConfig,
    opts: &EngineOpts,
) -> Result<SimLayers, String> {
    /// Run one stage under a benchmark span and return its result and ms.
    fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let _span = span::enter(name, 0);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    }
    let (built, topology_ms) = stage("topology.build", || cluster.build());
    let (setup, setup_ms) = stage("coresim.setup", || {
        SimSetup::new(built, model, opts.imbalance, opts.seed)
    });
    let ((graph, _), build_graph_ms) = stage("coresim.build_graph", || build_graph(&setup, opts));
    let capacities = setup.cluster.capacities();
    let (sim, simulate_ms) = stage("netsim.simulate", || simulate(&graph, &capacities));
    let tasks = sim.map_err(|e| format!("simulate: {e:?}"))?.records.len();
    drop(graph);
    let (report, whole_ms) = stage("coresim.iteration", || simulate_iteration_on(&setup, opts));
    black_box(report.map_err(|e| format!("simulate: {e:?}"))?.iter_time);
    Ok(SimLayers {
        topology_ms,
        setup_ms,
        build_graph_ms,
        simulate_ms,
        report_ms: (whole_ms - build_graph_ms - simulate_ms).max(0.0),
        tasks,
    })
}

/// Time the stages of one sweep case separately.
pub fn sim_layers(shape: SimShape, case: SimCase, seed: u64) -> Result<SimLayers, String> {
    let (cluster, model, opts) = sim_inputs(shape, case, seed);
    sim_layers_of(cluster, model, &opts)
}

/// Time the stages of simulating a training workload's own configuration
/// (its cluster, its model, its policy), as `repro analyze` does.
pub fn sim_layers_of_training(plan: &TrainPlan) -> Result<SimLayers, String> {
    let opts = EngineOpts {
        policy: plan.plan.policy,
        seed: plan.cfg.seed,
        ..EngineOpts::default()
    };
    sim_layers_of(
        ClusterSpec::a100(plan.cfg.machines, plan.cfg.gpus_per_machine),
        plan.cfg.model_config(),
        &opts,
    )
}

// ---------------------------------------------------------------------
// Layer probes: each returns a closure that makes one call into a layer
// ---------------------------------------------------------------------

/// Shapes the probes run at; each workload supplies its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeShape {
    /// Token width H.
    pub hidden: usize,
    /// Tokens one expert call carries.
    pub tokens_per_call: usize,
    /// Tokens the gate routes at once.
    pub gate_tokens: usize,
    /// Experts the gate chooses among.
    pub experts: usize,
    /// Gate fan-out.
    pub top_k: usize,
}

/// Width of the compute pool and whether SIMD kernels are in use.
pub fn compute_fingerprint() -> (usize, bool) {
    (pool::threads(), simd::detected())
}

/// `x(T×H) · w1(H×4H)` into a reused output; returns the closure and its
/// floating-point operations per call.
pub fn matmul_probe(shape: ProbeShape, seed: u64) -> (impl FnMut(), f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (t, h) = (shape.tokens_per_call, shape.hidden);
    let x = Matrix::uniform(t, h, 1.0, &mut rng);
    let w1 = Matrix::uniform(h, 4 * h, 0.1, &mut rng);
    let mut out = Matrix::zeros(t, 4 * h);
    let flops = 2.0 * t as f64 * h as f64 * 4.0 * h as f64;
    (
        move || {
            black_box(&x).matmul_into(black_box(&w1), &mut out);
            black_box(&out);
        },
        flops,
    )
}

/// One parallel region of no-op tasks, one per pool thread.
pub fn pool_region_probe() -> impl FnMut() {
    let n = pool::threads();
    move || {
        black_box(pool::run_tasks(n, |i| i));
    }
}

/// The three expert passes at the probe shape, over reused scratch.
pub struct ExpertProbe {
    expert: ExpertFfn,
    scratch: ExpertScratch,
    dy: Matrix,
}

impl ExpertProbe {
    pub fn new(shape: ProbeShape, seed: u64) -> ExpertProbe {
        let mut rng = StdRng::seed_from_u64(seed);
        let expert = ExpertFfn::new(shape.hidden, &mut rng);
        let x = Matrix::uniform(shape.tokens_per_call, shape.hidden, 1.0, &mut rng);
        let dy = Matrix::uniform(shape.tokens_per_call, shape.hidden, 1.0, &mut rng);
        let mut scratch = ExpertScratch::new();
        scratch.set_input(&x);
        expert.forward_scratch(&mut scratch);
        expert.backward_scratch(&dy, &mut scratch);
        ExpertProbe {
            expert,
            scratch,
            dy,
        }
    }

    /// `ExpertFfn::forward_scratch`.
    pub fn forward(&mut self) {
        self.expert.forward_scratch(black_box(&mut self.scratch));
    }

    /// `ExpertFfn::backward_scratch` of the recorded forward pass.
    pub fn backward(&mut self) {
        self.expert
            .backward_scratch(black_box(&self.dy), &mut self.scratch);
    }

    /// `ExpertFfn::apply` with a zero learning rate, so the weights stay
    /// put however often it runs.
    pub fn apply(&mut self) {
        self.expert.apply(black_box(&self.scratch.grad), 0.0);
    }
}

/// `TopKGate::route` over the workload's token batch.
pub fn gate_probe(shape: ProbeShape, seed: u64) -> impl FnMut() {
    let mut rng = StdRng::seed_from_u64(seed);
    let gate = TopKGate::new(shape.hidden, shape.experts, shape.top_k, &mut rng);
    let x = Matrix::uniform(shape.gate_tokens, shape.hidden, 1.0, &mut rng);
    move || {
        black_box(gate.route(black_box(&x)));
    }
}

/// `CacheManager::get` of a key that is present.
pub fn cache_hit_probe() -> impl FnMut() {
    let cache: CacheManager<u64> = CacheManager::new();
    cache.insert((0, 0), 7);
    move || {
        black_box(cache.get(black_box((0, 0))));
    }
}

/// Microseconds from `CacheManager::insert` on one thread to `wait_for`
/// returning on another, `rounds` times.
pub fn cache_fill_wake_us(rounds: usize) -> Vec<f64> {
    let cache: CacheManager<u64> = CacheManager::new();
    let (go_tx, go_rx) = mpsc::channel::<usize>();
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        let cache = &cache;
        s.spawn(move || {
            for key in go_rx {
                let got = cache.wait_for((0, key), Duration::from_secs(5));
                let woke = Instant::now();
                assert!(got.is_some(), "cache fill never arrived");
                if woke_tx.send(woke).is_err() {
                    return;
                }
            }
        });
        let samples = (0..rounds)
            .map(|key| {
                go_tx.send(key).expect("waiter thread is alive");
                // Give the waiter time to block on the condition variable;
                // an insert that beats it there would measure no wake-up.
                std::thread::sleep(Duration::from_micros(300));
                let inserted = Instant::now();
                cache.insert((0, key), key as u64);
                let woke = woke_rx.recv().expect("waiter thread is alive");
                woke.saturating_duration_since(inserted).as_secs_f64() * 1e6
            })
            .collect();
        drop(go_tx);
        samples
    })
}

/// `CreditBuffer::acquire` of a free credit, and its release.
pub fn credit_probe() -> impl FnMut() {
    let credits = CreditBuffer::new(16);
    move || {
        black_box(credits.acquire(1));
    }
}

/// `ExecConfig::compile_plan` for a training shape.
pub fn plan_compile_probe(shape: &TrainShape, seed: u64) -> impl FnMut() {
    let shape = shape.clone();
    move || {
        black_box(TrainPlan::compile(&shape, seed).digest());
    }
}

/// Throughput and round-trip numbers of a two-endpoint mesh.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairNumbers {
    /// Header-only messages per second, sender and receiver pipelined.
    pub msgs_per_s_0b: f64,
    /// Payload gigabytes per second at 64 KiB per message.
    pub gb_per_s_64k: f64,
    /// Median round trip of a header-only message, µs.
    pub rtt_us_p50: f64,
}

fn probe_message(payload: usize, seq: u64) -> Message {
    if payload == 0 {
        Message::PullRequest {
            block: 0,
            expert: (seq % 64) as u32,
            nonce: seq as u32,
        }
    } else {
        Message::Collective {
            seq,
            data: Bytes::from(vec![(seq % 251) as u8; payload]),
        }
    }
}

/// One-way stream of `msgs` messages to `peer`, closed by a marker the
/// receiver sends back when it has them all. Both ranks call it; the sender
/// returns the seconds from its first send to the marker.
fn stream<T: Transport>(t: &T, peer: usize, sender: bool, payload: usize, msgs: usize) -> f64 {
    let t0 = Instant::now();
    if sender {
        let msg = probe_message(payload, 1);
        let mut marked = false;
        for _ in 0..msgs {
            t.send(peer, msg.clone()).expect("probe send");
            // Drain the sender's inbox so a reliability layer's acks
            // retire its in-flight state.
            marked |= t.try_recv().expect("probe poll").is_some();
        }
        if !marked {
            t.recv().expect("probe marker");
        }
    } else {
        for _ in 0..msgs {
            t.recv().expect("probe recv");
        }
        t.send(peer, Message::Barrier { epoch: 0 })
            .expect("probe marker");
    }
    t0.elapsed().as_secs_f64()
}

/// `rounds` header-only round trips, timed by the sender and echoed by the
/// other rank; µs each.
fn round_trips<T: Transport>(t: &T, peer: usize, sender: bool, rounds: usize) -> Vec<f64> {
    (0..rounds)
        .map(|i| {
            let t0 = Instant::now();
            if sender {
                t.send(peer, probe_message(0, i as u64))
                    .expect("probe send");
                t.recv().expect("probe recv");
            } else {
                let (_, msg) = t.recv().expect("probe echo recv");
                t.send(peer, msg).expect("probe echo send");
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

struct PairJob {
    scale: f64,
}

impl MeshJob for PairJob {
    type Out = PairNumbers;

    fn run<T: Transport + 'static>(self, mesh: Vec<T>) -> PairNumbers {
        let small = ((20_000.0 * self.scale) as usize).max(500);
        let big = ((400.0 * self.scale) as usize).max(20);
        let rounds = ((1_000.0 * self.scale) as usize).max(50);
        let mut per_rank = run_on(mesh, |comm| {
            let t = comm.transport();
            let (peer, sender) = (1 - comm.rank(), comm.rank() == 0);
            stream(t, peer, sender, 0, small / 10);
            let small_s = stream(t, peer, sender, 0, small);
            let big_s = stream(t, peer, sender, 64 * 1024, big);
            let mut rtt = round_trips(t, peer, sender, rounds);
            rtt.sort_by(f64::total_cmp);
            let _ = t.flush();
            PairNumbers {
                msgs_per_s_0b: small as f64 / small_s,
                gb_per_s_64k: (big * 64 * 1024) as f64 / big_s / 1e9,
                rtt_us_p50: rtt[rtt.len() / 2],
            }
        });
        per_rank.swap_remove(0)
    }
}

/// Probe a two-endpoint mesh of `stack`; `scale` shortens or lengthens the
/// message counts. With `spies`, also returns through them what the wire
/// carried.
pub fn pair_probe(
    stack: Stack,
    scale: f64,
    spies: Option<&[RankSpies]>,
) -> Result<PairNumbers, String> {
    on_stack(stack, 2, spies, PairJob { scale })
}

/// Encode and decode throughput of a 64 KiB `ExpertPayload` frame through
/// `write_message` and `read_message_buffered`, in memory. Returns the two
/// closures and the payload bytes each call moves.
pub fn codec_probes() -> (impl FnMut(), impl FnMut(), usize) {
    const PAYLOAD: usize = 64 * 1024;
    let msg = Message::ExpertPayload {
        block: 1,
        expert: 3,
        nonce: 9,
        data: Bytes::from(vec![0xA5u8; PAYLOAD]),
    };
    let mut frame = Vec::with_capacity(PAYLOAD + 64);
    write_message(&mut frame, &msg).expect("encode into memory");
    let mut out = Vec::with_capacity(frame.len());
    let encode = move || {
        out.clear();
        write_message(&mut out, black_box(&msg)).expect("encode into memory");
        black_box(&out);
    };
    let mut scratch = Vec::new();
    let decode = move || {
        let mut reader = &frame[..];
        let got = read_message_buffered(&mut reader, DEFAULT_MAX_FRAME, &mut scratch)
            .expect("decode from memory");
        black_box(got);
    };
    (encode, decode, PAYLOAD)
}

struct CollectiveJob {
    chunk_bytes: usize,
    rounds: usize,
}

impl MeshJob for CollectiveJob {
    /// Median µs of one All-to-All and of one barrier, at rank 0.
    type Out = (f64, f64);

    fn run<T: Transport + 'static>(self, mesh: Vec<T>) -> (f64, f64) {
        let world = mesh.len();
        let per_rank = run_on(mesh, |comm| {
            let mut a2a = Vec::with_capacity(self.rounds);
            let mut bar = Vec::with_capacity(self.rounds);
            for i in 0..self.rounds as u64 {
                let chunks = vec![vec![comm.rank() as u8; self.chunk_bytes]; world];
                let t = Instant::now();
                black_box(all_to_all(&comm, i, chunks).expect("probe all-to-all"));
                a2a.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                barrier(&comm, i).expect("probe barrier");
                bar.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let _ = comm.transport().flush();
            (a2a, bar)
        });
        let (mut a2a, mut bar) = per_rank.into_iter().next().expect("rank 0");
        a2a.sort_by(f64::total_cmp);
        bar.sort_by(f64::total_cmp);
        (a2a[a2a.len() / 2], bar[bar.len() / 2])
    }
}

/// Median µs of an All-to-All of `chunk_bytes` per peer and of a barrier,
/// over four ranks on `stack`.
pub fn collective_probe(
    stack: Stack,
    chunk_bytes: usize,
    rounds: usize,
) -> Result<(f64, f64), String> {
    on_stack(
        stack,
        4,
        None,
        CollectiveJob {
            chunk_bytes,
            rounds,
        },
    )
}

/// The serving shape the serving probes run at when the workload itself
/// does not serve.
pub fn default_serve_probe_setup(seed: u64) -> ServeSetup {
    ServeSetup::new(
        &ServeShape {
            experts: 4,
            hidden: 64,
            top_k: 2,
            clients: 4,
            tokens_per_request: 8,
            zipf: 1.1,
            max_batch_tokens: 64,
            replica_budget: 6,
        },
        seed,
    )
}

/// `Batcher::admit` of one request, with the batches drawn as they fill.
pub fn batcher_probe(setup: &ServeSetup) -> impl FnMut() {
    let tokens = setup.shape.tokens_per_request;
    let per_batch = (setup.shape.max_batch_tokens / tokens).max(1);
    let mut batcher = Batcher::new(setup.shape.max_batch_tokens);
    let mut seq = 0u64;
    move || {
        batcher.admit(seq as usize, RequestId { client: 0, seq }, tokens);
        seq += 1;
        if seq.is_multiple_of(per_batch as u64) {
            black_box(batcher.next_batch());
        }
    }
}

/// The frontend's gate over one full batch, and `forward_reference` of one
/// request.
pub fn serve_model_probes(setup: &ServeSetup) -> (impl FnMut() + '_, impl FnMut() + '_) {
    let mut rng = StdRng::seed_from_u64(setup.seed);
    let batch = Matrix::uniform(
        setup.shape.max_batch_tokens,
        setup.shape.hidden,
        1.0,
        &mut rng,
    );
    let request = Matrix::uniform(
        setup.shape.tokens_per_request,
        setup.shape.hidden,
        1.0,
        &mut rng,
    );
    (
        move || {
            black_box(setup.model.gate.route(black_box(&batch)));
        },
        move || {
            black_box(setup.model.forward_reference(black_box(&request)));
        },
    )
}

/// Opening and closing one span on a recorder that is recording, and on
/// one that is not (what every instrumented call site pays in a timed
/// pass).
pub fn recorder_probes() -> (impl FnMut(), impl FnMut()) {
    let meta = || SpanMeta::new("probe", "compute", 0, "probe");
    let on = Recorder::new();
    on.enable();
    let off = Recorder::new();
    (
        move || {
            drop(black_box(on.span(meta)));
            // Keep the buffer from growing without bound.
            if on.event_count() >= 4096 {
                on.drain_events();
            }
        },
        move || {
            drop(black_box(off.span(meta)));
        },
    )
}
