//! Janus — a unified distributed training framework for sparse
//! Mixture-of-Experts models (Rust reproduction of the SIGCOMM'23 paper).
//!
//! This facade crate re-exports the workspace members under one roof so
//! examples and downstream users can depend on a single crate:
//!
//! * [`topology`] — cluster model (machines, GPUs, NVLink/PCIe/NIC links).
//! * [`netsim`] — deterministic discrete-event fluid-flow simulator.
//! * [`tensor`] — minimal dense tensor math used by the numerical engines.
//! * [`moe`] — MoE model configs, gate, experts, workloads, analytic
//!   traffic model (Table 1, the `R` metric).
//! * [`comm`] — message-passing runtime (framing, channel/TCP transports,
//!   collectives).
//! * [`core`] — the paper's contribution: the Janus Task Queue, schedulers,
//!   topology-aware priorities, prefetch, paradigm selection, and the
//!   simulation/execution engines.
//! * [`obs`] — span tracing, metrics, and Chrome-trace/Prometheus export
//!   shared by the execution engines, transports, and simulator.
//! * [`lab`] — the experiment runner: manifests, canonical digests,
//!   and bitwise verification of artifacts.
//! * [`serve`] — the inference serving plane: continuous batching,
//!   disaggregated attention/expert workers, gate-driven replica
//!   scaling, and SLO measurement.
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use janus_comm as comm;
pub use janus_core as core;
pub use janus_lab as lab;
pub use janus_moe as moe;
pub use janus_netsim as netsim;
pub use janus_obs as obs;
pub use janus_serve as serve;
pub use janus_tensor as tensor;
pub use janus_topology as topology;
