//! Benchmark harness regenerating every table and figure of the Janus
//! paper's evaluation (§7) on the discrete-event cluster simulator.
//!
//! Each experiment module exposes `run()` returning structured rows,
//! `print(&rows)` emitting the same table/series the paper reports, with
//! the paper's published numbers alongside for comparison, and `task()`,
//! its entry in the lab's task list. The `repro` binary drives them all:
//!
//! ```text
//! cargo run --release -p janus-bench --bin repro -- lab
//! cargo run --release -p janus-bench --bin repro -- fig12 fig14
//! ```

pub mod experiments;
pub mod table;

use janus_topology::{Cluster, ClusterSpec};

/// The paper's evaluation machines: `n` machines × 8 A100s.
pub fn paper_cluster(machines: usize) -> Cluster {
    ClusterSpec::a100(machines, 8).build()
}
