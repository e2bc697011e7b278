//! `janus-lab`: the experiment runner behind `repro`.
//!
//! The paper's evaluation is a list of artifacts: tables, figures, and
//! fault / crash / migration / serving / trace ledgers. This crate
//! models each as a [`TaskSpec`] — a name, namespace tags, resource
//! hints, and a run closure that produces artifact files — validates the
//! list up front ([`Dag`]), and runs a selection of it with an
//! [`Executor`].
//!
//! Every task run emits, next to its artifact files:
//!
//! - `manifest.json` — everything needed to reproduce the artifact:
//!   the task's config and its digest, `IterationPlan` digests,
//!   git-describe, tool versions, and a canonical content digest per
//!   output file.
//! - `diagnostics.json` — how the run went: elapsed wall time, the
//!   `janus-obs` counter snapshot, thread configuration.
//!
//! Digests are the workspace-wide FNV-1a (`janus_core::Fnv64`), so an
//! artifact hash and a plan digest live in the same value space. Files
//! whose bytes embed wall-clock measurements are either marked
//! *volatile* (recorded but never verified) or hashed through a masked
//! canonical form that nulls the timing-only JSON fields — which is what
//! lets [`Executor::verify`] re-run a task from its manifest and diff
//! the output bitwise, timing fields excluded.
//!
//! Tasks are independent. The executor runs the non-exclusive ones of a
//! selection in parallel (bounded by `--jobs`), then each task flagged
//! [`exclusive`](TaskSpec::exclusive) alone, so process-global state
//! (the global span recorder) and real-mesh timings stay clean. Tasks
//! running inside pool workers inherit the pool's nested-region guard,
//! so their internal kernels serialize instead of oversubscribing —
//! bitwise-identically, by the pool's disjoint-work invariant, which is
//! why `--jobs 1` and `--jobs 4` produce identical manifests.

pub mod dag;
pub mod exec;
pub mod manifest;

pub use dag::{Dag, DagError, OutFile, TaskReport, TaskSpec};
pub use exec::{Executor, LabEnv, RunSummary, TaskOutcome, TaskStatus};
pub use manifest::{canonical_digest, canonical_masked_json, Diagnostics, FileEntry, Manifest};

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialize multi-line console output across concurrently running
/// tasks: a task that prints a rendered table takes this lock for the
/// duration of the print, so `--jobs 4` interleaves whole tables, never
/// lines. (Rust's `println!` only locks per line.)
pub fn stdout_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}
