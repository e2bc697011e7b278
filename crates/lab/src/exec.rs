//! The task executor: manifest emission and verification.

use crate::dag::{Dag, TaskSpec};
use crate::manifest::{canonical_digest, Diagnostics, FileEntry, Manifest};
use janus_tensor::pool;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Outcome of executing a single task: its manifest plus elapsed
/// milliseconds on success, or a failure description.
type TaskResult = Result<(Manifest, u64), String>;

/// Tool/tree identity stamped into every manifest.
#[derive(Debug, Clone)]
pub struct LabEnv {
    /// `git describe --always --dirty`.
    pub git_describe: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Workspace crate version.
    pub janus_version: String,
}

impl LabEnv {
    /// Probe the environment (subprocesses; falls back to `unknown`
    /// per field when a tool is unavailable).
    pub fn detect() -> Self {
        LabEnv {
            git_describe: probe("git", &["describe", "--always", "--dirty"]),
            rustc: probe("rustc", &["-V"]),
            janus_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// All-`unknown` identity — for tests, where spawning subprocesses
    /// would make manifests depend on the test environment.
    pub fn unknown() -> Self {
        LabEnv {
            git_describe: "unknown".to_string(),
            rustc: "unknown".to_string(),
            janus_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }
}

fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// How one task ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Ran (or verified) successfully.
    Ok,
    /// The run closure errored or panicked, or verification mismatched.
    Failed,
    /// Not verified: every output is volatile, so there is nothing
    /// deterministic to check.
    Skipped,
}

/// Per-task result row of a lab run.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Task name.
    pub name: String,
    /// How it ended.
    pub status: TaskStatus,
    /// Failure message / skip reason; empty on success.
    pub detail: String,
    /// Wall time of the run closure (0 for skipped tasks).
    pub elapsed_ms: u64,
}

/// Result of [`Executor::run`] / [`Executor::verify`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// One row per selected task, in run order.
    pub outcomes: Vec<TaskOutcome>,
    /// Total wall time.
    pub elapsed_ms: u64,
}

impl RunSummary {
    /// True when no task failed (skips are not failures).
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.status != TaskStatus::Failed)
    }

    /// Count of outcomes with the given status.
    pub fn count(&self, status: TaskStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }
}

/// Runs a [`Dag`] selection: non-exclusive tasks in parallel on the
/// `janus-tensor` pool (bounded by `jobs`), then exclusive tasks one at
/// a time, each group in registration order. Writes `manifest.json` +
/// `diagnostics.json` next to each task's artifacts under `root`.
pub struct Executor {
    /// Artifact root; each task owns `root/<task>/`.
    pub root: PathBuf,
    /// Max concurrently running tasks.
    pub jobs: usize,
    /// Identity stamped into manifests.
    pub env: LabEnv,
    /// Print per-task status lines.
    pub quiet: bool,
}

impl Executor {
    /// Executor writing under `root`.
    pub fn new(root: impl Into<PathBuf>, jobs: usize, env: LabEnv) -> Self {
        Executor {
            root: root.into(),
            jobs: jobs.max(1),
            env,
            quiet: false,
        }
    }

    /// Suppress per-task status lines.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Run the selected tasks: the non-exclusive ones concurrently, then
    /// each exclusive one alone. A failed task does not stop the others.
    pub fn run(&self, dag: &Dag, selected: &BTreeSet<usize>) -> RunSummary {
        let t0 = Instant::now();
        let outcomes = self.schedule(dag, selected, |t| self.run_reported(t));
        RunSummary {
            outcomes,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        }
    }

    /// Re-run each selected task from its recorded manifest into a
    /// staging directory and compare canonical digests (config, plans,
    /// non-volatile outputs), scheduled like [`Executor::run`]: up to
    /// `jobs` non-exclusive tasks at once, then each exclusive one alone.
    /// Tasks whose outputs are all volatile are skipped — there is
    /// nothing deterministic to check.
    pub fn verify(&self, dag: &Dag, selected: &BTreeSet<usize>) -> RunSummary {
        let t0 = Instant::now();
        let staging_root = self.root.join(".verify");
        let outcomes = self.schedule(dag, selected, |t| {
            let outcome = self.verify_one(t, &staging_root);
            self.report_line(&outcome);
            outcome
        });
        let _ = std::fs::remove_dir_all(&staging_root);
        RunSummary {
            outcomes,
            elapsed_ms: t0.elapsed().as_millis() as u64,
        }
    }

    /// Apply `task` to the selection: the non-exclusive tasks on the pool,
    /// at most `jobs` at once, then each exclusive task alone, both groups
    /// in registration order.
    fn schedule(
        &self,
        dag: &Dag,
        selected: &BTreeSet<usize>,
        task: impl Fn(&TaskSpec) -> TaskOutcome + Sync,
    ) -> Vec<TaskOutcome> {
        let (exclusive, shared): (Vec<&TaskSpec>, Vec<&TaskSpec>) = selected
            .iter()
            .map(|&i| &dag.tasks()[i])
            .partition(|t| t.exclusive);
        let mut outcomes = pool::run_tasks_bounded(self.jobs, shared.len(), |k| task(shared[k]));
        outcomes.extend(exclusive.into_iter().map(task));
        outcomes
    }

    fn verify_one(&self, spec: &TaskSpec, staging_root: &Path) -> TaskOutcome {
        let recorded = match Manifest::load(&self.root.join(&spec.name).join("manifest.json")) {
            Ok(m) => m,
            Err(e) => {
                return TaskOutcome {
                    name: spec.name.clone(),
                    status: TaskStatus::Failed,
                    detail: format!("no recorded manifest ({e}); run `repro lab` first"),
                    elapsed_ms: 0,
                }
            }
        };
        if recorded.verified_outputs().next().is_none() {
            return TaskOutcome {
                name: spec.name.clone(),
                status: TaskStatus::Skipped,
                detail: "all outputs volatile; nothing deterministic to verify".to_string(),
                elapsed_ms: 0,
            };
        }
        let t0 = Instant::now();
        let staged = Executor {
            root: staging_root.to_path_buf(),
            jobs: 1,
            env: self.env.clone(),
            quiet: true,
        };
        let result = staged.run_one(spec);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        let (status, detail) = match result {
            Err(e) => (TaskStatus::Failed, format!("re-run failed: {e}")),
            Ok((fresh, _)) => match diff_manifests(&recorded, &fresh) {
                None => (TaskStatus::Ok, String::new()),
                Some(diff) => (TaskStatus::Failed, diff),
            },
        };
        TaskOutcome {
            name: spec.name.clone(),
            status,
            detail,
            elapsed_ms,
        }
    }

    /// [`Executor::run_one`], reported as an outcome row.
    fn run_reported(&self, spec: &TaskSpec) -> TaskOutcome {
        let (status, detail, elapsed_ms) = match self.run_one(spec) {
            Ok((_, elapsed_ms)) => (TaskStatus::Ok, String::new(), elapsed_ms),
            Err(e) => (TaskStatus::Failed, e, 0),
        };
        let outcome = TaskOutcome {
            name: spec.name.clone(),
            status,
            detail,
            elapsed_ms,
        };
        self.report_line(&outcome);
        outcome
    }

    /// Run one task: empty its artifact directory, invoke the closure
    /// (panics caught), persist artifact files, and write
    /// `manifest.json` + `diagnostics.json`.
    fn run_one(&self, spec: &TaskSpec) -> TaskResult {
        let dir = self.root.join(&spec.name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| (spec.run)(&dir)))
            .map_err(|p| format!("panicked: {}", panic_message(&*p)))??;
        let elapsed_ms = t0.elapsed().as_millis() as u64;

        let mut outputs = Vec::with_capacity(report.files.len());
        for f in &report.files {
            let path = dir.join(&f.name);
            let bytes = match &f.bytes {
                Some(b) => {
                    std::fs::write(&path, b)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    b.clone()
                }
                None => std::fs::read(&path)
                    .map_err(|e| format!("task reported {} but did not write it: {e}", f.name))?,
            };
            outputs.push(FileEntry {
                file: f.name.clone(),
                raw_bytes: bytes.len() as u64,
                digest: canonical_digest(&f.name, &bytes, &spec.masked_keys),
                volatile: f.volatile,
            });
        }
        let config_text = serde_json::to_string(&report.config).expect("config renders");
        let manifest = Manifest {
            task: spec.name.clone(),
            config: report.config.clone(),
            config_digest: canonical_digest("config.json", config_text.as_bytes(), &[]),
            plan_digests: report.plan_digests.clone(),
            git_describe: self.env.git_describe.clone(),
            rustc: self.env.rustc.clone(),
            janus_version: self.env.janus_version.clone(),
            masked_keys: spec.masked_keys.clone(),
            outputs,
        };
        let diagnostics = Diagnostics {
            elapsed_ms,
            jobs: self.jobs as u64,
            pool_threads: pool::threads() as u64,
            counters: janus_obs::global().counter_values(),
        };
        std::fs::write(dir.join("manifest.json"), manifest.to_json())
            .map_err(|e| format!("write manifest: {e}"))?;
        std::fs::write(dir.join("diagnostics.json"), diagnostics.to_json())
            .map_err(|e| format!("write diagnostics: {e}"))?;
        Ok((manifest, elapsed_ms))
    }

    fn report_line(&self, outcome: &TaskOutcome) {
        if self.quiet {
            return;
        }
        let _g = crate::stdout_lock();
        match outcome.status {
            TaskStatus::Ok => {
                println!(
                    "lab: {:<12} ok      {:>6} ms",
                    outcome.name, outcome.elapsed_ms
                )
            }
            TaskStatus::Failed => {
                println!("lab: {:<12} FAILED  {}", outcome.name, outcome.detail)
            }
            TaskStatus::Skipped => {
                println!("lab: {:<12} skipped {}", outcome.name, outcome.detail)
            }
        }
    }
}

/// First difference between a recorded and a freshly produced manifest,
/// or `None` when they verify. Timing never appears here: manifests are
/// deterministic by construction and volatile outputs are excluded.
fn diff_manifests(recorded: &Manifest, fresh: &Manifest) -> Option<String> {
    if recorded.config_digest != fresh.config_digest {
        return Some(format!(
            "config digest changed: recorded {} vs fresh {}",
            recorded.config_digest, fresh.config_digest
        ));
    }
    if recorded.plan_digests != fresh.plan_digests {
        return Some(format!(
            "plan digests changed: recorded {:?} vs fresh {:?}",
            recorded.plan_digests, fresh.plan_digests
        ));
    }
    let fresh_files: BTreeMap<&str, &FileEntry> = fresh
        .verified_outputs()
        .map(|f| (f.file.as_str(), f))
        .collect();
    for f in recorded.verified_outputs() {
        match fresh_files.get(f.file.as_str()) {
            None => return Some(format!("output `{}` no longer produced", f.file)),
            Some(g) if g.digest != f.digest => {
                return Some(format!(
                    "output `{}` canonical digest changed: recorded {} vs fresh {}",
                    f.file, f.digest, g.digest
                ))
            }
            Some(_) => {}
        }
    }
    let recorded_names: BTreeSet<&str> = recorded
        .verified_outputs()
        .map(|f| f.file.as_str())
        .collect();
    if let Some(extra) = fresh_files.keys().find(|k| !recorded_names.contains(*k)) {
        return Some(format!("new unrecorded output `{extra}`"));
    }
    None
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
