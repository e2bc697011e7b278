//! Task nodes and the validated dependency graph.

use crate::manifest::Manifest;
use janus_core::Fnv64;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// One artifact file a task produced.
#[derive(Debug, Clone)]
pub struct OutFile {
    /// File name inside the task's artifact directory.
    pub name: String,
    /// Content to write, or `None` when the task already wrote the file
    /// into [`TaskCtx::dir`] itself (trace exporters do).
    pub bytes: Option<Vec<u8>>,
    /// Volatile files embed wall-clock measurements: their digest is
    /// recorded in the manifest for provenance but never verified.
    pub volatile: bool,
}

impl OutFile {
    /// A deterministic file with in-memory content.
    pub fn new(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        OutFile {
            name: name.into(),
            bytes: Some(bytes),
            volatile: false,
        }
    }

    /// A wall-clock-dependent file with in-memory content.
    pub fn volatile(name: impl Into<String>, bytes: Vec<u8>) -> Self {
        OutFile {
            name: name.into(),
            bytes: Some(bytes),
            volatile: true,
        }
    }

    /// A file the task wrote to [`TaskCtx::dir`] itself.
    pub fn on_disk(name: impl Into<String>, volatile: bool) -> Self {
        OutFile {
            name: name.into(),
            bytes: None,
            volatile,
        }
    }
}

/// What a task run hands back to the executor.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Artifact files (the executor writes, hashes, and manifests them).
    pub files: Vec<OutFile>,
    /// The configuration that produced the artifact, as a JSON object;
    /// its canonical digest becomes the manifest's `config_digest`.
    pub config: Value,
    /// `IterationPlan` digests consumed by this artifact (hex), when the
    /// task compiles plans.
    pub plan_digests: Vec<String>,
}

impl Default for TaskReport {
    fn default() -> Self {
        TaskReport {
            files: Vec::new(),
            config: Value::Null,
            plan_digests: Vec::new(),
        }
    }
}

/// Execution context the executor passes to a task's run closure.
pub struct TaskCtx<'a> {
    /// The task's artifact directory (created, emptied of stale files).
    pub dir: PathBuf,
    /// The lab seed (scheduling + anything a task wants to derive).
    pub seed: u64,
    /// Manifests of this task's dependencies, in declaration order.
    pub deps: &'a [(String, Manifest)],
}

/// The run closure: produce artifact files, or a failure message.
pub type TaskFn = Box<dyn Fn(&TaskCtx) -> Result<TaskReport, String> + Send + Sync>;

/// One node of the experiment graph.
pub struct TaskSpec {
    /// Unique name; also the artifact directory name, so it is
    /// restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// Names of tasks whose artifacts this one consumes.
    pub deps: Vec<String>,
    /// Namespace tags: a task named `faults` with tag `ci` is selected
    /// by the glob `ci/*` as `ci/faults`.
    pub tags: Vec<String>,
    /// Resource hint: run alone (no concurrent tasks), for tasks whose
    /// timings must stay clean and for tasks that mutate process
    /// globals (forced SIMD, pool width, the global recorder).
    pub exclusive: bool,
    /// JSON keys nulled out before hashing this task's `.json` artifacts
    /// — the timing-only fields excluded from bitwise verification.
    pub masked_keys: Vec<String>,
    /// The work.
    pub run: TaskFn,
}

impl TaskSpec {
    /// A non-exclusive task with no dependencies.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&TaskCtx) -> Result<TaskReport, String> + Send + Sync + 'static,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            deps: Vec::new(),
            tags: Vec::new(),
            exclusive: false,
            masked_keys: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Add a dependency edge.
    pub fn dep(mut self, name: impl Into<String>) -> Self {
        self.deps.push(name.into());
        self
    }

    /// Add a namespace tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tags.push(tag.into());
        self
    }

    /// Mark the task exclusive (runs alone).
    pub fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }

    /// Null these JSON keys before hashing/verifying artifacts.
    pub fn mask(mut self, keys: &[&str]) -> Self {
        self.masked_keys.extend(keys.iter().map(|k| k.to_string()));
        self
    }
}

/// Graph construction / selection errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two tasks share a name.
    DuplicateName(String),
    /// A task name contains characters unsafe for an artifact directory.
    BadName(String),
    /// `task` depends on `dep`, which is not registered.
    MissingDep { task: String, dep: String },
    /// The graph has a cycle through these tasks.
    Cycle(Vec<String>),
    /// A `--only` glob matched no task.
    NoMatch(String),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateName(n) => write!(f, "duplicate task name `{n}`"),
            DagError::BadName(n) => write!(
                f,
                "task name `{n}` is not a safe artifact directory name \
                 (use only letters, digits, `.`, `_`, `-`)"
            ),
            DagError::MissingDep { task, dep } => {
                write!(f, "task `{task}` depends on unregistered task `{dep}`")
            }
            DagError::Cycle(names) => {
                write!(f, "dependency cycle through: {}", names.join(" → "))
            }
            DagError::NoMatch(glob) => write!(f, "`--only {glob}` matched no task"),
        }
    }
}

impl std::error::Error for DagError {}

/// The validated experiment graph.
pub struct Dag {
    tasks: Vec<TaskSpec>,
    index: BTreeMap<String, usize>,
}

impl Dag {
    /// Validate and index a task list: names must be unique and
    /// path-safe, every dependency registered, and the edge relation
    /// acyclic.
    pub fn new(tasks: Vec<TaskSpec>) -> Result<Self, DagError> {
        let mut index = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            if t.name.is_empty()
                || !t
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            {
                return Err(DagError::BadName(t.name.clone()));
            }
            if index.insert(t.name.clone(), i).is_some() {
                return Err(DagError::DuplicateName(t.name.clone()));
            }
        }
        for t in &tasks {
            for d in &t.deps {
                if !index.contains_key(d) {
                    return Err(DagError::MissingDep {
                        task: t.name.clone(),
                        dep: d.clone(),
                    });
                }
            }
        }
        let dag = Dag { tasks, index };
        // Kahn's algorithm purely to detect cycles: whatever cannot be
        // scheduled is on (or downstream of) a cycle.
        let order = dag.topo_order(0);
        if order.len() != dag.tasks.len() {
            let scheduled: BTreeSet<usize> = order.into_iter().collect();
            let stuck: Vec<String> = dag
                .tasks
                .iter()
                .enumerate()
                .filter(|(i, _)| !scheduled.contains(i))
                .map(|(_, t)| t.name.clone())
                .collect();
            return Err(DagError::Cycle(stuck));
        }
        Ok(dag)
    }

    /// All tasks, in registration order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Look up a task index by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// A topological order of the whole graph, deterministic per `seed`:
    /// among simultaneously-ready tasks the next is the one with the
    /// smallest seeded name hash, so two runs with the same seed
    /// schedule identically while different seeds explore different
    /// (still valid) interleavings. Returns fewer than `tasks.len()`
    /// entries iff the graph has a cycle.
    pub fn topo_order(&self, seed: u64) -> Vec<usize> {
        let key = |i: usize| {
            let mut h = Fnv64::new();
            h.word(seed);
            h.bytes(self.tasks[i].name.as_bytes());
            (h.finish(), i)
        };
        let mut indegree: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                // Self-edges are cycles; count them but add no dependent,
                // so the node simply never becomes ready.
                if let Some(&j) = self.index.get(d) {
                    if j != i {
                        dependents[j].push(i);
                    }
                }
            }
        }
        let mut ready: BTreeSet<(u64, usize)> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| key(i))
            .collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(&(k, i)) = ready.iter().next() {
            ready.remove(&(k, i));
            order.push(i);
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.insert(key(j));
                }
            }
        }
        order
    }

    /// Resolve `--only` globs to a dependency-closed task set. A glob
    /// matches a task's name, or `tag/name` for each of its tags (so
    /// `ci/*` selects every `ci`-tagged task). Errors if any glob
    /// matches nothing.
    pub fn select(&self, globs: &[String]) -> Result<BTreeSet<usize>, DagError> {
        let mut selected = BTreeSet::new();
        for g in globs {
            let mut hit = false;
            for (i, t) in self.tasks.iter().enumerate() {
                let matches = glob_match(g, &t.name)
                    || t.tags
                        .iter()
                        .any(|tag| glob_match(g, &format!("{tag}/{}", t.name)));
                if matches {
                    selected.insert(i);
                    hit = true;
                }
            }
            if !hit {
                return Err(DagError::NoMatch(g.clone()));
            }
        }
        Ok(self.close_over_deps(selected))
    }

    /// Every task: the graph `repro lab` runs without `--only`.
    pub fn all(&self) -> BTreeSet<usize> {
        (0..self.tasks.len()).collect()
    }

    fn close_over_deps(&self, mut set: BTreeSet<usize>) -> BTreeSet<usize> {
        let mut frontier: Vec<usize> = set.iter().copied().collect();
        while let Some(i) = frontier.pop() {
            for d in &self.tasks[i].deps {
                let j = self.index[d];
                if set.insert(j) {
                    frontier.push(j);
                }
            }
        }
        set
    }
}

/// `*`-wildcard match (no character classes; `*` spans any run of
/// characters including `/`).
pub fn glob_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    // Iterative backtracking matcher.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_match_names_and_namespaces() {
        assert!(glob_match("fig*", "fig13"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("ci/*", "ci/faults"));
        assert!(glob_match("fig13", "fig13"));
        assert!(!glob_match("fig13", "fig14"));
        assert!(!glob_match("fig*z", "fig13"));
        assert!(glob_match("*a*b*", "xaxxbx"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("*", ""));
    }
}
