//! Task specs and the validated task list.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;

/// One artifact file a task produced.
#[derive(Debug, Clone)]
pub struct OutFile {
    /// File name inside the task's artifact directory.
    pub name: String,
    /// Content to write, or `None` when the task already wrote the file
    /// into its artifact directory itself (trace exporters do).
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

    /// A file the task wrote to its artifact directory itself.
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

/// The run closure: given the task's artifact directory (created and
/// empty), produce artifact files, or a failure message.
pub type TaskFn = Box<dyn Fn(&Path) -> Result<TaskReport, String> + Send + Sync>;

/// One experiment of the lab.
pub struct TaskSpec {
    /// Unique name; also the artifact directory name, so it is
    /// restricted to `[A-Za-z0-9._-]` and may not start with `.`.
    pub name: String,
    /// Namespace tags: a task named `faults` with tag `ci` is selected
    /// by the glob `ci/*` as `ci/faults`.
    pub tags: Vec<String>,
    /// Resource hint: run alone (no concurrent tasks), for tasks that
    /// time a real mesh or mutate process globals (the global span
    /// recorder).
    pub exclusive: bool,
    /// JSON keys nulled out before hashing this task's `.json` artifacts
    /// — the timing-only fields excluded from bitwise verification.
    pub masked_keys: Vec<String>,
    /// The work.
    pub run: TaskFn,
}

impl TaskSpec {
    /// A non-exclusive task.
    pub fn new(
        name: impl Into<String>,
        run: impl Fn(&Path) -> Result<TaskReport, String> + Send + Sync + 'static,
    ) -> Self {
        TaskSpec {
            name: name.into(),
            tags: Vec::new(),
            exclusive: false,
            masked_keys: Vec::new(),
            run: Box::new(run),
        }
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

/// Task-list construction / selection errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two tasks share a name.
    DuplicateName(String),
    /// A task name is unsafe as an artifact directory name.
    BadName(String),
    /// A selector glob matched no task.
    NoMatch(String),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateName(n) => write!(f, "duplicate task name `{n}`"),
            DagError::BadName(n) => write!(
                f,
                "task name `{n}` is not a safe artifact directory name \
                 (use only letters, digits, `.`, `_`, `-`, and do not start with `.`)"
            ),
            DagError::NoMatch(glob) => write!(f, "no task matches `{glob}`"),
        }
    }
}

impl std::error::Error for DagError {}

/// The validated task list, in registration order.
pub struct Dag {
    tasks: Vec<TaskSpec>,
}

impl Dag {
    /// Validate a task list: names must be unique and path-safe. A name
    /// starting with `.` is rejected, so no task can own `.`, `..` or
    /// the executor's `.verify` staging directory.
    pub fn new(tasks: Vec<TaskSpec>) -> Result<Self, DagError> {
        let mut names = BTreeSet::new();
        for t in &tasks {
            let safe = t
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
            if !safe || t.name.is_empty() || t.name.starts_with('.') {
                return Err(DagError::BadName(t.name.clone()));
            }
            if !names.insert(t.name.as_str()) {
                return Err(DagError::DuplicateName(t.name.clone()));
            }
        }
        Ok(Dag { tasks })
    }

    /// All tasks, in registration order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Resolve selector globs to a task set. A glob matches a task's
    /// name, or `tag/name` for each of its tags (so `ci/*` selects every
    /// `ci`-tagged task). Errors if any glob matches nothing.
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
        Ok(selected)
    }

    /// Every task: what `repro` runs without a selector.
    pub fn all(&self) -> BTreeSet<usize> {
        (0..self.tasks.len()).collect()
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
