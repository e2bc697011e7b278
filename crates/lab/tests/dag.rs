//! Task-list and executor tests: validation errors, scheduling, and the
//! manifest/verify contract.

use janus_lab::{Dag, DagError, Executor, LabEnv, OutFile, TaskReport, TaskSpec, TaskStatus};
use proptest::prelude::*;
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A no-op task with the given name.
fn noop(name: &str) -> TaskSpec {
    TaskSpec::new(name, |_dir| Ok(TaskReport::default()))
}

/// A fresh scratch root under the system temp dir, emptied first.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-lab-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn duplicate_name_is_rejected() {
    match Dag::new(vec![noop("a"), noop("a")]) {
        Err(DagError::DuplicateName(n)) => assert_eq!(n, "a"),
        other => panic!("expected DuplicateName, got {:?}", other.err()),
    }
}

#[test]
fn unsafe_directory_names_are_rejected() {
    for bad in ["", "a/b", "a b", "../up", ".", "..", ".verify"] {
        assert!(
            matches!(Dag::new(vec![noop(bad)]), Err(DagError::BadName(_))),
            "`{bad}` must be rejected"
        );
    }
}

#[test]
fn unmatched_glob_errors() {
    let dag = Dag::new(vec![noop("a")]).unwrap();
    assert_eq!(
        dag.select(&["nope*".to_string()]),
        Err(DagError::NoMatch("nope*".to_string()))
    );
}

/// Independent tasks whose artifacts are pure functions of `input`.
fn emitting_dag(input: u64) -> Dag {
    let emit = |name: &'static str| {
        TaskSpec::new(name, move |_dir| {
            Ok(TaskReport {
                files: vec![OutFile::new(
                    format!("{name}.json"),
                    format!("{{\"input\": {input}}}\n").into_bytes(),
                )],
                config: Value::Str(name.to_string()),
                plan_digests: vec![format!("{input:016x}")],
            })
        })
    };
    Dag::new(vec![emit("a"), emit("b"), emit("c"), emit("d")]).unwrap()
}

fn manifest_bytes(root: &std::path::Path, task: &str) -> Vec<u8> {
    std::fs::read(root.join(task).join("manifest.json"))
        .unwrap_or_else(|e| panic!("manifest for `{task}`: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A parallel run and a serial run of the same tasks produce
    /// byte-identical manifests: scheduling is invisible in every
    /// recorded (non-diagnostic) byte.
    #[test]
    fn parallel_and_serial_runs_emit_identical_manifests(input in 0u64..1_000_000) {
        let dag = emitting_dag(input);
        let selected = dag.all();
        let serial_root = scratch(&format!("serial-{input}"));
        let parallel_root = scratch(&format!("parallel-{input}"));

        let serial = Executor::new(&serial_root, 1, LabEnv::unknown()).quiet();
        prop_assert!(serial.run(&dag, &selected).ok());
        let parallel = Executor::new(&parallel_root, 4, LabEnv::unknown()).quiet();
        prop_assert!(parallel.run(&dag, &selected).ok());

        for task in ["a", "b", "c", "d"] {
            prop_assert_eq!(
                manifest_bytes(&serial_root, task),
                manifest_bytes(&parallel_root, task),
                "manifest of `{}` differs between --jobs 1 and --jobs 4", task
            );
        }
        let _ = std::fs::remove_dir_all(&serial_root);
        let _ = std::fs::remove_dir_all(&parallel_root);
    }
}

/// A task whose JSON artifact has one field that changes every run
/// (`noise`) next to a stable payload (`value`).
fn noisy_dag(masked: bool) -> Dag {
    let runs = Arc::new(AtomicU64::new(0));
    let mut spec = TaskSpec::new("noisy", move |_dir| {
        let n = runs.fetch_add(1, Ordering::Relaxed);
        Ok(TaskReport {
            files: vec![OutFile::new(
                "noisy.json",
                format!("{{\"value\": 7, \"noise\": {n}}}\n").into_bytes(),
            )],
            config: Value::Str("noisy".to_string()),
            plan_digests: Vec::new(),
        })
    });
    if masked {
        spec = spec.mask(&["noise"]);
    }
    Dag::new(vec![spec]).unwrap()
}

#[test]
fn verify_masks_declared_keys_and_catches_the_rest() {
    for (masked, expect) in [(true, TaskStatus::Ok), (false, TaskStatus::Failed)] {
        let dag = noisy_dag(masked);
        let root = scratch(if masked { "masked" } else { "unmasked" });
        let selected = dag.all();
        let exec = Executor::new(&root, 1, LabEnv::unknown()).quiet();
        assert!(exec.run(&dag, &selected).ok());
        let summary = exec.verify(&dag, &selected);
        assert_eq!(
            summary.outcomes[0].status, expect,
            "masked={masked}: {}",
            summary.outcomes[0].detail
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn verify_skips_tasks_with_only_volatile_outputs() {
    let dag = Dag::new(vec![TaskSpec::new("timing", |_dir| {
        Ok(TaskReport {
            files: vec![OutFile::volatile("timing.json", b"{\"ms\": 1}\n".to_vec())],
            config: Value::Str("timing".to_string()),
            plan_digests: Vec::new(),
        })
    })])
    .unwrap();
    let root = scratch("volatile");
    let selected = dag.all();
    let exec = Executor::new(&root, 1, LabEnv::unknown()).quiet();
    assert!(exec.run(&dag, &selected).ok());
    let summary = exec.verify(&dag, &selected);
    assert_eq!(summary.outcomes[0].status, TaskStatus::Skipped);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failed_task_is_reported_and_the_others_still_run() {
    let dag = Dag::new(vec![
        noop("before"),
        TaskSpec::new("boom", |_dir| Err("deliberate".to_string())),
        TaskSpec::new("panics", |_dir| panic!("deliberate")),
        noop("after"),
        noop("alone").exclusive(),
    ])
    .unwrap();
    let root = scratch("failed");
    let exec = Executor::new(&root, 2, LabEnv::unknown()).quiet();
    let summary = exec.run(&dag, &dag.all());
    assert!(!summary.ok());
    let status = |name: &str| {
        let o = summary.outcomes.iter().find(|o| o.name == name).unwrap();
        (o.status.clone(), o.detail.clone())
    };
    assert_eq!(status("boom"), (TaskStatus::Failed, "deliberate".into()));
    assert_eq!(
        status("panics"),
        (TaskStatus::Failed, "panicked: deliberate".into())
    );
    assert_eq!(summary.count(TaskStatus::Ok), 3);
    for name in ["before", "after", "alone"] {
        assert!(root.join(name).join("manifest.json").exists(), "{name} ran");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// What the [`counted`] tasks of one executor observed.
#[derive(Default)]
struct Flight {
    /// Tasks running right now.
    in_flight: AtomicUsize,
    /// Most tasks ever running at once.
    peak: AtomicUsize,
    /// An exclusive task shared the executor with another task.
    overlapped: AtomicBool,
}

/// A task that counts itself in flight for a moment, records whether it
/// ever shared the executor with another task while `exclusive`, and
/// emits one deterministic file (so `verify` re-runs it).
fn counted(name: &str, exclusive: bool, flight: &Arc<Flight>) -> TaskSpec {
    let flight = flight.clone();
    let file = format!("{name}.json");
    let spec = TaskSpec::new(name, move |_dir| {
        let others = flight.in_flight.fetch_add(1, Ordering::SeqCst);
        flight.peak.fetch_max(others + 1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        let others_at_end = flight.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        if exclusive && (others > 0 || others_at_end > 0) {
            flight.overlapped.store(true, Ordering::SeqCst);
        }
        Ok(TaskReport {
            files: vec![OutFile::new(file.clone(), b"{}\n".to_vec())],
            ..TaskReport::default()
        })
    });
    if exclusive {
        spec.exclusive()
    } else {
        spec
    }
}

/// Twelve tasks, every third one exclusive, interleaved in registration
/// order.
fn counted_dag(flight: &Arc<Flight>) -> Dag {
    let tasks = (0..12)
        .map(|i| counted(&format!("t{i}"), i % 3 == 1, flight))
        .collect();
    Dag::new(tasks).unwrap()
}

#[test]
fn exclusive_tasks_never_overlap_another_task() {
    let flight = Arc::new(Flight::default());
    let dag = counted_dag(&flight);
    let root = scratch("exclusive");
    let exec = Executor::new(&root, 4, LabEnv::unknown()).quiet();
    let summary = exec.run(&dag, &dag.all());
    assert!(summary.ok());
    assert_eq!(summary.count(TaskStatus::Ok), 12);
    assert!(
        !flight.overlapped.load(Ordering::SeqCst),
        "an exclusive task ran while another task was in flight"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `verify` schedules like `run`: up to `jobs` shared tasks at once, and
/// exclusive tasks alone.
#[test]
fn verify_runs_shared_tasks_concurrently_and_exclusive_ones_alone() {
    let flight = Arc::new(Flight::default());
    let dag = counted_dag(&flight);
    let root = scratch("verify-jobs");
    let exec = Executor::new(&root, 4, LabEnv::unknown()).quiet();
    assert!(exec.run(&dag, &dag.all()).ok());
    let verify_flight = Arc::new(Flight::default());
    let dag = counted_dag(&verify_flight);
    let summary = exec.verify(&dag, &dag.all());
    assert!(summary.ok(), "{:?}", summary.outcomes);
    assert_eq!(summary.count(TaskStatus::Ok), 12);
    assert!(
        !verify_flight.overlapped.load(Ordering::SeqCst),
        "an exclusive task was verified while another task was in flight"
    );
    let peak = verify_flight.peak.load(Ordering::SeqCst);
    assert!(
        (2..=4).contains(&peak),
        "verify at --jobs 4 ran at most {peak} tasks at once"
    );
    let _ = std::fs::remove_dir_all(&root);
}
