//! DAG-core and executor tests: validation errors, deterministic
//! scheduling, and the manifest/verify contract.

use janus_lab::{Dag, DagError, Executor, LabEnv, OutFile, TaskReport, TaskSpec, TaskStatus};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A no-op task with the given name.
fn noop(name: &str) -> TaskSpec {
    TaskSpec::new(name, |_ctx| Ok(TaskReport::default()))
}

/// A fresh scratch root under the system temp dir, emptied first.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-lab-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cycle_is_rejected_and_named() {
    let tasks = vec![
        noop("a").dep("c"),
        noop("b").dep("a"),
        noop("c").dep("b"),
        noop("free"),
    ];
    match Dag::new(tasks) {
        Err(DagError::Cycle(stuck)) => {
            for name in ["a", "b", "c"] {
                assert!(
                    stuck.contains(&name.to_string()),
                    "cycle must name `{name}`"
                );
            }
            assert!(!stuck.contains(&"free".to_string()));
        }
        other => panic!("expected Cycle, got {:?}", other.err()),
    }
}

#[test]
fn self_edge_is_a_cycle() {
    match Dag::new(vec![noop("a").dep("a")]) {
        Err(DagError::Cycle(stuck)) => assert_eq!(stuck, vec!["a".to_string()]),
        other => panic!("expected Cycle, got {:?}", other.err()),
    }
}

#[test]
fn missing_dependency_is_rejected() {
    match Dag::new(vec![noop("a").dep("ghost")]) {
        Err(DagError::MissingDep { task, dep }) => {
            assert_eq!(task, "a");
            assert_eq!(dep, "ghost");
        }
        other => panic!("expected MissingDep, got {:?}", other.err()),
    }
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
    for bad in ["", "a/b", "a b", "../up"] {
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

/// A diamond plus independent leaves — enough simultaneously-ready tasks
/// that seed-keyed tie-breaking has room to reorder.
fn wide_dag() -> Dag {
    Dag::new(vec![
        noop("root"),
        noop("left").dep("root"),
        noop("right").dep("root"),
        noop("join").dep("left").dep("right"),
        noop("leaf0"),
        noop("leaf1"),
        noop("leaf2"),
        noop("leaf3"),
    ])
    .unwrap()
}

#[test]
fn topo_order_is_deterministic_per_seed_and_respects_deps() {
    let dag = wide_dag();
    let mut orders = BTreeSet::new();
    for seed in 0..16u64 {
        let order = dag.topo_order(seed);
        assert_eq!(order, dag.topo_order(seed), "same seed, same order");
        assert_eq!(order.len(), dag.tasks().len());
        let pos: Vec<usize> = {
            let mut pos = vec![0; order.len()];
            for (p, &i) in order.iter().enumerate() {
                pos[i] = p;
            }
            pos
        };
        for (i, t) in dag.tasks().iter().enumerate() {
            for d in &t.deps {
                let j = dag.find(d).unwrap();
                assert!(
                    pos[j] < pos[i],
                    "seed {seed}: `{d}` must precede `{}`",
                    t.name
                );
            }
        }
        orders.insert(order);
    }
    assert!(
        orders.len() > 1,
        "16 seeds over 6 unordered tasks should explore more than one interleaving"
    );
}

/// A small graph whose artifacts are pure functions of the lab seed:
/// a diamond where the join hashes its dependencies' digests.
fn seeded_dag() -> Dag {
    let emit = |name: &'static str| {
        TaskSpec::new(name, move |ctx| {
            Ok(TaskReport {
                files: vec![OutFile::new(
                    format!("{name}.json"),
                    format!("{{\"seed\": {}}}\n", ctx.seed).into_bytes(),
                )],
                config: Value::Str(name.to_string()),
                plan_digests: vec![format!("{:016x}", ctx.seed)],
            })
        })
    };
    Dag::new(vec![
        emit("a"),
        emit("b"),
        emit("c"),
        TaskSpec::new("join", |ctx| {
            let inputs: Vec<String> = ctx
                .deps
                .iter()
                .map(|(name, m)| format!("{name}:{}", m.output_digest()))
                .collect();
            Ok(TaskReport {
                files: vec![OutFile::new(
                    "join.json",
                    format!("{{\"inputs\": {:?}}}\n", inputs).into_bytes(),
                )],
                config: Value::Str("join".to_string()),
                plan_digests: Vec::new(),
            })
        })
        .dep("a")
        .dep("b")
        .dep("c"),
    ])
    .unwrap()
}

fn manifest_bytes(root: &std::path::Path, task: &str) -> Vec<u8> {
    std::fs::read(root.join(task).join("manifest.json"))
        .unwrap_or_else(|e| panic!("manifest for `{task}`: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A parallel run and a serial run of the same graph at the same
    /// seed produce byte-identical manifests: scheduling is invisible
    /// in every recorded (non-diagnostic) byte.
    #[test]
    fn parallel_and_serial_runs_emit_identical_manifests(seed in 0u64..1_000_000) {
        let dag = seeded_dag();
        let selected = dag.all();
        let serial_root = scratch(&format!("serial-{seed}"));
        let parallel_root = scratch(&format!("parallel-{seed}"));

        let serial = Executor::new(&serial_root, 1, seed, LabEnv::unknown()).quiet();
        prop_assert!(serial.run(&dag, &selected).ok());
        let parallel = Executor::new(&parallel_root, 4, seed, LabEnv::unknown()).quiet();
        prop_assert!(parallel.run(&dag, &selected).ok());

        for task in ["a", "b", "c", "join"] {
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
    let mut spec = TaskSpec::new("noisy", move |_ctx| {
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
        let exec = Executor::new(&root, 1, 0, LabEnv::unknown()).quiet();
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
    let dag = Dag::new(vec![TaskSpec::new("timing", |_ctx| {
        Ok(TaskReport {
            files: vec![OutFile::volatile("timing.json", b"{\"ms\": 1}\n".to_vec())],
            config: Value::Str("timing".to_string()),
            plan_digests: Vec::new(),
        })
    })])
    .unwrap();
    let root = scratch("volatile");
    let selected = dag.all();
    let exec = Executor::new(&root, 1, 0, LabEnv::unknown()).quiet();
    assert!(exec.run(&dag, &selected).ok());
    let summary = exec.verify(&dag, &selected);
    assert_eq!(summary.outcomes[0].status, TaskStatus::Skipped);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn failed_dependency_skips_dependents() {
    let dag = Dag::new(vec![
        TaskSpec::new("boom", |_ctx| Err("deliberate".to_string())),
        noop("after").dep("boom"),
    ])
    .unwrap();
    let root = scratch("skip");
    let exec = Executor::new(&root, 1, 0, LabEnv::unknown()).quiet();
    let summary = exec.run(&dag, &dag.all());
    assert!(!summary.ok());
    assert_eq!(summary.count(TaskStatus::Failed), 1);
    assert_eq!(summary.count(TaskStatus::Skipped), 1);
    let _ = std::fs::remove_dir_all(&root);
}
