//! The benchmark contract, checked against the built binary: what
//! `BENCHMARK.json` declares is what `ledger` prints, for every workload and
//! both kinds of run. The run is 1/50 of full length, so it also catches a
//! signature of the repository drifting away from `src/adapter.rs`.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn ledger() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ledger"));
    // Artifacts land under the working directory: keep them in the build's
    // scratch space.
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"));
    cmd
}

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> BTreeSet<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_string())
        .collect()
}

#[test]
fn benchmark_json_is_what_the_binary_describes() {
    let out = ledger().arg("--describe").output().expect("ledger runs");
    assert!(out.status.success());
    let described: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("description parses");
    assert_eq!(declared(), described);
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let declared = declared();
    let out = ledger().arg("--quick").output().expect("ledger runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ledger --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect();
    let workloads = names(&declared["workloads"]);
    assert_eq!(
        results.len(),
        2 * workloads.len(),
        "a timed and a traced run each"
    );
    let tables = [
        names(&declared["end_to_end"]),
        names(&declared["per_layer"]),
    ];
    for (i, result) in results.iter().enumerate() {
        let keys: Vec<&str> = result
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result["correct"], true);
        assert!(result["attempted"].as_u64().expect("a whole number") >= 1);
        assert_eq!(result["failed"], 0u64);
        // `--quick` runs each workload timed, then traced.
        let table = &tables[i % 2];
        let metrics = result["metrics"].as_object().expect("metrics");
        let printed: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(&printed, table);
        for (name, m) in metrics {
            assert!(m["value"].as_f64().is_some(), "{name} has no finite value");
            assert!(m["unit"].as_str().is_some(), "{name} has no unit");
        }
    }
    for timed in results.iter().step_by(2) {
        for (name, m) in timed["metrics"].as_object().expect("metrics") {
            assert!(
                m["value"].as_f64().expect("a number") > 0.0,
                "{name} reads 0"
            );
        }
    }
}
