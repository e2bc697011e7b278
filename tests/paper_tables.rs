//! Golden pin of the cheap paper tables.
//!
//! Serializes the rows of `table1`, `goodput`, `rmetric`, `plan` and
//! `fig13` exactly as `repro <task> --json` writes them (shortest
//! round-trip floats, so every bit of every `f64` is pinned) and compares
//! them with `tests/golden/paper_tables.json`. `fig13` samples MoE-GPT's
//! token assignment at Zipf(0.3), so it also pins
//! `AssignmentMatrix::generate` through a full simulated iteration.
//!
//! The costlier figures (`fig3`, `fig12`, `fig14`–`fig17`, `ablations`)
//! are left to the release-mode `ci/*` lab run.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test paper_tables`.

use janus_bench::experiments::{fig13, goodput, plan, rmetric, table1};
use serde_json::Value;

/// Each experiment's name and its rows as `repro --json` renders them,
/// in golden-file order.
fn sections() -> Vec<(&'static str, String)> {
    use serde_json::to_string_pretty as pretty;
    [
        ("table1", pretty(&table1::run())),
        ("goodput", pretty(&goodput::run())),
        ("rmetric", pretty(&rmetric::run())),
        ("plan", pretty(&plan::run())),
        ("fig13", pretty(&fig13::run())),
    ]
    .into_iter()
    .map(|(name, rows)| (name, rows.expect("experiment rows serialize")))
    .collect()
}

#[test]
fn cheap_paper_tables_are_golden() {
    let got = sections();
    let doc = Value::Obj(
        got.iter()
            .map(|(name, rows)| {
                let value: Value = serde_json::from_str(rows).expect("rows re-parse");
                (name.to_string(), value)
            })
            .collect(),
    );
    let mut rendered = serde_json::to_string_pretty(&doc).expect("golden serializes");
    rendered.push('\n');

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/paper_tables.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {path} ({e}); run with UPDATE_GOLDEN=1"));
    // Section by section first, so a mismatch names the experiment.
    let golden: Value = serde_json::from_str(&want).expect("golden parses");
    for (name, rows) in &got {
        let pinned = serde_json::to_string_pretty(&golden[*name]).expect("golden serializes");
        assert_eq!(rows, &pinned, "golden mismatch for {name}");
    }
    assert_eq!(rendered, want, "golden mismatch for paper_tables.json");
}
