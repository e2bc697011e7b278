//! Golden pins of the paper's tables and figures.
//!
//! Each test serializes experiment rows exactly as `repro <task> --json`
//! writes them (shortest round-trip floats, so every bit of every `f64`
//! is pinned) and compares them with a golden file:
//!
//! - `cheap_paper_tables_are_golden` pins `table1`, `goodput`,
//!   `rmetric`, `plan` and `fig13` in `tests/golden/paper_tables.json`.
//!   `fig13` samples MoE-GPT's token assignment at Zipf(0.3), so it also
//!   pins `AssignmentMatrix::generate` through a full simulated
//!   iteration.
//! - `costly_paper_figures_are_golden` pins `fig3`, `fig12`,
//!   `fig14`–`fig17` and the three `ablations` artifacts in
//!   `tests/golden/paper_figures.json`. It takes minutes in debug, so it
//!   runs only in release: `cargo test --release --test paper_tables`.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --release --test
//! paper_tables`.

use janus_bench::experiments::{
    ablations, fig12, fig13, fig14, fig17, fig3, goodput, plan, rmetric, sensitivity, table1,
};
use serde_json::{to_string_pretty as pretty, Value};

/// Compare `(artifact, rows)` sections, each rendered as `repro --json`
/// renders it, with `tests/golden/<file>`; or rewrite the golden under
/// `UPDATE_GOLDEN`.
fn assert_golden<E: std::fmt::Debug>(file: &str, sections: Vec<(&str, Result<String, E>)>) {
    let got: Vec<(&str, String)> = sections
        .into_iter()
        .map(|(name, rows)| (name, rows.expect("experiment rows serialize")))
        .collect();
    let doc = Value::Obj(
        got.iter()
            .map(|(name, rows)| {
                let value: Value = serde_json::from_str(rows).expect("rows re-parse");
                (name.to_string(), value)
            })
            .collect(),
    );
    let mut rendered = pretty(&doc).expect("golden serializes");
    rendered.push('\n');

    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path} ({e}); run with UPDATE_GOLDEN=1"));
    // Section by section first, so a mismatch names the artifact.
    let golden: Value = serde_json::from_str(&want).expect("golden parses");
    for (name, rows) in &got {
        let pinned = pretty(&golden[*name]).expect("golden serializes");
        assert_eq!(rows, &pinned, "golden mismatch for {name}");
    }
    assert_eq!(rendered, want, "golden mismatch for {file}");
}

#[test]
fn cheap_paper_tables_are_golden() {
    assert_golden(
        "paper_tables.json",
        vec![
            ("table1", pretty(&table1::run())),
            ("goodput", pretty(&goodput::run())),
            ("rmetric", pretty(&rmetric::run())),
            ("plan", pretty(&plan::run())),
            ("fig13", pretty(&fig13::run())),
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn costly_paper_figures_are_golden() {
    assert_golden(
        "paper_figures.json",
        vec![
            ("fig3", pretty(&fig3::run())),
            ("fig12", pretty(&fig12::run())),
            ("fig14", pretty(&fig14::run())),
            ("fig15", pretty(&sensitivity::run_fig15())),
            ("fig16", pretty(&sensitivity::run_fig16())),
            ("fig17", pretty(&fig17::run())),
            ("ablation_credits", pretty(&ablations::credit_sweep())),
            ("ablation_latency", pretty(&ablations::latency_sweep())),
            ("ablation_a2a", pretty(&ablations::a2a_style())),
        ],
    );
}
