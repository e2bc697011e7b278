//! Observability integration tests: golden Chrome-trace exports, a
//! fake-clock instrumented training run, and the bitwise-equivalence
//! guarantee that recording never perturbs numerics.
//!
//! Every test touching the process-global recorder serializes on [`LOCK`]
//! (the recorder is shared across this binary's test threads).

use janus::core::exec::model::ExecConfig;
use janus::core::exec::trainer::{diff_runs, Trainer};
use janus::core::plan::PlanOpts;
use janus::core::ParadigmPolicy;
use janus::netsim::graph::TaskId;
use janus::netsim::trace::{SimResult, TaskRecord};
use janus::obs::{chrome_trace, validate_chrome_trace, FakeClock, Recorder, SpanMeta};
use janus::tensor::pool;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Compare `got` against the checked-in golden file, or rewrite it when
/// `UPDATE_GOLDEN=1` (then re-run without the variable).
fn assert_golden(got: &str, name: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(got, want, "golden mismatch for {name}");
}

fn sim_record(label: &str, kind: &'static str, start: f64, finish: f64) -> TaskRecord {
    TaskRecord {
        id: TaskId(0),
        label: label.into(),
        kind,
        ready: start,
        start,
        finish,
    }
}

/// The `SimResult` → trace-event converter and the shared exporter are
/// pinned byte for byte: transfers map to cat `comm`, the label's leading
/// component becomes the track, unlabeled records are skipped, and events
/// sort deterministically.
#[test]
fn sim_chrome_trace_matches_golden() {
    let result = SimResult {
        makespan: 2.5,
        records: vec![
            sim_record("w0/b0/fwd", "compute", 0.0, 1.0),
            sim_record("a2a/b0/w0-w1", "transfer", 0.5, 1.5),
            sim_record("w1/b0/fwd", "compute", 0.25, 1.25),
            sim_record("", "noop", 0.0, 0.0),
            sim_record("w0/b1/fwd", "compute", 1.5, 2.5),
        ],
        link_bytes: vec![1024.0],
        link_busy: vec![1.0],
        mem_peak: vec![],
        mem_final: vec![],
    };
    let json = result.to_chrome_trace();
    assert_eq!(validate_chrome_trace(&json).expect("schema"), 4);
    assert_golden(&json, "sim_trace.json");
}

/// A two-rank span sequence recorded against a fake clock exports
/// deterministically: same spans, same ticks, byte-identical JSON.
#[test]
fn fake_clock_recorder_trace_matches_golden() {
    let rec = Recorder::new();
    rec.enable_with_clock(Arc::new(FakeClock::ticking(100)));
    for rank in 0..2u32 {
        let span = rec
            .span(|| SpanMeta::new(format!("pull/b0/e{rank}"), "comm", rank, "b0"))
            .expect("recording enabled");
        span.end();
        let span = rec
            .span(|| SpanMeta::new("fwd/b0/e0", "compute", rank, "b0"))
            .expect("recording enabled");
        span.end();
        rec.instant(|| SpanMeta::new("retransmit/to1/s3", "transport", rank, "comm"));
    }
    let json = chrome_trace(&rec.drain_events());
    assert_eq!(validate_chrome_trace(&json).expect("schema"), 6);
    assert_golden(&json, "fake_clock_trace.json");
}

/// An instrumented two-rank training run under a fake clock produces a
/// schema-valid trace whose spans cover every layer: iteration, pulls,
/// compute, barriers at the engine level, sends at the transport level.
#[test]
fn two_rank_training_run_traces_all_layers() {
    let _guard = lock();
    let rec = janus::obs::global();
    rec.enable_with_clock(Arc::new(FakeClock::ticking(1)));
    let cfg = ExecConfig {
        machines: 1,
        gpus_per_machine: 2,
        ..ExecConfig::small()
    };
    let opts = PlanOpts {
        policy: ParadigmPolicy::DataCentric,
        ..PlanOpts::default()
    };
    let run = Trainer::new(&cfg, &opts).run(1);
    rec.disable();

    assert!(!run.trace.is_empty());
    let json = run.chrome_trace();
    validate_chrome_trace(&json).expect("schema-valid trace");
    for needle in ["iter/0", "pull/b0/", "fwd/b0/", "barrier/", "send/to"] {
        assert!(
            run.trace.iter().any(|e| e.name.starts_with(needle)),
            "no span named {needle}* in the trace"
        );
    }
    assert!(run.trace.iter().all(|e| e.pid < cfg.world() as u32));
    for rank in 0..cfg.world() {
        assert!(!run.trace_for_rank(rank).is_empty(), "rank {rank} silent");
    }
    let report = run.overlap_report();
    assert_eq!(report.ranks.len(), cfg.world());
    assert!(report.pull_samples > 0, "pull latencies must be sampled");
}

/// The core guarantee: with recording enabled, training output is bitwise
/// identical to a recording-disabled run — at one worker thread and four.
#[test]
fn recording_on_off_is_bitwise_identical_across_thread_counts() {
    let _guard = lock();
    let cfg = ExecConfig::mixed_paradigms();
    let trainer = Trainer::new(&cfg, &PlanOpts::default());
    for threads in [1usize, 4] {
        pool::set_threads(threads);
        assert!(!janus::obs::global().enabled());
        let off = trainer.run(2);
        assert!(off.trace.is_empty(), "disabled run must record nothing");

        janus::obs::global().enable();
        let on = trainer.run(2);
        janus::obs::global().disable();
        assert!(!on.trace.is_empty(), "enabled run must record spans");

        let d = diff_runs(&off, &on);
        assert_eq!(d.max_output_diff, 0.0, "threads={threads}: {d:?}");
        assert_eq!(d.max_weight_diff, 0.0, "threads={threads}: {d:?}");
        assert_eq!(d.max_loss_diff, 0.0, "threads={threads}: {d:?}");
    }
    pool::set_threads(0);
}

/// Disabled recording leaves no trace state behind: the global recorder
/// holds zero events after an uninstrumented training run.
#[test]
fn disabled_recording_stores_no_events() {
    let _guard = lock();
    let rec = janus::obs::global();
    assert!(!rec.enabled());
    let before = rec.event_count();
    let cfg = ExecConfig::small();
    let run = Trainer::new(&cfg, &PlanOpts::default()).run(1);
    assert!(run.trace.is_empty());
    assert_eq!(rec.event_count(), before);
}
