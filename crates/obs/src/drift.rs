//! Sim-vs-real drift calibration: align `janus-netsim` transfer/compute
//! segments against real-engine spans and score how far the cost model
//! drifts from reality.
//!
//! Both sides are reduced to `(scope, block, category) → µs` segments —
//! the **alignment key**. Scope is `r{rank}` for per-worker work and
//! `M{machine}` for machine-level work (external prefetch); block is the
//! model block index (`-1` when not applicable); category is one of
//! `compute`, `a2a`, `pull`, `prefetch`, `grad`, `copy`, `other`.
//!
//! The sim and the real engine run at different absolute scales (the sim
//! models FLOPs and link bytes in seconds; the real engine runs tiny
//! tensors under a FakeClock), so the report first normalizes predicted
//! totals onto the actual total (`scale`) and then scores each matched
//! segment by `accuracy = min/max(scaled predicted, actual) ∈ (0, 1]`
//! and by share error (segment share of predicted total vs share of
//! actual total — scale-free). The aggregate `calibration` is the
//! geometric mean of per-segment accuracies: 1.0 means the cost model
//! apportions time across segments exactly as reality does.

use crate::trace::TraceEvent;
use serde::Serialize;
use std::collections::BTreeMap;

/// Alignment key of one drift segment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct SegKey {
    /// `r{rank}` or `M{machine}`.
    pub scope: String,
    /// Model block index, `-1` when not block-scoped.
    pub block: i64,
    /// `compute` | `a2a` | `pull` | `prefetch` | `grad` | `copy` | `other`.
    pub category: String,
}

impl SegKey {
    pub fn new(scope: impl Into<String>, block: i64, category: impl Into<String>) -> SegKey {
        SegKey {
            scope: scope.into(),
            block,
            category: category.into(),
        }
    }

    /// Render as `scope/b{block}/category` (block omitted when `-1`).
    pub fn label(&self) -> String {
        if self.block < 0 {
            format!("{}/{}", self.scope, self.category)
        } else {
            format!("{}/b{}/{}", self.scope, self.block, self.category)
        }
    }
}

/// One matched predicted-vs-actual segment. `key`, `scope`, `block`,
/// `category`, `predicted_us`, and `share_pred` are deterministic (the
/// sim is bitwise stable); the actual-side fields are wall-clock and
/// listed in the analyze task's masked keys.
#[derive(Debug, Clone, Serialize)]
pub struct DriftSegment {
    pub key: String,
    pub scope: String,
    pub block: i64,
    pub category: String,
    /// Sim-predicted duration, µs (deterministic).
    pub predicted_us: f64,
    /// Real measured duration, µs (masked).
    pub actual_us: f64,
    /// `(scale × predicted − actual) / actual` (masked).
    pub rel_err: f64,
    /// `min/max(scale × predicted, actual)` ∈ (0, 1] (masked).
    pub accuracy: f64,
    /// Segment share of the predicted total (deterministic).
    pub share_pred: f64,
    /// Segment share of the actual total (masked).
    pub share_act: f64,
    /// `share_pred − share_act` (masked).
    pub share_err: f64,
}

/// The full drift calibration report.
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    /// Matched segments, sorted by key.
    pub segments: Vec<DriftSegment>,
    pub matched: usize,
    /// Sim segments with no real counterpart (work the cost model
    /// represents but the trace does not expose), sorted.
    pub unmatched_sim: Vec<String>,
    /// Real segments with no sim counterpart, sorted.
    pub unmatched_real: Vec<String>,
    /// `actual total / predicted total` over matched segments (masked).
    pub scale: f64,
    /// Geometric mean of per-segment `accuracy` (masked).
    pub calibration: f64,
}

/// Align predicted and actual `(key, µs)` lists (duplicates are summed)
/// and score the drift.
pub fn drift_report(sim: &[(SegKey, f64)], real: &[(SegKey, f64)]) -> DriftReport {
    let fold = |xs: &[(SegKey, f64)]| {
        let mut m: BTreeMap<SegKey, f64> = BTreeMap::new();
        for (k, v) in xs {
            if *v > 0.0 {
                *m.entry(k.clone()).or_default() += v;
            }
        }
        m
    };
    let sim = fold(sim);
    let real = fold(real);

    let tot_pred: f64 = sim
        .iter()
        .filter(|(k, _)| real.contains_key(k))
        .map(|(_, v)| v)
        .sum();
    let tot_act: f64 = real
        .iter()
        .filter(|(k, _)| sim.contains_key(k))
        .map(|(_, v)| v)
        .sum();
    let scale = if tot_pred > 0.0 {
        tot_act / tot_pred
    } else {
        0.0
    };

    let mut segments = Vec::new();
    let mut log_acc = 0.0f64;
    for (k, &p) in &sim {
        let Some(&a) = real.get(k) else { continue };
        let scaled = p * scale;
        let accuracy = if scaled > 0.0 && a > 0.0 {
            (scaled.min(a) / scaled.max(a)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        log_acc += accuracy.max(1e-12).ln();
        segments.push(DriftSegment {
            key: k.label(),
            scope: k.scope.clone(),
            block: k.block,
            category: k.category.clone(),
            predicted_us: p,
            actual_us: a,
            rel_err: if a > 0.0 { (scaled - a) / a } else { 0.0 },
            accuracy,
            share_pred: if tot_pred > 0.0 { p / tot_pred } else { 0.0 },
            share_act: if tot_act > 0.0 { a / tot_act } else { 0.0 },
            share_err: if tot_pred > 0.0 && tot_act > 0.0 {
                p / tot_pred - a / tot_act
            } else {
                0.0
            },
        });
    }
    let matched = segments.len();
    DriftReport {
        unmatched_sim: sim
            .keys()
            .filter(|k| !real.contains_key(*k))
            .map(SegKey::label)
            .collect(),
        unmatched_real: real
            .keys()
            .filter(|k| !sim.contains_key(*k))
            .map(SegKey::label)
            .collect(),
        scale,
        calibration: if matched > 0 {
            (log_acc / matched as f64).exp()
        } else {
            0.0
        },
        matched,
        segments,
    }
}

/// Reduce a real-engine trace to drift segments. `machine_of` maps a
/// rank (trace `pid`) to its machine index, used to scope prefetch
/// spans the way the sim does (external fetches are machine-level).
///
/// Only span families the cost model predicts are included: expert
/// compute (`fwd`/`bwd`), `pull`, `prefetch`, gradient routing
/// (`grad_push` at rank scope, `grad_ext` at machine scope), and
/// `a2a_*`. Wait spans (`cache_wait`, `credit_wait`, `grad_wait`,
/// `barrier`) measure scheduling, not modelled work, and are left to the
/// blame report. A `pull` nested inside the `prefetch` of the same expert
/// on the same rank is skipped: the prefetch span already accounts for
/// that wire time at machine scope, and counting both would double-bill it.
pub fn real_segments<F: Fn(u32) -> usize>(
    events: &[TraceEvent],
    machine_of: F,
) -> Vec<(SegKey, f64)> {
    // Prefetch windows per (rank, `b{b}/e{e}`): a pull is nested only in
    // the prefetch of its own expert. Pipelined pulls of other experts
    // overlap a prefetch window in time and still count.
    let mut prefetch_windows: BTreeMap<(u32, &str), Vec<(f64, f64)>> = BTreeMap::new();
    for e in events {
        if let Some(target) = e.name.strip_prefix("prefetch/") {
            prefetch_windows
                .entry((e.pid, target))
                .or_default()
                .push((e.ts_us, e.end_us()));
        }
    }
    let nested_in_prefetch = |e: &TraceEvent| {
        e.name
            .strip_prefix("pull/")
            .and_then(|target| prefetch_windows.get(&(e.pid, target)))
            .is_some_and(|ws| ws.iter().any(|&(s, f)| e.ts_us >= s && e.end_us() <= f))
    };
    let mut out = Vec::new();
    for e in events {
        let mut parts = e.name.split('/');
        let head = parts.next().unwrap_or("");
        let block = parts
            .find_map(|p| p.strip_prefix('b').and_then(|s| s.parse::<i64>().ok()))
            .unwrap_or(-1);
        let key = match head {
            "fwd" | "bwd" if e.cat == "compute" => {
                SegKey::new(format!("r{}", e.pid), block, "compute")
            }
            "pull" if !nested_in_prefetch(e) => SegKey::new(format!("r{}", e.pid), block, "pull"),
            "pull" => continue,
            "prefetch" => SegKey::new(format!("M{}", machine_of(e.pid)), block, "prefetch"),
            "grad_push" => SegKey::new(format!("r{}", e.pid), block, "grad"),
            "grad_ext" => SegKey::new(format!("M{}", machine_of(e.pid)), block, "grad"),
            h if h.starts_with("a2a_") => SegKey::new(format!("r{}", e.pid), block, "a2a"),
            _ => continue,
        };
        out.push((key, e.dur_us));
    }
    out
}

impl DriftReport {
    /// Human-readable drift summary (used by `repro analyze`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sim-vs-real drift: {} matched segments, calibration {:.3}, scale {:.3e}\n",
            self.matched, self.calibration, self.scale
        ));
        out.push_str(&format!(
            "  {:<20} {:>12} {:>12} {:>8} {:>8}\n",
            "segment", "pred_us", "actual_us", "rel_err", "acc"
        ));
        for s in &self.segments {
            out.push_str(&format!(
                "  {:<20} {:>12.1} {:>12.1} {:>+7.1}% {:>8.3}\n",
                s.key,
                s.predicted_us,
                s.actual_us,
                100.0 * s.rel_err,
                s.accuracy
            ));
        }
        if !self.unmatched_sim.is_empty() {
            out.push_str(&format!(
                "  sim-only segments ({}): {}\n",
                self.unmatched_sim.len(),
                self.unmatched_sim.join(", ")
            ));
        }
        if !self.unmatched_real.is_empty() {
            out.push_str(&format!(
                "  real-only segments ({}): {}\n",
                self.unmatched_real.len(),
                self.unmatched_real.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(scope: &str, block: i64, cat: &str) -> SegKey {
        SegKey::new(scope, block, cat)
    }

    #[test]
    fn perfect_prediction_calibrates_to_one() {
        // Predicted is exactly 2× actual everywhere: after scale
        // normalization the model is perfect.
        let sim = vec![
            (k("r0", 0, "pull"), 20.0),
            (k("r1", 0, "pull"), 40.0),
            (k("r0", 1, "a2a"), 60.0),
        ];
        let real = vec![
            (k("r0", 0, "pull"), 10.0),
            (k("r1", 0, "pull"), 20.0),
            (k("r0", 1, "a2a"), 30.0),
        ];
        let r = drift_report(&sim, &real);
        assert_eq!(r.matched, 3);
        assert!((r.scale - 0.5).abs() < 1e-9);
        assert!((r.calibration - 1.0).abs() < 1e-9);
        for s in &r.segments {
            assert!(s.rel_err.abs() < 1e-9);
            assert!(s.share_err.abs() < 1e-9);
        }
        assert!(r.unmatched_sim.is_empty());
        assert!(r.unmatched_real.is_empty());
    }

    #[test]
    fn misprediction_lowers_calibration_and_reports_rel_err() {
        // Shares: sim 50/50, real 80/20.
        let sim = vec![(k("r0", 0, "pull"), 10.0), (k("r0", 0, "a2a"), 10.0)];
        let real = vec![(k("r0", 0, "pull"), 80.0), (k("r0", 0, "a2a"), 20.0)];
        let r = drift_report(&sim, &real);
        assert_eq!(r.matched, 2);
        assert!((r.scale - 5.0).abs() < 1e-9);
        assert!(r.calibration < 1.0);
        let a2a = r.segments.iter().find(|s| s.category == "a2a").unwrap();
        // Scaled prediction 50 vs actual 20 → rel_err +150%.
        assert!((a2a.rel_err - 1.5).abs() < 1e-9);
        assert!((a2a.accuracy - 0.4).abs() < 1e-9);
        let pull = r.segments.iter().find(|s| s.category == "pull").unwrap();
        assert!((pull.rel_err - (-0.375)).abs() < 1e-9);
    }

    #[test]
    fn unmatched_segments_are_listed_not_scored() {
        let sim = vec![(k("r0", 0, "pull"), 10.0), (k("r0", 0, "grad"), 5.0)];
        let real = vec![(k("r0", 0, "pull"), 10.0), (k("r1", 2, "a2a"), 3.0)];
        let r = drift_report(&sim, &real);
        assert_eq!(r.matched, 1);
        assert_eq!(r.unmatched_sim, vec!["r0/b0/grad".to_string()]);
        assert_eq!(r.unmatched_real, vec!["r1/b2/a2a".to_string()]);
        // Scale uses matched totals only.
        assert!((r.scale - 1.0).abs() < 1e-9);
        assert!((r.calibration - 1.0).abs() < 1e-9);
    }

    #[test]
    fn real_segment_extraction_maps_span_families() {
        let ev = |name: &str, cat: &str, pid: u32, dur: f64| TraceEvent {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid: "t".into(),
            ts_us: 0.0,
            dur_us: dur,
        };
        let events = vec![
            ev("fwd/b0/e1", "compute", 0, 5.0),
            ev("bwd/b0/e1", "compute", 0, 7.0),
            ev("pull/b1/e2", "comm", 1, 3.0),
            ev("prefetch/b1/e6", "comm", 2, 4.0),
            ev("a2a_dispatch/b2", "comm", 3, 9.0),
            ev("grad_push/b0/e2", "comm", 1, 2.0),
            ev("grad_ext/b0/e3", "comm", 2, 6.0),
            ev("cache_wait/b1/e2", "comm", 1, 100.0), // excluded
            ev("barrier/0", "sync", 0, 100.0),        // excluded
        ];
        let segs = real_segments(&events, |pid| (pid / 2) as usize);
        let mut m: BTreeMap<SegKey, f64> = BTreeMap::new();
        for (key, v) in segs {
            *m.entry(key).or_default() += v;
        }
        assert_eq!(m.len(), 6);
        assert_eq!(m.get(&k("r0", 0, "compute")), Some(&12.0));
        assert_eq!(m.get(&k("r1", 1, "pull")), Some(&3.0));
        assert_eq!(m.get(&k("M1", 1, "prefetch")), Some(&4.0));
        assert_eq!(m.get(&k("r3", 2, "a2a")), Some(&9.0));
        assert_eq!(m.get(&k("r1", 0, "grad")), Some(&2.0));
        assert_eq!(m.get(&k("M1", 0, "grad")), Some(&6.0));
    }

    #[test]
    fn pull_nested_in_prefetch_is_not_double_billed() {
        let span = |name: &str, pid: u32, ts: f64, dur: f64| TraceEvent {
            name: name.into(),
            cat: "comm".into(),
            pid,
            tid: "b0".into(),
            ts_us: ts,
            dur_us: dur,
        };
        let events = vec![
            // Designated rank 0: prefetch wraps the wire pull.
            span("prefetch/b0/e2", 0, 0.0, 10.0),
            span("pull/b0/e2", 0, 1.0, 8.0),
            // A free-standing internal pull on the same rank still counts,
            // and so does one in flight inside another expert's prefetch.
            span("pull/b0/e1", 0, 20.0, 3.0),
            span("pull/b0/e0", 0, 2.0, 4.0),
            // Same window on another rank: not nested there.
            span("pull/b0/e3", 1, 1.0, 8.0),
        ];
        let segs = real_segments(&events, |_| 0);
        let mut m: BTreeMap<SegKey, f64> = BTreeMap::new();
        for (key, v) in segs {
            *m.entry(key).or_default() += v;
        }
        assert_eq!(m.get(&k("M0", 0, "prefetch")), Some(&10.0));
        assert_eq!(m.get(&k("r0", 0, "pull")), Some(&7.0));
        assert_eq!(m.get(&k("r1", 0, "pull")), Some(&8.0));
    }
}
