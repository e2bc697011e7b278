//! The benchmark's own spans: recorded around calls into a layer, never
//! inside one.
//!
//! Each thread keeps its spans in a thread-local buffer (no lock on the
//! measured path) and a stack of the spans it has open, which gives every
//! new span its parent. A thread's buffer moves to a process-wide sink when
//! the thread ends (the serving plane's threads are not the benchmark's to
//! instrument) or calls [`flush_thread`]; [`take_all`] empties the sink when
//! a pass is over. Nothing is written out before then.

use serde::Value;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans one thread keeps; later ones are only counted, so a long traced
/// pass cannot exhaust memory.
const MAX_SPANS_PER_THREAD: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Process-unique id, never 0.
    pub id: u64,
    /// Id of the span that was open on this thread when this one began;
    /// 0 for a root.
    pub parent: u64,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Rank (thread of the mesh) that recorded it.
    pub rank: u32,
    /// Iteration, request phase or sweep step the span belongs to.
    pub op: u64,
    /// Microseconds since the process-wide origin.
    pub start_us: f64,
    /// Microseconds since the process-wide origin.
    pub end_us: f64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Default)]
struct ThreadSpans {
    op: u64,
    open: Vec<u64>,
    closed: Vec<Span>,
    dropped: u64,
}

impl ThreadSpans {
    fn flush(&mut self) {
        if self.closed.is_empty() && self.dropped == 0 {
            return;
        }
        // A poisoned sink only means another thread panicked mid-push; the
        // spans already there are whole, so keep using it.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.0.append(&mut self.closed);
        sink.1 += std::mem::take(&mut self.dropped);
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Spans of threads that ended or flushed, and how many they dropped.
static SINK: Mutex<(Vec<Span>, u64)> = Mutex::new((Vec::new(), 0));

thread_local! {
    static LOCAL: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

// A statistic-style gate: it publishes no other data, so Relaxed is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ORIGIN: OnceLock<Instant> = OnceLock::new();

fn now_us() -> f64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Switch span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name the operation (iteration, sweep step) the calling thread's next
/// spans belong to.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// An open span; it closes when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, u32, f64)>,
}

/// Open a span named `name` on the calling thread, which works for `rank`.
/// Free when recording is off.
pub fn enter(name: &'static str, rank: usize) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, rank as u32, now_us())),
    }
}

impl Guard {
    /// Close the span without recording it.
    pub fn cancel(mut self) {
        if self.open.take().is_some() {
            LOCAL.with(|l| {
                l.borrow_mut().open.pop();
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, rank, start_us)) = self.open.take() else {
            return;
        };
        let end_us = now_us();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Guards drop in reverse order of creation, so the span being
            // closed is the innermost open one.
            l.open.pop();
            if l.closed.len() >= MAX_SPANS_PER_THREAD {
                l.dropped += 1;
                return;
            }
            let op = l.op;
            l.closed.push(Span {
                id,
                parent,
                name,
                rank,
                op,
                start_us,
                end_us,
            });
        });
    }
}

/// Move the calling thread's closed spans to the sink now, without waiting
/// for the thread to end.
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Take every span in the sink, and the count of those the threads had to
/// drop. Call after the recording threads were joined or flushed.
pub fn take_all() -> (Vec<Span>, u64) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    (std::mem::take(&mut sink.0), std::mem::take(&mut sink.1))
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_us: f64,
    /// Sum of their self times: duration minus the time their child spans
    /// cover. Children of one parent run on the parent's thread one after
    /// another, so what they cover is the sum of their durations.
    pub self_us: f64,
}

/// Per-name totals over `spans`, with self time.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.dur_us();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.dur_us();
        t.self_us += (s.dur_us() - covered.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// The spans as a JSON array for `trace.json`.
pub fn to_json<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Value {
    Value::Arr(
        spans
            .into_iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(s.id as f64)),
                    ("parent".into(), Value::Num(s.parent as f64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("rank".into(), Value::Num(s.rank as f64)),
                    ("op".into(), Value::Num(s.op as f64)),
                    ("start_us".into(), Value::Num(s.start_us)),
                    ("end_us".into(), Value::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            rank: 0,
            op: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "op", 0.0, 100.0),
            span(2, 1, "send", 10.0, 30.0),
            span(3, 2, "wire", 12.0, 20.0),
            span(4, 1, "send", 50.0, 60.0),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["op"].total_us, 100.0);
        assert_eq!(t["op"].self_us, 70.0);
        assert_eq!(t["send"].count, 2);
        assert_eq!(t["send"].total_us, 30.0);
        assert_eq!(t["send"].self_us, 22.0);
        assert_eq!(t["wire"].self_us, 8.0);
        let whole: f64 = t.values().map(|n| n.self_us).sum();
        assert_eq!(whole, 100.0, "self times tile the root span");
    }

    #[test]
    fn guards_nest_and_reach_the_sink_when_the_thread_ends() {
        // The switch and the sink are process-wide, so other tests running
        // beside this one may add spans of their own: look only at ours.
        set_enabled(true);
        std::thread::spawn(|| {
            set_op(7);
            let _outer = enter("test.outer", 3);
            let _inner = enter("test.inner", 3);
        })
        .join()
        .unwrap();
        let (spans, _) = take_all();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!((outer.rank, outer.op), (3, 7));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }
}
