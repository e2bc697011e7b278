//! `SpyTransport`: a transport that forwards every call and keeps count.
//!
//! It implements the public `Transport` trait, so it can sit anywhere a
//! transport can: above a whole stack, where it sees application messages,
//! and between a reliability or liveness layer and the socket, where it
//! sees wire frames (data, acks, heartbeats). Counts live in a shared
//! [`SpyLog`] the benchmark keeps a handle to, because the transport itself
//! is moved into the worker. Spans go to the calling thread's buffer in
//! [`crate::span`], tagged with the rank of the endpoint.

use crate::adapter::{
    kind_of, wire_bytes, CommError, DeathHandle, Message, Transport, TransportStats, KINDS,
};
use crate::span;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where in the stack a spy sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Above the whole stack: application messages.
    App,
    /// Directly above the socket or channel: wire frames.
    Wire,
}

impl Layer {
    fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Layer::App => ("app.send", "app.recv", "app.flush"),
            Layer::Wire => ("wire.send", "wire.recv", "wire.flush"),
        }
    }
}

/// What one spy counted. Every field only ever grows, so the difference of
/// two snapshots is what happened in between.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpyCounts {
    /// Messages sent, by kind.
    pub sent: [u64; KINDS],
    /// Encoded bytes sent, by kind.
    pub sent_bytes: [u64; KINDS],
    /// Messages received, by kind.
    pub received: [u64; KINDS],
    /// Encoded bytes received, by kind.
    pub received_bytes: [u64; KINDS],
    /// Time inside `send`.
    pub send_ns: u64,
    /// Time inside `recv` and `recv_timeout`: the caller was blocked.
    pub recv_blocked_ns: u64,
    /// Time inside `try_recv`.
    pub poll_ns: u64,
    /// `try_recv` and `recv_timeout` calls that delivered nothing.
    pub empty_polls: u64,
    /// Time inside `flush`.
    pub flush_ns: u64,
}

impl SpyCounts {
    /// Messages sent, all kinds.
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Encoded bytes sent, all kinds.
    pub fn sent_bytes_total(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// `op` applied to every counter of `self` and `other`.
    fn zip_with(&self, other: &SpyCounts, op: fn(u64, u64) -> u64) -> SpyCounts {
        let per_kind = |a: &[u64; KINDS], b: &[u64; KINDS]| std::array::from_fn(|k| op(a[k], b[k]));
        SpyCounts {
            sent: per_kind(&self.sent, &other.sent),
            sent_bytes: per_kind(&self.sent_bytes, &other.sent_bytes),
            received: per_kind(&self.received, &other.received),
            received_bytes: per_kind(&self.received_bytes, &other.received_bytes),
            send_ns: op(self.send_ns, other.send_ns),
            recv_blocked_ns: op(self.recv_blocked_ns, other.recv_blocked_ns),
            poll_ns: op(self.poll_ns, other.poll_ns),
            empty_polls: op(self.empty_polls, other.empty_polls),
            flush_ns: op(self.flush_ns, other.flush_ns),
        }
    }

    /// What happened since `earlier`.
    pub fn since(&self, earlier: &SpyCounts) -> SpyCounts {
        self.zip_with(earlier, |now, then| now - then)
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &SpyCounts) -> SpyCounts {
        self.zip_with(other, |a, b| a + b)
    }
}

/// The shared counters of one spy. All counters are statistics that
/// publish no other data, hence `Relaxed`.
#[derive(Default)]
pub struct SpyLog {
    sent: [AtomicU64; KINDS],
    sent_bytes: [AtomicU64; KINDS],
    received: [AtomicU64; KINDS],
    received_bytes: [AtomicU64; KINDS],
    send_ns: AtomicU64,
    recv_blocked_ns: AtomicU64,
    poll_ns: AtomicU64,
    empty_polls: AtomicU64,
    flush_ns: AtomicU64,
}

impl SpyLog {
    /// A fresh log behind the handle both the spy and the benchmark hold.
    pub fn new() -> Arc<SpyLog> {
        Arc::new(SpyLog::default())
    }

    /// Copy the counters out.
    pub fn snapshot(&self) -> SpyCounts {
        let load = |a: &[AtomicU64; KINDS]| -> [u64; KINDS] {
            std::array::from_fn(|k| a[k].load(Ordering::Relaxed))
        };
        SpyCounts {
            sent: load(&self.sent),
            sent_bytes: load(&self.sent_bytes),
            received: load(&self.received),
            received_bytes: load(&self.received_bytes),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_blocked_ns: self.recv_blocked_ns.load(Ordering::Relaxed),
            poll_ns: self.poll_ns.load(Ordering::Relaxed),
            empty_polls: self.empty_polls.load(Ordering::Relaxed),
            flush_ns: self.flush_ns.load(Ordering::Relaxed),
        }
    }

    fn sent(&self, kind: usize, bytes: usize) {
        self.sent[kind].fetch_add(1, Ordering::Relaxed);
        self.sent_bytes[kind].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn received(&self, msg: &Message) {
        let kind = kind_of(msg);
        self.received[kind].fetch_add(1, Ordering::Relaxed);
        self.received_bytes[kind].fetch_add(wire_bytes(msg) as u64, Ordering::Relaxed);
    }
}

fn add_elapsed(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// A transport that forwards to `inner` and records into `log`.
pub struct SpyTransport<T: Transport> {
    inner: T,
    layer: Layer,
    log: Arc<SpyLog>,
}

impl<T: Transport> SpyTransport<T> {
    /// Spy on `inner` at `layer`, counting into `log`.
    pub fn new(inner: T, layer: Layer, log: Arc<SpyLog>) -> Self {
        SpyTransport { inner, layer, log }
    }

    /// Record the outcome of a receive that may have delivered nothing:
    /// the span is kept only when a message arrived.
    fn note_delivery(&self, guard: span::Guard, got: &Result<Option<(usize, Message)>, CommError>) {
        match got {
            Ok(Some((_, msg))) => self.log.received(msg),
            _ => {
                self.log.empty_polls.fetch_add(1, Ordering::Relaxed);
                guard.cancel();
            }
        }
    }
}

impl<T: Transport> Transport for SpyTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CommError> {
        let (kind, bytes) = (kind_of(&msg), wire_bytes(&msg));
        let _span = span::enter(self.layer.names().0, self.inner.rank());
        let t0 = Instant::now();
        let sent = self.inner.send(to, msg);
        add_elapsed(&self.log.send_ns, t0);
        if sent.is_ok() {
            self.log.sent(kind, bytes);
        }
        sent
    }

    fn recv(&self) -> Result<(usize, Message), CommError> {
        let _span = span::enter(self.layer.names().1, self.inner.rank());
        let t0 = Instant::now();
        let got = self.inner.recv();
        add_elapsed(&self.log.recv_blocked_ns, t0);
        if let Ok((_, msg)) = &got {
            self.log.received(msg);
        }
        got
    }

    fn try_recv(&self) -> Result<Option<(usize, Message)>, CommError> {
        let guard = span::enter(self.layer.names().1, self.inner.rank());
        let t0 = Instant::now();
        let got = self.inner.try_recv();
        add_elapsed(&self.log.poll_ns, t0);
        self.note_delivery(guard, &got);
        got
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, CommError> {
        let guard = span::enter(self.layer.names().1, self.inner.rank());
        let t0 = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        add_elapsed(&self.log.recv_blocked_ns, t0);
        self.note_delivery(guard, &got);
        got
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn flush(&self) -> Result<(), CommError> {
        let _span = span::enter(self.layer.names().2, self.inner.rank());
        let t0 = Instant::now();
        let flushed = self.inner.flush();
        add_elapsed(&self.log.flush_ns, t0);
        flushed
    }

    fn death_handle(&self) -> DeathHandle {
        self.inner.death_handle()
    }

    fn acknowledge_dead(&self, rank: usize) {
        self.inner.acknowledge_dead(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{self, Policy, Stack, TrainShape};

    fn tiny() -> adapter::TrainPlan {
        adapter::TrainPlan::compile(
            &TrainShape {
                hidden: 8,
                tokens: 16,
                blocks: 2,
                experts_per_block: vec![8, 8],
                top_k: 2,
                policy: Policy::DataCentric,
                lr: 0.05,
            },
            7,
        )
    }

    /// Rank-0 losses of three iterations over `stack`, spied or not, plus
    /// the spies' final counts.
    fn three_iterations(stack: Stack, spied: bool) -> (Vec<f32>, Vec<adapter::RankSpies>) {
        let plan = tiny();
        let spies = adapter::spies_for(plan.world());
        let job = adapter::TrainJob::new(&plan, |mut rank| {
            let losses: Vec<f32> = (0..3).map(|i| rank.step(i).expect("iteration")).collect();
            rank.finish().expect("flush");
            losses
        });
        let per_rank =
            adapter::on_stack(stack, plan.world(), spied.then_some(&spies[..]), job).expect("mesh");
        (per_rank[0].clone(), spies)
    }

    #[test]
    fn a_spied_run_computes_the_same_bits() {
        let (plain, _) = three_iterations(Stack::Local, false);
        let (spied, _) = three_iterations(Stack::Local, true);
        let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&spied));
    }

    #[test]
    fn every_message_sent_is_received() {
        let (_, spies) = three_iterations(Stack::Local, true);
        let total = spies
            .iter()
            .map(|s| s.app.snapshot())
            .fold(SpyCounts::default(), |a, b| a.plus(&b));
        assert!(total.sent_total() > 0);
        assert_eq!(total.sent, total.received, "per kind, across all ranks");
        assert_eq!(total.sent_bytes, total.received_bytes);
    }

    #[test]
    fn the_reliable_layer_puts_more_frames_on_the_wire_than_it_was_given() {
        let (_, spies) = three_iterations(Stack::ReliableTcp, true);
        let sum = |pick: fn(&adapter::RankSpies) -> &Arc<SpyLog>| -> u64 {
            spies.iter().map(|s| pick(s).snapshot().sent_total()).sum()
        };
        let (app, wire) = (sum(|s| &s.app), sum(|s| &s.wire));
        assert!(app > 0);
        assert!(
            wire >= app,
            "wire frames {wire} < application messages {app}"
        );
    }
}
