//! Reliable delivery over a lossy transport: per-pair sequence numbers,
//! cumulative acks, and retransmission with bounded exponential backoff.
//!
//! [`ReliableTransport`] restores the contract the rest of the stack
//! assumes — exactly-once, per-pair FIFO delivery — on top of *any*
//! [`Transport`], including one that drops, duplicates, delays, or
//! partitions (see [`crate::faulty::FaultyTransport`]). Every outgoing
//! message is wrapped in a [`Message::Reliable`] envelope carrying a
//! 1-based per-(sender, receiver) sequence number and kept on an unacked
//! queue; the receiver delivers envelopes in sequence order exactly once,
//! holding early arrivals and discarding duplicates, and answers with one
//! cumulative [`Message::Ack`] per drained burst: every envelope (a
//! duplicate included) marks its sender as owed an ack, and each drain or
//! receive pass ends by sending one ack per owed peer, so no ack outlives
//! the transport call that processed its frame. Unacked messages are
//! retransmitted with exponential backoff until acked or the attempt
//! budget runs out, at which point the send surfaces as
//! [`CommError::Timeout`] naming the peer and sequence number — a
//! diagnostic, never a hang.
//!
//! Retransmissions are driven opportunistically from every `send`,
//! `recv`, `try_recv`, and `recv_timeout` call (the engines call these
//! constantly), so no background timer thread is needed. Call
//! [`Transport::flush`] before dropping an endpoint: it drains the
//! unacked queue and then lingers until the link has been quiet for a
//! grace period, re-acking peers that are still retransmitting.

use crate::message::Message;
use crate::transport::{CommError, Transport, TransportStats};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Retransmission budget and backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitPolicy {
    /// Delay before the first retransmission; doubles per attempt.
    pub initial_backoff: Duration,
    /// Ceiling on the per-message backoff.
    pub max_backoff: Duration,
    /// Attempts (first send included) before giving up with
    /// [`CommError::Timeout`].
    pub max_attempts: u32,
    /// How long [`Transport::flush`] keeps listening after the last
    /// activity, so peers still retransmitting get their final acks.
    /// Must exceed `max_backoff` or a quiet peer's next retransmit can
    /// arrive after we stopped listening.
    pub flush_quiet: Duration,
    /// Seed for deterministic backoff jitter (see
    /// [`crate::transport::seeded_jitter`]): each retry sleeps up to a
    /// quarter *less* than its exponential backoff, de-synchronizing
    /// peers that failed in lockstep without ever missing a deadline.
    /// Purely a wall-clock effect — delivery order guarantees and
    /// training bits are untouched.
    pub jitter_seed: u64,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(32),
            max_attempts: 40,
            flush_quiet: Duration::from_millis(80),
            jitter_seed: 0x6a69_7474,
        }
    }
}

struct PendingSend {
    seq: u64,
    envelope: Message,
    attempts: u32,
    first_sent: Instant,
    next_retry: Instant,
    backoff: Duration,
}

struct RelState {
    /// Next outgoing sequence number per peer (1-based).
    next_seq: Vec<u64>,
    /// Sent-but-unacknowledged envelopes per peer, in sequence order.
    unacked: Vec<VecDeque<PendingSend>>,
    /// Next incoming sequence number expected per peer.
    expected: Vec<u64>,
    /// Early arrivals (still-encoded payloads) held until the gap
    /// before them fills.
    held: Vec<BTreeMap<u64, bytes::Bytes>>,
    /// In-order messages decoded and awaiting delivery to the caller.
    ready: VecDeque<(usize, Message)>,
    /// Peers whose envelopes arrived since their last ack; each gets one
    /// cumulative ack when the current drain or receive pass ends.
    owed: Vec<bool>,
    stats: TransportStats,
}

/// Exactly-once per-pair FIFO delivery over a lossy inner transport.
pub struct ReliableTransport<T: Transport> {
    inner: T,
    policy: RetransmitPolicy,
    state: RefCell<RelState>,
}

impl<T: Transport> ReliableTransport<T> {
    /// Wrap `inner` with the default [`RetransmitPolicy`].
    pub fn new(inner: T) -> Self {
        Self::with_policy(inner, RetransmitPolicy::default())
    }

    /// Wrap `inner` with an explicit policy.
    pub fn with_policy(inner: T, policy: RetransmitPolicy) -> Self {
        let world = inner.world_size();
        ReliableTransport {
            inner,
            policy,
            state: RefCell::new(RelState {
                next_seq: vec![1; world],
                unacked: (0..world).map(|_| VecDeque::new()).collect(),
                expected: vec![1; world],
                held: (0..world).map(|_| BTreeMap::new()).collect(),
                ready: VecDeque::new(),
                owed: vec![false; world],
                stats: TransportStats::default(),
            }),
        }
    }

    /// The configured retransmission policy.
    pub fn policy(&self) -> &RetransmitPolicy {
        &self.policy
    }

    /// Handle one message from the inner transport. Envelopes are
    /// sequenced and deduped, and mark their sender as owed an ack (sent
    /// by [`Self::send_owed_acks`] at the end of the pass); acks retire
    /// unacked sends; anything else (a peer not speaking the reliable
    /// protocol, or a self-send looped back) passes straight through.
    fn process_incoming(
        &self,
        state: &mut RelState,
        from: usize,
        msg: Message,
    ) -> Result<(), CommError> {
        match msg {
            Message::Reliable { seq, data } => {
                // Owed even for a duplicate: the peer evidently missed
                // the previous ack.
                state.owed[from] = true;
                let expected = state.expected[from];
                if seq < expected {
                    state.stats.duplicates_dropped += 1;
                    crate::obs::proto_count("janus_comm_duplicates_dropped_total");
                } else if seq == expected {
                    let inner_msg = Message::decode(data)?;
                    state.ready.push_back((from, inner_msg));
                    state.expected[from] += 1;
                    // Drain any held messages made contiguous.
                    while let Some(next) = state.held[from].remove(&state.expected[from]) {
                        state.ready.push_back((from, Message::decode(next)?));
                        state.expected[from] += 1;
                    }
                } else {
                    // Early arrival: hold it; duplicates of held frames
                    // are dropped.
                    if state.held[from].insert(seq, data).is_none() {
                        state.stats.out_of_order_held += 1;
                        crate::obs::proto_count("janus_comm_out_of_order_held_total");
                    } else {
                        state.stats.duplicates_dropped += 1;
                        crate::obs::proto_count("janus_comm_duplicates_dropped_total");
                    }
                }
            }
            Message::Ack { ack } => {
                let queue = &mut state.unacked[from];
                while queue.front().is_some_and(|p| p.seq <= ack) {
                    queue.pop_front();
                }
            }
            other => state.ready.push_back((from, other)),
        }
        Ok(())
    }

    /// Send one cumulative ack — everything contiguously delivered — to
    /// every peer owed one. A peer that already tore its endpoint down no
    /// longer needs acks: erroring here would abort the caller's receive
    /// even though the messages just delivered are sitting in `ready`.
    fn send_owed_acks(&self, state: &mut RelState) -> Result<(), CommError> {
        for from in 0..state.owed.len() {
            if !std::mem::take(&mut state.owed[from]) {
                continue;
            }
            let ack = state.expected[from] - 1;
            match self.inner.send(from, Message::Ack { ack }) {
                Ok(()) => {
                    state.stats.acks_sent += 1;
                    crate::obs::proto_event(self.inner.rank(), "janus_comm_acks_total", || {
                        format!("ack/from{from}/s{ack}")
                    });
                }
                Err(CommError::Disconnected) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Process one frame taken from a blocking inner receive and ack it at
    /// once (the flush loops run no drain pass that would).
    fn process_and_ack(
        &self,
        state: &mut RelState,
        from: usize,
        msg: Message,
    ) -> Result<(), CommError> {
        let processed = self.process_incoming(state, from, msg);
        let acked = self.send_owed_acks(state);
        processed.and(acked)
    }

    /// Retransmit every overdue unacked envelope; error out when one
    /// exhausts its attempt budget.
    ///
    /// A `Disconnected` retransmit means *that* peer already tore its
    /// endpoint down, so nothing it still needed from us is outstanding:
    /// its queue is dropped and the pump moves on. Propagating the error
    /// instead would abort the caller's send/recv — and, worse, a flush
    /// draining a *different* peer's still-deliverable messages (a
    /// dropped `Shutdown` abandoned that way leaves an open-loop serving
    /// worker blocked in `recv` forever).
    fn pump_retransmits(&self, state: &mut RelState) -> Result<(), CommError> {
        let now = Instant::now();
        for peer in 0..state.unacked.len() {
            let mut peer_gone = false;
            for pending in state.unacked[peer].iter_mut() {
                if pending.next_retry > now {
                    continue;
                }
                if pending.attempts >= self.policy.max_attempts {
                    return Err(CommError::Timeout {
                        context: format!(
                            "reliable delivery of message seq {} from rank {} to peer rank {peer}",
                            pending.seq,
                            self.inner.rank()
                        ),
                        attempts: pending.attempts,
                        elapsed: now.duration_since(pending.first_sent),
                    });
                }
                match self.inner.send(peer, pending.envelope.clone()) {
                    Ok(()) => {}
                    Err(CommError::Disconnected) => {
                        peer_gone = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
                pending.attempts += 1;
                pending.backoff = (pending.backoff * 2).min(self.policy.max_backoff);
                let jitter = crate::transport::seeded_jitter(
                    self.policy.jitter_seed,
                    pending.attempts,
                    pending.seq,
                    pending.backoff,
                );
                if !jitter.is_zero() {
                    state.stats.jittered_backoffs += 1;
                }
                pending.next_retry = now + pending.backoff - jitter;
                state.stats.retransmits += 1;
                let seq = pending.seq;
                crate::obs::proto_event(self.inner.rank(), "janus_comm_retransmits_total", || {
                    format!("retransmit/to{peer}/s{seq}")
                });
            }
            if peer_gone {
                state.unacked[peer].clear();
            }
        }
        Ok(())
    }

    fn drain(&self, state: &mut RelState) -> Result<(), CommError> {
        while let Some((from, msg)) = self.inner.try_recv()? {
            self.process_incoming(state, from, msg)?;
        }
        Ok(())
    }

    /// Drain everything immediately available from the inner transport,
    /// ack the burst (one ack per owed peer, even when the drain failed
    /// part-way), then run the retransmit pump.
    fn drain_and_pump(&self, state: &mut RelState) -> Result<(), CommError> {
        let drained = self.drain(state);
        let acked = self.send_owed_acks(state);
        drained.and(acked)?;
        self.pump_retransmits(state)
    }

    /// Whether no ack is owed: checked before every blocking wait.
    fn all_acked(state: &RelState) -> bool {
        !state.owed.contains(&true)
    }

    /// How long a blocking receive may wait before the pump must run
    /// again: until the earliest pending retransmit, clamped sensibly.
    fn wait_slice(&self, state: &RelState) -> Duration {
        let now = Instant::now();
        let earliest = state
            .unacked
            .iter()
            .flat_map(|q| q.iter().map(|p| p.next_retry))
            .min();
        match earliest {
            Some(t) => t
                .saturating_duration_since(now)
                .clamp(Duration::from_micros(200), self.policy.max_backoff),
            None => self.policy.max_backoff,
        }
    }

    fn total_unacked(state: &RelState) -> usize {
        state.unacked.iter().map(|q| q.len()).sum()
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CommError> {
        // Self-sends loop back over the inner transport, which is
        // in-process and lossless by construction; no envelope needed.
        if to == self.inner.rank() {
            return self.inner.send(to, msg);
        }
        let mut state = self.state.borrow_mut();
        // Opportunistically retire acked sends and retransmit overdue
        // ones; send-heavy phases must not starve the pump.
        self.drain_and_pump(&mut state)?;
        let seq = state.next_seq[to];
        state.next_seq[to] += 1;
        let envelope = Message::Reliable {
            seq,
            data: msg.encode(),
        };
        let now = Instant::now();
        let jitter = crate::transport::seeded_jitter(
            self.policy.jitter_seed,
            1,
            seq,
            self.policy.initial_backoff,
        );
        if !jitter.is_zero() {
            state.stats.jittered_backoffs += 1;
        }
        state.unacked[to].push_back(PendingSend {
            seq,
            envelope: envelope.clone(),
            attempts: 1,
            first_sent: now,
            next_retry: now + self.policy.initial_backoff - jitter,
            backoff: self.policy.initial_backoff,
        });
        self.inner.send(to, envelope)
    }

    // In every recv path below, already-delivered messages in `ready`
    // are served before a drain error propagates: a peer tearing down
    // concurrently must not swallow traffic that was delivered in order
    // before it left (its final message is typically the very thing the
    // caller is waiting for, e.g. a `Shutdown`).

    fn recv(&self) -> Result<(usize, Message), CommError> {
        loop {
            let mut state = self.state.borrow_mut();
            let pumped = self.drain_and_pump(&mut state);
            if let Some(m) = state.ready.pop_front() {
                return Ok(m);
            }
            pumped?;
            debug_assert!(Self::all_acked(&state), "ack owed across a blocking wait");
            let slice = self.wait_slice(&state);
            drop(state);
            if let Some((from, msg)) = self.inner.recv_timeout(slice)? {
                // Acked by the drain that opens the next pass, before
                // this call returns or blocks again.
                let mut state = self.state.borrow_mut();
                self.process_incoming(&mut state, from, msg)?;
            }
        }
    }

    fn try_recv(&self) -> Result<Option<(usize, Message)>, CommError> {
        let mut state = self.state.borrow_mut();
        let pumped = self.drain_and_pump(&mut state);
        if let Some(m) = state.ready.pop_front() {
            return Ok(Some(m));
        }
        pumped?;
        Ok(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut state = self.state.borrow_mut();
            let pumped = self.drain_and_pump(&mut state);
            if let Some(m) = state.ready.pop_front() {
                return Ok(Some(m));
            }
            pumped?;
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            debug_assert!(Self::all_acked(&state), "ack owed across a blocking wait");
            let slice = self.wait_slice(&state).min(deadline - now);
            drop(state);
            if let Some((from, msg)) = self.inner.recv_timeout(slice)? {
                // Acked by the drain that opens the next pass, before
                // this call returns or blocks again.
                let mut state = self.state.borrow_mut();
                self.process_incoming(&mut state, from, msg)?;
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.state.borrow().stats;
        s.add(&self.inner.stats());
        s
    }

    /// Drain the unacked queue, then linger until the link has been
    /// quiet for `flush_quiet`, re-acking peers still retransmitting.
    /// A disconnected peer during flush means that peer already tore
    /// down — its endpoint completed, so nothing it still needed from us
    /// is outstanding — and is treated as delivery, not an error.
    fn flush(&self) -> Result<(), CommError> {
        let mut state = self.state.borrow_mut();
        // Phase 1: wait for every send to be acknowledged.
        while Self::total_unacked(&state) > 0 {
            match self.pump_retransmits(&mut state) {
                Ok(()) => {}
                Err(CommError::Disconnected) => {
                    state.unacked.iter_mut().for_each(VecDeque::clear);
                    break;
                }
                Err(e) => return Err(e),
            }
            debug_assert!(Self::all_acked(&state), "ack owed across a blocking wait");
            let slice = self.wait_slice(&state);
            match self.inner.recv_timeout(slice) {
                Ok(Some((from, msg))) => self.process_and_ack(&mut state, from, msg)?,
                Ok(None) => {}
                Err(CommError::Disconnected) => {
                    state.unacked.iter_mut().for_each(VecDeque::clear);
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 2: linger so peers still retransmitting get their acks.
        let mut last_activity = Instant::now();
        while last_activity.elapsed() < self.policy.flush_quiet {
            debug_assert!(Self::all_acked(&state), "ack owed across a blocking wait");
            match self.inner.recv_timeout(self.policy.flush_quiet / 4) {
                Ok(Some((from, msg))) => {
                    match self.process_and_ack(&mut state, from, msg) {
                        Ok(()) | Err(CommError::Disconnected) => {}
                        Err(e) => return Err(e),
                    }
                    last_activity = Instant::now();
                }
                Ok(None) => {}
                Err(CommError::Disconnected) => break,
                Err(e) => return Err(e),
            }
        }
        drop(state);
        self.inner.flush()
    }

    fn death_handle(&self) -> crate::liveness::DeathHandle {
        self.inner.death_handle()
    }

    fn acknowledge_dead(&self, rank: usize) {
        self.inner.acknowledge_dead(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultPlan, FaultyTransport, Partition};
    use crate::local::local_mesh;

    fn lossy_pair(
        plan: FaultPlan,
        policy: RetransmitPolicy,
    ) -> (
        ReliableTransport<FaultyTransport<crate::local::LocalTransport>>,
        ReliableTransport<FaultyTransport<crate::local::LocalTransport>>,
    ) {
        let mut mesh = local_mesh(2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        (
            ReliableTransport::with_policy(FaultyTransport::new(a, plan.clone()), policy),
            ReliableTransport::with_policy(FaultyTransport::new(b, plan), policy),
        )
    }

    fn quick_policy() -> RetransmitPolicy {
        RetransmitPolicy {
            initial_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(4),
            max_attempts: 60,
            flush_quiet: Duration::from_millis(10),
            ..RetransmitPolicy::default()
        }
    }

    #[test]
    fn exactly_once_fifo_over_lossy_link() {
        let plan = FaultPlan {
            seed: 77,
            drop: 0.3,
            duplicate: 0.2,
            delay: 0.2,
            max_delay_ops: 3,
            ..FaultPlan::default()
        };
        let (a, b) = lossy_pair(plan, quick_policy());
        const N: u64 = 60;
        let stats = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                for i in 0..N {
                    a.send(1, Message::Barrier { epoch: i }).unwrap();
                }
                a.flush().unwrap();
                a.stats()
            });
            let receiver = s.spawn(move || {
                for i in 0..N {
                    let (from, msg) = b.recv().unwrap();
                    assert_eq!(from, 0);
                    assert_eq!(msg, Message::Barrier { epoch: i }, "FIFO violated");
                }
                b.flush().unwrap();
                // Exactly once: nothing extra is ever delivered.
                assert!(b.try_recv().unwrap().is_none());
            });
            receiver.join().unwrap();
            sender.join().unwrap()
        });
        assert!(
            stats.faults_dropped > 0 && stats.retransmits > 0,
            "test is vacuous without injected loss: {stats:?}"
        );
    }

    /// A peer that tore down with traffic still unacked to it must not
    /// poison delivery to the peers that are still alive: rank 2 exits
    /// while rank 0 owes it an envelope, and rank 0's flush must still
    /// retransmit rank 1's (initially dropped) message until acked
    /// instead of abandoning every queue on the first `Disconnected`.
    #[test]
    fn flush_survives_one_dead_peer_and_still_delivers_to_the_living() {
        let plan = FaultPlan {
            seed: 9,
            partitions: vec![Partition {
                a: 0,
                b: 2,
                from_op: 0,
                to_op: 1,
            }],
            ..FaultPlan::default()
        };
        let mut mesh = local_mesh(3);
        let b = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        let t1 = mesh.pop().unwrap();
        let a = ReliableTransport::with_policy(
            FaultyTransport::new(mesh.pop().unwrap(), plan),
            quick_policy(),
        );
        drop(t1); // rank 1 is gone before rank 0 ever reaches it
                  // The dead peer has the lower rank, so the retransmit pump
                  // reaches its queue first — before the fix, the resulting
                  // `Disconnected` aborted the flush and abandoned rank 2's
                  // still-deliverable message.
        assert!(matches!(
            a.send(1, Message::Barrier { epoch: 0 }),
            Err(CommError::Disconnected)
        ));
        a.send(2, Message::Barrier { epoch: 7 }).unwrap(); // dropped by the partition
        std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                assert_eq!(b.recv().unwrap(), (0, Message::Barrier { epoch: 7 }));
                b.flush().unwrap();
            });
            a.flush().unwrap();
            receiver.join().unwrap();
        });
    }

    /// An in-order message delivered just before the sender tears down
    /// must still come out of `recv`: the ack for it cannot be sent
    /// (the peer is gone) and draining the inner transport reports
    /// `Disconnected`, but neither may outrank the `ready` queue.
    #[test]
    fn recv_serves_delivered_messages_before_reporting_disconnect() {
        let mut mesh = local_mesh(2);
        let b = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        let a = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        a.send(1, Message::Shutdown).unwrap();
        drop(a); // sender exits without waiting for the ack
        assert_eq!(b.recv().unwrap(), (0, Message::Shutdown));
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn retransmit_recovers_partition_window() {
        let plan = FaultPlan {
            seed: 5,
            partitions: vec![Partition {
                a: 0,
                b: 1,
                from_op: 0,
                to_op: 3,
            }],
            ..FaultPlan::default()
        };
        let (a, b) = lossy_pair(plan, quick_policy());
        let stats = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                a.send(1, Message::Barrier { epoch: 42 }).unwrap();
                a.flush().unwrap();
                a.stats()
            });
            let receiver = s.spawn(move || {
                assert_eq!(b.recv().unwrap().1, Message::Barrier { epoch: 42 });
                b.flush().unwrap();
            });
            receiver.join().unwrap();
            sender.join().unwrap()
        });
        assert!(stats.retransmits >= 3, "{stats:?}");
        assert_eq!(stats.faults_dropped, 3, "{stats:?}");
    }

    /// Envelope `seq` carrying `Barrier { epoch }`, as a peer speaking the
    /// protocol by hand sends it.
    fn env(seq: u64, epoch: u64) -> Message {
        Message::Reliable {
            seq,
            data: Message::Barrier { epoch }.encode(),
        }
    }

    /// Everything the raw peer has been sent so far.
    fn inbox(raw: &crate::local::LocalTransport) -> Vec<Message> {
        std::iter::from_fn(|| raw.try_recv().unwrap().map(|(_, m)| m)).collect()
    }

    /// A frame and its duplicate drained in one burst earn one cumulative
    /// ack; a duplicate arriving after that ack went out is re-acked.
    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut mesh = local_mesh(2);
        let raw = mesh.pop().unwrap(); // rank 1, speaks the protocol by hand
        let rel = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        raw.send(0, env(1, 7)).unwrap();
        raw.send(0, env(1, 7)).unwrap();
        assert_eq!(rel.recv().unwrap(), (1, Message::Barrier { epoch: 7 }));
        assert!(rel.try_recv().unwrap().is_none(), "duplicate delivered");
        assert_eq!(
            inbox(&raw),
            vec![Message::Ack { ack: 1 }],
            "one ack per burst"
        );
        let stats = rel.stats();
        assert_eq!((stats.duplicates_dropped, stats.acks_sent), (1, 1));

        // The peer missed that ack and retransmits: re-acked at once.
        raw.send(0, env(1, 7)).unwrap();
        assert!(rel.try_recv().unwrap().is_none(), "duplicate delivered");
        assert_eq!(
            inbox(&raw),
            vec![Message::Ack { ack: 1 }],
            "duplicate re-acked"
        );
        let stats = rel.stats();
        assert_eq!((stats.duplicates_dropped, stats.acks_sent), (2, 2));
    }

    /// Early arrivals are held and delivered in order once the gap fills;
    /// each drained burst earns one ack of everything contiguous so far.
    #[test]
    fn out_of_order_arrivals_are_held_and_reordered() {
        let mut mesh = local_mesh(2);
        let raw = mesh.pop().unwrap();
        let rel = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        // Burst 1: a gap, so nothing is contiguous yet.
        raw.send(0, env(2, 200)).unwrap();
        assert!(rel.try_recv().unwrap().is_none());
        assert_eq!(inbox(&raw), vec![Message::Ack { ack: 0 }]);
        // Burst 2: another early frame, then the one that fills the gap.
        raw.send(0, env(3, 300)).unwrap();
        raw.send(0, env(1, 100)).unwrap();
        assert_eq!(rel.recv().unwrap().1, Message::Barrier { epoch: 100 });
        assert_eq!(rel.recv().unwrap().1, Message::Barrier { epoch: 200 });
        assert_eq!(rel.recv().unwrap().1, Message::Barrier { epoch: 300 });
        assert_eq!(rel.stats().out_of_order_held, 2);
        assert_eq!(inbox(&raw), vec![Message::Ack { ack: 3 }]);
        assert_eq!(rel.stats().acks_sent, 2);
    }

    /// No ack is still owed when `try_recv`, `recv_timeout` or `recv`
    /// returns, nor while `recv` blocks: the peer sees each ack before it
    /// has to send anything else.
    #[test]
    fn no_ack_is_owed_when_a_receive_returns_or_blocks() {
        let mut mesh = local_mesh(2);
        let raw = mesh.pop().unwrap();
        let rel = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        raw.send(0, env(1, 1)).unwrap();
        assert!(rel.try_recv().unwrap().is_some());
        assert_eq!(inbox(&raw), vec![Message::Ack { ack: 1 }]);
        raw.send(0, env(2, 2)).unwrap();
        assert!(rel.recv_timeout(Duration::from_secs(5)).unwrap().is_some());
        assert_eq!(inbox(&raw), vec![Message::Ack { ack: 2 }]);
        // A held frame processed inside a wait that then times out.
        raw.send(0, env(4, 4)).unwrap();
        assert!(rel
            .recv_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        assert_eq!(inbox(&raw), vec![Message::Ack { ack: 2 }]);

        std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                // Blocks: only seq 4 is held, seq 3 is missing.
                let first = rel.recv().unwrap();
                let second = rel.recv().unwrap();
                (first, second)
            });
            // A duplicate of 4 reaches the receiver while it blocks; its
            // re-ack must come back before the receiver blocks again.
            // The gap is filled whether or not the ack came, so a missing
            // ack fails the test instead of hanging it.
            let wait = || raw.recv_timeout(Duration::from_secs(5)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            raw.send(0, env(4, 4)).unwrap();
            let reack = wait();
            raw.send(0, env(3, 3)).unwrap();
            let ack = wait();
            let (first, second) = receiver.join().unwrap();
            assert_eq!(
                reack,
                Some((0, Message::Ack { ack: 2 })),
                "re-ack owed while blocked"
            );
            assert_eq!(
                ack,
                Some((0, Message::Ack { ack: 4 })),
                "ack owed while blocked"
            );
            assert_eq!(first.1, Message::Barrier { epoch: 3 });
            assert_eq!(second.1, Message::Barrier { epoch: 4 });
        });
        assert!(inbox(&raw).is_empty());
    }

    #[test]
    fn exhausted_retry_budget_surfaces_timeout() {
        let mut mesh = local_mesh(2);
        let _silent = mesh.pop().unwrap(); // rank 1 never acks, never hangs us
        let rel = ReliableTransport::with_policy(
            mesh.pop().unwrap(),
            RetransmitPolicy {
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(1),
                max_attempts: 3,
                flush_quiet: Duration::from_millis(2),
                ..RetransmitPolicy::default()
            },
        );
        rel.send(1, Message::Barrier { epoch: 1 }).unwrap();
        let start = Instant::now();
        let err = rel.flush().unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
        match &err {
            CommError::Timeout {
                context, attempts, ..
            } => {
                assert_eq!(*attempts, 3);
                assert!(context.contains("peer rank 1"), "{context}");
                assert!(context.contains("seq 1"), "{context}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn self_sends_and_unwrapped_messages_pass_through() {
        let mut mesh = local_mesh(2);
        let raw = mesh.pop().unwrap();
        let rel = ReliableTransport::with_policy(mesh.pop().unwrap(), quick_policy());
        rel.send(0, Message::Barrier { epoch: 9 }).unwrap();
        assert_eq!(rel.recv().unwrap(), (0, Message::Barrier { epoch: 9 }));
        // A peer speaking the plain protocol still reaches us.
        raw.send(0, Message::Shutdown).unwrap();
        assert_eq!(rel.recv().unwrap(), (1, Message::Shutdown));
        assert_eq!(rel.stats(), TransportStats::default());
    }

    #[test]
    fn bidirectional_traffic_under_combined_faults() {
        let plan = FaultPlan {
            seed: 1234,
            drop: 0.15,
            duplicate: 0.15,
            delay: 0.15,
            max_delay_ops: 4,
            reorder: 0.3,
            ..FaultPlan::default()
        };
        let (a, b) = lossy_pair(plan, quick_policy());
        const N: u64 = 40;
        fn chat<T: Transport>(me: T) {
            let mut next_expected = 0u64;
            for sent in 0..N {
                me.send(1 - me.rank(), Message::Barrier { epoch: sent })
                    .unwrap();
                while let Some((_, msg)) = me.try_recv().unwrap() {
                    assert_eq!(
                        msg,
                        Message::Barrier {
                            epoch: next_expected
                        }
                    );
                    next_expected += 1;
                }
            }
            while next_expected < N {
                let (_, msg) = me.recv().unwrap();
                assert_eq!(
                    msg,
                    Message::Barrier {
                        epoch: next_expected
                    }
                );
                next_expected += 1;
            }
            me.flush().unwrap();
        }
        std::thread::scope(|s| {
            s.spawn(move || chat(a));
            s.spawn(move || chat(b));
        });
    }
}
