//! TCP full-mesh transport over `std::net`.
//!
//! Every pair of ranks shares one TCP connection carrying length-prefixed
//! [`Message`] frames (see [`crate::codec`]). Rank `i` connects to every
//! lower rank and accepts from every higher rank; a 4-byte handshake
//! identifies the connector. One reader thread per peer demultiplexes
//! incoming frames into the endpoint's inbox.
//!
//! This is the same control-plane/data-plane split the paper builds on
//! BytePS (§6), collapsed onto one socket per pair: requests and payloads
//! are distinct message types rather than distinct fabrics.

use crate::codec::{read_message_buffered, write_message, DEFAULT_MAX_FRAME};
use crate::message::Message;
use crate::transport::{CommError, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// A TCP mesh endpoint.
pub struct TcpTransport {
    rank: usize,
    world: usize,
    /// Write half per peer (`None` at our own rank).
    writers: Vec<Option<Mutex<TcpStream>>>,
    /// Loopback for self-sends.
    self_tx: Sender<(usize, Message)>,
    inbox: Receiver<(usize, Message)>,
}

impl TcpTransport {
    /// Build one endpoint given a pre-bound listener and every rank's
    /// address. Blocks until the full mesh is connected. Uses the default
    /// [`ConnectRetry`] budget; see [`TcpTransport::from_listener_with`]
    /// to bound it explicitly.
    pub fn from_listener(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
    ) -> Result<Self, CommError> {
        TcpTransport::from_listener_with(rank, listener, addrs, &ConnectRetry::default())
    }

    /// [`TcpTransport::from_listener`] with an explicit connection retry
    /// budget, so callers control how long mesh assembly may block before
    /// failing with a [`CommError::Timeout`].
    pub fn from_listener_with(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        retry: &ConnectRetry,
    ) -> Result<Self, CommError> {
        let world = addrs.len();
        assert!(rank < world, "rank out of range");
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();

        // Connect to every lower rank (they bound their listeners first).
        for (j, addr) in addrs.iter().enumerate().take(rank) {
            let mut stream = connect_with_retry(*addr, retry)?;
            stream.set_nodelay(true)?;
            stream.write_all(&(rank as u32).to_be_bytes())?;
            stream.flush()?;
            streams[j] = Some(stream);
        }
        // Accept from every higher rank; the handshake tells us which.
        for _ in rank + 1..world {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut hs = [0u8; 4];
            stream.read_exact(&mut hs)?;
            let peer = u32::from_be_bytes(hs) as usize;
            if peer <= rank || peer >= world {
                return Err(CommError::Decode(format!("bad handshake rank {peer}")));
            }
            if streams[peer].is_some() {
                return Err(CommError::Decode(format!(
                    "duplicate connection from rank {peer}"
                )));
            }
            streams[peer] = Some(stream);
        }

        let (tx, inbox) = unbounded::<(usize, Message)>();
        let mut writers: Vec<Option<Mutex<TcpStream>>> = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            match slot {
                None => writers.push(None),
                Some(stream) => {
                    let reader = stream.try_clone()?;
                    spawn_reader(peer, reader, tx.clone());
                    writers.push(Some(Mutex::new(stream)));
                }
            }
        }
        Ok(TcpTransport {
            rank,
            world,
            writers,
            self_tx: tx,
            inbox,
        })
    }

    /// Orderly teardown: shut down every connection's write half so peer
    /// readers observe EOF at a frame boundary.
    pub fn close(&self) {
        for w in self.writers.iter().flatten() {
            let _ = w.lock().shutdown(std::net::Shutdown::Write);
        }
    }
}

/// Each reader thread holds a `try_clone` of its socket, so dropping the
/// write halves alone never closes a connection: without the shutdown
/// both ends' readers would block on each other forever, leaking a thread
/// and a socket per peer per mesh. Shutting down only the write half
/// lets peers drain what is in flight and reach EOF at a frame boundary.
impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.close();
    }
}

fn spawn_reader(peer: usize, stream: TcpStream, tx: Sender<(usize, Message)>) {
    thread::Builder::new()
        .name(format!("tcp-reader-{peer}"))
        .spawn(move || {
            // Buffered reads amortize kernel round-trips across small
            // frames (a bulk payload larger than the buffer bypasses it
            // and reads straight into its own allocation), and one scratch
            // buffer per peer is reused for every frame under the codec's
            // size threshold: the control-plane fast path does one read
            // syscall per buffer-full and allocates nothing per message.
            let mut stream = std::io::BufReader::with_capacity(64 * 1024, stream);
            let mut scratch = Vec::new();
            loop {
                match read_message_buffered(&mut stream, DEFAULT_MAX_FRAME, &mut scratch) {
                    Ok(Some(msg)) => {
                        if tx.send((peer, msg)).is_err() {
                            return; // endpoint dropped
                        }
                    }
                    // Clean EOF or any error: stop reading. Dropping this
                    // tx clone eventually disconnects the inbox when all
                    // readers are gone and the endpoint itself is dropped.
                    Ok(None) | Err(_) => return,
                }
            }
        })
        .expect("spawn tcp reader thread");
}

/// Retry budget for mesh-assembly connections: how many attempts, with
/// what (exponentially growing, bounded) backoff between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectRetry {
    /// Maximum connection attempts before giving up.
    pub max_attempts: u32,
    /// Sleep after the first failed attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling (each failure doubles the sleep up to this).
    pub max_backoff: Duration,
    /// Seed for deterministic backoff jitter (see
    /// [`crate::transport::seeded_jitter`]): each sleep is shortened by
    /// up to a quarter so a mesh's worth of ranks dialing the same slow
    /// listener spread out instead of reconnecting in phase.
    pub jitter_seed: u64,
}

impl Default for ConnectRetry {
    fn default() -> Self {
        // Worst case ~11 s: enough for every peer of a slow mesh to bind
        // its listener, bounded enough that a dead address fails loudly.
        ConnectRetry {
            max_attempts: 60,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 0x6a69_7474,
        }
    }
}

/// Connect to `addr`, retrying with bounded exponential backoff up to
/// `retry.max_attempts` times. On exhaustion, returns
/// [`CommError::Timeout`] reporting the attempt count and total elapsed
/// time (the last OS error is folded into the context).
pub fn connect_with_retry(addr: SocketAddr, retry: &ConnectRetry) -> Result<TcpStream, CommError> {
    assert!(
        retry.max_attempts > 0,
        "retry budget must allow one attempt"
    );
    let start = std::time::Instant::now();
    let mut delay = retry.initial_backoff;
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 1..=retry.max_attempts {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last_err = Some(e);
                if attempt < retry.max_attempts {
                    let jitter = crate::transport::seeded_jitter(
                        retry.jitter_seed,
                        attempt,
                        addr.port() as u64,
                        delay,
                    );
                    if !jitter.is_zero() {
                        crate::obs::proto_count("janus_comm_connect_jitter_total");
                    }
                    thread::sleep(delay - jitter);
                    delay = (delay * 2).min(retry.max_backoff);
                }
            }
        }
    }
    Err(CommError::Timeout {
        context: format!(
            "connect to {addr} (last error: {})",
            last_err.expect("at least one failed attempt")
        ),
        attempts: retry.max_attempts,
        elapsed: start.elapsed(),
    })
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CommError> {
        assert!(to < self.world, "rank {to} out of range");
        let _span = crate::obs::send_hook(self.rank, to, &msg);
        if to == self.rank {
            return self
                .self_tx
                .send((self.rank, msg))
                .map_err(|_| CommError::Disconnected);
        }
        let writer = self.writers[to]
            .as_ref()
            .expect("non-self rank must have a stream");
        let mut stream = writer.lock();
        write_message(&mut *stream, &msg)
    }

    fn recv(&self) -> Result<(usize, Message), CommError> {
        let _span = crate::obs::recv_wait_hook(self.rank);
        let m = self.inbox.recv().map_err(|_| CommError::Disconnected)?;
        crate::obs::recv_hook(self.rank, &m.1);
        Ok(m)
    }

    fn try_recv(&self) -> Result<Option<(usize, Message)>, CommError> {
        use crossbeam::channel::TryRecvError;
        match self.inbox.try_recv() {
            Ok(m) => {
                crate::obs::recv_hook(self.rank, &m.1);
                Ok(Some(m))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, CommError> {
        use crossbeam::channel::RecvTimeoutError;
        match self.inbox.recv_timeout(timeout) {
            Ok(m) => {
                crate::obs::recv_hook(self.rank, &m.1);
                Ok(Some(m))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
        }
    }
}

/// Bind `world` loopback listeners on ephemeral ports and assemble the
/// full mesh, returning endpoints in rank order.
pub fn tcp_mesh_localhost(world: usize) -> Result<Vec<TcpTransport>, CommError> {
    assert!(world > 0);
    let listeners: Vec<TcpListener> = (0..world)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<Result<_, _>>()?;

    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let addrs = addrs.clone();
            thread::Builder::new()
                .name(format!("tcp-mesh-setup-{rank}"))
                .spawn(move || TcpTransport::from_listener(rank, listener, &addrs))
                .expect("spawn mesh setup thread")
        })
        .collect();

    let mut endpoints = Vec::with_capacity(world);
    for h in handles {
        endpoints.push(h.join().expect("mesh setup thread panicked")?);
    }
    Ok(endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn two_rank_mesh_round_trip() {
        let mut mesh = tcp_mesh_localhost(2).unwrap();
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        a.send(
            1,
            Message::PullRequest {
                block: 1,
                expert: 5,
                nonce: 77,
            },
        )
        .unwrap();
        assert_eq!(
            b.recv().unwrap(),
            (
                0,
                Message::PullRequest {
                    block: 1,
                    expert: 5,
                    nonce: 77
                }
            )
        );
        b.send(
            0,
            Message::ExpertPayload {
                block: 1,
                expert: 5,
                nonce: 77,
                data: Bytes::from(vec![9; 64]),
            },
        )
        .unwrap();
        let (from, msg) = a.recv().unwrap();
        assert_eq!(from, 1);
        assert_eq!(msg.payload_len(), 64);
    }

    #[test]
    fn four_rank_mesh_all_pairs() {
        let mesh = tcp_mesh_localhost(4).unwrap();
        // Every rank sends its rank to every other rank.
        for t in &mesh {
            for peer in 0..4 {
                if peer != t.rank() {
                    t.send(
                        peer,
                        Message::Barrier {
                            epoch: t.rank() as u64,
                        },
                    )
                    .unwrap();
                }
            }
        }
        for t in &mesh {
            let mut seen = [false; 4];
            for _ in 0..3 {
                let (from, msg) = t.recv().unwrap();
                assert_eq!(msg, Message::Barrier { epoch: from as u64 });
                assert!(!seen[from], "duplicate from {from}");
                seen[from] = true;
            }
        }
    }

    #[test]
    fn self_send_loops_back() {
        let mesh = tcp_mesh_localhost(1).unwrap();
        mesh[0].send(0, Message::Shutdown).unwrap();
        assert_eq!(mesh[0].recv().unwrap(), (0, Message::Shutdown));
    }

    #[test]
    fn connect_retry_budget_is_bounded_and_reported() {
        // Bind a listener to reserve a port, then drop it so nothing is
        // listening there: every connection attempt is refused.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let retry = ConnectRetry {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..ConnectRetry::default()
        };
        let start = std::time::Instant::now();
        let err = connect_with_retry(dead_addr, &retry).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "bounded budget must fail fast"
        );
        match &err {
            CommError::Timeout {
                context,
                attempts,
                elapsed,
            } => {
                assert_eq!(*attempts, 3);
                assert!(context.contains(&dead_addr.to_string()), "{context}");
                assert!(*elapsed < Duration::from_secs(5));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The rendered error names the attempts and the address.
        let s = err.to_string();
        assert!(s.contains("3 attempts"), "{s}");
        assert!(s.contains("connect to"), "{s}");
    }

    #[test]
    fn mesh_assembly_honours_custom_retry_budget() {
        // A one-rank world connects to nobody, so assembly succeeds even
        // with a minimal budget; this pins the `from_listener_with` API.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![listener.local_addr().unwrap()];
        let retry = ConnectRetry {
            max_attempts: 1,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            ..ConnectRetry::default()
        };
        let t = TcpTransport::from_listener_with(0, listener, &addrs, &retry).unwrap();
        assert_eq!(t.world_size(), 1);
    }

    #[test]
    fn large_payload_survives_framing() {
        let mut mesh = tcp_mesh_localhost(2).unwrap();
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        a.send(
            1,
            Message::Collective {
                seq: 1,
                data: Bytes::from(data.clone()),
            },
        )
        .unwrap();
        match b.recv().unwrap().1 {
            Message::Collective { data: got, .. } => assert_eq!(&got[..], &data[..]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_senders_do_not_interleave_frames() {
        let mut mesh = tcp_mesh_localhost(2).unwrap();
        let b = mesh.pop().unwrap();
        let a = std::sync::Arc::new(mesh.pop().unwrap());
        let mut joins = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            joins.push(thread::spawn(move || {
                for i in 0..50u32 {
                    let payload = vec![t as u8; 1000 + i as usize];
                    a.send(
                        1,
                        Message::TokenDispatch {
                            block: t,
                            seq: i,
                            data: Bytes::from(payload),
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for _ in 0..200 {
            let (_, msg) = b.recv().unwrap();
            match msg {
                Message::TokenDispatch { block, seq, data } => {
                    assert_eq!(data.len(), 1000 + seq as usize);
                    assert!(data.iter().all(|&x| x == block as u8));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
