//! Length-prefixed framing over byte streams.
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes
//! of [`crate::message::Message`] encoding. A configurable ceiling guards
//! against corrupt headers allocating unbounded memory.

use crate::message::{EncodedHeader, Message};
use crate::transport::CommError;
use bytes::Bytes;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// Default maximum frame size: large enough for any expert in the paper's
/// models (a 768-dim fp16 expert is ~9.4 MB) with generous headroom.
pub const DEFAULT_MAX_FRAME: usize = 256 * 1024 * 1024;

/// Frames at or below this size are decoded out of the caller's reusable
/// scratch buffer in [`read_message_buffered`] (one payload copy, zero
/// steady-state allocations — the control-plane regime); larger frames
/// get a fresh exact-size allocation handed to [`Bytes`] without a copy
/// (the bulk-payload regime, where the copy would cost more than the
/// allocation it saves).
pub const REUSE_DECODE_MAX: usize = 64 * 1024;

/// Write one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), CommError> {
    let len = u32::try_from(payload.len()).map_err(|_| CommError::FrameTooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on clean EOF at a frame boundary;
/// EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Option<Vec<u8>>, CommError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(CommError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    fill(r, &mut payload)?;
    Ok(Some(payload))
}

/// Read one frame into a caller-owned buffer (resized to the frame
/// length, capacity retained across calls — the steady state of a recv
/// loop allocates nothing). Returns `Ok(false)` on clean EOF at a frame
/// boundary; EOF mid-frame is an error.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_frame: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, CommError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(false),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(CommError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    buf.resize(len, 0);
    fill(r, buf)?;
    Ok(true)
}

/// Write a [`Message`] as one frame: the 4-byte length prefix and the
/// message header are assembled on the stack and handed to the stream
/// together with the borrowed payload as **one vectored write** — no
/// intermediate encode buffer, and (on an unbuffered socket) one
/// syscall per frame instead of one per part.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), CommError> {
    let (header, payload) = msg.encode_parts();
    let header = header.as_slice();
    let payload = payload.map_or(&[][..], |d| &d[..]);
    let total = header.len() + payload.len();
    let frame_len = u32::try_from(total).map_err(|_| CommError::FrameTooLarge {
        len: total,
        max: u32::MAX as usize,
    })?;
    let mut head = [0u8; 4 + EncodedHeader::MAX];
    head[..4].copy_from_slice(&frame_len.to_be_bytes());
    head[4..4 + header.len()].copy_from_slice(header);
    let head = &head[..4 + header.len()];
    if payload.is_empty() {
        w.write_all(head)?;
    } else {
        write_all_vectored(w, head, payload)?;
    }
    w.flush()?;
    Ok(())
}

/// Write `head ‖ body` via `write_vectored`, retrying on short writes.
fn write_all_vectored<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> Result<(), CommError> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(CommError::Io(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(CommError::Io(e)),
        }
    }
    Ok(())
}

/// Read one [`Message`]; `Ok(None)` on clean EOF.
pub fn read_message<R: Read>(r: &mut R, max_frame: usize) -> Result<Option<Message>, CommError> {
    match read_frame(r, max_frame)? {
        None => Ok(None),
        Some(payload) => Message::decode(Bytes::from(payload)).map(Some),
    }
}

/// Read one [`Message`] using `scratch` as the receive buffer for small
/// frames (≤ [`REUSE_DECODE_MAX`]: zero allocations steady-state, one
/// payload copy) and a fresh zero-copy allocation for large ones.
/// `Ok(None)` on clean EOF.
pub fn read_message_buffered<R: Read>(
    r: &mut R,
    max_frame: usize,
    scratch: &mut Vec<u8>,
) -> Result<Option<Message>, CommError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame {
        return Err(CommError::FrameTooLarge {
            len,
            max: max_frame,
        });
    }
    if len <= REUSE_DECODE_MAX {
        scratch.resize(len, 0);
        fill(r, scratch)?;
        Message::decode(Bytes::copy_from_slice(scratch)).map(Some)
    } else {
        let mut payload = vec![0u8; len];
        fill(r, &mut payload)?;
        Message::decode(Bytes::from(payload)).map(Some)
    }
}

/// `read_exact` with EOF normalized to [`CommError::Disconnected`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CommError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            CommError::Disconnected
        } else {
            CommError::Io(e)
        }
    })
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// Fill `buf` completely, distinguishing EOF-before-any-byte (clean) from
/// EOF mid-buffer (dirty).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, CommError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(CommError::Disconnected)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(CommError::Io(e)),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b""
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            vec![7u8; 1000]
        );
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn message_round_trip_through_stream() {
        let msg = Message::ExpertPayload {
            block: 2,
            expert: 9,
            nonce: 4,
            data: Bytes::from(vec![1, 2, 3]),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_message(&mut cursor, DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap(),
            msg
        );
    }

    #[test]
    fn frame_into_reuses_one_buffer_across_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first-frame").unwrap();
        write_frame(&mut stream, b"two").unwrap();
        write_frame(&mut stream, &[5u8; 4096]).unwrap();
        let mut cursor = Cursor::new(stream);
        let mut buf = Vec::new();
        assert!(read_frame_into(&mut cursor, DEFAULT_MAX_FRAME, &mut buf).unwrap());
        assert_eq!(buf, b"first-frame");
        let cap = buf.capacity();
        assert!(read_frame_into(&mut cursor, DEFAULT_MAX_FRAME, &mut buf).unwrap());
        assert_eq!(buf, b"two");
        assert_eq!(buf.capacity(), cap, "shrinking must not release capacity");
        assert!(read_frame_into(&mut cursor, DEFAULT_MAX_FRAME, &mut buf).unwrap());
        assert_eq!(buf, vec![5u8; 4096]);
        assert!(!read_frame_into(&mut cursor, DEFAULT_MAX_FRAME, &mut buf).unwrap());
    }

    #[test]
    fn frame_into_rejects_oversize_and_truncation() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0u8; 100]).unwrap();
        let mut buf = Vec::new();
        let err = read_frame_into(&mut Cursor::new(stream.clone()), 10, &mut buf).unwrap_err();
        assert!(matches!(
            err,
            CommError::FrameTooLarge { len: 100, max: 10 }
        ));
        stream.truncate(40);
        let err =
            read_frame_into(&mut Cursor::new(stream), DEFAULT_MAX_FRAME, &mut buf).unwrap_err();
        assert!(matches!(err, CommError::Disconnected));
    }

    #[test]
    fn buffered_read_crosses_the_reuse_threshold() {
        // One frame under the reuse threshold, one over it: both decode
        // identically through the hybrid path.
        let small = Message::ExpertPayload {
            block: 1,
            expert: 2,
            nonce: 3,
            data: Bytes::from(vec![7u8; 100]),
        };
        let large = Message::Collective {
            seq: 9,
            data: Bytes::from(vec![8u8; REUSE_DECODE_MAX + 1]),
        };
        let mut stream = Vec::new();
        write_message(&mut stream, &small).unwrap();
        write_message(&mut stream, &large).unwrap();
        let mut cursor = Cursor::new(stream);
        let mut scratch = Vec::new();
        assert_eq!(
            read_message_buffered(&mut cursor, DEFAULT_MAX_FRAME, &mut scratch)
                .unwrap()
                .unwrap(),
            small
        );
        assert_eq!(
            read_message_buffered(&mut cursor, DEFAULT_MAX_FRAME, &mut scratch)
                .unwrap()
                .unwrap(),
            large
        );
        assert!(
            read_message_buffered(&mut cursor, DEFAULT_MAX_FRAME, &mut scratch)
                .unwrap()
                .is_none()
        );
        // The scratch buffer never grew past the small frame: the large
        // one bypassed it.
        assert!(scratch.capacity() <= REUSE_DECODE_MAX);
    }

    /// A `Write` that records each call it sees and accepts at most
    /// `cap` bytes per call, so a small cap forces short writes.
    struct CountingWriter {
        cap: usize,
        bytes: Vec<u8>,
        writes: usize,
        /// The start address of every slice of every `write_vectored`.
        vectored: Vec<Vec<*const u8>>,
    }

    impl CountingWriter {
        fn new(cap: usize) -> Self {
            CountingWriter {
                cap,
                bytes: Vec::new(),
                writes: 0,
                vectored: Vec::new(),
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored
                .push(bufs.iter().map(|b| b.as_ptr()).collect());
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.cap - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One message of every variant, each paired with the address of
    /// its payload bytes (`None` for a frame that carries no payload).
    fn every_variant() -> Vec<(Message, Option<*const u8>)> {
        let payload = |n: usize| {
            let data = Bytes::from(vec![0xA5u8; n]);
            let ptr = data.as_ptr();
            (data, Some(ptr))
        };
        let (expert, expert_ptr) = payload(1000);
        let (grad, grad_ptr) = payload(64);
        let (dispatch, dispatch_ptr) = payload(5);
        let (ret, ret_ptr) = payload(1);
        let (chunk, chunk_ptr) = payload(REUSE_DECODE_MAX + 1);
        let (inner, inner_ptr) = payload(17);
        vec![
            (
                Message::PullRequest {
                    block: 1,
                    expert: 2,
                    nonce: 3,
                },
                None,
            ),
            (
                Message::ExpertPayload {
                    block: 1,
                    expert: 2,
                    nonce: 3,
                    data: expert,
                },
                expert_ptr,
            ),
            (
                Message::GradPush {
                    block: 1,
                    expert: 2,
                    contributions: 4,
                    data: grad,
                },
                grad_ptr,
            ),
            (
                Message::TokenDispatch {
                    block: 2,
                    seq: 5,
                    data: dispatch,
                },
                dispatch_ptr,
            ),
            (
                Message::TokenReturn {
                    block: 2,
                    seq: 5,
                    data: ret,
                },
                ret_ptr,
            ),
            (
                Message::TokenReturn {
                    block: 2,
                    seq: 6,
                    data: Bytes::new(),
                },
                None,
            ),
            (Message::Barrier { epoch: 7 }, None),
            (
                Message::Collective {
                    seq: 9,
                    data: chunk,
                },
                chunk_ptr,
            ),
            (Message::Shutdown, None),
            (
                Message::Reliable {
                    seq: 1,
                    data: inner,
                },
                inner_ptr,
            ),
            (Message::Ack { ack: 3 }, None),
            (Message::Heartbeat { seq: 8 }, None),
        ]
    }

    /// The send fast path, checked by structure rather than by a timing:
    /// a frame with a payload goes out as exactly one `write_vectored`
    /// whose second slice is the message's own payload bytes, so no
    /// intermediate encode buffer exists and no plain `write` is issued.
    #[test]
    fn payload_frames_go_out_in_one_vectored_write_of_the_payload_itself() {
        for (msg, payload) in every_variant() {
            let mut w = CountingWriter::new(usize::MAX);
            write_message(&mut w, &msg).unwrap();
            match payload {
                Some(ptr) => {
                    assert_eq!(w.vectored.len(), 1, "one write_vectored for {msg:?}");
                    assert_eq!(w.writes, 0, "no plain write for {msg:?}");
                    let slices = &w.vectored[0];
                    assert_eq!(slices.len(), 2, "prefix+header, then payload: {msg:?}");
                    assert_eq!(slices[1], ptr, "payload was copied for {msg:?}");
                }
                None => assert!(w.vectored.is_empty(), "header-only {msg:?}"),
            }
        }
    }

    /// Every variant, written whole and in 3-byte short writes that
    /// resume mid-slice, is byte-identical to the buffered encoding.
    #[test]
    fn vectored_write_is_byte_identical_to_buffered_encode() {
        for (msg, _) in every_variant() {
            let mut reference = Vec::new();
            write_frame(&mut reference, &msg.encode()).unwrap();
            for cap in [usize::MAX, 3] {
                let mut w = CountingWriter::new(cap);
                write_message(&mut w, &msg).unwrap();
                assert_eq!(w.bytes, reference, "variant {msg:?}, cap {cap}");
            }
        }
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&mut Cursor::new(buf), 10).unwrap_err();
        assert!(matches!(
            err,
            CommError::FrameTooLarge { len: 100, max: 10 }
        ));
    }

    #[test]
    fn eof_mid_header_is_disconnect() {
        let buf = vec![0u8, 0, 0]; // truncated header
        let err = read_frame(&mut Cursor::new(buf), 100).unwrap_err();
        assert!(matches!(err, CommError::Disconnected));
    }

    #[test]
    fn eof_mid_payload_is_disconnect() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[9u8; 50]).unwrap();
        buf.truncate(20);
        let err = read_frame(&mut Cursor::new(buf), 100).unwrap_err();
        assert!(matches!(err, CommError::Disconnected));
    }
}
