//! Binary serialization of expert weights and gradients for the data
//! plane.
//!
//! Layout (little-endian `f32`, lengths as big-endian `u32`): `w1.rows`,
//! `w1.cols`, `w1.data`, `b1.len`, `b1`, then the same for `w2`/`b2`. The
//! identical layout is used for [`ExpertGrads`], so the same code paths
//! move weights forward and gradients backward — exactly the symmetry the
//! paper exploits ("the size of gradients is the same as the expert
//! model pulled, and the communication direction is opposite", §5.1.3).
//!
//! Every `f32` run moves as one chunked little-endian copy, and every
//! length read off the wire is multiplied with overflow checks and
//! compared against the bytes actually present before anything is
//! allocated, so a corrupt or hostile header is a [`CommError::Decode`],
//! never a panic or a huge allocation.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use janus_comm::CommError;
use janus_moe::expert::{ExpertFfn, ExpertGrads};
use janus_tensor::Matrix;

/// Floats staged per `put_slice` call when encoding a run.
const CHUNK: usize = 64;

/// Append `v` as little-endian `f32`s, one staged chunk at a time.
fn put_f32s(buf: &mut BytesMut, v: &[f32]) {
    let mut staged = [0u8; 4 * CHUNK];
    for run in v.chunks(CHUNK) {
        for (dst, x) in staged.chunks_exact_mut(4).zip(run) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.put_slice(&staged[..4 * run.len()]);
    }
}

/// Read `n` little-endian `f32`s after [`need`] checks they are all there.
fn take_f32s(buf: &mut Bytes, n: usize, what: &str) -> Result<Vec<f32>, CommError> {
    let len = need(buf, n, 4, what)?;
    let v = buf.chunk()[..len]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    buf.advance(len);
    Ok(v)
}

fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32(m.rows() as u32);
    buf.put_u32(m.cols() as u32);
    put_f32s(buf, m.data());
}

fn put_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32(v.len() as u32);
    put_f32s(buf, v);
}

/// Check that `count` items of `width` bytes each are present, with the
/// product computed without overflow; returns the byte length.
fn need(buf: &Bytes, count: usize, width: usize, what: &str) -> Result<usize, CommError> {
    match count.checked_mul(width) {
        Some(n) if n <= buf.remaining() => Ok(n),
        Some(n) => Err(CommError::Decode(format!(
            "{what} truncated: need {n} bytes, have {}",
            buf.remaining()
        ))),
        None => Err(CommError::Decode(format!(
            "{what} length overflows: {count} × {width} bytes"
        ))),
    }
}

fn take_u32(buf: &mut Bytes, what: &str) -> Result<usize, CommError> {
    need(buf, 1, 4, what)?;
    Ok(buf.get_u32() as usize)
}

fn take_matrix(buf: &mut Bytes, what: &str) -> Result<Matrix, CommError> {
    let rows = take_u32(buf, what)?;
    let cols = take_u32(buf, what)?;
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| CommError::Decode(format!("{what} shape {rows}×{cols} overflows")))?;
    Ok(Matrix::from_vec(rows, cols, take_f32s(buf, len, what)?))
}

fn take_vec(buf: &mut Bytes, what: &str) -> Result<Vec<f32>, CommError> {
    let len = take_u32(buf, what)?;
    take_f32s(buf, len, what)
}

/// Encode the four parameter tensors of an expert (or its gradient) into
/// one buffer sized up front.
fn params_to_bytes(w1: &Matrix, b1: &[f32], w2: &Matrix, b2: &[f32]) -> Bytes {
    let floats = w1.data().len() + b1.len() + w2.data().len() + b2.len();
    let mut buf = BytesMut::with_capacity(4 * floats + 24);
    put_matrix(&mut buf, w1);
    put_vec(&mut buf, b1);
    put_matrix(&mut buf, w2);
    put_vec(&mut buf, b2);
    buf.freeze()
}

type Params = (Matrix, Vec<f32>, Matrix, Vec<f32>);

fn params_from_bytes(mut buf: Bytes, what: &str) -> Result<Params, CommError> {
    let w1 = take_matrix(&mut buf, what)?;
    let b1 = take_vec(&mut buf, what)?;
    let w2 = take_matrix(&mut buf, what)?;
    let b2 = take_vec(&mut buf, what)?;
    if buf.has_remaining() {
        return Err(CommError::Decode(format!("trailing bytes after {what}")));
    }
    Ok((w1, b1, w2, b2))
}

/// Serialize an expert's weights.
pub fn expert_to_bytes(e: &ExpertFfn) -> Bytes {
    params_to_bytes(&e.w1, &e.b1, &e.w2, &e.b2)
}

/// Deserialize an expert's weights.
pub fn expert_from_bytes(buf: Bytes) -> Result<ExpertFfn, CommError> {
    let (w1, b1, w2, b2) = params_from_bytes(buf, "expert weights")?;
    Ok(ExpertFfn { w1, b1, w2, b2 })
}

/// Serialize an expert gradient (same layout as the weights).
pub fn grads_to_bytes(g: &ExpertGrads) -> Bytes {
    params_to_bytes(&g.w1, &g.b1, &g.w2, &g.b2)
}

/// Deserialize an expert gradient.
pub fn grads_from_bytes(buf: Bytes) -> Result<ExpertGrads, CommError> {
    let (w1, b1, w2, b2) = params_from_bytes(buf, "gradient")?;
    Ok(ExpertGrads { w1, b1, w2, b2 })
}

/// One routed token slot on the wire: the token's index at its origin
/// worker, the target expert, and the gate's combine weight.
pub type Slot = (u32, u32, f32);

/// Serialize a token matrix together with slot metadata
/// `(token_id, expert, weight)` — the expert-centric dispatch payload.
pub fn tokens_to_bytes(slots: &[Slot], rows: &Matrix) -> Bytes {
    assert_eq!(slots.len(), rows.rows(), "one metadata slot per row");
    let mut buf = BytesMut::with_capacity(8 + slots.len() * 12 + rows.data().len() * 4);
    buf.put_u32(slots.len() as u32);
    buf.put_u32(rows.cols() as u32);
    for &(tok, expert, w) in slots {
        let mut slot = [0u8; 12];
        slot[..4].copy_from_slice(&tok.to_be_bytes());
        slot[4..8].copy_from_slice(&expert.to_be_bytes());
        slot[8..].copy_from_slice(&w.to_le_bytes());
        buf.put_slice(&slot);
    }
    put_f32s(&mut buf, rows.data());
    buf.freeze()
}

/// Deserialize a token matrix with slot metadata.
pub fn tokens_from_bytes(mut buf: Bytes) -> Result<(Vec<Slot>, Matrix), CommError> {
    const WHAT: &str = "token batch";
    let n = take_u32(&mut buf, WHAT)?;
    let cols = take_u32(&mut buf, WHAT)?;
    let meta = need(&buf, n, 12, WHAT)?;
    let slots: Vec<Slot> = buf.chunk()[..meta]
        .chunks_exact(12)
        .map(|s| {
            (
                u32::from_be_bytes([s[0], s[1], s[2], s[3]]),
                u32::from_be_bytes([s[4], s[5], s[6], s[7]]),
                f32::from_le_bytes([s[8], s[9], s[10], s[11]]),
            )
        })
        .collect();
    buf.advance(meta);
    let len = n
        .checked_mul(cols)
        .ok_or_else(|| CommError::Decode(format!("{WHAT} shape {n}×{cols} overflows")))?;
    let data = take_f32s(&mut buf, len, WHAT)?;
    if buf.has_remaining() {
        return Err(CommError::Decode(format!("trailing bytes after {WHAT}")));
    }
    Ok((slots, Matrix::from_vec(n, cols, data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expert_round_trip_is_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = ExpertFfn::new(6, &mut rng);
        let back = expert_from_bytes(expert_to_bytes(&e)).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn grads_round_trip_is_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        let e = ExpertFfn::new(4, &mut rng);
        let x = Matrix::uniform(3, 4, 1.0, &mut rng);
        let (y, cache) = e.forward(&x);
        let (g, _) = e.backward(&cache, &y);
        let back = grads_from_bytes(grads_to_bytes(&g)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn tokens_round_trip_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let rows = Matrix::uniform(4, 3, 1.0, &mut rng);
        let slots = vec![(7, 1, 0.25), (9, 0, 0.75), (0, 3, 1.0), (3, 2, 0.5)];
        let (s2, r2) = tokens_from_bytes(tokens_to_bytes(&slots, &rows)).unwrap();
        assert_eq!(s2, slots);
        assert_eq!(r2, rows);
    }

    #[test]
    fn empty_token_batch_round_trips() {
        let rows = Matrix::zeros(0, 5);
        let (slots, back) = tokens_from_bytes(tokens_to_bytes(&[], &rows)).unwrap();
        assert!(slots.is_empty());
        assert_eq!(back.shape(), (0, 5));
    }

    /// A decoder run to completion, its value dropped.
    type Decode = fn(Bytes) -> Result<(), CommError>;

    /// One blob of each kind, tagged with its decoder.
    fn blobs() -> Vec<(&'static str, Bytes, Decode)> {
        let mut rng = StdRng::seed_from_u64(6);
        let e = ExpertFfn::new(4, &mut rng);
        let x = Matrix::uniform(3, 4, 1.0, &mut rng);
        let (y, cache) = e.forward(&x);
        let (g, _) = e.backward(&cache, &y);
        let slots = vec![(7, 1, 0.25), (9, 0, 0.75), (0, 3, 1.0)];
        vec![
            ("expert", expert_to_bytes(&e), |b| {
                expert_from_bytes(b).map(drop)
            }),
            ("gradient", grads_to_bytes(&g), |b| {
                grads_from_bytes(b).map(drop)
            }),
            ("tokens", tokens_to_bytes(&slots, &x), |b| {
                tokens_from_bytes(b).map(drop)
            }),
        ]
    }

    fn assert_decode_error(what: &str, got: Result<(), CommError>) {
        match got {
            Err(CommError::Decode(_)) => {}
            other => panic!("{what}: expected CommError::Decode, got {other:?}"),
        }
    }

    #[test]
    fn truncated_blob_is_rejected() {
        for (what, full, decode) in blobs() {
            // Every proper prefix: cut inside a length header, inside a
            // float run, and right at a field boundary.
            for cut in 0..full.len() {
                assert_decode_error(what, decode(full.slice(0..cut)));
            }
        }
    }

    /// Lengths are peer-supplied `u32`s: `(2³²−1)² · 4` overflows `u64`,
    /// and `2¹⁶ × 2¹⁶` floats fits but asks for 16 GiB. Both must come
    /// back as a typed error before anything is allocated.
    #[test]
    fn huge_lengths_are_rejected_without_allocating() {
        let header = |words: &[u32]| {
            let mut buf = BytesMut::new();
            for &w in words {
                buf.put_u32(w);
            }
            buf.put_f32_le(1.0);
            buf.freeze()
        };
        let max = u32::MAX;
        let big = 1 << 16;
        for words in [[max, max], [big, big], [1, max]] {
            assert_decode_error("expert", expert_from_bytes(header(&words)).map(drop));
            assert_decode_error("gradient", grads_from_bytes(header(&words)).map(drop));
            assert_decode_error("tokens", tokens_from_bytes(header(&words)).map(drop));
        }
        // A bias length that overflows once scaled to bytes on 32-bit
        // targets and is absurd on 64-bit ones.
        assert_decode_error(
            "expert bias",
            expert_from_bytes(header(&[0, 0, max])).map(drop),
        );
        // Token batch whose slots fit but whose rows overflow.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u32(max);
        buf.put_slice(&[0; 12]);
        assert_decode_error("token rows", tokens_from_bytes(buf.freeze()).map(drop));
    }

    /// Hand-picked values covering both signed zeros, a subnormal, an
    /// infinity and a NaN with a payload, so the layout fixture pins every
    /// bit of every float, not just typical ones.
    fn fixture_floats(n: usize, salt: usize) -> Vec<f32> {
        let specials = [
            1.0,
            -2.5,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
            3.0e-7,
        ];
        (0..n)
            .map(|i| specials[(3 * i + salt) % specials.len()])
            .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Bytes {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        Bytes::from(v)
    }

    /// Byte layout of all three blob kinds, pinned against the encoder
    /// that wrote every checkpoint, migration blob and golden so far:
    /// big-endian `u32` lengths, little-endian `f32` runs. Each fixture
    /// also decodes and re-encodes to itself (compared as bytes, so the
    /// NaN payload counts).
    #[test]
    fn wire_layout_fixture_is_pinned() {
        let expert = ExpertFfn {
            w1: Matrix::from_vec(2, 3, fixture_floats(6, 0)),
            b1: fixture_floats(3, 1),
            w2: Matrix::from_vec(3, 1, fixture_floats(3, 2)),
            b2: fixture_floats(1, 3),
        };
        const EXPERT: &str = "00000002000000030000803f000000803412c07f000020c000002000b00fa13400000003000020c000002000b00fa134000000030000000100000000000080ff0000803f0000000100000080";
        assert_eq!(hex(&expert_to_bytes(&expert)), EXPERT, "expert layout");
        let back = expert_from_bytes(unhex(EXPERT)).unwrap();
        assert_eq!(hex(&expert_to_bytes(&back)), EXPERT);

        let grads = ExpertGrads {
            w1: Matrix::from_vec(1, 2, fixture_floats(2, 4)),
            b1: fixture_floats(2, 5),
            w2: Matrix::from_vec(2, 1, fixture_floats(2, 6)),
            b2: Vec::new(),
        };
        const GRADS: &str = "000000010000000200002000b00fa13400000002000080ff0000803f00000002000000013412c07f000020c000000000";
        assert_eq!(hex(&grads_to_bytes(&grads)), GRADS, "gradient layout");
        let back = grads_from_bytes(unhex(GRADS)).unwrap();
        assert_eq!(hex(&grads_to_bytes(&back)), GRADS);

        let slots = vec![(7, 1, 0.25), (0x0102_0304, 9, -0.0)];
        let rows = Matrix::from_vec(2, 2, fixture_floats(4, 7));
        const TOKENS: &str = "000000020000000200000007000000010000803e010203040000000900000080b00fa13400000000000080ff0000803f";
        assert_eq!(
            hex(&tokens_to_bytes(&slots, &rows)),
            TOKENS,
            "token batch layout"
        );
        let (s2, r2) = tokens_from_bytes(unhex(TOKENS)).unwrap();
        assert_eq!(hex(&tokens_to_bytes(&s2, &r2)), TOKENS);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let e = ExpertFfn::new(4, &mut rng);
        let mut v = expert_to_bytes(&e).to_vec();
        v.push(0);
        assert!(expert_from_bytes(Bytes::from(v)).is_err());
    }
}
