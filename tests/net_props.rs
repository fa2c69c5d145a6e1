//! Integration contract of the networked runtime (`feddrl_net`).
//!
//! Seven promises, checked at the workspace boundary: (1) the frame
//! codec round-trips every message kind bit-exactly, writes the same
//! bytes into a reused buffer as into a fresh one, reads and writes the
//! same frames over a stream however its bytes are split, through one
//! bounded chunk, and rejects malformed input — a v1-stamped frame
//! included — with *typed* errors (property-based); (2) pinned golden byte fixtures fix the layout of
//! all ten kinds, and a peer whose version range misses ours is counted
//! and hung up on; (3) a client that goes silent
//! past the liveness TTL surfaces as a departure through the same
//! `ExecutorView::departed` channel the simulator's churn
//! uses; (4) — the headline law — a `NetworkExecutor` round-barrier run
//! over loopback sockets with a deterministic stub trainer reproduces
//! the `IdealExecutor`'s `RunHistory` **byte-identically** (timings
//! scrubbed), proving the transport adds no behavior; (5) delta
//! publishes reconstruct the global model *exactly* through the real
//! worker loop, fall back to dense frames when the acked base is
//! evicted or the delta would not pay, and spend fewer bytes than
//! dense fan-out; (6) wire-level masked dispatch reproduces the
//! in-process structured-dropout session byte-for-byte with *real*
//! local training on both sides; (7) the buffered mode measures real
//! staleness on late arrivals.

use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use feddrl_repro::feddrl_fl::dispatch::DispatchPlanner;
use feddrl_repro::prelude::*;
use proptest::prelude::*;
// Both glob imports export a `Strategy` trait (ours vs proptest's);
// re-import proptest's unambiguously for method resolution.
use proptest::strategy::Strategy as PropStrategy;

mod common;
use common::{ctx, ids, scrubbed_json};

// ---------------------------------------------------------------------------
// Codec laws (property-based)
// ---------------------------------------------------------------------------

/// Weights including the awkward citizens: NaN, infinities, signed zero.
fn arb_weights() -> impl PropStrategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            (-1.0e6f32..1.0e6).boxed(),
            Just(f32::NAN).boxed(),
            Just(f32::INFINITY).boxed(),
            Just(f32::NEG_INFINITY).boxed(),
            Just(-0.0f32).boxed(),
        ],
        0..48,
    )
}

/// Every message kind of the v2 grammar, constrained to frames the
/// decoder accepts (ascending delta indices, masked `keep_ratio` in
/// `(0, 1]`, kept count within `total_len`).
fn arb_message() -> impl PropStrategy<Value = Message> {
    prop_oneof![
        (0u64..1 << 40, 0u8..=255, 0u8..=255).prop_map(|(client_id, lo, hi)| {
            Message::Hello {
                client_id,
                min_version: lo.min(hi),
                max_version: lo.max(hi),
            }
        }),
        (0u64..1 << 40, 0u8..=255)
            .prop_map(|(client_id, version)| Message::HelloAck { client_id, version }),
        (0u64..1 << 40, arb_weights())
            .prop_map(|(version, weights)| Message::ModelPublish { version, weights }),
        // Strictly ascending indices via positive-step prefix sums.
        (
            proptest::collection::vec((1u32..16, -1.0e3f32..1.0e3), 0..24),
            0u64..64,
        )
            .prop_map(|(steps, slack)| {
                let mut next = 0u32;
                let (indices, values): (Vec<u32>, Vec<f32>) = steps
                    .into_iter()
                    .map(|(step, v)| {
                        next += step;
                        (next - 1, v)
                    })
                    .unzip();
                let total_len = u64::from(indices.last().copied().unwrap_or(0)) + 1 + slack;
                Message::ModelPublishDelta(DeltaMsg {
                    version: slack + 1,
                    base_version: slack,
                    total_len,
                    indices,
                    values,
                })
            }),
        (0u64..1 << 40, 0u64..1 << 40)
            .prop_map(|(client_id, version)| Message::PublishAck { client_id, version }),
        (0u64..10_000, 0.0f64..=1.0)
            .prop_map(|(round, keep_ratio)| Message::TrainRequest { round, keep_ratio }),
        (
            (0u64..1000, 0u64..1000, 0u64..1000, 0u64..64),
            (0u64..1 << 30, -10.0f32..10.0, -10.0f32..10.0),
            arb_weights(),
        )
            .prop_map(
                |((client_id, round, model_version, staleness), (n, lb, la), weights)| {
                    Message::Update(UpdateMsg {
                        client_id,
                        round,
                        model_version,
                        staleness,
                        n_samples: n,
                        loss_before: lb,
                        loss_after: la,
                        weights,
                    })
                }
            ),
        (
            (0u64..1000, 0u64..1000, 0u64..1000, 0u64..64),
            (0u64..1 << 30, -10.0f32..10.0, -10.0f32..10.0),
            (0.001f64..=1.0, 0u64..64),
            arb_weights(),
        )
            .prop_map(
                |(
                    (client_id, round, model_version, staleness),
                    (n, lb, la),
                    (keep_ratio, slack),
                    kept_weights,
                )| {
                    let total_len = kept_weights.len() as u64 + slack;
                    Message::MaskedUpdate(MaskedUpdateMsg {
                        client_id,
                        round,
                        model_version,
                        staleness,
                        n_samples: n,
                        loss_before: lb,
                        loss_after: la,
                        keep_ratio,
                        total_len,
                        kept_weights,
                    })
                }
            ),
        (0u64..1 << 40).prop_map(|client_id| Message::Heartbeat { client_id }),
        (0u64..1 << 40).prop_map(|client_id| Message::Bye { client_id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on the *encoding*: comparing
    /// re-encoded bytes makes the law hold through NaN payloads, where
    /// `PartialEq` on the message itself would be vacuously false.
    #[test]
    fn codec_round_trips_every_kind_bit_exactly(msg in arb_message()) {
        let bytes = msg.encode();
        let (decoded, consumed) = Message::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// `encode_into` a buffer reused across frames — starting dirty, and
    /// dirtied by every frame before — writes exactly `encode`'s bytes,
    /// whatever the kinds and sizes in between.
    #[test]
    fn encode_into_a_reused_buffer_matches_encode(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        dirt in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let mut frame = dirt;
        for msg in &msgs {
            msg.encode_into(&mut frame);
            prop_assert_eq!(&frame, &msg.encode());
        }
    }

    /// Every proper prefix of a frame is rejected as `Truncated` — never
    /// a panic, never a bogus success, never a misdecode.
    #[test]
    fn truncated_frames_fail_typed(msg in arb_message(), cut in 0.0f64..1.0) {
        let bytes = msg.encode();
        let keep = ((bytes.len() as f64) * cut) as usize; // < len: proper prefix
        match Message::decode(&bytes[..keep]) {
            Err(WireError::Truncated { needed, got }) => {
                prop_assert_eq!(got, keep);
                prop_assert!(needed > got);
            }
            other => panic!("prefix of {keep}/{} bytes gave {other:?}", bytes.len()),
        }
    }

    /// A header advertising more payload than `MAX_PAYLOAD` is rejected
    /// as `Oversized` before any allocation happens.
    #[test]
    fn oversized_frames_fail_typed(extra in 1u64..1 << 30) {
        let len = (MAX_PAYLOAD as u64 + extra).min(u32::MAX as u64) as u32;
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        frame.push(PROTOCOL_VERSION);
        frame.push(5); // Heartbeat kind
        frame.extend_from_slice(&len.to_le_bytes());
        match Message::decode(&frame) {
            Err(WireError::Oversized { len: l, max }) => {
                prop_assert_eq!(l, len as usize);
                prop_assert_eq!(max, MAX_PAYLOAD);
            }
            other => panic!("oversized header gave {other:?}"),
        }
    }

    /// Corrupting the magic fails `BadMagic`; a version byte outside the
    /// supported `[PROTOCOL_VERSION_MIN, PROTOCOL_VERSION_MAX]` range
    /// fails `UnsupportedVersion` — whatever the payload. The version
    /// just below the range is 1: a v1-stamped frame of every kind is
    /// foreign input like any other.
    #[test]
    fn bad_magic_and_version_fail_typed(
        msg in arb_message(),
        twiddle in 1u8..255,
        bad_version in prop_oneof![
            Just(PROTOCOL_VERSION_MIN - 1),
            (PROTOCOL_VERSION_MAX + 1)..=255u8,
        ],
    ) {
        let mut bytes = msg.encode();
        bytes[0] ^= twiddle;
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadMagic { .. })
        ));
        let mut bytes = msg.encode();
        bytes[2] = bad_version;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::UnsupportedVersion { found: bad_version })
        );
    }
}

// ---------------------------------------------------------------------------
// The stream codec: the same frames however the bytes move
// ---------------------------------------------------------------------------

/// The codec's chunk: the most a connection's receive buffer holds, and
/// the piece a frame is written in (a private constant of the codec,
/// mirrored here).
const ONE_CHUNK: usize = 64 << 10;

/// A reader that hands out its bytes in seeded pieces of 1–7 bytes and
/// fails once with `Interrupted`, at call `interrupt_at`.
struct Trickle<'a> {
    bytes: &'a [u8],
    pieces: Vec<usize>,
    calls: usize,
    interrupt_at: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls - 1 == self.interrupt_at {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let piece = self.pieces[self.calls % self.pieces.len()];
        let n = piece.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A writer that accepts 1–7 bytes per call, in a seeded sequence.
struct Dribble {
    out: Vec<u8>,
    pieces: Vec<usize>,
    calls: usize,
}

impl std::io::Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let n = self.pieces[self.calls % self.pieces.len()].min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A reader over a byte slice that counts its `read` calls.
struct Counted<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl std::io::Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.bytes.read(buf)
    }
}

/// A decode's outcome with the message as its encoding, so that NaN
/// payloads compare by their bits.
fn as_bytes(outcome: Result<Option<Message>, WireError>) -> Result<Option<Vec<u8>>, WireError> {
    outcome.map(|msg| msg.map(|m| m.encode()))
}

/// A frame header of `kind` announcing `payload_len` bytes.
fn header(kind: u8, payload_len: usize) -> Vec<u8> {
    let mut frame = FRAME_MAGIC.to_le_bytes().to_vec();
    frame.push(PROTOCOL_VERSION);
    frame.push(kind);
    frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the bytes arrive — in seeded 1–7-byte pieces, with one
    /// `Interrupted` among them — every frame of a stream decodes to what
    /// `Message::decode` gives for it, through one reused chunk buffer,
    /// and the stream then ends cleanly.
    #[test]
    fn split_reads_decode_what_the_slice_decoder_decodes(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        pieces in proptest::collection::vec(1usize..8, 1..16),
        interrupt_at in 0usize..4,
    ) {
        let stream: Vec<u8> = msgs.iter().flat_map(Message::encode).collect();
        let mut r = Trickle { bytes: &stream, pieces, calls: 0, interrupt_at };
        let mut chunk = Vec::new();
        let mut offset = 0;
        for _ in &msgs {
            let (want, used) = Message::decode(&stream[offset..]).expect("own encoding");
            offset += used;
            let got = read_frame_into(&mut r, &mut chunk);
            prop_assert_eq!(as_bytes(got), Ok(Some(want.encode())));
        }
        prop_assert_eq!(read_frame_into(&mut r, &mut chunk), Ok(None));
        prop_assert!(r.calls > interrupt_at, "the interruption happened");
    }

    /// A writer that takes 1–7 bytes per call receives exactly the bytes
    /// of `Message::encode`, frame after frame, through one reused chunk
    /// that starts dirty.
    #[test]
    fn short_writes_receive_exactly_the_encoded_bytes(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        pieces in proptest::collection::vec(1usize..8, 1..16),
        dirt in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let mut w = Dribble { out: Vec::new(), pieces, calls: 0 };
        let mut chunk = dirt;
        for msg in &msgs {
            write_frame_with(&mut w, msg, &mut chunk).expect("a writer that never fails");
        }
        let want: Vec<u8> = msgs.iter().flat_map(Message::encode).collect();
        prop_assert_eq!(w.out, want);
    }

    /// Every non-empty prefix of a frame fails the same way on the stream
    /// path as on the slice path: `Truncated` with the same `needed` and
    /// `got`. The empty prefix is a clean end of stream at a frame
    /// boundary.
    #[test]
    fn every_prefix_is_the_same_truncation_on_both_paths(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(read_frame(&mut &bytes[..0]), Ok(None));
        for cut in 1..bytes.len() {
            let slice = Message::decode(&bytes[..cut]).map(|(m, _)| Some(m));
            prop_assert!(
                matches!(slice, Err(WireError::Truncated { .. })),
                "cut at {cut}: {slice:?}"
            );
            prop_assert_eq!(read_frame(&mut &bytes[..cut]), slice, "cut at {}", cut);
        }
    }

    /// Arbitrary bytes behind a valid header — random bytes, or a valid
    /// payload with some bytes overwritten — under a length claim at or
    /// past them. Neither decoder panics; when the claim is exact, both
    /// reach the same outcome; and the receive buffer never grows past
    /// the bytes that arrived plus one chunk.
    #[test]
    fn arbitrary_payloads_never_panic_or_overgrow_the_receive_buffer(
        kind in 1u8..=10,
        valid in arb_message(),
        random in proptest::collection::vec(0u8..=255, 0..160),
        use_random in 0u8..2,
        noise in proptest::collection::vec((0usize..4096, 0u8..=255), 0..8),
        extra in prop_oneof![Just(0usize), 1usize..1 << 20, Just(MAX_PAYLOAD)],
    ) {
        let mut payload = if use_random == 1 {
            random
        } else {
            valid.encode()[HEADER_LEN..].to_vec()
        };
        let len = payload.len().max(1);
        for (at, byte) in noise {
            if let Some(slot) = payload.get_mut(at % len) {
                *slot = byte;
            }
        }
        let claim = (payload.len() + extra).min(MAX_PAYLOAD);
        let mut frame = header(kind, claim);
        frame.extend_from_slice(&payload);
        let slice = Message::decode(&frame).map(|(m, _)| Some(m));
        let mut chunk = Vec::new();
        let stream = read_frame_into(&mut frame.as_slice(), &mut chunk);
        prop_assert!(
            chunk.capacity() <= frame.len() + ONE_CHUNK,
            "{} bytes arrived, the buffer holds {}",
            frame.len(),
            chunk.capacity()
        );
        if claim == payload.len() {
            prop_assert_eq!(as_bytes(stream), as_bytes(slice));
        }
    }
}

/// A 2 MB update streams through one chunk: it decodes exactly, the
/// buffer never holds more than a chunk, and the worker-sized 11 kB
/// update that fits one chunk is one `read` after its header. A header
/// that claims the largest payload over a consistent weight count, then
/// 100 kB and silence, fails `Truncated` with the buffer still a chunk.
#[test]
fn bulk_frames_stream_through_one_chunk() {
    let update = |n: usize| {
        Message::Update(UpdateMsg {
            client_id: 1,
            round: 2,
            model_version: 2,
            staleness: 0,
            n_samples: 32,
            loss_before: 1.0,
            loss_after: 0.5,
            weights: (0..n).map(|i| i as f32 * 0.25 - 7.0).collect(),
        })
    };
    let mut chunk = Vec::new();
    for n in [529_930, 2_762] {
        let frame = update(n).encode();
        let mut r = Counted {
            bytes: &frame,
            calls: 0,
        };
        let got = read_frame_into(&mut r, &mut chunk)
            .expect("decode")
            .expect("a frame");
        assert_eq!(got.encode(), frame);
        assert!(chunk.capacity() <= ONE_CHUNK, "{}", chunk.capacity());
        if frame.len() <= HEADER_LEN + ONE_CHUNK {
            assert_eq!(r.calls, 2, "the header, then the whole payload");
        }
    }

    let count = (MAX_PAYLOAD - 56) / 4;
    let mut frame = header(4, MAX_PAYLOAD);
    frame.extend_from_slice(&update(0).encode()[HEADER_LEN..HEADER_LEN + 48]);
    frame.extend_from_slice(&(count as u64).to_le_bytes());
    frame.resize(frame.len() + 100_000, 0x3F);
    let mut chunk = Vec::new();
    assert_eq!(
        read_frame_into(&mut frame.as_slice(), &mut chunk),
        Err(WireError::Truncated {
            needed: HEADER_LEN + MAX_PAYLOAD,
            got: frame.len(),
        })
    );
    assert!(chunk.capacity() <= ONE_CHUNK, "{}", chunk.capacity());
}

// ---------------------------------------------------------------------------
// The byte layout, pinned: golden frames and the version gate
// ---------------------------------------------------------------------------

/// Byte-for-byte fixtures of every kind but `HelloAck` (pinned on its
/// own below). Kinds 2–6 are the bytes the pre-v2 build wrote with the
/// version byte now 2; they must decode — and re-encode identically —
/// for as long as version 2 is spoken.
#[test]
fn golden_v2_frames_decode_and_reencode_identically() {
    // Hello: client id 7 offering versions [1, 2].
    let hello: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x01, 0x0A, 0x00, 0x00, 0x00, // header, len 10
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 7
        0x01, 0x02, // min_version, max_version
    ];
    // ModelPublish: version 1, weights [1.0, -2.5].
    let publish: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x02, 0x18, 0x00, 0x00, 0x00, // header, len 24
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version = 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count = 2
        0x00, 0x00, 0x80, 0x3F, // f32 1.0
        0x00, 0x00, 0x20, 0xC0, // f32 -2.5
    ];
    // TrainRequest: round 2, keep_ratio 1.0.
    let train: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x03, 0x10, 0x00, 0x00, 0x00, // header, len 16
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // round = 2
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, // f64 1.0
    ];
    // Update: client 3, round 7, trained on version 6, 120 samples.
    let update: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x04, 0x40, 0x00, 0x00, 0x00, // header, len 64
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 3
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // round = 7
        0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // model_version = 6
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // staleness = 0
        0x78, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n_samples = 120
        0x00, 0x00, 0xA0, 0x3F, // loss_before f32 1.25
        0x00, 0x00, 0x40, 0x3F, // loss_after f32 0.75
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count = 2
        0x00, 0x00, 0x00, 0x3F, // f32 0.5
        0x00, 0x00, 0x80, 0xBF, // f32 -1.0
    ];
    let heartbeat: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x05, 0x08, 0x00, 0x00, 0x00, // header, len 8
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 2
    ];
    let bye: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x06, 0x08, 0x00, 0x00, 0x00, // header, len 8
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 5
    ];
    // MaskedUpdate: client 4, round 9, keep ratio 0.625, 2 of 10 kept.
    let masked: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x08, 0x50, 0x00, 0x00, 0x00, // header, len 80
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 4
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // round = 9
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // model_version = 8
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // staleness = 0
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n_samples = 64
        0x00, 0x00, 0x00, 0x40, // loss_before f32 2.0
        0x00, 0x00, 0xC0, 0x3F, // loss_after f32 1.5
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE4, 0x3F, // keep_ratio f64 0.625
        0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // total_len = 10
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // kept count = 2
        0x00, 0x00, 0x80, 0x3E, // f32 0.25
        0x00, 0x00, 0x00, 0xBF, // f32 -0.5
    ];
    // ModelPublishDelta: version 12 against base 11, positions 0 and 99.
    let delta: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x09, 0x30, 0x00, 0x00, 0x00, // header, len 48
        0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version = 12
        0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // base_version = 11
        0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // total_len = 100
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // count = 2
        0x00, 0x00, 0x00, 0x00, // index 0
        0x63, 0x00, 0x00, 0x00, // index 99
        0x00, 0x00, 0x80, 0x3F, // f32 1.0
        0x00, 0x00, 0x20, 0xC0, // f32 -2.5
    ];
    let publish_ack: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x0A, 0x10, 0x00, 0x00, 0x00, // header, len 16
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 3
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // version = 4
    ];
    let cases: [(&[u8], Message); 9] = [
        (
            hello,
            Message::Hello {
                client_id: 7,
                min_version: 1,
                max_version: 2,
            },
        ),
        (
            publish,
            Message::ModelPublish {
                version: 1,
                weights: vec![1.0, -2.5],
            },
        ),
        (
            train,
            Message::TrainRequest {
                round: 2,
                keep_ratio: 1.0,
            },
        ),
        (
            update,
            Message::Update(UpdateMsg {
                client_id: 3,
                round: 7,
                model_version: 6,
                staleness: 0,
                n_samples: 120,
                loss_before: 1.25,
                loss_after: 0.75,
                weights: vec![0.5, -1.0],
            }),
        ),
        (heartbeat, Message::Heartbeat { client_id: 2 }),
        (bye, Message::Bye { client_id: 5 }),
        (
            masked,
            Message::MaskedUpdate(MaskedUpdateMsg {
                client_id: 4,
                round: 9,
                model_version: 8,
                staleness: 0,
                n_samples: 64,
                loss_before: 2.0,
                loss_after: 1.5,
                keep_ratio: 0.625,
                total_len: 10,
                kept_weights: vec![0.25, -0.5],
            }),
        ),
        (
            delta,
            Message::ModelPublishDelta(DeltaMsg {
                version: 12,
                base_version: 11,
                total_len: 100,
                indices: vec![0, 99],
                values: vec![1.0, -2.5],
            }),
        ),
        (
            publish_ack,
            Message::PublishAck {
                client_id: 3,
                version: 4,
            },
        ),
    ];
    for (bytes, expect) in cases {
        let (msg, used) = Message::decode(bytes).expect("golden frame decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(msg, expect, "golden frame decoded to the wrong message");
        assert_eq!(
            expect.encode(),
            bytes,
            "re-encoding drifted from the golden bytes"
        );
    }
}

/// A pinned `HelloAck` — the first frame a client ever sees — so its
/// layout can never drift silently either.
#[test]
fn golden_v2_hello_ack_decodes() {
    let ack: &[u8] = &[
        0x7E, 0xFD, 0x02, 0x07, 0x09, 0x00, 0x00, 0x00, // header, len 9
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 3
        0x02, // negotiated version = 2
    ];
    let (msg, used) = Message::decode(ack).expect("golden v2 HelloAck decodes");
    assert_eq!(used, ack.len());
    assert_eq!(
        msg,
        Message::HelloAck {
            client_id: 3,
            version: 2,
        }
    );
}

/// Read one raw frame off a socket, returning the wire version byte it
/// was stamped with alongside the decoded message.
fn read_raw_frame(sock: &mut TcpStream) -> (u8, Message) {
    use std::io::Read as _;
    let mut header = [0u8; HEADER_LEN];
    sock.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + len, 0);
    sock.read_exact(&mut frame[HEADER_LEN..])
        .expect("frame payload");
    let (msg, used) = Message::decode(&frame).expect("decode raw frame");
    assert_eq!(used, frame.len());
    (header[2], msg)
}

/// A peer whose advertised range misses ours — the retired version 1,
/// or versions from the future — is counted and hung up on without ever
/// subscribing; a frame *stamped* v1 never reaches negotiation at all
/// (it is an `UnsupportedVersion` header). Each case waits on the socket
/// reading EOF, which the server's hang-up causes.
#[test]
fn peers_outside_the_version_range_are_counted_and_hung_up_on() {
    use std::io::Write as _;
    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    let hung_up = |frame: &[u8]| {
        let mut sock = TcpStream::connect(&addr).expect("connect");
        sock.write_all(frame).expect("hello");
        // EOF — or a reset, when the server closed with bytes of ours
        // still unread (it stops at a bad header).
        let closed = matches!(
            read_frame(&mut sock),
            Ok(None)
                | Err(WireError::Io {
                    kind: std::io::ErrorKind::ConnectionReset,
                    ..
                })
        );
        assert!(closed, "server hangs up");
    };

    let retired = Message::Hello {
        client_id: 9,
        min_version: 1,
        max_version: 1,
    };
    assert!(matches!(
        negotiate(1, 1),
        Err(WireError::NegotiationFailed { .. })
    ));
    hung_up(&retired.encode());
    assert_eq!(server.negotiation_failures(), 1, "retired range counted");

    let future = Message::Hello {
        client_id: 10,
        min_version: PROTOCOL_VERSION_MAX + 1,
        max_version: 255,
    };
    hung_up(&future.encode());
    assert_eq!(server.negotiation_failures(), 2, "future range counted");

    // The pre-v2 build's Hello, byte for byte: bare client id under a
    // v1 header.
    hung_up(&[
        0x7E, 0xFD, 0x01, 0x01, 0x08, 0x00, 0x00, 0x00, // header, len 8
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // client_id = 7
    ]);
    assert_eq!(server.negotiation_failures(), 2, "rejected at the header");

    assert!(server.live_clients().is_empty(), "nobody subscribed");
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

/// Shutdown wakes every thread it owns, whatever that thread waits on. A
/// server bound on the unspecified address holds a subscribed worker whose
/// next heartbeat is 10 s away, a socket that never said `Hello`, and a
/// peer stalled halfway through a frame's payload. `shutdown` returns
/// within 2 s, the worker's `run_client` returns `Ok` within the same
/// bound (a heartbeat thread that slept out its period would not), and
/// both silent sockets read EOF.
#[test]
fn shutdown_wakes_idle_workers_silent_sockets_and_stalled_frames() {
    use std::io::Write as _;
    use std::sync::mpsc;
    const BOUND: Duration = Duration::from_secs(2);
    let mut server = NetServerBuilder::new()
        .addr("0.0.0.0:0")
        .build()
        .expect("bind");
    let addr = format!("127.0.0.1:{}", server.local_addr().port());

    let mut unregistered = TcpStream::connect(&addr).expect("connect");
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    let frame = Message::Update(UpdateMsg {
        client_id: 2,
        round: 0,
        model_version: 0,
        staleness: 0,
        n_samples: 1,
        loss_before: 1.0,
        loss_after: 0.5,
        weights: vec![0.25; 16],
    })
    .encode();
    let half = HEADER_LEN + (frame.len() - HEADER_LEN) / 2;
    stalled.write_all(&frame[..half]).expect("half a frame");

    let worker_cfg = NetClientBuilder::new(addr, 1)
        .heartbeat(Duration::from_secs(10))
        .build()
        .expect("client config");
    let (worker_tx, worker_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let report = run_client(&worker_cfg, |_, _| unreachable!("never dispatched"));
        let _ = worker_tx.send(report);
    });
    // Connections are accepted in order, so the worker's subscription
    // means both silent sockets have their receive threads.
    server
        .wait_for_clients(1, Duration::from_secs(5))
        .expect("worker subscribed");

    let (done_tx, done_rx) = mpsc::channel();
    let started = Instant::now();
    thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(BOUND)
        .expect("shutdown returns promptly");
    let report = worker_rx
        .recv_timeout(BOUND.saturating_sub(started.elapsed()))
        .expect("worker returns promptly");
    assert!(report.is_ok(), "worker exits cleanly: {report:?}");
    worker.join().expect("no panic");
    for sock in [&mut unregistered, &mut stalled] {
        assert!(matches!(read_frame(sock), Ok(None)), "server hung up");
    }
}

// ---------------------------------------------------------------------------
// Liveness TTL → departure
// ---------------------------------------------------------------------------

/// A client silent past the TTL departs through the executor's
/// `view().departed` — the same channel the simulator's churn feeds —
/// while a heartbeating client stays live.
#[test]
fn ttl_expiry_surfaces_as_departure_through_the_executor() {
    let server = NetServerBuilder::new()
        .ttl(Duration::from_millis(100))
        .build()
        .expect("bind");
    let addr = server.local_addr().to_string();

    // Client 1 heartbeats properly via the real worker loop...
    let worker_cfg = NetClientBuilder::new(addr.clone(), 1)
        .heartbeat(Duration::from_millis(25))
        .build()
        .expect("client config");
    let worker = thread::spawn(move || {
        run_client(&worker_cfg, |_, _| ClientUpdate {
            client_id: 1,
            weights: vec![],
            n_samples: 1,
            loss_before: 0.0,
            loss_after: 0.0,
            staleness: 0,
            mask: None,
        })
    });
    // ...client 3 says Hello once and then goes silent forever.
    let mut silent = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut silent,
        &Message::Hello {
            client_id: 3,
            min_version: PROTOCOL_VERSION_MIN,
            max_version: PROTOCOL_VERSION_MAX,
        },
    )
    .expect("hello");

    server
        .wait_for_clients(2, Duration::from_secs(5))
        .expect("both subscribed");
    let executor = NetworkExecutor::barrier(server);
    assert!(executor.view().departed.is_empty(), "everyone fresh");

    thread::sleep(Duration::from_millis(300));
    let deadline = Instant::now() + Duration::from_secs(5);
    while executor.view().departed.is_empty() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(*executor.view().departed, ids([3]), "silence departs");
    assert!(executor.server().is_live(1), "heartbeats keep 1 live");

    drop(executor); // shutdown → Bye → worker exits
    worker.join().expect("no panic").expect("clean exit");
}

/// The `ExecutorView` contract selection relies on, for every executor:
/// the ideal view is the default one, a view only changes across an
/// `execute` (or, over sockets, with the registry), and `departed` holds
/// exactly the departed ids — `SelectionContext::is_departed` probes it,
/// and it compares as a set, whatever order the ids arrived in — while the
/// server's own list of socket departures that happened out of id order
/// still reads ascending.
#[test]
fn executor_views_are_stable_snapshots_with_ascending_departures() {
    assert_eq!(IdealExecutor.view(), ExecutorView::default());

    // Simulated churn under both planner-backed executors.
    let fleet = FleetConfig {
        compute_skew: 4.0,
        dropout: 0.2,
        churn: Some(ChurnConfig {
            mean_arrival_gap_s: 5.0,
            mean_departure_gap_s: 2.0,
        }),
        ..Default::default()
    };
    let hetero = HeteroConfig {
        fleet: fleet.clone(),
        deadline_s: Some(12.0),
        ..Default::default()
    };
    let buffered = BufferedConfig {
        fleet,
        buffer_size: 2,
        ..Default::default()
    };
    let simulated: [Box<dyn RoundExecutor>; 2] = [
        Box::new(DeadlineExecutor::new(hetero, 8, 1000, 8, 7)),
        Box::new(BufferedExecutor::new(buffered, 8, 1000, 8, 7)),
    ];
    let train = |_: &TrainContext<'_>, dispatches: &[Dispatch]| -> Vec<ClientUpdate> {
        let update = |d: &Dispatch| stub_update(0, d.client_id, &[0.0; 4]);
        dispatches.iter().map(update).collect()
    };
    for mut ex in simulated {
        for round in 0..4 {
            ex.execute(&ctx(round), &[0, 1, 2, 3, 4, 5, 6, 7], &train);
            let view = ex.view();
            assert_eq!(view, ex.view(), "view changed without an execute");
        }
        assert!(!ex.view().departed.is_empty(), "no departure observed");
    }

    // Real departures over sockets, leaving in non-ascending id order.
    let server = NetServerBuilder::new().build().expect("bind");
    let mut peers: Vec<(u64, TcpStream)> = [5u64, 2, 9]
        .into_iter()
        .map(|client_id| {
            let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
            let hello = Message::Hello {
                client_id,
                min_version: PROTOCOL_VERSION_MIN,
                max_version: PROTOCOL_VERSION_MAX,
            };
            write_frame(&mut sock, &hello).expect("hello");
            (client_id, sock)
        })
        .collect();
    server
        .wait_for_clients(3, Duration::from_secs(5))
        .expect("all subscribed");
    let executor = NetworkExecutor::barrier(server);
    let empty = ReliabilityTable::new();
    let fresh = ExecutorView {
        reliability: Some(&empty),
        ..ExecutorView::default()
    };
    assert_eq!(executor.view(), fresh);
    for (client_id, sock) in &mut peers {
        let bye = Message::Bye {
            client_id: *client_id,
        };
        write_frame(sock, &bye).expect("bye");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while executor.view().departed.len() < 3 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(*executor.view().departed, ids([9, 5, 2]));
    assert_eq!(executor.server().departed(), vec![2, 5, 9]);
    assert_eq!(executor.view(), executor.view());
}

// ---------------------------------------------------------------------------
// Headline law: loopback byte-identity with the ideal executor
// ---------------------------------------------------------------------------

const NET_CLIENTS: usize = 5;

/// The deterministic stand-in for local training, computed identically
/// by the in-process ideal run and by every networked worker: a pure
/// function of (round, client id, published global weights).
fn stub_update(round: usize, client_id: usize, global: &[f32]) -> ClientUpdate {
    let scale = 0.9 - 0.05 * client_id as f32;
    let bias = 0.01 * (round as f32 + 1.0) + 0.001 * client_id as f32;
    ClientUpdate {
        client_id,
        weights: global
            .iter()
            .enumerate()
            .map(|(i, w)| w * scale + bias * ((i % 7) as f32 - 3.0))
            .collect(),
        n_samples: 10 + 3 * client_id,
        loss_before: 1.0 + 0.25 * round as f32 + 0.01 * client_id as f32,
        loss_after: 0.5 + 0.01 * client_id as f32,
        staleness: 0,
        mask: None,
    }
}

/// One real worker thread per id in `ids`, each answering with
/// [`stub_update`]; the caller waits for the subscriptions.
fn spawn_stub_workers(
    server: &NetServer,
    ids: &[usize],
) -> Vec<thread::JoinHandle<Result<ClientReport, WireError>>> {
    let addr = server.local_addr().to_string();
    ids.iter()
        .map(|&cid| {
            let worker_cfg = NetClientBuilder::new(addr.clone(), cid)
                .build()
                .expect("client config");
            thread::spawn(move || {
                run_client(&worker_cfg, move |order, global| {
                    stub_update(order.round as usize, cid, global)
                })
            })
        })
        .collect()
}

fn net_env() -> (ModelSpec, Dataset, Dataset, Partition, FlConfig) {
    let (train, test) = SynthSpec {
        train_size: 300,
        test_size: 80,
        ..SynthSpec::mnist_like()
    }
    .generate(12);
    let partition = PartitionMethod::Iid
        .partition(&train, NET_CLIENTS, &mut Rng64::new(4))
        .unwrap();
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![8],
        out_dim: train.num_classes(),
    };
    let cfg = FlConfig {
        rounds: 3,
        participants: 3,
        local: LocalTrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        },
        eval_batch: 64,
        seed: 41,
        log_every: 0,
        selection: Selection::Uniform,
        executor: ExecutorConfig::Ideal,
        server_opt: ServerOptConfig::Plain,
    };
    (spec, train, test, partition, cfg)
}

/// The tentpole law: with every worker live, a `NetworkExecutor` barrier
/// run over real loopback sockets reproduces the `IdealExecutor`'s
/// history byte-for-byte — same selections, same aggregations, same
/// `f32` bits — because updates cross the wire bit-exactly and are
/// reassembled into sampling order. The transport is pure plumbing.
#[test]
fn loopback_barrier_run_is_byte_identical_to_ideal() {
    let (spec, train, test, partition, cfg) = net_env();

    // In-process reference: the ideal executor driven by the stub.
    let ideal_history = {
        let mut strategy = FedAvg;
        SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .train_fn(Box::new(|ctx, dispatches| {
                dispatches
                    .iter()
                    .map(|d| stub_update(ctx.round, d.client_id, ctx.global))
                    .collect()
            }))
            .build()
            .expect("valid config")
            .run()
            .expect("ideal run")
    };

    // Networked run: one worker thread per client, each computing the
    // same stub from the frames it receives.
    let server = NetServerBuilder::new().build().expect("bind");
    let workers = spawn_stub_workers(&server, &(0..NET_CLIENTS).collect::<Vec<_>>());
    server
        .wait_for_clients(NET_CLIENTS, Duration::from_secs(10))
        .expect("all workers subscribed");

    let net_history = {
        let executor = NetworkExecutor::barrier(server);
        let telemetry = executor.telemetry();
        let mut strategy = FedAvg;
        let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .executor_instance(Box::new(executor))
            .build()
            .expect("valid config")
            .run()
            .expect("networked run");
        let t = telemetry.lock().unwrap();
        assert_eq!(
            t.dispatched,
            cfg.rounds * cfg.participants,
            "every sampled client was dispatched over the wire"
        );
        assert_eq!(t.failed_dispatches, 0);
        assert_eq!(t.timed_out, 0);
        assert_eq!(t.staleness_sum, 0, "barrier is fresh");
        assert!(t.p50_rtt_ms() > 0.0, "RTTs were actually measured");
        history
    }; // session (and with it the server) drops here → workers get Bye

    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }

    for history in [&net_history, &ideal_history] {
        assert!(
            history.records.iter().all(|r| r.hetero.is_none()),
            "neither executor has telemetry to box"
        );
    }
    assert_eq!(
        scrubbed_json(net_history),
        scrubbed_json(ideal_history),
        "loopback barrier run diverged from the ideal executor"
    );
}

/// A peer cannot panic the server with a short `Update`. One raw-socket
/// worker answers its `TrainRequest` with one weight too few; the executor
/// counts the arrival as malformed, keeps it away from the session, and the
/// barrier completes on the other workers' updates — before the round
/// timeout it would otherwise have sat out waiting for the fifth update.
/// The hostile worker blocks on the socket throughout: no sleeps.
#[test]
fn a_short_update_is_counted_and_kept_out_of_the_round() {
    let (spec, train, test, partition, mut cfg) = net_env();
    cfg.rounds = 1;
    cfg.participants = NET_CLIENTS;
    const HOSTILE: usize = 0;

    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    let hostile = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut sock = TcpStream::connect(&addr).expect("connect");
            let hello = Message::Hello {
                client_id: HOSTILE as u64,
                min_version: PROTOCOL_VERSION_MIN,
                max_version: PROTOCOL_VERSION_MAX,
            };
            write_frame(&mut sock, &hello).expect("hello");
            let mut model = Vec::new();
            // Until the server's `Bye` (or its hang-up) ends the stream.
            while let Ok(Some(msg)) = read_frame(&mut sock) {
                match msg {
                    Message::ModelPublish { weights, .. } => model = weights,
                    Message::TrainRequest { round, .. } => {
                        let short = stub_update(round as usize, HOSTILE, &model[1..]);
                        let reply = Message::Update(UpdateMsg {
                            client_id: HOSTILE as u64,
                            round,
                            model_version: 0,
                            staleness: 0,
                            n_samples: short.n_samples as u64,
                            loss_before: short.loss_before,
                            loss_after: short.loss_after,
                            weights: short.weights,
                        });
                        write_frame(&mut sock, &reply).expect("short update");
                    }
                    Message::Bye { .. } => break,
                    _ => {}
                }
            }
        })
    };
    let honest: Vec<usize> = (0..NET_CLIENTS).filter(|&cid| cid != HOSTILE).collect();
    let workers = spawn_stub_workers(&server, &honest);
    server
        .wait_for_clients(NET_CLIENTS, Duration::from_secs(10))
        .expect("all workers subscribed");

    {
        let round_timeout = Duration::from_secs(10);
        let executor = NetworkExecutor::barrier(server).with_round_timeout(round_timeout);
        let telemetry = executor.telemetry();
        let mut strategy = FedAvg;
        let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .executor_instance(Box::new(executor))
            .build()
            .expect("valid config");
        let started = Instant::now();
        let record = session
            .step()
            .expect("a malformed arrival is not an error of the round")
            .expect("one round to run");
        assert!(
            started.elapsed() < round_timeout,
            "the barrier waited out its timeout for the discarded update"
        );
        assert_eq!(record.selected.len(), NET_CLIENTS);
        assert_eq!(
            record.impact_factors.len(),
            NET_CLIENTS - 1,
            "exactly the well-formed updates were aggregated"
        );
        assert!(session.global_params().iter().all(|w| w.is_finite()));
        let t = telemetry.lock().unwrap();
        assert_eq!(t.malformed_updates, 1);
        assert_eq!(t.dispatched, NET_CLIENTS);
        assert_eq!(
            (t.failed_dispatches, t.timed_out),
            (0, 0),
            "one fault, one counter"
        );
    } // session (and with it the server) drops here → workers get Bye

    hostile.join().expect("hostile worker exits on Bye");
    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }
}

/// Socket failures are dropouts of the client that failed, in the
/// reliability table the view lends out — the table the simulated
/// executors fill. One barrier round dispatches to five clients: 0
/// answers one weight short (a malformed update), 1 never answers (its
/// slot is abandoned at the round timeout), 2 never connected (its
/// dispatch send fails), and 3 and 4 answer well. Each of 0, 1 and 2
/// reads one dropout and no dispatch, and 3 and 4 one dispatch and no
/// dropout.
#[test]
fn socket_failures_are_dropouts_of_the_failing_client() {
    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    // A raw peer: it answers every `TrainRequest` one weight short, or not
    // at all, until the server's `Bye` (or its hang-up) ends the stream.
    let raw_peer = |client_id: u64, answers: bool| {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut sock = TcpStream::connect(&addr).expect("connect");
            let hello = Message::Hello {
                client_id,
                min_version: PROTOCOL_VERSION_MIN,
                max_version: PROTOCOL_VERSION_MAX,
            };
            write_frame(&mut sock, &hello).expect("hello");
            let mut model = Vec::new();
            while let Ok(Some(msg)) = read_frame(&mut sock) {
                match msg {
                    Message::ModelPublish { weights, .. } => model = weights,
                    Message::TrainRequest { round, .. } if answers => {
                        let short = stub_update(round as usize, client_id as usize, &model[1..]);
                        let reply = Message::Update(UpdateMsg {
                            client_id,
                            round,
                            model_version: 0,
                            staleness: 0,
                            n_samples: short.n_samples as u64,
                            loss_before: short.loss_before,
                            loss_after: short.loss_after,
                            weights: short.weights,
                        });
                        write_frame(&mut sock, &reply).expect("short update");
                    }
                    Message::Bye { .. } => break,
                    _ => {}
                }
            }
        })
    };
    let raw = [raw_peer(0, true), raw_peer(1, false)];
    let workers = spawn_stub_workers(&server, &[3, 4]);
    server
        .wait_for_clients(4, Duration::from_secs(10))
        .expect("four peers subscribed");

    let mut executor =
        NetworkExecutor::barrier(server).with_round_timeout(Duration::from_millis(300));
    let telemetry = executor.telemetry();
    executor.publish_model(0, &[0.5f32; 8]);
    let out = executor.execute(&ctx(0), &[0, 1, 2, 3, 4], &|_, _| Vec::new());
    let aggregated: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
    assert_eq!(aggregated, vec![3, 4]);
    {
        let t = telemetry.lock().unwrap();
        assert_eq!(
            (t.malformed_updates, t.timed_out, t.failed_dispatches),
            (1, 1, 1),
            "one counter per fault"
        );
    }
    let view = executor.view();
    let table = view.reliability.expect("the planner's table");
    for cid in 0..5 {
        let failed = usize::from(cid < 3);
        let stats = table.get(cid);
        assert_eq!(
            (stats.dropouts, stats.dispatches),
            (failed, 1 - failed),
            "client {cid}: a lost dispatch is a dropout, not a dispatch"
        );
    }

    drop(executor);
    for peer in raw {
        peer.join().expect("raw peer exits on Bye");
    }
    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }
}

// ---------------------------------------------------------------------------
// Delta-compressed publishes
// ---------------------------------------------------------------------------

/// With `delta_publish` on, steady-state publishes cross the wire as
/// sparse residuals against each worker's acked base — and the worker
/// loop reconstructs the global *bit-exactly*: its stub updates (pure
/// functions of the model it trained on) match what dense publishing
/// would have produced, while the byte counters show the saving.
#[test]
fn delta_publishes_reconstruct_exactly_through_the_worker_loop() {
    const PARAMS: usize = 96;
    let server = NetServerBuilder::new()
        .delta_publish(true)
        .build()
        .expect("bind");
    let workers = spawn_stub_workers(&server, &[0, 1]);
    server
        .wait_for_clients(2, Duration::from_secs(10))
        .expect("both subscribed");

    let mut executor = NetworkExecutor::barrier(server);
    let telemetry = executor.telemetry();
    let noop_train: &TrainFn<'_> = &|_, _| Vec::new();
    let mut global = vec![0.25f32; PARAMS];
    for round in 0..4usize {
        // One coordinate moves per round: the residual against the
        // previous publish is a single (index, value) pair.
        global[(round * 7) % PARAMS] = round as f32 + 1.5;
        executor.publish_model(round, &global);
        let out = executor.execute(&ctx(round), &[0, 1], noop_train);
        assert_eq!(out.updates.len(), 2, "barrier collects both workers");
        for u in &out.updates {
            assert_eq!(
                u.weights,
                stub_update(round, u.client_id, &global).weights,
                "worker {} trained on a mis-reconstructed model",
                u.client_id
            );
        }
    }
    let stats = telemetry.lock().unwrap().publish;
    // Round 0 is dense for everyone (nothing acked yet); rounds 1-3 ride
    // as one-coordinate deltas to both workers.
    assert_eq!(stats.full_frames, 2, "only the cold start is dense");
    assert_eq!(stats.delta_frames, 6, "steady state is all deltas");
    assert!(
        stats.wire_bytes < stats.dense_bytes,
        "deltas must beat dense fan-out: {} vs {}",
        stats.wire_bytes,
        stats.dense_bytes
    );
    assert!(stats.wire_to_dense_ratio() < 0.5);

    drop(executor);
    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }
}

/// The two dense-fallback triggers, observed on a raw v2 socket: a base
/// evicted from the eight-snapshot ring (the eighth publish after the
/// acked one pushes it out), and a residual so dense the delta frame would
/// cost more than the dense frame it replaces.
#[test]
fn delta_publish_falls_back_to_dense_when_base_evicted_or_delta_too_big() {
    use std::io::Write as _;
    // `unacked`: publishes after the acked base before the one checked.
    for (unacked, change_all, expect_delta) in [
        (0u64, false, true), // base retained, sparse residual → delta
        (7, false, false),   // the checked publish is the eighth: base evicted → dense
        (0, true, false),    // every coordinate moved → delta loses
    ] {
        let server = NetServerBuilder::new()
            .delta_publish(true)
            .build()
            .expect("bind");
        let addr = server.local_addr().to_string();
        let mut sock = TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut sock,
            &Message::Hello {
                client_id: 9,
                min_version: PROTOCOL_VERSION_MIN,
                max_version: PROTOCOL_VERSION_MAX,
            },
        )
        .expect("hello");
        let (_, ack) = read_raw_frame(&mut sock);
        assert_eq!(
            ack,
            Message::HelloAck {
                client_id: 9,
                version: PROTOCOL_VERSION_MAX,
            },
            "v2 handshake pins the negotiated version"
        );
        // The ack is written before the peer enters the publish fan-out
        // table; registration (which `wait_for_clients` observes) comes
        // after it, so this is the publish-safe synchronization point.
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("peer registered");

        let w0 = vec![0.5f32; 64];
        server.publish(0, &w0);
        let (_, first) = read_raw_frame(&mut sock);
        assert!(
            matches!(first, Message::ModelPublish { version: 0, .. }),
            "cold publish is dense, got {first:?}"
        );
        sock.write_all(
            &Message::PublishAck {
                client_id: 9,
                version: 0,
            }
            .encode(),
        )
        .expect("ack");
        // Hello was message 1; wait until the ack (message 2) is in the
        // registry before publishing against it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.messages_from(9) != Some(2) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.messages_from(9), Some(2), "ack registered");

        let mut w1 = w0.clone();
        if change_all {
            for w in &mut w1 {
                *w += 1.0;
            }
        } else {
            w1[17] = -3.25;
        }
        // Publishes the peer reads but never acks: each is still a delta
        // against version 0 while that base is in the ring.
        for version in 1..=unacked {
            server.publish(version, &w1);
            let (_, frame) = read_raw_frame(&mut sock);
            assert!(
                matches!(frame, Message::ModelPublishDelta(ref d) if d.base_version == 0),
                "unacked publish {version} should be a delta against 0, got {frame:?}"
            );
        }
        let version = unacked + 1;
        server.publish(version, &w1);
        let (_, second) = read_raw_frame(&mut sock);
        if expect_delta {
            match second {
                Message::ModelPublishDelta(d) => {
                    assert_eq!(d.version, 1);
                    assert_eq!(d.base_version, 0);
                    assert_eq!(d.total_len, 64);
                    assert_eq!(d.indices, vec![17]);
                    assert_eq!(d.values, vec![-3.25]);
                }
                other => panic!("expected a delta, got {other:?}"),
            }
        } else {
            assert!(
                matches!(second, Message::ModelPublish { version: v, .. } if v == version),
                "unacked={unacked} change_all={change_all}: expected dense fallback, got {second:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-level masked dispatch ≡ in-process structured dropout
// ---------------------------------------------------------------------------

/// The in-process reference for the wire-masking law: an ideal (no
/// drops, no deadline misses) executor whose keep ratios come from a
/// dispatch planner over the fleet, grid and deadline the `WireMasking`
/// policy hands the network executor's planner, feeding the session's
/// own structured-dropout training path.
struct MaskedIdealExecutor {
    planner: DispatchPlanner,
}

impl RoundExecutor for MaskedIdealExecutor {
    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let (dispatches, _) = self.planner.plan(ctx.round, 0.0, selected, |_| false);
        RoundOutcome {
            updates: train(ctx, &dispatches),
            hetero: None,
        }
    }
}

/// The second tentpole law: wire-level sub-model dispatch reproduces
/// the in-process structured-dropout session **byte-for-byte** with
/// real local training on both sides. Deadline-pressed workers receive
/// `keep_ratio < 1`, derive the mask locally from the shared seed (it
/// never crosses the wire), train the sub-model, and answer with a
/// compact `MaskedUpdate` the server scatters back into place — and
/// none of that machinery shifts a single bit of the run history.
#[test]
fn wire_masked_run_is_byte_identical_to_in_process_structured_dropout() {
    let (spec, train, test, partition, mut cfg) = net_env();
    // Every client dispatched every round: the masked/full split is then
    // exactly the fleet's deadline split, not selection luck.
    cfg.participants = NET_CLIENTS;

    let grid = StructuredDropoutConfig::default();
    let upload_bytes = (spec.build(0).param_count() * 4) as u64;
    let fleet_cfg = FleetConfig {
        compute_skew: 4.0,
        ..FleetConfig::default()
    };
    let fleet = || FleetView::new(NET_CLIENTS, &fleet_cfg);
    // Median completion time as the round deadline: the slower half of
    // the fleet must sub-model (or prove it can't and train in full).
    let deadline_s = fleet().completion_percentile_s(upload_bytes, 0.5);
    let seed = cfg.seed;
    // The planner `with_wire_masking` builds from the same policy.
    let planner = || {
        DispatchPlanner::over_fleet(fleet(), upload_bytes, seed).with_deadline(
            Some(deadline_s),
            Some(grid),
            LatePolicy::CarryOver,
        )
    };
    let everyone: Vec<usize> = (0..NET_CLIENTS).collect();
    let (orders, _) = planner().plan(0, 0.0, &everyone, |_| false);
    assert_eq!(orders.len(), NET_CLIENTS, "the planner dropped a client");
    let ratios: Vec<f64> = orders.iter().map(|d| d.keep_ratio).collect();
    assert!(
        ratios.iter().any(|&r| r < 1.0),
        "test is vacuous: no client sub-models under {ratios:?}"
    );
    assert!(
        ratios.iter().any(|&r| r >= 1.0),
        "test is degenerate: every client sub-models under {ratios:?}"
    );

    // In-process reference: the session's own structured-dropout path.
    let ideal_history = {
        let mut strategy = FedAvg;
        SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .executor_instance(Box::new(MaskedIdealExecutor { planner: planner() }))
            .build()
            .expect("valid config")
            .run()
            .expect("in-process masked run")
    };

    // Networked run: workers perform *real* local training, replicating
    // the session's train path — same model build, same RNG streams,
    // same shared mask derivation.
    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    let train_arc = Arc::new(train.clone());
    let workers: Vec<_> = (0..NET_CLIENTS)
        .map(|cid| {
            let worker_cfg = NetClientBuilder::new(addr.clone(), cid)
                .build()
                .expect("client config");
            let spec = spec.clone();
            let train_set = Arc::clone(&train_arc);
            let partition = partition.clone();
            let local_cfg = cfg.local.clone();
            thread::spawn(move || {
                run_client(&worker_cfg, move |order, global| {
                    let mut model = spec.build(0);
                    model.set_flat_params(global);
                    let mut rng = Rng64::new(seed ^ 0xC11E)
                        .derive(order.round)
                        .derive(cid as u64);
                    let shard = partition.client(cid % NET_CLIENTS);
                    if order.keep_ratio < 1.0 {
                        let mask =
                            dispatch_mask(&model, seed, order.round, cid as u64, order.keep_ratio);
                        run_local_round_masked(
                            model, &train_set, shard, cid, &local_cfg, mask, &mut rng,
                        )
                    } else {
                        run_local_round(model, &train_set, shard, cid, &local_cfg, &mut rng)
                    }
                })
            })
        })
        .collect();
    server
        .wait_for_clients(NET_CLIENTS, Duration::from_secs(10))
        .expect("all workers subscribed");

    let (net_history, masked_over_wire) = {
        let executor = NetworkExecutor::barrier(server).with_wire_masking(WireMasking {
            model: spec.build(0),
            seed,
            grid,
            fleet: fleet(),
            upload_bytes,
            deadline_s,
        });
        let telemetry = executor.telemetry();
        let mut strategy = FedAvg;
        let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
            .config(&cfg)
            .executor_instance(Box::new(executor))
            .build()
            .expect("valid config")
            .run()
            .expect("wire-masked run");
        let t = telemetry.lock().unwrap();
        assert!(t.masked_updates > 0, "no compact updates crossed the wire");
        (history, t.masked_updates)
    };

    let mut worker_masked_rounds = 0usize;
    for w in workers {
        let report = w.join().expect("no panic").expect("clean worker exit");
        assert_eq!(report.negotiated_version, PROTOCOL_VERSION_MAX);
        worker_masked_rounds += report.masked_rounds;
    }
    assert_eq!(
        worker_masked_rounds, masked_over_wire,
        "every compact reply the workers sent was reassembled and counted"
    );

    assert_eq!(
        scrubbed_json(net_history),
        scrubbed_json(ideal_history),
        "wire-masked run diverged from the in-process structured-dropout path"
    );
}

// ---------------------------------------------------------------------------
// Buffered mode measures staleness
// ---------------------------------------------------------------------------

/// With a deliberately slow worker and `buffer_size = 1`, the slow
/// worker's answer aggregates one version late — and the executor
/// *measures* that staleness off the wire instead of simulating it.
#[test]
fn buffered_mode_measures_staleness_of_late_arrivals() {
    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    let workers: Vec<_> = [(0usize, 0u64), (1usize, 400u64)]
        .into_iter()
        .map(|(cid, delay_ms)| {
            let worker_cfg = NetClientBuilder::new(addr.clone(), cid)
                .train_delay(Duration::from_millis(delay_ms))
                .build()
                .expect("client config");
            thread::spawn(move || {
                run_client(&worker_cfg, move |order, global| {
                    stub_update(order.round as usize, cid, global)
                })
            })
        })
        .collect();
    server
        .wait_for_clients(2, Duration::from_secs(10))
        .expect("both subscribed");

    let mut executor =
        NetworkExecutor::buffered(server, 1).with_round_timeout(Duration::from_secs(30));
    let telemetry = executor.telemetry();
    let global = vec![0.5f32; 8];
    let noop_train: &TrainFn<'_> = &|_, _| Vec::new();

    // Round 0: both dispatched; the fast worker fills the buffer alone.
    executor.publish_model(0, &global);
    let out0 = executor.execute(&ctx(0), &[0, 1], noop_train);
    let h0 = out0.hetero.expect("buffered rounds carry hetero records");
    assert_eq!(h0.aggregated_ids, vec![0], "fast worker wins round 0");
    assert_eq!(out0.updates[0].staleness, 0);
    assert_eq!(*executor.view().in_flight, ids([1]), "slow one in flight");

    // Round 1: select only the slow worker — still busy, so nothing new
    // is dispatched and the buffer drains its round-0 answer (trained on
    // version 0) against version counter 1 → measured staleness 1.
    executor.publish_model(1, &global);
    let out1 = executor.execute(&ctx(1), &[1], noop_train);
    let h1 = out1.hetero.expect("buffered rounds carry hetero records");
    assert!(h1.busy >= 1, "in-flight client skipped as busy");
    assert_eq!(h1.staleness, vec![1], "staleness measured, not simulated");
    assert_eq!(out1.updates[0].client_id, 1);
    assert_eq!(out1.updates[0].staleness, 1);
    assert!(
        telemetry.lock().unwrap().mean_staleness() > 0.0,
        "telemetry saw the late arrival"
    );

    drop(executor);
    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }
}

/// A peer cannot report an update as fresher than its dispatch. A
/// raw-socket peer holds its answer to round 0 until the round-1 publish,
/// then claims `model_version: u64::MAX`. Staleness counts from the
/// version its dispatch was stamped with, so the answer still aggregates
/// one version late.
#[test]
fn a_late_answer_claiming_a_future_version_is_still_stale() {
    const LIAR: u64 = 1;
    let server = NetServerBuilder::new().build().expect("bind");
    let addr = server.local_addr().to_string();
    let liar = thread::spawn(move || {
        let mut sock = TcpStream::connect(&addr).expect("connect");
        let hello = Message::Hello {
            client_id: LIAR,
            min_version: PROTOCOL_VERSION_MIN,
            max_version: PROTOCOL_VERSION_MAX,
        };
        write_frame(&mut sock, &hello).expect("hello");
        let mut model = Vec::new();
        let mut held: Option<(u64, Vec<f32>)> = None;
        // Until the server's `Bye` (or its hang-up) ends the stream.
        while let Ok(Some(msg)) = read_frame(&mut sock) {
            match msg {
                Message::ModelPublish { version, weights } => {
                    if let (1, Some((round, trained_on))) = (version, held.take()) {
                        let late = stub_update(round as usize, LIAR as usize, &trained_on);
                        let reply = Message::Update(UpdateMsg {
                            client_id: LIAR,
                            round,
                            model_version: u64::MAX,
                            staleness: 0,
                            n_samples: late.n_samples as u64,
                            loss_before: late.loss_before,
                            loss_after: late.loss_after,
                            weights: late.weights,
                        });
                        write_frame(&mut sock, &reply).expect("late update");
                    }
                    model = weights;
                }
                Message::TrainRequest { round, .. } => held = Some((round, model.clone())),
                Message::Bye { .. } => break,
                _ => {}
            }
        }
    });
    let workers = spawn_stub_workers(&server, &[0]);
    server
        .wait_for_clients(2, Duration::from_secs(10))
        .expect("both subscribed");

    let mut executor =
        NetworkExecutor::buffered(server, 1).with_round_timeout(Duration::from_secs(30));
    let global = vec![0.5f32; 8];
    let noop_train: &TrainFn<'_> = &|_, _| Vec::new();
    executor.publish_model(0, &global);
    let out0 = executor.execute(&ctx(0), &[0, 1], noop_train);
    assert_eq!(
        out0.updates[0].client_id, 0,
        "the honest worker fills round 0"
    );
    executor.publish_model(1, &global);
    let out1 = executor.execute(&ctx(1), &[1], noop_train);
    assert_eq!(out1.updates[0].client_id, 1);
    assert_eq!(out1.updates[0].staleness, 1, "the claim made it fresher");
    let h1 = out1.hetero.expect("buffered rounds carry hetero records");
    assert_eq!(h1.staleness, vec![1]);

    drop(executor);
    liar.join().expect("the peer exits on Bye");
    for w in workers {
        w.join().expect("no panic").expect("clean worker exit");
    }
}

/// Sockets expose the planner's telemetry. After `ROUNDS` barrier rounds
/// of every live worker, the view's reliability table has dispatched and
/// aggregated each of them every round, fresh, with no dropout. In
/// buffered mode every round's record closes over its selection, as the
/// simulator's do: `selected = dispatched + busy + dropouts`, and the table
/// agrees with the records.
#[test]
fn sockets_expose_the_planner_telemetry() {
    const ROUNDS: usize = 3;
    let everyone: Vec<usize> = (0..NET_CLIENTS).collect();
    let global = vec![0.5f32; 8];
    let noop_train: &TrainFn<'_> = &|_, _| Vec::new();
    for buffer_size in [None, Some(2)] {
        let server = NetServerBuilder::new().build().expect("bind");
        let workers = spawn_stub_workers(&server, &everyone);
        server
            .wait_for_clients(NET_CLIENTS, Duration::from_secs(10))
            .expect("all workers subscribed");
        let mut executor = match buffer_size {
            None => NetworkExecutor::barrier(server),
            Some(m) => NetworkExecutor::buffered(server, m),
        }
        .with_round_timeout(Duration::from_secs(30));
        let telemetry = executor.telemetry();
        let (mut sent, mut aggregated, mut staleness) = (0, 0, 0);
        for round in 0..ROUNDS {
            executor.publish_model(round, &global);
            let out = executor.execute(&ctx(round), &everyone, noop_train);
            let sent_now = telemetry.lock().unwrap().dispatched - sent;
            sent += sent_now;
            aggregated += out.updates.len();
            staleness += out.updates.iter().map(|u| u.staleness).sum::<usize>();
            if let Some(h) = out.hetero {
                let closed = sent_now + h.busy + h.dropouts;
                assert_eq!(
                    everyone.len(),
                    closed,
                    "round {round}: a client fell through"
                );
                assert_eq!(h.aggregated(), out.updates.len());
            }
        }
        let view = executor.view();
        let totals = view.reliability.expect("the planner's table").totals();
        if buffer_size.is_none() {
            let all = ROUNDS * NET_CLIENTS;
            assert_eq!((totals.dispatches, totals.aggregated), (all, all));
            assert_eq!((totals.staleness_sum, totals.dropouts), (0, 0));
        }
        assert_eq!(
            (totals.dispatches, totals.aggregated, totals.staleness_sum),
            (sent, aggregated, staleness)
        );
        assert_eq!(totals.dropouts, 0);

        drop(executor);
        for w in workers {
            let report = w.join().expect("no panic");
            // A buffered run's shutdown may cut an answer still in flight.
            assert!(buffer_size.is_some() || report.is_ok(), "{report:?}");
        }
    }
}
