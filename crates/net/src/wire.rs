//! The `feddrl_net` wire protocol: length-prefixed binary frames with a
//! versioned header and a typed message grammar.
//!
//! Every frame is `magic (u16) | version (u8) | kind (u8) |
//! payload_len (u32) | payload`, all integers little-endian (see
//! `docs/NETWORKING.md` for the full layout and payload grammar). The
//! codec is hand-rolled rather than serde-based so the hot path — a
//! full-model [`Message::Update`] — is a bounds check plus a `memcpy` of
//! the raw `f32` weight buffer, and so every way a frame can be malformed
//! maps to a distinct [`WireError`] variant instead of a generic parse
//! failure.
//!
//! One encoder and one decoder per kind serve memory and sockets alike.
//! On a socket, [`write_frame_with`] and [`read_frame_into`] move a frame
//! through one reused buffer of at most 64 KiB, so a 2 MB update is
//! converted to or from its bytes straight between the socket and its
//! weight vector, never staged whole.
//!
//! Weights travel as raw IEEE-754 bit patterns (`f32::to_le_bytes` /
//! `from_le_bytes`), so a decode(encode(x)) round trip is bit-exact —
//! the property the loopback byte-identity law in `tests/net_props.rs`
//! rests on.

use feddrl_fl::error::FlError;
use std::fmt;
use std::io::{self, Read, Write};

/// First two bytes of every frame; rejects non-protocol peers early.
pub const FRAME_MAGIC: u16 = 0xFD7E;

/// Oldest wire-protocol version this build speaks. Version 2 is the
/// only one: both ends of every connection are built from this
/// repository, so no version-1 peer exists and a v1-stamped frame is
/// rejected like any other foreign version (`docs/NETWORKING.md`, "v2
/// only"). The golden frame fixtures in `tests/net_props.rs` pin the
/// exact bytes of every kind.
pub const PROTOCOL_VERSION_MIN: u8 = 2;

/// Newest wire-protocol version this build speaks: the negotiated
/// handshake (`Hello` version range + `HelloAck`), masked sub-model
/// updates (`MaskedUpdate`) and delta-compressed publishes
/// (`ModelPublishDelta` / `PublishAck`).
pub const PROTOCOL_VERSION_MAX: u8 = 2;

/// The version this build stamps on every frame:
/// [`PROTOCOL_VERSION_MAX`]. The frame header carries the sender's
/// version; a receiver rejects anything outside
/// `[PROTOCOL_VERSION_MIN, PROTOCOL_VERSION_MAX]` with
/// [`WireError::UnsupportedVersion`], and connections pin a single
/// negotiated version at `Hello`/`HelloAck` time (see
/// `docs/NETWORKING.md` on negotiation).
pub const PROTOCOL_VERSION: u8 = PROTOCOL_VERSION_MAX;

/// Frame header size: magic (2) + version (1) + kind (1) + payload length (4).
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame's payload (64 MiB — a ~16M-parameter dense
/// model). Larger length prefixes are rejected before any allocation with
/// [`WireError::Oversized`], so a corrupt or hostile length field cannot
/// OOM the server.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Everything that can go wrong encoding, decoding or transporting a
/// frame. `Clone + PartialEq` (the `io::Error` cause is captured as its
/// [`io::ErrorKind`] plus text) so tests can match decode failures
/// exactly; convertible into the orchestration-level
/// [`FlError::Io`] / [`FlError::Protocol`] variants.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Socket-level failure (connect, read, write, bind, accept).
    Io {
        /// The underlying `io::ErrorKind`.
        kind: io::ErrorKind,
        /// The error's display text.
        detail: String,
    },
    /// The first two bytes were not [`FRAME_MAGIC`].
    BadMagic {
        /// The bytes found, as a little-endian u16.
        found: u16,
    },
    /// The frame header named a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u8,
    },
    /// The frame header named an unknown message kind.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// The buffer or stream ended before the frame did.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeded [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The payload parsed but violated its message grammar (wrong size for
    /// the kind, trailing bytes, a weight count that disagrees with the
    /// payload length).
    Malformed {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The `Hello`/`HelloAck` handshake found no protocol version both
    /// ends speak: the peer's advertised `[min, max]` range does not
    /// overlap ours.
    NegotiationFailed {
        /// Smallest version the peer offered.
        peer_min: u8,
        /// Largest version the peer offered.
        peer_max: u8,
        /// Smallest version this build speaks ([`PROTOCOL_VERSION_MIN`]).
        ours_min: u8,
        /// Largest version this build speaks ([`PROTOCOL_VERSION_MAX`]).
        ours_max: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io { kind, detail } => write!(f, "i/o error ({kind:?}): {detail}"),
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#06x}"),
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks \
                     {PROTOCOL_VERSION_MIN}..={PROTOCOL_VERSION_MAX})"
                )
            }
            WireError::UnknownKind { found } => write!(f, "unknown message kind {found}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: payload of {len} bytes exceeds {max}")
            }
            WireError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            WireError::NegotiationFailed {
                peer_min,
                peer_max,
                ours_min,
                ours_max,
            } => write!(
                f,
                "version negotiation failed: peer speaks {peer_min}..={peer_max}, \
                 this build speaks {ours_min}..={ours_max}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<WireError> for FlError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io { .. } => FlError::Io {
                reason: e.to_string(),
            },
            _ => FlError::Protocol {
                reason: e.to_string(),
            },
        }
    }
}

/// A client's locally-trained report, as it travels on the wire. The
/// superset of what [`feddrl_fl::client::ClientUpdate`] needs: the echoed
/// `round` lets a round-barrier server discard updates from an abandoned
/// round, and `model_version` (the publish the client trained against)
/// is what the server measures staleness from — a client cannot know how
/// many aggregations happened while it trained.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// The reporting client's id.
    pub client_id: u64,
    /// The round of the `TrainRequest` this update answers.
    pub round: u64,
    /// The model version the client trained against.
    pub model_version: u64,
    /// Versions behind at aggregation time; reserved on the wire (clients
    /// send 0 — the server overwrites it from its own version counter).
    pub staleness: u64,
    /// Local sample count `n_k`.
    pub n_samples: u64,
    /// Inference loss of the received global model on the client's data.
    pub loss_before: f32,
    /// Loss of the locally trained model.
    pub loss_after: f32,
    /// The locally-trained flat weight vector, bit-exact.
    pub weights: Vec<f32>,
}

/// A masked (structured sub-model) client report: only the *kept*
/// positions of the weight vector travel. The mask itself never does —
/// both ends derive the identical [`StructuredMask`] from the shared
/// `MASK_SALT` stream via `feddrl_fl::client::dispatch_mask(model, seed,
/// round, client_id, keep_ratio)`, which is exactly what makes the
/// omission safe and the frame small.
///
/// [`StructuredMask`]: feddrl_nn::mask::StructuredMask
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedUpdateMsg {
    /// The reporting client's id.
    pub client_id: u64,
    /// The round of the `TrainRequest` this update answers (a mask
    /// derivation input).
    pub round: u64,
    /// The model version the client trained against.
    pub model_version: u64,
    /// Versions behind at aggregation time; reserved on the wire (clients
    /// send 0 — the server overwrites it from its own version counter).
    pub staleness: u64,
    /// Local sample count `n_k`.
    pub n_samples: u64,
    /// Inference loss of the received global model on the client's data.
    pub loss_before: f32,
    /// Loss of the locally trained sub-model.
    pub loss_after: f32,
    /// The keep ratio the dispatch named (the third mask derivation
    /// input); in `(0, 1]`.
    pub keep_ratio: f64,
    /// Length of the *full* flat parameter vector the kept positions
    /// scatter into.
    pub total_len: u64,
    /// Weights at the mask's kept positions, in ascending position order,
    /// bit-exact.
    pub kept_weights: Vec<f32>,
}

/// A delta-compressed model publish: the new global encoded against a
/// `base_version` the receiver has acknowledged caching. Reconstruction
/// is exact (not approximate): copy the cached base, then overwrite each
/// listed position with its new value — positions whose *bit pattern* is
/// unchanged are simply absent.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaMsg {
    /// The version this publish advances the receiver to.
    pub version: u64,
    /// The receiver-cached version the entries are encoded against.
    pub base_version: u64,
    /// Full flat parameter count (must match the cached base).
    pub total_len: u64,
    /// Changed positions, strictly ascending, each `< total_len`.
    pub indices: Vec<u32>,
    /// New values at those positions (same length as `indices`),
    /// bit-exact.
    pub values: Vec<f32>,
}

/// The wire message grammar. One frame carries exactly one message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: subscribe `client_id` to the federation,
    /// advertising the protocol versions the client speaks.
    Hello {
        /// The joining client's id.
        client_id: u64,
        /// Smallest protocol version the client speaks.
        min_version: u8,
        /// Largest protocol version the client speaks.
        max_version: u8,
    },
    /// Server → client: pins the negotiated protocol version for this
    /// connection — the highest version both ends speak.
    HelloAck {
        /// The subscribing client's id, echoed.
        client_id: u64,
        /// The negotiated protocol version.
        version: u8,
    },
    /// Server → client: the current global model, dense.
    ModelPublish {
        /// Monotone model version (increments per aggregation).
        version: u64,
        /// Flat global parameters, bit-exact.
        weights: Vec<f32>,
    },
    /// Server → client: the current global model, encoded as an
    /// exact sparse delta against a version the client acknowledged.
    ModelPublishDelta(DeltaMsg),
    /// Client → server: acknowledges having cached a published
    /// model version — the server may encode future publishes against it.
    PublishAck {
        /// The acknowledging client's id.
        client_id: u64,
        /// The model version now cached client-side.
        version: u64,
    },
    /// Server → client: train on your latest received model.
    TrainRequest {
        /// The round this dispatch belongs to (echoed in the update).
        round: u64,
        /// Fraction of the model to train: 1.0 = full model; below 1 is a
        /// structured-dropout sub-model dispatch (the client derives the
        /// mask locally and answers with a `MaskedUpdate`).
        keep_ratio: f64,
    },
    /// Client → server: a locally-trained full-model report.
    Update(UpdateMsg),
    /// Client → server: a locally-trained sub-model report carrying
    /// only the mask's kept positions.
    MaskedUpdate(MaskedUpdateMsg),
    /// Client → server: liveness keep-alive refreshing the registry TTL.
    Heartbeat {
        /// The reporting client's id.
        client_id: u64,
    },
    /// Either direction: orderly departure (server: shutdown; client:
    /// leaving the federation).
    Bye {
        /// The departing client's id (the server sends the receiver's id).
        client_id: u64,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_MODEL_PUBLISH: u8 = 2;
const KIND_TRAIN_REQUEST: u8 = 3;
const KIND_UPDATE: u8 = 4;
const KIND_HEARTBEAT: u8 = 5;
const KIND_BYE: u8 = 6;
const KIND_HELLO_ACK: u8 = 7;
const KIND_MASKED_UPDATE: u8 = 8;
const KIND_MODEL_PUBLISH_DELTA: u8 = 9;
const KIND_PUBLISH_ACK: u8 = 10;

/// The payload length of a kind whose frames all have one size, `None`
/// for the kinds that carry arrays. The encoder sizes frames with it and
/// [`FrameHeader::parse`] rejects any other claim.
const fn fixed_payload_len(kind: u8) -> Option<usize> {
    match kind {
        KIND_HELLO => Some(10),
        KIND_HELLO_ACK => Some(9),
        KIND_PUBLISH_ACK | KIND_TRAIN_REQUEST => Some(16),
        KIND_HEARTBEAT | KIND_BYE => Some(8),
        _ => None,
    }
}

/// Pick the protocol version for a connection whose peer advertised
/// `[peer_min, peer_max]`: the highest version both ends speak.
///
/// # Errors
/// [`WireError::NegotiationFailed`] when the ranges do not overlap.
pub fn negotiate(peer_min: u8, peer_max: u8) -> Result<u8, WireError> {
    let lo = peer_min.max(PROTOCOL_VERSION_MIN);
    let hi = peer_max.min(PROTOCOL_VERSION_MAX);
    if lo > hi {
        return Err(WireError::NegotiationFailed {
            peer_min,
            peer_max,
            ours_min: PROTOCOL_VERSION_MIN,
            ours_max: PROTOCOL_VERSION_MAX,
        });
    }
    Ok(hi)
}

/// A parsed and validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version the sender speaks.
    pub version: u8,
    /// Message kind byte (validated against the known grammar).
    pub kind: u8,
    /// Payload length in bytes (validated against [`MAX_PAYLOAD`], and
    /// against the one size of a fixed-size kind).
    pub payload_len: usize,
}

impl FrameHeader {
    /// Parse and validate the fixed-size header: magic, version, kind, the
    /// payload length bound and, for a kind whose frames all have one size
    /// (`Hello`, `HelloAck`, `PublishAck`, `TrainRequest`, `Heartbeat`,
    /// `Bye`), that size, in that order (so the caller learns the *first*
    /// violated rule). A wrong size is [`WireError::Malformed`] before any
    /// payload byte is read.
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = bytes[2];
        if !(PROTOCOL_VERSION_MIN..=PROTOCOL_VERSION_MAX).contains(&version) {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let kind = bytes[3];
        if !(KIND_HELLO..=KIND_PUBLISH_ACK).contains(&kind) {
            return Err(WireError::UnknownKind { found: kind });
        }
        let payload_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len: payload_len,
                max: MAX_PAYLOAD,
            });
        }
        if let Some(fixed) = fixed_payload_len(kind) {
            if payload_len != fixed {
                return Err(WireError::Malformed {
                    detail: format!(
                        "{} header claims {payload_len} payload bytes, the kind has {fixed}",
                        kind_name(kind)
                    ),
                });
            }
        }
        Ok(FrameHeader {
            version,
            kind,
            payload_len,
        })
    }
}

// --- the codec ---------------------------------------------------------------
//
// Every message kind has one encoder, which writes to a `FrameWriter`, and
// one decoder, which reads from a `FrameReader`. Both move bytes through
// one bounded chunk: the writer hands a frame to any `Write` a chunk at a
// time, the reader pulls a payload off any `Read` a chunk at a time and
// converts bulk arrays straight into their vectors. A socket, a `Vec`
// being filled and a slice being decoded all go through the same code, so
// the paths cannot disagree on a byte.

/// Bytes a connection stages at a time: a frame is written, and a payload
/// read, through one buffer of at most this size, so a 2 MB update costs a
/// 64 KiB buffer per connection rather than a frame-sized one. A multiple
/// of 4, so a weight array that starts word-aligned in the payload (every
/// bulk array of the grammar does) never straddles two chunks.
const CHUNK: usize = 64 << 10;

/// The chunk, on the stack, through which a frame is encoded into a `Vec`:
/// the frame is written once, with neither a zero-fill ahead of it nor a
/// push per float (which cost three times as much on a 530 k-weight
/// update).
const VEC_CHUNK: usize = 4 << 10;

/// Payload bytes of a `ModelPublish` of `n` weights: version and count
/// `u64`s, then the raw `f32`s.
fn publish_payload_len(n: usize) -> usize {
    16 + 4 * n
}

/// Bytes of the dense `ModelPublish` frame of `n` weights.
pub(crate) fn dense_frame_len(n: usize) -> usize {
    HEADER_LEN + publish_payload_len(n)
}

/// Payload bytes of a `ModelPublishDelta` of `count` entries: four `u64`
/// fields, then a `u32` index and an `f32` value per entry.
fn delta_payload_len(count: usize) -> usize {
    32 + 8 * count
}

/// Writes a frame to `w` through `chunk`, one `write_all` each time the
/// chunk fills. The first failed write is kept and every later byte
/// dropped, so an encoder never checks for errors; [`FrameWriter::finish`]
/// reports it.
struct FrameWriter<'a, W> {
    w: &'a mut W,
    chunk: &'a mut [u8],
    /// Bytes of `chunk` holding frame bytes not yet written.
    fill: usize,
    error: Option<io::Error>,
}

impl<'a, W: Write> FrameWriter<'a, W> {
    fn new(w: &'a mut W, chunk: &'a mut [u8]) -> Self {
        FrameWriter {
            w,
            chunk,
            fill: 0,
            error: None,
        }
    }

    fn drain(&mut self) {
        if self.error.is_none() {
            self.error = self.w.write_all(&self.chunk[..self.fill]).err();
        }
        self.fill = 0;
    }

    /// Write what is left in the chunk and flush the stream.
    fn finish(mut self) -> io::Result<()> {
        self.drain();
        match self.error {
            Some(e) => Err(e),
            None => self.w.flush(),
        }
    }

    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.fill == self.chunk.len() {
                self.drain();
            }
            let n = bytes.len().min(self.chunk.len() - self.fill);
            self.chunk[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
        }
    }

    /// Append `values` as little-endian 4-byte words. A chunk with room
    /// for less than a word goes out short, so no word is split.
    fn put_words<T: Copy>(&mut self, mut values: &[T], to_le_bytes: fn(T) -> [u8; 4]) {
        while !values.is_empty() {
            let room = (self.chunk.len() - self.fill) / 4;
            if room == 0 {
                self.drain();
                continue;
            }
            let (part, rest) = values.split_at(room.min(values.len()));
            let bytes = &mut self.chunk[self.fill..self.fill + 4 * part.len()];
            for (word, &v) in bytes.chunks_exact_mut(4).zip(part) {
                word.copy_from_slice(&to_le_bytes(v));
            }
            self.fill += 4 * part.len();
            values = rest;
        }
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn put_f32(&mut self, v: f32) {
        self.put(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }

    fn put_weights(&mut self, weights: &[f32]) {
        self.put_u64(weights.len() as u64);
        self.put_words(weights, f32::to_le_bytes);
    }

    /// The frame header announcing `payload_len` bytes of `kind`.
    fn put_header(&mut self, kind: u8, payload_len: usize) {
        assert!(
            payload_len <= MAX_PAYLOAD,
            "encoded payload of {payload_len} bytes exceeds MAX_PAYLOAD"
        );
        self.put(&FRAME_MAGIC.to_le_bytes());
        self.put(&[PROTOCOL_VERSION, kind]);
        self.put(&(payload_len as u32).to_le_bytes());
    }
}

/// Replace `frame`'s contents with the `frame_len` bytes `encode` writes.
fn encode_frame(
    frame: &mut Vec<u8>,
    frame_len: usize,
    encode: impl FnOnce(&mut FrameWriter<'_, Vec<u8>>),
) {
    frame.clear();
    frame.reserve(frame_len);
    let mut chunk = [0u8; VEC_CHUNK];
    let mut writer = FrameWriter::new(frame, &mut chunk);
    encode(&mut writer);
    writer.finish().expect("a Vec takes every byte");
    debug_assert_eq!(frame.len(), frame_len);
}

/// The `ModelPublish` encoder.
fn put_publish<W: Write>(s: &mut FrameWriter<'_, W>, version: u64, weights: &[f32]) {
    s.put_header(KIND_MODEL_PUBLISH, publish_payload_len(weights.len()));
    s.put_u64(version);
    s.put_weights(weights);
}

/// The `ModelPublishDelta` encoder.
fn put_delta<W: Write>(
    s: &mut FrameWriter<'_, W>,
    version: u64,
    base_version: u64,
    total_len: u64,
    indices: &[u32],
    values: &[f32],
) {
    assert_eq!(
        indices.len(),
        values.len(),
        "delta indices and values must pair up"
    );
    s.put_header(KIND_MODEL_PUBLISH_DELTA, delta_payload_len(indices.len()));
    s.put_u64(version);
    s.put_u64(base_version);
    s.put_u64(total_len);
    s.put_u64(indices.len() as u64);
    s.put_words(indices, u32::to_le_bytes);
    s.put_words(values, f32::to_le_bytes);
}

/// Write the `ModelPublish` frame of `weights` into `frame`: the bytes of
/// `Message::ModelPublish { version, weights }.encode()`, without copying
/// the weights into a message first.
pub(crate) fn encode_publish_into(frame: &mut Vec<u8>, version: u64, weights: &[f32]) {
    encode_frame(frame, dense_frame_len(weights.len()), |s| {
        put_publish(s, version, weights)
    });
}

/// Elements [`Changes::scan`] counts per block: small enough that a block
/// copied into the snapshot is still in cache when it is compared, large
/// enough that the per-block counts are a few hundred words.
const SCAN_BLOCK: usize = 1024;

/// The entries of a delta publish: the positions whose bit pattern changed
/// between a base and the new model, ascending, with their new values. A
/// server keeps one across publishes, so a steady-state delta allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Changes {
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Changed positions per [`SCAN_BLOCK`] of the last scan.
    per_block: Vec<u32>,
}

impl Changes {
    /// Find where `weights` differs from `base`, copying `weights` into
    /// `copy` in the same pass when one is given. Returns whether the delta
    /// pays: whether its frame is smaller than the dense `ModelPublish`
    /// frame. A shape mismatch, or a model too long for `u32` indices,
    /// never pays.
    ///
    /// Positions are compared by bit pattern, so a flipped zero sign or a
    /// new NaN payload is a change and reconstruction is exact. The one
    /// pass over the model copies and counts, block by block; only a delta
    /// that pays is recorded, from the blocks that changed. So a publish
    /// that goes dense costs that one pass, and a sparse one little more.
    pub(crate) fn scan(
        &mut self,
        base: &[f32],
        weights: &[f32],
        mut copy: Option<&mut Vec<f32>>,
    ) -> bool {
        self.indices.clear();
        self.values.clear();
        self.per_block.clear();
        if let Some(copy) = copy.as_deref_mut() {
            copy.clear();
            copy.reserve(weights.len());
        }
        if base.len() != weights.len() || weights.len() > u32::MAX as usize {
            if let Some(copy) = copy {
                copy.extend_from_slice(weights);
            }
            return false;
        }
        let mut count = 0;
        for (now, before) in weights.chunks(SCAN_BLOCK).zip(base.chunks(SCAN_BLOCK)) {
            if let Some(copy) = copy.as_deref_mut() {
                copy.extend_from_slice(now);
            }
            let changed: u32 = now
                .iter()
                .zip(before)
                .map(|(n, b)| u32::from(n.to_bits() != b.to_bits()))
                .sum();
            self.per_block.push(changed);
            count += changed as usize;
        }
        if delta_payload_len(count) >= publish_payload_len(weights.len()) {
            return false;
        }
        self.indices.reserve(count);
        self.values.reserve(count);
        for (k, &changed) in self.per_block.iter().enumerate() {
            if changed == 0 {
                continue;
            }
            let start = k * SCAN_BLOCK;
            let end = weights.len().min(start + SCAN_BLOCK);
            let now = &weights[start..end];
            if changed as usize == now.len() {
                self.indices.extend(start as u32..end as u32);
                self.values.extend_from_slice(now);
                continue;
            }
            for (i, (&n, b)) in (start as u32..).zip(now.iter().zip(&base[start..end])) {
                if n.to_bits() != b.to_bits() {
                    self.indices.push(i);
                    self.values.push(n);
                }
            }
        }
        true
    }

    /// Write the `ModelPublishDelta` frame of these entries into `frame`:
    /// the bytes of `Message::ModelPublishDelta(..).encode()`.
    pub(crate) fn encode_into(
        &self,
        frame: &mut Vec<u8>,
        version: u64,
        base_version: u64,
        total_len: u64,
    ) {
        let frame_len = HEADER_LEN + delta_payload_len(self.indices.len());
        encode_frame(frame, frame_len, |s| {
            put_delta(
                s,
                version,
                base_version,
                total_len,
                &self.indices,
                &self.values,
            )
        });
    }
}

/// Reads one frame's payload from `r`, staged in `chunk` a bounded piece
/// at a time. `chunk` holds exactly the bytes staged: a refill grows it
/// (zero-filling only the growth) or shrinks it to the piece it reads, so
/// a payload that fits one chunk is one `read` into a buffer that already
/// has room, and the buffer never holds more than [`CHUNK`] bytes.
///
/// Running out of payload is [`WireError::Malformed`], naming what was
/// being read, and is found before anything is read or allocated; a
/// stream that ends before its payload does is [`WireError::Truncated`].
struct FrameReader<'a, R> {
    r: &'a mut R,
    chunk: &'a mut Vec<u8>,
    /// The unconsumed bytes of the chunk are `chunk[pos..]`.
    pos: usize,
    /// Payload bytes still in the stream, behind the chunk.
    unread: usize,
    payload_len: usize,
}

impl<'a, R: Read> FrameReader<'a, R> {
    fn new(r: &'a mut R, chunk: &'a mut Vec<u8>, payload_len: usize) -> Self {
        FrameReader {
            r,
            pos: chunk.len(),
            chunk,
            unread: payload_len,
            payload_len,
        }
    }

    /// Payload bytes not consumed yet.
    fn left(&self) -> usize {
        self.chunk.len() - self.pos + self.unread
    }

    /// Stage the next piece of the payload. Called with the chunk consumed
    /// and payload left in the stream.
    fn refill(&mut self) -> Result<(), WireError> {
        let want = self.unread.min(CHUNK);
        if self.chunk.len() < want {
            self.chunk.reserve_exact(want - self.chunk.len());
            self.chunk.resize(want, 0);
        } else {
            self.chunk.truncate(want);
        }
        let mut filled = 0;
        while filled < want {
            match self.r.read(&mut self.chunk[filled..]) {
                Ok(0) => {
                    self.chunk.truncate(filled);
                    return Err(WireError::Truncated {
                        needed: HEADER_LEN + self.payload_len,
                        got: HEADER_LEN + self.payload_len - self.unread + filled,
                    });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        self.unread -= want;
        self.pos = 0;
        Ok(())
    }

    /// The next `N` payload bytes.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireError> {
        if self.left() < N {
            return Err(WireError::Malformed {
                detail: format!(
                    "payload ended reading {what}: needed {N} bytes at offset {}, had {}",
                    self.payload_len - self.left(),
                    self.left()
                ),
            });
        }
        let mut out = [0u8; N];
        let mut got = 0;
        while got < N {
            if self.pos == self.chunk.len() {
                self.refill()?;
            }
            let n = (N - got).min(self.chunk.len() - self.pos);
            out[got..got + n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
            got += n;
            self.pos += n;
        }
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f32(&mut self, what: &str) -> Result<f32, WireError> {
        self.array(what).map(f32::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// `count` 4-byte words, each through `from_le_bytes`. The count is
    /// checked against the payload bytes left *before* the vector is
    /// reserved, so a corrupt count cannot OOM; the vector's pages are
    /// touched only as the words arrive.
    fn words<T>(
        &mut self,
        count: usize,
        what: &str,
        from_le_bytes: fn([u8; 4]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let available = self.left() / 4;
        if count > available {
            return Err(WireError::Malformed {
                detail: format!("{what} count {count} exceeds the {available} encoded"),
            });
        }
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let whole = (self.chunk.len() - self.pos) / 4;
            if whole == 0 {
                // The chunk is consumed, or ends inside a word.
                out.push(from_le_bytes(self.array(what)?));
                continue;
            }
            let n = whole.min(count - out.len());
            let raw = &self.chunk[self.pos..self.pos + 4 * n];
            out.extend(
                raw.chunks_exact(4)
                    .map(|c| from_le_bytes(c.try_into().expect("4-byte chunk"))),
            );
            self.pos += 4 * n;
        }
        Ok(out)
    }

    fn weights(&mut self) -> Result<Vec<f32>, WireError> {
        let count = self.u64("weight count")? as usize;
        self.words(count, "weight", f32::from_le_bytes)
    }

    fn finish(&self, what: &str) -> Result<(), WireError> {
        match self.left() {
            0 => Ok(()),
            n => Err(WireError::Malformed {
                detail: format!("{n} trailing bytes after {what}"),
            }),
        }
    }
}

/// The one decoder of every kind: the payload of a `kind` frame, read
/// from `c` to its end. `kind` must come from [`FrameHeader::parse`]
/// (unsupported versions and unknown kinds are rejected there).
fn decode_from<R: Read>(kind: u8, c: &mut FrameReader<'_, R>) -> Result<Message, WireError> {
    let msg = match kind {
        KIND_HELLO => {
            let client_id = c.u64("Hello.client_id")?;
            let min_version = c.u8("Hello.min_version")?;
            let max_version = c.u8("Hello.max_version")?;
            if min_version > max_version {
                return Err(WireError::Malformed {
                    detail: format!(
                        "Hello version range is empty: min {min_version} > max {max_version}"
                    ),
                });
            }
            Message::Hello {
                client_id,
                min_version,
                max_version,
            }
        }
        KIND_HELLO_ACK => Message::HelloAck {
            client_id: c.u64("HelloAck.client_id")?,
            version: c.u8("HelloAck.version")?,
        },
        KIND_MODEL_PUBLISH => Message::ModelPublish {
            version: c.u64("ModelPublish.version")?,
            weights: c.weights()?,
        },
        KIND_MODEL_PUBLISH_DELTA => {
            let msg_version = c.u64("ModelPublishDelta.version")?;
            let base_version = c.u64("ModelPublishDelta.base_version")?;
            let total_len = c.u64("ModelPublishDelta.total_len")?;
            let count = c.u64("ModelPublishDelta.count")? as usize;
            let indices = c.words(count, "ModelPublishDelta.indices", u32::from_le_bytes)?;
            let values = c.words(count, "ModelPublishDelta.values", f32::from_le_bytes)?;
            for pair in indices.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(WireError::Malformed {
                        detail: format!(
                            "ModelPublishDelta indices not strictly ascending: \
                             {} then {}",
                            pair[0], pair[1]
                        ),
                    });
                }
            }
            if let Some(&last) = indices.last() {
                if u64::from(last) >= total_len {
                    return Err(WireError::Malformed {
                        detail: format!(
                            "ModelPublishDelta index {last} out of range for \
                             total_len {total_len}"
                        ),
                    });
                }
            }
            Message::ModelPublishDelta(DeltaMsg {
                version: msg_version,
                base_version,
                total_len,
                indices,
                values,
            })
        }
        KIND_PUBLISH_ACK => Message::PublishAck {
            client_id: c.u64("PublishAck.client_id")?,
            version: c.u64("PublishAck.version")?,
        },
        KIND_TRAIN_REQUEST => Message::TrainRequest {
            round: c.u64("TrainRequest.round")?,
            keep_ratio: c.f64("TrainRequest.keep_ratio")?,
        },
        KIND_UPDATE => Message::Update(UpdateMsg {
            client_id: c.u64("Update.client_id")?,
            round: c.u64("Update.round")?,
            model_version: c.u64("Update.model_version")?,
            staleness: c.u64("Update.staleness")?,
            n_samples: c.u64("Update.n_samples")?,
            loss_before: c.f32("Update.loss_before")?,
            loss_after: c.f32("Update.loss_after")?,
            weights: c.weights()?,
        }),
        KIND_MASKED_UPDATE => {
            let msg = MaskedUpdateMsg {
                client_id: c.u64("MaskedUpdate.client_id")?,
                round: c.u64("MaskedUpdate.round")?,
                model_version: c.u64("MaskedUpdate.model_version")?,
                staleness: c.u64("MaskedUpdate.staleness")?,
                n_samples: c.u64("MaskedUpdate.n_samples")?,
                loss_before: c.f32("MaskedUpdate.loss_before")?,
                loss_after: c.f32("MaskedUpdate.loss_after")?,
                keep_ratio: c.f64("MaskedUpdate.keep_ratio")?,
                total_len: c.u64("MaskedUpdate.total_len")?,
                kept_weights: c.weights()?,
            };
            if !(msg.keep_ratio.is_finite() && 0.0 < msg.keep_ratio && msg.keep_ratio <= 1.0) {
                return Err(WireError::Malformed {
                    detail: format!(
                        "MaskedUpdate keep_ratio must be in (0, 1], got {}",
                        msg.keep_ratio
                    ),
                });
            }
            if msg.kept_weights.len() as u64 > msg.total_len {
                return Err(WireError::Malformed {
                    detail: format!(
                        "MaskedUpdate kept {} weights but total_len is {}",
                        msg.kept_weights.len(),
                        msg.total_len
                    ),
                });
            }
            Message::MaskedUpdate(msg)
        }
        KIND_HEARTBEAT => Message::Heartbeat {
            client_id: c.u64("Heartbeat.client_id")?,
        },
        KIND_BYE => Message::Bye {
            client_id: c.u64("Bye.client_id")?,
        },
        other => return Err(WireError::UnknownKind { found: other }),
    };
    c.finish(kind_name(kind))?;
    Ok(msg)
}

/// Decode a validated-header payload into its [`Message`]. `kind` must
/// come from [`FrameHeader::parse`] (unsupported versions and unknown
/// kinds are rejected there).
///
/// The payload goes through the one decoder, staged a chunk at a time
/// like a socket's.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let (mut bytes, mut chunk) = (payload, Vec::new());
    decode_from(
        kind,
        &mut FrameReader::new(&mut bytes, &mut chunk, payload.len()),
    )
}

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_HELLO => "Hello",
        KIND_MODEL_PUBLISH => "ModelPublish",
        KIND_TRAIN_REQUEST => "TrainRequest",
        KIND_UPDATE => "Update",
        KIND_HEARTBEAT => "Heartbeat",
        KIND_BYE => "Bye",
        KIND_HELLO_ACK => "HelloAck",
        KIND_MASKED_UPDATE => "MaskedUpdate",
        KIND_MODEL_PUBLISH_DELTA => "ModelPublishDelta",
        KIND_PUBLISH_ACK => "PublishAck",
        _ => "unknown",
    }
}

impl Message {
    /// The message's kind byte in the frame header.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => KIND_HELLO,
            Message::HelloAck { .. } => KIND_HELLO_ACK,
            Message::ModelPublish { .. } => KIND_MODEL_PUBLISH,
            Message::ModelPublishDelta(_) => KIND_MODEL_PUBLISH_DELTA,
            Message::PublishAck { .. } => KIND_PUBLISH_ACK,
            Message::TrainRequest { .. } => KIND_TRAIN_REQUEST,
            Message::Update(_) => KIND_UPDATE,
            Message::MaskedUpdate(_) => KIND_MASKED_UPDATE,
            Message::Heartbeat { .. } => KIND_HEARTBEAT,
            Message::Bye { .. } => KIND_BYE,
        }
    }

    /// Bytes of this message's frame, header included.
    fn frame_len(&self) -> usize {
        HEADER_LEN
            + match self {
                Message::ModelPublish { weights, .. } => publish_payload_len(weights.len()),
                Message::ModelPublishDelta(d) => 32 + 4 * (d.indices.len() + d.values.len()),
                Message::Update(u) => 56 + 4 * u.weights.len(),
                Message::MaskedUpdate(u) => 72 + 4 * u.kept_weights.len(),
                Message::Hello { .. }
                | Message::HelloAck { .. }
                | Message::PublishAck { .. }
                | Message::TrainRequest { .. }
                | Message::Heartbeat { .. }
                | Message::Bye { .. } => fixed_payload_len(self.kind()).expect("a fixed-size kind"),
            }
    }

    /// The one encoder of every kind: the whole frame, into `s`.
    fn put_frame<W: Write>(&self, s: &mut FrameWriter<'_, W>) {
        let payload_len = self.frame_len() - HEADER_LEN;
        match self {
            Message::ModelPublish { version, weights } => return put_publish(s, *version, weights),
            Message::ModelPublishDelta(d) => {
                let (indices, values) = (&d.indices, &d.values);
                return put_delta(s, d.version, d.base_version, d.total_len, indices, values);
            }
            _ => s.put_header(self.kind(), payload_len),
        }
        match self {
            Message::Hello {
                client_id,
                min_version,
                max_version,
            } => {
                s.put_u64(*client_id);
                s.put(&[*min_version, *max_version]);
            }
            Message::HelloAck { client_id, version } => {
                s.put_u64(*client_id);
                s.put(&[*version]);
            }
            Message::PublishAck { client_id, version } => {
                s.put_u64(*client_id);
                s.put_u64(*version);
            }
            Message::TrainRequest { round, keep_ratio } => {
                s.put_u64(*round);
                s.put_f64(*keep_ratio);
            }
            Message::Update(u) => {
                s.put_u64(u.client_id);
                s.put_u64(u.round);
                s.put_u64(u.model_version);
                s.put_u64(u.staleness);
                s.put_u64(u.n_samples);
                s.put_f32(u.loss_before);
                s.put_f32(u.loss_after);
                s.put_weights(&u.weights);
            }
            Message::MaskedUpdate(u) => {
                s.put_u64(u.client_id);
                s.put_u64(u.round);
                s.put_u64(u.model_version);
                s.put_u64(u.staleness);
                s.put_u64(u.n_samples);
                s.put_f32(u.loss_before);
                s.put_f32(u.loss_after);
                s.put_f64(u.keep_ratio);
                s.put_u64(u.total_len);
                s.put_weights(&u.kept_weights);
            }
            Message::Heartbeat { client_id } | Message::Bye { client_id } => {
                s.put_u64(*client_id);
            }
            Message::ModelPublish { .. } | Message::ModelPublishDelta(_) => {}
        }
    }

    /// Encode into a complete frame (header + payload) stamped with
    /// [`PROTOCOL_VERSION`].
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        frame
    }

    /// Encode into `frame`, replacing its contents with exactly the bytes
    /// of [`Message::encode`]. A connection that keeps one buffer for its
    /// frames allocates only when a frame outgrows every one before it.
    pub fn encode_into(&self, frame: &mut Vec<u8>) {
        encode_frame(frame, self.frame_len(), |s| self.put_frame(s));
    }

    /// Decode one frame from the front of `buf`, returning the message and
    /// the bytes consumed. A buffer shorter than the frame it starts is
    /// [`WireError::Truncated`]; bytes *after* the frame are fine (they
    /// belong to the next one).
    pub fn decode(buf: &[u8]) -> Result<(Message, usize), WireError> {
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let header = FrameHeader::parse(buf[..HEADER_LEN].try_into().expect("header slice"))?;
        let total = HEADER_LEN + header.payload_len;
        if buf.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                got: buf.len(),
            });
        }
        let msg = decode_payload(header.kind, &buf[HEADER_LEN..total])?;
        Ok((msg, total))
    }
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), WireError> {
    write_frame_with(w, msg, &mut Vec::new())
}

/// Write one frame like [`write_frame`], encoding it through `chunk`, a
/// buffer the caller keeps across frames. The frame goes out a bounded
/// chunk at a time, so a 2 MB update never sits whole in memory a second
/// time; a frame that fits one chunk is one `write_all`. The stream
/// receives exactly the bytes of [`Message::encode`].
pub fn write_frame_with<W: Write>(
    w: &mut W,
    msg: &Message,
    chunk: &mut Vec<u8>,
) -> Result<(), WireError> {
    let window = msg.frame_len().min(CHUNK);
    if chunk.len() < window {
        chunk.reserve_exact(window - chunk.len());
        chunk.resize(window, 0);
    }
    let mut writer = FrameWriter::new(w, &mut chunk[..window]);
    msg.put_frame(&mut writer);
    writer.finish()?;
    Ok(())
}

/// Read one frame from a stream. `Ok(None)` on a clean end-of-stream at a
/// frame boundary; EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Message>, WireError> {
    read_frame_into(r, &mut Vec::new())
}

/// Read one frame like [`read_frame`], staging its payload in `chunk`, a
/// buffer the caller keeps across frames. The payload is decoded a
/// bounded chunk at a time as it arrives, bulk arrays straight into their
/// vectors: the buffer never holds more than one chunk, a payload that
/// fits one chunk is one `read` after the header, and a header that
/// claims more than the stream delivers pins no more than one chunk.
/// After a frame, `chunk` holds the last piece of its payload.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    chunk: &mut Vec<u8>,
) -> Result<Option<Message>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(WireError::Truncated {
                    needed: HEADER_LEN,
                    got: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let fh = FrameHeader::parse(&header)?;
    decode_from(fh.kind, &mut FrameReader::new(r, chunk, fh.payload_len)).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scan and, when it pays, its frame: the delta laws below
    /// were stated against this entry point.
    fn encode_delta_into(
        frame: &mut Vec<u8>,
        version: u64,
        base_version: u64,
        base: &[f32],
        weights: &[f32],
    ) -> bool {
        let mut changes = Changes::default();
        let pays = changes.scan(base, weights, None);
        if pays {
            changes.encode_into(frame, version, base_version, weights.len() as u64);
        }
        pays
    }

    fn sample_update() -> Message {
        Message::Update(UpdateMsg {
            client_id: 3,
            round: 7,
            model_version: 6,
            staleness: 0,
            n_samples: 120,
            loss_before: 1.25,
            loss_after: 0.75,
            weights: vec![0.5, -1.0, f32::MIN_POSITIVE, 3.25e7],
        })
    }

    fn sample_masked_update() -> Message {
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
            kept_weights: vec![0.25, -0.5, 1.0e-7],
        })
    }

    fn sample_delta() -> Message {
        Message::ModelPublishDelta(DeltaMsg {
            version: 12,
            base_version: 11,
            total_len: 100,
            indices: vec![0, 7, 99],
            values: vec![1.0, -2.5, f32::MIN_POSITIVE],
        })
    }

    #[test]
    fn every_kind_round_trips() {
        let msgs = [
            Message::Hello {
                client_id: 9,
                min_version: 1,
                max_version: 2,
            },
            Message::HelloAck {
                client_id: 9,
                version: 2,
            },
            Message::ModelPublish {
                version: 4,
                weights: vec![1.0, 2.0, -0.125],
            },
            sample_delta(),
            Message::PublishAck {
                client_id: 3,
                version: 4,
            },
            Message::TrainRequest {
                round: 11,
                keep_ratio: 0.625,
            },
            sample_update(),
            sample_masked_update(),
            Message::Heartbeat { client_id: 2 },
            Message::Bye { client_id: 5 },
        ];
        for msg in msgs {
            let frame = msg.encode();
            let (back, used) = Message::decode(&frame).expect("decode");
            assert_eq!(used, frame.len());
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn negotiation_picks_the_highest_common_version() {
        assert_eq!(negotiate(1, 2), Ok(2));
        assert_eq!(negotiate(2, 2), Ok(2));
        assert_eq!(negotiate(1, 200), Ok(PROTOCOL_VERSION_MAX));
        // Disjoint on either side: a peer from the past, one from the future.
        for (peer_min, peer_max) in [(1, 1), (3, 200)] {
            assert_eq!(
                negotiate(peer_min, peer_max),
                Err(WireError::NegotiationFailed {
                    peer_min,
                    peer_max,
                    ours_min: PROTOCOL_VERSION_MIN,
                    ours_max: PROTOCOL_VERSION_MAX,
                })
            );
        }
    }

    #[test]
    fn delta_grammar_rejects_unsorted_and_out_of_range_indices() {
        let mut unsorted = sample_delta();
        if let Message::ModelPublishDelta(d) = &mut unsorted {
            d.indices = vec![7, 7, 99];
        }
        assert!(matches!(
            Message::decode(&unsorted.encode()),
            Err(WireError::Malformed { .. })
        ));
        let mut oob = sample_delta();
        if let Message::ModelPublishDelta(d) = &mut oob {
            d.indices = vec![0, 7, 100];
        }
        assert!(matches!(
            Message::decode(&oob.encode()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn masked_update_grammar_rejects_bad_ratio_and_overfull_kept_set() {
        let mut bad_ratio = sample_masked_update();
        if let Message::MaskedUpdate(u) = &mut bad_ratio {
            u.keep_ratio = 0.0;
        }
        assert!(matches!(
            Message::decode(&bad_ratio.encode()),
            Err(WireError::Malformed { .. })
        ));
        let mut overfull = sample_masked_update();
        if let Message::MaskedUpdate(u) = &mut overfull {
            u.total_len = 2;
        }
        assert!(matches!(
            Message::decode(&overfull.encode()),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn weights_round_trip_bit_exact_including_nan() {
        let weights: Vec<f32> = [0x7FC0_0001u32, 0xFF80_0000, 0x0000_0001, 0x8000_0000]
            .iter()
            .map(|&b| f32::from_bits(b))
            .collect();
        let msg = Message::ModelPublish {
            version: 1,
            weights: weights.clone(),
        };
        let (back, _) = Message::decode(&msg.encode()).expect("decode");
        let Message::ModelPublish { weights: got, .. } = back else {
            panic!("wrong kind");
        };
        let bits: Vec<u32> = got.iter().map(|w| w.to_bits()).collect();
        let want: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn bad_magic_version_kind_are_typed() {
        let mut frame = sample_update().encode();
        frame[0] ^= 0xFF;
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::BadMagic { .. })
        ));

        for foreign in [PROTOCOL_VERSION_MIN - 1, 99] {
            let mut frame = sample_update().encode();
            frame[2] = foreign;
            assert_eq!(
                Message::decode(&frame),
                Err(WireError::UnsupportedVersion { found: foreign })
            );
        }

        let mut frame = sample_update().encode();
        frame[3] = 0;
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::UnknownKind { found: 0 })
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_prefix() {
        let frame = sample_update().encode();
        for cut in 0..frame.len() {
            let err = Message::decode(&frame[..cut]).expect_err("truncated frame accepted");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut frame = sample_update().encode();
        frame[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::Oversized {
                len: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD
            })
        );
    }

    #[test]
    fn lying_weight_count_is_malformed_not_oom() {
        let mut frame = Message::ModelPublish {
            version: 0,
            weights: vec![1.0],
        }
        .encode();
        // Payload layout: version u64 | count u64 | f32. Corrupt the count.
        let count_off = HEADER_LEN + 8;
        frame[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut frame = Message::Heartbeat { client_id: 1 }.encode();
        frame.push(0xAB);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn stream_read_write_round_trips_and_reports_clean_eof() {
        let mut buf = Vec::new();
        let hello = Message::Hello {
            client_id: 1,
            min_version: 1,
            max_version: 2,
        };
        write_frame(&mut buf, &hello).unwrap();
        write_frame(&mut buf, &sample_update()).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(hello));
        assert_eq!(read_frame(&mut r).unwrap(), Some(sample_update()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn stream_eof_mid_frame_is_truncated() {
        let frame = sample_update().encode();
        let mut r = io::Cursor::new(&frame[..frame.len() - 1]);
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::Truncated { .. })
        ));
        // EOF inside the header, too.
        let mut r = io::Cursor::new(&frame[..3]);
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::Truncated { needed: 8, got: 3 })
        ));
    }

    /// An `Update` header claiming the largest payload, then silence: the
    /// read fails `Truncated` and the caller's buffer holds on to no more
    /// than what arrived.
    #[test]
    fn a_header_alone_cannot_pin_its_claimed_payload() {
        let mut frame = sample_update().encode();
        frame.truncate(HEADER_LEN);
        frame[4..8].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        let mut payload = Vec::new();
        assert_eq!(
            read_frame_into(&mut io::Cursor::new(frame), &mut payload),
            Err(WireError::Truncated {
                needed: HEADER_LEN + MAX_PAYLOAD,
                got: HEADER_LEN,
            })
        );
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
    }

    /// A fixed-size kind's header that claims another size, one byte off
    /// or the largest payload, fails `Malformed` at the header: neither
    /// decoder waits for a payload the stream does not hold.
    #[test]
    fn a_fixed_size_kind_rejects_any_other_length_at_the_header() {
        let fixed = [
            Message::Hello {
                client_id: 1,
                min_version: 1,
                max_version: 2,
            },
            Message::HelloAck {
                client_id: 1,
                version: 2,
            },
            Message::PublishAck {
                client_id: 1,
                version: 3,
            },
            Message::TrainRequest {
                round: 4,
                keep_ratio: 1.0,
            },
            Message::Heartbeat { client_id: 1 },
            Message::Bye { client_id: 1 },
        ];
        for msg in fixed {
            let size = msg.encode().len() - HEADER_LEN;
            for claim in [size - 1, size + 1, MAX_PAYLOAD] {
                let mut header = msg.encode();
                header.truncate(HEADER_LEN);
                header[4..8].copy_from_slice(&(claim as u32).to_le_bytes());
                let name = kind_name(msg.kind());
                assert!(
                    matches!(Message::decode(&header), Err(WireError::Malformed { .. })),
                    "{name} claiming {claim}: {:?}",
                    Message::decode(&header)
                );
                let stream = read_frame_into(&mut io::Cursor::new(&header), &mut Vec::new());
                assert!(
                    matches!(stream, Err(WireError::Malformed { .. })),
                    "{name} claiming {claim} on a stream: {stream:?}"
                );
            }
        }
    }

    /// One buffer across a 2 MB frame, a small frame and a truncated one:
    /// the first two decode exactly, the third fails, and nothing of an
    /// earlier frame leaks into a later one.
    #[test]
    fn a_reused_payload_buffer_carries_nothing_between_frames() {
        let big = Message::ModelPublish {
            version: 3,
            weights: (0..500_000).map(|i| i as f32 * 0.5).collect(),
        };
        let small = Message::Heartbeat { client_id: 8 };
        let cut = sample_update().encode();
        let mut stream = big.encode();
        stream.extend_from_slice(&small.encode());
        stream.extend_from_slice(&cut[..cut.len() - 5]);
        let mut r = io::Cursor::new(stream);
        let mut payload = Vec::new();
        assert_eq!(read_frame_into(&mut r, &mut payload), Ok(Some(big)));
        assert_eq!(read_frame_into(&mut r, &mut payload), Ok(Some(small)));
        assert_eq!(payload.len(), 8, "the small frame's payload alone");
        assert_eq!(
            read_frame_into(&mut r, &mut payload),
            Err(WireError::Truncated {
                needed: cut.len(),
                got: cut.len() - 5,
            })
        );
    }

    /// `encode_delta_into` writes the bytes of the message encoder, and
    /// counts a flipped zero sign and a new NaN payload as changes.
    #[test]
    fn a_delta_written_in_place_is_the_message_encoders_frame() {
        let nan = |bits: u32| f32::from_bits(0x7FC0_0000 | bits);
        let base: Vec<f32> = (0..40)
            .map(|i| i as f32 - 20.0)
            .chain([0.0, nan(1)])
            .collect();
        let mut weights = base.clone();
        weights[3] = 7.5;
        weights[39] = -1.0e-30;
        weights[40] = -0.0;
        weights[41] = nan(2);
        let mut frame = vec![0xAB; 3];
        assert!(encode_delta_into(&mut frame, 6, 5, &base, &weights));
        let expected = Message::ModelPublishDelta(DeltaMsg {
            version: 6,
            base_version: 5,
            total_len: 42,
            indices: vec![3, 39, 40, 41],
            values: vec![7.5, -1.0e-30, -0.0, nan(2)],
        });
        assert_eq!(frame, expected.encode());
        // Unchanged bits are not a delta: an empty residual still pays.
        assert!(encode_delta_into(&mut frame, 6, 5, &base, &base));
        assert_eq!(
            Message::decode(&frame).expect("decode").0,
            Message::ModelPublishDelta(DeltaMsg {
                version: 6,
                base_version: 5,
                total_len: 42,
                indices: vec![],
                values: vec![],
            })
        );
    }

    /// The cut-over: a delta exactly as large as the dense frame is not
    /// written, one entry fewer is.
    #[test]
    fn a_delta_as_large_as_the_dense_frame_is_not_written() {
        // 32 + 8c = 16 + 4n  ⇔  c = (n − 4) / 2.
        let base = vec![1.0f32; 64];
        let mut weights = base.clone();
        weights[..30].fill(2.0);
        let mut frame = vec![0xCD; 5];
        assert!(!encode_delta_into(&mut frame, 1, 0, &base, &weights));
        assert_eq!(
            frame,
            vec![0xCD; 5],
            "a delta that loses leaves the buffer alone"
        );
        weights[29] = 1.0;
        assert!(encode_delta_into(&mut frame, 1, 0, &base, &weights));
        assert!(frame.len() < HEADER_LEN + 16 + 4 * 64);
        // A shape mismatch is never a delta.
        assert!(!encode_delta_into(&mut frame, 1, 0, &base[1..], &weights));
    }

    /// One scan copies the new model into the snapshot whatever the delta
    /// costs, and records exactly the positions a position-by-position
    /// comparison finds: across a whole changed block, scattered changes
    /// and the short last block.
    #[test]
    fn a_scan_fills_the_snapshot_and_records_what_changed() {
        let n = 3 * SCAN_BLOCK + 100;
        let base: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut weights = base.clone();
        weights[SCAN_BLOCK..2 * SCAN_BLOCK].fill(-1.0);
        for i in [3, 2 * SCAN_BLOCK + 5, n - 1] {
            weights[i] = f32::from_bits(weights[i].to_bits() ^ 1);
        }
        let mut changes = Changes::default();
        let mut snapshot = vec![7.0; 11];
        assert!(changes.scan(&base, &weights, Some(&mut snapshot)));
        assert_eq!(snapshot, weights);
        let (indices, values): (Vec<u32>, Vec<f32>) = (0..n)
            .filter(|&i| base[i].to_bits() != weights[i].to_bits())
            .map(|i| (i as u32, weights[i]))
            .unzip();
        assert_eq!((&changes.indices, &changes.values), (&indices, &values));

        // A delta that cannot pay, and a shape mismatch: still copied.
        let dense: Vec<f32> = base.iter().map(|w| w + 0.5).collect();
        assert!(!changes.scan(&base, &dense, Some(&mut snapshot)));
        assert_eq!(snapshot, dense);
        assert!(!changes.scan(&base[1..], &weights, Some(&mut snapshot)));
        assert_eq!(snapshot, weights);
    }

    #[test]
    fn wire_errors_surface_as_typed_fl_errors() {
        let e: FlError = WireError::BadMagic { found: 0xBEEF }.into();
        assert!(matches!(e, FlError::Protocol { .. }));
        let e: FlError = WireError::Io {
            kind: io::ErrorKind::ConnectionReset,
            detail: "peer reset".into(),
        }
        .into();
        assert!(matches!(e, FlError::Io { .. }));
    }
}
