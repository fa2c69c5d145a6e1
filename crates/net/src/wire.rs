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
    /// Payload length in bytes (validated against [`MAX_PAYLOAD`]).
    pub payload_len: usize,
}

impl FrameHeader {
    /// Parse and validate the fixed-size header: magic, version, kind and
    /// the payload length bound, in that order (so the caller learns the
    /// *first* violated rule).
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
        Ok(FrameHeader {
            version,
            kind,
            payload_len,
        })
    }
}

// --- payload writers -------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `values` as little-endian 4-byte words: the buffer grown once,
/// then filled four bytes at a time (one `extend_from_slice` per float
/// cost three times as much on a 530 k-weight update).
fn put_words<T: Copy>(out: &mut Vec<u8>, values: &[T], to_le_bytes: impl Fn(T) -> [u8; 4]) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (word, &v) in out[start..].chunks_exact_mut(4).zip(values) {
        word.copy_from_slice(&to_le_bytes(v));
    }
}

fn put_weights(out: &mut Vec<u8>, weights: &[f32]) {
    put_u64(out, weights.len() as u64);
    put_words(out, weights, f32::to_le_bytes);
}

/// Start a frame in `frame`, replacing its contents: the header, its
/// payload length left zero for [`finish_frame`], and room for
/// `payload_hint` payload bytes.
fn begin_frame(frame: &mut Vec<u8>, kind: u8, payload_hint: usize) {
    frame.clear();
    frame.reserve(HEADER_LEN + payload_hint);
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.push(PROTOCOL_VERSION);
    frame.push(kind);
    frame.extend_from_slice(&[0; 4]);
}

/// Patch the length of the payload written behind the header into it.
fn finish_frame(frame: &mut [u8]) {
    let payload_len = frame.len() - HEADER_LEN;
    assert!(
        payload_len <= MAX_PAYLOAD,
        "encoded payload of {payload_len} bytes exceeds MAX_PAYLOAD"
    );
    frame[4..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Write the `ModelPublish` frame of `weights` into `frame`: the bytes of
/// `Message::ModelPublish { version, weights }.encode()`, without copying
/// the weights into a message first.
pub(crate) fn encode_publish_into(frame: &mut Vec<u8>, version: u64, weights: &[f32]) {
    begin_frame(frame, KIND_MODEL_PUBLISH, 16 + 4 * weights.len());
    put_u64(frame, version);
    put_weights(frame, weights);
    finish_frame(frame);
}

/// Write the exact sparse delta taking `base` (at `base_version`) to
/// `weights` into `frame` — the bytes `Message::ModelPublishDelta(..)
/// .encode()` would produce — if it is smaller than the dense frame.
///
/// Positions are compared by bit pattern, so a flipped zero sign or a new
/// NaN payload is a change and reconstruction is exact. The changes are
/// counted first: a delta that would not pay (or a shape mismatch, or a
/// model too long for `u32` indices) returns `false` and leaves `frame`
/// alone, and one that pays is written straight into its frame bytes.
pub(crate) fn encode_delta_into(
    frame: &mut Vec<u8>,
    version: u64,
    base_version: u64,
    base: &[f32],
    weights: &[f32],
) -> bool {
    if base.len() != weights.len() || weights.len() > u32::MAX as usize {
        return false;
    }
    let changed = |(b, w): &(&f32, &f32)| b.to_bits() != w.to_bits();
    let count = base.iter().zip(weights).filter(changed).count();
    // Delta payload: 4 u64 header fields + 8 bytes per entry; dense
    // payload: 2 u64s + 4 bytes per weight. Send the smaller frame.
    if 32 + 8 * count >= 16 + 4 * weights.len() {
        return false;
    }
    begin_frame(frame, KIND_MODEL_PUBLISH_DELTA, 32 + 8 * count);
    put_u64(frame, version);
    put_u64(frame, base_version);
    put_u64(frame, weights.len() as u64);
    put_u64(frame, count as u64);
    let start = frame.len();
    frame.resize(start + 8 * count, 0);
    let (indices, values) = frame[start..].split_at_mut(4 * count);
    let slots = indices.chunks_exact_mut(4).zip(values.chunks_exact_mut(4));
    let changes = base
        .iter()
        .zip(weights)
        .enumerate()
        .filter(|(_, p)| changed(p));
    for ((index, value), (i, (_, w))) in slots.zip(changes) {
        index.copy_from_slice(&(i as u32).to_le_bytes());
        value.copy_from_slice(&w.to_le_bytes());
    }
    finish_frame(frame);
    true
}

// --- payload reader --------------------------------------------------------

/// Sequential reader over a payload slice; every overrun is a typed
/// [`WireError::Malformed`] naming what was being read.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed {
                detail: format!(
                    "payload ended reading {what}: needed {n} bytes at offset {}, had {}",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f32(&mut self, what: &str) -> Result<f32, WireError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn weights(&mut self) -> Result<Vec<f32>, WireError> {
        let count = self.u64("weight count")? as usize;
        // The count must agree with the bytes actually present *before*
        // the allocation, so a corrupt count cannot OOM.
        let available = (self.buf.len() - self.pos) / 4;
        if count > available {
            return Err(WireError::Malformed {
                detail: format!("weight count {count} exceeds the {available} encoded"),
            });
        }
        let raw = self.take(count * 4, "weight data")?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Read `count` little-endian `u32`s, checking the count against the
    /// bytes actually present *before* allocating (same OOM defense as
    /// [`Cursor::weights`]).
    fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, WireError> {
        let available = (self.buf.len() - self.pos) / 4;
        if count > available {
            return Err(WireError::Malformed {
                detail: format!("{what} count {count} exceeds the {available} encoded"),
            });
        }
        let raw = self.take(count * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Read `count` raw-bit `f32`s with the same pre-allocation check.
    fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, WireError> {
        let available = (self.buf.len() - self.pos) / 4;
        if count > available {
            return Err(WireError::Malformed {
                detail: format!("{what} count {count} exceeds the {available} encoded"),
            });
        }
        let raw = self.take(count * 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed {
                detail: format!("{} trailing bytes after {what}", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }
}

/// Decode a validated-header payload into its [`Message`]. `kind` must
/// come from [`FrameHeader::parse`] (unsupported versions and unknown
/// kinds are rejected there).
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut c = Cursor::new(payload);
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
            let indices = c.u32s(count, "ModelPublishDelta.indices")?;
            let values = c.f32s(count, "ModelPublishDelta.values")?;
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
        // Room for the fixed fields of the largest payload grammar
        // (`MaskedUpdate`, 72 bytes) and the 4-byte words of the bulk part.
        let bulk_words = match self {
            Message::ModelPublish { weights, .. } => weights.len(),
            Message::ModelPublishDelta(d) => d.indices.len() + d.values.len(),
            Message::Update(u) => u.weights.len(),
            Message::MaskedUpdate(u) => u.kept_weights.len(),
            _ => 0,
        };
        begin_frame(frame, self.kind(), 72 + 4 * bulk_words);
        let payload = &mut *frame;
        match self {
            Message::Hello {
                client_id,
                min_version,
                max_version,
            } => {
                put_u64(payload, *client_id);
                payload.push(*min_version);
                payload.push(*max_version);
            }
            Message::HelloAck { client_id, version } => {
                put_u64(payload, *client_id);
                payload.push(*version);
            }
            Message::ModelPublish { version, weights } => {
                put_u64(payload, *version);
                put_weights(payload, weights);
            }
            Message::ModelPublishDelta(d) => {
                assert_eq!(
                    d.indices.len(),
                    d.values.len(),
                    "delta indices and values must pair up"
                );
                put_u64(payload, d.version);
                put_u64(payload, d.base_version);
                put_u64(payload, d.total_len);
                put_u64(payload, d.indices.len() as u64);
                put_words(payload, &d.indices, u32::to_le_bytes);
                put_words(payload, &d.values, f32::to_le_bytes);
            }
            Message::PublishAck { client_id, version } => {
                put_u64(payload, *client_id);
                put_u64(payload, *version);
            }
            Message::TrainRequest { round, keep_ratio } => {
                put_u64(payload, *round);
                put_f64(payload, *keep_ratio);
            }
            Message::Update(u) => {
                put_u64(payload, u.client_id);
                put_u64(payload, u.round);
                put_u64(payload, u.model_version);
                put_u64(payload, u.staleness);
                put_u64(payload, u.n_samples);
                put_f32(payload, u.loss_before);
                put_f32(payload, u.loss_after);
                put_weights(payload, &u.weights);
            }
            Message::MaskedUpdate(u) => {
                put_u64(payload, u.client_id);
                put_u64(payload, u.round);
                put_u64(payload, u.model_version);
                put_u64(payload, u.staleness);
                put_u64(payload, u.n_samples);
                put_f32(payload, u.loss_before);
                put_f32(payload, u.loss_after);
                put_f64(payload, u.keep_ratio);
                put_u64(payload, u.total_len);
                put_weights(payload, &u.kept_weights);
            }
            Message::Heartbeat { client_id } => put_u64(payload, *client_id),
            Message::Bye { client_id } => put_u64(payload, *client_id),
        }
        finish_frame(frame);
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
    w.write_all(&msg.encode())?;
    w.flush()?;
    Ok(())
}

/// Read one frame from a stream. `Ok(None)` on a clean end-of-stream at a
/// frame boundary; EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Message>, WireError> {
    read_frame_into(r, &mut Vec::new())
}

/// Read one frame like [`read_frame`], staging its payload in `payload`,
/// a buffer the caller keeps across frames. The buffer is cleared and
/// grows only as bytes arrive: a connection reading many frames allocates
/// only when one outgrows all before it, and a header that claims more
/// than the stream delivers pins no more memory than what came.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
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
    payload.clear();
    r.by_ref()
        .take(fh.payload_len as u64)
        .read_to_end(payload)?;
    if payload.len() < fh.payload_len {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + fh.payload_len,
            got: HEADER_LEN + payload.len(),
        });
    }
    decode_payload(fh.kind, payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A header claiming the largest payload, then silence: the read
    /// fails `Truncated` and the caller's buffer holds on to no more than
    /// what arrived.
    #[test]
    fn a_header_alone_cannot_pin_its_claimed_payload() {
        let mut frame = Message::Heartbeat { client_id: 1 }.encode();
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
