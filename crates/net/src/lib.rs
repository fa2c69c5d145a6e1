//! # feddrl-net — networked FL runtime over real sockets
//!
//! Takes the FedDRL (ICPP'22) reproduction off the simulator and onto
//! TCP: a versioned, length-prefixed wire protocol, a server process
//! with a heartbeat-driven liveness registry, a worker loop that trains
//! on demand, and a [`executor::NetworkExecutor`] implementing the
//! existing [`RoundExecutor`](feddrl_fl::executor::RoundExecutor) trait
//! — so the unchanged `Session`, selection policies and aggregation
//! strategies drive real transport exactly as they drive the
//! discrete-event simulator.
//!
//! * [`wire`] — the frame codec: `0xFD7E` magic, protocol version, kind
//!   byte, `u32` length prefix; typed [`wire::WireError`]s that convert
//!   into [`FlError::Io`](feddrl_fl::error::FlError) /
//!   [`FlError::Protocol`](feddrl_fl::error::FlError);
//! * [`registry`] — who is subscribed, heartbeat TTLs, permanent
//!   departure semantics matching the simulator's churn;
//! * [`server`] — accept loop, per-connection receive threads, a publish
//!   that writes to the peers from the caller's thread, condvar-signalled
//!   update inbox and subscriptions;
//! * [`client`] — [`client::run_client`]: subscribe, heartbeat, train
//!   via any closure (the repo's real local trainer or a stub), report;
//! * [`executor`] — barrier and buffered collection over the above,
//!   with measured RTT/staleness telemetry;
//! * [`builder`] — [`builder::NetServerBuilder`] /
//!   [`builder::NetClientBuilder`], the validating entry points
//!   mirroring the in-process `SessionBuilder`.
//!
//! Protocol version 2 — the only version spoken; the `Hello`/`HelloAck`
//! range handshake counts and hangs up on a peer offering anything else
//! — carries wire-level sub-model dispatch
//! (`TrainRequest { keep_ratio < 1 }` answered by a compact
//! `MaskedUpdate` — both ends derive the structured mask from the shared
//! seed, so it never travels) and delta-compressed publishes
//! (`ModelPublishDelta` against the receiver's last-acked version, with
//! automatic dense fallback). See `docs/NETWORKING.md` for the frame
//! grammar and negotiation state machine.
//!
//! Concurrency is plain threads and `std::sync`; there is no async
//! runtime, no thread spawned per frame, no external dependency, and no
//! wait that polls: every thread blocks on its socket, a condvar or a
//! channel, and shutdown wakes them by closing sockets. Receive loops
//! and the worker's sends stream every frame through one bounded chunk
//! buffer per connection, and the server's publish keeps its frames,
//! snapshots and delta entries from one publish to the next.
//!
//! ## Determinism
//!
//! With every worker live and a round-barrier executor, a networked run
//! whose workers compute the same deterministic function as an
//! in-process stub reproduces the `IdealExecutor`'s `RunHistory`
//! byte-for-byte (timing fields aside): updates are reassembled into
//! sampling order, staleness is zero, and `f32` weights cross the wire
//! bit-exactly. The `net_props` integration suite pins this law.

pub mod builder;
pub mod client;
pub mod executor;
pub mod registry;
pub mod server;
pub mod wire;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, recovering the guard if another thread panicked while
/// holding it, so one panicked thread does not fail every later lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::builder::{NetClientBuilder, NetServerBuilder};
    pub use crate::client::{run_client, ClientConfig, ClientReport, TrainOrder};
    pub use crate::executor::{NetMode, NetTelemetry, NetworkExecutor, WireMasking};
    pub use crate::registry::{Registry, RegistryEntry};
    pub use crate::server::{InboundUpdate, MaskedWireInfo, NetServer, PublishStats, ServerConfig};
    pub use crate::wire::{
        negotiate, read_frame, read_frame_into, write_frame, write_frame_with, DeltaMsg,
        MaskedUpdateMsg, Message, UpdateMsg, WireError, FRAME_MAGIC, HEADER_LEN, MAX_PAYLOAD,
        PROTOCOL_VERSION, PROTOCOL_VERSION_MAX, PROTOCOL_VERSION_MIN,
    };
}
