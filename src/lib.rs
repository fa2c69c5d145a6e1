//! # feddrl-repro — root facade of the FedDRL (ICPP'22) reproduction
//!
//! Re-exports every crate of the workspace so examples and integration
//! tests can `use feddrl_repro::prelude::*`. See the individual crates for
//! the real documentation:
//!
//! * [`feddrl`] — the FedDRL aggregation strategy and two-stage training;
//! * [`feddrl_fl`] — the synchronous federated-learning simulator;
//! * [`feddrl_drl`] — the DDPG agent with TD-prioritized replay;
//! * [`feddrl_data`] — synthetic federated datasets and non-IID
//!   partitioners (including the paper's novel cluster-skew CE/CN);
//! * [`feddrl_nn`] — the pure-Rust deep-learning substrate;
//! * [`feddrl_sim`] — the communication overhead model plus the
//!   discrete-event heterogeneity engine (device fleets, virtual clock,
//!   event queue) behind `feddrl_fl`'s deadline-bounded round executor;
//! * [`feddrl_net`] — the networked runtime: length-prefixed wire
//!   protocol with a negotiated version handshake, wire-level sub-model
//!   dispatch and delta-compressed publishes, TCP server/worker
//!   processes, heartbeat liveness registry, and the `NetworkExecutor`
//!   that plugs real transport into the unchanged session loop.

#![warn(missing_docs)]

pub use feddrl;
pub use feddrl_data;
pub use feddrl_drl;
pub use feddrl_fl;
pub use feddrl_net;
pub use feddrl_nn;
pub use feddrl_sim;

/// Everything, via the `feddrl` crate's prelude plus the sim helpers.
///
/// # Re-export policy
///
/// Each workspace crate owns a `prelude` that re-exports **only the types a
/// downstream caller needs to drive that crate** (entry points, config
/// structs, the handful of result types they pattern-match on) — never whole
/// modules and never internals. Preludes compose transitively along the
/// dependency chain (`feddrl::prelude` already pulls in the `fl`, `drl`,
/// `data` and `nn` preludes), so this facade only has to merge the top of
/// the chain: [`feddrl::prelude`] plus [`feddrl_sim::prelude`] — `sim`
/// sits beneath `fl` (the deadline executor builds on its device/event
/// engine) but its prelude is not re-exported along the chain, so the
/// facade merges it explicitly.
///
/// Rules for growing it:
///
/// * a name goes into a crate's prelude the first time an example, test or
///   bench outside that crate needs it — not before;
/// * name collisions across crates are **not** tolerated here: if two crates
///   export the same identifier, the facade must re-export one of them
///   explicitly and the loser stays path-qualified (today there is exactly
///   one glob-shadowing hazard, `Strategy`, which integration tests
///   disambiguate with `use proptest::strategy::Strategy as _`);
/// * removing anything from a prelude is a breaking change to every example
///   and experiment binary, so prefer adding `#[doc(hidden)]` deprecation
///   shims over deletion.
pub mod prelude {
    pub use feddrl::prelude::*;
    pub use feddrl_net::prelude::*;
    pub use feddrl_sim::prelude::*;
}
