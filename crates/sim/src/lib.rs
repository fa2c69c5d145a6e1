//! # feddrl-sim — system models for the FedDRL reproduction
//!
//! Quantifies the paper's §3.5 practicality claims and models the device
//! heterogeneity real federated deployments face:
//!
//! * [`comm`] — analytic per-round communication traffic for
//!   FedAvg/FedProx/FedDRL, showing FedDRL's extra cost is two floats per
//!   client per round;
//! * [`device`] — seeded per-client device profiles: compute speed,
//!   uplink bandwidth/latency, and a per-device dropout rate (spread
//!   around the fleet's base rate, optionally correlated with compute
//!   speed — the reliability model), derived lazily per index
//!   ([`device::FleetView`]) so fleet size is a free variable;
//! * [`event`] — the discrete-event core (virtual clock + deterministic
//!   event queue) that schedules upload completions against round
//!   deadlines;
//! * [`churn`] — the fleet-dynamics layer: seeded arrival/departure
//!   processes emitting `ClientJoin`/`ClientLeave` events on the virtual
//!   clock, composing with the per-device diurnal availability cycle
//!   ([`device::DiurnalConfig`]) so fleets breathe instead of standing
//!   still;
//! * [`ids`] — hashed sets and maps keyed by client id, over one fixed
//!   hasher, for the per-client tables executors probe every round.
//!
//! The device and event modules form the *heterogeneity engine* the
//! federated simulator's deadline-bounded round executor
//! (`feddrl_fl::executor`) is built on: `feddrl_fl` depends on this crate,
//! so everything here is strategy-agnostic by design.

#![warn(missing_docs)]

pub mod churn;
pub mod comm;
pub mod device;
pub mod event;
pub mod ids;

/// Convenient glob import.
pub mod prelude {
    pub use crate::churn::{ChurnProcess, CHURN_SALT};
    pub use crate::comm::{CommModel, RoundTraffic};
    pub use crate::device::{
        ChurnConfig, DeviceProfile, DiurnalConfig, DropoutCorrelation, FleetConfig, FleetView,
        ReliabilityConfig,
    };
    pub use crate::event::{Event, EventKind, EventQueue, VirtualClock};
    pub use crate::ids::IdSet;
}
