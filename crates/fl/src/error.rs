//! Typed errors for federated orchestration.
//!
//! [`SessionBuilder::build`](crate::session::SessionBuilder::build) turns
//! every configuration mistake — `K > N`, zero rounds or participants, a
//! degenerate deadline, fleet, aggregation buffer or staleness discount —
//! into an [`FlError`] the caller can match on *before* any training
//! compute is spent.

use std::fmt;

/// Everything that can go wrong while configuring or driving a federated
/// [`Session`](crate::session::Session).
#[derive(Debug, Clone, PartialEq)]
pub enum FlError {
    /// `rounds == 0`: the run would record nothing.
    ZeroRounds,
    /// `participants == 0`: no client could ever be sampled.
    ZeroParticipants,
    /// `participants > n_clients`: sampling without replacement is
    /// impossible.
    ParticipantsExceedClients {
        /// Requested participants per round `K`.
        participants: usize,
        /// Clients available in the partition `N`.
        n_clients: usize,
    },
    /// A deadline-bounded executor was configured with a non-positive or
    /// non-finite round deadline.
    InvalidDeadline {
        /// The rejected deadline in simulated seconds.
        deadline_s: f64,
    },
    /// The device-fleet configuration is degenerate (non-positive compute
    /// or bandwidth, skew below 1, negative latency, or certain dropout).
    InvalidFleet {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The fleet's per-device reliability model is degenerate: a dropout
    /// spread below 1, a speed-correlation strength outside `[0, 1]`, or
    /// a `dropout * dropout_skew` product that would push some device's
    /// rate to a certainty.
    InvalidReliability {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The fleet-dynamics configuration is degenerate: a non-positive or
    /// non-finite diurnal period or churn gap, a modulation amplitude
    /// outside `[0, 1)`, a diurnal peak that would push some device's
    /// effective dropout rate to a certainty, or a structured-dropout
    /// block with an empty ratio grid.
    InvalidDynamics {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A buffered executor was configured with `buffer_size == 0`:
    /// aggregation would never fire.
    ZeroBuffer,
    /// A buffered executor's `buffer_size` exceeds the participants
    /// sampled per round: the buffer could starve the opening rounds.
    BufferExceedsParticipants {
        /// Requested aggregation buffer size `m`.
        buffer_size: usize,
        /// Participants dispatched per round `K`.
        participants: usize,
    },
    /// A staleness discount with invalid parameters (e.g. a non-finite or
    /// negative polynomial exponent).
    InvalidDiscount {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A buffered executor's server mixing rate is outside `(0, 1]`.
    InvalidServerMix {
        /// The rejected mixing rate `η`.
        server_mix: f64,
    },
    /// A server optimizer with invalid hyper-parameters: a non-positive
    /// or non-finite learning rate or adaptivity floor `τ`, or a moment
    /// decay `β` outside `[0, 1)`.
    InvalidServerOpt {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A [`SelectionPolicy`](crate::selection::SelectionPolicy) returned an
    /// invalid sample: wrong cardinality, duplicate ids, or ids outside
    /// `[0, N)`. Only user-defined policies can trigger this — the
    /// built-ins are total over valid contexts.
    InvalidSelection {
        /// Round in which the policy misbehaved.
        round: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A [`Strategy`](crate::strategy::Strategy) returned impact factors
    /// that cannot be normalized onto the simplex: wrong cardinality, a
    /// negative or non-finite entry, or an all-zero vector. Only
    /// user-defined strategies can trigger this.
    InvalidFactors {
        /// Round in which the strategy misbehaved.
        round: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A client update whose shape disagrees with the global model — a
    /// weight vector or a mask of another length — or that reports a
    /// non-finite loss. The built-in local solvers cannot produce the
    /// former; a user-supplied `train_fn`, an executor or a network peer
    /// can, and aggregating it would index out of step. A NaN or infinite
    /// loss would poison FedDRL's state vector.
    InvalidUpdate {
        /// Round in which the update arrived.
        round: usize,
        /// The client the update claims to come from.
        client_id: usize,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A socket-level I/O failure in the networked runtime (bind, accept,
    /// read or write on a client connection). Carries the `io::ErrorKind`
    /// name plus context rather than the `std::io::Error` itself, which is
    /// neither `Clone` nor `PartialEq`.
    Io {
        /// Human-readable description: the failing operation and the
        /// underlying `io::ErrorKind`.
        reason: String,
    },
    /// A wire-protocol violation in the networked runtime: bad frame
    /// magic, an unsupported protocol version, an unknown message kind, a
    /// truncated or oversized frame, or a malformed payload.
    Protocol {
        /// Human-readable description of the violated rule.
        reason: String,
    },
    /// A networked-runtime builder (`NetServerBuilder`/`NetClientBuilder`)
    /// was given a degenerate configuration: an empty address, or a
    /// non-positive TTL or heartbeat period.
    InvalidNetConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The first three messages are the historical panic strings of the
        // pre-session loop, verbatim: `should_panic(expected)` tests that
        // panic with them match on substrings.
        match self {
            FlError::ZeroRounds => write!(f, "rounds must be positive"),
            FlError::ZeroParticipants => write!(f, "participants must be positive"),
            FlError::ParticipantsExceedClients {
                participants,
                n_clients,
            } => write!(f, "K = {participants} exceeds N = {n_clients}"),
            FlError::InvalidDeadline { deadline_s } => write!(
                f,
                "round deadline must be positive and finite, got {deadline_s}"
            ),
            FlError::InvalidFleet { reason } => write!(f, "invalid fleet config: {reason}"),
            FlError::InvalidReliability { reason } => {
                write!(f, "invalid reliability model: {reason}")
            }
            FlError::InvalidDynamics { reason } => {
                write!(f, "invalid fleet dynamics: {reason}")
            }
            FlError::ZeroBuffer => write!(f, "aggregation buffer must be positive"),
            FlError::BufferExceedsParticipants {
                buffer_size,
                participants,
            } => write!(
                f,
                "aggregation buffer m = {buffer_size} exceeds participants K = {participants}"
            ),
            FlError::InvalidDiscount { reason } => {
                write!(f, "invalid staleness discount: {reason}")
            }
            FlError::InvalidServerMix { server_mix } => {
                write!(f, "server mixing rate must be in (0, 1], got {server_mix}")
            }
            FlError::InvalidServerOpt { reason } => {
                write!(f, "invalid server optimizer: {reason}")
            }
            FlError::InvalidSelection { round, reason } => write!(
                f,
                "round {round}: selection policy returned an invalid sample: {reason}"
            ),
            FlError::InvalidFactors { round, reason } => write!(
                f,
                "round {round}: strategy returned invalid impact factors: {reason}"
            ),
            FlError::InvalidUpdate {
                round,
                client_id,
                reason,
            } => write!(
                f,
                "round {round}: client {client_id} returned an invalid update: {reason}"
            ),
            FlError::Io { reason } => write!(f, "network i/o error: {reason}"),
            FlError::Protocol { reason } => write!(f, "wire protocol violation: {reason}"),
            FlError::InvalidNetConfig { reason } => {
                write!(f, "invalid network config: {reason}")
            }
        }
    }
}

impl std::error::Error for FlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_preserve_historical_panic_strings() {
        assert_eq!(FlError::ZeroRounds.to_string(), "rounds must be positive");
        assert_eq!(
            FlError::ZeroParticipants.to_string(),
            "participants must be positive"
        );
        let e = FlError::ParticipantsExceedClients {
            participants: 7,
            n_clients: 6,
        };
        assert!(e.to_string().contains("exceeds N"));
    }

    #[test]
    fn buffered_messages_name_the_offending_knob() {
        assert_eq!(
            FlError::ZeroBuffer.to_string(),
            "aggregation buffer must be positive"
        );
        let e = FlError::BufferExceedsParticipants {
            buffer_size: 8,
            participants: 5,
        };
        assert!(e.to_string().contains("m = 8 exceeds participants K = 5"));
        let e = FlError::InvalidDiscount {
            reason: "bad alpha".into(),
        };
        assert!(e.to_string().contains("staleness discount: bad alpha"));
        let e = FlError::InvalidReliability {
            reason: "strength must be in [0, 1], got 2".into(),
        };
        assert!(e.to_string().contains("reliability model: strength"));
        let e = FlError::InvalidDynamics {
            reason: "diurnal period must be positive".into(),
        };
        assert!(e.to_string().contains("fleet dynamics: diurnal period"));
        let e = FlError::InvalidServerOpt {
            reason: "lr must be positive and finite, got 0".into(),
        };
        assert!(e.to_string().contains("server optimizer: lr"));
    }

    #[test]
    fn network_messages_name_their_surface() {
        let e = FlError::Io {
            reason: "accept on 127.0.0.1:0: ConnectionReset".into(),
        };
        assert!(e.to_string().contains("network i/o error: accept"));
        let e = FlError::Protocol {
            reason: "bad frame magic 0xBEEF".into(),
        };
        assert!(e.to_string().contains("wire protocol violation: bad frame"));
        let e = FlError::InvalidNetConfig {
            reason: "server address must not be empty".into(),
        };
        assert!(e.to_string().contains("invalid network config: server"));
    }

    #[test]
    fn is_an_error_type() {
        let e: Box<dyn std::error::Error> = Box::new(FlError::ZeroRounds);
        assert!(e.to_string().contains("rounds"));
    }
}
