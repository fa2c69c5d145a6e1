//! Fluent, validating constructors for the networked runtime, mirroring
//! the in-process `SessionBuilder`: every knob has a sane default, every
//! degenerate value is a typed [`FlError::InvalidNetConfig`] at
//! `build()` time rather than a panic (or silent misbehavior) later.

use std::time::Duration;

use feddrl_fl::error::FlError;

use crate::client::ClientConfig;
use crate::server::{NetServer, ServerConfig};

/// Builder for a [`NetServer`]: bind address, liveness TTL and the
/// delta-publish knobs, validated at [`NetServerBuilder::build`].
///
/// ```no_run
/// use feddrl_net::prelude::*;
/// # fn main() -> Result<(), feddrl_fl::error::FlError> {
/// let server = NetServerBuilder::new()
///     .ttl(std::time::Duration::from_secs(2))
///     .delta_publish(true)
///     .build()?;
/// println!("listening on {}", server.local_addr());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetServerBuilder {
    addr: String,
    cfg: ServerConfig,
}

impl Default for NetServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetServerBuilder {
    /// A server on an ephemeral loopback port (`127.0.0.1:0`) with the
    /// default [`ServerConfig`]: 5 s TTL, delta publishes off.
    pub fn new() -> Self {
        NetServerBuilder {
            addr: "127.0.0.1:0".into(),
            cfg: ServerConfig::default(),
        }
    }

    /// Bind address. Keep port 0 unless a fixed port is genuinely
    /// required — the OS-assigned port is recoverable from
    /// [`NetServer::local_addr`], and fixed ports are how CI runs
    /// collide.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Liveness TTL: a client silent for longer is swept into the
    /// departed set.
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.cfg.ttl = ttl;
        self
    }

    /// Enable delta-compressed publishes to peers with an acked base.
    pub fn delta_publish(mut self, on: bool) -> Self {
        self.cfg.delta_publish = on;
        self
    }

    /// Validate the configuration, bind the socket and start the accept
    /// thread.
    ///
    /// # Errors
    /// [`FlError::InvalidNetConfig`] on an empty address or a zero TTL;
    /// [`FlError::Io`] when the bind itself fails.
    pub fn build(self) -> Result<NetServer, FlError> {
        if self.addr.trim().is_empty() {
            return Err(FlError::InvalidNetConfig {
                reason: "bind address must not be empty".into(),
            });
        }
        if self.cfg.ttl.is_zero() {
            return Err(FlError::InvalidNetConfig {
                reason: "liveness TTL must be positive".into(),
            });
        }
        NetServer::bind_with(&self.addr, self.cfg).map_err(FlError::from)
    }
}

/// Builder for a [`ClientConfig`]: server address and client id are
/// required, heartbeat and train-delay knobs optional, everything
/// validated at [`NetClientBuilder::build`].
///
/// ```
/// use feddrl_net::prelude::*;
/// # fn main() -> Result<(), feddrl_fl::error::FlError> {
/// let cfg = NetClientBuilder::new("127.0.0.1:0", 3)
///     .heartbeat(std::time::Duration::from_millis(100))
///     .build()?;
/// assert_eq!(cfg.client_id, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetClientBuilder {
    server_addr: String,
    client_id: usize,
    heartbeat: Duration,
    train_delay: Duration,
}

impl NetClientBuilder {
    /// A client configuration for `client_id`, connecting to
    /// `server_addr`, with the default 500 ms heartbeat and no simulated
    /// train delay.
    pub fn new(server_addr: impl Into<String>, client_id: usize) -> Self {
        NetClientBuilder {
            server_addr: server_addr.into(),
            client_id,
            heartbeat: Duration::from_millis(500),
            train_delay: Duration::ZERO,
        }
    }

    /// Heartbeat period; must stay well under the server's TTL or the
    /// client will be swept as departed mid-run.
    pub fn heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = period;
        self
    }

    /// Artificial delay before answering each `TrainRequest` — a
    /// straggler knob for tests and benchmarks.
    pub fn train_delay(mut self, delay: Duration) -> Self {
        self.train_delay = delay;
        self
    }

    /// Validate and produce the [`ClientConfig`] that
    /// [`run_client`](crate::client::run_client) consumes.
    ///
    /// # Errors
    /// [`FlError::InvalidNetConfig`] on an empty server address or a zero
    /// heartbeat period.
    pub fn build(self) -> Result<ClientConfig, FlError> {
        if self.server_addr.trim().is_empty() {
            return Err(FlError::InvalidNetConfig {
                reason: "server address must not be empty".into(),
            });
        }
        if self.heartbeat.is_zero() {
            return Err(FlError::InvalidNetConfig {
                reason: "heartbeat period must be positive".into(),
            });
        }
        Ok(ClientConfig {
            server_addr: self.server_addr,
            client_id: self.client_id,
            heartbeat: self.heartbeat,
            train_delay: self.train_delay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_builder_defaults_bind_an_ephemeral_port() {
        let server = NetServerBuilder::new().build().expect("bind");
        assert_ne!(server.local_addr().port(), 0, "OS assigned a real port");
        assert_eq!(server.ttl_ms(), 5_000);
    }

    #[test]
    fn server_builder_rejects_degenerate_knobs() {
        let e = NetServerBuilder::new().addr("  ").build().unwrap_err();
        assert!(matches!(e, FlError::InvalidNetConfig { .. }), "{e}");
        let e = NetServerBuilder::new()
            .ttl(Duration::ZERO)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("TTL must be positive"), "{e}");
    }

    #[test]
    fn client_builder_applies_knobs_and_validates() {
        let cfg = NetClientBuilder::new("127.0.0.1:9", 7)
            .heartbeat(Duration::from_millis(50))
            .train_delay(Duration::from_millis(5))
            .build()
            .expect("valid");
        assert_eq!(cfg.server_addr, "127.0.0.1:9");
        assert_eq!(cfg.client_id, 7);
        assert_eq!(cfg.heartbeat, Duration::from_millis(50));
        assert_eq!(cfg.train_delay, Duration::from_millis(5));

        let e = NetClientBuilder::new("", 0).build().unwrap_err();
        assert!(e.to_string().contains("server address"), "{e}");
        let e = NetClientBuilder::new("127.0.0.1:9", 0)
            .heartbeat(Duration::ZERO)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("heartbeat"), "{e}");
    }
}
