//! The federated server's network runtime: accept loop, per-connection
//! receive threads, model fan-out, and the update inbox.
//!
//! [`NetServer`] owns a blocking [`TcpListener`] served by a dedicated
//! accept thread; every connection gets its own receive thread that
//! reads frames with [`read_frame_into`] and routes them by kind —
//! `Hello`/`Heartbeat` refresh the [`Registry`], `Update` lands in a
//! condvar-signalled inbox drained by [`NetServer::recv_update`], and
//! `Bye` marks permanent departure. Model broadcast
//! ([`NetServer::publish`]) runs on the caller's thread: it encodes each
//! distinct frame once, into buffers the server keeps across publishes,
//! and writes it to the subscribed peers one after another.
//!
//! There is no async runtime anywhere in this crate, and no wait polls:
//! all concurrency is plain threads and `std::sync`, and every thread
//! blocks on its event. Receive threads keep one chunk buffer for the
//! life of their connection. [`NetServer::shutdown`] (and `Drop`) wakes
//! the accept thread with one connection to the server's own address, and
//! the accept thread then shuts down every socket it accepted, so each
//! blocked read returns and all threads join.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::lock;
use crate::registry::Registry;
use crate::wire::{
    dense_frame_len, encode_publish_into, negotiate, read_frame_into, write_frame, Changes,
    Message, UpdateMsg, WireError,
};

/// How long the accept thread waits before retrying after `accept`
/// fails (out of file descriptors and the like), so a persistent error
/// does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How many recent `(version, weights)` snapshots a delta-publishing
/// server keeps as bases. A peer whose acked base has fallen out of the
/// ring gets a full frame instead.
const SNAPSHOT_RING: usize = 8;

/// Tuning knobs for a [`NetServer`]. Prefer constructing through
/// [`NetServerBuilder`](crate::builder::NetServerBuilder), which
/// validates these at `build()` time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Liveness TTL: a client silent for longer than this is swept into
    /// the departed set on the next [`NetServer::sweep_expired`].
    pub ttl: Duration,
    /// When `true`, publishes to peers that have acked a cached version
    /// are delta-encoded against it (exact, sparse)
    /// whenever that is smaller than the dense frame. Off by default —
    /// the loopback byte-identity law runs with every knob off.
    pub delta_publish: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ttl: Duration::from_secs(5),
            delta_publish: false,
        }
    }
}

/// Cumulative bytes-on-wire accounting for [`NetServer::publish`], the
/// evidence the `net` sweep (`exp_paper net`) prints for the delta-encoding fan-out reduction.
/// Counters only grow; subtract two snapshots (see [`PublishStats::since`])
/// to isolate a window such as the steady-state rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishStats {
    /// Bytes actually written to peers by `publish` (headers included).
    pub wire_bytes: u64,
    /// Bytes the same publishes would have cost as dense full frames —
    /// the denominator of the fan-out-reduction claim.
    pub dense_bytes: u64,
    /// Publish frames that went out delta-encoded.
    pub delta_frames: u64,
    /// Publish frames that went out dense (no acked base, base evicted
    /// from the ring, or a delta that would not have been smaller).
    pub full_frames: u64,
}

impl PublishStats {
    /// The counter deltas since an `earlier` snapshot of the same server.
    pub fn since(&self, earlier: &PublishStats) -> PublishStats {
        PublishStats {
            wire_bytes: self.wire_bytes.saturating_sub(earlier.wire_bytes),
            dense_bytes: self.dense_bytes.saturating_sub(earlier.dense_bytes),
            delta_frames: self.delta_frames.saturating_sub(earlier.delta_frames),
            full_frames: self.full_frames.saturating_sub(earlier.full_frames),
        }
    }

    /// Bytes-on-wire as a fraction of the dense-equivalent fan-out
    /// (`1.0` when nothing was published).
    pub fn wire_to_dense_ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.dense_bytes as f64
        }
    }
}

/// Sub-model metadata of a `MaskedUpdate` arrival: enough for the
/// executor to re-derive the [`StructuredMask`] (via the shared
/// `MASK_SALT` stream) and scatter the kept weights back into a
/// full-length vector.
///
/// [`StructuredMask`]: feddrl_nn::mask::StructuredMask
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskedWireInfo {
    /// The dispatch's keep ratio — the mask derivation parameter.
    pub keep_ratio: f64,
    /// Full flat parameter count the kept positions scatter into.
    pub total_len: usize,
}

/// An `Update` (or `MaskedUpdate`) frame as it arrived at the server,
/// stamped with its arrival instant so the executor can measure
/// round-trip time.
#[derive(Debug, Clone)]
pub struct InboundUpdate {
    /// The decoded update payload. For a masked arrival, `msg.weights`
    /// holds only the kept positions in ascending order.
    pub msg: UpdateMsg,
    /// `Some` when the update arrived as a `MaskedUpdate` frame.
    pub masked: Option<MaskedWireInfo>,
    /// When the update was fully decoded off the socket.
    pub arrival: Instant,
}

/// What [`NetServer::publish`] keeps from one call to the next, so a
/// steady-state publish allocates no frame, no snapshot and no delta.
#[derive(Default)]
struct Fanout {
    /// Recent published models for delta encoding, newest last; empty
    /// unless `delta_publish` is on.
    snapshots: VecDeque<(u64, Vec<f32>)>,
    /// The dense frame of the publish in progress.
    dense: Vec<u8>,
    /// The delta frame of the acked base being written.
    delta: Vec<u8>,
    /// The changed positions and values that delta frame carries.
    changes: Changes,
}

/// State shared between the public handle and the background threads.
struct Shared {
    start: Instant,
    registry: Mutex<Registry>,
    /// Signalled whenever a `Hello` registers a client.
    joined: Condvar,
    /// Write halves (via `try_clone`) of every subscribed client's socket.
    peers: Mutex<HashMap<usize, TcpStream>>,
    /// Arrived updates, drained by `recv_update`.
    inbox: Mutex<VecDeque<InboundUpdate>>,
    inbox_cv: Condvar,
    shutdown: AtomicBool,
    fanout: Mutex<Fanout>,
    delta_publish: bool,
    publish_wire_bytes: AtomicU64,
    publish_dense_bytes: AtomicU64,
    delta_frames: AtomicU64,
    full_frames: AtomicU64,
    negotiation_failures: AtomicU64,
}

impl Shared {
    /// Milliseconds since the server started — the logical clock the
    /// registry's TTL arithmetic runs on.
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// The federated server's listening endpoint: accepts client
/// connections, tracks liveness, fans out model versions, and queues
/// incoming updates for the executor.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start the accept thread. The validated entry point is
    /// [`NetServerBuilder::build`](crate::builder::NetServerBuilder::build),
    /// which delegates here.
    pub(crate) fn bind_with(addr: &str, cfg: ServerConfig) -> Result<NetServer, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let ttl_ms = (cfg.ttl.as_millis() as u64).max(1);
        let shared = Arc::new(Shared {
            start: Instant::now(),
            registry: Mutex::new(Registry::new(ttl_ms)),
            joined: Condvar::new(),
            peers: Mutex::new(HashMap::new()),
            inbox: Mutex::new(VecDeque::new()),
            inbox_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            fanout: Mutex::new(Fanout::default()),
            delta_publish: cfg.delta_publish,
            publish_wire_bytes: AtomicU64::new(0),
            publish_dense_bytes: AtomicU64::new(0),
            delta_frames: AtomicU64::new(0),
            full_frames: AtomicU64::new(0),
            negotiation_failures: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("feddrl-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(WireError::from)?;
        Ok(NetServer {
            shared,
            addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address, with the OS-assigned port resolved.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The liveness TTL in milliseconds, as configured.
    pub fn ttl_ms(&self) -> u64 {
        lock(&self.shared.registry).ttl_ms()
    }

    /// Block until at least `n` clients have said `Hello`, or fail with a
    /// timed-out I/O error. Wakes on each registration, never on a timer.
    pub fn wait_for_clients(&self, n: usize, timeout: Duration) -> Result<(), WireError> {
        let deadline = Instant::now() + timeout;
        let mut registry = lock(&self.shared.registry);
        while registry.len() < n {
            let now = Instant::now();
            if now >= deadline {
                return Err(WireError::Io {
                    kind: io::ErrorKind::TimedOut,
                    detail: format!(
                        "waited {timeout:?} for {n} clients, only {} subscribed",
                        registry.len()
                    ),
                });
            }
            registry = self
                .shared
                .joined
                .wait_timeout(registry, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        Ok(())
    }

    /// Broadcast the global model to every subscribed client, writing to
    /// the peers one after another from the caller's thread. Each peer
    /// gets either a dense `ModelPublish` or — when `delta_publish` is on
    /// and the peer acked a base still in the snapshot ring — an exact
    /// sparse `ModelPublishDelta`, whichever is smaller on the wire; each
    /// distinct frame is encoded once, and the first delta's scan of the
    /// model also fills its snapshot for later deltas. A peer that stops reading blocks
    /// the call until its write completes or fails, delaying the peers
    /// after it. Peers whose socket write fails are dropped from the peer
    /// table (the TTL sweep will retire them). Returns how many peers were
    /// reached.
    pub fn publish(&self, version: u64, weights: &[f32]) -> usize {
        let shared = &self.shared;
        // What this publish would cost per peer if sent dense: the
        // denominator of the fan-out-reduction accounting.
        let dense_len = dense_frame_len(weights.len()) as u64;
        let mut fanout = lock(&shared.fanout);
        let Fanout {
            snapshots,
            dense,
            delta,
            changes,
        } = &mut *fanout;
        // This publish's snapshot reuses the buffer of the one the ring
        // evicts. The first delta's scan fills it; without one, a copy does.
        let mut snapshot = shared.delta_publish.then(|| {
            if snapshots.len() >= SNAPSHOT_RING {
                snapshots.pop_front().map(|(_, w)| w).unwrap_or_default()
            } else {
                Vec::new()
            }
        });
        let mut snapshot_filled = false;
        let mut peers = lock(&shared.peers);
        // Each peer keyed by the acked base its delta would be encoded
        // against (`None`: dense), sorted so that peers sharing a frame
        // are adjacent and each distinct frame is encoded once — workers
        // typically ack in lockstep, so one delta serves the whole fleet.
        let mut order: Vec<(Option<u64>, usize)> = {
            let registry = lock(&shared.registry);
            peers
                .keys()
                .map(|&id| {
                    let base = registry.acked_version(id).filter(|_| shared.delta_publish);
                    (base, id)
                })
                .collect()
        };
        order.sort_unstable();
        let mut dense_ready = false;
        let mut dead: Vec<usize> = Vec::new();
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let is_delta = group[0].0.is_some_and(|base| {
                let Some((_, base_weights)) = snapshots.iter().find(|(v, _)| *v == base) else {
                    return false;
                };
                let copy = snapshot.as_mut().filter(|_| !snapshot_filled);
                snapshot_filled |= copy.is_some();
                let pays = changes.scan(base_weights, weights, copy);
                if pays {
                    changes.encode_into(delta, version, base, weights.len() as u64);
                }
                pays
            });
            if !is_delta && !dense_ready {
                encode_publish_into(dense, version, weights);
                dense_ready = true;
            }
            let frame = if is_delta { &*delta } else { &*dense };
            for &(_, id) in group {
                let stream = peers.get_mut(&id).expect("ordered from the peer table");
                let sent = stream.write_all(frame).and_then(|_| stream.flush());
                if sent.is_err() {
                    dead.push(id);
                    continue;
                }
                shared
                    .publish_wire_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                shared
                    .publish_dense_bytes
                    .fetch_add(dense_len, Ordering::Relaxed);
                let kind = if is_delta {
                    &shared.delta_frames
                } else {
                    &shared.full_frames
                };
                kind.fetch_add(1, Ordering::Relaxed);
            }
        }
        for id in &dead {
            peers.remove(id);
        }
        if let Some(mut snapshot) = snapshot {
            if !snapshot_filled {
                snapshot.clear();
                snapshot.extend_from_slice(weights);
            }
            snapshots.push_back((version, snapshot));
        }
        order.len() - dead.len()
    }

    /// Cumulative bytes-on-wire accounting across every `publish` so far.
    pub fn publish_stats(&self) -> PublishStats {
        PublishStats {
            wire_bytes: self.shared.publish_wire_bytes.load(Ordering::Relaxed),
            dense_bytes: self.shared.publish_dense_bytes.load(Ordering::Relaxed),
            delta_frames: self.shared.delta_frames.load(Ordering::Relaxed),
            full_frames: self.shared.full_frames.load(Ordering::Relaxed),
        }
    }

    /// Connections dropped because the peer's advertised version range
    /// did not overlap this build's.
    pub fn negotiation_failures(&self) -> u64 {
        self.shared.negotiation_failures.load(Ordering::Relaxed)
    }

    /// Send one frame to a single subscribed client. A failed write drops
    /// the peer and surfaces the error.
    pub fn send_to(&self, client_id: usize, msg: &Message) -> Result<(), WireError> {
        let mut peers = lock(&self.shared.peers);
        let outcome = match peers.get_mut(&client_id) {
            Some(stream) => write_frame(stream, msg),
            None => {
                return Err(WireError::Io {
                    kind: io::ErrorKind::NotConnected,
                    detail: format!("client {client_id} is not subscribed"),
                })
            }
        };
        if outcome.is_err() {
            peers.remove(&client_id);
        }
        outcome
    }

    /// Pop the next arrived update, blocking until `deadline`. `None`
    /// means the deadline passed (or the server is shutting down) with
    /// nothing queued.
    pub fn recv_update(&self, deadline: Instant) -> Option<InboundUpdate> {
        let mut inbox = lock(&self.shared.inbox);
        loop {
            if let Some(u) = inbox.pop_front() {
                return Some(u);
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .inbox_cv
                .wait_timeout(inbox, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inbox = guard;
        }
    }

    /// Run a TTL sweep on the registry's logical clock, dropping the
    /// write halves of newly expired peers. Returns the newly departed
    /// ids in ascending order.
    pub fn sweep_expired(&self) -> Vec<usize> {
        let now = self.shared.now_ms();
        let expired = lock(&self.shared.registry).sweep(now);
        if !expired.is_empty() {
            let mut peers = lock(&self.shared.peers);
            for id in &expired {
                peers.remove(id);
            }
        }
        expired
    }

    /// Every client that has ever departed (Bye or TTL expiry), ascending.
    pub fn departed(&self) -> Vec<usize> {
        lock(&self.shared.registry).departed_clients()
    }

    /// Currently live client ids, ascending.
    pub fn live_clients(&self) -> Vec<usize> {
        lock(&self.shared.registry).live_clients()
    }

    /// Whether `client_id` is registered and unexpired.
    pub fn is_live(&self, client_id: usize) -> bool {
        lock(&self.shared.registry).is_live(client_id)
    }

    /// Number of currently live clients.
    pub fn client_count(&self) -> usize {
        lock(&self.shared.registry).len()
    }

    /// Messages observed from `client_id` (heartbeats included), if live.
    pub fn messages_from(&self, client_id: usize) -> Option<u64> {
        lock(&self.shared.registry)
            .entry(client_id)
            .map(|e| e.messages)
    }

    /// Orderly shutdown: tell every connected client `Bye`, wake the
    /// accept thread, close every accepted socket, and join all
    /// background threads. Idempotent; also runs on `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut peers = lock(&self.shared.peers);
            for (&id, stream) in peers.iter_mut() {
                let _ = write_frame(
                    stream,
                    &Message::Bye {
                        client_id: id as u64,
                    },
                );
            }
            peers.clear();
        }
        self.shared.inbox_cv.notify_all();
        if let Some(h) = self.accept_handle.take() {
            // The accept thread blocks in `accept`: one connection of our
            // own wakes it to see the flag. Were that connect to fail, the
            // thread is left detached rather than hang the caller.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect(wake).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("live", &self.client_count())
            .finish()
    }
}

/// Accept connections, spawning one receive thread per connection. On
/// shutdown, close every live connection's socket (waking its blocked
/// read) and join the threads before exiting.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Each live connection's receive thread, with a clone of its socket.
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for incoming in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        conns.retain(|(h, _)| !h.is_finished());
        let Ok(stream) = incoming else {
            thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        if let Ok(h) = thread::Builder::new()
            .name("feddrl-net-conn".into())
            .spawn(move || conn_loop(stream, conn_shared))
        {
            conns.push((h, socket));
        }
    }
    for (h, socket) in conns {
        let _ = socket.shutdown(Shutdown::Both);
        let _ = h.join();
    }
}

/// One connection's receive loop: frames off the socket, routed by kind.
fn conn_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut me: Option<usize> = None;
    // One chunk buffer for the life of the connection.
    let mut payload = Vec::new();
    // The loop ends on clean EOF, shutdown, a protocol violation, a
    // failed negotiation, or a hard socket error — drop the connection
    // either way. An unannounced disappearance is the TTL sweep's job to
    // retire.
    while let Ok(Some(msg)) = read_frame_into(&mut stream, &mut payload) {
        let now = shared.now_ms();
        match msg {
            Message::Hello {
                client_id,
                min_version,
                max_version,
            } => {
                let id = client_id as usize;
                let version = match negotiate(min_version, max_version) {
                    Ok(v) => v,
                    Err(_) => {
                        // No common version: count it and hang up. We
                        // cannot even promise the peer would decode a
                        // reply frame.
                        shared.negotiation_failures.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                };
                // A departed id may not rejoin (churn semantics). For a
                // live one the `HelloAck` must be written and the peer
                // entry must exist *before* the registry counts it, so
                // `wait_for_clients` returning guarantees the ack
                // precedes any `publish` on this socket and the publish
                // reaches everyone waited for.
                if !lock(&shared.registry).is_departed(id) {
                    if let Ok(mut peer) = stream.try_clone() {
                        let _ = write_frame(&mut peer, &Message::HelloAck { client_id, version });
                        lock(&shared.peers).insert(id, peer);
                        me = Some(id);
                    }
                }
                lock(&shared.registry).touch(id, now);
                shared.joined.notify_all();
            }
            Message::Heartbeat { client_id } => {
                lock(&shared.registry).touch(client_id as usize, now);
            }
            Message::PublishAck { client_id, version } => {
                lock(&shared.registry).record_ack(client_id as usize, version, now);
            }
            Message::Update(update) => {
                lock(&shared.registry).touch(update.client_id as usize, now);
                let mut inbox = lock(&shared.inbox);
                inbox.push_back(InboundUpdate {
                    msg: update,
                    masked: None,
                    arrival: Instant::now(),
                });
                drop(inbox);
                shared.inbox_cv.notify_all();
            }
            Message::MaskedUpdate(m) => {
                lock(&shared.registry).touch(m.client_id as usize, now);
                let masked = Some(MaskedWireInfo {
                    keep_ratio: m.keep_ratio,
                    total_len: m.total_len as usize,
                });
                let mut inbox = lock(&shared.inbox);
                inbox.push_back(InboundUpdate {
                    msg: UpdateMsg {
                        client_id: m.client_id,
                        round: m.round,
                        model_version: m.model_version,
                        staleness: m.staleness,
                        n_samples: m.n_samples,
                        loss_before: m.loss_before,
                        loss_after: m.loss_after,
                        weights: m.kept_weights,
                    },
                    masked,
                    arrival: Instant::now(),
                });
                drop(inbox);
                shared.inbox_cv.notify_all();
            }
            Message::Bye { client_id } => {
                let id = client_id as usize;
                lock(&shared.registry).mark_departed(id);
                lock(&shared.peers).remove(&id);
                me = None;
                break;
            }
            // Server-bound kinds only on this socket; a client pushing
            // publishes, dispatches or acks-of-acks is violating the
            // protocol.
            Message::ModelPublish { .. }
            | Message::ModelPublishDelta(_)
            | Message::TrainRequest { .. }
            | Message::HelloAck { .. } => break,
        }
    }
    if let Some(id) = me {
        lock(&shared.peers).remove(&id);
    }
    // The accept thread holds a clone of this socket, so dropping ours
    // would not close it: hang up explicitly, so the peer reads EOF.
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetServerBuilder;
    use crate::wire::{read_frame, DeltaMsg, PROTOCOL_VERSION_MAX, PROTOCOL_VERSION_MIN};
    use std::io::Read;

    fn connect_and_hello(addr: SocketAddr, id: u64) -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        write_frame(
            &mut s,
            &Message::Hello {
                client_id: id,
                min_version: PROTOCOL_VERSION_MIN,
                max_version: PROTOCOL_VERSION_MAX,
            },
        )
        .expect("hello");
        match read_frame(&mut s).expect("frame").expect("not eof") {
            Message::HelloAck { client_id, version } => {
                assert_eq!(client_id, id);
                assert_eq!(version, PROTOCOL_VERSION_MAX);
            }
            other => panic!("expected HelloAck, got {other:?}"),
        }
        s
    }

    #[test]
    fn hello_registers_and_publish_reaches_every_peer() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let addr = server.local_addr();
        let mut a = connect_and_hello(addr, 0);
        let mut b = connect_and_hello(addr, 1);
        server
            .wait_for_clients(2, Duration::from_secs(5))
            .expect("both subscribed");
        assert_eq!(server.live_clients(), vec![0, 1]);

        let reached = server.publish(7, &[1.0, -2.5, 3.25]);
        assert_eq!(reached, 2);
        for s in [&mut a, &mut b] {
            match read_frame(s).expect("frame").expect("not eof") {
                Message::ModelPublish { version, weights } => {
                    assert_eq!(version, 7);
                    assert_eq!(weights, vec![1.0, -2.5, 3.25]);
                }
                other => panic!("expected ModelPublish, got {other:?}"),
            }
        }
        server.shutdown();
    }

    /// `wait_for_clients` is woken by the n-th `Hello`, not by a timer,
    /// and still fails typed when too few arrive. No sleeps.
    #[test]
    fn wait_for_clients_wakes_on_the_nth_hello_and_times_out_typed() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let addr = server.local_addr();
        let _clients = thread::scope(|s| {
            let waiter = s.spawn(|| server.wait_for_clients(2, Duration::from_secs(60)));
            let clients = [connect_and_hello(addr, 0), connect_and_hello(addr, 1)];
            assert_eq!(waiter.join().expect("no panic"), Ok(()));
            clients
        });
        match server.wait_for_clients(3, Duration::from_millis(50)) {
            Err(WireError::Io { kind, detail }) => {
                assert_eq!(kind, io::ErrorKind::TimedOut);
                assert!(detail.contains("only 2 subscribed"), "{detail}");
            }
            other => panic!("expected a timed-out error, got {other:?}"),
        }
        server.shutdown();
    }

    /// A delta exactly as large as the dense frame goes dense and is
    /// counted as a full frame; one change fewer goes out as the
    /// message encoder's delta bytes.
    #[test]
    fn a_delta_as_large_as_the_dense_frame_goes_dense() {
        let mut server = NetServerBuilder::new()
            .delta_publish(true)
            .build()
            .expect("bind");
        let mut peer = connect_and_hello(server.local_addr(), 9);
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("subscribed");
        let w0 = vec![0.5f32; 64];
        server.publish(0, &w0);
        assert!(matches!(
            read_frame(&mut peer),
            Ok(Some(Message::ModelPublish { version: 0, .. }))
        ));
        // The ack as the receive thread would book it.
        let now = server.shared.now_ms();
        lock(&server.shared.registry).record_ack(9, 0, now);

        // 32 + 8·30 = 16 + 4·64: the delta would cost what dense does.
        let mut w1 = w0.clone();
        w1[..30].fill(-1.0);
        server.publish(1, &w1);
        assert!(matches!(
            read_frame(&mut peer),
            Ok(Some(Message::ModelPublish { version: 1, .. }))
        ));
        let stats = server.publish_stats();
        assert_eq!((stats.full_frames, stats.delta_frames), (2, 0));
        assert_eq!(stats.wire_bytes, stats.dense_bytes);

        let mut w2 = w0.clone();
        w2[..29].fill(-1.0);
        server.publish(2, &w2);
        let expected = Message::ModelPublishDelta(DeltaMsg {
            version: 2,
            base_version: 0,
            total_len: 64,
            indices: (0..29).collect(),
            values: vec![-1.0; 29],
        })
        .encode();
        let mut got = vec![0u8; expected.len()];
        peer.read_exact(&mut got).expect("delta frame");
        assert_eq!(got, expected);
        let stats = server.publish_stats();
        assert_eq!((stats.full_frames, stats.delta_frames), (2, 1));
        server.shutdown();
    }

    #[test]
    fn update_lands_in_inbox_and_bye_departs() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let addr = server.local_addr();
        let mut c = connect_and_hello(addr, 4);
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("subscribed");

        let update = UpdateMsg {
            client_id: 4,
            round: 2,
            model_version: 9,
            staleness: 0,
            n_samples: 32,
            loss_before: 1.5,
            loss_after: 0.5,
            weights: vec![0.25; 4],
        };
        write_frame(&mut c, &Message::Update(update.clone())).expect("send update");
        let inbound = server
            .recv_update(Instant::now() + Duration::from_secs(5))
            .expect("update arrives");
        assert_eq!(inbound.msg, update);

        write_frame(&mut c, &Message::Bye { client_id: 4 }).expect("bye");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.is_live(4) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert!(!server.is_live(4));
        assert_eq!(server.departed(), vec![4]);
        server.shutdown();
    }

    #[test]
    fn silent_client_expires_via_ttl_sweep() {
        let mut server = NetServerBuilder::new()
            .ttl(Duration::from_millis(50))
            .build()
            .expect("bind");
        let addr = server.local_addr();
        let _c = connect_and_hello(addr, 11);
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("subscribed");
        assert!(server.sweep_expired().is_empty(), "fresh client is live");
        thread::sleep(Duration::from_millis(120));
        assert_eq!(server.sweep_expired(), vec![11]);
        assert_eq!(server.departed(), vec![11]);
        assert!(!server.is_live(11));
        server.shutdown();
    }

    #[test]
    fn recv_update_times_out_empty() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let got = server.recv_update(Instant::now() + Duration::from_millis(30));
        assert!(got.is_none());
        server.shutdown();
    }

    #[test]
    fn shutdown_sends_bye_to_connected_clients() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let addr = server.local_addr();
        let mut c = connect_and_hello(addr, 3);
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("subscribed");
        server.shutdown();
        match read_frame(&mut c).expect("frame") {
            Some(Message::Bye { client_id }) => assert_eq!(client_id, 3),
            other => panic!("expected Bye, got {other:?}"),
        }
    }
}
