//! The federated client's network loop: subscribe, train on demand,
//! report updates, heartbeat in the background.
//!
//! [`run_client`] is the whole worker: it connects, announces itself
//! with a `Hello` carrying its protocol version range, then blocks on
//! the socket handling `HelloAck` (pin the negotiated version),
//! `ModelPublish` / `ModelPublishDelta` (remember the latest global
//! model, acknowledging each cached version with `PublishAck`),
//! `TrainRequest` (call the caller-supplied training closure on the
//! remembered weights and send the resulting `Update` — or, for a
//! sub-model dispatch, a compact `MaskedUpdate` carrying only the mask's
//! kept positions), and `Bye` (leave). A write refused because the server
//! has already sent `Bye` and shut the socket ends the worker as cleanly
//! as reading that `Bye` would. A background thread shares the
//! write half of the socket and emits a `Heartbeat` frame each time a
//! heartbeat period passes, so the server's liveness TTL stays refreshed
//! even while the worker sits idle between rounds. It waits on a stop
//! channel rather than sleeping, so it ends as soon as the receive loop
//! does.
//!
//! The training closure is deliberately transport-agnostic — it maps a
//! [`TrainOrder`] plus the current global weights to a
//! [`ClientUpdate`], so callers plug in
//! the repo's real `run_local_round` or a deterministic stub unchanged.
//! An optional [`ClientConfig::train_delay`] sleeps before training,
//! letting benches emulate a heterogeneous device fleet's compute times
//! over real sockets.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use feddrl_fl::client::ClientUpdate;

use crate::lock;
use crate::wire::{
    read_frame_into, write_frame, MaskedUpdateMsg, Message, UpdateMsg, WireError,
    PROTOCOL_VERSION_MAX, PROTOCOL_VERSION_MIN,
};

/// Connection settings for one worker process/thread. Prefer
/// constructing through
/// [`NetClientBuilder`](crate::builder::NetClientBuilder), which
/// validates these at `build()` time.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address — the server's OS-assigned
    /// [`local_addr`](crate::server::NetServer::local_addr), not a fixed
    /// port.
    pub server_addr: String,
    /// This worker's client id, echoed in every frame it sends.
    pub client_id: usize,
    /// Heartbeat period; keep it well under the server's liveness TTL.
    pub heartbeat: Duration,
    /// Artificial compute delay slept before each local training call —
    /// zero by default, nonzero to emulate a slow device over real
    /// sockets.
    pub train_delay: Duration,
}

/// One training demand from the server, as seen by the worker's closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOrder {
    /// The server's round counter, echoed back in the update.
    pub round: u64,
    /// Structured-dropout keep ratio requested for this round (1.0 for
    /// full-model training).
    pub keep_ratio: f64,
    /// Version of the global model the worker is about to train on; the
    /// server derives measured staleness from it at aggregation time.
    pub model_version: u64,
}

/// What a worker did over its lifetime, returned when the loop ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Training rounds completed and reported.
    pub rounds_trained: usize,
    /// Model publishes applied (dense frames plus applied deltas).
    pub publishes_seen: usize,
    /// The last model version received.
    pub last_version: u64,
    /// The protocol version pinned by the server's `HelloAck`, or 0 when
    /// the connection ended before one arrived.
    pub negotiated_version: u8,
    /// `ModelPublishDelta` frames received (applied or not).
    pub delta_publishes_seen: usize,
    /// Rounds answered with a compact `MaskedUpdate` rather than a dense
    /// `Update`.
    pub masked_rounds: usize,
}

/// Run one worker to completion: connect, `Hello`, serve `TrainRequest`s
/// against the latest published model via `train`, until the server says
/// `Bye` or closes the connection.
///
/// `train` maps the order plus the current global weights to the
/// worker's [`ClientUpdate`]; its `weights`, `n_samples` and loss fields
/// go over the wire verbatim (bit-exact `f32`s).
pub fn run_client<F>(cfg: &ClientConfig, mut train: F) -> Result<ClientReport, WireError>
where
    F: FnMut(&TrainOrder, &[f32]) -> ClientUpdate,
{
    let reader = TcpStream::connect(&cfg.server_addr)?;
    let _ = reader.set_nodelay(true);
    let writer = Arc::new(Mutex::new(reader.try_clone()?));
    write_frame(
        &mut *lock(&writer),
        &Message::Hello {
            client_id: cfg.client_id as u64,
            min_version: PROTOCOL_VERSION_MIN,
            max_version: PROTOCOL_VERSION_MAX,
        },
    )?;

    // Dropping `stop` when the receive loop ends wakes the heartbeat
    // thread at once; until then it beats each time a period passes.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat_handle = {
        let writer = Arc::clone(&writer);
        let period = cfg.heartbeat;
        let id = cfg.client_id as u64;
        thread::Builder::new()
            .name("feddrl-net-heartbeat".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                    let beat = Message::Heartbeat { client_id: id };
                    if write_frame(&mut *lock(&writer), &beat).is_err() {
                        break;
                    }
                }
            })
            .map_err(WireError::from)?
    };

    let outcome = client_loop(cfg, reader, &writer, &mut train);
    drop(stop);
    let _ = heartbeat_handle.join();
    outcome
}

/// The worker's main receive loop, factored out so `run_client` can
/// always join the heartbeat thread on the way out.
fn client_loop<F>(
    cfg: &ClientConfig,
    mut reader: TcpStream,
    writer: &Mutex<TcpStream>,
    train: &mut F,
) -> Result<ClientReport, WireError>
where
    F: FnMut(&TrainOrder, &[f32]) -> ClientUpdate,
{
    let mut model: Option<(u64, Vec<f32>)> = None;
    let mut report = ClientReport::default();
    // One buffer each way for the life of the connection.
    let mut received = Vec::new();
    let mut sent = Vec::new();
    loop {
        let written = match read_frame_into(&mut reader, &mut received)? {
            None | Some(Message::Bye { .. }) => break,
            Some(Message::HelloAck { version, .. }) => {
                report.negotiated_version = version;
                Ok(())
            }
            Some(Message::ModelPublish { version, weights }) => {
                report.publishes_seen += 1;
                report.last_version = version;
                model = Some((version, weights));
                ack_publish(cfg, writer, &mut sent, version)
            }
            Some(Message::ModelPublishDelta(d)) => {
                report.delta_publishes_seen += 1;
                // Reconstruct only over the exact base the delta was
                // encoded against. A mismatch (an ack still in flight
                // when the server planned the frame) is dropped, not
                // guessed at: the next dense publish — or a delta against
                // the version this worker actually acked — resynchronizes.
                let applies = model
                    .as_ref()
                    .is_some_and(|(v, w)| *v == d.base_version && w.len() as u64 == d.total_len);
                if applies {
                    let (version, weights) = model.as_mut().expect("applies implies cached model");
                    for (&i, &value) in d.indices.iter().zip(&d.values) {
                        weights[i as usize] = value;
                    }
                    *version = d.version;
                    report.publishes_seen += 1;
                    report.last_version = d.version;
                    ack_publish(cfg, writer, &mut sent, d.version)
                } else {
                    Ok(())
                }
            }
            Some(Message::TrainRequest { round, keep_ratio }) => {
                // A demand before any publish has nothing to train on;
                // the server's round deadline handles the missing reply.
                let Some((version, weights)) = model.as_ref() else {
                    continue;
                };
                if !cfg.train_delay.is_zero() {
                    thread::sleep(cfg.train_delay);
                }
                let order = TrainOrder {
                    round,
                    keep_ratio,
                    model_version: *version,
                };
                let update = train(&order, weights);
                // A sub-model result travels as a compact MaskedUpdate:
                // only the kept positions, in ascending order — the
                // server re-derives the mask from the shared seed. Full
                // masks fall back to the dense Update frame.
                let msg = if let Some(mask) = update.mask.as_ref().filter(|m| !m.is_full()) {
                    let kept_weights: Vec<f32> = update
                        .weights
                        .iter()
                        .zip(mask.as_slice())
                        .filter_map(|(&w, &keep)| keep.then_some(w))
                        .collect();
                    report.masked_rounds += 1;
                    Message::MaskedUpdate(MaskedUpdateMsg {
                        client_id: cfg.client_id as u64,
                        round,
                        model_version: *version,
                        staleness: 0,
                        n_samples: update.n_samples as u64,
                        loss_before: update.loss_before,
                        loss_after: update.loss_after,
                        keep_ratio,
                        total_len: update.weights.len() as u64,
                        kept_weights,
                    })
                } else {
                    Message::Update(UpdateMsg {
                        client_id: cfg.client_id as u64,
                        round,
                        model_version: *version,
                        staleness: 0,
                        n_samples: update.n_samples as u64,
                        loss_before: update.loss_before,
                        loss_after: update.loss_after,
                        weights: update.weights,
                    })
                };
                let reported = send(writer, &mut sent, &msg);
                report.rounds_trained += usize::from(reported.is_ok());
                reported
            }
            // The server never sends client-bound kinds; ignore strays.
            Some(Message::Hello { .. })
            | Some(Message::Update(_))
            | Some(Message::MaskedUpdate(_))
            | Some(Message::PublishAck { .. })
            | Some(Message::Heartbeat { .. }) => Ok(()),
        };
        if let Err(error) = written {
            return ended_after_bye(&mut reader, &mut received, error).map(|()| report);
        }
    }
    Ok(report)
}

/// Whether a write that failed with `error` ended an orderly shutdown.
/// The server queues `Bye` and shuts the socket without reading what is
/// still in flight, so a write racing that shutdown fails with a broken
/// pipe or a reset. Then the read half still holds what the server sent:
/// drain it, and if it ends in `Bye` or end of stream, the worker is done
/// (`Ok`). Any other write failure, or a read half that breaks off
/// instead, returns `error`.
fn ended_after_bye(
    reader: &mut TcpStream,
    received: &mut Vec<u8>,
    error: WireError,
) -> Result<(), WireError> {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset};
    if !matches!(
        error,
        WireError::Io {
            kind: BrokenPipe | ConnectionReset | ConnectionAborted,
            ..
        }
    ) {
        return Err(error);
    }
    loop {
        match read_frame_into(reader, received) {
            Ok(None | Some(Message::Bye { .. })) => return Ok(()),
            // Frames the server queued ahead of its `Bye`.
            Ok(Some(_)) => {}
            Err(_) => return Err(error),
        }
    }
}

/// Acknowledge a cached model version so the server may delta-encode
/// future publishes against it.
fn ack_publish(
    cfg: &ClientConfig,
    writer: &Mutex<TcpStream>,
    frame: &mut Vec<u8>,
    version: u64,
) -> Result<(), WireError> {
    let ack = Message::PublishAck {
        client_id: cfg.client_id as u64,
        version,
    };
    send(writer, frame, &ack)
}

/// Write `msg` to the shared socket, encoded into the loop's send buffer.
fn send(writer: &Mutex<TcpStream>, frame: &mut Vec<u8>, msg: &Message) -> Result<(), WireError> {
    msg.encode_into(frame);
    let mut stream = lock(writer);
    stream.write_all(frame)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetClientBuilder, NetServerBuilder};
    use crate::wire::write_frame;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Deterministic stub: weights = global scaled by (client_id + 2).
    fn stub(client_id: usize) -> impl FnMut(&TrainOrder, &[f32]) -> ClientUpdate {
        move |order, global| ClientUpdate {
            client_id,
            weights: global
                .iter()
                .map(|w| w * (client_id as f32 + 2.0))
                .collect(),
            n_samples: 10 + client_id,
            loss_before: 1.0 + order.round as f32,
            loss_after: 0.5,
            staleness: 0,
            mask: None,
        }
    }

    #[test]
    fn worker_trains_on_demand_and_reports() {
        let mut server = NetServerBuilder::new().build().expect("bind");
        let addr = server.local_addr().to_string();
        let cfg = NetClientBuilder::new(addr, 5)
            .heartbeat(Duration::from_millis(50))
            .build()
            .expect("client config");
        let worker = thread::spawn(move || run_client(&cfg, stub(5)));

        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("worker subscribed");
        assert_eq!(server.publish(1, &[2.0, -4.0]), 1);
        server
            .send_to(
                5,
                &Message::TrainRequest {
                    round: 0,
                    keep_ratio: 1.0,
                },
            )
            .expect("dispatch");
        let update = server
            .recv_update(Instant::now() + Duration::from_secs(5))
            .expect("update arrives");
        assert_eq!(update.msg.client_id, 5);
        assert_eq!(update.msg.round, 0);
        assert_eq!(update.msg.model_version, 1);
        assert_eq!(update.msg.n_samples, 15);
        assert_eq!(update.msg.weights, vec![14.0, -28.0]);

        server.shutdown();
        let report = worker.join().expect("no panic").expect("clean exit");
        assert_eq!(report.rounds_trained, 1);
        assert_eq!(report.publishes_seen, 1);
        assert_eq!(report.last_version, 1);
        assert_eq!(report.negotiated_version, PROTOCOL_VERSION_MAX);
        assert_eq!(report.delta_publishes_seen, 0);
        assert_eq!(report.masked_rounds, 0, "full-model round stays dense");
    }

    #[test]
    fn heartbeats_keep_an_idle_worker_live_past_the_ttl() {
        let mut server = NetServerBuilder::new()
            .ttl(Duration::from_millis(150))
            .build()
            .expect("bind");
        let addr = server.local_addr().to_string();
        let ccfg = NetClientBuilder::new(addr, 9)
            .heartbeat(Duration::from_millis(30))
            .build()
            .expect("client config");
        let worker = thread::spawn(move || run_client(&ccfg, stub(9)));
        server
            .wait_for_clients(1, Duration::from_secs(5))
            .expect("worker subscribed");
        // Idle for several TTLs; heartbeats must keep the worker live.
        thread::sleep(Duration::from_millis(500));
        assert!(server.sweep_expired().is_empty());
        assert!(server.is_live(9));
        assert!(server.messages_from(9).unwrap() > 3, "heartbeats observed");
        server.shutdown();
        worker.join().expect("no panic").expect("clean exit");
    }

    /// A server that queues a publish, a training demand and `Bye`, then
    /// shuts the socket with the worker's `Hello` still unread — which
    /// turns the close into a reset — refuses the worker's next write.
    /// The worker still ends cleanly, on the `Bye` it had not read yet.
    /// The training closure waits for the shutdown, so the refused write
    /// is the `Update` (or, if the reset lands first, the publish's ack).
    #[test]
    fn a_write_refused_after_the_servers_bye_ends_the_worker_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = NetClientBuilder::new(listener.local_addr().expect("addr").to_string(), 3)
            .heartbeat(Duration::from_secs(3600))
            .build()
            .expect("client config");
        let (closed, wait_closed) = mpsc::channel::<()>();
        let worker = thread::spawn(move || {
            let mut train = stub(3);
            run_client(&cfg, move |order, global| {
                let _ = wait_closed.recv();
                train(order, global)
            })
        });
        let (mut server, _) = listener.accept().expect("accept");
        // Wait for the `Hello` without consuming it.
        server.peek(&mut [0u8; 1]).expect("hello arrives");
        for msg in [
            Message::ModelPublish {
                version: 1,
                weights: vec![1.0, 2.0],
            },
            Message::TrainRequest {
                round: 0,
                keep_ratio: 1.0,
            },
            Message::Bye { client_id: 3 },
        ] {
            write_frame(&mut server, &msg).expect("queue frame");
        }
        drop(server);
        let _ = closed.send(());
        let report = worker
            .join()
            .expect("no panic")
            .expect("a write refused after Bye is a clean exit");
        assert_eq!((report.publishes_seen, report.rounds_trained), (1, 0));
    }
}
