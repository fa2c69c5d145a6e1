//! [`NetworkExecutor`]: the [`RoundExecutor`] that runs rounds over real
//! sockets instead of the discrete-event simulator.
//!
//! The unchanged `Session`/`SelectionPolicy`/`Strategy` stack drives it
//! exactly like the in-process executors: `publish_model` fans the
//! current global model to every subscribed worker, `execute` sends
//! `TrainRequest` frames to the selected clients and collects their
//! `Update` frames off the server inbox.
//!
//! Who is sent what is decided by the simulated executors' own
//! [`DispatchPlanner`]: it skips a client with a dispatch outstanding as
//! busy, keeps the model version (bumped only by a round that aggregates
//! something) and the reliability table the view lends out. This executor
//! adds only what sockets observe: failed sends, timeouts, malformed
//! arrivals, TTL departures, measured time and staleness. Each dispatch
//! lost to a failed send, a departure in flight, the round timeout or a
//! malformed answer is a dropout of its client, in the round's counters
//! and, through [`DispatchPlanner::count_dropout`], in the reliability
//! table, where it takes the place of the dispatch. Two collection
//! modes mirror the simulator's taxonomy:
//!
//! * **Barrier** — wait for every dispatched client (or the round
//!   timeout). With all workers live this reproduces the
//!   `IdealExecutor` contract byte-for-byte: updates in sampling order,
//!   zero staleness, `hetero: None`.
//! * **Buffered** — aggregate as soon as `buffer_size` updates arrive;
//!   clients still in flight are skipped as busy next round, and each
//!   accepted update's staleness is *measured* as the versions aggregated
//!   since the older of the version it claims to have trained on and its
//!   dispatch's stamp (no claim makes an update fresher than its
//!   dispatch), the networked analogue of the simulator's
//!   `BufferedExecutor`.
//!
//! Departures surface through the same channel the simulator's churn
//! uses: the registry's TTL sweep feeds [`ExecutorView::departed`],
//! which the session hands to selection inside the `SelectionContext`.
//!
//! Without a [`WireMasking`] policy the planner has no fleet, so every
//! dispatch is full. With one, the planner fits each dispatch to the
//! deadline on the policy fleet's *predicted* completion times, as it
//! does in process (a client that fits nothing trains in full), and
//! `execute` sends `TrainRequest { keep_ratio < 1 }`, then reassembles
//! the returning compact `MaskedUpdate` by re-deriving the structured
//! mask from the shared seed and scattering the kept weights into a
//! full-length vector with the mask attached — exactly what the
//! in-process masked path hands to `masked_weighted_average`.
//!
//! A peer chooses the lengths it sends. A solicited arrival whose dense
//! weight count or masked `total_len` is not the parameter count of the
//! model last published (or whose masked frame cannot be scattered)
//! closes its dispatch, is counted in [`NetTelemetry::malformed_updates`]
//! and as a dropout of its client, and never reaches the session: a barrier
//! completes on the other workers' updates instead of panicking in the
//! aggregation or sitting out the round timeout.
//!
//! A shared [`NetTelemetry`] handle (clone it *before* boxing the
//! executor into a session) keeps the latest round-trip times, the
//! accepted-update count and staleness sum, and the server's publish
//! bytes-on-wire counters for benches to report, in bounded memory.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use feddrl_fl::client::{dispatch_mask, ClientUpdate};
use feddrl_fl::dispatch::DispatchPlanner;
use feddrl_fl::executor::{
    ExecutorView, LatePolicy, RoundExecutor, RoundOutcome, StructuredDropoutConfig, TrainContext,
    TrainFn,
};
use feddrl_nn::mask::StructuredMask;
use feddrl_nn::model::Sequential;
use feddrl_sim::device::{nearest_rank, FleetView};

use crate::lock;
use crate::server::{MaskedWireInfo, NetServer, PublishStats};
use crate::wire::{Message, UpdateMsg};

/// How `execute` decides a round is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Wait for every dispatched client (round barrier).
    Barrier,
    /// Aggregate once this many updates have arrived, leaving the rest
    /// in flight.
    Buffered {
        /// Updates per aggregation; must be positive.
        buffer_size: usize,
    },
}

/// How many of the latest round-trip times [`NetTelemetry`] keeps: at
/// least every update of `exp_paper net --full` (1 000 rounds × 8 workers), so
/// a long-lived server's telemetry stays bounded without changing any
/// sweep's percentiles.
pub const RTT_WINDOW: usize = 8192;

/// Measured transport telemetry, shared out of the executor via
/// [`NetworkExecutor::telemetry`]. Its size does not grow with the number
/// of updates.
#[derive(Debug, Clone, Default)]
pub struct NetTelemetry {
    /// Round-trip times of the latest [`RTT_WINDOW`] accepted updates,
    /// dispatch to arrival, ms. Once full, the next sample overwrites
    /// slot `accepted % RTT_WINDOW`; percentiles sort a copy, so the
    /// order does not matter.
    pub rtt_ms: Vec<f64>,
    /// Updates accepted into a round.
    pub accepted: usize,
    /// Measured staleness (model versions) summed over every accepted
    /// update.
    pub staleness_sum: u64,
    /// `TrainRequest` frames successfully sent.
    pub dispatched: usize,
    /// Dispatches that failed outright (client departed or socket dead).
    pub failed_dispatches: usize,
    /// Dispatches abandoned at the round timeout (barrier mode).
    pub timed_out: usize,
    /// Updates that arrived as compact `MaskedUpdate` frames.
    pub masked_updates: usize,
    /// Solicited arrivals discarded because their shape disagrees with
    /// the model: a dense weight count or a masked `total_len` other than
    /// the published parameter count, or a masked frame that cannot be
    /// scattered (no masking policy, or a re-derived mask of another
    /// shape). They never reach the session.
    pub malformed_updates: usize,
    /// The server's cumulative publish bytes-on-wire accounting,
    /// mirrored here after every `publish_model` so it stays readable
    /// once the executor is boxed into a session.
    pub publish: PublishStats,
}

impl NetTelemetry {
    /// The `pct`-percentile (in `[0, 1]`) of the observed RTTs in `rtt_ms`
    /// in milliseconds — nearest-rank on the sorted samples
    /// ([`nearest_rank`], the function `feddrl_sim`'s
    /// `completion_percentile_s` calls), so measured-vs-predicted
    /// comparisons compare like with like; 0.0 when empty.
    ///
    /// # Panics
    /// Panics when `pct` is outside `[0, 1]`.
    pub fn rtt_percentile_ms(&self, pct: f64) -> f64 {
        assert!((0.0..=1.0).contains(&pct), "percentile must be in [0, 1]");
        if self.rtt_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.rtt_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"));
        sorted[nearest_rank(sorted.len(), pct)]
    }

    /// Median observed round-trip time in milliseconds.
    pub fn p50_rtt_ms(&self) -> f64 {
        self.rtt_percentile_ms(0.5)
    }

    /// Tail (99th percentile) round-trip time in milliseconds.
    pub fn p99_rtt_ms(&self) -> f64 {
        self.rtt_percentile_ms(0.99)
    }

    /// Mean measured staleness over every accepted update (0.0 when
    /// empty).
    pub fn mean_staleness(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        self.staleness_sum as f64 / self.accepted as f64
    }

    /// Count one accepted update with its round-trip time and staleness.
    fn record(&mut self, rtt_ms: f64, staleness: u64) {
        if self.rtt_ms.len() < RTT_WINDOW {
            self.rtt_ms.push(rtt_ms);
        } else {
            self.rtt_ms[self.accepted % RTT_WINDOW] = rtt_ms;
        }
        self.accepted += 1;
        self.staleness_sum += staleness;
    }
}

/// The wire-masking policy: everything the executor needs to decide a
/// sub-model dispatch per client and to re-derive the returning mask.
///
/// [`NetworkExecutor::with_wire_masking`] hands the fleet, upload bytes,
/// grid and deadline to the executor's [`DispatchPlanner`], whose fit
/// rule picks each keep ratio from the fleet's *predicted* completion
/// times — the rule the in-process executors plan with, so the networked
/// and simulated paths make identical dispatch decisions for the same
/// fleet, grid and deadline.
/// The `model` and `seed` must match the workers' (they are the mask
/// derivation inputs shared through `dispatch_mask`).
pub struct WireMasking {
    /// The model architecture masks are derived over (never trained
    /// here — only its layer shapes matter).
    pub model: Sequential,
    /// The run seed shared with the workers.
    pub seed: u64,
    /// The keep-ratio grid to fit into the deadline.
    pub grid: StructuredDropoutConfig,
    /// The fleet whose predicted per-client completion times drive the
    /// keep-ratio choice.
    pub fleet: FleetView,
    /// Full-model upload payload in bytes (the prediction's input).
    pub upload_bytes: u64,
    /// The round deadline (seconds, virtual) dispatches must fit.
    pub deadline_s: f64,
}

/// A dispatch awaiting its update.
#[derive(Debug, Clone, Copy)]
struct PendingDispatch {
    sent: Instant,
    /// The model version the dispatch was stamped with: the newest one its
    /// answer can have trained on.
    version: u64,
}

/// The networked round executor. See the module docs for the contract.
pub struct NetworkExecutor {
    server: NetServer,
    mode: NetMode,
    round_timeout: Duration,
    /// Who is dispatched on how much of the model, the model version, and
    /// the reliability table.
    planner: DispatchPlanner,
    /// Parameter count of the model last published: the length every
    /// arriving update must claim.
    published_len: usize,
    /// Clients with a `TrainRequest` outstanding.
    pending: BTreeMap<usize, PendingDispatch>,
    /// Cumulative departed count at the end of the previous round, for
    /// the per-round `departed` delta in buffered hetero records.
    departed_seen: usize,
    /// The model and seed a compact `MaskedUpdate`'s mask is re-derived
    /// from, when a [`WireMasking`] policy is attached.
    mask_source: Option<(Sequential, u64)>,
    telemetry: Arc<Mutex<NetTelemetry>>,
}

impl NetworkExecutor {
    /// A round-barrier executor over `server` (10 s round timeout).
    pub fn barrier(server: NetServer) -> Self {
        NetworkExecutor {
            server,
            mode: NetMode::Barrier,
            round_timeout: Duration::from_secs(10),
            planner: DispatchPlanner::default(),
            published_len: 0,
            pending: BTreeMap::new(),
            departed_seen: 0,
            mask_source: None,
            telemetry: Arc::new(Mutex::new(NetTelemetry::default())),
        }
    }

    /// A buffered-asynchronous executor aggregating every `buffer_size`
    /// arrivals.
    ///
    /// # Panics
    /// Panics when `buffer_size` is zero.
    pub fn buffered(server: NetServer, buffer_size: usize) -> Self {
        assert!(buffer_size > 0, "buffer size must be positive");
        let mut ex = Self::barrier(server);
        ex.mode = NetMode::Buffered { buffer_size };
        ex
    }

    /// Replace the per-round collection timeout.
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Attach a wire-masking policy: deadline-pressed clients get
    /// sub-model dispatches, answered with compact `MaskedUpdate`
    /// frames. Replaces the planner with one over the policy's fleet, so
    /// attach it before the first round.
    pub fn with_wire_masking(mut self, masking: WireMasking) -> Self {
        let (deadline_s, grid) = (Some(masking.deadline_s), Some(masking.grid));
        self.planner =
            DispatchPlanner::over_fleet(masking.fleet, masking.upload_bytes, masking.seed)
                .with_deadline(deadline_s, grid, LatePolicy::CarryOver);
        self.mask_source = Some((masking.model, masking.seed));
        self
    }

    /// Shared handle onto the measured telemetry. Clone it before boxing
    /// the executor into a `Session`; it stays readable afterwards.
    pub fn telemetry(&self) -> Arc<Mutex<NetTelemetry>> {
        Arc::clone(&self.telemetry)
    }

    /// The underlying server endpoint (e.g. to await subscriptions
    /// before building the session).
    pub fn server(&self) -> &NetServer {
        &self.server
    }

    /// The current model version counter.
    pub fn model_version(&self) -> u64 {
        self.planner.version() as u64
    }

    /// Scatter a compact `MaskedUpdate`'s kept weights back into a
    /// full-length vector under the structured mask re-derived from the
    /// shared seed (the derivation the worker ran). `None` when that mask
    /// disagrees with the frame's shape — a client that derived from
    /// different inputs — so the update is dropped rather than aggregated
    /// misaligned.
    fn reassemble_masked(
        (model, seed): &(Sequential, u64),
        msg: &UpdateMsg,
        info: MaskedWireInfo,
    ) -> Option<(Vec<f32>, StructuredMask)> {
        let mask = dispatch_mask(model, *seed, msg.round, msg.client_id, info.keep_ratio);
        if mask.len() != info.total_len || mask.kept() != msg.weights.len() {
            return None;
        }
        let mut full = vec![0.0f32; info.total_len];
        let mut kept = msg.weights.iter();
        for (slot, &keep) in full.iter_mut().zip(mask.as_slice()) {
            if keep {
                *slot = *kept.next().expect("kept count checked above");
            }
        }
        Some((full, mask))
    }
}

impl std::fmt::Debug for NetworkExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkExecutor")
            .field("mode", &self.mode)
            .field("version", &self.planner.version())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl RoundExecutor for NetworkExecutor {
    fn publish_model(&mut self, _round: usize, global: &[f32]) {
        let _ = self.server.publish(self.model_version(), global);
        self.published_len = global.len();
        // Mirror the server's cumulative bytes-on-wire counters into the
        // shared telemetry so they stay readable once this executor is
        // boxed into a session.
        lock(&self.telemetry).publish = self.server.publish_stats();
    }

    /// Training happens on the remote workers, so the session's `train`
    /// callback is deliberately ignored here — the closure workers
    /// registered with [`crate::client::run_client`] plays its role.
    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        _train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let round = ctx.round;
        let round_start = Instant::now();

        // Dispatches to clients that departed while in flight are lost.
        // Every lost dispatch below is a dropout of its client, in the
        // round's record and in the planner's reliability table alike.
        let departed = self.server.departed();
        let mut failed = 0usize;
        for cid in departed {
            if self.pending.remove(&cid).is_some() {
                self.planner.count_dropout(cid);
                failed += 1;
            }
        }

        // A client with a dispatch outstanding is still working on an
        // earlier version: the planner skips it as busy.
        let pending = &self.pending;
        let (orders, mut record) = self
            .planner
            .plan(round, 0.0, selected, |cid| pending.contains_key(&cid));
        let version = self.model_version();
        let mut dispatched: Vec<usize> = Vec::with_capacity(orders.len());
        for order in &orders {
            let cid = order.client_id;
            let request = Message::TrainRequest {
                round: round as u64,
                keep_ratio: order.keep_ratio,
            };
            // Stamp *before* the send: on loopback the whole reply can
            // land before the write syscall returns, and an after-send
            // stamp would clock such round trips at zero.
            let sent = Instant::now();
            if self.server.is_live(cid) && self.server.send_to(cid, &request).is_ok() {
                self.pending.insert(cid, PendingDispatch { sent, version });
                dispatched.push(cid);
            } else {
                self.planner.count_dropout(cid);
                failed += 1;
            }
        }

        let mut want = match self.mode {
            NetMode::Barrier => dispatched.len(),
            NetMode::Buffered { buffer_size } => buffer_size.min(self.pending.len()),
        };
        let deadline = round_start + self.round_timeout;
        let mut malformed = 0usize;
        let mut arrived: Vec<ClientUpdate> = Vec::with_capacity(want);
        while arrived.len() < want {
            let Some(inbound) = self.server.recv_update(deadline) else {
                break; // round timeout (or shutdown) with updates missing
            };
            let cid = inbound.msg.client_id as usize;
            if !self.pending.contains_key(&cid) {
                continue; // unsolicited or duplicate update
            }
            if matches!(self.mode, NetMode::Barrier) && inbound.msg.round != round as u64 {
                continue; // leftover answer to an abandoned earlier round
            }
            let pending = self.pending.remove(&cid).expect("pending checked above");
            let rtt_ms = inbound
                .arrival
                .saturating_duration_since(pending.sent)
                .as_secs_f64()
                * 1e3;
            let msg = inbound.msg;
            let staleness = version - msg.model_version.min(pending.version);
            let masked_arrival = inbound.masked.is_some();
            // The peer chose these lengths; checked here, a wrong one is a
            // counted failure instead of a length assert in the session's
            // aggregation. A masked frame with no masking policy attached
            // (or one whose re-derived mask disagrees with its shape)
            // cannot be scattered and goes the same way.
            let claimed_len = inbound
                .masked
                .map_or(msg.weights.len(), |info| info.total_len);
            let weights = if claimed_len != self.published_len {
                None
            } else if let Some(info) = inbound.masked {
                let source = self.mask_source.as_ref();
                let scattered = source.and_then(|src| Self::reassemble_masked(src, &msg, info));
                scattered.map(|(weights, mask)| (weights, Some(mask)))
            } else {
                Some((msg.weights, None))
            };
            let Some((weights, mask)) = weights else {
                // Its dispatch is answered: the round can collect no more
                // than what is still in flight, so a barrier stops waiting
                // for this client instead of sitting out the timeout.
                self.planner.count_dropout(cid);
                malformed += 1;
                want = want.min(arrived.len() + self.pending.len());
                continue;
            };
            {
                let mut t = lock(&self.telemetry);
                t.record(rtt_ms, staleness);
                if masked_arrival {
                    t.masked_updates += 1;
                }
            }
            arrived.push(ClientUpdate {
                client_id: cid,
                weights,
                n_samples: msg.n_samples as usize,
                loss_before: msg.loss_before,
                loss_after: msg.loss_after,
                staleness: staleness as usize,
                mask,
            });
        }

        let mut timed_out = 0usize;
        if matches!(self.mode, NetMode::Barrier) {
            // Abandon what the barrier could not collect so the next
            // round's dispatches start clean.
            for &cid in &dispatched {
                if self.pending.remove(&cid).is_some() {
                    self.planner.count_dropout(cid);
                    timed_out += 1;
                }
            }
        }
        {
            let mut t = lock(&self.telemetry);
            t.dispatched += dispatched.len();
            t.failed_dispatches += failed;
            t.timed_out += timed_out;
            t.malformed_updates += malformed;
        }

        let updates = match self.mode {
            // Arrival order is a race; the ideal contract is sampling
            // order, so reassemble along `selected`.
            NetMode::Barrier => {
                let mut by_id: BTreeMap<usize, ClientUpdate> =
                    arrived.into_iter().map(|u| (u.client_id, u)).collect();
                selected
                    .iter()
                    .filter_map(|cid| by_id.remove(cid))
                    .collect()
            }
            NetMode::Buffered { .. } => arrived,
        };
        // Only an aggregation makes a new global model; the planner bumps
        // the version for a round that hands the session something.
        self.planner.finish_round(&updates, &mut record);
        let hetero = matches!(self.mode, NetMode::Buffered { .. }).then(|| {
            let departed_total = self.server.departed().len();
            record.departed = departed_total.saturating_sub(self.departed_seen);
            self.departed_seen = departed_total;
            // Measured wall-clock of the aggregation, where the simulator
            // would report virtual time.
            record.sim_time_s = round_start.elapsed().as_secs_f64();
            record.dropouts += failed + timed_out + malformed;
            record.staleness = updates.iter().map(|u| u.staleness).collect();
            record
        });
        RoundOutcome { updates, hetero }
    }

    fn view(&self) -> ExecutorView<'_> {
        // Sweep first so silence observed since the last round surfaces
        // as departure before selection runs.
        let _ = self.server.sweep_expired();
        // The registry sits behind the server's lock, so the sets are
        // copied out, a handful of workers wide.
        ExecutorView {
            departed: Cow::Owned(self.server.departed().into_iter().collect()),
            in_flight: Cow::Owned(self.pending.keys().copied().collect()),
            ..self.planner.view()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_percentiles_and_means() {
        let mut t = NetTelemetry::default();
        for (rtt, staleness) in [(5.0, 0), (1.0, 1), (3.0, 2), (2.0, 1), (4.0, 1)] {
            t.record(rtt, staleness);
        }
        assert_eq!(t.p50_rtt_ms(), 3.0);
        assert_eq!(t.p99_rtt_ms(), 5.0);
        assert_eq!(t.accepted, 5);
        assert!((t.mean_staleness() - 1.0).abs() < 1e-12);
        let empty = NetTelemetry::default();
        assert_eq!(empty.p50_rtt_ms(), 0.0);
        assert_eq!(empty.mean_staleness(), 0.0);
    }

    /// The exact sum and count give the mean the per-sample vector gave,
    /// bit for bit, past the RTT window too.
    #[test]
    fn mean_staleness_equals_the_per_sample_mean() {
        let samples: Vec<u64> = (0..RTT_WINDOW as u64 + 777).map(|i| i * 7 % 13).collect();
        let mut t = NetTelemetry::default();
        for &s in &samples {
            t.record(1.0, s);
        }
        let per_sample = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert_eq!(t.mean_staleness().to_bits(), per_sample.to_bits());
        assert_eq!(t.accepted, samples.len());
    }

    /// At the window boundary the vector stops growing and the oldest
    /// sample is the next one overwritten: percentiles read the latest
    /// `RTT_WINDOW` round trips.
    #[test]
    fn rtt_window_keeps_the_latest_samples() {
        let mut t = NetTelemetry::default();
        for i in 0..RTT_WINDOW {
            t.record(i as f64, 0);
        }
        assert_eq!(t.rtt_ms.len(), RTT_WINDOW);
        assert_eq!(t.rtt_percentile_ms(0.0), 0.0);
        for i in RTT_WINDOW..RTT_WINDOW + 3 {
            t.record(i as f64, 0);
        }
        assert_eq!(t.rtt_ms.len(), RTT_WINDOW, "the window does not grow");
        assert_eq!(t.accepted, RTT_WINDOW + 3);
        let w = RTT_WINDOW as f64;
        assert_eq!(&t.rtt_ms[..4], &[w, w + 1.0, w + 2.0, 3.0]);
        assert_eq!(t.rtt_percentile_ms(0.0), 3.0, "the three oldest are gone");
        assert_eq!(t.rtt_percentile_ms(1.0), w + 2.0);
    }

    /// Regression for the nearest-rank fix: over 100 samples `1..=100`,
    /// p50 is the 50th value (the old `((N−1)·p).round()` indexing read
    /// the 51st) and p99 the 99th — the exact definition
    /// `feddrl_sim::device` applies to fleet completion times.
    #[test]
    fn percentiles_are_true_nearest_rank() {
        let t = NetTelemetry {
            rtt_ms: (1..=100).rev().map(f64::from).collect(),
            ..NetTelemetry::default()
        };
        assert_eq!(t.p50_rtt_ms(), 50.0);
        assert_eq!(t.p99_rtt_ms(), 99.0);
        assert_eq!(t.rtt_percentile_ms(0.0), 1.0);
        assert_eq!(t.rtt_percentile_ms(1.0), 100.0);
        // Odd N keeps the textbook median.
        let t = NetTelemetry {
            rtt_ms: vec![9.0, 1.0, 5.0],
            ..NetTelemetry::default()
        };
        assert_eq!(t.p50_rtt_ms(), 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer size must be positive")]
    fn zero_buffer_is_rejected() {
        use crate::builder::NetServerBuilder;
        let server = NetServerBuilder::new().build().expect("bind");
        let _ = NetworkExecutor::buffered(server, 0);
    }

    /// Regression: an `execute` that collects nothing (here every dispatch
    /// fails — the server has no subscribers) leaves the global model
    /// untouched, so it must not bump the version either.
    #[test]
    fn empty_round_does_not_bump_the_model_version() {
        use crate::builder::NetServerBuilder;
        let server = NetServerBuilder::new().build().expect("bind");
        let mut executor = NetworkExecutor::buffered(server, 2);
        let ctx = TrainContext {
            round: 0,
            seed: 0,
            global: &[],
        };
        let out = executor.execute(&ctx, &[0, 1, 2], &|_, _| Vec::new());
        assert!(out.updates.is_empty());
        assert_eq!(out.hetero.expect("buffered record").dropouts, 3);
        assert_eq!(executor.model_version(), 0);
    }
}
