//! The dispatch planner: *who trains, on how much of the model, and whose
//! report counts* — the one decision every executor that dispatches makes
//! before the strategy sees an update.
//!
//! [`DispatchPlanner`] owns the state that decision needs — the optional
//! device fleet, the per-client upload payload, the churn process, the
//! dropout stream, the observed reliability telemetry and the
//! model-version counter — so the executors built on it (the simulated
//! deadline and buffered ones, and `feddrl_net`'s socket executor) differ
//! only in *where arrivals come from*.
//!
//! Without a fleet there is nothing to predict, so
//! [`DispatchPlanner::plan`] draws no dropout and fits nothing: every
//! order is full. With one, each order is fitted to the round deadline by
//! the adaptive-structured-dropout fit rule, private to this module:
//! `plan` is its only caller, so no two executors can disagree on a keep
//! ratio for the same device and deadline.

use std::borrow::Cow;

use crate::client::ClientUpdate;
use crate::executor::{
    Dispatch, ExecutorView, LatePolicy, ReliabilityTable, StructuredDropoutConfig,
};
use crate::history::HeteroRoundRecord;
use feddrl_nn::rng::Rng64;
use feddrl_sim::churn::ChurnProcess;
use feddrl_sim::comm::CommModel;
use feddrl_sim::device::{DeviceProfile, DiurnalConfig, FleetConfig, FleetView};
use feddrl_sim::event::{Event, EventKind, EventQueue};

/// Salt for the per-round dropout RNG stream (distinct from client
/// training `0xC11E` and selection streams).
const DROPOUT_SALT: u64 = 0xD20_0FF;

/// How much of the model a device trains against a round deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeepRatio {
    /// The full model is predicted to arrive in time (or there is no
    /// deadline to miss).
    Full,
    /// The full model would miss; this is the largest grid ratio whose
    /// sub-model still fits.
    Sub(f64),
    /// Even the smallest sub-model misses (or no grid is configured): a
    /// foregone straggler, whose fate is the caller's policy.
    Misses,
}

/// The adaptive-structured-dropout fit rule: the full model if its
/// predicted completion fits `deadline_s`, else the largest keep ratio on
/// `grid` that does, else [`KeepRatio::Misses`]. `diurnal`/`now_s` place
/// the prediction on the fleet's absolute timeline (`None`/`0.0` for a
/// time-invariant one).
fn keep_ratio(
    profile: &DeviceProfile,
    upload_bytes: u64,
    deadline_s: Option<f64>,
    grid: Option<&StructuredDropoutConfig>,
    diurnal: Option<&DiurnalConfig>,
    now_s: f64,
) -> KeepRatio {
    let time_for = |r: f64| profile.completion_time_at(upload_bytes, r, diurnal, now_s);
    match deadline_s {
        Some(deadline_s) if time_for(1.0) > deadline_s => grid
            .and_then(|g| g.largest_fitting(deadline_s, time_for))
            .map_or(KeepRatio::Misses, KeepRatio::Sub),
        _ => KeepRatio::Full,
    }
}

/// The per-client upload payload a round of `participants` clients
/// training a `param_count`-parameter model is simulated with: one
/// client's share of the §3.5 FedDRL uplink (model weights plus the two
/// scalar losses). The planner prices every dispatch with it, so a
/// deadline placed with `FleetView::completion_percentile_s` on this
/// number is placed on what the executors simulate.
///
/// # Panics
/// Panics on zero `participants`.
pub fn upload_bytes(param_count: usize, participants: usize) -> u64 {
    assert!(participants > 0, "participants must be positive");
    let k = participants as u64;
    let traffic = CommModel::new(param_count.max(1) as u64, k).feddrl_round();
    (traffic.uplink_models + traffic.uplink_metadata) / k
}

/// Shared dispatch state of every executor that dispatches; see the module
/// docs. The [`Default`] planner has no fleet, no churn and no deadline.
#[derive(Debug, Default)]
pub struct DispatchPlanner {
    /// The devices dropout is drawn and orders are fitted against; `None`
    /// orders everyone in full.
    fleet: Option<FleetView>,
    upload_bytes: u64,
    seed: u64,
    /// What dispatches are fitted to ([`Self::with_deadline`]): the round
    /// deadline, the sub-model grid, and the fate of a device that fits
    /// neither. No deadline — the default — trains everyone in full.
    deadline_s: Option<f64>,
    grid: Option<StructuredDropoutConfig>,
    late_policy: LatePolicy,
    /// The fleet's arrival/departure process, when churn is configured.
    churn: Option<ChurnProcess>,
    /// Observed per-client reliability telemetry (dropouts, dispatches,
    /// aggregated updates and their staleness), keyed by observed client.
    stats: ReliabilityTable,
    /// Global-model versions produced so far: incremented only when a
    /// round actually aggregates something, so staleness counts *model
    /// versions* an update is behind, not calendar rounds (an empty round
    /// leaves the global — and therefore every pending update's freshness
    /// — untouched).
    version: usize,
    /// Virtual time the current round started at (diurnal modulation and
    /// completion predictions are evaluated there).
    round_start_s: f64,
    /// Cumulative churn `(joins, leaves)` at the start of the round, for
    /// the round record's deltas.
    churn_before: (usize, usize),
}

impl DispatchPlanner {
    /// Open a lazy view over the device fleet (profiles derive on demand —
    /// nothing is materialized up front), price the per-client upload
    /// payload ([`upload_bytes`]) and start the churn process, if any.
    /// `seed` salts the dropout draws and the churn timeline.
    ///
    /// # Panics
    /// Panics on a degenerate fleet config or zero `participants`.
    pub fn new(
        fleet_cfg: &FleetConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        let fleet = FleetView::new(n_clients, fleet_cfg);
        let churn = fleet_cfg.churn.as_ref();
        Self {
            churn: churn.map(|c| ChurnProcess::new(n_clients, c, fleet_cfg.seed ^ seed)),
            ..Self::over_fleet(fleet, upload_bytes(param_count, participants), seed)
        }
    }

    /// A planner over an open `fleet` whose devices each upload
    /// `upload_bytes`, without churn; `seed` salts the dropout draws.
    pub fn over_fleet(fleet: FleetView, upload_bytes: u64, seed: u64) -> Self {
        Self {
            fleet: Some(fleet),
            upload_bytes,
            seed,
            ..Self::default()
        }
    }

    /// Fit every dispatch to a round deadline: structured dropout (when a
    /// `grid` is given) shrinks a predicted straggler's model until it
    /// fits; one that cannot fit falls to `late_policy`.
    pub fn with_deadline(
        mut self,
        deadline_s: Option<f64>,
        grid: Option<StructuredDropoutConfig>,
        late_policy: LatePolicy,
    ) -> Self {
        (self.deadline_s, self.grid, self.late_policy) = (deadline_s, grid, late_policy);
        self
    }

    /// Cumulative `(joins, leaves)` of the churn process (zeros without one).
    fn churn_counts(&self) -> (usize, usize) {
        self.churn
            .as_ref()
            .map_or((0, 0), |c| (c.joins(), c.leaves()))
    }

    /// Advance the churn timeline to `t_s` (a no-op rewind when already
    /// past it), widening the fleet view to any ids minted on the way so
    /// selection can derive their profiles. Returns the churn events
    /// crossed, in time order — empty without a churn process.
    pub fn advance_churn(&mut self, t_s: f64) -> Vec<Event> {
        let Some(churn) = self.churn.as_mut() else {
            return Vec::new();
        };
        let events = churn.advance_to(t_s);
        if let Some(fleet) = &mut self.fleet {
            fleet.grow(churn.universe());
        }
        events
    }

    /// Whether `client_id` is still in the federation at the churn
    /// timeline's current instant (always, without churn).
    pub fn is_active(&self, client_id: usize) -> bool {
        self.churn.as_ref().is_none_or(|c| c.is_active(client_id))
    }

    /// Start round `round` at virtual time `now_s` — the churn timeline is
    /// brought up to it, so ids minted by now are selectable next round —
    /// and decide every sampled client's fate, up front: a dropped client
    /// never trains (its device failed the round), so its CPU is not
    /// simulated. Returns the training orders, in sampling order, and the
    /// round's record opened with the dispatch counters; every sampled
    /// client lands in exactly one bucket —
    /// `selected.len() == orders + dropouts + busy + stragglers` — decided
    /// per client in this order:
    ///
    /// 1. **Departed** — a dispatch to a departed client is a wasted slot.
    ///    The server cannot know the device left until it fails to answer,
    ///    so it reads as a dropout, which is exactly how the departure
    ///    surfaces in reliability telemetry.
    /// 2. **Busy** — `busy(client)` says an earlier update of theirs is
    ///    still traveling or parked unconsumed; redispatching would let
    ///    one client fill several slots of a single aggregation.
    /// 3. **Dropout** — the seeded per-`(round, client)` draw against the
    ///    device's (diurnally modulated) dropout rate.
    /// 4. **Fit** — the fit rule against the deadline; a sub-model order
    ///    counts as `masked`. A device that cannot fit is a foregone
    ///    straggler under [`LatePolicy::Drop`] — its update would be
    ///    trained only to be discarded — and trains in full under
    ///    [`LatePolicy::CarryOver`], where the late update is still wanted.
    ///
    /// Without a fleet, steps 3 and 4 are skipped: every order is full.
    pub fn plan(
        &mut self,
        round: usize,
        now_s: f64,
        selected: &[usize],
        busy: impl Fn(usize) -> bool,
    ) -> (Vec<Dispatch>, HeteroRoundRecord) {
        self.round_start_s = now_s;
        self.churn_before = self.churn_counts();
        self.advance_churn(now_s);

        let diurnal = self
            .fleet
            .as_ref()
            .and_then(|f| f.config().diurnal.as_ref());
        let (deadline_s, grid) = (self.deadline_s, self.grid.as_ref());
        let dropout_rng = Rng64::new(self.seed ^ DROPOUT_SALT).derive(round as u64);
        let mut alive = Vec::with_capacity(selected.len());
        let mut record = HeteroRoundRecord::default();
        for &cid in selected {
            if !self.is_active(cid) {
                record.dropouts += 1;
                self.stats.entry(cid).dropouts += 1;
                continue;
            }
            if busy(cid) {
                record.busy += 1;
                continue;
            }
            let keep_ratio = match &self.fleet {
                None => 1.0,
                Some(fleet) => {
                    let profile = fleet.profile(cid);
                    let p = profile.effective_dropout(diurnal, now_s);
                    if p > 0.0 && dropout_rng.derive(cid as u64).chance(p) {
                        record.dropouts += 1;
                        self.stats.entry(cid).dropouts += 1;
                        continue;
                    }
                    let bytes = self.upload_bytes;
                    match keep_ratio(&profile, bytes, deadline_s, grid, diurnal, now_s) {
                        KeepRatio::Sub(ratio) => ratio,
                        KeepRatio::Misses if self.late_policy == LatePolicy::Drop => {
                            record.stragglers += 1;
                            continue;
                        }
                        KeepRatio::Full | KeepRatio::Misses => 1.0,
                    }
                }
            };
            record.masked += usize::from(keep_ratio < 1.0);
            alive.push(Dispatch {
                client_id: cid,
                keep_ratio,
            });
            self.stats.entry(cid).dispatches += 1;
        }
        (alive, record)
    }

    /// Schedule every dispatch's upload completion on `queue` — `origin_s`
    /// plus the predicted seconds from the round start until the update
    /// reaches the server (local compute on its share of the model plus
    /// the upload over its link), stamped with the model version it trains
    /// against. Returns the largest predicted completion time.
    ///
    /// # Panics
    /// Panics on a planner without a fleet: there is nothing to predict.
    pub fn schedule_uploads(
        &self,
        alive: &[Dispatch],
        origin_s: f64,
        queue: &mut EventQueue,
    ) -> f64 {
        let fleet = self
            .fleet
            .as_ref()
            .expect("uploads are predicted over a fleet");
        let diurnal = fleet.config().diurnal.as_ref();
        let (bytes, now_s) = (self.upload_bytes, self.round_start_s);
        let mut max_completion_s = 0.0f64;
        for d in alive {
            let profile = fleet.profile(d.client_id);
            let completion_s = profile.completion_time_at(bytes, d.keep_ratio, diurnal, now_s);
            max_completion_s = max_completion_s.max(completion_s);
            let (client_id, version) = (d.client_id, self.version);
            let arrival = EventKind::UploadComplete { client_id, version };
            queue.schedule(origin_s + completion_s, arrival);
        }
        max_completion_s
    }

    /// Turn a dispatch [`Self::plan`] booked for `client_id` into a
    /// dropout: the dispatch was lost to a send that failed, or to an
    /// answer that never came or came malformed. The reliability table
    /// the view lends out then reads it as the simulated executors read a
    /// failed device, so a client's dropouts and dispatches still add up
    /// to the times it was tried.
    pub fn count_dropout(&mut self, client_id: usize) {
        let stats = self.stats.entry(client_id);
        debug_assert!(stats.dispatches > 0, "client {client_id} had no dispatch");
        stats.dispatches = stats.dispatches.saturating_sub(1);
        stats.dropouts += 1;
    }

    /// The model version dispatches are stamped with and staleness is
    /// measured against.
    pub fn version(&self) -> usize {
        self.version
    }

    /// Close the round over the updates it hands to the session: book
    /// their per-client aggregation/staleness telemetry, bump the model
    /// version — only when something is actually aggregated (the session
    /// will then produce a new global) — and complete `record` with their
    /// ids and the clients that joined/departed since [`Self::plan`],
    /// mid-round churn included.
    pub fn finish_round(&mut self, aggregated: &[ClientUpdate], record: &mut HeteroRoundRecord) {
        for u in aggregated {
            let s = self.stats.entry(u.client_id);
            s.aggregated += 1;
            s.staleness_sum += u.staleness;
        }
        self.version += usize::from(!aggregated.is_empty());
        let (joins, leaves) = self.churn_counts();
        record.joined = joins - self.churn_before.0;
        record.departed = leaves - self.churn_before.1;
        record.aggregated_ids = aggregated.iter().map(|u| u.client_id).collect();
    }

    /// The planner's share of an [`ExecutorView`] — everything but what
    /// only the executor knows (discount, server mix, in-flight clients).
    /// The fleet, the telemetry and the departed set are borrowed, never
    /// cloned: taking a view is O(1).
    pub fn view(&self) -> ExecutorView<'_> {
        let churn = self.churn.as_ref();
        ExecutorView {
            universe: churn.map(ChurnProcess::universe),
            departed: churn.map_or_else(Default::default, |c| Cow::Borrowed(c.departed())),
            fleet: self.fleet.as_ref(),
            upload_bytes: self.upload_bytes,
            deadline_s: self.deadline_s,
            reliability: Some(&self.stats),
            ..ExecutorView::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feddrl_sim::device::ChurnConfig;

    /// The rule's three outcomes, and how the planner maps `Misses`
    /// through the `LatePolicy` (wire masking plans under `CarryOver`).
    #[test]
    fn keep_ratio_picks_the_largest_fitting_ratio() {
        let fleet = FleetView::new(16, &FleetConfig::default());
        let profile = fleet.profile(0);
        let grid = StructuredDropoutConfig::default();
        let fit = |deadline_s: Option<f64>, grid: Option<&StructuredDropoutConfig>| {
            keep_ratio(&profile, 50_000, deadline_s, grid, None, 0.0)
        };
        // Nothing fits — with or without a grid to try.
        assert_eq!(fit(Some(0.0), Some(&grid)), KeepRatio::Misses);
        assert_eq!(fit(Some(0.0), None), KeepRatio::Misses);
        // Everything fits, or there is no deadline: full model everywhere.
        assert_eq!(fit(Some(1e9), Some(&grid)), KeepRatio::Full);
        assert_eq!(fit(None, Some(&grid)), KeepRatio::Full);
        // A deadline exactly at the 0.625 sub-model's predicted time
        // fits 0.625 (largest fitting) but not the full model, since
        // local compute scales with the ratio.
        let t_625 = profile.completion_time_at(50_000, 0.625, None, 0.0);
        assert_eq!(fit(Some(t_625), Some(&grid)), KeepRatio::Sub(0.625));

        // `Misses` under the planner: `Drop` forgoes the dispatch,
        // `CarryOver` trains the full model anyway.
        let plan_with = |late_policy| {
            DispatchPlanner::new(&FleetConfig::default(), 16, 1000, 4, 7)
                .with_deadline(Some(1e-9), Some(grid), late_policy)
                .plan(0, 0.0, &[0], |_| false)
        };
        let (alive, dropped) = plan_with(LatePolicy::Drop);
        assert_eq!((alive.len(), dropped.stragglers), (0, 1));
        let (alive, carried) = plan_with(LatePolicy::CarryOver);
        assert_eq!(alive, vec![Dispatch::full(0)]);
        assert_eq!((carried.stragglers, carried.masked), (0, 0));
    }

    /// Every sampled client lands in exactly one bucket each round, and
    /// the telemetry totals close against the per-round counters — under
    /// the deadline executor's parameterisation (deadline + grid, nobody
    /// busy) and the buffered one's (no deadline, a busy predicate).
    #[test]
    fn plan_accounts_for_every_sampled_client() {
        let fleet_cfg = FleetConfig {
            compute_skew: 4.0,
            dropout: 0.2,
            diurnal: Some(DiurnalConfig::default()),
            churn: Some(ChurnConfig {
                mean_arrival_gap_s: 6.0,
                mean_departure_gap_s: 5.0,
            }),
            ..Default::default()
        };
        let new_planner = || DispatchPlanner::new(&fleet_cfg, 12, 1000, 6, 21);
        let probe = new_planner();
        let fleet = probe.fleet.as_ref().expect("a fleet");
        let median_s = fleet.completion_percentile_s(probe.upload_bytes, 0.5);
        let grid = Some(StructuredDropoutConfig::default());
        for (deadline_s, busy_stride) in [(Some(median_s), usize::MAX), (None, 3)] {
            let mut planner = new_planner().with_deadline(deadline_s, grid, LatePolicy::Drop);
            let (mut dropouts, mut dispatches, mut masked) = (0, 0, 0);
            for round in 0..30 {
                let universe = planner.view().universe.expect("churn is on");
                let selected: Vec<usize> = (0..universe).filter(|c| (c + round) % 2 == 0).collect();
                let (alive, plan) = planner.plan(round, round as f64 * 4.0, &selected, |cid| {
                    (cid + 1) % busy_stride == 0
                });
                assert_eq!(
                    selected.len(),
                    alive.len() + plan.dropouts + plan.busy + plan.stragglers,
                    "round {round}: a sampled client fell through the plan"
                );
                let sub_models = alive.iter().filter(|d| d.keep_ratio < 1.0).count();
                assert_eq!(plan.masked, sub_models);
                assert!(busy_stride == 3 || plan.busy == 0);
                assert!(deadline_s.is_some() || plan.stragglers + plan.masked == 0);
                dropouts += plan.dropouts;
                dispatches += alive.len();
                masked += plan.masked;
            }
            let totals = planner.stats.totals();
            assert_eq!((totals.dropouts, totals.dispatches), (dropouts, dispatches));
            assert!(dropouts > 0 && dispatches > 0, "degenerate scenario");
            assert_eq!(deadline_s.is_some(), masked > 0, "grid never/wrongly used");
        }
    }

    /// Without a fleet there is nothing to draw or fit: everyone neither
    /// departed nor busy gets a full order, and the table counts them.
    #[test]
    fn a_fleetless_plan_orders_everyone_in_full() {
        let mut planner = DispatchPlanner::default();
        let (orders, record) = planner.plan(0, 0.0, &[4, 1, 7], |cid| cid == 1);
        assert_eq!(orders, vec![Dispatch::full(4), Dispatch::full(7)]);
        assert_eq!((record.busy, record.dropouts, record.masked), (1, 0, 0));
        let totals = planner.stats.totals();
        assert_eq!((totals.dispatches, totals.dropouts), (2, 0));
        let view = planner.view();
        assert_eq!(
            (view.fleet, view.upload_bytes, view.deadline_s),
            (None, 0, None)
        );
    }
}
