//! Round executors: *which* sampled clients report back, and *when*.
//!
//! The paper's Algorithm 2 assumes the idealized synchronous setting —
//! every sampled client trains and its update arrives instantly. Real
//! federated deployments are dominated by device heterogeneity:
//! stragglers, dropouts, and deadline-bounded rounds. [`RoundExecutor`]
//! factors that concern out of the server loop:
//!
//! * [`IdealExecutor`] reproduces the paper's setting bit-for-bit (the
//!   default; histories are byte-identical to the pre-abstraction loop);
//! * [`DeadlineExecutor`] runs each round through the discrete-event
//!   heterogeneity engine (`feddrl_sim::{device, event}`): every sampled
//!   client gets a seeded [`DeviceProfile`](feddrl_sim::device::DeviceProfile),
//!   may drop out, and its upload-completion time — local compute plus
//!   model upload over its link — is scheduled on an [`EventQueue`]. Only
//!   updates arriving before the round deadline are aggregated; late ones
//!   are dropped or carried into the next round ([`LatePolicy`]);
//! * [`BufferedExecutor`] drops the round barrier entirely
//!   (FedAsync/FedBuff-style): the virtual clock and event queue persist
//!   across rounds, sampled clients start training immediately against
//!   the current model version, and the server aggregates as soon as
//!   `m = buffer_size` updates have arrived — a slow device's update lands
//!   in a *later* aggregation, `s` model versions stale, and its impact
//!   factor is scaled by a configurable [`StalenessDiscount`].
//!
//! Determinism: dropout draws derive from `(seed, round, client id)` and
//! device profiles from the fleet seed, so heterogeneity scenarios
//! reproduce exactly, independent of thread scheduling.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::client::ClientUpdate;
use crate::dispatch::DispatchPlanner;
use crate::history::HeteroRoundRecord;
use feddrl_sim::device::{FleetConfig, FleetView};
use feddrl_sim::event::{EventKind, EventQueue, VirtualClock};
use feddrl_sim::ids::{IdMap, IdSet};
use serde::{Deserialize, Serialize};

/// How an update's impact factor is scaled by its staleness `s` — the
/// number of model versions aggregated between the version the update was
/// trained against and the version it is aggregated into.
///
/// Applied by the session loop to the strategy's *raw* factors before
/// simplex normalization, so a discount redistributes weight toward
/// fresher updates rather than shrinking the aggregate. Every function is
/// exactly `1` at `s = 0`, which keeps fresh-only rounds bit-identical to
/// an undiscounted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum StalenessDiscount {
    /// No discount: stale updates aggregate at full weight.
    #[default]
    None,
    /// FedAsync's polynomial decay `(1 + s)^{-alpha}`: smooth, never zero,
    /// `alpha` controls how hard staleness is punished (`alpha = 0` is a
    /// no-op, `alpha = 1` is the `1/(1+s)` aging suggested in the survey
    /// literature).
    Polynomial {
        /// Decay exponent (finite, non-negative).
        alpha: f64,
    },
    /// Hinged decay: full weight up to `cutoff` versions of slack, then
    /// `1/(1 + s - cutoff)` beyond it — tolerate mild staleness, punish
    /// the long tail. Never zero, so a round of all-stale updates still
    /// normalizes onto the simplex.
    Hinge {
        /// Staleness up to which an update keeps full weight.
        cutoff: usize,
    },
}

impl StalenessDiscount {
    /// The multiplicative weight for an update `staleness` versions behind.
    /// Always in `(0, 1]`, and exactly `1.0` at zero staleness. The lower
    /// end is clamped to `f32::MIN_POSITIVE`: an aggressive polynomial
    /// exponent must never underflow to an exact zero, or an all-stale
    /// aggregation would zero every factor and fail simplex normalization
    /// mid-run on a configuration the builder accepted.
    pub fn factor(&self, staleness: usize) -> f32 {
        let raw = match *self {
            StalenessDiscount::None => return 1.0,
            StalenessDiscount::Polynomial { alpha } => (1.0 + staleness as f64).powf(-alpha) as f32,
            StalenessDiscount::Hinge { cutoff } => {
                if staleness <= cutoff {
                    1.0
                } else {
                    (1.0 / (1.0 + (staleness - cutoff) as f64)) as f32
                }
            }
        };
        raw.max(f32::MIN_POSITIVE)
    }

    /// Check the discount's parameters.
    ///
    /// # Errors
    /// [`FlError::InvalidDiscount`](crate::error::FlError::InvalidDiscount)
    /// on a non-finite or negative polynomial exponent.
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        if let StalenessDiscount::Polynomial { alpha } = *self {
            if !(alpha.is_finite() && alpha >= 0.0) {
                return Err(crate::error::FlError::InvalidDiscount {
                    reason: format!(
                        "polynomial exponent must be finite and non-negative, got {alpha}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// What happens to an update that misses the round deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LatePolicy {
    /// Late updates are discarded (the client's round was wasted).
    #[default]
    Drop,
    /// Late updates are buffered and aggregated in a later round with
    /// spare capacity (stale but not wasted — the FedAsync-style
    /// compromise). At most `participants` updates are aggregated per
    /// round, so a stale update waits until dropouts/stragglers leave
    /// room; it is discarded if its client reports fresh first, or if the
    /// queue outgrows `participants` (oldest evicted — unbounded staleness
    /// would poison the aggregate).
    CarryOver,
}

/// Adaptive structured dropout: a device whose predicted full-model
/// completion time misses the round deadline trains a *masked sub-model*
/// (whole hidden units removed, compute scaled down proportionally)
/// instead of being dropped or carried stale. The executor picks the
/// **largest** keep ratio from a small grid that still fits the deadline;
/// if even the smallest misses, the client falls back to the configured
/// [`LatePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StructuredDropoutConfig {
    /// Smallest sub-model the server will ask a device to train, as a
    /// keep fraction in `(0, 1)`.
    pub min_ratio: f64,
    /// Number of keep-ratio levels on the grid
    /// `min_ratio + i · (1 − min_ratio) / levels`, `i ∈ [0, levels)` — all
    /// strictly below 1 (a full model is not a sub-model).
    pub levels: usize,
}

impl Default for StructuredDropoutConfig {
    /// Four levels down to a quarter-width model: 0.25, 0.4375, 0.625,
    /// 0.8125.
    fn default() -> Self {
        Self {
            min_ratio: 0.25,
            levels: 4,
        }
    }
}

impl StructuredDropoutConfig {
    /// Candidate keep ratios, largest first (the executor takes the first
    /// that fits the deadline — the biggest sub-model the device can
    /// finish in time).
    pub fn ratios_desc(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.levels)
            .rev()
            .map(move |i| self.min_ratio + i as f64 * (1.0 - self.min_ratio) / self.levels as f64)
    }

    /// The largest keep ratio on the grid whose predicted completion time
    /// (per the caller-supplied cost model) fits the deadline, or `None`
    /// when even the smallest sub-model misses it.
    ///
    /// The fit rule of [`DispatchPlanner`] is the one caller: it supplies
    /// the device cost model for every executor, in process or over
    /// sockets, so a given `(deadline, device)` pair yields the same keep
    /// ratio on either side — a precondition for their byte-identical
    /// histories.
    pub fn largest_fitting(
        &self,
        deadline_s: f64,
        mut time_for_ratio: impl FnMut(f64) -> f64,
    ) -> Option<f64> {
        self.ratios_desc()
            .find(|&r| time_for_ratio(r) <= deadline_s)
    }

    /// Check the ratio grid's invariants.
    ///
    /// # Errors
    /// [`FlError::InvalidDynamics`](crate::error::FlError::InvalidDynamics)
    /// on a ratio outside `(0, 1)` or an empty grid.
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if !(self.min_ratio.is_finite() && 0.0 < self.min_ratio && self.min_ratio < 1.0) {
            return Err(FlError::InvalidDynamics {
                reason: format!(
                    "structured-dropout min_ratio must be in (0, 1), got {}",
                    self.min_ratio
                ),
            });
        }
        if self.levels == 0 {
            return Err(FlError::InvalidDynamics {
                reason: "structured-dropout ratio grid needs at least one level".into(),
            });
        }
        Ok(())
    }
}

/// Deadline-bounded execution knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HeteroConfig {
    /// Device-fleet generation parameters (one profile per client).
    pub fleet: FleetConfig,
    /// Round deadline in simulated seconds; `None` waits for every
    /// non-dropped client (unbounded round).
    #[serde(default)]
    pub deadline_s: Option<f64>,
    /// Fate of updates that miss the deadline.
    #[serde(default)]
    pub late_policy: LatePolicy,
    /// Adaptive structured dropout for predicted deadline-missers; `None`
    /// (the default, omitted from JSON) sends every foregone straggler
    /// down the `late_policy` path — the historical behavior.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub structured_dropout: Option<StructuredDropoutConfig>,
    /// Discount aging carried-over updates by the rounds they waited
    /// (meaningful under [`LatePolicy::CarryOver`]; the default `None`
    /// reinjects them at full weight, the pre-discount behavior).
    #[serde(default)]
    pub staleness: StalenessDiscount,
}

impl HeteroConfig {
    /// Check every invariant the deadline executor enforces — the single
    /// source of truth shared by [`DeadlineExecutor::new`] (which panics
    /// on violation) and
    /// [`FlConfig::validate`](crate::server::FlConfig::validate) (which
    /// surfaces it as a typed error before any compute is spent).
    ///
    /// # Errors
    /// [`FlError::InvalidDeadline`](crate::error::FlError::InvalidDeadline),
    /// [`FlError::InvalidFleet`](crate::error::FlError::InvalidFleet),
    /// [`FlError::InvalidReliability`](crate::error::FlError::InvalidReliability) or
    /// [`FlError::InvalidDynamics`](crate::error::FlError::InvalidDynamics).
    pub fn validate(&self) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if let Some(d) = self.deadline_s {
            if !(d.is_finite() && d > 0.0) {
                return Err(FlError::InvalidDeadline { deadline_s: d });
            }
        }
        if let Some(sd) = &self.structured_dropout {
            sd.validate()?;
        }
        self.staleness.validate()?;
        validate_fleet(&self.fleet)
    }
}

/// Shared fleet validation mapping the three halves of
/// [`FleetConfig::validate`] to their distinct typed errors.
fn validate_fleet(fleet: &FleetConfig) -> Result<(), crate::error::FlError> {
    use crate::error::FlError;
    fleet
        .validate_base()
        .map_err(|reason| FlError::InvalidFleet { reason })?;
    fleet
        .validate_reliability()
        .map_err(|reason| FlError::InvalidReliability { reason })?;
    fleet
        .validate_dynamics()
        .map_err(|reason| FlError::InvalidDynamics { reason })
}

/// Buffered asynchronous execution knobs (FedAsync/FedBuff-style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferedConfig {
    /// Device-fleet generation parameters (one profile per client).
    pub fleet: FleetConfig,
    /// Updates the server waits for before aggregating (`m`). Must be in
    /// `[1, participants]`: zero would never aggregate, and a buffer
    /// larger than the per-round dispatch width starves the first rounds.
    pub buffer_size: usize,
    /// Impact-factor discount applied per update by its staleness.
    #[serde(default)]
    pub staleness: StalenessDiscount,
    /// Server mixing rate `η ∈ (0, 1]`: the new global model is
    /// `(1 − η)·w + η·Σ αₖ wₖ` — the FedAsync/FedBuff server step that
    /// keeps a small buffer from fully overwriting the global with a few
    /// clients' (possibly stale, non-IID) models. `None` means `η = 1`,
    /// the paper's pure Eq. 4 replacement.
    #[serde(default)]
    pub server_mix: Option<f64>,
}

impl Default for BufferedConfig {
    /// Homogeneous default fleet, buffer of 1 (pure FedAsync), no
    /// discount.
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            buffer_size: 1,
            staleness: StalenessDiscount::None,
            server_mix: None,
        }
    }
}

impl BufferedConfig {
    /// Check every invariant the buffered executor enforces — shared by
    /// [`BufferedExecutor::new`] (which panics on violation) and
    /// [`FlConfig::validate`](crate::server::FlConfig::validate) (which
    /// surfaces it as a typed error before any compute is spent).
    ///
    /// # Errors
    /// [`FlError::ZeroBuffer`](crate::error::FlError::ZeroBuffer),
    /// [`FlError::BufferExceedsParticipants`](crate::error::FlError::BufferExceedsParticipants),
    /// [`FlError::InvalidDiscount`](crate::error::FlError::InvalidDiscount),
    /// [`FlError::InvalidFleet`](crate::error::FlError::InvalidFleet) or
    /// [`FlError::InvalidReliability`](crate::error::FlError::InvalidReliability).
    pub fn validate(&self, participants: usize) -> Result<(), crate::error::FlError> {
        use crate::error::FlError;
        if self.buffer_size == 0 {
            return Err(FlError::ZeroBuffer);
        }
        if self.buffer_size > participants {
            return Err(FlError::BufferExceedsParticipants {
                buffer_size: self.buffer_size,
                participants,
            });
        }
        if let Some(eta) = self.server_mix {
            if !(eta.is_finite() && 0.0 < eta && eta <= 1.0) {
                return Err(FlError::InvalidServerMix { server_mix: eta });
            }
        }
        self.staleness.validate()?;
        validate_fleet(&self.fleet)
    }
}

/// Which execution model a federated run uses (a [`crate::server::FlConfig`]
/// knob; `Ideal` is the paper's synchronous setting and the default).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum ExecutorConfig {
    /// Every sampled client trains and reports instantly (Algorithm 2).
    #[default]
    Ideal,
    /// Deadline-bounded rounds over a heterogeneous device fleet.
    Deadline(HeteroConfig),
    /// Buffered asynchronous aggregation: no round barrier, the server
    /// aggregates whenever `buffer_size` updates have arrived, stale
    /// updates discounted by [`StalenessDiscount`].
    Buffered(BufferedConfig),
}

impl ExecutorConfig {
    /// Build the executor for a run of `n_clients` total clients exchanging
    /// a `param_count`-parameter model with `participants` clients per
    /// round. `seed` salts the per-round dropout draws.
    pub fn build(
        &self,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Box<dyn RoundExecutor> {
        match self {
            ExecutorConfig::Ideal => Box::new(IdealExecutor),
            ExecutorConfig::Deadline(cfg) => Box::new(DeadlineExecutor::new(
                cfg.clone(),
                n_clients,
                param_count,
                participants,
                seed,
            )),
            ExecutorConfig::Buffered(cfg) => Box::new(BufferedExecutor::new(
                cfg.clone(),
                n_clients,
                param_count,
                participants,
                seed,
            )),
        }
    }
}

/// Per-client reliability telemetry a heterogeneity-aware executor
/// accumulates over a run — the *observed* counterpart to the fleet's
/// configured [`DeviceProfile`](feddrl_sim::device::DeviceProfile) rates,
/// which selection policies are not allowed to read directly (a real
/// server never knows a device's true failure probability, only what it
/// has seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientReliability {
    /// Times this client was sampled and its device failed the round
    /// before training.
    pub dropouts: usize,
    /// Times this client was sampled and actually dispatched to train.
    pub dispatches: usize,
    /// Updates from this client the server has aggregated.
    pub aggregated: usize,
    /// Total staleness (in model versions) over its aggregated updates.
    pub staleness_sum: usize,
}

impl ClientReliability {
    /// Mean staleness over this client's aggregated updates (0 while none
    /// arrived) — chronically high values mark the slow devices an
    /// async-aware policy should dispatch while they are idle.
    pub fn mean_staleness(&self) -> f64 {
        if self.aggregated == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.aggregated as f64
        }
    }
}

/// Sparse per-client reliability telemetry: [`ClientReliability`] keyed by
/// the clients the executor has actually *observed* (dispatched or seen
/// drop), instead of a dense `Vec` over the whole fleet.
///
/// An unobserved client reads as [`ClientReliability::default`] — exactly
/// what a dense table initialized that way would hold — so lookups are
/// total and the switch from dense storage is invisible to readers. What
/// changes is the memory shape: a million-client fleet whose rounds touch
/// a hundred devices holds a hundred entries ([`ReliabilityTable::observed`]
/// is the resident-entry count the scale sweep reports). The entries live
/// in a hashed [`IdMap`], so the per-candidate lookups selection makes
/// every round cost O(1) whatever the table's size; iteration, which only
/// reports and tests make, visits only observed clients and sorts them
/// into ascending id order (deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityTable {
    stats: IdMap<ClientReliability>,
}

impl ReliabilityTable {
    /// An empty table (nothing observed yet). Allocation-free and
    /// independent of fleet size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry for `client_id` — the zero record if unobserved.
    pub fn get(&self, client_id: usize) -> ClientReliability {
        self.stats.get(&client_id).copied().unwrap_or_default()
    }

    /// Mutable telemetry for `client_id`, inserting the zero record on
    /// first observation.
    pub fn entry(&mut self, client_id: usize) -> &mut ClientReliability {
        self.stats.entry(client_id).or_default()
    }

    /// Replace `client_id`'s telemetry wholesale (test/bench synthesis).
    pub fn insert(&mut self, client_id: usize, stats: ClientReliability) {
        self.stats.insert(client_id, stats);
    }

    /// Number of clients observed so far — the resident-memory metric:
    /// proportional to clients actually dispatched, never to fleet size.
    pub fn observed(&self) -> usize {
        self.stats.len()
    }

    /// Whether no client has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterate observed `(client_id, telemetry)` pairs in ascending id
    /// order (sorted on each call: a reporting path, not a per-round one).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ClientReliability)> + '_ {
        let mut entries: Vec<_> = self.stats.iter().map(|(&id, s)| (id, s)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries.into_iter()
    }

    /// Field-wise totals over every observed client — the aggregate the
    /// accounting laws (dispatch/dropout/aggregation closure) are stated
    /// against.
    pub fn totals(&self) -> ClientReliability {
        let mut t = ClientReliability::default();
        for s in self.stats.values() {
            t.dropouts += s.dropouts;
            t.dispatches += s.dispatches;
            t.aggregated += s.aggregated;
            t.staleness_sum += s.staleness_sum;
        }
        t
    }
}

impl FromIterator<(usize, ClientReliability)> for ReliabilityTable {
    fn from_iter<I: IntoIterator<Item = (usize, ClientReliability)>>(iter: I) -> Self {
        Self {
            stats: iter.into_iter().collect(),
        }
    }
}

/// One client's training order: who trains, and how much of the model.
///
/// Executors hand the session a slice of these instead of bare client
/// ids, so adaptive structured dropout can ask a pressured device for a
/// sub-model without a second callback channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// Client index in the federation.
    pub client_id: usize,
    /// Fraction of the model's hidden units this client trains, in
    /// `(0, 1]`. `1` is full-model training; anything below it asks the
    /// session to derive a per-`(round, client)`
    /// [`StructuredMask`](feddrl_nn::mask::StructuredMask) (see
    /// [`crate::client::MASK_SALT`]) and train the masked sub-model.
    pub keep_ratio: f64,
}

impl Dispatch {
    /// A full-model training order for `client_id`.
    pub fn full(client_id: usize) -> Self {
        Self {
            client_id,
            keep_ratio: 1.0,
        }
    }
}

/// Everything local training is a function of, besides the client: the
/// round, the master seed, and the flat parameters of the global model
/// broadcast that round. The session builds one per round and hands it to
/// [`RoundExecutor::execute`]; an executor passes it on to the
/// [`TrainFn`] — at once, or (the buffered executor) from a snapshot when
/// the upload lands rounds later.
#[derive(Debug, Clone, Copy)]
pub struct TrainContext<'a> {
    /// Communication round the clients were dispatched in (0-based).
    pub round: usize,
    /// The session's master seed (client streams derive from
    /// `(seed, round, client_id)`).
    pub seed: u64,
    /// Flat parameters of the global model broadcast in that round.
    pub global: &'a [f32],
}

/// The local-training callback executors dispatch through: maps each
/// [`Dispatch`] to its client's [`ClientUpdate`], in order, training from
/// the [`TrainContext`]'s broadcast. It must be a pure function of
/// `(seed, round, client, broadcast)` — the buffered executor calls it
/// when an upload *arrives*, not when it is dispatched. The session's
/// callback fans the clients of one call out over threads itself.
pub type TrainFn<'a> = dyn Fn(&TrainContext<'_>, &[Dispatch]) -> Vec<ClientUpdate> + 'a;

/// Whether `train` answered `dispatches` one update each, in order — the
/// contract the executors rely on when they zip updates back onto their
/// dispatches.
fn in_dispatch_order(updates: &[ClientUpdate], dispatches: &[Dispatch]) -> bool {
    updates.len() == dispatches.len()
        && updates
            .iter()
            .zip(dispatches)
            .all(|(u, d)| u.client_id == d.client_id)
}

/// What a round executor hands back to the server loop.
pub struct RoundOutcome {
    /// Updates to aggregate this round, in deterministic order: carried-in
    /// stale updates first (oldest information), then this round's
    /// arrivals in sampling order. May be empty (everyone dropped or
    /// missed the deadline) — the server then skips aggregation.
    pub updates: Vec<ClientUpdate>,
    /// Heterogeneity telemetry; `None` for the ideal executor.
    pub hetero: Option<HeteroRoundRecord>,
}

/// The round-execution abstraction the server loop runs against.
///
/// `train` runs local training for a *subset* of the sampled clients and
/// returns their updates in the given order; the executor decides which
/// clients actually train (dropouts are decided before training, saving
/// their wasted CPU) and which reports make it back in time.
pub trait RoundExecutor: Send {
    /// Execute round `ctx.round` for the sampled `selected` clients, who
    /// train from the broadcast `ctx.global`. The executor decides which
    /// of them actually train — and, under adaptive structured dropout,
    /// how much of the model each trains — and invokes `train` with the
    /// resulting [`Dispatch`] orders and the context of the round they
    /// were dispatched in.
    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome;

    /// Broadcast the current global model to wherever training happens.
    /// The session calls this once per round, right before
    /// [`RoundExecutor::execute`], with the flat parameters the selected
    /// clients must train from. Every in-process executor keeps the no-op
    /// default (its `train` callback receives the broadcast in the
    /// [`TrainContext`]); distributed executors (`feddrl_net`) fan the
    /// weights out to their remote client workers here.
    fn publish_model(&mut self, round: usize, global: &[f32]) {
        let _ = (round, global);
    }

    /// Snapshot of everything the session and the selection policy may
    /// know about this executor's state, taken between rounds. The default
    /// — [`ExecutorView::default`] — is an executor with no device model,
    /// no churn and nothing ever pending (the ideal one).
    fn view(&self) -> ExecutorView<'_> {
        ExecutorView::default()
    }
}

/// What a [`RoundExecutor`] exposes between rounds: the session reads it
/// once before selection — and hands it to the
/// [`SelectionPolicy`](crate::selection::SelectionPolicy) as
/// [`SelectionContext::executor`](crate::selection::SelectionContext::executor)
/// — and once after [`RoundExecutor::execute`]. The fleet and the
/// telemetry are borrowed from the executor, never cloned.
#[derive(Debug, PartialEq)]
pub struct ExecutorView<'a> {
    /// Total client ids ever minted, when the executor models fleet churn:
    /// ids in `[0, universe)` are valid to select (some may have
    /// departed), and growth of this value between rounds is how the
    /// session learns of late joiners. `None` means the client set is
    /// fixed at the partition's size.
    pub universe: Option<usize>,
    /// Clients that have left the federation (churn departures, or TTL
    /// expiry over sockets). Dispatching one is guaranteed to be wasted —
    /// the executor counts it as a dropout — so ranking policies demote
    /// departed candidates below every live one. Their telemetry persists
    /// in [`Self::reliability`] (it simply goes stale), and uniform
    /// sampling deliberately ignores this field: the paper's baseline
    /// stays oblivious to churn, which is exactly the behavior the
    /// churn-aware policies are measured against. Borrowed from the churn
    /// process (owned only where the set lives behind a lock, as over
    /// sockets); empty for executors without churn.
    pub departed: Cow<'a, IdSet>,
    /// The device fleet the executor simulates — what heterogeneity-aware
    /// policies base their completion-time estimates on. Served as a lazy
    /// [`FleetView`], so consulting only the candidate pool costs
    /// O(candidates) regardless of fleet size. `None` for executors
    /// without a device model.
    pub fleet: Option<&'a FleetView>,
    /// Per-client upload payload in bytes (0 when there is no
    /// communication model); combined with [`Self::fleet`] it prices a
    /// client's predicted arrival.
    pub upload_bytes: u64,
    /// The round deadline in simulated seconds, if the executor bounds
    /// rounds — lets selection policies avoid clients that would be cut.
    pub deadline_s: Option<f64>,
    /// How the session discounts a stale update's impact factor: the
    /// factor for an update `s` versions behind is multiplied by
    /// [`StalenessDiscount::factor`]`(s)` before simplex normalization.
    /// `None` leaves factors untouched, so executors that only ever report
    /// fresh updates keep the historical byte-identical path.
    pub staleness_discount: StalenessDiscount,
    /// Server mixing rate `η ∈ (0, 1]` the session applies at aggregation:
    /// `w ← (1 − η)·w + η·Σ αₖ wₖ`. `1.0` is the paper's pure Eq. 4
    /// replacement and leaves the historical code path untouched.
    pub server_mix: f64,
    /// Clients whose dispatched update is still on its way to the server
    /// — training, uploading, or parked in an unconsumed server-side
    /// queue. Sampling them again either wastes the slot (the buffered
    /// executors skip busy devices at dispatch) or supersedes — discards —
    /// the queued stale update (the deadline executor's carry-over), so
    /// async-aware selection policies rank them last. Borrowed from the
    /// id-keyed set the executor keeps for its own busy checks, so taking
    /// a view costs the same whether ten or a hundred thousand clients
    /// are pending. Empty for executors that end every round with nothing
    /// pending.
    pub in_flight: Cow<'a, IdSet>,
    /// Per-client *observed* reliability telemetry — dropout counts and
    /// staleness history accumulated so far, keyed by client id and
    /// holding entries only for clients actually dispatched. Policies see
    /// only what the server has witnessed, never the fleet's true failure
    /// probabilities. `None` for executors without a device model (the
    /// ideal one never drops anyone).
    pub reliability: Option<&'a ReliabilityTable>,
}

impl Default for ExecutorView<'_> {
    /// No device model, no churn, nothing pending, `server_mix = 1`.
    fn default() -> Self {
        Self {
            universe: None,
            departed: Cow::default(),
            fleet: None,
            upload_bytes: 0,
            deadline_s: None,
            staleness_discount: StalenessDiscount::None,
            server_mix: 1.0,
            in_flight: Cow::default(),
            reliability: None,
        }
    }
}

/// The paper's idealized synchronous round: everyone trains, everyone
/// reports, no virtual time passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealExecutor;

impl RoundExecutor for IdealExecutor {
    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let dispatches: Vec<Dispatch> = selected.iter().map(|&c| Dispatch::full(c)).collect();
        RoundOutcome {
            updates: train(ctx, &dispatches),
            hetero: None,
        }
    }
}

/// Deadline-bounded rounds over a seeded heterogeneous device fleet.
pub struct DeadlineExecutor {
    /// Who trains and on how much of the model — fleet, churn, dropout
    /// draws, telemetry and the model version all live here.
    planner: DispatchPlanner,
    cfg: HeteroConfig,
    participants: usize,
    /// Late updates awaiting a later round, each paired with the model
    /// version it was trained against — the carry-in ages it by the
    /// difference (only under [`LatePolicy::CarryOver`]).
    carried: Vec<(ClientUpdate, usize)>,
    /// The clients of `carried`, as the set the view lends out.
    carried_ids: IdSet,
    /// Virtual seconds elapsed since the start of the run — the sum of
    /// every finished round's `sim_time_s`. Rounds still replay on a
    /// round-local event queue, but churn and diurnal modulation live on
    /// this absolute timeline (0 forever when both are off, keeping the
    /// static path byte-identical).
    clock_s: f64,
}

impl DeadlineExecutor {
    /// Build the executor over a fresh dispatch planner
    /// ([`crate::dispatch`]) for the configured fleet.
    ///
    /// # Panics
    /// Panics on a non-positive deadline or a degenerate fleet config.
    pub fn new(
        cfg: HeteroConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Self {
            planner: DispatchPlanner::new(&cfg.fleet, n_clients, param_count, participants, seed)
                .with_deadline(cfg.deadline_s, cfg.structured_dropout, cfg.late_policy),
            cfg,
            participants,
            carried: Vec::new(),
            carried_ids: IdSet::default(),
            clock_s: 0.0,
        }
    }
}

impl RoundExecutor for DeadlineExecutor {
    fn view(&self) -> ExecutorView<'_> {
        ExecutorView {
            staleness_discount: self.cfg.staleness,
            // Under `LatePolicy::CarryOver` a straggler's late update waits
            // in the carried queue between rounds; re-dispatching its
            // client would supersede (discard) that queued work, so
            // selection policies should treat it as pending. Always empty
            // under `Drop`.
            in_flight: Cow::Borrowed(&self.carried_ids),
            ..self.planner.view()
        }
    }

    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let round_start_s = self.clock_s;
        // Nobody is ever busy here: every round ends with nothing in
        // flight (a carried update's client may be redispatched — the
        // fresh report then supersedes the queued one).
        let (alive, mut hetero) = self
            .planner
            .plan(ctx.round, round_start_s, selected, |_| false);
        let updates = train(ctx, &alive);
        debug_assert!(
            in_dispatch_order(&updates, &alive),
            "train must preserve dispatch order"
        );

        // --- Discrete-event round: schedule every surviving upload, then
        // replay the timeline against the deadline. Queue sized to this
        // round's dispatch (plus the deadline) — independent of fleet size.
        let mut queue = EventQueue::with_capacity(updates.len() + 1);
        let max_completion_s = self.planner.schedule_uploads(&alive, 0.0, &mut queue);
        if let Some(deadline) = self.cfg.deadline_s {
            // Scheduled *after* the uploads: the FIFO tie-break then counts
            // an arrival at exactly the deadline as in time.
            queue.schedule(deadline, EventKind::Deadline);
        }

        // --- Mid-round churn: look ahead over the whole round window so a
        // departure can cancel its client's in-flight upload (the device
        // leaves before the report lands — a straggler the server waits
        // out, never aggregated, never carried). The churn clock then sits
        // at the window's end; rounds that finish early simply re-request
        // that prefix next time (a no-op rewind).
        let horizon_s = self.cfg.deadline_s.unwrap_or(max_completion_s);
        let mut leave_at: IdMap<f64> = IdMap::default();
        for ev in self.planner.advance_churn(round_start_s + horizon_s) {
            if let EventKind::ClientLeave { client_id } = ev.kind {
                leave_at.entry(client_id).or_insert(ev.time_s);
            }
        }

        let mut clock = VirtualClock::new();
        let mut arrived_ids = Vec::new();
        let mut last_arrival_s = 0.0f64;
        let mut deadline_fired = false;
        while let Some(event) = queue.pop() {
            clock.advance_to(event.time_s);
            match event.kind {
                EventKind::UploadComplete { client_id, .. } if !deadline_fired => {
                    // A departure strictly before the arrival instant
                    // cancels the upload; leaving at the exact arrival
                    // moment still delivers it.
                    let canceled = leave_at
                        .get(&client_id)
                        .is_some_and(|&t| t < round_start_s + event.time_s);
                    if !canceled {
                        arrived_ids.push(client_id);
                        last_arrival_s = clock.now_s();
                    }
                }
                EventKind::UploadComplete { .. } => {} // straggler: drained below
                EventKind::Deadline => deadline_fired = true,
                EventKind::ClientJoin { .. } | EventKind::ClientLeave { .. } => {
                    unreachable!("churn events are consumed by ChurnProcess, never queued here")
                }
            }
        }
        // On top of the stragglers the plan already gave up on.
        hetero.stragglers += updates.len() - arrived_ids.len();

        // The server waits until the deadline whenever a sampled report is
        // missing (it cannot know the client dropped); otherwise the round
        // ends when the last expected upload lands. With an unbounded
        // deadline, dropouts are assumed to notify failure, so the round
        // still ends at the last arrival.
        hetero.sim_time_s = match self.cfg.deadline_s {
            Some(deadline) if hetero.stragglers > 0 || hetero.dropouts > 0 => deadline,
            _ => last_arrival_s,
        };

        // --- Split arrivals from stragglers, keeping sampling order (so an
        // unbounded no-dropout round reduces exactly to the ideal one).
        let (arrived, late): (Vec<_>, Vec<_>) = updates
            .into_iter()
            .partition(|u| arrived_ids.contains(&u.client_id));

        // --- Carry-in: stale updates fill the round's spare capacity,
        // oldest first, each aged by the rounds it waited (`staleness`
        // drives the session's impact-factor discount). A fresh arrival
        // discards its client's stale copy; stale updates that find no
        // capacity stay queued for a later, shorter round.
        let version = self.planner.version();
        let mut aggregated = Vec::new();
        let mut still_queued = Vec::new();
        for (mut stale, trained_version) in std::mem::take(&mut self.carried) {
            if arrived.iter().any(|u| u.client_id == stale.client_id) {
                continue; // superseded by this round's fresh report
            }
            if aggregated.len() + arrived.len() < self.participants {
                stale.staleness = version - trained_version;
                aggregated.push(stale);
                hetero.carried_in += 1;
            } else {
                still_queued.push((stale, trained_version));
            }
        }
        aggregated.extend(arrived);
        self.carried = still_queued; // always empty under LatePolicy::Drop
        if self.cfg.late_policy == LatePolicy::CarryOver {
            // A newer late report supersedes its client's queued copy. A
            // departed client's late upload never reached the server, so
            // there is nothing to queue (its telemetry simply goes stale).
            for u in late {
                if !self.planner.is_active(u.client_id) {
                    continue;
                }
                self.carried.retain(|(s, _)| s.client_id != u.client_id);
                self.carried.push((u, version));
            }
            // Bound staleness: keep only the K most recent queued updates —
            // an unboundedly stale update would poison the aggregate.
            if self.carried.len() > self.participants {
                let excess = self.carried.len() - self.participants;
                self.carried.drain(..excess);
            }
        }
        self.carried_ids = self.carried.iter().map(|(u, _)| u.client_id).collect();

        // Per-update ages, recorded only when something stale was
        // aggregated (all-fresh rounds keep the pre-staleness JSON shape).
        if hetero.carried_in > 0 {
            hetero.staleness = aggregated.iter().map(|u| u.staleness).collect();
        }
        self.planner.finish_round(&aggregated, &mut hetero);
        self.clock_s = round_start_s + hetero.sim_time_s;
        RoundOutcome {
            updates: aggregated,
            hetero: Some(hetero),
        }
    }
}

/// Buffered asynchronous aggregation over a seeded heterogeneous fleet
/// (FedAsync/FedBuff-style): no round barrier, persistent virtual time.
///
/// Unlike the round-scoped executors, the [`VirtualClock`] and
/// [`EventQueue`] live across `execute` calls. Each call dispatches the
/// newly sampled clients (they train against the *current* model version,
/// i.e. the current round) and schedules their upload completions, then
/// pops arrivals — which may include uploads dispatched in earlier rounds
/// — until the buffer holds exactly `buffer_size` updates. Those updates
/// are aggregated, each carrying `staleness = current version − trained
/// version`, where the version counter advances only on actual
/// aggregations (an empty round leaves the global untouched and ages
/// nothing); if the buffer cannot fill, *nothing* is aggregated and the
/// partial buffer persists, so every aggregation combines exactly
/// `buffer_size` updates. A sampled client whose previous upload is still
/// in flight *or parked in the buffer* is skipped for the round (its
/// device is busy / its report is unconsumed) — no aggregation ever
/// double-counts one client's data.
///
/// Local training is **deferred to arrival**: a dispatch parks a keep
/// ratio and the round it was dispatched in, and the executor keeps one
/// snapshot of the broadcast per dispatching round, shared by that
/// round's dispatches and freed when the last of them lands. `train` runs
/// when the upload arrives with its client still active, from that
/// round's [`TrainContext`]; because it is a pure function of
/// `(seed, round, client, broadcast)` the update is the one an executor
/// training at dispatch would have parked, and an upload lost in transit
/// is never trained at all. What is retained per pending client is a few
/// words, not a weight vector.
pub struct BufferedExecutor {
    /// Who trains — fleet, churn (advanced along this executor's own
    /// persistent clock), dropout draws, telemetry and the model version.
    planner: DispatchPlanner,
    cfg: BufferedConfig,
    /// Virtual time since the start of the *run* (not the round).
    clock: VirtualClock,
    /// Pending upload completions, across model versions.
    queue: EventQueue,
    /// Dispatches whose uploads have not completed yet, by client: the
    /// busy rule below guarantees a client has at most one.
    pending: IdMap<PendingUpload>,
    /// What `pending` entries train from, by dispatch round.
    broadcasts: BTreeMap<usize, Broadcast>,
    /// Every client with an upload traveling or a report parked in
    /// `buffer` — who is busy at the next dispatch, and what the view
    /// lends to selection.
    busy: IdSet,
    /// Arrived updates awaiting the buffer to fill, in arrival order,
    /// each with the model version it was trained against. Never holds
    /// `buffer_size` or more entries between rounds.
    buffer: Vec<(ClientUpdate, usize)>,
}

/// A dispatched client whose upload is still traveling.
struct PendingUpload {
    /// How much of the model the client was asked to train.
    keep_ratio: f64,
    /// The dispatch round — the key of its `Broadcast`.
    round: usize,
}

/// What one round's dispatches train from once their uploads land.
struct Broadcast {
    seed: u64,
    /// Flat parameters of the global model broadcast that round.
    global: Vec<f32>,
    /// Model version the round's dispatches train against.
    version: usize,
    /// Dispatches of the round still in `pending`; the snapshot is
    /// dropped when this reaches zero.
    uploads: usize,
}

impl BufferedExecutor {
    /// Build the executor over a fresh dispatch planner
    /// ([`crate::dispatch`]), like [`DeadlineExecutor::new`].
    ///
    /// # Panics
    /// Panics on a config [`BufferedConfig::validate`] rejects (zero or
    /// over-wide buffer, invalid discount, degenerate fleet).
    pub fn new(
        cfg: BufferedConfig,
        n_clients: usize,
        param_count: usize,
        participants: usize,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate(participants) {
            panic!("{e}");
        }
        Self {
            planner: DispatchPlanner::new(&cfg.fleet, n_clients, param_count, participants, seed),
            cfg,
            clock: VirtualClock::new(),
            // Sized for the first round's dispatches only. What bounds the
            // pending uploads is one per *client* (a busy client is never
            // re-dispatched), not `participants`: a round dispatches up to
            // `participants` and drains `buffer_size`, so whenever
            // `participants > buffer_size` the queue, `pending` and `busy`
            // grow with the round index until the fleet saturates — a few
            // words per pending client, and every per-round operation on
            // them is an O(1) hashed probe.
            queue: EventQueue::with_capacity(participants + 1),
            pending: IdMap::default(),
            broadcasts: BTreeMap::new(),
            busy: IdSet::default(),
            buffer: Vec::new(),
        }
    }

    /// Updates dispatched but not yet arrived at the server.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Arrived updates waiting for the buffer to fill.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The live broadcast snapshots, as `(dispatch round, uploads of that
    /// round still in flight)` in round order. Every snapshot is held by
    /// at least one pending upload and the counts sum to
    /// [`Self::in_flight`].
    pub fn broadcasts(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.broadcasts.iter().map(|(&round, b)| (round, b.uploads))
    }

    /// Drop `uploads` references to `round`'s broadcast, and the snapshot
    /// with the last of them.
    fn release(&mut self, round: usize, uploads: usize) {
        let broadcast = self
            .broadcasts
            .get_mut(&round)
            .expect("pending upload without its broadcast");
        broadcast.uploads -= uploads;
        if broadcast.uploads == 0 {
            self.broadcasts.remove(&round);
        }
    }

    /// Train this round's `arrivals` — `(dispatch, dispatch round)` in
    /// arrival order — and park the updates in the buffer in that order.
    /// Arrivals are grouped by dispatch round so that each group is one
    /// `train` call from its round's broadcast: a session's callback fans
    /// a group out over its clients.
    fn train_arrivals(&mut self, train: &TrainFn<'_>, arrivals: &[(Dispatch, usize)]) {
        let mut by_round: Vec<usize> = (0..arrivals.len()).collect();
        by_round.sort_by_key(|&i| arrivals[i].1);
        let mut trained: Vec<Option<(ClientUpdate, usize)>> = Vec::new();
        trained.resize_with(arrivals.len(), || None);
        for group in by_round.chunk_by(|&a, &b| arrivals[a].1 == arrivals[b].1) {
            let round = arrivals[group[0]].1;
            let broadcast = &self.broadcasts[&round];
            let ctx = TrainContext {
                round,
                seed: broadcast.seed,
                global: &broadcast.global,
            };
            let dispatches: Vec<Dispatch> = group.iter().map(|&i| arrivals[i].0).collect();
            let updates = train(&ctx, &dispatches);
            debug_assert!(
                in_dispatch_order(&updates, &dispatches),
                "train must preserve dispatch order"
            );
            for (&i, update) in group.iter().zip(updates) {
                trained[i] = Some((update, broadcast.version));
            }
            self.release(round, group.len());
        }
        self.buffer.extend(
            trained
                .into_iter()
                .map(|t| t.expect("every arrival trained")),
        );
    }
}

impl RoundExecutor for BufferedExecutor {
    fn view(&self) -> ExecutorView<'_> {
        ExecutorView {
            staleness_discount: self.cfg.staleness,
            server_mix: self.cfg.server_mix.unwrap_or(1.0),
            // Uploads still traveling plus reports parked in the partial
            // buffer — both make their client "busy" at the next dispatch.
            in_flight: Cow::Borrowed(&self.busy),
            ..self.planner.view()
        }
    }

    fn execute(
        &mut self,
        ctx: &TrainContext<'_>,
        selected: &[usize],
        train: &TrainFn<'_>,
    ) -> RoundOutcome {
        let round_start_s = self.clock.now_s();

        // --- Dispatch: no deadline to fit, so everyone neither departed,
        // busy (still uploading an earlier version, or with an unconsumed
        // report parked in the buffer) nor dropped starts training the
        // full model against the current version. Churn is brought up to
        // the persistent clock first (the drain loop below keeps
        // advancing it event by event).
        let busy = &self.busy;
        let (alive, mut hetero) = self
            .planner
            .plan(ctx.round, round_start_s, selected, |cid| {
                busy.contains(&cid)
            });
        let version = self.planner.version();
        self.planner
            .schedule_uploads(&alive, round_start_s, &mut self.queue);
        if !alive.is_empty() {
            // One snapshot per dispatching round, whatever its width.
            let broadcast = self
                .broadcasts
                .entry(ctx.round)
                .or_insert_with(|| Broadcast {
                    seed: ctx.seed,
                    global: ctx.global.to_vec(),
                    version,
                    uploads: 0,
                });
            broadcast.uploads += alive.len();
        }
        for d in &alive {
            let upload = PendingUpload {
                keep_ratio: d.keep_ratio,
                round: ctx.round,
            };
            self.pending.insert(d.client_id, upload);
            self.busy.insert(d.client_id);
        }

        // --- Drain arrivals (possibly from earlier versions) until the
        // buffer would fill; stop immediately at `buffer_size` so later
        // arrivals stay queued for the next aggregation. The churn
        // timeline advances in lock-step with the clock: an upload whose
        // client departed before it landed is lost in transit — counted a
        // straggler, never trained, never buffered.
        let room = self.cfg.buffer_size - self.buffer.len();
        let mut arrivals = Vec::with_capacity(room);
        while arrivals.len() < room {
            let Some(event) = self.queue.pop() else { break };
            self.clock.advance_to(event.time_s);
            let EventKind::UploadComplete { client_id, .. } = event.kind else {
                unreachable!("buffered executor schedules no deadline or churn events");
            };
            let upload = self
                .pending
                .remove(&client_id)
                .expect("upload event without a pending dispatch");
            self.planner.advance_churn(event.time_s);
            if self.planner.is_active(client_id) {
                let dispatch = Dispatch {
                    client_id,
                    keep_ratio: upload.keep_ratio,
                };
                arrivals.push((dispatch, upload.round));
            } else {
                hetero.stragglers += 1;
                self.busy.remove(&client_id);
                self.release(upload.round, 1);
            }
        }
        self.train_arrivals(train, &arrivals);

        // --- Aggregate exactly `buffer_size` updates, or nothing: a
        // partial buffer persists (the server keeps waiting while the
        // session records an empty round). Aggregating bumps the model
        // version — an empty round does not, so freshness is measured in
        // actual global-model steps.
        let mut aggregated = Vec::new();
        if self.buffer.len() == self.cfg.buffer_size {
            for (mut u, trained_version) in self.buffer.drain(..) {
                u.staleness = version - trained_version;
                self.busy.remove(&u.client_id);
                aggregated.push(u);
            }
        }
        hetero.sim_time_s = self.clock.now_s() - round_start_s;
        hetero.buffered = self.buffer.len();
        hetero.staleness = aggregated.iter().map(|u| u.staleness).collect();
        self.planner.finish_round(&aggregated, &mut hetero);
        RoundOutcome {
            updates: aggregated,
            hetero: Some(hetero),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A weightless update for client `cid` (executor logic never touches
    /// the payload).
    fn stub_update(cid: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: cid,
            weights: vec![0.0; 4],
            n_samples: 10 + cid,
            loss_before: 1.0,
            loss_after: 0.5,
            staleness: 0,
            mask: None,
        }
    }

    /// `client`'s predicted full-model completion time on `ex`'s fleet.
    fn completion_s(ex: &dyn RoundExecutor, client: usize) -> f64 {
        let view = ex.view();
        let fleet = view.fleet.expect("executor has a fleet");
        fleet.profile(client).completion_time_s(view.upload_bytes)
    }

    /// The `pct`-percentile of full-model completion times on `ex`'s fleet.
    fn completion_percentile_s(ex: &dyn RoundExecutor, pct: f64) -> f64 {
        let view = ex.view();
        let fleet = view.fleet.expect("executor has a fleet");
        fleet.completion_percentile_s(view.upload_bytes, pct)
    }

    fn stub_train(_ctx: &TrainContext<'_>, dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
        dispatches
            .iter()
            .map(|d| stub_update(d.client_id))
            .collect()
    }

    /// Round `round`'s context for a stub that never reads the broadcast.
    fn ctx(round: usize) -> TrainContext<'static> {
        TrainContext {
            round,
            seed: 0,
            global: &[],
        }
    }

    fn skewed_cfg(deadline_s: Option<f64>, dropout: f64) -> HeteroConfig {
        HeteroConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                bandwidth_skew: 2.0,
                dropout,
                ..Default::default()
            },
            deadline_s,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        }
    }

    #[test]
    fn ideal_executor_is_a_passthrough() {
        let selected = [3usize, 1, 4];
        let out = IdealExecutor.execute(&ctx(0), &selected, &stub_train);
        assert!(out.hetero.is_none());
        let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, vec![3, 1, 4]);
    }

    #[test]
    fn unbounded_round_time_is_max_of_completions() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.0), 8, 1000, 8, 7);
        let selected: Vec<usize> = (0..8).collect();
        let out = ex.execute(&ctx(0), &selected, &stub_train);
        let h = out.hetero.unwrap();
        let expected = (0..8).map(|c| completion_s(&ex, c)).fold(0.0f64, f64::max);
        assert!((h.sim_time_s - expected).abs() < 1e-12);
        assert_eq!(h.stragglers, 0);
        assert_eq!(h.dropouts, 0);
        assert_eq!(h.aggregated(), 8);
        assert_eq!(out.updates.len(), 8);
    }

    #[test]
    fn tight_deadline_cuts_stragglers_and_caps_round_time() {
        let cfg = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(cfg.clone(), 16, 1000, 16, 7);
        // Deadline at the fleet median: roughly half the devices miss it.
        let deadline = completion_percentile_s(&probe, 0.5);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                ..cfg
            },
            16,
            1000,
            16,
            7,
        );
        let selected: Vec<usize> = (0..16).collect();
        let out = ex.execute(&ctx(0), &selected, &stub_train);
        let h = out.hetero.unwrap();
        assert!(h.stragglers > 0, "median deadline produced no stragglers");
        assert!(h.aggregated() < 16);
        assert_eq!(h.aggregated() + h.stragglers, 16);
        assert_eq!(h.sim_time_s, deadline);
        // Exactly the in-time devices arrived.
        for u in &out.updates {
            let t = completion_s(&ex, u.client_id);
            assert!(
                t <= deadline,
                "straggler {t} leaked past deadline {deadline}"
            );
        }
    }

    #[test]
    fn dropouts_are_deterministic_and_reduce_participation() {
        let mk = || DeadlineExecutor::new(skewed_cfg(None, 0.5), 10, 500, 10, 21);
        let selected: Vec<usize> = (0..10).collect();
        let (mut a, mut b) = (mk(), mk());
        let (oa, ob) = (
            a.execute(&ctx(3), &selected, &stub_train),
            b.execute(&ctx(3), &selected, &stub_train),
        );
        let (ha, hb) = (oa.hetero.unwrap(), ob.hetero.unwrap());
        assert_eq!(ha, hb, "same seed must reproduce the same dropouts");
        assert!(ha.dropouts > 0, "p=0.5 over 10 clients drew no dropout");
        assert_eq!(ha.aggregated() + ha.dropouts, 10);
        // A different round draws a different pattern eventually.
        let oc = a.execute(&ctx(4), &selected, &stub_train);
        assert!(oc.hetero.unwrap().aggregated() <= 10);
    }

    #[test]
    fn carry_over_reinjects_late_updates_next_round() {
        let cfg = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(cfg.clone(), 12, 1000, 6, 7);
        let deadline = completion_percentile_s(&probe, 0.4);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                late_policy: LatePolicy::CarryOver,
                ..cfg
            },
            12,
            1000,
            6,
            7,
        );
        // Round 0: slowest 6 clients — some miss the deadline.
        let first: Vec<usize> = (0..6).collect();
        let o0 = ex.execute(&ctx(0), &first, &stub_train);
        let h0 = o0.hetero.unwrap();
        assert!(h0.stragglers > 0, "deadline cut nobody");
        // Round 1: disjoint clients; the stale updates ride along.
        let second: Vec<usize> = (6..12).collect();
        let o1 = ex.execute(&ctx(1), &second, &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.carried_in.min(1), 1, "no stale update carried in");
        assert!(h1.aggregated() <= 6, "carry-over exceeded participant cap");
        let carried_ids: Vec<usize> = o1
            .updates
            .iter()
            .map(|u| u.client_id)
            .filter(|c| *c < 6)
            .collect();
        assert_eq!(carried_ids.len(), h1.carried_in);
    }

    #[test]
    fn queued_stale_update_waits_for_a_round_with_capacity() {
        // Homogeneous fleet, deadline below everyone's completion time:
        // every sampled client straggles and is queued under CarryOver.
        let cfg = HeteroConfig {
            fleet: FleetConfig::default(), // identical devices, ~10 s rounds
            deadline_s: Some(1.0),
            late_policy: LatePolicy::CarryOver,
            ..Default::default()
        };
        let mut ex = DeadlineExecutor::new(cfg, 8, 1000, 2, 7);
        // Round 0: clients 0, 1 straggle and are queued.
        let o0 = ex.execute(&ctx(0), &[0, 1], &stub_train);
        assert_eq!(o0.hetero.unwrap().stragglers, 2);
        assert!(o0.updates.is_empty());
        // Their late updates now wait server-side: selection policies
        // must see them as pending so re-dispatch (which would supersede
        // the queued work) is a last resort.
        assert_eq!(*ex.view().in_flight, IdSet::from_iter([0, 1]));
        // Round 1: clients 2, 3 also straggle — zero fresh arrivals, so
        // the two queued updates finally fill the round's capacity.
        let o1 = ex.execute(&ctx(1), &[2, 3], &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.carried_in, 2);
        assert_eq!(h1.aggregated_ids, vec![0, 1]);
        assert_eq!(
            *ex.view().in_flight,
            IdSet::from_iter([2, 3]),
            "consumed carried updates must leave the pending set"
        );
        // Round 2: the newer stale updates (2, 3) ride in next — nothing
        // was silently discarded while capacity was available.
        let o2 = ex.execute(&ctx(2), &[4, 5], &stub_train);
        assert_eq!(o2.hetero.unwrap().aggregated_ids, vec![2, 3]);
    }

    #[test]
    fn all_dropped_round_yields_no_updates() {
        let mut cfg = skewed_cfg(Some(1e6), 0.0);
        cfg.fleet.dropout = 0.999_999;
        let mut ex = DeadlineExecutor::new(cfg, 5, 100, 5, 3);
        let out = ex.execute(&ctx(0), &[0, 1, 2, 3, 4], &stub_train);
        let h = out.hetero.unwrap();
        assert_eq!(h.dropouts, 5);
        assert_eq!(h.aggregated(), 0);
        assert!(out.updates.is_empty());
        assert_eq!(h.sim_time_s, 1e6, "server waits out the deadline");
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn rejects_non_positive_deadline() {
        let _ = DeadlineExecutor::new(skewed_cfg(Some(0.0), 0.0), 4, 10, 4, 1);
    }

    #[test]
    fn discount_is_one_at_zero_staleness_and_monotone() {
        let discounts = [
            StalenessDiscount::None,
            StalenessDiscount::Polynomial { alpha: 0.5 },
            StalenessDiscount::Polynomial { alpha: 2.0 },
            StalenessDiscount::Hinge { cutoff: 2 },
        ];
        for d in discounts {
            assert_eq!(d.factor(0), 1.0, "{d:?} not exactly 1 at s = 0");
            let mut prev = 1.0f32;
            for s in 1..20 {
                let f = d.factor(s);
                assert!(f > 0.0, "{d:?} hit zero at s = {s}");
                assert!(f <= prev, "{d:?} not non-increasing at s = {s}");
                prev = f;
            }
        }
        assert!((StalenessDiscount::Polynomial { alpha: 1.0 }.factor(2) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(StalenessDiscount::Hinge { cutoff: 2 }.factor(2), 1.0);
        assert!((StalenessDiscount::Hinge { cutoff: 2 }.factor(3) - 0.5).abs() < 1e-6);
        // An aggressive exponent underflows f32 but must clamp above zero:
        // an all-stale aggregation still normalizes onto the simplex.
        let harsh = StalenessDiscount::Polynomial { alpha: 100.0 };
        assert!(harsh.factor(2) > 0.0, "discount underflowed to exact zero");
        let alphas = crate::strategy::normalize_factors(&[harsh.factor(2), harsh.factor(2)]);
        assert_eq!(alphas, vec![0.5, 0.5]);
    }

    #[test]
    fn discount_validation_rejects_bad_polynomial() {
        for alpha in [f64::NAN, f64::INFINITY, -0.5] {
            let err = StalenessDiscount::Polynomial { alpha }.validate().err();
            assert!(
                matches!(err, Some(crate::error::FlError::InvalidDiscount { .. })),
                "alpha = {alpha} accepted"
            );
        }
        StalenessDiscount::Polynomial { alpha: 0.0 }
            .validate()
            .unwrap();
        StalenessDiscount::Hinge { cutoff: 0 }.validate().unwrap();
        StalenessDiscount::None.validate().unwrap();
    }

    /// Regression for the ROADMAP staleness-weighting item: a carried
    /// update two rounds stale must contribute *less* to the aggregate
    /// than a fresh arrival of equal raw weight.
    #[test]
    fn carried_update_two_rounds_stale_is_discounted_below_fresh() {
        let base = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(base.clone(), 16, 1000, 2, 7);
        let deadline = completion_percentile_s(&probe, 0.5);
        let mut ex = DeadlineExecutor::new(
            HeteroConfig {
                deadline_s: Some(deadline),
                late_policy: LatePolicy::CarryOver,
                staleness: StalenessDiscount::Polynomial { alpha: 1.0 },
                ..base
            },
            16,
            1000,
            2,
            7,
        );
        let in_time = |ex: &DeadlineExecutor, c: usize| completion_s(ex, c) <= deadline;
        let fast: Vec<usize> = (0..16).filter(|&c| in_time(&ex, c)).collect();
        let slow: Vec<usize> = (0..16).filter(|&c| !in_time(&ex, c)).collect();
        assert!(
            fast.len() >= 3 && slow.len() >= 2,
            "median deadline must split the fleet"
        );

        // Round 0: two stragglers get queued, trained against model
        // version 0 (nothing aggregates, so the version stays 0).
        let o0 = ex.execute(&ctx(0), &[slow[0], slow[1]], &stub_train);
        assert_eq!(o0.hetero.unwrap().stragglers, 2);
        assert!(o0.updates.is_empty());
        // Rounds 1 and 2: two fresh arrivals each fill the capacity — the
        // stale updates wait while the global advances to version 2.
        for round in [1, 2] {
            let o = ex.execute(&ctx(round), &[fast[0], fast[1]], &stub_train);
            assert_eq!(o.hetero.unwrap().carried_in, 0);
        }
        // Round 3: one fresh arrival leaves one slot; the oldest stale
        // update rides in, now two model versions behind.
        let o3 = ex.execute(&ctx(3), &[fast[2]], &stub_train);
        let h3 = o3.hetero.unwrap();
        assert_eq!(h3.carried_in, 1);
        assert_eq!(o3.updates.len(), 2);
        let stale = &o3.updates[0];
        let fresh = &o3.updates[1];
        assert_eq!((stale.client_id, stale.staleness), (slow[0], 2));
        assert_eq!(fresh.staleness, 0);
        assert_eq!(h3.staleness, vec![2, 0]);

        // Apply the discount exactly the way the session loop does: equal
        // raw factors end up tilted toward the fresh update.
        let d = ex.view().staleness_discount;
        let discounted = [d.factor(stale.staleness), d.factor(fresh.staleness)];
        let alphas = crate::strategy::normalize_factors(&discounted);
        assert!(
            alphas[0] < alphas[1],
            "2-round-stale update ({}) not discounted below fresh ({})",
            alphas[0],
            alphas[1]
        );
        assert!(
            (alphas[0] - 0.25).abs() < 1e-6,
            "1/(1+2) vs 1 should normalize to 1/4"
        );
    }

    fn buffered_cfg(skew: f64, m: usize) -> BufferedConfig {
        BufferedConfig {
            fleet: FleetConfig {
                compute_skew: skew,
                ..Default::default()
            },
            buffer_size: m,
            ..Default::default()
        }
    }

    #[test]
    fn full_buffer_on_homogeneous_fleet_behaves_synchronously() {
        let mut ex = BufferedExecutor::new(buffered_cfg(1.0, 4), 8, 1000, 4, 7);
        let step = completion_s(&ex, 0);
        for round in 0..3 {
            let selected = [0usize, 3, 1, 2];
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            let h = out.hetero.unwrap();
            let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
            assert_eq!(ids, vec![0, 3, 1, 2], "round {round}: not sampling order");
            assert!(out.updates.iter().all(|u| u.staleness == 0));
            assert_eq!(h.staleness, vec![0; 4]);
            assert_eq!(h.busy, 0);
            assert_eq!(h.buffered, 0);
            assert!((h.sim_time_s - step).abs() < 1e-9, "round {round} time");
        }
        assert_eq!(ex.in_flight(), 0);
    }

    #[test]
    fn small_buffer_aggregates_fastest_arrivals_and_marks_staleness() {
        let mut ex = BufferedExecutor::new(buffered_cfg(8.0, 2), 4, 1000, 4, 7);
        let completion = completion_s;
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by(|&a, &b| completion(&ex, a).total_cmp(&completion(&ex, b)));

        let out = ex.execute(&ctx(0), &[0, 1, 2, 3], &stub_train);
        let h = out.hetero.unwrap();
        let ids: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        assert_eq!(
            ids,
            order[..2].to_vec(),
            "buffer must fill with the fastest uploads"
        );
        assert!((h.sim_time_s - completion(&ex, order[1])).abs() < 1e-9);
        assert_eq!(ex.in_flight(), 2, "slow updates stay in flight");

        // Next round redispatches only idle devices; the leftover uploads
        // from version 0 fill the buffer with positive staleness.
        let out1 = ex.execute(&ctx(1), &[0, 1, 2, 3], &stub_train);
        let h1 = out1.hetero.unwrap();
        assert_eq!(h1.busy, 2, "in-flight devices must be skipped");
        assert_eq!(out1.updates.len(), 2);
        assert!(
            out1.updates.iter().any(|u| u.staleness > 0),
            "a version-0 upload aggregated at version 1 must be stale"
        );
        let staleness: Vec<usize> = out1.updates.iter().map(|u| u.staleness).collect();
        assert_eq!(h1.staleness, staleness);
    }

    #[test]
    fn every_buffered_aggregation_has_exactly_buffer_size_updates() {
        let mut cfg = buffered_cfg(4.0, 3);
        cfg.fleet.dropout = 0.4;
        let mut ex = BufferedExecutor::new(cfg, 10, 500, 5, 21);
        let mut dispatched = 0usize;
        let mut aggregated = 0usize;
        let mut nonempty = 0usize;
        for round in 0..12 {
            let selected: Vec<usize> = (0..10).filter(|c| (c + round) % 2 == 0).collect();
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            let h = out.hetero.unwrap();
            dispatched += selected.len() - (h.dropouts + h.busy);
            assert!(
                out.updates.is_empty() || out.updates.len() == 3,
                "round {round}: aggregation of {} != buffer size",
                out.updates.len()
            );
            if !out.updates.is_empty() {
                nonempty += 1;
            }
            aggregated += out.updates.len();
        }
        assert!(nonempty > 0, "no aggregation ever fired");
        assert_eq!(aggregated, 3 * nonempty);
        assert_eq!(
            dispatched,
            aggregated + ex.in_flight() + ex.buffered(),
            "dispatch accounting must close"
        );
    }

    #[test]
    fn ideal_executor_reports_no_reliability_telemetry() {
        let view = IdealExecutor.view();
        assert!(view.reliability.is_none());
        assert!(view.in_flight.is_empty());
    }

    #[test]
    fn deadline_telemetry_accounts_for_every_sample() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.4), 10, 500, 10, 21);
        let selected: Vec<usize> = (0..10).collect();
        let mut total_dropouts = 0;
        for round in 0..20 {
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            total_dropouts += out.hetero.unwrap().dropouts;
        }
        let stats = ex.view().reliability.expect("deadline telemetry");
        assert_eq!(stats.observed(), 10, "every sampled client was observed");
        let mut dropouts = 0;
        for (cid, s) in stats.iter() {
            // Unbounded deadline: every sample either drops or trains.
            assert_eq!(s.dropouts + s.dispatches, 20, "client {cid} samples lost");
            assert_eq!(s.aggregated, s.dispatches, "client {cid} updates lost");
            dropouts += s.dropouts;
        }
        assert_eq!(
            dropouts, total_dropouts,
            "per-client dropouts disagree with telemetry"
        );
        // p = 0.4 over 200 samples: the observed rates must spread around
        // the configured one rather than collapse to 0 or 1.
        let mean_rate = dropouts as f64 / 200.0;
        assert!(
            (0.15..0.65).contains(&mean_rate),
            "implausible mean rate {mean_rate}"
        );
        // Round-barrier executor: nothing is ever in flight between rounds.
        assert!(ex.view().in_flight.is_empty());
    }

    #[test]
    fn buffered_in_flight_accessor_reads_the_live_queue() {
        let mut ex = BufferedExecutor::new(buffered_cfg(8.0, 2), 4, 1000, 4, 7);
        let out = ex.execute(&ctx(0), &[0, 1, 2, 3], &stub_train);
        assert_eq!(out.updates.len(), 2);
        let in_flight = ex.view().in_flight;
        assert_eq!(in_flight.len(), ex.in_flight() + ex.buffered());
        // The two slow uploads still traveling are exactly the sampled
        // clients whose updates did not aggregate.
        let aggregated: Vec<usize> = out.updates.iter().map(|u| u.client_id).collect();
        for cid in 0..4usize {
            assert_eq!(
                in_flight.contains(&cid),
                !aggregated.contains(&cid),
                "client {cid} in-flight state wrong"
            );
        }
        // Telemetry: everyone was dispatched once, the fast pair aggregated.
        let stats = ex.view().reliability.unwrap();
        assert_eq!(stats.observed(), 4);
        for (cid, s) in stats.iter() {
            assert_eq!(s.dispatches, 1);
            assert_eq!(s.aggregated, usize::from(aggregated.contains(&cid)));
        }
    }

    /// Sparse telemetry: an unobserved client reads as the zero record,
    /// resident entries track *observed* clients only, and totals close.
    #[test]
    fn reliability_table_is_sparse_over_observed_clients() {
        let mut ex = DeadlineExecutor::new(skewed_cfg(None, 0.0), 1_000, 500, 4, 21);
        let out = ex.execute(&ctx(0), &[3, 900, 17], &stub_train);
        assert_eq!(out.updates.len(), 3);
        let stats = ex.view().reliability.unwrap();
        assert_eq!(
            stats.observed(),
            3,
            "telemetry must be resident only for dispatched clients"
        );
        assert_eq!(stats.get(3).dispatches, 1);
        assert_eq!(stats.get(900).aggregated, 1);
        assert_eq!(stats.get(999), ClientReliability::default());
        let ids: Vec<usize> = stats.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![3, 17, 900], "iteration must be id-ordered");
        let t = stats.totals();
        assert_eq!((t.dispatches, t.aggregated, t.dropouts), (3, 3, 0));
    }

    #[test]
    fn reliability_rates_default_to_zero_when_unobserved() {
        let s = ClientReliability::default();
        assert_eq!(s.mean_staleness(), 0.0);
        let s = ClientReliability {
            dropouts: 3,
            dispatches: 1,
            aggregated: 2,
            staleness_sum: 5,
        };
        assert!((s.mean_staleness() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn structured_dropout_rescues_foregone_stragglers_as_sub_models() {
        let base = skewed_cfg(None, 0.0);
        let probe = DeadlineExecutor::new(base.clone(), 16, 1000, 16, 7);
        let deadline = completion_percentile_s(&probe, 0.5);
        let run = |sd: Option<StructuredDropoutConfig>| {
            let mut ex = DeadlineExecutor::new(
                HeteroConfig {
                    deadline_s: Some(deadline),
                    structured_dropout: sd,
                    ..base.clone()
                },
                16,
                1000,
                16,
                7,
            );
            let selected: Vec<usize> = (0..16).collect();
            ex.execute(&ctx(0), &selected, &stub_train).hetero.unwrap()
        };
        let plain = run(None);
        assert!(plain.stragglers > 0, "median deadline cut nobody");
        assert_eq!(plain.masked, 0);
        let adaptive = run(Some(StructuredDropoutConfig::default()));
        assert!(adaptive.masked > 0, "no straggler was offered a sub-model");
        // Every rescued sub-model was sized to fit the deadline, so each
        // one lands as an extra aggregated update.
        assert_eq!(adaptive.aggregated(), plain.aggregated() + adaptive.masked);
        assert_eq!(
            adaptive.stragglers + adaptive.masked,
            plain.stragglers,
            "rescues must come one-for-one out of the straggler count"
        );
    }

    #[test]
    fn structured_dropout_config_validates_its_grid() {
        use crate::error::FlError;
        assert!(StructuredDropoutConfig::default().validate().is_ok());
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = StructuredDropoutConfig {
                min_ratio: bad,
                levels: 4,
            };
            assert!(
                matches!(cfg.validate(), Err(FlError::InvalidDynamics { .. })),
                "min_ratio {bad} accepted"
            );
        }
        let cfg = StructuredDropoutConfig {
            min_ratio: 0.5,
            levels: 0,
        };
        assert!(matches!(
            cfg.validate(),
            Err(FlError::InvalidDynamics { .. })
        ));
        // The grid is largest-first, strictly below 1, floored at min_ratio.
        let ratios: Vec<f64> = StructuredDropoutConfig::default().ratios_desc().collect();
        assert_eq!(ratios, vec![0.8125, 0.625, 0.4375, 0.25]);
    }

    #[test]
    fn churned_out_clients_waste_their_dispatch_as_dropouts() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = skewed_cfg(Some(12.0), 0.0);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 1e18,
            mean_departure_gap_s: 2.0,
        });
        let mut ex = DeadlineExecutor::new(cfg, 8, 1000, 8, 7);
        let selected: Vec<usize> = (0..8).collect();
        let h0 = ex.execute(&ctx(0), &selected, &stub_train).hetero.unwrap();
        // The 12 s round window ticked the churn clock forward: with a 2 s
        // mean departure gap several devices left during the round.
        let departed: Vec<usize> = ex.view().departed.iter().copied().collect();
        assert!(!departed.is_empty(), "no departures in a 12 s window");
        assert_eq!(h0.departed, departed.len());
        assert_eq!(h0.joined, 0);
        assert_eq!(ex.view().universe, Some(8), "no arrivals");
        // Re-sampling the departed clients wastes every slot as a dropout
        // — the server only learns of a departure by dispatches that stop
        // answering, which is exactly what the telemetry records.
        let wasted_slots = |ex: &DeadlineExecutor| -> usize {
            let stats = ex.view().reliability.unwrap();
            departed.iter().map(|&c| stats.get(c).dropouts).sum()
        };
        let before = wasted_slots(&ex);
        let o1 = ex.execute(&ctx(1), &departed, &stub_train);
        let h1 = o1.hetero.unwrap();
        assert_eq!(h1.dropouts, departed.len());
        assert!(o1.updates.is_empty());
        let after = wasted_slots(&ex);
        assert_eq!(after - before, departed.len());
    }

    #[test]
    fn churn_arrivals_grow_the_universe_and_become_selectable() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = skewed_cfg(None, 0.0);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 3.0,
            mean_departure_gap_s: 1e18,
        });
        let mut ex = DeadlineExecutor::new(cfg, 4, 1000, 8, 7);
        let h0 = ex
            .execute(&ctx(0), &[0, 1, 2, 3], &stub_train)
            .hetero
            .unwrap();
        let universe = ex.view().universe.unwrap();
        assert!(universe > 4, "no arrivals over a multi-second round");
        assert_eq!(h0.joined, universe - 4);
        assert!(ex.view().departed.is_empty());
        // A minted id is immediately selectable: its profile derives on
        // demand and it trains like any founding client.
        let newcomer = universe - 1;
        let o1 = ex.execute(&ctx(1), &[newcomer], &stub_train);
        assert_eq!(o1.updates.len(), 1);
        assert_eq!(o1.updates[0].client_id, newcomer);
        assert_eq!(ex.view().reliability.unwrap().get(newcomer).dispatches, 1);
    }

    #[test]
    fn buffered_dispatch_accounting_closes_under_churn() {
        use feddrl_sim::device::ChurnConfig;
        let mut cfg = buffered_cfg(4.0, 2);
        cfg.fleet.churn = Some(ChurnConfig {
            mean_arrival_gap_s: 5.0,
            mean_departure_gap_s: 4.0,
        });
        let mut ex = BufferedExecutor::new(cfg, 6, 500, 4, 21);
        let (mut dispatched, mut aggregated, mut lost) = (0usize, 0usize, 0usize);
        for round in 0..15 {
            let universe = ex.view().universe.unwrap();
            let selected: Vec<usize> = (0..universe).filter(|c| (c + round) % 2 == 0).collect();
            let out = ex.execute(&ctx(round), &selected, &stub_train);
            let h = out.hetero.unwrap();
            dispatched += selected.len() - (h.dropouts + h.busy);
            aggregated += out.updates.len();
            lost += h.stragglers;
        }
        // Every dispatch is aggregated, lost to a mid-flight departure,
        // still traveling, or parked in the partial buffer.
        assert_eq!(
            dispatched,
            aggregated + lost + ex.in_flight() + ex.buffered(),
            "dispatch accounting must close under churn"
        );
        assert!(aggregated > 0, "churn starved every aggregation");
    }

    #[test]
    #[should_panic(expected = "buffer must be positive")]
    fn buffered_rejects_zero_buffer() {
        let _ = BufferedExecutor::new(buffered_cfg(1.0, 0), 4, 10, 4, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds participants")]
    fn buffered_rejects_buffer_wider_than_participants() {
        let _ = BufferedExecutor::new(buffered_cfg(1.0, 5), 8, 10, 4, 1);
    }
}
