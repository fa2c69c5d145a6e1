//! Seeded per-client device profiles (compute speed, network, dropout).
//!
//! Real federated deployments are dominated by device heterogeneity: some
//! clients train on flagship phones over Wi-Fi, others on throttled
//! hardware behind slow uplinks, and a fraction silently churns every
//! round (see the non-IID FL survey arXiv:2401.00809). [`FleetView`] derives
//! a deterministic population of [`DeviceProfile`]s from a single seed, so
//! entire heterogeneity scenarios reproduce bit-for-bit, like every other
//! random stream in this workspace.
//!
//! Reliability is a *per-device* property: each profile carries its own
//! per-round dropout rate, spread log-uniformly around the fleet's base
//! rate ([`ReliabilityConfig::dropout_skew`]) and optionally *correlated
//! with compute speed* ([`DropoutCorrelation::SpeedCorrelated`]) — the
//! adaptive-dropout observation (arXiv:2507.10430) that slow devices fail
//! disproportionately often. Rates derive per client index, so a device's
//! reliability is stable under fleet growth, and the legacy fleet-wide
//! scalar is exactly the `dropout_skew = 1` special case.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use feddrl_nn::rng::Rng64;
use serde::{Deserialize, Serialize};

/// One client's (simulated) device characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Wall-clock seconds this device needs for one local training round.
    pub compute_s: f64,
    /// Uplink bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Fixed per-upload latency in seconds (connection setup, RTT).
    pub latency_s: f64,
    /// Per-round probability that this client drops out of a round it was
    /// sampled for (in `[0, 1)`).
    pub dropout: f64,
    /// Phase offset (radians) of this device's diurnal availability cycle.
    /// Drawn only when the fleet has a [`DiurnalConfig`]; stays exactly 0
    /// (and absent from serialized profiles) otherwise, so dynamics-free
    /// fleets keep their historical byte representation.
    #[serde(default, skip_serializing_if = "f64_is_zero")]
    pub phase: f64,
}

fn f64_is_zero(x: &f64) -> bool {
    *x == 0.0
}

impl DeviceProfile {
    /// Virtual time from round start until this device's update has fully
    /// arrived at the server: local compute, then upload of
    /// `upload_bytes` over its link.
    pub fn completion_time_s(&self, upload_bytes: u64) -> f64 {
        self.compute_s + self.latency_s + upload_bytes as f64 / self.bandwidth_bps
    }

    /// The diurnal multiplier `1 + amplitude * sin(2π t / period + phase)`
    /// for this device at virtual time `now_s`.
    fn diurnal_factor(&self, amplitude: f64, period_s: f64, now_s: f64) -> f64 {
        1.0 + amplitude * (std::f64::consts::TAU * now_s / period_s + self.phase).sin()
    }

    /// Per-round dropout probability at virtual time `now_s`: the raw rate
    /// modulated by the device's diurnal cycle. With no [`DiurnalConfig`]
    /// this returns the raw `dropout` field bit-for-bit; with one, the
    /// validated amplitude bound (`< 1`, and the peak rate below 1) keeps
    /// the result a probability without clamping.
    pub fn effective_dropout(&self, diurnal: Option<&DiurnalConfig>, now_s: f64) -> f64 {
        match diurnal {
            None => self.dropout,
            Some(d) => self.dropout * self.diurnal_factor(d.dropout_amplitude, d.period_s, now_s),
        }
    }

    /// Per-upload latency at virtual time `now_s` under the diurnal cycle
    /// (congested hours stretch connection setup). Bit-identical to the
    /// raw `latency_s` when `diurnal` is `None`.
    pub fn effective_latency_s(&self, diurnal: Option<&DiurnalConfig>, now_s: f64) -> f64 {
        match diurnal {
            None => self.latency_s,
            Some(d) => self.latency_s * self.diurnal_factor(d.latency_amplitude, d.period_s, now_s),
        }
    }

    /// [`DeviceProfile::completion_time_s`] evaluated at virtual time
    /// `now_s` under the diurnal cycle, with local compute scaled by
    /// `compute_scale` (structured-dropout sub-models train proportionally
    /// faster; `1` = full model). `None` + scale 1 reproduces
    /// [`DeviceProfile::completion_time_s`] bit-for-bit.
    pub fn completion_time_at(
        &self,
        upload_bytes: u64,
        compute_scale: f64,
        diurnal: Option<&DiurnalConfig>,
        now_s: f64,
    ) -> f64 {
        self.compute_s * compute_scale
            + self.effective_latency_s(diurnal, now_s)
            + upload_bytes as f64 / self.bandwidth_bps
    }
}

/// Periodic (time-of-day) availability modulation: every device's dropout
/// rate and upload latency oscillate sinusoidally around their profile
/// values, with a per-device phase drawn in the profile's reliability
/// block — so two fleets differing only in `diurnal` share identical
/// compute/bandwidth/dropout draws, and the whole feature is byte-inert
/// when absent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalConfig {
    /// Cycle length in simulated seconds (e.g. 86 400 for a literal day).
    pub period_s: f64,
    /// Relative swing of the dropout rate, in `[0, 1)`: the effective rate
    /// ranges over `dropout * (1 ± amplitude)`.
    pub dropout_amplitude: f64,
    /// Relative swing of the upload latency, in `[0, 1)`.
    pub latency_amplitude: f64,
}

impl Default for DiurnalConfig {
    /// A gentle day: 1-hour period (sweep-friendly), ±50% dropout swing,
    /// ±30% latency swing.
    fn default() -> Self {
        Self {
            period_s: 3600.0,
            dropout_amplitude: 0.5,
            latency_amplitude: 0.3,
        }
    }
}

impl DiurnalConfig {
    /// Check the modulation's own invariants (the peak-rate bound lives in
    /// [`FleetConfig::validate_dynamics`], which also knows the rates).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.period_s.is_finite() && self.period_s > 0.0) {
            return Err(format!(
                "diurnal period must be positive and finite, got {}",
                self.period_s
            ));
        }
        for (name, a) in [
            ("dropout_amplitude", self.dropout_amplitude),
            ("latency_amplitude", self.latency_amplitude),
        ] {
            if !(a.is_finite() && (0.0..1.0).contains(&a)) {
                return Err(format!("diurnal {name} must be in [0, 1), got {a}"));
            }
        }
        Ok(())
    }
}

/// Fleet churn: seeded Poisson arrival/departure processes on the virtual
/// clock. Consumed by [`crate::churn::ChurnProcess`], which turns the two
/// mean gaps into time-ordered [`crate::event::EventKind::ClientJoin`] /
/// [`crate::event::EventKind::ClientLeave`] events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean simulated seconds between client arrivals (exponential gaps).
    pub mean_arrival_gap_s: f64,
    /// Mean simulated seconds between departure attempts (exponential
    /// gaps; a departure targeting the last active client is skipped, so
    /// the fleet never empties).
    pub mean_departure_gap_s: f64,
}

impl Default for ChurnConfig {
    /// One arrival and one departure attempt per minute of virtual time.
    fn default() -> Self {
        Self {
            mean_arrival_gap_s: 60.0,
            mean_departure_gap_s: 60.0,
        }
    }
}

impl ChurnConfig {
    /// Check the churn process's invariants.
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, gap) in [
            ("mean_arrival_gap_s", self.mean_arrival_gap_s),
            ("mean_departure_gap_s", self.mean_departure_gap_s),
        ] {
            if !(gap.is_finite() && gap > 0.0) {
                return Err(format!(
                    "churn {name} must be positive and finite, got {gap}"
                ));
            }
        }
        Ok(())
    }
}

/// How a device's dropout-rate multiplier relates to its compute speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DropoutCorrelation {
    /// Each device's multiplier is drawn independently of its speed (its
    /// own per-index stream) — flaky devices are scattered uniformly over
    /// the speed spectrum.
    #[default]
    Independent,
    /// Slower devices drop out more, as the adaptive-dropout system
    /// (arXiv:2507.10430) observes in real fleets: `strength ∈ [0, 1]`
    /// interpolates the multiplier's log-exponent between an independent
    /// draw (`0`, identical to [`DropoutCorrelation::Independent`]) and
    /// the device's normalized compute slowness (`1`, fully determined —
    /// the slowest device gets the full `dropout_skew` multiplier, the
    /// fastest gets `1 / dropout_skew`).
    SpeedCorrelated {
        /// Correlation strength in `[0, 1]`.
        strength: f64,
    },
}

/// The per-device reliability model: how individual dropout rates spread
/// around [`FleetConfig::dropout`] (the fleet's base rate).
///
/// The default — no spread, no correlation — reproduces the legacy
/// fleet-wide scalar exactly: every device drops at the base rate, so
/// configs serialized before this model existed deserialize to identical
/// behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityConfig {
    /// Log-uniform spread of per-device dropout multipliers (`>= 1`;
    /// `1` = every device at the base rate, the legacy behavior). A
    /// device's rate is `dropout * m` with `m` in
    /// `[1/dropout_skew, dropout_skew]`.
    pub dropout_skew: f64,
    /// Whether the multiplier is tied to the device's compute speed.
    pub correlation: DropoutCorrelation,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        Self {
            dropout_skew: 1.0,
            correlation: DropoutCorrelation::Independent,
        }
    }
}

impl ReliabilityConfig {
    /// Check the reliability model's own invariants (the base-rate bound
    /// lives in [`FleetConfig::validate`], which also knows `dropout`).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.dropout_skew.is_finite() && self.dropout_skew >= 1.0) {
            return Err(format!(
                "dropout_skew must be finite and >= 1 (1 = homogeneous), got {}",
                self.dropout_skew
            ));
        }
        if let DropoutCorrelation::SpeedCorrelated { strength } = self.correlation {
            if !(strength.is_finite() && (0.0..=1.0).contains(&strength)) {
                return Err(format!(
                    "speed-correlation strength must be in [0, 1], got {strength}"
                ));
            }
        }
        Ok(())
    }
}

/// Knobs for generating a device fleet.
///
/// Skew factors are log-uniform spreads: a device's compute time is
/// `compute_s * m` with `m` drawn uniformly in log-space from
/// `[1/compute_skew, compute_skew]` (and likewise for bandwidth), so
/// `skew = 1` yields a homogeneous fleet and `skew = 4` a 16× spread
/// between the fastest and slowest device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Reference local-round compute time in seconds.
    pub compute_s: f64,
    /// Log-uniform compute-time spread (`>= 1`; 1 = homogeneous).
    pub compute_skew: f64,
    /// Reference uplink bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Log-uniform bandwidth spread (`>= 1`; 1 = homogeneous).
    pub bandwidth_skew: f64,
    /// Fixed per-upload latency in seconds.
    pub latency_s: f64,
    /// Base per-round dropout probability (in `[0, 1)`; the product with
    /// `reliability.dropout_skew` must also stay below 1). With the
    /// default [`ReliabilityConfig`] this is every device's exact rate —
    /// the legacy fleet-wide scalar, kept serde-compatible.
    pub dropout: f64,
    /// Per-device reliability model spreading individual dropout rates
    /// around the base `dropout` (defaults to the legacy no-spread
    /// behavior, so old configs deserialize unchanged).
    #[serde(default)]
    pub reliability: ReliabilityConfig,
    /// Optional diurnal availability cycle (absent = static availability,
    /// the historical behavior; absent from serialized configs too).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub diurnal: Option<DiurnalConfig>,
    /// Optional fleet churn process (absent = the client set is fixed for
    /// the run, the historical behavior).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub churn: Option<ChurnConfig>,
    /// Seed for the fleet draw; profiles derive per client index, so
    /// client `i`'s device is independent of the fleet size.
    pub seed: u64,
}

impl Default for FleetConfig {
    /// Mid-range phone over residential broadband: 10 s local rounds,
    /// 1 MB/s uplink, 50 ms latency, homogeneous, no dropout.
    fn default() -> Self {
        Self {
            compute_s: 10.0,
            compute_skew: 1.0,
            bandwidth_bps: 1e6,
            bandwidth_skew: 1.0,
            latency_s: 0.05,
            dropout: 0.0,
            reliability: ReliabilityConfig::default(),
            diurnal: None,
            churn: None,
            seed: 0xDE1CE,
        }
    }
}

impl FleetConfig {
    /// Check every invariant [`FleetView::new`] enforces, as a result —
    /// the single source of truth for what makes a fleet config valid
    /// (callers wanting typed errors wrap the message; `new` panics
    /// with it).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_base()?;
        self.validate_reliability()?;
        self.validate_dynamics()
    }

    /// The device/network/base-rate invariants alone (everything except
    /// the reliability model) — split out so callers wanting *distinct*
    /// typed errors for the two halves (see `feddrl_fl`'s
    /// `InvalidFleet` vs `InvalidReliability`) can check them separately.
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate_base(&self) -> Result<(), String> {
        if !(self.compute_s > 0.0 && self.bandwidth_bps > 0.0) {
            return Err("compute_s and bandwidth_bps must be positive".into());
        }
        if !(self.compute_skew >= 1.0 && self.bandwidth_skew >= 1.0) {
            return Err("skew factors must be >= 1 (1 = homogeneous)".into());
        }
        if self.latency_s < 0.0 {
            return Err("latency must be non-negative".into());
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!(
                "dropout probability must be in [0, 1), got {}",
                self.dropout
            ));
        }
        Ok(())
    }

    /// The reliability-model invariants: a well-formed
    /// [`ReliabilityConfig`] whose spread keeps every per-device rate
    /// below 1 (`dropout * dropout_skew < 1` — the worst-case multiplier
    /// is exactly `dropout_skew`, so this bound is tight, not a
    /// heuristic).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate_reliability(&self) -> Result<(), String> {
        self.reliability.validate()?;
        if self.dropout * self.reliability.dropout_skew >= 1.0 {
            return Err(format!(
                "dropout * dropout_skew must stay below 1 so every per-device \
                 rate is a probability, got {} * {} = {}",
                self.dropout,
                self.reliability.dropout_skew,
                self.dropout * self.reliability.dropout_skew
            ));
        }
        Ok(())
    }

    /// The fleet-dynamics invariants: well-formed diurnal/churn blocks
    /// whose modulation keeps every *effective* per-device rate a
    /// probability — the worst case is the worst reliability multiplier at
    /// the diurnal peak, so the bound is
    /// `dropout * dropout_skew * (1 + dropout_amplitude) < 1` (tight, like
    /// the static bound it generalizes).
    ///
    /// # Errors
    /// A human-readable description of the first violated constraint.
    pub fn validate_dynamics(&self) -> Result<(), String> {
        if let Some(d) = &self.diurnal {
            d.validate()?;
            let peak = self.dropout * self.reliability.dropout_skew * (1.0 + d.dropout_amplitude);
            if peak >= 1.0 {
                return Err(format!(
                    "dropout * dropout_skew * (1 + dropout_amplitude) must stay \
                     below 1 so every effective rate is a probability, got {peak}"
                ));
            }
        }
        if let Some(c) = &self.churn {
            c.validate()?;
        }
        Ok(())
    }
}

/// Derive client `i`'s profile from the fleet config alone.
///
/// This is *the* profile format: every [`FleetView`] accessor calls it.
/// skew^u with u ~ U(-1, 1): log-uniform in [1/skew, skew]. The
/// draw order (compute, bandwidth, reliability) is part of the format: it
/// keeps compute/bandwidth profiles byte-identical to fleets generated
/// before the per-device reliability model existed, and the per-index
/// `derive(i)` stream keeps every profile stable under fleet growth.
fn derive_profile(cfg: &FleetConfig, master: &Rng64, i: usize) -> DeviceProfile {
    let mut rng = master.derive(i as u64);
    let cm = cfg.compute_skew.powf(rng.uniform(-1.0, 1.0) as f64);
    let bm = cfg.bandwidth_skew.powf(rng.uniform(-1.0, 1.0) as f64);
    let w = rng.uniform(-1.0, 1.0) as f64;
    // Normalized compute slowness in [-1, 1]: the log-uniform exponent
    // that produced `cm` (0 on a homogeneous fleet, where speed carries
    // no information to correlate with).
    let slowness = if cfg.compute_skew > 1.0 {
        cm.ln() / cfg.compute_skew.ln()
    } else {
        0.0
    };
    let exponent = match cfg.reliability.correlation {
        DropoutCorrelation::Independent => w,
        DropoutCorrelation::SpeedCorrelated { strength } => {
            strength * slowness + (1.0 - strength) * w
        }
    };
    // The diurnal phase is drawn *after* the compute/bandwidth/reliability
    // block (and only when the cycle exists), so enabling dynamics leaves
    // every pre-existing profile field byte-identical.
    let phase = match cfg.diurnal {
        None => 0.0,
        Some(_) => std::f64::consts::TAU * rng.next_f64(),
    };
    DeviceProfile {
        compute_s: cfg.compute_s * cm,
        bandwidth_bps: cfg.bandwidth_bps * bm,
        latency_s: cfg.latency_s,
        dropout: cfg.dropout * cfg.reliability.dropout_skew.powf(exponent),
        phase,
    }
}

/// Ids per page of a [`FleetView`]'s profile memo: a page is allocated
/// on the first touch of any of its ids.
const MEMO_PAGE: usize = 128;

/// One page of the profile memo: a slot per id, filled on first touch.
type MemoPage = Box<[MemoSlot]>;

/// One client's memoized profile: the four fields [`derive_profile`] draws
/// per client, as `f64` bits (`latency_s` is the config's). `compute_s` is
/// positive on every valid fleet, so its zero bits mark a slot not yet
/// filled. It is stored last with `Release` and read first with
/// `Acquire`, so a reader that finds it set finds the other three set too;
/// two threads filling one slot at once store the same bits.
#[derive(Debug, Default)]
struct MemoSlot {
    compute_s: AtomicU64,
    bandwidth_bps: AtomicU64,
    dropout: AtomicU64,
    phase: AtomicU64,
}

impl MemoSlot {
    fn get(&self, latency_s: f64) -> Option<DeviceProfile> {
        let compute_s = f64::from_bits(self.compute_s.load(Ordering::Acquire));
        (compute_s != 0.0).then(|| DeviceProfile {
            compute_s,
            bandwidth_bps: f64::from_bits(self.bandwidth_bps.load(Ordering::Relaxed)),
            latency_s,
            dropout: f64::from_bits(self.dropout.load(Ordering::Relaxed)),
            phase: f64::from_bits(self.phase.load(Ordering::Relaxed)),
        })
    }

    fn set(&self, p: &DeviceProfile) {
        self.bandwidth_bps
            .store(p.bandwidth_bps.to_bits(), Ordering::Relaxed);
        self.dropout.store(p.dropout.to_bits(), Ordering::Relaxed);
        self.phase.store(p.phase.to_bits(), Ordering::Relaxed);
        self.compute_s
            .store(p.compute_s.to_bits(), Ordering::Release);
    }
}

/// A lazy fleet: derives [`DeviceProfile`]s on demand per index instead of
/// materializing all `n` up front, so fleet size is a free variable —
/// a million-device view costs a config plus one empty memo page pointer
/// per 128 ids, and only the devices a round actually touches are ever
/// derived.
///
/// Each client is derived once per view: [`FleetView::profile`] memoizes
/// what it derives, in pages allocated on the first touch of one of their
/// ids, so profile memory grows with the clients touched (32 B each, in
/// pages of 128), not with `n`. Selection, dispatch planning and
/// upload scheduling consult the same clients round after round, and a
/// memo hit costs four loads where a derivation costs an RNG derive and
/// four transcendentals.
///
/// The view counts derivations ([`FleetView::derivations`]) so callers can
/// *assert* — not just claim — that a code path touches O(candidates)
/// profiles rather than O(N).
#[derive(Debug)]
pub struct FleetView {
    cfg: FleetConfig,
    master: Rng64,
    n: usize,
    derived: AtomicU64,
    /// `memo[id / MEMO_PAGE][id % MEMO_PAGE]`: the profile of `id` once
    /// derived.
    memo: Vec<OnceLock<MemoPage>>,
}

impl PartialEq for FleetView {
    /// Views are equal when they derive the same fleet — same size, same
    /// config; the derivation counter and the memo are bookkeeping, not
    /// state.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.cfg == other.cfg
    }
}

/// An empty memo covering ids `0..n`.
fn empty_memo(n: usize) -> Vec<OnceLock<MemoPage>> {
    (0..n.div_ceil(MEMO_PAGE))
        .map(|_| OnceLock::new())
        .collect()
}

impl FleetView {
    /// Build a lazy view over `n` devices.
    ///
    /// # Panics
    /// Panics on a degenerate config: `n == 0`, non-positive reference
    /// compute/bandwidth, skews below 1, negative latency, a dropout
    /// probability outside `[0, 1)` (a certain dropout would make every
    /// round empty), or a reliability model whose spread would push a
    /// per-device rate to 1 or beyond.
    pub fn new(n: usize, cfg: &FleetConfig) -> Self {
        assert!(n > 0, "fleet needs at least one device");
        if let Err(reason) = cfg.validate() {
            panic!("{reason}");
        }
        Self {
            master: Rng64::new(cfg.seed),
            cfg: cfg.clone(),
            n,
            derived: AtomicU64::new(0),
            memo: empty_memo(n),
        }
    }

    /// The profile of client `client_id`: derived on the first call for
    /// that id, read from the memo on every later one — bit for bit what
    /// the first call returned.
    ///
    /// # Panics
    /// Panics if `client_id` is out of range.
    pub fn profile(&self, client_id: usize) -> DeviceProfile {
        assert!(
            client_id < self.n,
            "client id {client_id} out of range for fleet of {}",
            self.n
        );
        let page = self.memo[client_id / MEMO_PAGE]
            .get_or_init(|| (0..MEMO_PAGE).map(|_| MemoSlot::default()).collect());
        let slot = &page[client_id % MEMO_PAGE];
        slot.get(self.cfg.latency_s).unwrap_or_else(|| {
            self.derived.fetch_add(1, Ordering::Relaxed);
            let profile = derive_profile(&self.cfg, &self.master, client_id);
            slot.set(&profile);
            profile
        })
    }

    /// Number of devices in the view.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Widen the view to cover `n` devices (no-op when already that wide).
    /// Churn arrivals mint monotonically increasing ids, so growing the
    /// view is all a late joiner needs: its profile derives on demand from
    /// the same per-index stream, making every pre-existing profile stable
    /// under growth by construction.
    pub fn grow(&mut self, n: usize) {
        self.n = self.n.max(n);
        self.memo
            .resize_with(self.n.div_ceil(MEMO_PAGE), OnceLock::new);
    }

    /// Whether the view is empty (never true: construction requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The config the view derives from.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// How many profiles this view has derived — one per client
    /// [`FleetView::profile`] was asked for, however often — the
    /// observable that lets tests pin selection/dispatch cost to
    /// O(candidates) instead of O(N).
    pub fn derivations(&self) -> u64 {
        self.derived.load(Ordering::Relaxed)
    }
    /// The `pct`-percentile (in `[0, 1]`) of the fleet's completion times
    /// for an `upload_bytes` payload — a principled way to pick a round
    /// deadline ("wait for the fastest 70%"). Nearest-rank on the sorted
    /// times ([`nearest_rank`], the definition `feddrl_net`'s RTT
    /// percentiles share). O(n log n) compute with an O(n) *transient*
    /// buffer — a setup-time helper for deadline placement, not a
    /// per-round operation; does not count toward
    /// [`FleetView::derivations`].
    pub fn completion_percentile_s(&self, upload_bytes: u64, pct: f64) -> f64 {
        assert!((0.0..=1.0).contains(&pct), "percentile must be in [0, 1]");
        let mut times: Vec<f64> = self
            .profiles()
            .map(|p| p.completion_time_s(upload_bytes))
            .collect();
        times.sort_by(f64::total_cmp);
        times[nearest_rank(times.len(), pct)]
    }

    /// Every profile in index order, derived as the iterator advances —
    /// for the callers that touch the whole fleet anyway. Does not count
    /// toward [`FleetView::derivations`].
    pub fn profiles(&self) -> impl Iterator<Item = DeviceProfile> + '_ {
        (0..self.n).map(|i| derive_profile(&self.cfg, &self.master, i))
    }
}

impl Clone for FleetView {
    /// A view of the same fleet with the same derivation count and an
    /// empty memo.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            master: self.master.clone(),
            n: self.n,
            derived: AtomicU64::new(self.derived.load(Ordering::Relaxed)),
            memo: empty_memo(self.n),
        }
    }
}

/// Nearest-rank percentile index over `n` sorted samples for a quantile
/// `pct ∈ [0, 1]`: the smallest index whose rank covers `pct` of the
/// samples, `⌈pct · n⌉ − 1` (clamped so `pct = 0` reads the minimum and
/// `pct = 1` the maximum). `feddrl_net`'s `rtt_percentile_ms` calls this
/// same function on the same `[0, 1]` input — measured RTTs read against
/// predicted completion times with no conversion.
///
/// # Panics
/// Panics when `n` is zero.
pub fn nearest_rank(n: usize, pct: f64) -> usize {
    ((n as f64 * pct).ceil() as usize)
        .saturating_sub(1)
        .min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FleetConfig {
            compute_skew: 3.0,
            bandwidth_skew: 2.0,
            ..Default::default()
        };
        let a: Vec<_> = FleetView::new(12, &cfg).profiles().collect();
        let b: Vec<_> = FleetView::new(12, &cfg).profiles().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn profiles_are_stable_under_fleet_growth() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            ..Default::default()
        };
        let small = FleetView::new(5, &cfg);
        let big = FleetView::new(50, &cfg);
        for i in 0..5 {
            assert_eq!(small.profile(i), big.profile(i));
        }
    }

    #[test]
    fn homogeneous_fleet_has_identical_devices() {
        let fleet = FleetView::new(8, &FleetConfig::default());
        let first = fleet.profile(0);
        for i in 1..8 {
            assert_eq!(fleet.profile(i), first);
        }
        assert_eq!(first.compute_s, 10.0);
    }

    #[test]
    fn skew_spreads_within_bounds() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 4.0,
            ..Default::default()
        };
        let fleet = FleetView::new(64, &cfg);
        let (mut min_c, mut max_c) = (f64::INFINITY, 0.0f64);
        for i in 0..fleet.len() {
            let p = fleet.profile(i);
            assert!(p.compute_s >= 10.0 / 4.0 && p.compute_s <= 10.0 * 4.0);
            assert!(p.bandwidth_bps >= 1e6 / 4.0 && p.bandwidth_bps <= 1e6 * 4.0);
            min_c = min_c.min(p.compute_s);
            max_c = max_c.max(p.compute_s);
        }
        assert!(
            max_c / min_c > 2.0,
            "skew 4 fleet too uniform: {min_c}..{max_c}"
        );
    }

    #[test]
    fn completion_time_decomposes() {
        let p = DeviceProfile {
            compute_s: 10.0,
            bandwidth_bps: 1e6,
            latency_s: 0.5,
            dropout: 0.0,
            phase: 0.0,
        };
        // 2 MB at 1 MB/s = 2 s of upload.
        assert!((p.completion_time_s(2_000_000) - 12.5).abs() < 1e-9);
        // The dynamics-aware form at scale 1 with no cycle is the same sum
        // in the same order — bit-identical, not merely close.
        assert_eq!(
            p.completion_time_at(2_000_000, 1.0, None, 123.0),
            p.completion_time_s(2_000_000)
        );
    }

    #[test]
    fn percentile_brackets_extremes() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            ..Default::default()
        };
        let fleet = FleetView::new(32, &cfg);
        let lo = fleet.completion_percentile_s(1_000, 0.0);
        let mid = fleet.completion_percentile_s(1_000, 0.5);
        let hi = fleet.completion_percentile_s(1_000, 1.0);
        assert!(lo <= mid && mid <= hi);
        assert!(hi > lo, "skewed fleet must spread percentiles");
    }

    /// Regression for the nearest-rank fix: on a 100-device fleet, p50
    /// must read the 50th-fastest completion time (index 49 — the old
    /// `((N−1)·p).round()` indexing read index 50) and p99 the
    /// 99th-fastest (index 98). Same definition as `feddrl_net`'s RTT
    /// percentiles.
    #[test]
    fn percentile_is_true_nearest_rank() {
        let cfg = FleetConfig {
            compute_skew: 6.0,
            bandwidth_skew: 3.0,
            seed: 42,
            ..Default::default()
        };
        let view = FleetView::new(100, &cfg);
        let mut times: Vec<f64> = (0..100)
            .map(|i| view.profile(i).completion_time_s(1_000_000))
            .collect();
        times.sort_by(f64::total_cmp);
        for (pct, idx) in [(0.5, 49), (0.99, 98), (0.0, 0), (1.0, 99)] {
            let want = times[idx];
            assert_eq!(
                view.completion_percentile_s(1_000_000, pct).to_bits(),
                want.to_bits(),
                "FleetView p{pct} must read sorted index {idx}"
            );
        }
    }

    #[test]
    fn default_reliability_reproduces_the_fleet_wide_scalar() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            dropout: 0.3,
            ..Default::default()
        };
        let fleet = FleetView::new(16, &cfg);
        for i in 0..16 {
            assert_eq!(
                fleet.profile(i).dropout,
                0.3,
                "device {i} left the base rate"
            );
        }
    }

    #[test]
    fn reliability_model_does_not_perturb_speed_or_bandwidth() {
        let base = FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.2,
            ..Default::default()
        };
        let spread = FleetConfig {
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 0.8 },
            },
            ..base.clone()
        };
        let (a, b) = (FleetView::new(12, &base), FleetView::new(12, &spread));
        for i in 0..12 {
            assert_eq!(a.profile(i).compute_s, b.profile(i).compute_s);
            assert_eq!(a.profile(i).bandwidth_bps, b.profile(i).bandwidth_bps);
        }
    }

    #[test]
    fn spread_rates_stay_within_the_validated_bounds() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            dropout: 0.2,
            reliability: ReliabilityConfig {
                dropout_skew: 4.0,
                correlation: DropoutCorrelation::Independent,
            },
            ..Default::default()
        };
        let fleet = FleetView::new(64, &cfg);
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for i in 0..64 {
            let d = fleet.profile(i).dropout;
            assert!(
                (0.2 / 4.0..=0.2 * 4.0).contains(&d),
                "rate {d} out of bounds"
            );
            lo = lo.min(d);
            hi = hi.max(d);
        }
        assert!(hi / lo > 2.0, "skew-4 reliability too uniform: {lo}..{hi}");
    }

    #[test]
    fn full_speed_correlation_ties_dropout_to_slowness() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            dropout: 0.2,
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 1.0 },
            },
            ..Default::default()
        };
        let fleet = FleetView::new(32, &cfg);
        let mut devices: Vec<DeviceProfile> = fleet.profiles().collect();
        devices.sort_by(|a, b| a.compute_s.total_cmp(&b.compute_s));
        for pair in devices.windows(2) {
            assert!(
                pair[0].dropout <= pair[1].dropout,
                "slower device ({} s) drops less ({} vs {})",
                pair[1].compute_s,
                pair[1].dropout,
                pair[0].dropout
            );
        }
    }

    #[test]
    fn rejects_reliability_spread_reaching_certainty() {
        let cfg = FleetConfig {
            dropout: 0.5,
            reliability: ReliabilityConfig {
                dropout_skew: 2.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("dropout * dropout_skew"));
    }

    #[test]
    fn rejects_out_of_range_correlation_strength() {
        for strength in [-0.1, 1.5, f64::NAN] {
            let cfg = FleetConfig {
                dropout: 0.1,
                reliability: ReliabilityConfig {
                    dropout_skew: 2.0,
                    correlation: DropoutCorrelation::SpeedCorrelated { strength },
                },
                ..Default::default()
            };
            assert!(
                cfg.validate_reliability()
                    .unwrap_err()
                    .contains("strength must be in [0, 1]"),
                "strength {strength} accepted"
            );
            assert!(
                cfg.validate_base().is_ok(),
                "base checks must not see strength"
            );
        }
    }

    #[test]
    fn legacy_fleet_config_json_deserializes_with_default_reliability() {
        // A config serialized before the reliability model existed has no
        // `reliability` key; it must deserialize to the legacy behavior.
        let legacy = r#"{
            "compute_s": 10.0, "compute_skew": 2.0,
            "bandwidth_bps": 1e6, "bandwidth_skew": 1.0,
            "latency_s": 0.05, "dropout": 0.25, "seed": 7
        }"#;
        let cfg: FleetConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg.reliability, ReliabilityConfig::default());
        let fleet = FleetView::new(4, &cfg);
        for i in 0..4 {
            assert_eq!(fleet.profile(i).dropout, 0.25);
        }
    }

    #[test]
    fn diurnal_phase_draw_leaves_static_profile_fields_byte_identical() {
        let base = FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.2,
            reliability: ReliabilityConfig {
                dropout_skew: 2.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 0.7 },
            },
            ..Default::default()
        };
        let cycling = FleetConfig {
            diurnal: Some(DiurnalConfig::default()),
            ..base.clone()
        };
        let (a, b) = (FleetView::new(16, &base), FleetView::new(16, &cycling));
        let mut phases = Vec::new();
        for i in 0..16 {
            let (p, q) = (a.profile(i), b.profile(i));
            assert_eq!(p.compute_s, q.compute_s);
            assert_eq!(p.bandwidth_bps, q.bandwidth_bps);
            assert_eq!(p.latency_s, q.latency_s);
            assert_eq!(p.dropout, q.dropout);
            assert_eq!(p.phase, 0.0, "static fleet drew a phase");
            assert!(
                (0.0..std::f64::consts::TAU).contains(&q.phase),
                "phase {} out of [0, 2pi)",
                q.phase
            );
            phases.push(q.phase);
        }
        phases.sort_by(f64::total_cmp);
        phases.dedup();
        assert!(phases.len() > 8, "per-device phases collapsed");
    }

    #[test]
    fn effective_rates_modulate_within_bounds_and_periodically() {
        let cfg = FleetConfig {
            dropout: 0.3,
            diurnal: Some(DiurnalConfig {
                period_s: 100.0,
                dropout_amplitude: 0.8,
                latency_amplitude: 0.5,
            }),
            ..Default::default()
        };
        let fleet = FleetView::new(4, &cfg);
        let d = cfg.diurnal.as_ref();
        for i in 0..4 {
            let p = fleet.profile(i);
            for step in 0..200 {
                let t = step as f64 * 1.7;
                let rate = p.effective_dropout(d, t);
                assert!(
                    (0.0..1.0).contains(&rate),
                    "effective rate {rate} not a probability"
                );
                assert!((rate - p.effective_dropout(d, t + 100.0)).abs() < 1e-9);
                let lat = p.effective_latency_s(d, t);
                assert!(lat >= 0.0);
                assert!((lat - p.effective_latency_s(d, t + 100.0)).abs() < 1e-9);
            }
            // The cycle actually moves the rate.
            let spread: Vec<f64> = (0..50)
                .map(|s| p.effective_dropout(d, s as f64 * 2.0))
                .collect();
            let (lo, hi) = spread
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
            assert!(hi > lo * 2.0, "amplitude 0.8 cycle too flat: {lo}..{hi}");
        }
    }

    #[test]
    fn absent_and_zero_amplitude_cycles_are_bit_inert() {
        let p = DeviceProfile {
            compute_s: 3.0,
            bandwidth_bps: 1e6,
            latency_s: 0.25,
            dropout: 0.4,
            phase: 1.0,
        };
        let flat = DiurnalConfig {
            period_s: 60.0,
            dropout_amplitude: 0.0,
            latency_amplitude: 0.0,
        };
        for t in [0.0, 17.3, 1e6] {
            assert_eq!(p.effective_dropout(None, t), p.dropout);
            assert_eq!(p.effective_latency_s(None, t), p.latency_s);
            assert_eq!(p.effective_dropout(Some(&flat), t), p.dropout);
            assert_eq!(p.effective_latency_s(Some(&flat), t), p.latency_s);
        }
    }

    #[test]
    fn validate_dynamics_bounds_the_effective_peak_rate() {
        // 0.4 * 2.0 * (1 + 0.3) = 1.04 >= 1: rejected even though the
        // static bound (0.8) passes.
        let cfg = FleetConfig {
            dropout: 0.4,
            reliability: ReliabilityConfig {
                dropout_skew: 2.0,
                ..Default::default()
            },
            diurnal: Some(DiurnalConfig {
                period_s: 60.0,
                dropout_amplitude: 0.3,
                latency_amplitude: 0.0,
            }),
            ..Default::default()
        };
        assert!(cfg.validate_reliability().is_ok());
        assert!(cfg
            .validate_dynamics()
            .unwrap_err()
            .contains("dropout_amplitude"));

        for bad in [
            DiurnalConfig {
                period_s: 0.0,
                ..Default::default()
            },
            DiurnalConfig {
                period_s: f64::NAN,
                ..Default::default()
            },
            DiurnalConfig {
                dropout_amplitude: 1.0,
                ..Default::default()
            },
            DiurnalConfig {
                latency_amplitude: -0.1,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
        for bad_gap in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let churn = ChurnConfig {
                mean_arrival_gap_s: bad_gap,
                ..Default::default()
            };
            assert!(churn.validate().is_err(), "gap {bad_gap} accepted");
        }
        ChurnConfig::default().validate().unwrap();
        DiurnalConfig::default().validate().unwrap();
    }

    #[test]
    fn grown_view_serves_late_joiners_without_disturbing_old_profiles() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            dropout: 0.1,
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                ..Default::default()
            },
            diurnal: Some(DiurnalConfig::default()),
            ..Default::default()
        };
        let fixed = FleetView::new(40, &cfg);
        let mut grown = FleetView::new(8, &cfg);
        let before: Vec<DeviceProfile> = (0..8).map(|i| grown.profile(i)).collect();
        grown.grow(40);
        assert_eq!(grown.len(), 40);
        for (i, b) in before.iter().enumerate() {
            assert_eq!(grown.profile(i), *b, "growth disturbed profile {i}");
        }
        for i in 0..40 {
            assert_eq!(grown.profile(i), fixed.profile(i), "late joiner {i}");
        }
        grown.grow(10);
        assert_eq!(grown.len(), 40, "grow must never shrink");
    }

    fn bits(p: &DeviceProfile) -> [u64; 5] {
        [
            p.compute_s,
            p.bandwidth_bps,
            p.latency_s,
            p.dropout,
            p.phase,
        ]
        .map(f64::to_bits)
    }

    /// The memo serves, bit for bit, what a fresh derivation returns — for
    /// the first fleet and for late joiners after growth — and derives
    /// each client once, however often it is consulted.
    #[test]
    fn memoized_profiles_are_fresh_derivations_and_derive_once() {
        let cfg = FleetConfig {
            compute_skew: 4.0,
            bandwidth_skew: 2.0,
            dropout: 0.1,
            reliability: ReliabilityConfig {
                dropout_skew: 3.0,
                correlation: DropoutCorrelation::SpeedCorrelated { strength: 0.5 },
            },
            diurnal: Some(DiurnalConfig::default()),
            seed: 11,
            ..Default::default()
        };
        let mut view = FleetView::new(100_000, &cfg);
        let first: Vec<usize> = Rng64::new(3).sample_indices(100_000, 256);
        let joiners: Vec<usize> = (100_000..100_300).step_by(7).collect();
        let fresh = |i: usize| derive_profile(&cfg, &Rng64::new(cfg.seed), i);
        for &i in &first {
            assert_eq!(bits(&view.profile(i)), bits(&fresh(i)), "client {i}");
        }
        assert_eq!(view.derivations(), first.len() as u64);
        view.grow(100_300);
        for &i in first.iter().chain(&joiners) {
            assert_eq!(bits(&view.profile(i)), bits(&fresh(i)), "client {i}");
        }
        let derived = view.derivations();
        assert_eq!(derived, (first.len() + joiners.len()) as u64);
        for &i in first.iter().chain(&joiners).rev() {
            assert_eq!(bits(&view.profile(i)), bits(&fresh(i)), "client {i}");
        }
        assert_eq!(view.derivations(), derived, "a memo hit derived again");
    }

    /// A clone and an equal view start with an empty memo; neither the
    /// memo nor its fill decides equality, and the view stays shareable
    /// across threads.
    #[test]
    fn clone_and_equality_ignore_the_memo() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<FleetView>();
        let cfg = FleetConfig {
            compute_skew: 4.0,
            ..Default::default()
        };
        let view = FleetView::new(1_000, &cfg);
        let cold = FleetView::new(1_000, &cfg);
        let warm = view.profile(999);
        assert_eq!(view, cold);
        let copy = view.clone();
        assert_eq!(copy, view);
        assert_eq!(copy.derivations(), 1);
        assert_eq!(bits(&copy.profile(999)), bits(&warm));
        assert_eq!(copy.derivations(), 2, "a clone's memo starts empty");
        assert_eq!(view.derivations(), 1);
    }

    #[test]
    fn dynamics_free_config_and_profile_json_stay_byte_identical() {
        // No `diurnal`/`churn`/`phase` keys appear unless the features are
        // on — saved PR-6 configs and fixtures stay untouched.
        let cfg = FleetConfig {
            compute_skew: 2.0,
            dropout: 0.1,
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("diurnal") && !json.contains("churn"));
        let profiles: Vec<_> = FleetView::new(2, &cfg).profiles().collect();
        let profile_json = serde_json::to_string(&profiles).unwrap();
        assert!(!profile_json.contains("phase"));
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);

        let dynamic = FleetConfig {
            diurnal: Some(DiurnalConfig::default()),
            churn: Some(ChurnConfig::default()),
            ..cfg
        };
        let json = serde_json::to_string(&dynamic).unwrap();
        assert!(json.contains("diurnal") && json.contains("churn"));
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dynamic);
        let profiles: Vec<_> = FleetView::new(2, &dynamic).profiles().collect();
        let profile_json = serde_json::to_string(&profiles).unwrap();
        assert!(profile_json.contains("phase"));
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_certain_dropout() {
        let cfg = FleetConfig {
            dropout: 1.0,
            ..Default::default()
        };
        let _ = FleetView::new(4, &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn rejects_empty_fleet() {
        let _ = FleetView::new(0, &FleetConfig::default());
    }
}
