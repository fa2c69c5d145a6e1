//! Session-based federated orchestration: the paper's Algorithm 2 as a
//! driveable object.
//!
//! [`SessionBuilder`] assembles a federated run from its components —
//! model spec, datasets, partition, strategy, executor, selection policy,
//! observers — validating the configuration up front and returning typed
//! [`FlError`]s instead of panicking mid-run. The built [`Session`] can be
//! driven to completion with [`Session::run`] or one communication round
//! at a time with [`Session::step`] (for interleaving with checkpointing,
//! hyper-parameter control, or an external event loop); a caller that
//! collects the records `step` lends and finishes with
//! [`Session::into_history`] gets the [`RunHistory`] `run` returns, byte
//! for byte. The session itself keeps only the latest round's record, so
//! its memory does not grow with the rounds it has run.
//!
//! Per round the session: asks the [`SelectionPolicy`] for `K` of `N`
//! clients (feeding it per-client losses, participation counts and the
//! executor's device fleet), hands them to the configured
//! [`RoundExecutor`] — which trains them *in parallel* (on the scoped
//! threads of `feddrl_nn::parallel::par_map`) and decides which reports
//! make it back, and when — then asks the [`Strategy`] for impact factors
//! over the updates that arrived, applies the weighted aggregation of
//! Eq. 4, evaluates the new global model, and notifies every
//! [`RoundObserver`]. Timing of the two server-side stages is recorded
//! separately to reproduce Figure 9.
//!
//! Determinism: client-local randomness is derived from
//! `(master seed, round, client id)`, so results are independent of thread
//! scheduling, and a default-component session is byte-identical to the
//! pre-session round loop (enforced by the committed golden fixture).

use crate::client::{dispatch_mask, run_local_round, run_local_round_masked, ClientUpdate};
use crate::error::FlError;
pub use crate::executor::TrainContext;
use crate::executor::{Dispatch, ExecutorConfig, RoundExecutor, StalenessDiscount, TrainFn};
use crate::history::{RoundRecord, RunHistory};
use crate::metrics::evaluate;
use crate::selection::{Selection, SelectionContext, SelectionPolicy};
use crate::server::FlConfig;
use crate::strategy::{
    masked_weighted_average, normalize_factors, weighted_average, RoundContext, Strategy,
};
use feddrl_data::dataset::Dataset;
use feddrl_data::partition::Partition;
use feddrl_nn::model::Sequential;
use feddrl_nn::parallel::par_map;
use feddrl_nn::rng::Rng64;
use feddrl_nn::zoo::ModelSpec;
use feddrl_sim::ids::IdSet;
use std::time::Instant;

/// What an observer tells the session after seeing a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundControl {
    /// Keep training.
    Continue,
    /// Stop the run after this round (its record still reaches the
    /// caller). Any observer returning `Stop` stops the session.
    Stop,
}

/// Everything an observer sees at the end of a round: the round's own
/// [`RoundRecord`] plus run-cumulative reliability telemetry the session
/// maintains incrementally — so an observer can log or stop on
/// dropout/staleness/sim-time signals without replaying the whole
/// [`RunHistory`] after the fact.
pub struct RoundSignals<'a> {
    /// The completed round's full record.
    pub record: &'a RoundRecord,
    /// Sampled-client dropouts over the run so far (this round included).
    pub total_dropouts: usize,
    /// Deadline-cut stragglers over the run so far.
    pub total_stragglers: usize,
    /// Cumulative simulated wall-clock in seconds (0 under the ideal
    /// executor, where no virtual time passes).
    pub sim_time_s: f64,
    /// Mean staleness over every update aggregated so far (0 while
    /// nothing stale was aggregated).
    pub mean_staleness: f64,
    /// Clients whose update is still in flight after this round
    /// (asynchronous executors only; 0 at every round barrier).
    pub in_flight: usize,
}

/// An on-round-end hook: receives every completed round's
/// [`RoundSignals`] and may stop the run early. Replaces the old
/// hardcoded `log_every` stderr print (now the [`ProgressLogger`]
/// built-in) and enables early-stopping / checkpointing / live-metrics /
/// reliability-watchdog observers without touching the round loop.
pub trait RoundObserver: Send {
    /// Called once per completed round with its record and the run's
    /// cumulative telemetry.
    fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl;
}

/// Prints `[method] round    N: acc A loss L` to stderr every `every`
/// rounds — the built-in that preserves `FlConfig::log_every` behavior
/// (the builder installs one automatically when `log_every > 0`).
pub struct ProgressLogger {
    every: usize,
    method: String,
}

impl ProgressLogger {
    /// Log every `every` rounds under the `method` tag (0 never logs).
    pub fn new(every: usize, method: impl Into<String>) -> Self {
        Self {
            every,
            method: method.into(),
        }
    }
}

impl RoundObserver for ProgressLogger {
    fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl {
        let record = signals.record;
        if self.every > 0 && record.round.is_multiple_of(self.every) {
            // Reliability telemetry rides along only when an executor
            // produces it, so ideal-executor logs keep their exact
            // historical shape.
            let reliability = if record.hetero.is_some() {
                format!(
                    " | drop {} strag {} stale {:.2}",
                    signals.total_dropouts, signals.total_stragglers, signals.mean_staleness
                )
            } else {
                String::new()
            };
            eprintln!(
                "[{}] round {:>4}: acc {:.4} loss {:.4}{reliability}",
                self.method, record.round, record.test_accuracy, record.test_loss
            );
        }
        RoundControl::Continue
    }
}

/// Stops the run once test accuracy reaches a target (a budget saver for
/// sweeps that only ask "how many rounds to X%").
pub struct EarlyStop {
    /// Stop as soon as `test_accuracy >= target_accuracy`.
    pub target_accuracy: f32,
}

impl RoundObserver for EarlyStop {
    fn on_round_end(&mut self, signals: &RoundSignals<'_>) -> RoundControl {
        if signals.record.test_accuracy >= self.target_accuracy {
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// A session-level override for local training, installed with
/// [`SessionBuilder::train_fn`]: given the dispatch round's
/// [`TrainContext`] and the executor's dispatch orders, produce the
/// client updates. It is the executors' [`TrainFn`] itself — the built-in
/// real-training callback is one too — so an override replaces the
/// default and nothing else changes. Deterministic stubs make
/// executor-reduction tests (and transport benchmarks) independent of
/// training compute, while the loopback runtime uses it to mirror what
/// its remote workers compute.
pub type SessionTrainFn<'a> = TrainFn<'a>;

/// Builder for a federated [`Session`].
///
/// The five required components (model spec, train/test sets, partition,
/// strategy) come in through [`SessionBuilder::new`]; everything else has
/// the paper's defaults and is overridden fluently. [`SessionBuilder::build`]
/// validates the assembled configuration and returns typed [`FlError`]s
/// for the mistakes the old free function panicked on.
///
/// ```
/// use feddrl_fl::prelude::*;
/// use feddrl_data::prelude::*;
/// use feddrl_nn::prelude::*;
///
/// let (train, test) = SynthSpec { train_size: 600, test_size: 200,
///     ..SynthSpec::mnist_like() }.generate(1);
/// let partition = PartitionMethod::Iid
///     .partition(&train, 4, &mut Rng64::new(2)).unwrap();
/// let spec = ModelSpec::Mlp { in_dim: train.feature_dim(),
///     hidden: vec![16], out_dim: train.num_classes() };
/// let mut strategy = FedAvg;
/// let history = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
///     .rounds(2)
///     .participants(4)
///     .dataset_name("mnist-like")
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(history.records.len(), 2);
/// assert_eq!(history.dataset, "mnist-like");
/// ```
pub struct SessionBuilder<'a> {
    spec: &'a ModelSpec,
    train: &'a Dataset,
    test: &'a Dataset,
    partition: &'a Partition,
    strategy: &'a mut dyn Strategy,
    cfg: FlConfig,
    dataset_name: String,
    policy: Option<Box<dyn SelectionPolicy>>,
    executor_instance: Option<Box<dyn RoundExecutor>>,
    train_override: Option<Box<SessionTrainFn<'a>>>,
    observers: Vec<Box<dyn RoundObserver>>,
}

impl<'a> SessionBuilder<'a> {
    /// Start a builder from the five required components, with
    /// [`FlConfig::default`] for everything else.
    pub fn new(
        spec: &'a ModelSpec,
        train: &'a Dataset,
        test: &'a Dataset,
        partition: &'a Partition,
        strategy: &'a mut dyn Strategy,
    ) -> Self {
        Self {
            spec,
            train,
            test,
            partition,
            strategy,
            cfg: FlConfig::default(),
            dataset_name: String::new(),
            policy: None,
            executor_instance: None,
            train_override: None,
            observers: Vec::new(),
        }
    }

    /// Replace the whole orchestration config at once (the serializable
    /// form used by experiment harnesses and the compat wrapper).
    pub fn config(mut self, cfg: &FlConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Communication rounds `T`.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.cfg.rounds = rounds;
        self
    }

    /// Participating clients per round `K`.
    pub fn participants(mut self, participants: usize) -> Self {
        self.cfg.participants = participants;
        self
    }

    /// Local solver settings.
    pub fn local(mut self, local: crate::client::LocalTrainConfig) -> Self {
        self.cfg.local = local;
        self
    }

    /// Evaluation batch size.
    pub fn eval_batch(mut self, eval_batch: usize) -> Self {
        self.cfg.eval_batch = eval_batch;
        self
    }

    /// Master seed; every random stream of the run derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Print progress to stderr every `log_every` rounds (0 = silent);
    /// implemented as an auto-installed [`ProgressLogger`] observer.
    pub fn log_every(mut self, log_every: usize) -> Self {
        self.cfg.log_every = log_every;
        self
    }

    /// Config-level selection policy (built via [`Selection::build`];
    /// a [`SessionBuilder::selection_policy`] override wins over this).
    pub fn selection(mut self, selection: Selection) -> Self {
        self.cfg.selection = selection;
        self
    }

    /// Plug in a custom [`SelectionPolicy`] instance, overriding the
    /// config-level [`Selection`].
    pub fn selection_policy(mut self, policy: Box<dyn SelectionPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Round-execution model (ideal synchronous, deadline-bounded, or
    /// buffered asynchronous).
    pub fn executor(mut self, executor: ExecutorConfig) -> Self {
        self.cfg.executor = executor;
        self
    }

    /// Server-side optimizer applied to the aggregated model each round
    /// (plain Eq. 4 replacement by default; FedAdam/FedYogi/FedAMSGrad
    /// step along the pseudo-gradient instead, carrying moment state
    /// across rounds for the session's lifetime).
    pub fn server_opt(mut self, server_opt: crate::server_opt::ServerOptConfig) -> Self {
        self.cfg.server_opt = server_opt;
        self
    }

    /// Plug in a pre-built [`RoundExecutor`] instance, overriding the
    /// config-level [`ExecutorConfig`] (the executor-instance analogue of
    /// [`SessionBuilder::selection_policy`]). This is how executors that
    /// cannot be described by serializable config — the networked runtime's
    /// `NetworkExecutor`, which owns live sockets — plug into an otherwise
    /// unchanged session.
    pub fn executor_instance(mut self, executor: Box<dyn RoundExecutor>) -> Self {
        self.executor_instance = Some(executor);
        self
    }

    /// Replace the built-in real-training callback with a
    /// [`SessionTrainFn`] override. The executor still decides *which*
    /// clients train and when their reports land; only the local-training
    /// computation itself is substituted. Selection, aggregation,
    /// evaluation and every RNG stream are untouched, so two sessions
    /// differing only in executor stay comparable update-for-update.
    pub fn train_fn(mut self, train: Box<SessionTrainFn<'a>>) -> Self {
        self.train_override = Some(train);
        self
    }

    /// Register an on-round-end observer (called in registration order,
    /// after the `log_every` logger if one is installed).
    pub fn observer(mut self, observer: Box<dyn RoundObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Dataset name recorded in the resulting [`RunHistory`] (defaults to
    /// empty, matching the pre-session loop's output).
    pub fn dataset_name(mut self, name: impl Into<String>) -> Self {
        self.dataset_name = name.into();
        self
    }

    /// Validate the assembled configuration and build the [`Session`].
    ///
    /// # Errors
    /// * [`FlError::ZeroRounds`] / [`FlError::ZeroParticipants`] on empty
    ///   run dimensions;
    /// * [`FlError::ParticipantsExceedClients`] when `K > N`;
    /// * [`FlError::InvalidDeadline`] / [`FlError::InvalidFleet`] when a
    ///   deadline executor is configured with a degenerate heterogeneity
    ///   model;
    /// * [`FlError::ZeroBuffer`] / [`FlError::BufferExceedsParticipants`] /
    ///   [`FlError::InvalidDiscount`] when a buffered executor's
    ///   aggregation buffer or staleness discount is degenerate.
    pub fn build(self) -> Result<Session<'a>, FlError> {
        let n_clients = self.partition.n_clients();
        let cfg = &self.cfg;
        cfg.validate(n_clients)?;

        // Assembly order mirrors the historical loop exactly so the RNG
        // streams (and therefore the histories) stay byte-identical.
        let mut master = Rng64::new(cfg.seed);
        let global = self.spec.build(master.next_u64());
        let mut local_cfg = cfg.local.clone();
        local_cfg.proximal_mu = self.strategy.proximal_mu();
        let executor = match self.executor_instance {
            Some(executor) => executor,
            None => cfg
                .executor
                .build(n_clients, global.param_count(), cfg.participants, cfg.seed),
        };
        let policy = match self.policy {
            Some(p) => p,
            None => cfg.selection.build(),
        };
        let mut observers = Vec::new();
        if cfg.log_every > 0 {
            observers.push(
                Box::new(ProgressLogger::new(cfg.log_every, self.strategy.name()))
                    as Box<dyn RoundObserver>,
            );
        }
        observers.extend(self.observers);

        let method = self.strategy.name().to_string();
        let server_opt = cfg.server_opt.build();
        Ok(Session {
            train: self.train,
            test: self.test,
            partition: self.partition,
            strategy: self.strategy,
            cfg: self.cfg,
            dataset_name: self.dataset_name,
            method,
            n_clients,
            master,
            global_flat: global.flat_params(),
            global,
            local_cfg,
            executor,
            policy,
            server_opt,
            train_override: self.train_override,
            observers,
            known_loss: vec![None; n_clients],
            participation: vec![0; n_clients],
            last: None,
            round: 0,
            stopped: false,
            total_dropouts: 0,
            total_stragglers: 0,
            cum_sim_time_s: 0.0,
            staleness_sum: 0,
            staleness_count: 0,
        })
    }
}

/// A validated, in-progress federated run. Created by
/// [`SessionBuilder::build`]; driven by [`Session::run`] or
/// [`Session::step`].
pub struct Session<'a> {
    train: &'a Dataset,
    test: &'a Dataset,
    partition: &'a Partition,
    strategy: &'a mut dyn Strategy,
    cfg: FlConfig,
    dataset_name: String,
    method: String,
    n_clients: usize,
    master: Rng64,
    global: Sequential,
    /// The flat parameters of `global`: what aggregation produced, kept
    /// rather than flattened again each round.
    global_flat: Vec<f32>,
    local_cfg: crate::client::LocalTrainConfig,
    executor: Box<dyn RoundExecutor>,
    policy: Box<dyn SelectionPolicy>,
    server_opt: Box<dyn crate::server_opt::ServerOpt>,
    train_override: Option<Box<SessionTrainFn<'a>>>,
    observers: Vec<Box<dyn RoundObserver>>,
    known_loss: Vec<Option<f32>>,
    participation: Vec<usize>,
    /// The latest round's record, which [`Session::step`] lends out. No
    /// other record is kept: [`Session::run`] and step-driven callers
    /// collect their own.
    last: Option<RoundRecord>,
    round: usize,
    stopped: bool,
    // Running totals feeding every round's `RoundSignals` — maintained
    // incrementally so observers never pay a replay of the history.
    total_dropouts: usize,
    total_stragglers: usize,
    cum_sim_time_s: f64,
    staleness_sum: usize,
    staleness_count: usize,
}

impl<'a> Session<'a> {
    /// Whether the session has finished (all rounds done, or an observer
    /// stopped it). [`Session::step`] on a finished session is a no-op
    /// returning `Ok(None)`.
    pub fn is_finished(&self) -> bool {
        self.stopped || self.round >= self.cfg.rounds
    }

    /// Flat parameters of the current global model (e.g. for external
    /// checkpointing between [`Session::step`] calls).
    pub fn global_params(&self) -> Vec<f32> {
        self.global_flat.clone()
    }

    /// Execute one communication round and lend out its record; `Ok(None)`
    /// once the session is finished. The record is the session's only
    /// copy and the next call replaces it: a caller that wants the run's
    /// [`RunHistory`] clones each record it is lent and finishes with
    /// [`Session::into_history`].
    ///
    /// # Errors
    /// [`FlError::InvalidSelection`] when a (user-provided) selection
    /// policy returns a sample that is not exactly `K` distinct in-range
    /// client ids; [`FlError::InvalidUpdate`] when a (user-provided)
    /// `train_fn` or executor returns an update whose weight vector or
    /// mask is not as long as the model; [`FlError::InvalidFactors`] when
    /// a (user-provided) strategy returns impact factors that cannot be
    /// normalized onto the simplex — each reported before aggregation
    /// touches the global model.
    pub fn step(&mut self) -> Result<Option<&RoundRecord>, FlError> {
        self.last = self.advance()?;
        Ok(self.last.as_ref())
    }

    /// One round, as [`Session::step`] runs it, handing its record over
    /// by value after the observers have seen it.
    fn advance(&mut self) -> Result<Option<RoundRecord>, FlError> {
        if self.is_finished() {
            return Ok(None);
        }
        let round = self.round;

        // --- Fleet growth under churn: clients that joined since the last
        // round enter the federation with an optimistic prior (no known
        // loss, zero participation) and become selectable this round.
        // `None` (every churn-free executor) leaves `n_clients` at the
        // partition's count and this block is a no-op.
        let view = self.executor.view();
        if let Some(universe) = view.universe {
            if universe > self.n_clients {
                self.known_loss.resize(universe, None);
                self.participation.resize(universe, 0);
                self.n_clients = universe;
            }
        }

        // --- Client selection (Algorithm 2; uniform by default). The
        // policy draws from the per-round stream `(master seed, round)`.
        let mut select_rng = self.master.derive(round as u64);
        let mut selected = {
            let ctx = SelectionContext {
                round,
                n_clients: self.n_clients,
                participants: self.cfg.participants,
                known_loss: &self.known_loss,
                participation: &self.participation,
                executor: view,
            };
            self.policy.select(&ctx, &mut select_rng)
        };
        validate_selection(&selected, self.n_clients, self.cfg.participants, round)?;
        // The record keeps these ids and a caller of `run` keeps every
        // record, so they are held at `K` wide, not in the policy's
        // buffer, which may be a candidate pool several times wider.
        selected.shrink_to_fit();
        for &c in &selected {
            self.participation[c] += 1;
        }

        // --- Round execution: the executor decides who trains, and when
        // their reports land; `train` runs the local rounds of a dispatch
        // batch in parallel — on `par_map`'s scoped threads — from the
        // broadcast of the round they were dispatched in, which under the
        // buffered executor is not this one.
        let global_flat = &self.global_flat;
        let global = &self.global;
        let train_set = self.train;
        let partition = self.partition;
        let local_cfg = &self.local_cfg;
        // Clients that joined under churn have ids beyond the fixed data
        // partition; they train on a shard chosen by residue — the
        // identity map for every original id, so churn-free runs keep
        // their exact historical shards.
        let n_shards = partition.n_clients();
        let train_locally = |ctx: &TrainContext<'_>, dispatches: &[Dispatch]| {
            par_map(dispatches, |_, &d| {
                let client_id = d.client_id;
                let (seed, round) = (ctx.seed, ctx.round as u64);
                let mut model = global.clone();
                model.set_flat_params(ctx.global);
                let mut rng = Rng64::new(seed ^ 0xC11E)
                    .derive(round)
                    .derive(client_id as u64);
                if d.keep_ratio < 1.0 {
                    // Structured sub-model dispatch: the mask comes from
                    // its own salted stream so full-model training (and
                    // every pre-dynamics history) never consumes it. The
                    // shared `dispatch_mask` helper is the same derivation
                    // networked workers use, which is what makes wire-level
                    // masked dispatch bit-identical to this path.
                    let mask = dispatch_mask(&model, seed, round, client_id as u64, d.keep_ratio);
                    run_local_round_masked(
                        model,
                        train_set,
                        partition.client(client_id % n_shards),
                        client_id,
                        local_cfg,
                        mask,
                        &mut rng,
                    )
                } else {
                    run_local_round(
                        model,
                        train_set,
                        partition.client(client_id % n_shards),
                        client_id,
                        local_cfg,
                        &mut rng,
                    )
                }
            })
        };
        let train: &TrainFn<'_> = match &self.train_override {
            Some(train) => &**train,
            None => &train_locally,
        };
        // Distributed executors fan the broadcast weights out to their
        // remote workers here; in-process ones train from the context.
        self.executor.publish_model(round, global_flat);
        let ctx = TrainContext {
            round,
            seed: self.cfg.seed,
            global: global_flat,
        };
        let outcome = self.executor.execute(&ctx, &selected, train);
        let updates = outcome.updates;
        validate_updates(&updates, global_flat.len(), round)?;
        // The executor's post-round state: how to weigh what it returned,
        // and what it still has pending (for the observers below). The
        // view borrows, so this second one costs nothing.
        let after = self.executor.view();
        let (discount, eta) = (after.staleness_discount, after.server_mix);
        let in_flight = after.in_flight.len();

        // --- Impact factors (the strategy's decision; DRL inference for
        // FedDRL) — timed separately for Figure 9. A round where nothing
        // arrived (everyone dropped or missed the deadline) leaves the
        // global model untouched and the strategy un-consulted.
        let (alphas, strategy_micros, aggregate_micros) = if updates.is_empty() {
            (Vec::new(), 0, 0)
        } else {
            let t0 = Instant::now();
            let raw = self.strategy.impact_factors_ctx(&RoundContext {
                round,
                global_weights: global_flat,
                updates: &updates,
            });
            let strategy_micros = t0.elapsed().as_micros() as u64;
            validate_factors(&raw, updates.len(), round)?;
            // Staleness discounting (asynchronous/carry-over executors):
            // scale each raw factor by the executor's discount for that
            // update's age, *before* simplex normalization, so weight is
            // redistributed toward fresher updates. `None` (every fresh-
            // only executor) leaves the historical code path untouched.
            let raw = if discount == StalenessDiscount::None {
                raw
            } else {
                raw.iter()
                    .zip(updates.iter())
                    .map(|(&f, u)| f * discount.factor(u.staleness))
                    .collect()
            };
            let alphas = normalize_factors(&raw);

            // --- Weighted aggregation (Eq. 4), optionally blended into
            // the current global at the executor's server mixing rate
            // (`η = 1`, every round-barrier executor, is the paper's pure
            // replacement and skips the blend entirely). Sub-model updates
            // (adaptive structured dropout) route through the mask-aware
            // per-position average; rounds where every update is full keep
            // the historical dense path bit-for-bit.
            let t1 = Instant::now();
            let any_masked = updates
                .iter()
                .any(|u| u.mask.as_ref().is_some_and(|m| !m.is_full()));
            let mut new_global = if any_masked {
                masked_weighted_average(global_flat, &updates, &alphas)
            } else {
                let weight_refs: Vec<&[f32]> =
                    updates.iter().map(|u| u.weights.as_slice()).collect();
                weighted_average(&weight_refs, &alphas)
            };
            if eta < 1.0 {
                let eta = eta as f32;
                for (w, &g) in new_global.iter_mut().zip(global_flat.iter()) {
                    *w = (1.0 - eta) * g + eta * *w;
                }
            }
            // --- Server optimizer: fold the aggregation target into the
            // next global model. The default `Plain` returns `new_global`
            // untouched (no arithmetic — the historical replacement path,
            // bit-for-bit); the adaptive optimizers step along the
            // pseudo-gradient `Δ = new_global − global`, carrying moment
            // state in the session across rounds.
            let new_global = self.server_opt.apply(global_flat, new_global);
            let aggregate_micros = t1.elapsed().as_micros() as u64;
            self.global.set_flat_params(&new_global);
            self.global_flat = new_global;
            (alphas, strategy_micros, aggregate_micros)
        };

        for u in &updates {
            self.known_loss[u.client_id] = Some(u.loss_before);
        }

        // --- Evaluation.
        let (test_accuracy, test_loss) = evaluate(&mut self.global, self.test, self.cfg.eval_batch);
        let record = RoundRecord {
            round,
            test_accuracy,
            test_loss,
            selected,
            impact_factors: alphas,
            client_losses_before: updates.iter().map(|u| u.loss_before).collect(),
            strategy_micros,
            aggregate_micros,
            hetero: outcome.hetero,
        };
        self.round += 1;

        // --- Observers (the logger first, then user hooks, in order),
        // fed the round record plus the run's cumulative reliability
        // telemetry.
        if let Some(h) = &record.hetero {
            self.total_dropouts += h.dropouts;
            self.total_stragglers += h.stragglers;
            self.cum_sim_time_s += h.sim_time_s;
            self.staleness_sum += h.staleness_sum();
            self.staleness_count += h.staleness.len();
        }
        let signals = RoundSignals {
            record: &record,
            total_dropouts: self.total_dropouts,
            total_stragglers: self.total_stragglers,
            sim_time_s: self.cum_sim_time_s,
            mean_staleness: if self.staleness_count == 0 {
                0.0
            } else {
                self.staleness_sum as f64 / self.staleness_count as f64
            },
            in_flight,
        };
        for obs in &mut self.observers {
            if obs.on_round_end(&signals) == RoundControl::Stop {
                self.stopped = true;
            }
        }
        Ok(Some(record))
    }

    /// Drive the remaining rounds to completion and return the history of
    /// the rounds this call ran.
    ///
    /// # Errors
    /// Propagates the first [`FlError`] from [`Session::step`] — and,
    /// having consumed the session, drops the rounds completed before the
    /// failure. Only a misbehaving user-provided [`SelectionPolicy`],
    /// `train_fn` or [`Strategy`] can fail mid-run (built-ins are total,
    /// and config errors are caught at [`SessionBuilder::build`]); when
    /// driving one and partial results matter, loop [`Session::step`]
    /// yourself, collecting the records, and finish with
    /// [`Session::into_history`].
    pub fn run(mut self) -> Result<RunHistory, FlError> {
        let mut records = Vec::with_capacity(self.cfg.rounds - self.round);
        while let Some(record) = self.advance()? {
            records.push(record);
        }
        Ok(self.into_history(records))
    }

    /// Finish the session, consuming it into a [`RunHistory`] over
    /// `records` — the records a [`Session::step`] loop collected, in
    /// order; with every round's record, this is what [`Session::run`]
    /// returns.
    pub fn into_history(self, records: Vec<RoundRecord>) -> RunHistory {
        RunHistory {
            method: self.method,
            dataset: self.dataset_name,
            partition: self.partition.method().code().to_string(),
            n_clients: self.n_clients,
            participants: self.cfg.participants,
            seed: self.cfg.seed,
            records,
        }
    }
}

/// Check a policy's sample: exactly `k` distinct ids in `[0, n)`.
fn validate_selection(
    selected: &[usize],
    n_clients: usize,
    participants: usize,
    round: usize,
) -> Result<(), FlError> {
    let invalid = |reason: String| FlError::InvalidSelection { round, reason };
    if selected.len() != participants {
        return Err(invalid(format!(
            "expected {participants} clients, got {}",
            selected.len()
        )));
    }
    // Hash set, not a dense `vec![false; n_clients]`: validation stays
    // O(K) in time and memory even over a million-client fleet.
    let mut seen = IdSet::with_capacity_and_hasher(selected.len(), Default::default());
    for &c in selected {
        if c >= n_clients {
            return Err(invalid(format!(
                "client id {c} out of range (N = {n_clients})"
            )));
        }
        if !seen.insert(c) {
            return Err(invalid(format!("client id {c} selected twice")));
        }
    }
    Ok(())
}

/// Check a strategy's raw impact factors: one per update, each finite and
/// non-negative, not all zero — exactly what [`normalize_factors`] would
/// otherwise panic on.
fn validate_factors(raw: &[f32], expected: usize, round: usize) -> Result<(), FlError> {
    let reason = if raw.len() != expected {
        format!("expected {expected} factors, got {}", raw.len())
    } else if let Some(i) = raw.iter().position(|f| !(f.is_finite() && *f >= 0.0)) {
        format!("factor {i} is {}", raw[i])
    } else if raw.iter().all(|&f| f == 0.0) {
        "factors sum to zero".into()
    } else {
        return Ok(());
    };
    Err(FlError::InvalidFactors { round, reason })
}

/// Check what the executor handed back against the model's shape: every
/// weight vector and every mask `dim` long — what the aggregation kernels
/// would otherwise panic on — and both reported losses finite, which the
/// FedDRL state vector asserts.
fn validate_updates(updates: &[ClientUpdate], dim: usize, round: usize) -> Result<(), FlError> {
    for u in updates {
        let reason = if u.weights.len() != dim {
            format!("expected {dim} weights, got {}", u.weights.len())
        } else if let Some(m) = u.mask.as_ref().filter(|m| m.len() != dim) {
            format!("expected a mask over {dim} positions, got {}", m.len())
        } else if !(u.loss_before.is_finite() && u.loss_after.is_finite()) {
            format!(
                "expected finite losses, got loss_before {} and loss_after {}",
                u.loss_before, u.loss_after
            )
        } else {
            continue;
        };
        return Err(FlError::InvalidUpdate {
            round,
            client_id: u.client_id,
            reason,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::HeteroConfig;
    use crate::strategy::FedAvg;
    use feddrl_data::partition::PartitionMethod;
    use feddrl_data::synth::SynthSpec;
    use feddrl_sim::device::FleetConfig;

    fn quick_setup() -> (ModelSpec, Dataset, Dataset, Partition) {
        let (train, test) = SynthSpec {
            train_size: 800,
            test_size: 200,
            ..SynthSpec::mnist_like()
        }
        .generate(5);
        let partition = PartitionMethod::Iid
            .partition(&train, 6, &mut Rng64::new(9))
            .unwrap();
        let spec = ModelSpec::Mlp {
            in_dim: train.feature_dim(),
            hidden: vec![16],
            out_dim: train.num_classes(),
        };
        (spec, train, test, partition)
    }

    fn quick_builder<'a>(
        spec: &'a ModelSpec,
        train: &'a Dataset,
        test: &'a Dataset,
        partition: &'a Partition,
        strategy: &'a mut dyn Strategy,
    ) -> SessionBuilder<'a> {
        SessionBuilder::new(spec, train, test, partition, strategy)
            .rounds(2)
            .participants(4)
            .local(crate::client::LocalTrainConfig {
                epochs: 1,
                batch_size: 16,
                lr: 0.05,
                ..Default::default()
            })
            .eval_batch(64)
            .seed(13)
    }

    #[test]
    fn build_rejects_degenerate_configs_with_typed_errors() {
        let (spec, train, test, partition) = quick_setup();
        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .participants(0)
            .build()
            .err();
        assert_eq!(err, Some(FlError::ZeroParticipants));

        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .participants(7)
            .build()
            .err();
        assert_eq!(
            err,
            Some(FlError::ParticipantsExceedClients {
                participants: 7,
                n_clients: 6
            })
        );

        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .rounds(0)
            .build()
            .err();
        assert_eq!(err, Some(FlError::ZeroRounds));

        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .executor(ExecutorConfig::Deadline(HeteroConfig {
                deadline_s: Some(0.0),
                ..Default::default()
            }))
            .build()
            .err();
        assert_eq!(err, Some(FlError::InvalidDeadline { deadline_s: 0.0 }));

        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .executor(ExecutorConfig::Deadline(HeteroConfig {
                fleet: FleetConfig {
                    dropout: 1.0,
                    ..Default::default()
                },
                ..Default::default()
            }))
            .build()
            .err();
        assert!(matches!(err, Some(FlError::InvalidFleet { .. })));

        // A degenerate reliability model gets its own typed error — for
        // both the correlation strength and the rate-certainty bound, and
        // through the buffered executor's validation path too.
        use feddrl_sim::device::{DropoutCorrelation, ReliabilityConfig};
        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .executor(ExecutorConfig::Deadline(HeteroConfig {
                fleet: FleetConfig {
                    dropout: 0.1,
                    reliability: ReliabilityConfig {
                        dropout_skew: 2.0,
                        correlation: DropoutCorrelation::SpeedCorrelated { strength: 1.5 },
                    },
                    ..Default::default()
                },
                ..Default::default()
            }))
            .build()
            .err();
        assert!(matches!(err, Some(FlError::InvalidReliability { .. })));

        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .executor(ExecutorConfig::Buffered(crate::executor::BufferedConfig {
                fleet: FleetConfig {
                    dropout: 0.5,
                    reliability: ReliabilityConfig {
                        dropout_skew: 3.0,
                        correlation: DropoutCorrelation::Independent,
                    },
                    ..Default::default()
                },
                buffer_size: 2,
                ..Default::default()
            }))
            .build()
            .err();
        assert!(matches!(err, Some(FlError::InvalidReliability { .. })));
    }

    #[test]
    fn dataset_name_is_recorded() {
        let (spec, train, test, partition) = quick_setup();
        let mut s = FedAvg;
        let history = quick_builder(&spec, &train, &test, &partition, &mut s)
            .dataset_name("mnist-like")
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(history.dataset, "mnist-like");
        assert_eq!(history.records.len(), 2);
    }

    #[test]
    fn session_tracks_participation_counts() {
        let (spec, train, test, partition) = quick_setup();
        struct Probe {
            seen_participation: Vec<usize>,
        }
        impl SelectionPolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut Rng64) -> Vec<usize> {
                self.seen_participation = ctx.participation.to_vec();
                rng.sample_indices(ctx.n_clients, ctx.participants)
            }
        }
        let mut s = FedAvg;
        let mut session = quick_builder(&spec, &train, &test, &partition, &mut s)
            .participants(6)
            .selection_policy(Box::new(Probe {
                seen_participation: Vec::new(),
            }))
            .build()
            .unwrap();
        let _ = session.step().unwrap();
        let _ = session.step().unwrap();
        // Full participation (K = N = 6): after round 0 everyone has been
        // selected once, which is what the policy must observe in round 1.
        assert!(session.is_finished());
        assert_eq!(session.participation, vec![2; 6]);
    }

    #[test]
    fn early_stop_observer_truncates_the_run() {
        let (spec, train, test, partition) = quick_setup();
        let mut s = FedAvg;
        let history = quick_builder(&spec, &train, &test, &partition, &mut s)
            .rounds(10)
            .observer(Box::new(EarlyStop {
                target_accuracy: 0.0, // any accuracy satisfies it
            }))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(history.records.len(), 1, "EarlyStop failed to stop round 0");
    }

    #[test]
    fn misbehaving_policy_surfaces_invalid_selection() {
        let (spec, train, test, partition) = quick_setup();
        struct Dup;
        impl SelectionPolicy for Dup {
            fn name(&self) -> &'static str {
                "dup"
            }
            fn select(&mut self, ctx: &SelectionContext<'_>, _rng: &mut Rng64) -> Vec<usize> {
                vec![0; ctx.participants]
            }
        }
        let mut s = FedAvg;
        let err = quick_builder(&spec, &train, &test, &partition, &mut s)
            .selection_policy(Box::new(Dup))
            .build()
            .unwrap()
            .run()
            .err();
        assert!(matches!(
            err,
            Some(FlError::InvalidSelection { round: 0, .. })
        ));
    }
}
