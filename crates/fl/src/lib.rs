//! # feddrl-fl — synchronous federated-learning simulator
//!
//! The orchestration substrate of the FedDRL (ICPP'22) reproduction,
//! implementing the paper's Algorithm 2 skeleton:
//!
//! * [`client`] — local training rounds producing the
//!   `(l_before, l_after, n_k, w_k)` report tuple;
//! * [`strategy`] — the pluggable impact-factor abstraction with
//!   [`strategy::FedAvg`], [`strategy::FedProx`] and a uniform ablation
//!   baseline (FedDRL plugs in from the `feddrl` crate);
//! * [`selection`] — the pluggable client-selection abstraction (uniform,
//!   power-of-choice, bandwidth-aware, reliability-aware,
//!   staleness-balanced, or bring-your-own policy observing per-client
//!   losses, participation counts, device profiles, the executor's live
//!   in-flight set, and observed dropout/staleness telemetry);
//! * [`executor`] — the round-execution abstraction: the paper's ideal
//!   synchronous setting, deadline-bounded rounds over a heterogeneous
//!   device fleet (stragglers, dropouts), or buffered asynchronous
//!   aggregation with staleness-discounted impact factors
//!   (FedAsync/FedBuff-style), all driven by `feddrl_sim`'s
//!   discrete-event engine;
//! * [`dispatch`] — the dispatch planner every dispatching executor
//!   shares, in process or over sockets (who trains, on how much of the
//!   model, whose report counts), holding the one keep-ratio rule of
//!   adaptive structured dropout;
//! * [`session`] — the deterministic, thread-parallel round loop as a
//!   driveable object: [`session::SessionBuilder`] validates the assembled
//!   components into a [`session::Session`] run whole ([`session::Session::run`])
//!   or one round at a time ([`session::Session::step`]), with
//!   [`session::RoundObserver`] hooks per round;
//! * [`server`] — the serializable [`server::FlConfig`];
//! * [`error`] — the typed [`error::FlError`] every orchestration entry
//!   point reports instead of panicking;
//! * [`singleset`] — the centralized reference;
//! * [`metrics`] / [`history`] — evaluation and per-round records feeding
//!   every figure of the paper.
//!
//! ## Example
//!
//! ```
//! use feddrl_fl::prelude::*;
//! use feddrl_data::prelude::*;
//! use feddrl_nn::prelude::*;
//!
//! let (train, test) = SynthSpec { train_size: 600, test_size: 200,
//!     ..SynthSpec::mnist_like() }.generate(1);
//! let partition = PartitionMethod::Iid
//!     .partition(&train, 4, &mut Rng64::new(2)).unwrap();
//! let spec = ModelSpec::Mlp { in_dim: train.feature_dim(),
//!     hidden: vec![16], out_dim: train.num_classes() };
//! let mut strategy = FedAvg;
//! let history = SessionBuilder::new(&spec, &train, &test, &partition,
//!         &mut strategy)
//!     .rounds(2)
//!     .participants(4)
//!     .dataset_name("mnist-like")
//!     .build()
//!     .expect("valid config")
//!     .run()
//!     .expect("federated run");
//! assert_eq!(history.records.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod client;
pub mod dispatch;
pub mod error;
pub mod executor;
pub mod history;
pub mod metrics;
pub mod selection;
pub mod server;
pub mod server_opt;
pub mod session;
pub mod singleset;
pub mod strategy;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::baselines::{FedAdp, LossProportional};
    pub use crate::client::{
        dispatch_mask, run_local_round, run_local_round_masked, ClientSummary, ClientUpdate,
        LocalTrainConfig, MASK_SALT,
    };
    pub use crate::error::FlError;
    pub use crate::executor::{
        BufferedConfig, BufferedExecutor, ClientReliability, DeadlineExecutor, Dispatch,
        ExecutorConfig, ExecutorView, HeteroConfig, IdealExecutor, LatePolicy, ReliabilityTable,
        RoundExecutor, RoundOutcome, StalenessDiscount, StructuredDropoutConfig, TrainContext,
        TrainFn,
    };
    pub use crate::history::{HeteroRoundRecord, RoundRecord, RunHistory};
    pub use crate::metrics::{
        best_accuracy, evaluate, inference_loss, mean_var, rounds_to_target, ConvergenceStats,
    };
    pub use crate::selection::{
        BandwidthAwareSelection, PowerOfChoiceSelection, ReliabilityAwareSelection, Selection,
        SelectionContext, SelectionPolicy, StalenessBalancedSelection, UniformSelection,
    };
    pub use crate::server::FlConfig;
    pub use crate::server_opt::{AdaptiveParams, ServerOpt, ServerOptConfig};
    pub use crate::session::{
        EarlyStop, ProgressLogger, RoundControl, RoundObserver, RoundSignals, Session,
        SessionBuilder, SessionTrainFn,
    };
    pub use crate::singleset::{run_singleset, SingleSetConfig};
    pub use crate::strategy::{
        masked_weighted_average, normalize_factors, weighted_average, FedAvg, FedProx,
        RoundContext, Strategy, Uniform,
    };
}
