//! Helpers shared by the integration suites.
//!
//! Not every suite uses every helper, and each test binary compiles this
//! module independently, hence the `dead_code` allowance.
#![allow(dead_code)]

use feddrl_repro::prelude::*;

/// A whole federated run through [`SessionBuilder`] with default
/// components, for suites whose config is known to be valid.
pub fn run_session(
    spec: &ModelSpec,
    train: &Dataset,
    test: &Dataset,
    partition: &Partition,
    strategy: &mut dyn Strategy,
    cfg: &FlConfig,
) -> RunHistory {
    SessionBuilder::new(spec, train, test, partition, strategy)
        .config(cfg)
        .build()
        .expect("valid config")
        .run()
        .expect("federated run")
}

/// Zero the only nondeterministic fields of a run history (the
/// wall-clock stage timings) so the rest compares byte-for-byte.
pub fn scrub_timings(history: &mut RunHistory) {
    for r in &mut history.records {
        r.strategy_micros = 0;
        r.aggregate_micros = 0;
    }
}

/// Pretty JSON of a history with timings scrubbed — the form the
/// equality-law tests compare.
pub fn scrubbed_json(mut history: RunHistory) -> String {
    scrub_timings(&mut history);
    serde_json::to_string_pretty(&history).expect("serialize history")
}

/// Like [`scrubbed_json`] but with the trailing newline the on-disk
/// golden fixtures carry.
pub fn golden_json(history: RunHistory) -> String {
    scrubbed_json(history) + "\n"
}

/// Round `round`'s training context for a stub that never reads the
/// broadcast (suites that drive an executor without a session).
pub fn ctx(round: usize) -> TrainContext<'static> {
    TrainContext {
        round,
        seed: 0,
        global: &[],
    }
}

/// The client-id set of `list`, in the hashed form executor views lend:
/// equality is set equality, whatever the insertion order.
pub fn ids(list: impl IntoIterator<Item = usize>) -> IdSet {
    list.into_iter().collect()
}
