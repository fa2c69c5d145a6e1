//! Live-heap laws: a session's memory does not grow with the rounds it
//! has run.
//!
//! This binary installs a counting global allocator, so every test here
//! can read the bytes live on the heap between two `Session::step` calls.
//! A session keeps the latest round's record only — callers that want the
//! history collect it themselves — so once a fleet saturates (every client
//! the executor can hold pending is pending), round 4 000 holds what round
//! 1 000 held, give or take the broadcast snapshots that pending uploads
//! pin. A session that kept every record would hold 0.6–0.8 KB more per
//! round here: 1.8 MB (buffered) to 2.3 MB (ideal) over the 3 000 rounds
//! between the two readings.
//!
//! The tests take one lock, so no two measure at once: the counter is
//! process-wide.

// `GlobalAlloc` is an unsafe trait; the impl below only forwards to the
// system allocator and counts.
#![allow(unsafe_code)]

use feddrl_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

/// The system allocator, counting the bytes it has live.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    LIVE.fetch_add(delta, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test while it measures.
static MEASURING: Mutex<()> = Mutex::new(());

/// Clients, participants per round, and the buffered executor's buffer.
const N: usize = 500;
const K: usize = 64;
const M: usize = 16;

/// Live heap bytes may differ by at most this much between the two
/// readings: room for the broadcast snapshots of a few more or fewer
/// pending dispatch rounds (≈ 0.3 KB each here), far below the 1.8 MB or
/// more a session that kept its records would add.
const SLACK_BYTES: isize = 64 * 1024;

/// A small world: eight features, so a broadcast snapshot is small next
/// to a round record.
fn world() -> (ModelSpec, Dataset, Dataset, Partition) {
    let (train, test) = SynthSpec {
        feature_dim: 8,
        num_classes: 4,
        train_size: 2 * N,
        test_size: 16,
        ..SynthSpec::mnist_like()
    }
    .generate(3);
    let partition = PartitionMethod::Iid
        .partition(&train, N, &mut Rng64::new(4))
        .expect("iid partition");
    let spec = ModelSpec::Mlp {
        in_dim: train.feature_dim(),
        hidden: vec![4],
        out_dim: train.num_classes(),
    };
    (spec, train, test, partition)
}

/// Local training replaced by the broadcast itself, so an update is as
/// long as the model and costs no compute.
fn stub_train(ctx: &TrainContext<'_>, dispatches: &[Dispatch]) -> Vec<ClientUpdate> {
    dispatches
        .iter()
        .map(|d| ClientUpdate {
            client_id: d.client_id,
            weights: ctx.global.to_vec(),
            n_samples: 2,
            loss_before: 1.0,
            loss_after: 0.5,
            staleness: 0,
            mask: None,
        })
        .collect()
}

/// Step a session built from `cfg` to round 4 000, reading live heap
/// bytes after rounds 1 000 and 4 000, and return both readings.
fn live_bytes_at_rounds_1000_and_4000(cfg: &FlConfig) -> (isize, isize) {
    let (spec, train, test, partition) = world();
    let mut strategy = FedAvg;
    let mut session = SessionBuilder::new(&spec, &train, &test, &partition, &mut strategy)
        .config(cfg)
        .train_fn(Box::new(stub_train))
        .build()
        .expect("valid config");
    let mut readings = Vec::with_capacity(2);
    for round in 1..=4_000 {
        let record = session.step().expect("round").expect("rounds left");
        assert_eq!(record.round + 1, round);
        if round == 1_000 || round == 4_000 {
            readings.push(LIVE.load(Ordering::Relaxed));
        }
    }
    (readings[0], readings[1])
}

fn assert_flat(what: &str, (at_1000, at_4000): (isize, isize)) {
    let grew = at_4000 - at_1000;
    assert!(
        grew.abs() <= SLACK_BYTES,
        "{what}: live heap moved by {grew} bytes between rounds 1 000 and 4 000 \
         ({at_1000} → {at_4000}); a session must not grow with its rounds"
    );
}

/// A step-driven buffered session on a fleet it saturates: K = 64
/// dispatches a round against a buffer of 16, so within a few rounds
/// most of the 500 clients are pending and the executor's tables stop
/// growing.
#[test]
fn buffered_step_session_live_heap_is_flat_once_the_fleet_saturates() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FlConfig {
        rounds: 4_000,
        participants: K,
        seed: 5,
        executor: ExecutorConfig::Buffered(BufferedConfig {
            fleet: FleetConfig {
                compute_skew: 4.0,
                dropout: 0.1,
                seed: 6,
                ..Default::default()
            },
            buffer_size: M,
            ..Default::default()
        }),
        ..Default::default()
    };
    assert_flat("buffered", live_bytes_at_rounds_1000_and_4000(&cfg));
}

/// The paper's synchronous round: nothing pending between rounds, so the
/// session's heap is the same at every round barrier.
#[test]
fn ideal_step_session_live_heap_is_flat() {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FlConfig {
        rounds: 4_000,
        participants: K,
        seed: 7,
        ..Default::default()
    };
    assert_flat("ideal", live_bytes_at_rounds_1000_and_4000(&cfg));
}
