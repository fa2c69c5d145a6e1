//! Discrete-event core: a virtual clock and a deterministic event queue.
//!
//! The heterogeneity engine models a federated round as a sequence of
//! timestamped events on a *virtual* timeline (client uploads completing,
//! the server's deadline firing), fully decoupled from wall-clock time.
//! [`EventQueue`] pops events in nondecreasing virtual-time order with a
//! FIFO tie-break, so simulations are bit-reproducible regardless of host
//! scheduling — the same guarantee the rest of the reproduction makes for
//! its RNG streams.
//!
//! Asynchronous (buffered) aggregation keeps *multiple model versions* in
//! flight at once: a slow client may still be uploading an update trained
//! against version `v` while the server has already aggregated versions
//! `v+1..`. Each upload event therefore records the `version` it was
//! trained against ([`EventKind::UploadComplete`]), so a consumer popping
//! the event can compute the update's staleness (current version minus
//! trained version) without any side tables — the queue itself is the
//! version bookkeeping.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A client's locally-trained model finished uploading.
    UploadComplete {
        /// Federation-wide client index.
        client_id: usize,
        /// Global-model version (round for round-based executors) the
        /// uploaded update was trained against. A synchronous executor
        /// drains its queue every round, so the version equals the current
        /// round; a buffered executor keeps events from several versions
        /// in flight and derives staleness from this field at pop time.
        version: usize,
    },
    /// The server's round deadline fired.
    Deadline,
    /// A new client joined the fleet (churn arrival). The id is minted by
    /// the churn process — monotonically increasing past the initial fleet
    /// size, so a joiner's profile derives on demand like any other index.
    ClientJoin {
        /// Federation-wide client index of the arrival.
        client_id: usize,
    },
    /// A client left the fleet (churn departure). Departed clients never
    /// rejoin; their telemetry persists server-side but goes stale.
    ClientLeave {
        /// Federation-wide client index of the departure.
        client_id: usize,
    },
}

/// A scheduled event on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time of the event, in simulated seconds.
    pub time_s: f64,
    /// What happens.
    pub kind: EventKind,
}

/// Heap entry; ordered so the `BinaryHeap` max-heap pops the *earliest*
/// time first, breaking ties by insertion order (FIFO).
struct Entry {
    time_s: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on both keys: earliest time wins, then lowest seq.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-queue of virtual-time events.
///
/// Every operation is O(log *active*) in the number of *pending* events —
/// never in the fleet size: a round that schedules `K` uploads against a
/// million-device fleet costs the same as against a forty-device one. The
/// queue allocates only for what is scheduled (use
/// [`EventQueue::with_capacity`] to pre-size for a known dispatch width
/// and avoid heap regrowth in steady state).
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty queue pre-sized for `capacity` pending events.
    ///
    /// Executors dispatch at most `participants` uploads (plus a deadline)
    /// per round, so sizing to the dispatch width makes steady-state
    /// scheduling allocation-free — independent of fleet size.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `kind` at virtual time `time_s`.
    ///
    /// # Panics
    /// Panics if `time_s` is negative or not finite — an event "at NaN"
    /// would silently corrupt the heap order.
    pub fn schedule(&mut self, time_s: f64, kind: EventKind) {
        assert!(
            time_s.is_finite() && time_s >= 0.0,
            "event time must be finite and non-negative, got {time_s}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time_s, seq, kind });
    }

    /// Pop the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|e| Event {
            time_s: e.time_s,
            kind: e.kind,
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Monotone virtual clock (simulated seconds since round start).
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advance to `t` seconds.
    ///
    /// # Panics
    /// Panics if `t` would move the clock backwards — a discrete-event
    /// simulation consuming an out-of-order event is a logic error.
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t.is_finite() && t >= self.now_s,
            "virtual clock cannot move backwards ({} -> {t})",
            self.now_s
        );
        self.now_s = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_nondecreasing_time_order() {
        let mut q = EventQueue::new();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].into_iter().enumerate() {
            q.schedule(
                t,
                EventKind::UploadComplete {
                    client_id: i,
                    version: 0,
                },
            );
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(e) = q.pop() {
            assert!(e.time_s >= last, "queue popped out of order");
            last = e.time_s;
        }
        assert_eq!(last, 5.0);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        // Interleave model versions: FIFO must follow insertion order, not
        // the version an upload was trained against.
        for i in 0..8 {
            q.schedule(
                1.0,
                EventKind::UploadComplete {
                    client_id: i,
                    version: i % 3,
                },
            );
        }
        q.schedule(1.0, EventKind::Deadline);
        for i in 0..8 {
            assert_eq!(
                q.pop().unwrap().kind,
                EventKind::UploadComplete {
                    client_id: i,
                    version: i % 3
                },
                "FIFO tie-break violated"
            );
        }
        assert_eq!(q.pop().unwrap().kind, EventKind::Deadline);
        assert!(q.is_empty());
    }

    #[test]
    fn churn_events_order_against_uploads_and_deadlines() {
        // Fleet-dynamics events share the queue's ordering guarantees:
        // time-ordered, FIFO among equal times, regardless of kind.
        let mut q = EventQueue::new();
        q.schedule(2.0, EventKind::ClientLeave { client_id: 4 });
        q.schedule(1.0, EventKind::ClientJoin { client_id: 9 });
        q.schedule(
            1.0,
            EventKind::UploadComplete {
                client_id: 0,
                version: 0,
            },
        );
        q.schedule(1.0, EventKind::ClientLeave { client_id: 0 });
        q.schedule(3.0, EventKind::Deadline);
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::ClientJoin { client_id: 9 }
        );
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::UploadComplete {
                client_id: 0,
                version: 0
            }
        );
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::ClientLeave { client_id: 0 }
        );
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::ClientLeave { client_id: 4 }
        );
        assert_eq!(q.pop().unwrap().kind, EventKind::Deadline);
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_presizes_and_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.capacity() >= 16);
        let before = q.capacity();
        for i in 0..16 {
            q.schedule(i as f64, EventKind::Deadline);
        }
        assert_eq!(q.capacity(), before, "pre-sized queue reallocated");
        assert_eq!(q.len(), 16);
        assert_eq!(q.pop().unwrap().time_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan_time() {
        EventQueue::new().schedule(f64::NAN, EventKind::Deadline);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_time() {
        EventQueue::new().schedule(-1.0, EventKind::Deadline);
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_s(), 0.0);
        c.advance_to(1.5);
        c.advance_to(1.5); // same instant is fine
        c.advance_to(7.0);
        assert_eq!(c.now_s(), 7.0);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_rewind() {
        let mut c = VirtualClock::new();
        c.advance_to(3.0);
        c.advance_to(2.0);
    }
}
