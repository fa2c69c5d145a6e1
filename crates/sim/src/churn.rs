//! Seeded fleet churn: clients arriving and departing on the virtual clock.
//!
//! [`ChurnProcess`] turns a [`ChurnConfig`]'s two mean gaps into a
//! deterministic, time-ordered stream of [`EventKind::ClientJoin`] /
//! [`EventKind::ClientLeave`] events (exponential inter-event gaps — two
//! independent Poisson processes sharing one timeline). Executors advance
//! the process alongside their own clocks, so the active client set
//! changes *between and within* rounds while every run stays
//! bit-reproducible.
//!
//! The active set is held implicitly — the contiguous id universe
//! `[0, universe)` minus a sparse departed set — so churn over a
//! million-client fleet costs memory proportional to the clients that
//! actually left, never the fleet size. Arrivals mint monotonically
//! increasing ids past the initial fleet size; a grown
//! [`crate::device::FleetView`] then derives each joiner's profile on
//! demand, and departed ids are never reissued (their server-side
//! telemetry must be allowed to go stale, not be silently inherited by a
//! stranger).

use feddrl_nn::rng::Rng64;

use crate::device::ChurnConfig;
use crate::event::{Event, EventKind};
use crate::ids::IdSet;

/// Salt separating the churn RNG from every other stream derived from a
/// run's master seed.
pub const CHURN_SALT: u64 = 0xC4_A91;

/// A deterministic arrival/departure process over the virtual timeline.
///
/// Conservation law (pinned by `tests/dynamics_props.rs`):
/// `initial_n + joins - leaves == active_count` at every instant.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    cfg: ChurnConfig,
    initial_n: usize,
    /// One past the largest id ever minted (ids `[0, universe)` exist).
    universe: usize,
    departed: IdSet,
    joins: usize,
    leaves: usize,
    arrivals: Rng64,
    departures: Rng64,
    targets: Rng64,
    next_arrival_s: f64,
    next_departure_s: f64,
    now_s: f64,
}

/// Draw an exponential gap with the given mean from `rng`.
fn exp_gap(rng: &mut Rng64, mean_s: f64) -> f64 {
    // next_f64 is in [0, 1): 1 - u is in (0, 1], so ln stays finite.
    -mean_s * (1.0 - rng.next_f64()).ln()
}

impl ChurnProcess {
    /// Start a churn process over an initial fleet of `initial_n` clients,
    /// deriving its streams from `seed` (pass the run's master seed; the
    /// process salts it).
    ///
    /// # Panics
    /// Panics on an empty initial fleet or a degenerate config.
    pub fn new(initial_n: usize, cfg: &ChurnConfig, seed: u64) -> Self {
        assert!(initial_n > 0, "churn needs at least one initial client");
        if let Err(reason) = cfg.validate() {
            panic!("{reason}");
        }
        let master = Rng64::new(seed ^ CHURN_SALT);
        let mut arrivals = master.derive(0);
        let mut departures = master.derive(1);
        let targets = master.derive(2);
        let next_arrival_s = exp_gap(&mut arrivals, cfg.mean_arrival_gap_s);
        let next_departure_s = exp_gap(&mut departures, cfg.mean_departure_gap_s);
        Self {
            cfg: *cfg,
            initial_n,
            universe: initial_n,
            departed: IdSet::default(),
            joins: 0,
            leaves: 0,
            arrivals,
            departures,
            targets,
            next_arrival_s,
            next_departure_s,
            now_s: 0.0,
        }
    }

    /// Advance the process to virtual time `t_s`, returning every churn
    /// event in `(now, t_s]` in time order (arrival before departure on an
    /// exact tie). Advancing to the past is a no-op returning no events.
    pub fn advance_to(&mut self, t_s: f64) -> Vec<Event> {
        assert!(t_s.is_finite(), "churn cannot advance to {t_s}");
        let mut events = Vec::new();
        while self.next_arrival_s.min(self.next_departure_s) <= t_s {
            if self.next_arrival_s <= self.next_departure_s {
                let client_id = self.universe;
                self.universe += 1;
                self.joins += 1;
                events.push(Event {
                    time_s: self.next_arrival_s,
                    kind: EventKind::ClientJoin { client_id },
                });
                self.next_arrival_s += exp_gap(&mut self.arrivals, self.cfg.mean_arrival_gap_s);
            } else {
                // A departure aimed at the last active client is skipped —
                // the fleet never empties — but the gap stream advances
                // regardless, so timing stays independent of fleet state.
                if self.active_count() > 1 {
                    let client_id = self.pick_departure_target();
                    self.departed.insert(client_id);
                    self.leaves += 1;
                    events.push(Event {
                        time_s: self.next_departure_s,
                        kind: EventKind::ClientLeave { client_id },
                    });
                }
                self.next_departure_s +=
                    exp_gap(&mut self.departures, self.cfg.mean_departure_gap_s);
            }
        }
        self.now_s = self.now_s.max(t_s);
        events
    }

    /// Uniformly pick an active client to depart. Rejection sampling over
    /// the id universe: deterministic given the stream, O(1) expected
    /// while departures are a minority, and never O(universe) memory.
    fn pick_departure_target(&mut self) -> usize {
        loop {
            let id = self.targets.below(self.universe);
            if !self.departed.contains(&id) {
                return id;
            }
        }
    }

    /// Whether `client_id` exists and has not departed.
    pub fn is_active(&self, client_id: usize) -> bool {
        client_id < self.universe && !self.departed.contains(&client_id)
    }

    /// One past the largest client id ever minted.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Clients currently active.
    pub fn active_count(&self) -> usize {
        self.universe - self.departed.len()
    }

    /// Total arrivals so far.
    pub fn joins(&self) -> usize {
        self.joins
    }

    /// Total departures so far.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// The initial fleet size the process started from.
    pub fn initial_n(&self) -> usize {
        self.initial_n
    }

    /// Virtual time the process has been advanced to.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// The departed client ids (sparse: one entry per client that
    /// actually left, regardless of fleet size).
    pub fn departed(&self) -> &IdSet {
        &self.departed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChurnProcess {
        ChurnProcess::new(
            10,
            &ChurnConfig {
                mean_arrival_gap_s: 5.0,
                mean_departure_gap_s: 7.0,
            },
            0xFEED,
        )
    }

    #[test]
    fn replay_is_deterministic_and_time_ordered() {
        let (mut a, mut b) = (quick(), quick());
        let (ea, eb) = (a.advance_to(500.0), b.advance_to(500.0));
        assert_eq!(ea, eb, "same seed must replay the same churn");
        assert!(!ea.is_empty(), "500 s at ~5/7 s gaps produced no events");
        let mut last = 0.0;
        for e in &ea {
            assert!(e.time_s >= last, "events out of order");
            assert!(e.time_s <= 500.0, "event past the advance horizon");
            last = e.time_s;
            assert!(matches!(
                e.kind,
                EventKind::ClientJoin { .. } | EventKind::ClientLeave { .. }
            ));
        }
        // Incremental advancement sees the identical stream.
        let mut c = quick();
        let mut incremental = Vec::new();
        for step in 1..=50 {
            incremental.extend(c.advance_to(step as f64 * 10.0));
        }
        assert_eq!(ea, incremental);
        assert_eq!(a.universe(), c.universe());
        assert_eq!(a.departed(), c.departed());
    }

    #[test]
    fn conservation_closes_at_every_step() {
        let mut p = quick();
        for step in 1..=200 {
            p.advance_to(step as f64 * 3.3);
            assert_eq!(
                p.initial_n() + p.joins() - p.leaves(),
                p.active_count(),
                "conservation broken at step {step}"
            );
            assert!(p.active_count() >= 1, "fleet emptied");
        }
        assert!(p.joins() > 10 && p.leaves() > 10, "processes barely fired");
    }

    #[test]
    fn arrivals_mint_fresh_monotone_ids_and_departures_never_rejoin() {
        let mut p = quick();
        let events = p.advance_to(1000.0);
        let mut next_expected = 10;
        let mut seen_leaves = IdSet::default();
        for e in &events {
            match e.kind {
                EventKind::ClientJoin { client_id } => {
                    assert_eq!(client_id, next_expected, "ids must mint monotonically");
                    next_expected += 1;
                }
                EventKind::ClientLeave { client_id } => {
                    assert!(client_id < p.universe());
                    assert!(
                        seen_leaves.insert(client_id),
                        "client {client_id} departed twice"
                    );
                    assert!(!p.is_active(client_id));
                }
                _ => unreachable!("churn emitted a non-churn event"),
            }
        }
        assert_eq!(p.universe(), next_expected);
        assert_eq!(p.departed(), &seen_leaves);
        assert!(!p.is_active(p.universe()), "unminted id counted active");
    }

    #[test]
    fn rewind_is_a_no_op() {
        let mut p = quick();
        let _ = p.advance_to(100.0);
        let (universe, departed) = (p.universe(), p.departed().clone());
        assert!(p.advance_to(50.0).is_empty());
        assert_eq!(p.universe(), universe);
        assert_eq!(p.departed(), &departed);
        assert_eq!(p.now_s(), 100.0);
    }

    #[test]
    fn lone_survivor_cannot_depart() {
        // Arrivals essentially never fire; departures every ~1 s. The
        // last active client must survive arbitrary advancement.
        let mut p = ChurnProcess::new(
            3,
            &ChurnConfig {
                mean_arrival_gap_s: 1e18,
                mean_departure_gap_s: 1.0,
            },
            7,
        );
        let _ = p.advance_to(10_000.0);
        assert_eq!(p.active_count(), 1);
        assert_eq!(p.leaves(), 2, "only n-1 departures may materialize");
    }

    #[test]
    #[should_panic(expected = "at least one initial client")]
    fn rejects_empty_initial_fleet() {
        let _ = ChurnProcess::new(0, &ChurnConfig::default(), 1);
    }

    #[test]
    #[should_panic(expected = "mean_departure_gap_s")]
    fn rejects_degenerate_gap() {
        let _ = ChurnProcess::new(
            4,
            &ChurnConfig {
                mean_arrival_gap_s: 1.0,
                mean_departure_gap_s: 0.0,
            },
            1,
        );
    }
}
