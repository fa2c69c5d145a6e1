//! The traced run: spans recorded from the benchmark's own code around
//! each call into a layer, held in memory until the run ends.
//!
//! Every round has one `session.step` root. Its children are
//! `core.strategy` (a [`Strategy`] decorator), `fl.train_fanout` with
//! `fl.local_round` children (a `train_fn` mirroring the session's
//! default one), `net.worker` (the worker closure, on its own thread) and
//! `fl.aggregate` (placed from `RoundRecord::aggregate_micros`). What the
//! root's children do not cover is `session.other`.

use std::sync::Mutex;
use std::time::Instant;

use feddrl::prelude::{ClientSummary, RoundContext, Strategy};

use crate::json::Json;
use crate::stats::median;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.strategy`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End of the interval (equal to `start_ns` while still open).
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a round's root.
    pub parent: Option<usize>,
    /// The communication round all spans of one `Session::step` share.
    pub round: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The open `session.step` span, while a round is running.
    root: Option<usize>,
}

/// A thread-safe in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // A worker that panicked mid-push leaves the vector valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open the `session.step` root of `round`.
    pub fn begin_round(&self, round: u64) -> usize {
        let now = self.now_ns();
        let mut st = self.state();
        st.spans.push(Span {
            name: "session.step",
            start_ns: now,
            end_ns: now,
            parent: None,
            round,
        });
        let id = st.spans.len() - 1;
        st.root = Some(id);
        id
    }

    /// Close the root opened by [`Tracer::begin_round`].
    pub fn end_round(&self, root: usize) {
        self.close(root);
        self.state().root = None;
    }

    /// Open a span under `parent`, or under the running round's root when
    /// `parent` is `None`. Returns `None` outside a round (set-up or
    /// tear-down traffic is not part of any step).
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = self.now_ns();
        let mut st = self.state();
        let parent = parent.or(st.root)?;
        let round = st.spans[parent].round;
        st.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: Some(parent),
            round,
        });
        Some(st.spans.len() - 1)
    }

    /// Close a span at the current instant.
    pub fn close(&self, id: usize) {
        let now = self.now_ns();
        self.state().spans[id].end_ns = now;
    }

    /// Record `fl.aggregate` under `root`: the session aggregates right
    /// after the strategy returns, so the interval starts where the
    /// round's `core.strategy` span ended and lasts `micros`.
    pub fn add_aggregate(&self, root: usize, micros: u64) {
        let mut st = self.state();
        let Some(start_ns) = st.spans[root..]
            .iter()
            .find(|s| s.parent == Some(root) && s.name == "core.strategy")
            .map(|s| s.end_ns)
        else {
            return;
        };
        let round = st.spans[root].round;
        st.spans.push(Span {
            name: "fl.aggregate",
            start_ns,
            end_ns: start_ns + micros * 1_000,
            parent: Some(root),
            round,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Run `work` inside a span called `name` — under `parent`, or under the
/// running round's root — when there is a tracer and a round is open. `work`
/// gets the span's index, for its own children.
pub fn spanned<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    work: impl FnOnce(Option<usize>) -> R,
) -> R {
    let span = tracer.and_then(|t| t.open(name, parent));
    let out = work(span);
    if let (Some(t), Some(span)) = (tracer, span) {
        t.close(span);
    }
    out
}

/// Times `impact_factors_ctx` of the wrapped strategy as `core.strategy`.
pub struct TracedStrategy<'a> {
    /// The strategy doing the work.
    pub inner: &'a mut dyn Strategy,
    /// Where the spans go.
    pub tracer: &'a Tracer,
}

impl Strategy for TracedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn impact_factors(&mut self, round: usize, summaries: &[ClientSummary]) -> Vec<f32> {
        self.inner.impact_factors(round, summaries)
    }

    fn impact_factors_ctx(&mut self, ctx: &RoundContext<'_>) -> Vec<f32> {
        let inner = &mut *self.inner;
        spanned(Some(self.tracer), "core.strategy", None, |_| {
            inner.impact_factors_ctx(ctx)
        })
    }

    fn proximal_mu(&self) -> Option<f32> {
        self.inner.proximal_mu()
    }
}

/// Length of the part of `[start, end]` that `intervals` cover.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The direct children of every span, indexed like `spans`.
pub fn children_of(spans: &[Span]) -> Vec<Vec<Span>> {
    let mut children = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push(*span);
        }
    }
    children
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children may overlap each other and may stick out).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    (span.end_ns - span.start_ns) - covered_ns(span.start_ns, span.end_ns, &mut intervals)
}

/// Per-round split of the `session.step` roots, each series in ms.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Root durations.
    pub step_ms: Vec<f64>,
    /// Time covered by `core.strategy`.
    pub strategy_ms: Vec<f64>,
    /// Time covered by `fl.aggregate`.
    pub aggregate_ms: Vec<f64>,
    /// Time covered by `fl.train_fanout` or `net.worker` spans.
    pub train_ms: Vec<f64>,
    /// The roots' self time (`session.other`).
    pub other_ms: Vec<f64>,
}

impl Breakdown {
    /// Split every closed root of `spans`.
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut b = Breakdown::default();
        let children = children_of(spans);
        for (root, children) in spans.iter().zip(&children) {
            if root.parent.is_some() {
                continue;
            }
            let cover = |names: &[&str]| {
                let mut intervals: Vec<(u64, u64)> = children
                    .iter()
                    .filter(|c| names.contains(&c.name))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                covered_ns(root.start_ns, root.end_ns, &mut intervals) as f64 / 1e6
            };
            b.step_ms.push((root.end_ns - root.start_ns) as f64 / 1e6);
            b.strategy_ms.push(cover(&["core.strategy"]));
            b.aggregate_ms.push(cover(&["fl.aggregate"]));
            b.train_ms.push(cover(&["fl.train_fanout", "net.worker"]));
            b.other_ms.push(self_time_ns(root, children) as f64 / 1e6);
        }
        b
    }

    /// Sum of the four parts as a percentage of the summed step time:
    /// 100 unless spans of different layers overlap or leave the root.
    pub fn parts_sum_pct(&self) -> f64 {
        let total = |v: &[f64]| v.iter().sum::<f64>();
        let parts = total(&self.strategy_ms)
            + total(&self.aggregate_ms)
            + total(&self.train_ms)
            + total(&self.other_ms);
        100.0 * parts / total(&self.step_ms).max(f64::MIN_POSITIVE)
    }

    /// Median of each series, in the order step, strategy, aggregate,
    /// train, other.
    pub fn medians(&self) -> [f64; 5] {
        [
            median(&self.step_ms),
            median(&self.strategy_ms),
            median(&self.aggregate_ms),
            median(&self.train_ms),
            median(&self.other_ms),
        ]
    }
}

/// The spans as a JSON array, for `fedbench_trace.json`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("round", Json::Num(s.round as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("session.step", 100, 1100, None),
            // Two overlapping workers cover [200, 600] once, not twice.
            span("net.worker", 200, 500, Some(0)),
            span("net.worker", 300, 600, Some(0)),
            span("core.strategy", 700, 800, Some(0)),
            // A child sticking out of its parent counts only inside it.
            span("fl.aggregate", 1000, 1300, Some(0)),
            // A grandchild belongs to its own parent, not to the root.
            span("fl.local_round", 210, 220, Some(1)),
            // A second root with no children is all self time.
            span("session.step", 2000, 2500, None),
        ];
        let children = children_of(&spans);
        let self_time = |id: usize| self_time_ns(&spans[id], &children[id]);
        assert_eq!(self_time(0), 1000 - 400 - 100 - 100);
        assert_eq!(self_time(1), 300 - 10);
        assert_eq!(self_time(6), 500);

        let b = Breakdown::of(&spans);
        assert_eq!(b.step_ms, vec![1e-3, 5e-4]);
        assert_eq!(b.train_ms, vec![4e-4, 0.0]);
        assert_eq!(b.strategy_ms, vec![1e-4, 0.0]);
        assert_eq!(b.aggregate_ms, vec![1e-4, 0.0]);
        assert_eq!(b.other_ms, vec![4e-4, 5e-4]);
        assert!((b.parts_sum_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_parents_children_to_the_running_round() {
        let tracer = Tracer::new();
        assert_eq!(tracer.open("net.worker", None), None, "no round is open");
        let root = tracer.begin_round(7);
        let strategy = tracer.open("core.strategy", None).expect("inside a round");
        tracer.close(strategy);
        let fanout = tracer
            .open("fl.train_fanout", None)
            .expect("inside a round");
        let local = tracer.open("fl.local_round", Some(fanout)).expect("child");
        tracer.close(local);
        tracer.close(fanout);
        tracer.add_aggregate(root, 5);
        tracer.end_round(root);
        assert_eq!(tracer.open("net.worker", None), None, "the round is over");

        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.round == 7));
        assert_eq!(spans[local].parent, Some(fanout));
        let aggregate = spans.last().expect("aggregate span");
        assert_eq!(aggregate.name, "fl.aggregate");
        assert_eq!(aggregate.parent, Some(root));
        assert_eq!(aggregate.start_ns, spans[strategy].end_ns);
        assert_eq!(aggregate.end_ns - aggregate.start_ns, 5_000);
    }
}
