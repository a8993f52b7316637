//! The traced run's machinery: an in-memory span recorder, timing
//! wrappers for the two per-record interfaces the layers meet at
//! ([`TraceReader`] and [`DirectionPredictor`]), and the self-time table.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! library's public functions; nothing inside the program is traced. A
//! span carries its name, start and end (nanoseconds since the recorder's
//! epoch), parent, thread, and iteration; the workload is recorded once
//! per run. Per-record work that cannot be a span (one predictor call per
//! branch, one decode call per block) is summed by the wrappers and
//! attached to the enclosing span as an *aggregate* child.
//!
//! A span's self time is its duration minus the part of it that child
//! spans cover (the union of their intervals, wherever they ran) minus its
//! aggregate children.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bp_predictors::DirectionPredictor;
use bp_trace::{ReadTraceError, RetiredInst, TraceMeta, TraceReader};

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.prepare`; `bench.*` names are
    /// the benchmark's own glue and belong to no layer.
    pub name: &'static str,
    /// Index of the parent span, if any (possibly on another thread).
    pub parent: Option<usize>,
    /// Small per-process thread number.
    pub thread: u32,
    /// Measured iteration (or set-up repetition) the span belongs to.
    pub iteration: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder epoch (0 while open).
    pub end: u64,
    /// Work items the span processed (records, calls), when counted.
    pub count: u64,
}

/// Time summed by a timing wrapper and charged to the span it ran in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Agg {
    /// Layer-qualified name, e.g. `trace.decode`.
    pub name: &'static str,
    /// The span the wrapped calls ran inside.
    pub parent: usize,
    /// Total nanoseconds inside the wrapped calls.
    pub ns: u64,
    /// Items the wrapped calls processed (records or branches).
    pub count: u64,
}

/// Collects spans in memory; disabled recorders record nothing.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    iteration: AtomicU32,
    spans: Mutex<Vec<Span>>,
    aggs: Mutex<Vec<Agg>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        })
    })
}

/// The innermost span open on this thread.
#[must_use]
pub fn current() -> Option<usize> {
    OPEN.with(|s| s.borrow().last().copied())
}

impl Recorder {
    /// A recorder that starts disabled.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            iteration: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            aggs: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans opened from now on.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// Sets the iteration number stamped on spans opened from now on.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.store(iteration, Ordering::SeqCst);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_under(name, current())
    }

    /// Opens a span under an explicit parent, for work handed to another
    /// thread (an engine task under the `Engine::map` call that spawned it).
    pub fn span_under(&self, name: &'static str, parent: Option<usize>) -> Guard<'_> {
        if !self.on() {
            return Guard {
                rec: self,
                id: None,
            };
        }
        let span = Span {
            name,
            parent,
            thread: thread_number(),
            iteration: self.iteration.load(Ordering::SeqCst),
            start: self.now(),
            end: 0,
            count: 0,
        };
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span list lock poisoned by a panic");
            spans.push(span);
            spans.len() - 1
        };
        OPEN.with(|s| s.borrow_mut().push(id));
        Guard {
            rec: self,
            id: Some(id),
        }
    }

    /// Charges `ns` of wrapped work to the innermost open span.
    pub fn add_agg(&self, name: &'static str, ns: u64, count: u64) {
        if let (true, Some(parent)) = (self.on(), current()) {
            self.aggs
                .lock()
                .expect("aggregate list lock poisoned by a panic")
                .push(Agg {
                    name,
                    parent,
                    ns,
                    count,
                });
        }
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> (Vec<Span>, Vec<Agg>) {
        (
            self.spans
                .lock()
                .expect("span list lock poisoned by a panic")
                .clone(),
            self.aggs
                .lock()
                .expect("aggregate list lock poisoned by a panic")
                .clone(),
        )
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// The process-wide recorder the benchmark's workloads use.
pub fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(Recorder::new)
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: Option<usize>,
}

impl Guard<'_> {
    /// The span's index, `None` when recording is off.
    #[must_use]
    pub fn id(&self) -> Option<usize> {
        self.id
    }

    /// Records how many items the span processed.
    pub fn count(&self, n: u64) {
        if let Some(id) = self.id {
            if let Ok(mut spans) = self.rec.spans.lock() {
                spans[id].count = n;
            }
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.rec.now();
        // Never panic in drop: a poisoned list just loses this end time.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[id].end = end;
        }
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
    }
}

/// Self time of every span: duration minus the union of its child spans'
/// intervals (clipped to the span) minus its aggregate children.
#[must_use]
pub fn self_times(spans: &[Span], aggs: &[Agg]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut agg_ns = vec![0u64; spans.len()];
    for a in aggs {
        agg_ns[a.parent] += a.ns;
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .zip(agg_ns)
        .map(|((s, kids), agg)| {
            let covered = union_within(kids, s.start, s.end);
            s.end
                .saturating_sub(s.start)
                .saturating_sub(covered)
                .saturating_sub(agg)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-name totals from a set of spans: self nanoseconds, items counted,
/// and number of spans, over spans and aggregates alike.
#[derive(Clone, Debug, Default)]
pub struct LayerTable {
    /// name → (self ns, count, occurrences)
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl LayerTable {
    /// Builds the table.
    #[must_use]
    pub fn build(spans: &[Span], aggs: &[Agg]) -> LayerTable {
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, ns) in spans.iter().zip(self_times(spans, aggs)) {
            let e = by_name.entry(s.name).or_default();
            e.0 += ns;
            e.1 += s.count;
            e.2 += 1;
        }
        for a in aggs {
            let e = by_name.entry(a.name).or_default();
            e.0 += a.ns;
            e.1 += a.count;
            e.2 += 1;
        }
        LayerTable { by_name }
    }

    /// Self seconds under `name`.
    #[must_use]
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64 / 1e9)
    }

    /// Items counted under `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Sum of layer self times ÷ sum of all self times (the traced busy
    /// time). `bench.*` glue is the only unattributed time.
    #[must_use]
    pub fn attributed_frac(&self) -> f64 {
        let total: u64 = self.by_name.values().map(|e| e.0).sum();
        let layers: u64 = self
            .by_name
            .iter()
            .filter(|(n, _)| !n.starts_with("bench."))
            .map(|(_, e)| e.0)
            .sum();
        if total == 0 {
            0.0
        } else {
            layers as f64 / total as f64
        }
    }
}

/// A [`TraceReader`] that times `next_chunk` (block decode) and charges it
/// to the enclosing span as `trace.decode` when dropped.
pub struct TimedReader<R> {
    inner: R,
    ns: u64,
    records: u64,
}

impl<R: TraceReader> TimedReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        TimedReader {
            inner,
            ns: 0,
            records: 0,
        }
    }
}

impl<R: TraceReader> TraceReader for TimedReader<R> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        let t = Instant::now();
        let chunk = self.inner.next_chunk();
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Ok(Some(c)) = &chunk {
            self.records += c.len() as u64;
        }
        chunk
    }
}

impl<R> Drop for TimedReader<R> {
    fn drop(&mut self) {
        rec().add_agg("trace.decode", self.ns, self.records);
    }
}

/// A [`DirectionPredictor`] that times every `predict_and_train` and
/// charges the total to the enclosing span as `predictors.train`.
pub struct TimedPredictor<'a> {
    inner: &'a mut dyn DirectionPredictor,
    ns: u64,
    calls: u64,
}

impl<'a> TimedPredictor<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn DirectionPredictor) -> Self {
        TimedPredictor {
            inner,
            ns: 0,
            calls: 0,
        }
    }
}

impl DirectionPredictor for TimedPredictor<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn predict_and_train(&mut self, ip: u64, taken: bool) -> bool {
        let t = Instant::now();
        let pred = self.inner.predict_and_train(ip, taken);
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        pred
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
    }
}

impl Drop for TimedPredictor<'_> {
    fn drop(&mut self) {
        rec().add_agg("predictors.train", self.ns, self.calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            thread,
            iteration: 0,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_two_threads() {
        // A map call on thread 0 spawns one task on each of threads 1 and
        // 2; the tasks overlap, and each holds a nested span plus
        // aggregated predictor time.
        let spans = vec![
            span("core.map", None, 0, 0, 100),
            span("core.task", Some(0), 1, 10, 60),
            span("core.task", Some(0), 2, 40, 90),
            span("predictors.train", Some(1), 1, 15, 45),
            span("pipeline.prepare", Some(2), 2, 50, 85),
        ];
        let aggs = vec![
            Agg {
                name: "trace.decode",
                parent: 3,
                ns: 5,
                count: 7,
            },
            Agg {
                name: "trace.decode",
                parent: 4,
                ns: 10,
                count: 3,
            },
        ];
        let st = self_times(&spans, &aggs);
        // Children cover [10, 90) as a union, not 50 + 50.
        assert_eq!(st, vec![20, 20, 15, 25, 25]);
        let table = LayerTable::build(&spans, &aggs);
        assert_eq!(table.by_name["core.task"], (35, 0, 2));
        assert_eq!(table.by_name["trace.decode"], (15, 10, 2));
        let total: u64 = st.iter().sum::<u64>() + 15;
        // Self times partition the busy time: thread 0's wait is counted
        // only where no task ran.
        assert_eq!(total, 20 + 50 + 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("a", None, 0, 10, 20),
            span("b", Some(0), 1, 5, 15),
            span("c", Some(0), 1, 18, 40),
        ];
        assert_eq!(self_times(&spans, &[]), vec![3, 10, 22]);
    }

    #[test]
    fn recorder_links_spans_across_threads() {
        let rec = Recorder::new();
        rec.set_on(true);
        {
            let map = rec.span("core.map");
            let parent = map.id();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _task = rec.span_under("core.task", parent);
                        let _inner = rec.span("pipeline.lanes");
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    });
                }
            });
        }
        let (spans, aggs) = rec.snapshot();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans.iter().filter(|s| s.parent == Some(0)).count(), 2);
        for (i, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "pipeline.lanes")
        {
            assert_eq!(spans[s.parent.unwrap()].name, "core.task", "span {i}");
            assert_eq!(spans[s.parent.unwrap()].thread, s.thread);
        }
        let table = LayerTable::build(&spans, &aggs);
        assert!(table.secs("pipeline.lanes") >= 0.009);
        assert!(table.attributed_frac() > 0.99);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        let g = rec.span("core.map");
        assert_eq!(g.id(), None);
        drop(g);
        assert!(rec.snapshot().0.is_empty());
    }
}
