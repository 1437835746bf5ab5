//! Bench-side tracing: spans recorded around calls into each layer.
//!
//! The benchmark never reaches inside the program. It wraps the public
//! [`Endpoint`] and [`IngestSink`] traits and times calls into public
//! functions; each wrapper records a [`Span`] (name, start, end, parent,
//! request id) in memory, and the spans are written out when the run
//! ends. A span's parent is whatever span the calling thread had open,
//! so an endpoint call made while aligning a relation is a child of that
//! relation's `core.align` span. Spans recorded on server threads have no
//! parent: the wire carries no span id.

use crate::stats::Samples;
use sofya_endpoint::{Endpoint, EndpointError, Request, Response};
use sofya_net::IngestSink;
use sofya_rdf::Term;
use sofya_sparql::QueryBudget;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// The benchmark operation (relation, post, publish, …) this belongs to.
    pub request: u64,
    pub name: &'static str,
    /// Request kind for endpoint spans (`select`, `batch`, …), else "".
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Leaf requests for endpoint spans, triples for write spans.
    pub items: u64,
    /// Rows returned for endpoint spans.
    pub rows: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every wrapper of one run. Records
/// nothing until switched on, so one set of wrappers serves a run's
/// untraced and traced phases.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    active: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// `(span id, request id)` of the span open on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Nanoseconds this thread has spent in samplers.
    static SAMPLED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds the calling thread has spent in samplers so far. A caller
/// that times a call which may sample subtracts the difference, so its
/// timing holds only the program's work.
pub fn sampled_ns() -> u64 {
    SAMPLED_NS.with(Cell::get)
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            active: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span that started at `start` and ends now,
    /// as a child of the span open on this thread.
    pub fn record(
        &self,
        name: &'static str,
        kind: &'static str,
        start: Instant,
        items: u64,
        rows: u64,
    ) {
        if !self.is_active() {
            return;
        }
        let end = Instant::now();
        let (parent, request) = CURRENT.with(Cell::get);
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            kind,
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            items,
            rows,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
    }

    /// Opens a span on this thread when tracing is on; spans recorded
    /// until [`Open::close`] become its children.
    pub fn open(self: &Arc<Self>, name: &'static str, request: u64) -> Option<Open> {
        if !self.is_active() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace((id, request)));
        Some(Open {
            tracer: Arc::clone(self),
            id,
            outer,
            name,
            start: Instant::now(),
        })
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking thread"),
        )
    }
}

/// A span open on the current thread.
#[derive(Debug)]
pub struct Open {
    tracer: Arc<Tracer>,
    id: u64,
    /// The thread's `(span id, request id)` before this span opened.
    outer: (u64, u64),
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn close(self, items: u64) {
        let end = Instant::now();
        let (_, request) = CURRENT.with(|c| c.replace(self.outer));
        let span = Span {
            id: self.id,
            parent: self.outer.0,
            request,
            name: self.name,
            kind: "",
            start_ns: self.tracer.ns_since_origin(self.start),
            end_ns: self.tracer.ns_since_origin(end),
            items,
            rows: 0,
        };
        self.tracer
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
    }
}

/// Closes a span opened by [`Tracer::open`], if tracing was on.
pub fn close(span: Option<Open>, items: u64) {
    if let Some(span) = span {
        span.close(items);
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{},\"rows\":{}}}",
            s.id, s.parent, s.request, s.name, s.kind, s.start_ns, s.end_ns, s.items, s.rows
        )?;
    }
    out.flush()
}

/// Per-wrapper call accounting, kept with tracing on or off: it is what
/// a client sees of its own requests.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Per-call latency, kept only by wrappers built `with_latency`.
    pub latency: Samples,
    pub calls: u64,
    pub leaves: u64,
    pub rows: u64,
    pub select_calls: u64,
    pub ask_calls: u64,
    pub count_calls: u64,
    pub batch_calls: u64,
    pub batch_leaves: u64,
}

impl CallStats {
    pub fn merge(&mut self, other: CallStats) {
        self.latency.extend(other.latency);
        self.calls += other.calls;
        self.leaves += other.leaves;
        self.rows += other.rows;
        self.select_calls += other.select_calls;
        self.ask_calls += other.ask_calls;
        self.count_calls += other.count_calls;
        self.batch_calls += other.batch_calls;
        self.batch_leaves += other.batch_leaves;
    }
}

/// Called after every `every`-th call with the request, its result and
/// the call's duration, only while tracing. It runs after the call's own
/// timing, is recorded as a `bench.sample` span (so the self time of the
/// enclosing span excludes it) and adds to [`sampled_ns`].
pub type Sampler =
    Box<dyn Fn(Request<'_>, &Result<Response, EndpointError>, Duration) + Send + Sync>;

/// An [`Endpoint`] wrapper that accounts every call and, when tracing,
/// records one span per call.
pub struct Metered<E> {
    inner: E,
    span_name: &'static str,
    tracer: Arc<Tracer>,
    stats: Mutex<CallStats>,
    seq: AtomicU64,
    sampler: Option<(u64, Sampler)>,
    /// Whether every call's latency is kept (memory grows with calls).
    keep_latency: bool,
}

impl<E: Endpoint> Metered<E> {
    pub fn new(inner: E, span_name: &'static str, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            span_name,
            tracer,
            stats: Mutex::new(CallStats::default()),
            seq: AtomicU64::new(0),
            sampler: None,
            keep_latency: false,
        }
    }

    /// Keeps each call's latency in [`CallStats::latency`].
    pub fn with_latency(mut self) -> Self {
        self.keep_latency = true;
        self
    }

    pub fn with_sampler(mut self, every: u64, sampler: Sampler) -> Self {
        self.sampler = Some((every.max(1), sampler));
        self
    }

    pub fn take_stats(&self) -> CallStats {
        std::mem::take(
            &mut *self
                .stats
                .lock()
                .expect("call stats poisoned by a panicking thread"),
        )
    }

    fn call(
        &self,
        req: Request<'_>,
        run: impl FnOnce(Request<'_>) -> Result<Response, EndpointError>,
    ) -> Result<Response, EndpointError> {
        let kind = req.kind();
        let leaves = req.leaf_count();
        let sampled = match &self.sampler {
            Some((every, _))
                if self.tracer.is_active()
                    && self.seq.fetch_add(1, Ordering::Relaxed) % every == 0 =>
            {
                Some(req.clone())
            }
            _ => None,
        };
        let start = Instant::now();
        let result = run(req);
        let elapsed = start.elapsed();
        let rows = result.as_ref().map(Response::row_count).unwrap_or(0);
        self.tracer
            .record(self.span_name, kind, start, leaves, rows);
        {
            let mut s = self
                .stats
                .lock()
                .expect("call stats poisoned by a panicking thread");
            if self.keep_latency {
                s.latency.push(elapsed);
            }
            s.calls += 1;
            s.leaves += leaves;
            s.rows += rows;
            match kind {
                "select" | "prepared-select" | "prepared-select-paged" => s.select_calls += 1,
                "ask" | "prepared-ask" => s.ask_calls += 1,
                "count" => s.count_calls += 1,
                _ => {
                    s.batch_calls += 1;
                    s.batch_leaves += leaves;
                }
            }
        }
        if let (Some(req), Some((_, sampler))) = (sampled, &self.sampler) {
            let start = Instant::now();
            sampler(req, &result, elapsed);
            self.tracer.record("bench.sample", "", start, 0, 0);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SAMPLED_NS.with(|c| c.set(c.get().saturating_add(ns)));
        }
        result
    }
}

impl<E: Endpoint> Endpoint for Metered<E> {
    fn execute(&self, req: Request<'_>) -> Result<Response, EndpointError> {
        self.call(req, |r| self.inner.execute(r))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_with_budget(
        &self,
        req: Request<'_>,
        budget: &QueryBudget,
    ) -> Result<Response, EndpointError> {
        self.call(req, |r| self.inner.execute_with_budget(r, budget))
    }
}

/// An [`IngestSink`] wrapper recording one `stream.sink` span per batch.
pub struct TracedSink {
    inner: Arc<dyn IngestSink>,
    tracer: Arc<Tracer>,
}

impl TracedSink {
    pub fn new(inner: Arc<dyn IngestSink>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl IngestSink for TracedSink {
    fn ingest(&self, triples: Vec<(Term, Term, Term)>) -> Result<u64, EndpointError> {
        let n = triples.len() as u64;
        let start = Instant::now();
        let result = self.inner.ingest(triples);
        self.tracer.record("stream.sink", "", start, n, 0);
        result
    }
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Samples {
    let mut s = Samples::new();
    for span in spans.iter().filter(|s| s.name == name) {
        s.push_ns(span.duration_ns());
    }
    s
}

/// Self time of each span named `name`: its duration minus the part
/// its direct children cover.
pub fn self_times(spans: &[Span], name: &str) -> Samples {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out = Samples::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        out.push_ns(s.duration_ns().saturating_sub(covered));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_link_to_the_open_span_and_self_time_excludes_them() {
        let tracer = Tracer::new();
        tracer.set_active(true);
        let outer = tracer.open("outer", 7).unwrap();
        let t = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        tracer.record("inner", "select", t, 1, 3);
        outer.close(1);
        tracer.record("after", "", Instant::now(), 0, 0);
        let spans = tracer.take();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let after = spans.iter().find(|s| s.name == "after").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
        assert_eq!(after.parent, 0);
        let own = self_times(&spans, "outer").quantile_ns(1.0);
        assert!(own <= (outer.duration_ns() - inner.duration_ns()) as f64);
    }
}
