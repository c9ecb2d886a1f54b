//! The benchmark's own span recorder.
//!
//! One span per call into a layer function, recorded from the adapter
//! module (`sut`) around the call, never inside the program. A span has
//! a name `layer.function`, start and end, the span that caused it, and
//! a request id that all spans of one request share. Spans are kept in
//! memory and written at the end as Chrome trace-event JSON. A span's
//! self time is its duration minus the part of it that its children
//! cover, so overlapping children (two client threads under one phase)
//! are counted once.
//!
//! Recording is off unless [`set_enabled`] turned it on; an off span is
//! a `None` and costs one relaxed load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id, from 1.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// `layer.function`.
    pub name: &'static str,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Recording thread, from 1.
    pub tid: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Where a new span on this thread hangs: the innermost open span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Context {
    id: u64,
    req: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Context>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turn recording on or off. Spans opened while off are never recorded.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<Open>);

struct Open {
    ctx: Context,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Open a span under the innermost open span of this thread, in its
/// request.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Open a span that starts request `req`.
pub fn request(name: &'static str, req: u64) -> Span {
    open(name, Some(req))
}

fn open(name: &'static str, req: Option<u64>) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span(None);
    }
    let parent = context();
    let ctx = Context {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        req: req.unwrap_or(parent.req),
    };
    STACK.with(|s| s.borrow_mut().push(ctx));
    Span(Some(Open {
        ctx,
        parent: parent.id,
        name,
        start_ns: now_ns(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|c| c.id == open.ctx.id) {
                s.truncate(pos);
            }
        });
        let record = SpanRecord {
            id: open.ctx.id,
            parent: open.parent,
            name: open.name,
            req: open.ctx.req,
            tid: TID.with(|t| *t),
            start_ns: open.start_ns,
            end_ns,
        };
        SPANS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// The innermost open span of this thread (a root context if none), to
/// hand to a thread this one starts.
pub fn context() -> Context {
    STACK.with(|s| s.borrow().last().copied().unwrap_or_default())
}

/// Run `f` with spans it opens hung under `ctx`, which came from
/// [`context`] on another thread.
pub fn adopt<R>(ctx: Context, f: impl FnOnce() -> R) -> R {
    if ctx.id == 0 {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(ctx));
    let out = f();
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|c| c.id == ctx.id) {
            s.truncate(pos);
        }
    });
    out
}

/// Every span recorded so far, in end order; the recorder is emptied.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of every span, index for index: its duration minus the
/// union of its children's intervals.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns() - covered(c, s.start_ns, s.end_ns))
        .collect()
}

/// Whether each span is `root_name` or lies below a span of that name.
pub fn within(spans: &[SpanRecord], root_name: &str) -> Vec<bool> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    spans
        .iter()
        .map(|s| {
            let mut cur = Some(s);
            while let Some(c) = cur {
                if c.name == root_name {
                    return true;
                }
                cur = index.get(&c.parent).map(|&i| &spans[i]);
            }
            false
        })
        .collect()
}

/// Durations in milliseconds of the spans named `name`, in end order.
pub fn durations_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, the layer as its category.
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            req: 1,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            rec(1, 0, "bench.phase", 0, 100),
            // Two client threads overlap on [20, 50]; one child runs
            // past the parent's end, which clips it.
            rec(2, 1, "serve.request", 10, 50),
            rec(3, 1, "serve.request", 20, 60),
            rec(4, 1, "core.batch", 90, 130),
            rec(5, 3, "telemetry.scrape", 30, 40),
        ];
        let own = self_times(&spans);
        // Parent: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
        assert_eq!(own, vec![40, 40, 30, 40, 10]);
        let serve: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer() == "serve")
            .map(|(_, o)| o)
            .sum();
        assert_eq!(serve, 70);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = vec![
            rec(1, 0, "bench.setup", 0, 1000),
            rec(2, 1, "core.prepare", 100, 400),
            rec(3, 2, "core.inner", 150, 250),
            rec(4, 1, "core.save_v2", 500, 600),
            rec(5, 0, "bench.op", 2000, 2100),
        ];
        assert_eq!(self_times(&spans), vec![600, 200, 100, 100, 100]);
        assert_eq!(
            within(&spans, "bench.setup"),
            vec![true, true, true, true, false]
        );
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        set_enabled(true);
        let outer = request("bench.op", 42);
        let ctx = context();
        std::thread::spawn(move || adopt(ctx, || drop(span("serve.request"))))
            .join()
            .unwrap();
        let inner = span("core.distance");
        drop(inner);
        drop(outer);
        set_enabled(false);
        let spans: Vec<SpanRecord> = take().into_iter().filter(|s| s.req == 42).collect();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "bench.op").unwrap();
        for s in spans.iter().filter(|s| s.name != "bench.op") {
            assert_eq!(s.parent, outer.id, "{}", s.name);
        }
        assert!(span("x.y").0.is_none(), "off spans are not recorded");
    }
}
