//! Hierarchical span tracing for the spsep pipeline.
//!
//! The pipeline's cost model (`spsep-pram`) answers *how much* work and
//! depth an algorithm charged; this crate answers *where the wall time
//! went*: every instrumented region opens a [`Span`] guard (usually via
//! the [`span!`] macro), and on drop the span records its label,
//! wall-clock interval, nesting depth, thread, and whatever op/byte
//! counts the region attributed to it.
//!
//! # Design constraints
//!
//! * **Zero-cost when disabled.** Tracing is off by default; [`span!`]
//!   reduces to one relaxed atomic load and constructs nothing — no
//!   label formatting, no buffer touch, no timestamp. The differential
//!   and kernel-bench hot paths therefore pay (sub-)nanoseconds per
//!   instrumented region.
//! * **Purely observational.** Spans never feed back into the
//!   computation; enabling tracing cannot change a single output bit at
//!   any thread count (pinned by the determinism suite).
//! * **Per-thread buffers.** Each thread owns a buffer registered once
//!   in a global registry; a finished span locks only its own thread's
//!   mutex (uncontended except during a drain), which is the
//!   "lock-free-ish" middle ground that needs no atomics in the span
//!   body itself.
//! * **Deterministic ordered log.** Every span draws a global sequence
//!   number at *enter*; [`drain`] merges all thread buffers and sorts by
//!   that sequence, so the exported order is a total order consistent
//!   with the enter order — stable under buffer-drain timing.
//!
//! # Exporters
//!
//! * [`render_tree`] — indented human-readable report for `--trace`;
//! * [`chrome::chrome_trace_json`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` and Perfetto, with executor telemetry joined in
//!   as metadata events ([`chrome::PoolMeta`]);
//! * [`chrome::validate_chrome_json`] — structural validator (required
//!   fields, strictly nested spans per thread) used by unit tests and
//!   the CI artifact job.
//!
//! The validator reads JSON with [`json`], the workspace's one minimal
//! JSON reader; the load-report and `BENCH_*.json` validators share it.

// Every public item must explain itself — the crate is the paper's
// reference implementation and doubles as its documentation.
#![warn(missing_docs)]

pub mod chrome;
pub mod json;

pub use chrome::{chrome_trace_json, validate_chrome_json, PoolMeta, WorkerMeta};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span label, e.g. `"alg41.level"`.
    pub label: String,
    /// Space-separated `key=value` arguments captured at enter.
    pub args: String,
    /// Small dense thread id assigned by the tracer (0 = first tracing
    /// thread), stable for the life of the thread.
    pub tid: u32,
    /// Name of the owning thread (`"main"`, `"spsep-worker-3"`, …).
    pub thread_name: String,
    /// Global enter-order sequence number; the drain sort key.
    pub seq: u64,
    /// Nanoseconds since the trace epoch at enter.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the owning thread at enter (0 = top level).
    pub depth: u32,
    /// Model ops attributed to this span by the instrumented region.
    pub ops: u64,
    /// Bytes (peak live, or moved — region-defined) attributed to it.
    pub bytes: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Lock that shrugs off poisoning: trace buffers hold plain data, and a
/// panicking instrumented region must not cascade into the tracer.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A registered per-thread buffer, shared between the owning thread
/// (pushes) and [`drain`] (takes).
struct ThreadBuf {
    name: String,
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

fn registry() -> &'static Mutex<Vec<ThreadBuf>> {
    static REGISTRY: OnceLock<Mutex<Vec<ThreadBuf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// This thread's handle into the registry.
struct Local {
    tid: u32,
    depth: u32,
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let events = Arc::new(Mutex::new(Vec::new()));
            let mut reg = lock(registry());
            let tid = reg.len() as u32;
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned);
            reg.push(ThreadBuf {
                name,
                events: Arc::clone(&events),
            });
            Local {
                tid,
                depth: 0,
                events,
            }
        });
        f(local)
    })
}

/// Turn tracing on. Also pins the trace epoch so the first span does not
/// pay the `OnceLock` initialization inside its timed region.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turn tracing off. In-flight spans on other threads still record.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans currently record. One relaxed load — this is the whole
/// disabled-path cost of [`span!`].
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take every finished span out of every thread buffer, sorted by the
/// global enter sequence (a deterministic total order per run).
pub fn drain() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let reg = lock(registry());
    for buf in reg.iter() {
        out.append(&mut lock(&buf.events));
    }
    drop(reg);
    out.sort_unstable_by_key(|e| e.seq);
    out
}

/// Discard all buffered spans (test isolation).
pub fn clear() {
    let reg = lock(registry());
    for buf in reg.iter() {
        lock(&buf.events).clear();
    }
}

/// An open span. Created inert (a no-op) when tracing is disabled;
/// otherwise records a [`TraceEvent`] on drop.
///
/// Spans are strictly scoped guards, so on any single thread they form a
/// properly nested forest — the invariant the Chrome exporter's
/// validator checks.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    label: String,
    args: String,
    seq: u64,
    start_ns: u64,
    depth: u32,
    ops: u64,
    bytes: u64,
}

impl Span {
    /// An inert span: nothing is recorded. What [`span!`] produces when
    /// tracing is disabled.
    #[inline]
    pub fn inert() -> Span {
        Span(None)
    }

    /// Open a recording span. Prefer [`span!`], which skips label/args
    /// construction entirely when tracing is disabled.
    pub fn enter_active(label: String, args: String) -> Span {
        let depth = with_local(|l| {
            let d = l.depth;
            l.depth += 1;
            d
        });
        Span(Some(ActiveSpan {
            label,
            args,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            start_ns: now_ns(),
            depth,
            ops: 0,
            bytes: 0,
        }))
    }

    /// Attribute `n` model ops to this span (no-op when inert).
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        if let Some(a) = &mut self.0 {
            a.ops += n;
        }
    }

    /// Attribute `n` bytes to this span (no-op when inert). Repeated
    /// calls keep the maximum — the common use is peak-live tracking.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(a) = &mut self.0 {
            a.bytes = a.bytes.max(n);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = now_ns().saturating_sub(a.start_ns);
        with_local(|l| {
            l.depth = l.depth.saturating_sub(1);
            lock(&l.events).push(TraceEvent {
                label: a.label,
                args: a.args,
                tid: l.tid,
                thread_name: String::new(), // filled at drain-export time
                seq: a.seq,
                start_ns: a.start_ns,
                dur_ns,
                depth: a.depth,
                ops: a.ops,
                bytes: a.bytes,
            });
        });
    }
}

/// Thread names by tid, for exporters (index = tid).
pub fn thread_names() -> Vec<String> {
    lock(registry()).iter().map(|b| b.name.clone()).collect()
}

/// Open a span when tracing is enabled; a no-op otherwise.
///
/// ```
/// let mut span = spsep_trace::span!("alg41.level", level = 3, width = 8);
/// // ... do the work ...
/// span.add_ops(1234);
/// drop(span);
/// ```
///
/// With tracing disabled the expansion is a single relaxed atomic load:
/// the label string and the argument formatting are never evaluated.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        if $crate::is_enabled() {
            $crate::Span::enter_active(::std::string::String::from($label), ::std::string::String::new())
        } else {
            $crate::Span::inert()
        }
    };
    ($label:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::is_enabled() {
            let mut __args = ::std::string::String::new();
            $(
                {
                    use ::std::fmt::Write as _;
                    let _ = ::core::write!(__args, "{}={} ", stringify!($k), $v);
                }
            )+
            let __args = __args.trim_end().to_owned();
            $crate::Span::enter_active(::std::string::String::from($label), __args)
        } else {
            $crate::Span::inert()
        }
    };
}

/// Render the drained events as an indented per-thread tree — the human
/// `--trace` report. Events must come from [`drain`] (sorted by `seq`).
pub fn render_tree(events: &[TraceEvent]) -> String {
    let names = thread_names();
    let mut out = String::new();
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = names.get(tid as usize).map_or("?", String::as_str);
        out.push_str(&format!("tid {tid} ({name})\n"));
        for e in events.iter().filter(|e| e.tid == tid) {
            let indent = "  ".repeat(e.depth as usize + 1);
            out.push_str(&format!(
                "{indent}{label}{sep}{args}  {ms:.3} ms",
                label = e.label,
                sep = if e.args.is_empty() { "" } else { " " },
                args = e.args,
                ms = e.dur_ns as f64 / 1e6,
            ));
            if e.ops > 0 {
                out.push_str(&format!("  ops={}", e.ops));
            }
            if e.bytes > 0 {
                out.push_str(&format!("  bytes={}", e.bytes));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing state is global; tests that enable/drain must not
    /// interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = serial();
        disable();
        clear();
        {
            let mut s = span!("quiet", x = 1);
            s.add_ops(10);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_nest_and_attribute_counts() {
        let _g = serial();
        enable();
        clear();
        {
            let mut outer = span!("outer", which = "o");
            {
                let mut inner = span!("inner");
                inner.add_ops(7);
                inner.add_bytes(100);
                inner.add_bytes(40); // max-keeps
            }
            outer.add_ops(3);
        }
        disable();
        let events = drain();
        assert_eq!(events.len(), 2);
        // Sorted by enter order: outer first.
        assert_eq!(events[0].label, "outer");
        assert_eq!(events[0].args, "which=o");
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[0].ops, 3);
        assert_eq!(events[1].label, "inner");
        assert_eq!(events[1].depth, 1);
        assert_eq!(events[1].ops, 7);
        assert_eq!(events[1].bytes, 100);
        // Inner is contained in outer.
        assert!(events[1].start_ns >= events[0].start_ns);
        assert!(events[1].start_ns + events[1].dur_ns <= events[0].start_ns + events[0].dur_ns);
        // Same thread, and the registry knows its name.
        assert_eq!(events[0].tid, events[1].tid);
        assert!(thread_names().len() > events[0].tid as usize);
    }

    #[test]
    fn drain_merges_threads_in_enter_order() {
        let _g = serial();
        enable();
        clear();
        let _outer = {
            let s = span!("main.first");
            drop(s);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let s = span!("helper");
                    drop(s);
                });
            });
            span!("main.second")
        };
        drop(_outer);
        disable();
        let events = drain();
        assert_eq!(events.len(), 3);
        let labels: Vec<&str> = events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["main.first", "helper", "main.second"]);
        // Two distinct tids participated.
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 2);
        // Sequence numbers strictly increase.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn tree_report_shows_nesting_and_counts() {
        let _g = serial();
        enable();
        clear();
        {
            let mut outer = span!("phase", width = 4);
            outer.add_ops(11);
            let _inner = span!("kernel");
        }
        disable();
        let tree = render_tree(&drain());
        assert!(tree.contains("phase width=4"), "{tree}");
        assert!(tree.contains("ops=11"), "{tree}");
        // The inner span is indented one level deeper than the outer.
        let outer_indent = tree
            .lines()
            .find(|l| l.contains("phase"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let inner_indent = tree
            .lines()
            .find(|l| l.contains("kernel"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        assert_eq!(inner_indent, outer_indent + 2, "{tree}");
    }
}
