//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration happens once at daemon start (it takes a mutex);
//! after that every handle is a plain `Arc` whose hot-path operations
//! are single relaxed atomic instructions — the request path never
//! touches the registry lock. Reads (the Prometheus exposition, the
//! load harness's scrape delta) walk the registered entries in
//! name/label order, so two scrapes of a quiesced daemon render
//! byte-identical text regardless of worker count or registration
//! interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::hist::{HistSnapshot, Histogram};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned registry lock only means a panic elsewhere; the data
    // (Arc handles) is still sound to read.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing `u64` counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (stored as raw bits in an `AtomicU64`).
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The metric payload of a registry entry.
#[derive(Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Settable gauge.
    Gauge(Arc<Gauge>),
    /// Sharded latency histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric: name, fixed label set, help text, payload.
#[derive(Clone)]
pub struct Entry {
    /// Metric family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Label pairs fixed at registration, already sorted by key.
    pub labels: Vec<(String, String)>,
    /// `# HELP` text (first registration of the name wins).
    pub help: String,
    /// The metric itself.
    pub metric: Metric,
}

/// An immutable point-in-time view of one entry, histograms merged.
pub struct SampledEntry {
    /// Metric family name.
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Sampled value.
    pub value: SampledValue,
}

/// A sampled metric value.
pub enum SampledValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Merged histogram snapshot.
    Histogram(HistSnapshot),
}

/// The registry. Cheap to share (`Arc<Registry>`), cheap to read.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

fn norm_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, labels: &[(&str, &str)], help: &str, make: Metric) -> Metric {
        let labels = norm_labels(labels);
        let mut entries = lock(&self.entries);
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            if e.metric.kind() == make.kind() {
                return e.metric.clone();
            }
            // Kind clash: hand back the detached handle rather than
            // panicking in a long-lived daemon; it records into a
            // metric nothing exports, which the tests treat as a bug
            // caught by the validator (missing sample), not a crash.
            return make;
        }
        entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            metric: make.clone(),
        });
        make
    }

    /// Register (or fetch) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Register (or fetch) a counter with a fixed label set.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.register(
            name,
            labels,
            help,
            Metric::Counter(Arc::new(Counter::default())),
        ) {
            Metric::Counter(c) => c,
            _ => Arc::new(Counter::default()),
        }
    }

    /// Register (or fetch) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// Register (or fetch) a gauge with a fixed label set.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.register(
            name,
            labels,
            help,
            Metric::Gauge(Arc::new(Gauge::default())),
        ) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::default()),
        }
    }

    /// Register (or fetch) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// Register (or fetch) a histogram with a fixed label set.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        match self.register(
            name,
            labels,
            help,
            Metric::Histogram(Arc::new(Histogram::new())),
        ) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Sample every registered metric, merged and sorted by
    /// `(name, labels)` — the deterministic read order the exposition
    /// and the tests rely on.
    pub fn sample(&self) -> Vec<SampledEntry> {
        let entries: Vec<Entry> = lock(&self.entries).clone();
        let mut out: Vec<SampledEntry> = entries
            .into_iter()
            .map(|e| {
                let value = match &e.metric {
                    Metric::Counter(c) => SampledValue::Counter(c.get()),
                    Metric::Gauge(g) => SampledValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampledValue::Histogram(h.snapshot()),
                };
                SampledEntry {
                    name: e.name,
                    labels: e.labels,
                    help: e.help,
                    value,
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x_total", "help");
        let b = r.counter("x_total", "ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.sample().len(), 1);
    }

    #[test]
    fn labels_distinguish_entries_and_sort() {
        let r = Registry::new();
        r.counter_with("e_total", &[("kind", "b")], "h").inc();
        r.counter_with("e_total", &[("kind", "a")], "h").add(5);
        r.gauge("a_gauge", "h").set(1.5);
        let s = r.sample();
        let ids: Vec<String> = s
            .iter()
            .map(|e| format!("{}{:?}", e.name, e.labels))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn kind_clash_yields_detached_handle_not_panic() {
        let r = Registry::new();
        let _c = r.counter("x", "h");
        let g = r.gauge("x", "h");
        g.set(7.0);
        // Only the original counter is registered.
        assert_eq!(r.sample().len(), 1);
        assert!(matches!(r.sample()[0].value, SampledValue::Counter(0)));
    }
}
