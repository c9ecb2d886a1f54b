//! The always-on flight recorder: bounded per-worker ring buffers of
//! per-request records, dumped when a request errors or runs slow.
//!
//! Every served request appends one fixed-size record (opcode, FNV
//! digest of its arguments, queue-wait, service time, cache hits,
//! worker id, error label) to its worker's ring. Rings are bounded —
//! old records fall off the back — so the recorder's footprint is
//! `workers × ring` records regardless of uptime. When a request
//! errors, or its service time exceeds the configured threshold, the
//! recorder freezes the *surrounding window*: every record currently
//! held in every ring, sorted by the global admission sequence number,
//! so the dump reads as one deterministically ordered event log of
//! what the daemon was doing around the incident. Retained dumps are
//! themselves bounded (oldest dropped first).
//!
//! Each worker only ever locks its own ring on the hot path, and ring
//! mutexes are acquired in index order during a dump, so the recorder
//! cannot deadlock and adds one uncontended lock to the request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use spsep_trace::chrome::chrome_trace_json;
use spsep_trace::TraceEvent;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a 64-bit digest, used to fingerprint request arguments without
/// retaining them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recorder sizing and trigger configuration.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Records retained per worker ring.
    pub ring: usize,
    /// Service-time threshold in nanoseconds; a request at or above it
    /// triggers a dump. `u64::MAX` disables the slow trigger.
    pub slow_ns: u64,
    /// Retained dumps (oldest evicted first).
    pub max_dumps: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            ring: 128,
            slow_ns: u64::MAX,
            max_dumps: 4,
        }
    }
}

/// One per-request record.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// Global admission sequence number (the dump sort key).
    pub seq: u64,
    /// Worker index that served the request.
    pub worker: u32,
    /// Wire opcode label (`"point"`, `"source"`, …).
    pub opcode: &'static str,
    /// FNV-1a digest of the request arguments.
    pub args_digest: u64,
    /// Nanoseconds since the recorder epoch at service start.
    pub start_ns: u64,
    /// Nanoseconds spent queued before a worker picked the frame up.
    pub queue_wait_ns: u64,
    /// Nanoseconds of service (decode → answer → encode).
    pub service_ns: u64,
    /// Oracle row-cache hits observed during the request.
    pub cache_hits: u64,
    /// Error label if the request failed (`"parse"`, `"invalid_query"`, …).
    pub error: Option<String>,
}

/// Why a dump was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpReason {
    /// The trigger request returned a wire error.
    Error,
    /// The trigger request's service time crossed the threshold.
    Slow,
}

/// A frozen window: every ring's contents at trigger time, seq-sorted.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Sequence number of the request that tripped the dump.
    pub trigger_seq: u64,
    /// Trigger classification.
    pub reason: DumpReason,
    /// The window, sorted by `seq` (contains the trigger record).
    pub records: Vec<RequestRecord>,
}

/// The recorder. One per daemon; shared behind `Arc`.
pub struct FlightRecorder {
    cfg: FlightConfig,
    epoch: Instant,
    seq: AtomicU64,
    rings: Vec<Mutex<Vec<RequestRecord>>>,
    dumps: Mutex<Vec<FlightDump>>,
    dumps_total: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with `workers` rings.
    pub fn new(workers: usize, cfg: FlightConfig) -> Self {
        FlightRecorder {
            cfg,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            rings: (0..workers.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            dumps: Mutex::new(Vec::new()),
            dumps_total: AtomicU64::new(0),
        }
    }

    /// Next global sequence number (call at admission).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The configured slow threshold in nanoseconds.
    pub fn slow_ns(&self) -> u64 {
        self.cfg.slow_ns
    }

    /// Append a record to its worker's ring; if it triggers (error, or
    /// `service_ns ≥ slow_ns`), freeze and retain a dump. Returns the
    /// reason when a dump was taken.
    pub fn record(&self, rec: RequestRecord) -> Option<DumpReason> {
        let reason = if rec.error.is_some() {
            Some(DumpReason::Error)
        } else if rec.service_ns >= self.cfg.slow_ns {
            Some(DumpReason::Slow)
        } else {
            None
        };
        let trigger_seq = rec.seq;
        let ring_idx = (rec.worker as usize) % self.rings.len();
        {
            let mut ring = lock(&self.rings[ring_idx]);
            ring.push(rec);
            let len = ring.len();
            if len > self.cfg.ring {
                ring.drain(..len - self.cfg.ring);
            }
        }
        if let Some(reason) = reason {
            let mut records = Vec::new();
            for ring in &self.rings {
                records.extend(lock(ring).iter().cloned());
            }
            records.sort_by_key(|r| r.seq);
            let dump = FlightDump {
                trigger_seq,
                reason,
                records,
            };
            let mut dumps = lock(&self.dumps);
            dumps.push(dump);
            let len = dumps.len();
            if len > self.cfg.max_dumps {
                dumps.drain(..len - self.cfg.max_dumps);
            }
            self.dumps_total.fetch_add(1, Ordering::Relaxed);
            return Some(reason);
        }
        None
    }

    /// Dumps taken over the recorder's lifetime (including evicted ones).
    pub fn dumps_total(&self) -> u64 {
        self.dumps_total.load(Ordering::Relaxed)
    }

    /// The retained dumps, oldest first.
    pub fn dumps(&self) -> Vec<FlightDump> {
        lock(&self.dumps).clone()
    }
}

/// Render a dump as a deterministic plain-text event log: one header
/// line, then one line per record in seq order, the trigger marked.
pub fn render_dump(dump: &FlightDump) -> String {
    let reason = match dump.reason {
        DumpReason::Error => "error",
        DumpReason::Slow => "slow",
    };
    let mut out = format!(
        "flight dump: trigger seq={} reason={} window={} records\n",
        dump.trigger_seq,
        reason,
        dump.records.len()
    );
    for r in &dump.records {
        let marker = if r.seq == dump.trigger_seq { ">" } else { " " };
        let err = r.error.as_deref().unwrap_or("-");
        out.push_str(&format!(
            "{marker} seq={:<8} worker={} op={:<8} args={:016x} wait_ns={:<10} service_ns={:<12} cache_hits={:<6} err={err}\n",
            r.seq, r.worker, r.opcode, r.args_digest, r.queue_wait_ns, r.service_ns, r.cache_hits
        ));
    }
    out
}

/// Export a dump as Chrome trace-event JSON via the existing
/// `spsep-trace` exporter: one complete event per record, on a track
/// per worker.
pub fn dump_chrome_json(dump: &FlightDump) -> String {
    let events: Vec<TraceEvent> = dump
        .records
        .iter()
        .map(|r| TraceEvent {
            label: format!("serve.{}", r.opcode),
            args: format!(
                "seq={} args={:016x} wait_ns={} cache_hits={} err={}",
                r.seq,
                r.args_digest,
                r.queue_wait_ns,
                r.cache_hits,
                r.error.as_deref().unwrap_or("-")
            ),
            tid: r.worker,
            thread_name: format!("serve-worker-{}", r.worker),
            seq: r.seq,
            start_ns: r.start_ns,
            dur_ns: r.service_ns.max(1),
            depth: 0,
            ops: 0,
            bytes: 0,
        })
        .collect();
    chrome_trace_json(&events, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, worker: u32, service_ns: u64, error: Option<&str>) -> RequestRecord {
        RequestRecord {
            seq,
            worker,
            opcode: "point",
            args_digest: fnv1a(&seq.to_le_bytes()),
            start_ns: seq * 1000,
            queue_wait_ns: 10,
            service_ns,
            cache_hits: 1,
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn ring_is_bounded() {
        let fr = FlightRecorder::new(
            1,
            FlightConfig {
                ring: 8,
                ..FlightConfig::default()
            },
        );
        for i in 0..100 {
            assert_eq!(fr.record(rec(i, 0, 100, None)), None);
        }
        // Force a dump to observe the window size.
        fr.record(rec(100, 0, 100, Some("internal")));
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].records.len(), 8);
        assert_eq!(dumps[0].records.last().map(|r| r.seq), Some(100));
    }

    #[test]
    fn slow_request_triggers_dump_containing_it() {
        let fr = FlightRecorder::new(
            2,
            FlightConfig {
                ring: 16,
                slow_ns: 1_000_000,
                max_dumps: 4,
            },
        );
        for i in 0..10 {
            fr.record(rec(i, (i % 2) as u32, 1000, None));
        }
        assert_eq!(fr.dumps_total(), 0);
        assert_eq!(
            fr.record(rec(10, 1, 5_000_000, None)),
            Some(DumpReason::Slow)
        );
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1);
        let d = &dumps[0];
        assert_eq!(d.reason, DumpReason::Slow);
        assert_eq!(d.trigger_seq, 10);
        assert!(d
            .records
            .iter()
            .any(|r| r.seq == 10 && r.service_ns == 5_000_000));
        // Window is seq-sorted and spans both workers' rings.
        assert!(d.records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(d.records.len(), 11);
    }

    #[test]
    fn erroring_request_triggers_dump() {
        let fr = FlightRecorder::new(1, FlightConfig::default());
        fr.record(rec(0, 0, 100, None));
        assert_eq!(
            fr.record(rec(1, 0, 100, Some("invalid_query"))),
            Some(DumpReason::Error)
        );
        let d = &fr.dumps()[0];
        assert_eq!(d.reason, DumpReason::Error);
        assert_eq!(
            d.records.last().and_then(|r| r.error.as_deref()),
            Some("invalid_query")
        );
    }

    #[test]
    fn retained_dumps_are_bounded() {
        let fr = FlightRecorder::new(
            1,
            FlightConfig {
                ring: 4,
                slow_ns: u64::MAX,
                max_dumps: 2,
            },
        );
        for i in 0..5 {
            fr.record(rec(i, 0, 1, Some("internal")));
        }
        assert_eq!(fr.dumps_total(), 5);
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[1].trigger_seq, 4);
    }

    #[test]
    fn render_is_deterministic_and_marks_trigger() {
        let fr = FlightRecorder::new(1, FlightConfig::default());
        fr.record(rec(7, 0, 9, None));
        fr.record(rec(8, 0, 9, Some("parse")));
        let d = &fr.dumps()[0];
        let text = render_dump(d);
        assert_eq!(text, render_dump(d));
        assert!(text.contains("trigger seq=8 reason=error"));
        assert!(text.lines().any(|l| l.starts_with("> seq=8")));
        assert!(text.lines().any(|l| l.starts_with("  seq=7")));
    }

    #[test]
    fn chrome_export_validates() {
        let fr = FlightRecorder::new(2, FlightConfig::default());
        fr.record(rec(0, 0, 500, None));
        fr.record(rec(1, 1, 700, None));
        fr.record(rec(2, 0, 900, Some("internal")));
        let d = &fr.dumps()[0];
        let json = dump_chrome_json(d);
        spsep_trace::chrome::validate_chrome_json(&json).unwrap();
    }
}
