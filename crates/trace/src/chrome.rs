//! Chrome trace-event JSON: exporter and structural validator.
//!
//! The export targets the [Trace Event Format] consumed by
//! `chrome://tracing` and Perfetto's legacy-JSON importer: one top-level
//! object with a `traceEvents` array of complete (`"ph": "X"`) events
//! carrying `name`/`ts`/`dur`/`pid`/`tid`, plus metadata (`"ph": "M"`)
//! events naming the process, each traced thread, and — joined in from
//! the executor — per-worker busy/task counters so span timelines can be
//! read against worker occupancy.
//!
//! Timestamps are microseconds (the format's unit), derived from the
//! tracer's integer-nanosecond clock; the validator therefore allows a
//! sub-nanosecond tolerance when it checks that spans on one thread are
//! strictly nested.
//!
//! The workspace has no serde, so the validator is a hand-rolled minimal
//! JSON parser (mirroring the `BENCH_*.json` validators): enough to
//! re-read what the exporter writes and to reject structural drift in
//! CI.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::TraceEvent;

/// Executor telemetry snapshot joined into the export, shaped so this
/// crate needs no dependency on the executor: the caller (CLI, bench)
/// converts its `rayon::PoolStats` into this.
#[derive(Clone, Debug, Default)]
pub struct PoolMeta {
    /// Per-worker counters, in worker order.
    pub workers: Vec<WorkerMeta>,
    /// `join` second-closures stolen back by their caller.
    pub steal_backs: u64,
    /// Stale batch handles reclaimed by their caller.
    pub reclaimed_handles: u64,
    /// Maximum injector queue depth observed.
    pub max_queue_depth: u64,
}

/// One worker's counters.
#[derive(Clone, Debug, Default)]
pub struct WorkerMeta {
    /// Worker thread name (`spsep-worker-3`).
    pub name: String,
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Tasks executed.
    pub tasks: u64,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Serialize drained [`TraceEvent`]s (plus optional executor telemetry)
/// as Chrome trace-event JSON.
///
/// Span `args` (`k=v` pairs), `ops` and `bytes` land in each event's
/// `args` object; worker telemetry becomes `worker_stats` metadata
/// events on dedicated tids `10000 + i` so Perfetto shows them as their
/// own (empty) tracks with inspectable args.
pub fn chrome_trace_json(events: &[TraceEvent], pool: Option<&PoolMeta>) -> String {
    let names = crate::thread_names();
    let mut s = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let push = |line: String, s: &mut String, first: &mut bool| {
        if !*first {
            s.push_str(",\n");
        }
        *first = false;
        s.push_str(&line);
    };
    push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"spsep\"}}"
            .into(),
        &mut s,
        &mut first,
    );
    let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let name = names.get(*tid as usize).map_or("?", String::as_str);
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ),
            &mut s,
            &mut first,
        );
    }
    for e in events {
        let mut args = format!("\"ops\": {}, \"bytes\": {}", e.ops, e.bytes);
        for kv in e.args.split(' ').filter(|kv| !kv.is_empty()) {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            args.push_str(&format!(", \"{}\": \"{}\"", escape(k), escape(v)));
        }
        push(
            format!(
                "{{\"name\": \"{}\", \"cat\": \"spsep\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{{args}}}}}",
                escape(&e.label),
                us(e.start_ns),
                us(e.dur_ns),
                e.tid,
            ),
            &mut s,
            &mut first,
        );
    }
    if let Some(pool) = pool {
        push(
            format!(
                "{{\"name\": \"pool_stats\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"steal_backs\": {}, \"reclaimed_handles\": {}, \
                 \"max_queue_depth\": {}, \"workers\": {}}}}}",
                pool.steal_backs,
                pool.reclaimed_handles,
                pool.max_queue_depth,
                pool.workers.len(),
            ),
            &mut s,
            &mut first,
        );
        for (i, w) in pool.workers.iter().enumerate() {
            let tid = 10_000 + i;
            push(
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    escape(&w.name)
                ),
                &mut s,
                &mut first,
            );
            push(
                format!(
                    "{{\"name\": \"worker_stats\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                     \"args\": {{\"busy_ns\": {}, \"tasks\": {}}}}}",
                    w.busy_ns, w.tasks,
                ),
                &mut s,
                &mut first,
            );
        }
    }
    s.push_str("\n]\n}\n");
    s
}

// ---------------------------------------------------------------------
// Minimal JSON reader — enough to validate what the exporter writes.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(hex);
                            self.i += 4;
                        }
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c as char);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

fn field<'j>(obj: &'j [(String, Json)], key: &str) -> Result<&'j Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

/// Nesting tolerance in microseconds: timestamps are exact integer
/// nanoseconds rendered with three decimals, so anything beyond one
/// nanosecond of slack is a real violation.
const NEST_EPS_US: f64 = 2e-3;

/// Validate a Chrome trace-event JSON document structurally. Returns the
/// number of `"X"` (complete span) events.
///
/// Checks:
/// * top level is an object with a non-empty `traceEvents` array;
/// * every event has a non-empty string `name`, a known `ph`
///   (`X`/`M`/`C`/`B`/`E`/`I`), and numeric `pid`/`tid`;
/// * `X` events carry finite `ts ≥ 0` and `dur ≥ 0`;
/// * per `tid`, `X` events are **strictly nested**: any two spans are
///   disjoint or one contains the other (the guard-scoped span model).
pub fn validate_chrome_json(json: &str) -> Result<usize, String> {
    let Json::Obj(top) = parse_json(json)? else {
        return Err("top level must be an object".into());
    };
    let Json::Arr(events) = field(&top, "traceEvents")? else {
        return Err("`traceEvents` must be an array".into());
    };
    if events.is_empty() {
        return Err("`traceEvents` is empty".into());
    }
    // (tid, ts, dur) of every complete event.
    let mut spans: Vec<(i64, f64, f64)> = Vec::new();
    for (idx, e) in events.iter().enumerate() {
        let Json::Obj(e) = e else {
            return Err(format!("event {idx} is not an object"));
        };
        let ctx = |msg: &str| format!("event {idx}: {msg}");
        match field(e, "name").map_err(|m| ctx(&m))? {
            Json::Str(s) if !s.is_empty() => {}
            _ => return Err(ctx("`name` must be a non-empty string")),
        }
        let ph = match field(e, "ph").map_err(|m| ctx(&m))? {
            Json::Str(s) if ["X", "M", "C", "B", "E", "I"].contains(&s.as_str()) => s.clone(),
            other => return Err(ctx(&format!("unknown `ph` {other:?}"))),
        };
        let num = |key: &str| -> Result<f64, String> {
            match field(e, key).map_err(|m| ctx(&m))? {
                Json::Num(v) if v.is_finite() => Ok(*v),
                _ => Err(ctx(&format!("`{key}` must be a finite number"))),
            }
        };
        let tid = num("tid")?;
        num("pid")?;
        if ph == "X" {
            let ts = num("ts")?;
            let dur = num("dur")?;
            if ts < 0.0 || dur < 0.0 {
                return Err(ctx("`ts` and `dur` must be non-negative"));
            }
            spans.push((tid as i64, ts, dur));
        }
    }
    // Strict nesting per tid: sweep spans by (start, longest-first); a
    // span must fit inside whatever enclosing span is still open.
    spans.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(b.2.total_cmp(&a.2))
    });
    let mut open: Vec<f64> = Vec::new(); // stack of end timestamps
    let mut cur_tid = i64::MIN;
    for &(tid, ts, dur) in &spans {
        if tid != cur_tid {
            open.clear();
            cur_tid = tid;
        }
        while open.last().is_some_and(|&end| end <= ts + NEST_EPS_US) {
            open.pop();
        }
        if let Some(&end) = open.last() {
            if ts + dur > end + NEST_EPS_US {
                return Err(format!(
                    "tid {tid}: span [{ts}, {}] overlaps its enclosing span ending at {end} \
                     without being nested",
                    ts + dur
                ));
            }
        }
        open.push(ts + dur);
    }
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &str, tid: u32, start_ns: u64, dur_ns: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            label: label.into(),
            args: "k=v".into(),
            tid,
            thread_name: String::new(),
            seq: start_ns,
            start_ns,
            dur_ns,
            depth,
            ops: 5,
            bytes: 9,
        }
    }

    #[test]
    fn exporter_output_validates() {
        let events = vec![
            ev("outer", 0, 1000, 10_000, 0),
            ev("inner", 0, 2000, 3_000, 1),
            ev("other-thread", 3, 1500, 500, 0),
        ];
        let pool = PoolMeta {
            workers: vec![WorkerMeta {
                name: "spsep-worker-0".into(),
                busy_ns: 123,
                tasks: 4,
            }],
            steal_backs: 2,
            reclaimed_handles: 1,
            max_queue_depth: 7,
        };
        let json = chrome_trace_json(&events, Some(&pool));
        assert_eq!(validate_chrome_json(&json), Ok(3));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker_stats\""));
        assert!(json.contains("\"steal_backs\": 2"));
        assert!(json.contains("\"k\": \"v\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("[]").is_err());
        assert!(validate_chrome_json("{\"traceEvents\": []}").is_err());
        // Missing ts on an X event.
        let bad = "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"X\", \
                    \"pid\": 1, \"tid\": 0, \"dur\": 1}]}";
        assert!(validate_chrome_json(bad).is_err());
        // Unknown phase.
        let bad = "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"Q\", \
                    \"pid\": 1, \"tid\": 0}]}";
        assert!(validate_chrome_json(bad).is_err());
        // Empty name.
        let bad = "{\"traceEvents\": [{\"name\": \"\", \"ph\": \"M\", \
                    \"pid\": 1, \"tid\": 0}]}";
        assert!(validate_chrome_json(bad).is_err());
        // Truncated document.
        let json = chrome_trace_json(&[ev("x", 0, 0, 10, 0)], None);
        assert!(validate_chrome_json(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn validator_rejects_overlapping_non_nested_spans() {
        // [0, 10) and [5, 15) on one tid: overlap without containment.
        let bad = "{\"traceEvents\": [\
            {\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, \"dur\": 10, \"pid\": 1, \"tid\": 0},\
            {\"name\": \"b\", \"ph\": \"X\", \"ts\": 5, \"dur\": 10, \"pid\": 1, \"tid\": 0}]}";
        assert!(validate_chrome_json(bad).is_err());
        // The same intervals on different tids are fine.
        let ok = "{\"traceEvents\": [\
            {\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, \"dur\": 10, \"pid\": 1, \"tid\": 0},\
            {\"name\": \"b\", \"ph\": \"X\", \"ts\": 5, \"dur\": 10, \"pid\": 1, \"tid\": 1}]}";
        assert_eq!(validate_chrome_json(ok), Ok(2));
        // Proper nesting on one tid is fine.
        let ok = "{\"traceEvents\": [\
            {\"name\": \"a\", \"ph\": \"X\", \"ts\": 0, \"dur\": 10, \"pid\": 1, \"tid\": 0},\
            {\"name\": \"b\", \"ph\": \"X\", \"ts\": 2, \"dur\": 3, \"pid\": 1, \"tid\": 0}]}";
        assert_eq!(validate_chrome_json(ok), Ok(2));
    }

    #[test]
    fn labels_are_escaped() {
        let events = vec![ev("with \"quotes\" and \\slash", 0, 0, 5, 0)];
        let json = chrome_trace_json(&events, None);
        assert_eq!(validate_chrome_json(&json), Ok(1));
    }
}
