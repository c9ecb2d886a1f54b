//! The wire protocol of the query daemon: strict length-prefixed frames.
//!
//! Hand-rolled on [`spsep_graph::bytes`] (the workspace vendors no
//! external crates). Every message is one **frame**:
//!
//! ```text
//! u32 LE payload length (1 ..= max_frame)  ·  payload bytes
//! payload = u8 opcode · opcode-specific body (little-endian fields)
//! ```
//!
//! The codec is strict in both directions:
//!
//! * [`read_frame`] distinguishes a clean close at a frame boundary
//!   ([`FrameIn::Eof`]), an idle keep-alive expiry
//!   ([`FrameIn::IdleTimeout`]), and *everything else* — a zero or
//!   oversized length prefix, a connection that dies or stalls
//!   mid-frame — which surfaces as a typed [`SpsepError`], never a
//!   panic and never an unbounded blocking read;
//! * [`decode_request`] / [`decode_response`] run on a bounds-checked
//!   [`ByteReader`] and require the payload to be *exhausted* — a
//!   well-framed payload with trailing garbage is a parse error, not a
//!   silently tolerated extension.
//!
//! Malformed input therefore always lands in one of two buckets the
//! daemon can answer deterministically: a typed
//! [`Response::Error`] frame (when the framing itself is still intact
//! enough to reply) or a clean close. The fault-injection catalog
//! (`spsep_testkit::wire_corruptions`) pins this down entry by entry.

use spsep_graph::bytes::{ByteReader, ByteWriter};
use spsep_graph::SpsepError;
use std::io::{ErrorKind, Read, Write};

/// Default upper bound on a frame payload, in bytes (1 MiB).
///
/// Large enough for a full distance table of a 130k-vertex graph or a
/// ~65k-pair batch; small enough that a hostile length prefix cannot
/// make the daemon allocate unbounded memory.
pub const MAX_FRAME: u32 = 1 << 20;

/// Request opcodes (client → daemon).
mod req_op {
    pub const PING: u8 = 0x01;
    pub const INFO: u8 = 0x02;
    pub const POINT: u8 = 0x03;
    pub const SOURCE: u8 = 0x04;
    pub const BATCH: u8 = 0x05;
    pub const STATS: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const METRICS: u8 = 0x08;
}

/// Response opcodes (daemon → client).
mod resp_op {
    pub const PONG: u8 = 0x41;
    pub const INFO: u8 = 0x42;
    pub const DIST: u8 = 0x43;
    pub const TABLE: u8 = 0x44;
    pub const BATCH: u8 = 0x45;
    pub const STATS: u8 = 0x46;
    pub const SHUTDOWN_ACK: u8 = 0x47;
    pub const METRICS: u8 = 0x48;
    pub const ERROR: u8 = 0x7f;
}

/// A query-daemon request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Instance metadata (vertex/edge/shortcut counts, algorithm).
    Info,
    /// Point-to-point distance.
    Point {
        /// Source vertex (0-based).
        source: u64,
        /// Target vertex (0-based).
        target: u64,
    },
    /// Full single-source distance table.
    Source {
        /// Source vertex (0-based).
        source: u64,
    },
    /// Bulk point-to-point distances, answered in input order.
    Batch {
        /// `(source, target)` pairs.
        pairs: Vec<(u64, u64)>,
    },
    /// Serving statistics snapshot (admission, latency, cache shards).
    Stats,
    /// Prometheus text exposition of the daemon's telemetry registry —
    /// the wire-native twin of the plain-HTTP `GET /metrics` side
    /// port.
    Metrics,
    /// Ask the daemon to drain in-flight requests and exit.
    Shutdown,
}

/// Typed wire error codes — the taxonomy every malformed or refused
/// request is answered with.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireError {
    /// Malformed frame or payload (bad opcode, truncation, trailing
    /// garbage, oversized length prefix).
    Parse = 1,
    /// Structurally valid request the oracle rejected (e.g. vertex out
    /// of range).
    InvalidQuery = 2,
    /// Admission control shed this connection: the pending-connection
    /// queue is full.
    Overloaded = 3,
    /// The daemon is draining for shutdown and refuses new work.
    ShuttingDown = 4,
    /// An unexpected server-side failure (e.g. a caught worker panic).
    Internal = 5,
}

impl WireError {
    /// Decode a wire error code.
    pub fn from_code(code: u8) -> Option<WireError> {
        match code {
            1 => Some(WireError::Parse),
            2 => Some(WireError::InvalidQuery),
            3 => Some(WireError::Overloaded),
            4 => Some(WireError::ShuttingDown),
            5 => Some(WireError::Internal),
            _ => None,
        }
    }

    /// Stable lowercase label (used in reports and the error taxonomy).
    pub fn label(self) -> &'static str {
        match self {
            WireError::Parse => "parse",
            WireError::InvalidQuery => "invalid_query",
            WireError::Overloaded => "overloaded",
            WireError::ShuttingDown => "shutting_down",
            WireError::Internal => "internal",
        }
    }
}

/// Serving statistics snapshot carried by [`Response::Stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireStats {
    /// Connections accepted (admitted to the queue).
    pub accepted: u64,
    /// Connections shed by admission control (answered `Overloaded`).
    pub shed: u64,
    /// Requests answered successfully, counted before the reply is
    /// written (a reply whose write then fails still counts here and
    /// in `io_errors`).
    pub served: u64,
    /// Error responses sent, by taxonomy code (parse, invalid_query,
    /// overloaded, shutting_down, internal — in that order).
    pub errors: [u64; 5],
    /// Connections dropped on an I/O failure or deadline expiry.
    pub io_errors: u64,
    /// Queue-wait percentiles in microseconds (p50, p99, p999),
    /// derived from the daemon's fixed-footprint telemetry histograms.
    pub queue_wait_us: [f64; 3],
    /// Service-time percentiles in microseconds (p50, p99, p999),
    /// derived from the daemon's fixed-footprint telemetry histograms.
    pub service_us: [f64; 3],
    /// Row-cache hits across all shards.
    pub cache_hits: u64,
    /// Row-cache misses across all shards.
    pub cache_misses: u64,
    /// Row-cache evictions across all shards.
    pub cache_evictions: u64,
    /// Number of cache shards.
    pub cache_shards: u32,
    /// Worker threads serving requests.
    pub workers: u32,
}

/// A query-daemon response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Info`].
    Info {
        /// Vertices of the served instance.
        n: u64,
        /// Original edges.
        m: u64,
        /// Shortcut edges in `E⁺`.
        eplus: u64,
        /// Algorithm code (41, 43, or 44).
        algo: u8,
    },
    /// Answer to [`Request::Point`].
    Dist(f64),
    /// Answer to [`Request::Source`] — the full distance table.
    Table(Vec<f64>),
    /// Answer to [`Request::Batch`] — one distance per input pair.
    Batch(Vec<f64>),
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
    /// Answer to [`Request::Metrics`] — the Prometheus text exposition
    /// (UTF-8; clamped by the frame bound like every response).
    Metrics(String),
    /// Answer to [`Request::Shutdown`]; the daemon drains and exits
    /// after sending this.
    ShutdownAck,
    /// A typed error. The connection stays usable after payload-level
    /// parse errors and query rejections; framing-level violations are
    /// answered best-effort and then closed.
    Error {
        /// Taxonomy code.
        code: WireError,
        /// Human-readable description.
        message: String,
    },
}

/// Wrap a payload in a length-prefixed frame.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Encode a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match req {
        Request::Ping => w.u8(req_op::PING),
        Request::Info => w.u8(req_op::INFO),
        Request::Point { source, target } => {
            w.u8(req_op::POINT);
            w.u64(*source);
            w.u64(*target);
        }
        Request::Source { source } => {
            w.u8(req_op::SOURCE);
            w.u64(*source);
        }
        Request::Batch { pairs } => {
            w.u8(req_op::BATCH);
            w.u32(pairs.len() as u32);
            for &(u, v) in pairs {
                w.u64(u);
                w.u64(v);
            }
        }
        Request::Stats => w.u8(req_op::STATS),
        Request::Metrics => w.u8(req_op::METRICS),
        Request::Shutdown => w.u8(req_op::SHUTDOWN),
    }
    frame(w.into_inner())
}

/// Decode a request payload (the frame's length prefix already
/// stripped). Strict: unknown opcodes, truncated fields, overrunning
/// counts, and trailing bytes are all typed [`SpsepError::Parse`]
/// errors.
pub fn decode_request(payload: &[u8]) -> Result<Request, SpsepError> {
    let mut r = ByteReader::new(payload);
    let op = r.u8("request opcode")?;
    let req = match op {
        req_op::PING => Request::Ping,
        req_op::INFO => Request::Info,
        req_op::POINT => Request::Point {
            source: r.u64("point source")?,
            target: r.u64("point target")?,
        },
        req_op::SOURCE => Request::Source {
            source: r.u64("source vertex")?,
        },
        req_op::BATCH => {
            let count = r.u32("batch pair count")? as usize;
            if count.saturating_mul(16) > r.remaining() {
                return Err(SpsepError::parse(format!(
                    "batch declares {count} pairs but only {} payload bytes remain",
                    r.remaining()
                )));
            }
            let mut pairs = Vec::with_capacity(count);
            for i in 0..count {
                let u = r.u64(&format!("batch pair {i} source"))?;
                let v = r.u64(&format!("batch pair {i} target"))?;
                pairs.push((u, v));
            }
            Request::Batch { pairs }
        }
        req_op::STATS => Request::Stats,
        req_op::METRICS => Request::Metrics,
        req_op::SHUTDOWN => Request::Shutdown,
        other => {
            return Err(SpsepError::parse(format!(
                "unknown request opcode 0x{other:02x}"
            )))
        }
    };
    r.expect_exhausted("request payload")?;
    Ok(req)
}

/// Encode a response as a complete frame (length prefix included).
///
/// # Errors
///
/// [`SpsepError::Parse`] when the response would not fit in `max_frame`
/// bytes (e.g. a distance table of a graph too large for the protocol)
/// — the daemon turns this into a typed `InvalidQuery` wire error
/// instead of sending a frame the peer must reject.
pub fn encode_response(resp: &Response, max_frame: u32) -> Result<Vec<u8>, SpsepError> {
    let mut w = ByteWriter::new();
    match resp {
        Response::Pong => w.u8(resp_op::PONG),
        Response::Info { n, m, eplus, algo } => {
            w.u8(resp_op::INFO);
            w.u64(*n);
            w.u64(*m);
            w.u64(*eplus);
            w.u8(*algo);
        }
        Response::Dist(d) => {
            w.u8(resp_op::DIST);
            w.f64(*d);
        }
        Response::Table(row) => {
            w.u8(resp_op::TABLE);
            w.u64(row.len() as u64);
            for &d in row {
                w.f64(d);
            }
        }
        Response::Batch(dists) => {
            w.u8(resp_op::BATCH);
            w.u32(dists.len() as u32);
            for &d in dists {
                w.f64(d);
            }
        }
        Response::Stats(s) => {
            w.u8(resp_op::STATS);
            w.u64(s.accepted);
            w.u64(s.shed);
            w.u64(s.served);
            for e in s.errors {
                w.u64(e);
            }
            w.u64(s.io_errors);
            for q in s.queue_wait_us {
                w.f64(q);
            }
            for q in s.service_us {
                w.f64(q);
            }
            w.u64(s.cache_hits);
            w.u64(s.cache_misses);
            w.u64(s.cache_evictions);
            w.u32(s.cache_shards);
            w.u32(s.workers);
        }
        Response::Metrics(text) => {
            w.u8(resp_op::METRICS);
            let bytes = text.as_bytes();
            w.u32(bytes.len() as u32);
            w.bytes(bytes);
        }
        Response::ShutdownAck => w.u8(resp_op::SHUTDOWN_ACK),
        Response::Error { code, message } => {
            w.u8(resp_op::ERROR);
            w.u8(*code as u8);
            let bytes = message.as_bytes();
            // Clamp hostile/runaway messages so the error itself always
            // frames.
            let len = bytes.len().min(4096);
            w.u32(len as u32);
            w.bytes(&bytes[..len]);
        }
    }
    let payload = w.into_inner();
    if payload.len() > max_frame as usize {
        return Err(SpsepError::parse(format!(
            "response of {} bytes exceeds the {max_frame}-byte frame bound",
            payload.len()
        )));
    }
    Ok(frame(payload))
}

/// Decode a response payload (the frame's length prefix already
/// stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, SpsepError> {
    let mut r = ByteReader::new(payload);
    let op = r.u8("response opcode")?;
    let resp = match op {
        resp_op::PONG => Response::Pong,
        resp_op::INFO => Response::Info {
            n: r.u64("info n")?,
            m: r.u64("info m")?,
            eplus: r.u64("info eplus")?,
            algo: r.u8("info algo")?,
        },
        resp_op::DIST => Response::Dist(r.f64("distance")?),
        resp_op::TABLE => {
            let count = r.count("table length", 8)?;
            let mut row = Vec::with_capacity(count);
            for _ in 0..count {
                row.push(r.f64("table entry")?);
            }
            Response::Table(row)
        }
        resp_op::BATCH => {
            let count = r.u32("batch answer count")? as usize;
            if count.saturating_mul(8) > r.remaining() {
                return Err(SpsepError::parse(format!(
                    "batch answer declares {count} entries but only {} bytes remain",
                    r.remaining()
                )));
            }
            let mut dists = Vec::with_capacity(count);
            for _ in 0..count {
                dists.push(r.f64("batch answer")?);
            }
            Response::Batch(dists)
        }
        resp_op::STATS => {
            let mut s = WireStats {
                accepted: r.u64("stats accepted")?,
                shed: r.u64("stats shed")?,
                served: r.u64("stats served")?,
                ..WireStats::default()
            };
            for e in &mut s.errors {
                *e = r.u64("stats error count")?;
            }
            s.io_errors = r.u64("stats io errors")?;
            for q in &mut s.queue_wait_us {
                *q = r.f64("stats queue wait")?;
            }
            for q in &mut s.service_us {
                *q = r.f64("stats service time")?;
            }
            s.cache_hits = r.u64("stats cache hits")?;
            s.cache_misses = r.u64("stats cache misses")?;
            s.cache_evictions = r.u64("stats cache evictions")?;
            s.cache_shards = r.u32("stats cache shards")?;
            s.workers = r.u32("stats workers")?;
            Response::Stats(s)
        }
        resp_op::METRICS => {
            let len = r.u32("metrics text length")? as usize;
            let bytes = r.take(len, "metrics text")?;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| SpsepError::parse("metrics text is not UTF-8"))?;
            Response::Metrics(text.to_string())
        }
        resp_op::SHUTDOWN_ACK => Response::ShutdownAck,
        resp_op::ERROR => {
            let code = r.u8("error code")?;
            let code = WireError::from_code(code)
                .ok_or_else(|| SpsepError::parse(format!("unknown error code {code}")))?;
            let len = r.u32("error message length")? as usize;
            let bytes = r.take(len, "error message")?;
            Response::Error {
                code,
                message: String::from_utf8_lossy(bytes).into_owned(),
            }
        }
        other => {
            return Err(SpsepError::parse(format!(
                "unknown response opcode 0x{other:02x}"
            )))
        }
    };
    r.expect_exhausted("response payload")?;
    Ok(resp)
}

/// Outcome of reading one frame from a connection.
#[derive(Debug)]
pub enum FrameIn {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
    /// No new frame arrived within the read deadline while the stream
    /// was at a frame boundary — the keep-alive expired. The connection
    /// should be closed without an error.
    IdleTimeout,
}

/// `true` for the error kinds a timed-out blocking read reports.
fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// What happened at a frame boundary while trying to read the first
/// byte of the next frame.
#[derive(Debug)]
pub enum FrameStart {
    /// The byte arrived; the frame has started.
    Started(u8),
    /// Clean EOF before any byte of the next frame.
    Eof,
    /// The read deadline expired before any byte of the next frame.
    Idle,
}

/// Fill `buf` completely. Once any byte of a frame has been read, EOF
/// and timeouts become typed [`SpsepError::Parse`] errors — a peer
/// that dies or stalls mid-frame leaves the stream unrecoverable.
fn read_full(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), SpsepError> {
    let mut read = 0usize;
    while read < buf.len() {
        match r.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(SpsepError::parse(format!(
                    "connection closed after {read} of {} bytes of {what}",
                    buf.len()
                )));
            }
            Ok(k) => read += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(SpsepError::parse(format!(
                    "read deadline expired after {read} of {} bytes of {what}",
                    buf.len()
                )));
            }
            Err(e) => return Err(SpsepError::Io(e)),
        }
    }
    Ok(())
}

/// Read the first byte of the next frame, classifying the benign
/// boundary outcomes (clean close, idle keep-alive expiry) instead of
/// treating them as errors. The stream's current read timeout is the
/// poll interval — the daemon sets it short here so shutdown can
/// interrupt idle keep-alive waits, then restores the full per-request
/// deadline before [`read_frame_rest`].
///
/// # Errors
///
/// [`SpsepError::Io`] on hard transport failures only.
pub fn poll_frame_start(r: &mut impl Read) -> Result<FrameStart, SpsepError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(FrameStart::Eof),
            Ok(_) => return Ok(FrameStart::Started(first[0])),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => return Ok(FrameStart::Idle),
            Err(e) => return Err(SpsepError::Io(e)),
        }
    }
}

/// Read the remainder of a frame whose first length-prefix byte was
/// already consumed by [`poll_frame_start`]. The stream is mid-frame
/// throughout: EOF and timeouts are framing violations here.
///
/// # Errors
///
/// [`SpsepError::Parse`] for any framing violation — a zero or
/// oversized length prefix, EOF or a stalled peer mid-frame;
/// [`SpsepError::Io`] for hard transport failures.
pub fn read_frame_rest(
    r: &mut impl Read,
    first: u8,
    max_frame: u32,
) -> Result<Vec<u8>, SpsepError> {
    let mut len_buf = [0u8; 4];
    len_buf[0] = first;
    read_full(r, &mut len_buf[1..], "frame length prefix")?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(SpsepError::parse("zero-length frame"));
    }
    if len > max_frame {
        return Err(SpsepError::parse(format!(
            "frame length {len} exceeds the {max_frame}-byte bound"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, "frame payload")?;
    Ok(payload)
}

/// Read one frame. The stream's read timeout doubles as both the idle
/// keep-alive (at a frame boundary) and the per-request read deadline
/// (mid-frame).
///
/// # Errors
///
/// [`SpsepError::Parse`] for any framing violation — a zero or
/// oversized length prefix, EOF or a stalled peer mid-frame;
/// [`SpsepError::Io`] for hard transport failures. Either way the
/// connection must be closed; only `Ok(FrameIn::Frame(_))` leaves it
/// usable.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<FrameIn, SpsepError> {
    // Only the very first byte gets boundary treatment: a timeout or
    // EOF after 1–3 prefix bytes is mid-frame and therefore fatal.
    match poll_frame_start(r)? {
        FrameStart::Eof => Ok(FrameIn::Eof),
        FrameStart::Idle => Ok(FrameIn::IdleTimeout),
        FrameStart::Started(b) => Ok(FrameIn::Frame(read_frame_rest(r, b, max_frame)?)),
    }
}

/// Write one already-encoded frame and flush it.
///
/// # Errors
///
/// [`SpsepError::Io`] on any transport failure, including an expired
/// write deadline (a dead or unreading peer cannot pin the writer).
pub fn write_frame(w: &mut impl Write, bytes: &[u8]) -> Result<(), SpsepError> {
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = encode_request(&req);
        let payload = &bytes[4..];
        assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize,
            payload.len()
        );
        assert_eq!(decode_request(payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = encode_response(&resp, MAX_FRAME).unwrap();
        assert_eq!(decode_response(&bytes[4..]).unwrap(), resp);
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Info);
        roundtrip_req(Request::Point {
            source: 7,
            target: u64::MAX,
        });
        roundtrip_req(Request::Source { source: 0 });
        roundtrip_req(Request::Batch { pairs: vec![] });
        roundtrip_req(Request::Batch {
            pairs: vec![(1, 2), (3, 4), (0, 0)],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn every_response_roundtrips() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Info {
            n: 100,
            m: 400,
            eplus: 950,
            algo: 41,
        });
        roundtrip_resp(Response::Dist(f64::INFINITY));
        roundtrip_resp(Response::Dist(-0.0));
        roundtrip_resp(Response::Table(vec![0.0, 1.5, f64::INFINITY]));
        roundtrip_resp(Response::Batch(vec![2.5; 17]));
        roundtrip_resp(Response::Stats(WireStats {
            accepted: 10,
            shed: 2,
            served: 100,
            errors: [1, 2, 3, 4, 5],
            io_errors: 6,
            queue_wait_us: [1.0, 2.0, 2.5],
            service_us: [3.0, 4.0, 4.5],
            cache_hits: 7,
            cache_misses: 8,
            cache_evictions: 9,
            cache_shards: 8,
            workers: 4,
        }));
        roundtrip_resp(Response::Metrics(
            "# TYPE spsep_served_total counter\nspsep_served_total 12\n".to_string(),
        ));
        roundtrip_resp(Response::ShutdownAck);
        roundtrip_resp(Response::Error {
            code: WireError::Overloaded,
            message: "queue full".into(),
        });
    }

    #[test]
    fn dist_roundtrip_is_bit_exact() {
        let d = f64::from_bits(0x7ff0_0000_0000_0001); // a signaling-ish NaN pattern
        let bytes = encode_response(&Response::Dist(d), MAX_FRAME).unwrap();
        match decode_response(&bytes[4..]).unwrap() {
            Response::Dist(out) => assert_eq!(out.to_bits(), d.to_bits()),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn unknown_opcode_is_a_parse_error() {
        assert!(matches!(
            decode_request(&[0xee]),
            Err(SpsepError::Parse { .. })
        ));
        assert!(matches!(
            decode_response(&[0x00]),
            Err(SpsepError::Parse { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_a_parse_error() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0xaa); // extend payload…
        let err = decode_request(&bytes[4..]).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");
    }

    #[test]
    fn truncated_payload_is_a_parse_error() {
        let bytes = encode_request(&Request::Point {
            source: 1,
            target: 2,
        });
        let payload = &bytes[4..];
        for cut in 1..payload.len() {
            let err = decode_request(&payload[..cut]).unwrap_err();
            assert!(matches!(err, SpsepError::Parse { .. }), "cut {cut}: {err}");
        }
    }

    #[test]
    fn hostile_batch_count_is_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.u8(0x05);
        w.u32(u32::MAX); // declares 4 billion pairs in a tiny payload
        let err = decode_request(&w.into_inner()).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");
    }

    #[test]
    fn frame_reader_enforces_the_length_bound() {
        // Oversized length prefix.
        let mut buf: Vec<u8> = (MAX_FRAME + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");

        // Zero-length frame.
        let buf = 0u32.to_le_bytes().to_vec();
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");

        // Clean EOF at the boundary.
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, MAX_FRAME).unwrap(),
            FrameIn::Eof
        ));

        // Truncated mid-frame: a prefix promising more than is there.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut buf.as_slice(), MAX_FRAME).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");
    }

    #[test]
    fn oversized_response_is_a_typed_error() {
        let resp = Response::Table(vec![0.0; 4096]);
        let err = encode_response(&resp, 1024).unwrap_err();
        assert!(matches!(err, SpsepError::Parse { .. }), "{err}");
    }

    #[test]
    fn error_messages_are_clamped() {
        let resp = Response::Error {
            code: WireError::Parse,
            message: "x".repeat(100_000),
        };
        let bytes = encode_response(&resp, MAX_FRAME).unwrap();
        match decode_response(&bytes[4..]).unwrap() {
            Response::Error { message, .. } => assert_eq!(message.len(), 4096),
            other => panic!("wrong response {other:?}"),
        }
    }
}
