//! Long-lived concurrent query serving for the distance oracle.
//!
//! The paper's economics are prepare-once/query-many: preprocessing
//! pays `O(d_G log n)`-depth work for the `E⁺` augmentation so every
//! later query is a cheap scheduled run (Theorem 3.1 + §4). That only
//! pays off when the prepared [`Oracle`](spsep_core::Oracle) stays
//! resident and absorbs sustained concurrent traffic — this crate is
//! that serving layer:
//!
//! * [`protocol`] — the hand-rolled length-prefixed wire format
//!   (the workspace stays zero-dep), strict in both directions: every
//!   malformed, truncated, or oversized frame becomes a typed error,
//!   never a panic or a hang;
//! * [`server`] — the daemon: bounded-admission accept loop,
//!   thread-per-worker request loop over `Arc<Oracle>` (whose LRU row
//!   cache is sharded for concurrency in `spsep-core`), per-request
//!   deadlines, graceful drain-and-exit shutdown;
//! * the telemetry plane (`spsep-telemetry` wired through the server):
//!   lock-free counters/gauges/histograms, Prometheus text exposition
//!   via the `Request::Metrics` opcode and an optional plain-HTTP
//!   `GET /metrics` side port, and an always-on flight recorder that
//!   dumps a window of recent requests around slow or erroring ones
//!   (DESIGN.md §14);
//! * [`client`] — a blocking typed client, plus raw-byte escape
//!   hatches for fault injection;
//! * [`load`] — an open-loop load harness with zipfian source skew
//!   and a chaos mode that also scrapes the exposition before/after
//!   the run;
//! * [`loadrep`] — the validated `spsep-load-report/v1` JSON record of
//!   one harness run (`spsep-cli load --json`).
//!
//! The fault model and its tests live in `spsep-testkit`
//! (`wire_corruptions()` and the daemon shutdown suite).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod load;
pub mod loadrep;
pub mod protocol;
pub mod server;
mod telemetry;

pub use client::Client;
pub use load::{run_load, LoadConfig, LoadReport, Mix};
pub use loadrep::{load_report_json, validate_load_report_json};
pub use protocol::{Request, Response, WireError, WireStats, MAX_FRAME};
pub use server::{answer_query, install_signal_handlers, ServeConfig, Server, ServerHandle};
