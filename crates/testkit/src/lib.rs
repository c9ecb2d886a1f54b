//! Fault-injection toolkit for the `spsep` pipeline.
//!
//! The robustness contract of the workspace is: **every** malformed
//! input — a truncated file, an out-of-range id, a NaN weight, a
//! decomposition that does not actually separate — yields a typed
//! [`SpsepError`](spsep_core::SpsepError), never a panic, never a wrong
//! distance. This crate provides the corruptions; `tests/fault_injection.rs`
//! drives them through the parsers and the shipped entry point,
//! [`spsep_core::Oracle::prepare`], under `catch_unwind` and
//! cross-checks every answered distance against Dijkstra.
//!
//! Two corruption families:
//!
//! * [`corrupt::text_corruptions`] — byte/token-level damage to the
//!   two text formats (`spsep_graph::io`, `spsep_separator::io`),
//!   applied to a *valid* serialized instance;
//! * [`corrupt::instance_corruptions`] — structural damage to in-memory
//!   `(graph, tree)` pairs: non-separating separators, shuffled node
//!   levels, size mismatches, absorbing cycles.
//!
//! A third family targets the binary serving artifact:
//!
//! * [`corrupt::snapshot_corruptions_v2`] — damage to `spsep-oracle/v2`
//!   snapshots (truncation at several depths, bad magic, version skew,
//!   non-canonical layouts, flipped payload and checksum bytes,
//!   checksum-*consistent* semantic patches that defeat the integrity
//!   layer so the section validators must catch them, and files from
//!   older builds that must be refused with a re-prepare error). Driven
//!   by `tests/snapshot_v2.rs`.
//!
//! * [`corrupt::wire_corruptions`] — damage to the query daemon's
//!   framed TCP protocol (truncated frames, oversized length prefixes,
//!   unassigned opcodes, mid-frame disconnects, pipelined garbage),
//!   each annotated with the only acceptable daemon reactions. Driven
//!   against a *live* daemon by `tests/wire.rs`, watchdogged.
//!
//! * [`corrupt::import_corruptions`] — malformed *raw* road-network
//!   instances for the `spsep_graph::import` ingestion layer (DIMACS
//!   `.gr`/`.ss`, CSV edge lists, binary CSR directories): malformed
//!   headers, arc-count lies, overflowing ids, NaN/negative weights,
//!   truncations. Driven by `tests/fault_injection.rs`.

pub mod corrupt;

pub use corrupt::{
    import_corruptions, instance_corruptions, snapshot_corruptions_v2, text_corruptions,
    v1_snapshot_header, v2_section_bounds, v2_with_byte_checksum_version, v2_with_one_e_bucket,
    v2_with_trailing_tree_section, wire_corruptions, CorruptInstance, ImportCorruption,
    ImportInput, SnapshotCorruption, TextCorruption, TextFormat, WireCorruption, WireExpectation,
};
