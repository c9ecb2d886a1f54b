//! The spsep benchmark: four workloads that time the distance oracle
//! from outside, through the public API of each layer, and check every
//! answer. See `README.md` for the workloads, the metrics and how to
//! read a trace.

pub mod gen;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod verify;
pub mod workloads;
