//! DD-POLICE benchmark: three workloads driven through the repository's
//! public API, end-to-end metrics with tracing off, per-layer metrics from
//! a separate traced run, and output checks counted into the result.
//!
//! See `README.md` beside this package for the workloads, metrics and how
//! to run it.

pub mod host;
pub mod report;
pub mod sim;
pub mod trace;
pub mod wire;
