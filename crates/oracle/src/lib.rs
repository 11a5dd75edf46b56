//! Reference oracle and differential fuzz harness for the DD-POLICE engine.
//!
//! The optimized [`DdPolice`](ddp_police::DdPolice) engine has accumulated
//! fast paths: CSR adjacency walks, shared-judgment memoization, bitmask
//! hysteresis, bulk fault-plane accounting. Each is an *optimization*, and
//! each carries an implicit claim of observational equivalence to the
//! paper's plain protocol. This crate makes that claim testable:
//!
//! * [`model::OracleDdPolice`] is a deliberately naive, allocation-happy
//!   transcription of one DD-POLICE tick straight from the paper — HashMaps,
//!   Vecs, no caches, no fast paths.
//! * [`spec::ScenarioSpec`] is a flat, JSON-serializable description of one
//!   fuzz scenario (topology, attack, faults, churn, protocol knobs) that
//!   can instantiate twin simulations from the same seed.
//! * [`harness`] drives the engine and the oracle in lockstep and compares
//!   their observable state after every tick: judgment traces (1-ulp),
//!   verdict entries, exchange views, overlay edges, cut/verdict logs, and
//!   output series.
//! * [`shrink`] minimizes a diverging scenario to a small replayable
//!   reproducer, committed under `tests/repro/`.

pub mod harness;
pub mod model;
pub mod shrink;
pub mod spec;

pub use harness::{
    run_lockstep, run_lockstep_with, run_lockstep_with_restore, run_parallel_lockstep, Divergence,
    LockstepStats,
};
pub use model::OracleDdPolice;
pub use shrink::{shrink, ShrunkRepro};
pub use spec::{scenario_matrix, ScenarioSpec};
