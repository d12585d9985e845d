#![warn(missing_docs)]

//! Experiment harness reproducing the CGO 2004 evaluation.
//!
//! The paper's bar letters map onto [`Mode`]s:
//!
//! | letter | meaning | here |
//! |---|---|---|
//! | `U` | TLS with scalar sync only (baseline) | [`Mode::Unsync`] |
//! | `O` | perfect prediction of every memory load | [`Mode::OracleAll`] |
//! | `T` | compiler memory sync, profiled on *train* | [`Mode::CompilerTrain`] |
//! | `C` | compiler memory sync, profiled on *ref* | [`Mode::CompilerRef`] |
//! | `E` | synchronized values perfectly predicted | [`Mode::PerfectSync`] |
//! | `L` | synchronized loads stall till previous epoch completes | [`Mode::LateSync`] |
//! | `P` | hardware value prediction | [`Mode::HwPredict`] |
//! | `H` | hardware-inserted synchronization | [`Mode::HwSync`] |
//! | `B` | compiler + hardware hybrid | [`Mode::Hybrid`] |
//! | `A` | adaptive per-dependence policies over `C` | [`Mode::Adaptive`] |
//! | `A-T` | adaptive over the train-profiled module | [`Mode::AdaptiveTrain`] |
//! | `A-U` | adaptive with no compiler sync at all | [`Mode::AdaptiveUnsync`] |
//!
//! The `A*` modes go beyond the paper: an online controller
//! ([`tls_sim::adapt`]) switches each static load between forwarding,
//! hardware stall and last-value prediction from the observed violation
//! stream, and bulk-re-profiles when the dependence-frequency distribution
//! shifts mid-run (the failure mode of static train-input profiling).
//!
//! [`Harness::new`] compiles a workload once (both profile inputs), records
//! the value oracles, and runs the sequential baseline; [`Harness::run`]
//! then executes any mode, asserting that its observable output matches
//! sequential execution — the TLS correctness invariant — before returning
//! the [`tls_sim::SimResult`].
//!
//! The [`figures`] module renders each of the paper's tables and figures
//! from these runs, each (harness, mode) simulated once and shared between
//! figures through [`Harness::summary`]; the `repro` binary drives it from
//! the command line.
//! Harness preparation and per-figure mode runs fan out over the [`par`]
//! scoped-thread pool (deterministic: output is byte-identical to a serial
//! run).

pub mod attrib;
pub mod cache;
pub mod conform;
pub mod figures;
pub mod fuzz;
mod harness;
pub mod inject;
pub mod journal;
pub mod metrics;
pub mod orchestrate;
pub mod par;
pub mod proto;
mod report;
pub mod worker;

pub use harness::{
    spec_modes, ExperimentError, Harness, Mode, ProgramStats, RegionBar, RunSummary, Scale, MODES,
};
pub use report::Table;
