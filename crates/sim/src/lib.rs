#![warn(missing_docs)]

//! Cycle-approximate chip-multiprocessor simulator with Thread-Level
//! Speculation support — the evaluation substrate for the CGO 2004
//! reproduction.
//!
//! The simulated machine follows the paper's Table 1: four 4-way-issue
//! cores with 128-entry reorder buffers, private 32 KB L1 data caches over
//! a shared 2 MB unified L2 (32-byte lines), connected by a crossbar. TLS
//! support extends invalidation-based coherence: speculative stores are
//! buffered per epoch, exposed loads are tracked at cache-line granularity,
//! violations squash the offending epoch and everything logically later,
//! and epochs commit in order via a homefree token.
//!
//! Value-communication mechanisms implemented (the subject of the paper):
//!
//! * compiler-inserted scalar forwarding (`wait`/`signal` channels);
//! * compiler-inserted memory-resident forwarding (`SyncLoad` /
//!   `SignalMem`) with the signal address buffer and
//!   `use_forwarded_value` semantics of §2.2;
//! * hardware-inserted synchronization (violating-loads table with periodic
//!   reset, stalling flagged loads until the previous epoch completes);
//! * hardware last-value prediction with commit-time verification;
//! * perfect value prediction from a sequential-execution oracle (the `O`,
//!   `E` and Figure 6 idealizations);
//! * adaptive per-dependence policy switching (beyond the paper): an
//!   online controller that moves each static load between forwarding,
//!   hardware stall and last-value prediction from observed violation
//!   rates, with a re-profiling trigger on distribution shifts (see
//!   [`adapt`], the `A`/`A-T`/`A-U` modes).
//!
//! The main entry point is [`Machine`]; results come back as a
//! [`SimResult`] with the paper's busy/fail/sync/other graduation-slot
//! breakdown per region.

pub mod adapt;
mod cache;
mod config;
mod counters;
mod events;
#[cfg(test)]
mod fixtures;
mod hwsync;
pub mod inject;
pub mod json;
mod machine;
mod model;
mod spec;
mod stats;
mod timing;
mod trace;

pub use adapt::{AdaptConfig, AdaptController, Outcome, Policy};
pub use cache::{MemSystem, SetAssocCache};
pub use config::{OracleSel, SimConfig, SyncLoadPolicy};
pub use counters::{violation_index, MachineCounters, MemLevel, OpClass};
pub use events::{Fine, NullTracer, SignalKind, TraceEvent, Tracer, ViolationKind, WaitKind};
pub use hwsync::{ValuePredictor, ViolationTable};
pub use inject::{Fault, FaultClass, FaultPlan, FaultPoint, FaultSite, Mutation};
pub use json::{parse_json, Json};
pub use machine::{Machine, SimError};
pub use model::{check_conformance, ConformanceStats, ModelConfig};
pub use spec::{MemSignal, ReadSet, SyncState, WriteBuffer};
pub use stats::{RegionStats, SimResult, SlotBreakdown, StreamingStats, ViolationClass};
pub use timing::{BranchPredictor, CoreTimer};
pub use trace::{
    ascii_timeline, events_from_json, events_to_json, perfetto_json, replay_slots,
    validate_perfetto, CountingTracer, RecordingTracer, ReplayedRegion,
};

/// Simulate `module` under `config` (no oracle).
///
/// # Errors
/// Propagates [`SimError`].
///
/// # Examples
///
/// Run a two-instruction program on the paper's machine and read its
/// observable output:
///
/// ```
/// use tls_ir::ModuleBuilder;
/// use tls_sim::{simulate, SimConfig};
///
/// let mut mb = ModuleBuilder::new();
/// let main = mb.declare("main", 0);
/// let mut fb = mb.define(main);
/// let v = fb.var("v");
/// fb.assign(v, 42);
/// fb.output(v);
/// fb.ret(None);
/// fb.finish();
/// mb.set_entry(main);
/// let module = mb.build().expect("valid");
///
/// let result = simulate(&module, SimConfig::cgo2004()).expect("simulates");
/// assert_eq!(result.output, vec![42]);
/// assert!(result.total_cycles > 0);
/// ```
pub fn simulate(module: &tls_ir::Module, config: SimConfig) -> Result<SimResult, SimError> {
    Machine::new(module, config).run()
}
