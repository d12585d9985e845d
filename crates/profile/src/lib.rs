#![warn(missing_docs)]

//! Sequential execution and profiling for the CGO 2004 TLS reproduction.
//!
//! This crate plays the role of the paper's software-only,
//! instrumentation-based profiling tool (§1.1, §2.3): it executes a program
//! sequentially, records every access to memory, and matches each dependent
//! load with the store that produced its value — context-sensitively (keyed
//! by static instruction id plus the call stack rooted at the enclosing
//! loop) and flow-insensitively, exactly as the paper describes.
//!
//! Contents:
//!
//! * [`Memory`] — the flat, word-addressed memory shared with the simulator;
//! * [`Interp`] — the sequential IR interpreter with an [`ExecObserver`]
//!   hook, used for the profiler, the oracle recorder, and as the
//!   correctness reference for TLS execution;
//! * [`DepProfiler`] — per-loop inter-iteration dependence edges with
//!   frequencies and distances, plus loop coverage / trip-count / epoch-size
//!   statistics for region selection (§3.1);
//! * [`OracleRecorder`] — the per-epoch sequence of values each load reads
//!   under sequential execution, which the simulator's "perfect value
//!   prediction" modes (`O`, `E`, and the Figure 6 threshold study) replay.

mod depprof;
mod interp;
mod memory;
mod oracle;

pub use depprof::{
    profile_module, CtxId, DepEdge, DepProfile, DepProfiler, LoopKey, LoopProfile, VertexKey,
    DIST_BUCKETS,
};
pub use interp::{
    ExecError, ExecObserver, ExecResult, Interp, InterpConfig, LoopInstance, LoopMeta, LoopUid,
    NullObserver, TraceState,
};
pub use memory::Memory;
pub use oracle::{record_oracle, OracleKey, OracleRecorder, ValueOracle};

/// Run `module` sequentially with no observer and default limits.
///
/// Convenience wrapper used by tests and examples.
///
/// # Errors
/// Propagates any [`ExecError`] (step limit, call depth).
///
/// # Examples
///
/// ```
/// use tls_ir::{BinOp, ModuleBuilder};
///
/// let mut mb = ModuleBuilder::new();
/// let g = mb.add_global("g", 1, vec![40]);
/// let main = mb.declare("main", 0);
/// let mut fb = mb.define(main);
/// let v = fb.var("v");
/// fb.load(v, g, 0);
/// fb.bin(v, BinOp::Add, v, 2);
/// fb.output(v);
/// fb.ret(None);
/// fb.finish();
/// mb.set_entry(main);
/// let module = mb.build().expect("valid");
///
/// let result = tls_profile::run_sequential(&module).expect("runs");
/// assert_eq!(result.output, vec![42]);
/// ```
pub fn run_sequential(module: &tls_ir::Module) -> Result<ExecResult, ExecError> {
    let mut interp = Interp::new(module, InterpConfig::default());
    interp.run(&mut NullObserver)
}

/// The architectural outcome of a sequential execution: everything a TLS
/// execution must reproduce *exactly* — the observable output stream, the
/// entry function's return value, and the final memory state.
///
/// This is the oracle the differential fuzzer compares every simulator mode
/// against ([`ArchOutcome::diff`]).
#[derive(Clone, Debug)]
pub struct ArchOutcome {
    /// The observable output stream.
    pub output: Vec<i64>,
    /// The entry function's return value.
    pub ret: i64,
    /// The final memory state.
    pub memory: Memory,
}

impl ArchOutcome {
    /// Execute `module` sequentially under `config` and capture its
    /// architectural outcome.
    ///
    /// # Errors
    /// Propagates any [`ExecError`] (step limit, call depth).
    pub fn of(module: &tls_ir::Module, config: InterpConfig) -> Result<Self, ExecError> {
        let mut interp = Interp::new(module, config);
        let r = interp.run(&mut NullObserver)?;
        Ok(Self {
            output: r.output,
            ret: r.ret,
            memory: r.memory,
        })
    }

    /// Compare a TLS execution's architectural results against this oracle.
    /// Returns a description of the *first* divergence (output stream, then
    /// return value, then memory in address order), or `None` on an exact
    /// match.
    pub fn diff(&self, output: &[i64], ret: i64, memory: &Memory) -> Option<String> {
        self.diff_outside(output, ret, memory, &(0..0))
    }

    /// Like [`ArchOutcome::diff`], but memory words with addresses in
    /// `skip` are not compared — the range holding compiler-introduced
    /// synchronization scratch, which sequential execution never touches.
    pub fn diff_outside(
        &self,
        output: &[i64],
        ret: i64,
        memory: &Memory,
        skip: &std::ops::Range<i64>,
    ) -> Option<String> {
        if self.output != output {
            let i = self
                .output
                .iter()
                .zip(output)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.output.len().min(output.len()));
            return Some(format!(
                "output diverges at index {i}: sequential {:?} vs TLS {:?} \
                 (lengths {} vs {})",
                self.output.get(i),
                output.get(i),
                self.output.len(),
                output.len()
            ));
        }
        if self.ret != ret {
            return Some(format!(
                "return value: sequential {} vs TLS {ret}",
                self.ret
            ));
        }
        if let Some((addr, seq, tls)) = self.memory.first_diff_outside(memory, skip) {
            return Some(format!(
                "memory diverges at word {addr}: sequential {seq} vs TLS {tls}"
            ));
        }
        None
    }
}
