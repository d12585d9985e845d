//! Per-workload harness: compile once, run any evaluation mode.

use std::collections::{BTreeMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use tls_core::{compile_all, loads_above_threshold, CompilationSet, CompileError, CompileOptions};
use tls_profile::{record_oracle, ExecError, ValueOracle};
use tls_sim::{
    check_conformance, AdaptConfig, Machine, MachineCounters, ModelConfig, NullTracer, OracleSel,
    RecordingTracer, SimConfig, SimError, SimResult, SyncLoadPolicy, Tracer, ViolationClass,
};
use tls_workloads::{InputSet, Workload};

use crate::metrics;

/// How big a run to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Measure the `train` input (fast; used in tests and benchmarks).
    Quick,
    /// Measure the `ref` input, profile-on-train available (the paper's
    /// setup).
    Full,
    /// Measure the `ref` input magnified by a workload-level
    /// [`tls_workloads::Scale`] multiplier (iterations × footprint). The
    /// train profile stays at base scale — profiles transfer across scales
    /// because scaling never changes the instruction stream.
    Scaled(tls_workloads::Scale),
    /// Measure the `train` input magnified by a multiplier (cheap sweep
    /// points). Like [`Scale::Quick`], the `T` compilation reuses `C`.
    ScaledQuick(tls_workloads::Scale),
}

impl Scale {
    /// Parse a CLI scale: `quick`, `ref`/`full`, `NxM`/`Nx`/`N` (ref input
    /// at N× iterations, M× footprint) or `quick:NxM` (train input
    /// magnified).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "ref" | "full" => Some(Scale::Full),
            other => {
                if let Some(q) = other.strip_prefix("quick:") {
                    let ws = tls_workloads::Scale::parse(q)?;
                    Some(if ws.is_base() {
                        Scale::Quick
                    } else {
                        Scale::ScaledQuick(ws)
                    })
                } else {
                    // Accept our own labels back: `ref:NxM` == `NxM`.
                    let ws =
                        tls_workloads::Scale::parse(other.strip_prefix("ref:").unwrap_or(other))?;
                    Some(if ws.is_base() {
                        Scale::Full
                    } else {
                        Scale::Scaled(ws)
                    })
                }
            }
        }
    }

    /// Human-readable label (`quick`, `ref`, `ref:100x1`, `quick:4x2`).
    pub fn label(&self) -> String {
        match self {
            Scale::Quick => "quick".into(),
            Scale::Full => "ref".into(),
            Scale::Scaled(ws) => format!("ref:{}", ws.label()),
            Scale::ScaledQuick(ws) => format!("quick:{}", ws.label()),
        }
    }
}

/// An evaluation configuration (see the crate docs for the letter mapping).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Sequential execution of the original program.
    Seq,
    /// `U`: scalar synchronization only.
    Unsync,
    /// `O`: every region load perfectly predicted.
    OracleAll,
    /// Figure 6: loads with dependence frequency above `percent`% perfectly
    /// predicted.
    Threshold(u8),
    /// `T`: memory sync from the train profile.
    CompilerTrain,
    /// `C`: memory sync from the ref profile.
    CompilerRef,
    /// `E`: synchronized loads get the perfect value with zero stall.
    PerfectSync,
    /// `L`: synchronized loads stall until the previous epoch completes.
    LateSync,
    /// `P`: hardware value prediction for violating loads.
    HwPredict,
    /// `H`: hardware-inserted synchronization.
    HwSync,
    /// `B`: compiler and hardware synchronization together.
    Hybrid,
    /// `B+`: the hybrid with the paper's proposed enhancement (iii) —
    /// hardware filters out compiler-inserted synchronization that rarely
    /// forwards a usable value.
    HybridFiltered,
    /// Figure 11 marking run on the `U` module: optionally stall
    /// compiler-marked loads and/or hardware-flagged loads; violations are
    /// classified either way.
    Marking {
        /// Stall the compiler-chosen loads.
        stall_compiler: bool,
        /// Enable hardware synchronization stalls.
        stall_hardware: bool,
    },
    /// `A`: the ref-profiled compiler module with the adaptive
    /// per-dependence controller layered on top (see [`tls_sim::adapt`]).
    Adaptive,
    /// `A-T`: the *train*-profiled module plus the adaptive controller —
    /// the input-sensitivity experiment; on a phase-shifting input this is
    /// what recovers the performance `T` leaves behind.
    AdaptiveTrain,
    /// `A-U`: no compiler synchronization at all; the controller learns
    /// every dependence online from the violation stream.
    AdaptiveUnsync,
}

/// The full evaluation matrix, sequential baseline first: every bar letter
/// plus the threshold and marking variants. This is the **single canonical
/// mode list** — the differential fuzzer exercises all of it, the
/// trace-invariant and conformance suites take the speculative tail
/// ([`spec_modes`]), and every mode a figure runs appears in it (see
/// [`crate::figures::modes_used`] and the agreement test there).
pub const MODES: [Mode; 21] = [
    Mode::Seq,
    Mode::Unsync,
    Mode::OracleAll,
    Mode::Threshold(25),
    Mode::Threshold(15),
    Mode::Threshold(5),
    Mode::CompilerTrain,
    Mode::CompilerRef,
    Mode::PerfectSync,
    Mode::LateSync,
    Mode::HwPredict,
    Mode::HwSync,
    Mode::Hybrid,
    Mode::HybridFiltered,
    Mode::Marking {
        stall_compiler: false,
        stall_hardware: false,
    },
    Mode::Marking {
        stall_compiler: true,
        stall_hardware: false,
    },
    Mode::Marking {
        stall_compiler: false,
        stall_hardware: true,
    },
    Mode::Marking {
        stall_compiler: true,
        stall_hardware: true,
    },
    Mode::Adaptive,
    Mode::AdaptiveTrain,
    Mode::AdaptiveUnsync,
];

/// The speculative modes: [`MODES`] without the sequential baseline.
pub fn spec_modes() -> &'static [Mode] {
    &MODES[1..]
}

impl Mode {
    /// The paper's bar letter (or a short label).
    pub fn label(&self) -> String {
        match self {
            Mode::Seq => "SEQ".into(),
            Mode::Unsync => "U".into(),
            Mode::OracleAll => "O".into(),
            Mode::Threshold(p) => format!("O>{p}%"),
            Mode::CompilerTrain => "T".into(),
            Mode::CompilerRef => "C".into(),
            Mode::PerfectSync => "E".into(),
            Mode::LateSync => "L".into(),
            Mode::HwPredict => "P".into(),
            Mode::HwSync => "H".into(),
            Mode::Hybrid => "B".into(),
            Mode::HybridFiltered => "B+".into(),
            Mode::Marking {
                stall_compiler,
                stall_hardware,
            } => match (stall_compiler, stall_hardware) {
                (false, false) => "mark-U".into(),
                (true, false) => "mark-C".into(),
                (false, true) => "mark-H".into(),
                (true, true) => "mark-B".into(),
            },
            Mode::Adaptive => "A".into(),
            Mode::AdaptiveTrain => "A-T".into(),
            Mode::AdaptiveUnsync => "A-U".into(),
        }
    }

    /// Parse a bar letter back into a mode (the inverse of
    /// [`Mode::label`]): `SEQ`, `U`, `O`, `O>75%`, `T`, `C`, `E`, `L`,
    /// `P`, `H`, `B`, `B+`, `mark-U`, `mark-C`, `mark-H`, `mark-B`, `A`,
    /// `A-T`, `A-U`.
    pub fn from_label(label: &str) -> Option<Mode> {
        Some(match label {
            "SEQ" | "seq" => Mode::Seq,
            "A" | "a" => Mode::Adaptive,
            "A-T" | "a-t" => Mode::AdaptiveTrain,
            "A-U" | "a-u" => Mode::AdaptiveUnsync,
            "U" | "u" => Mode::Unsync,
            "O" | "o" => Mode::OracleAll,
            "T" | "t" => Mode::CompilerTrain,
            "C" | "c" => Mode::CompilerRef,
            "E" | "e" => Mode::PerfectSync,
            "L" | "l" => Mode::LateSync,
            "P" | "p" => Mode::HwPredict,
            "H" | "h" => Mode::HwSync,
            "B" | "b" => Mode::Hybrid,
            "B+" | "b+" => Mode::HybridFiltered,
            "mark-U" => Mode::Marking {
                stall_compiler: false,
                stall_hardware: false,
            },
            "mark-C" => Mode::Marking {
                stall_compiler: true,
                stall_hardware: false,
            },
            "mark-H" => Mode::Marking {
                stall_compiler: false,
                stall_hardware: true,
            },
            "mark-B" => Mode::Marking {
                stall_compiler: true,
                stall_hardware: true,
            },
            threshold => {
                let pct = threshold
                    .strip_prefix("O>")
                    .or_else(|| threshold.strip_prefix("o>"))?
                    .strip_suffix('%')?;
                Mode::Threshold(pct.parse().ok()?)
            }
        })
    }
}

/// Why a harness step failed.
#[derive(Clone, Debug)]
pub enum ExperimentError {
    /// Compilation (including profiling runs) failed.
    Compile(CompileError),
    /// A simulation failed.
    Sim(SimError),
    /// Oracle recording failed.
    Oracle(ExecError),
    /// A TLS run produced architectural results (output stream, return
    /// value or final memory) different from sequential execution.
    WrongOutput {
        /// Workload or program name.
        workload: String,
        /// Mode label.
        mode: String,
        /// First divergence found.
        detail: String,
    },
    /// A TLS run's event stream diverged from the reference protocol model
    /// (see [`tls_sim::check_conformance`]).
    Conformance {
        /// Workload or program name.
        workload: String,
        /// Mode label.
        mode: String,
        /// First protocol divergence found.
        detail: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "compilation failed: {e}"),
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::Oracle(e) => write!(f, "oracle recording failed: {e}"),
            ExperimentError::WrongOutput {
                workload,
                mode,
                detail,
            } => {
                write!(
                    f,
                    "{workload}/{mode}: TLS diverged from sequential: {detail}"
                )
            }
            ExperimentError::Conformance {
                workload,
                mode,
                detail,
            } => {
                write!(
                    f,
                    "{workload}/{mode}: event stream diverged from the protocol model: {detail}"
                )
            }
        }
    }
}

impl Error for ExperimentError {}

impl From<CompileError> for ExperimentError {
    fn from(e: CompileError) -> Self {
        ExperimentError::Compile(e)
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<ExecError> for ExperimentError {
    fn from(e: ExecError) -> Self {
        ExperimentError::Oracle(e)
    }
}

/// One program, compiled and ready to run under any [`Mode`].
///
/// Built either from a [`Workload`] ([`Harness::new`]) or from arbitrary
/// modules ([`Harness::from_modules`] — the differential fuzzer's entry
/// point for generated programs).
pub struct Harness {
    /// Program name (the workload name, or whatever `from_modules` was
    /// given) — used in reports and error messages.
    pub name: String,
    /// Compilation with the measurement-input profile (`C`).
    pub set_c: CompilationSet,
    /// Compilation with the train-input profile (`T`).
    pub set_t: CompilationSet,
    /// Sequential baseline result (region and program times).
    pub seq: SimResult,
    /// Mode-independent base machine configuration. [`Harness::run`] layers
    /// each mode's policy knobs over a clone of this; the fuzzer uses it to
    /// cap `max_steps` and to inject test-only faults.
    pub base: SimConfig,
    /// Word addresses holding compiler-introduced synchronization scratch
    /// (the `__tls_flag_*` globals the memory-sync pass appends past the
    /// original program's globals). These are memory-resident communication
    /// state, not program data, so the architectural memory comparison
    /// skips them.
    pub scratch: std::ops::Range<i64>,
    // Value oracles record every region load's sequential value — O(dynamic
    // loads) memory — but only the oracle modes (`O`, thresholds, `E`) read
    // them. Recorded lazily on first use so scaled-up runs of the other
    // modes stay constant-memory.
    oracle_u: OnceLock<Result<ValueOracle, ExecError>>,
    oracle_c: OnceLock<Result<ValueOracle, ExecError>>,
    // One slot per `MODES` entry, filled by the first `summary` of that
    // mode; see `Harness::summary` for why `run` never reads them.
    summaries: [OnceLock<Result<RunSummary, ExperimentError>>; MODES.len()],
}

/// Which value oracle a mode consumes (see [`Harness::resolve`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OracleUse {
    /// No oracle.
    None,
    /// Sequential values of the unsynchronized module's loads.
    Unsync,
    /// Sequential values of the synchronized module's loads.
    Synced,
}

impl Harness {
    /// Compile `workload` at `scale` and run the sequential baseline.
    ///
    /// # Errors
    /// Propagates compilation, oracle and simulation failures.
    pub fn new(workload: Workload, scale: Scale) -> Result<Self, ExperimentError> {
        Self::with_options(workload, scale, &CompileOptions::default())
    }

    /// Like [`Harness::new`] with custom compiler options (the signal
    /// scheduling ablation in `tests/paper_claims.rs`).
    pub fn with_options(
        workload: Workload,
        scale: Scale,
        opts: &CompileOptions,
    ) -> Result<Self, ExperimentError> {
        let measure = match scale {
            Scale::Quick => workload.module(InputSet::Train),
            Scale::Full => workload.module(InputSet::Ref),
            Scale::Scaled(ws) => workload.module_scaled(InputSet::Ref, ws),
            Scale::ScaledQuick(ws) => workload.module_scaled(InputSet::Train, ws),
        };
        let train = match scale {
            // At quick scale the measurement input *is* the train input, so
            // the `T` compilation would be bit-identical to `C`: reuse it
            // instead of profiling and compiling a second time.
            Scale::Quick | Scale::ScaledQuick(_) => None,
            // Profiles are gathered on the *base-scale* train input: scaling
            // shares static ids with the base program, so the profile
            // transfers — and profiling stays cheap at any measurement
            // scale.
            Scale::Full | Scale::Scaled(_) => Some(workload.module(InputSet::Train)),
        };
        Self::from_modules(workload.name, &measure, train.as_ref(), opts)
    }

    /// Compile an arbitrary program (plus an optional train-input variant of
    /// the same program for the profile-on-train modes) and run the
    /// sequential baseline. `None` for `train` reuses the measurement
    /// profile, exactly like [`Scale::Quick`].
    ///
    /// # Errors
    /// Propagates compilation, oracle and simulation failures.
    pub fn from_modules(
        name: impl Into<String>,
        measure: &tls_ir::Module,
        train: Option<&tls_ir::Module>,
        opts: &CompileOptions,
    ) -> Result<Self, ExperimentError> {
        let _prep = metrics::span("prep");
        let (set_c, set_t) = {
            let _compile = metrics::span("compile");
            let set_c = compile_all(measure, measure, opts)?;
            let set_t = match train {
                None => set_c.clone(),
                Some(t) => compile_all(measure, t, opts)?,
            };
            (set_c, set_t)
        };
        let seq = {
            let _baseline = metrics::span("baseline");
            Machine::new(&set_c.seq, SimConfig::sequential()).run()?
        };
        let scratch_end = [&set_c.unsync, &set_c.synced, &set_t.synced]
            .iter()
            .map(|m| m.globals_end)
            .max()
            .unwrap_or(set_c.seq.globals_end)
            .max(set_c.seq.globals_end);
        Ok(Self {
            name: name.into(),
            scratch: set_c.seq.globals_end..scratch_end,
            set_c,
            set_t,
            seq,
            base: SimConfig::cgo2004(),
            oracle_u: OnceLock::new(),
            oracle_c: OnceLock::new(),
            summaries: Default::default(),
        })
    }

    /// Prepare harnesses for `workloads` in parallel (see [`crate::par`]);
    /// the result vector is in `workloads` order, and the first failure in
    /// that order is reported, exactly as a serial loop would.
    ///
    /// # Errors
    /// Propagates the first preparation failure in workload order.
    pub fn prepare_all(workloads: &[Workload], scale: Scale) -> Result<Vec<Self>, ExperimentError> {
        crate::par::par_map(workloads.to_vec(), |_, w| Self::new(w, scale))
            .into_iter()
            .collect()
    }

    /// Execute one mode and verify the architectural results (output
    /// stream, return value, final memory) against sequential execution.
    ///
    /// In debug builds every speculative run is additionally recorded and
    /// checked against the timing-free protocol model
    /// ([`tls_sim::check_conformance`]), so the whole test suite exercises
    /// conformance implicitly; release builds skip the recording.
    ///
    /// # Errors
    /// Propagates simulation failures; returns
    /// [`ExperimentError::WrongOutput`] if the TLS run diverges and
    /// [`ExperimentError::Conformance`] (debug builds) if its event stream
    /// does.
    pub fn run(&self, mode: Mode) -> Result<SimResult, ExperimentError> {
        if cfg!(debug_assertions) && mode != Mode::Seq {
            let mut rec = RecordingTracer::default();
            let result = self.run_traced(mode, &mut rec)?;
            self.check_conformance(mode, &rec.events)?;
            Ok(result)
        } else {
            self.run_traced(mode, &mut NullTracer)
        }
    }

    /// What the figures read of `mode`'s checked run ([`Harness::run`]).
    ///
    /// A mode in [`MODES`] is simulated on its first request only; every
    /// later request, from any figure, gets the same summary, and a failed
    /// run gets the same error. So one `repro all` simulates each mode
    /// once per harness. A mode outside [`MODES`] is simulated on every
    /// call. The slot is filled against `base` as it is at that moment and
    /// is not cleared if `base` changes later.
    ///
    /// [`Harness::run`] itself never reads these slots: the callers that
    /// time or check every run (the benchmark's long runs and region
    /// speedups, the fuzzer) must keep getting fresh simulations.
    ///
    /// # Errors
    /// The error of the mode's first run.
    pub fn summary(&self, mode: Mode) -> Result<RunSummary, ExperimentError> {
        let summarize = || {
            let r = self.run(mode)?;
            Ok(RunSummary {
                bar: self.bar(mode, &r),
                stats: self.program_stats(mode, &r),
                violation_classes: r.violation_class_totals(),
                max_signal_buffer: r.max_signal_buffer,
            })
        };
        match MODES.iter().position(|&m| m == mode) {
            Some(i) => self.summaries[i].get_or_init(summarize).clone(),
            None => summarize(),
        }
    }

    /// The protocol-relevant knobs the reference model needs for a mode
    /// (granularity and relay forwarding, from the resolved configuration).
    pub fn model_config(&self, mode: Mode) -> ModelConfig {
        ModelConfig::from_sim(&self.resolve(mode).1)
    }

    /// Check a recorded event stream of a `mode` run against the reference
    /// protocol model.
    ///
    /// # Errors
    /// [`ExperimentError::Conformance`] describing the first divergence.
    pub fn check_conformance(
        &self,
        mode: Mode,
        events: &[tls_sim::TraceEvent],
    ) -> Result<tls_sim::ConformanceStats, ExperimentError> {
        check_conformance(events, &self.model_config(mode)).map_err(|detail| {
            ExperimentError::Conformance {
                workload: self.name.clone(),
                mode: mode.label(),
                detail,
            }
        })
    }

    /// Like [`Harness::run`], but streams the run's [`tls_sim::TraceEvent`]s
    /// into `tracer`. Tracing never changes simulated timing, so the result
    /// is identical to [`Harness::run`]'s.
    ///
    /// # Errors
    /// Propagates simulation failures; returns
    /// [`ExperimentError::WrongOutput`] if the TLS run diverges.
    pub fn run_traced<T: Tracer>(
        &self,
        mode: Mode,
        tracer: &mut T,
    ) -> Result<SimResult, ExperimentError> {
        let (module, cfg, which) = self.resolve(mode);
        let machine = match self.oracle(which)? {
            Some(o) => Machine::with_oracle(module, cfg, o),
            None => Machine::new(module, cfg),
        };
        let result = {
            let _sim = metrics::span("sim");
            machine.run_traced(tracer)?
        };
        let _check = metrics::span("check");
        if let Some(detail) = self.check(&result) {
            return Err(ExperimentError::WrongOutput {
                workload: self.name.clone(),
                mode: mode.label(),
                detail,
            });
        }
        Ok(result)
    }

    /// Like [`Harness::run`], but with the run traced into a fresh
    /// [`tls_sim::MachineCounters`] bank, returned in
    /// [`SimResult::counters`]. Counting is observational — timing and
    /// architectural state are identical to [`Harness::run`]'s.
    ///
    /// # Errors
    /// As [`Harness::run`].
    pub fn run_counted(&self, mode: Mode) -> Result<SimResult, ExperimentError> {
        let mut bank = MachineCounters::default();
        let mut result = self.run_traced(mode, &mut bank)?;
        result.counters = Some(Box::new(bank));
        Ok(result)
    }

    /// Run `mode` with `plan` injected into the hardware ([`tls_sim::FaultPlan`]).
    ///
    /// With `checked`, a divergence from the sequential baseline is an
    /// error — the route for *maskable* plans, whose perturbations the
    /// protocol must absorb. Without it the (possibly corrupted) result is
    /// returned as-is — the route for *contract-breaking* plans, where the
    /// caller instead feeds the recorded event stream to
    /// [`Harness::check_conformance`] and demands a rejection.
    ///
    /// # Errors
    /// Propagates simulation failures (including the plan's own
    /// [`tls_sim::SimError::FaultPlanExhausted`]); with `checked`, returns
    /// [`ExperimentError::WrongOutput`] if the run diverges.
    pub fn run_faulted<T: Tracer>(
        &self,
        mode: Mode,
        plan: tls_sim::FaultPlan,
        checked: bool,
        tracer: &mut T,
    ) -> Result<SimResult, ExperimentError> {
        let (module, mut cfg, which) = self.resolve(mode);
        cfg.inject = Some(plan);
        let machine = match self.oracle(which)? {
            Some(o) => Machine::with_oracle(module, cfg, o),
            None => Machine::new(module, cfg),
        };
        let result = machine.run_traced(tracer)?;
        if checked {
            if let Some(detail) = self.check(&result) {
                return Err(ExperimentError::WrongOutput {
                    workload: self.name.clone(),
                    mode: mode.label(),
                    detail,
                });
            }
        }
        Ok(result)
    }

    /// Record (once) and fetch the oracle a mode consumes.
    fn oracle(&self, which: OracleUse) -> Result<Option<&ValueOracle>, ExperimentError> {
        let (slot, module) = match which {
            OracleUse::None => return Ok(None),
            OracleUse::Unsync => (&self.oracle_u, &self.set_c.unsync),
            OracleUse::Synced => (&self.oracle_c, &self.set_c.synced),
        };
        slot.get_or_init(|| {
            let _oracle = metrics::span("oracle");
            record_oracle(module)
        })
        .as_ref()
        .map(Some)
        .map_err(|e| ExperimentError::Oracle(e.clone()))
    }

    /// Resolve a mode to the module, full machine configuration and value
    /// oracle its simulation uses.
    fn resolve(&self, mode: Mode) -> (&tls_ir::Module, SimConfig, OracleUse) {
        let base = self.base.clone();
        match mode {
            Mode::Seq => (
                &self.set_c.seq,
                SimConfig {
                    parallelize: false,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::Unsync => (&self.set_c.unsync, base, OracleUse::None),
            Mode::OracleAll => (
                &self.set_c.unsync,
                SimConfig {
                    oracle_sel: OracleSel::AllLoads,
                    ..base
                },
                OracleUse::Unsync,
            ),
            Mode::Threshold(p) => {
                let loads = loads_above_threshold(
                    &self.set_c.dep_profile,
                    &self.set_c.regions,
                    p as f64 / 100.0,
                );
                (
                    &self.set_c.unsync,
                    SimConfig {
                        oracle_sel: OracleSel::Sids(loads),
                        ..base
                    },
                    OracleUse::Unsync,
                )
            }
            Mode::CompilerTrain => (&self.set_t.synced, base, OracleUse::None),
            Mode::CompilerRef => (&self.set_c.synced, base, OracleUse::None),
            Mode::PerfectSync => (
                &self.set_c.synced,
                SimConfig {
                    sync_load_policy: SyncLoadPolicy::Oracle,
                    ..base
                },
                OracleUse::Synced,
            ),
            Mode::LateSync => (
                &self.set_c.synced,
                SimConfig {
                    sync_load_policy: SyncLoadPolicy::StallTillOldest,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::HwPredict => (
                &self.set_c.unsync,
                SimConfig {
                    hw_predict: true,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::HwSync => (
                &self.set_c.unsync,
                SimConfig {
                    hw_sync: true,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::Hybrid => (
                &self.set_c.synced,
                SimConfig {
                    hw_sync: true,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::HybridFiltered => (
                &self.set_c.synced,
                SimConfig {
                    hw_sync: true,
                    hybrid_filter: true,
                    ..base
                },
                OracleUse::None,
            ),
            Mode::Marking {
                stall_compiler,
                stall_hardware,
            } => {
                let marked: HashSet<tls_ir::Sid> = self.set_c.marked_loads.clone();
                (
                    &self.set_c.unsync,
                    SimConfig {
                        mark_compiler: marked.clone(),
                        stall_marked: stall_compiler.then_some(marked),
                        hw_sync: stall_hardware,
                        ..base
                    },
                    OracleUse::None,
                )
            }
            Mode::Adaptive => (
                &self.set_c.synced,
                SimConfig {
                    adapt: Some(AdaptConfig::default()),
                    ..base
                },
                OracleUse::None,
            ),
            Mode::AdaptiveTrain => (
                &self.set_t.synced,
                SimConfig {
                    adapt: Some(AdaptConfig::default()),
                    ..base
                },
                OracleUse::None,
            ),
            Mode::AdaptiveUnsync => (
                &self.set_c.unsync,
                SimConfig {
                    adapt: Some(AdaptConfig::default()),
                    ..base
                },
                OracleUse::None,
            ),
        }
    }

    /// Compare a run's architectural results against the sequential
    /// baseline; `Some(description)` of the first divergence, `None` on an
    /// exact match.
    fn check(&self, result: &SimResult) -> Option<String> {
        if result.output != self.seq.output {
            let i = self
                .seq
                .output
                .iter()
                .zip(&result.output)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| self.seq.output.len().min(result.output.len()));
            return Some(format!(
                "output diverges at index {i}: sequential {:?} vs TLS {:?} \
                 (lengths {} vs {})",
                self.seq.output.get(i),
                result.output.get(i),
                self.seq.output.len(),
                result.output.len()
            ));
        }
        if result.ret != self.seq.ret {
            return Some(format!(
                "return value: sequential {} vs TLS {}",
                self.seq.ret, result.ret
            ));
        }
        if let Some((addr, seq, tls)) = self
            .seq
            .memory
            .first_diff_outside(&result.memory, &self.scratch)
        {
            return Some(format!(
                "memory diverges at word {addr}: sequential {seq} vs TLS {tls}"
            ));
        }
        None
    }

    /// Build the normalized region bar for a mode's result (Figures 2, 6,
    /// 8, 9, 10 style).
    pub fn bar(&self, mode: Mode, result: &SimResult) -> RegionBar {
        let seq_cycles = self.seq.region_cycles().max(1);
        let run_cycles = result.region_cycles().max(1);
        let norm = run_cycles as f64 / seq_cycles as f64 * 100.0;
        let mut slots = tls_sim::SlotBreakdown::default();
        for r in result.regions.values() {
            slots.add(&r.slots);
        }
        let total = slots.total().max(1) as f64;
        RegionBar {
            label: mode.label(),
            norm_time: norm,
            busy: norm * slots.busy as f64 / total,
            fail: norm * slots.fail as f64 / total,
            sync: norm * slots.sync as f64 / total,
            other: norm * slots.other as f64 / total,
            violations: result.total_violations,
        }
    }

    /// Program-level statistics for a result (Figure 12 / Table 2).
    pub fn program_stats(&self, mode: Mode, result: &SimResult) -> ProgramStats {
        let seq_total = self.seq.total_cycles.max(1) as f64;
        let seq_region = self.seq.region_cycles().max(1) as f64;
        let seq_seq = self.seq.sequential_cycles.max(1) as f64;
        ProgramStats {
            label: mode.label(),
            coverage: seq_region / seq_total,
            region_speedup: seq_region / result.region_cycles().max(1) as f64,
            sequential_speedup: seq_seq / result.sequential_cycles.max(1) as f64,
            program_speedup: seq_total / result.total_cycles.max(1) as f64,
        }
    }
}

/// One normalized stacked bar (region execution time, sequential = 100).
#[derive(Clone, Debug)]
pub struct RegionBar {
    /// Mode letter.
    pub label: String,
    /// Total normalized height (< 100 means speedup over sequential).
    pub norm_time: f64,
    /// Graduated-instruction share of the bar.
    pub busy: f64,
    /// Failed-speculation share.
    pub fail: f64,
    /// Synchronization-stall share.
    pub sync: f64,
    /// Everything else.
    pub other: f64,
    /// Squashed epoch attempts during the run.
    pub violations: u64,
}

/// The part of one mode's run that the figure drivers read (see
/// [`Harness::summary`]). It keeps no per-region maps, output or memory,
/// so holding one per mode costs a harness next to nothing.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// The normalized region bar (Figures 2, 6, 8, 9 and 10).
    pub bar: RegionBar,
    /// Coverage and speedups (Figure 12 and Table 2).
    pub stats: ProgramStats,
    /// Violations by would-be-synchronizing scheme (Figure 11).
    pub violation_classes: BTreeMap<ViolationClass, u64>,
    /// Peak signal-address-buffer occupancy (the compiler report).
    pub max_signal_buffer: usize,
}

/// Program-level numbers (Table 2 row fragment).
#[derive(Clone, Debug)]
pub struct ProgramStats {
    /// Mode letter.
    pub label: String,
    /// Fraction of sequential execution inside the parallelized regions.
    pub coverage: f64,
    /// Speedup of the parallel regions relative to sequential.
    pub region_speedup: f64,
    /// Speedup (≈ 1.0 ideally) of the sequential portion.
    pub sequential_speedup: f64,
    /// Whole-program speedup.
    pub program_speedup: f64,
}
