//! Differential fuzzing: random TLS programs cross-checked against the
//! sequential oracle.
//!
//! Each seed drives [`tls_ir::generate()`] to produce a well-formed program
//! (plus a second data salt for the profile-on-train modes), which is then
//! pushed through the entire pipeline — profile, region selection, scalar
//! and memory-resident synchronization insertion — and executed under the
//! whole [`Mode`] matrix. Three families of properties are checked:
//!
//! 1. **Architectural equivalence** — every mode's observable output,
//!    return value and final memory must be byte-identical to the
//!    sequential interpreter in `tls_profile` ([`ArchOutcome`]). This is
//!    the TLS correctness invariant: speculation may reorder and squash,
//!    but committed state must equal sequential execution.
//! 2. **Metamorphic invariants** — adding synchronization (compiler,
//!    hardware, hybrid) changes cycle counts but never architectural
//!    state (subsumed by 1 across the matrix), and perfect prediction of
//!    every load ([`Mode::OracleAll`]) never reports a violation.
//! 3. **Well-formedness** — every generated module passes
//!    [`tls_ir::validate`], and so does every shrunk candidate.
//!
//! On failure the offending module is [shrunk](shrink_module) — blocks and
//! instructions dropped, branches straightened, globals zeroed — while the
//! failure signature is preserved, and the minimized program is written to
//! `results/fuzz/` as a replayable text artifact ([`tls_ir::serial`]).

use std::fmt;
use std::path::Path;

use tls_core::CompileOptions;
use tls_ir::{generate, serial, validate, validate_epochs, GenConfig, Module, Operand, Terminator};
use tls_profile::{ArchOutcome, InterpConfig};
use tls_sim::{FaultPlan, Mutation, NullTracer};

use crate::{par, ExperimentError, Harness, Mode};

/// The full mode matrix exercised for every generated program: the one
/// canonical list in [`crate::MODES`], re-exported under the fuzzer's
/// historical name.
pub use crate::MODES as ALL_MODES;

/// Everything one fuzzing campaign needs besides the seed range.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Shape of the generated programs.
    pub gen: GenConfig,
    /// Run every simulated mode under the `use_forwarded_value`-recovery
    /// mutation ([`tls_sim::Mutation::SkipForwardRecheck`]) — the shrinker
    /// demo: the fuzzer must catch and minimize the resulting mismatches.
    pub break_forwarded_recovery: bool,
    /// Interpreter step cap (oracle runs; rejects runaway candidates).
    pub max_interp_steps: u64,
    /// Simulator step cap per mode run.
    pub max_sim_steps: u64,
    /// Deliberately panic the worker handling this seed (`--panic-seed`) —
    /// a self-test of panic isolation: the campaign must complete and
    /// report exactly one structured [`par::RunError`].
    pub panic_on_seed: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            gen: GenConfig::default(),
            break_forwarded_recovery: false,
            // Generated programs run a few thousand dynamic instructions;
            // two million steps only triggers on a shrinker-broken loop.
            max_interp_steps: 2_000_000,
            max_sim_steps: 20_000_000,
            panic_on_seed: None,
        }
    }
}

impl FuzzConfig {
    /// Compiler options for generated programs: the paper's heuristics are
    /// tuned for workload-sized loops, so the selection floors are relaxed
    /// to make small random loops eligible for speculation. Frequency
    /// threshold and signal scheduling stay at the paper's values.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            min_coverage: 0.0,
            min_avg_trip: 1.0,
            min_epoch_size: 1.0,
            ..CompileOptions::default()
        }
    }

    fn interp_config(&self) -> InterpConfig {
        InterpConfig {
            max_steps: self.max_interp_steps,
            ..InterpConfig::default()
        }
    }
}

/// How a seed failed. The *signature* (kind + mode, ignoring free-text
/// detail) is what the shrinker preserves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The generated (or shrunk) module failed [`tls_ir::validate`].
    Invalid,
    /// The sequential interpreter could not run the module (step or call
    /// depth limit) — a generator bug, since generated programs terminate
    /// by construction.
    Oracle,
    /// Compilation, oracle recording or the sequential baseline failed.
    Prepare,
    /// A mode's architectural results diverged from sequential execution.
    Mismatch {
        /// The diverging mode's label (`"SEQ-sim"` for the simulator's own
        /// sequential baseline vs the interpreter).
        mode: String,
    },
    /// A mode that must be violation-free reported squashes.
    Violation {
        /// The offending mode's label.
        mode: String,
    },
}

impl FailureKind {
    /// Stable signature for shrinking: two failures with equal signatures
    /// are "the same bug" for minimization purposes.
    pub fn signature(&self) -> String {
        match self {
            FailureKind::Invalid => "invalid".into(),
            FailureKind::Oracle => "oracle".into(),
            FailureKind::Prepare => "prepare".into(),
            FailureKind::Mismatch { mode } => format!("mismatch:{mode}"),
            FailureKind::Violation { mode } => format!("violation:{mode}"),
        }
    }
}

/// A failed check: what went wrong, where, and the full detail string.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class (shrink-stable part).
    pub kind: FailureKind,
    /// Human-readable specifics (first divergence, error text).
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.signature(), self.detail)
    }
}

/// Pipeline coverage of one checked program, aggregated into the campaign
/// report so a green run can prove it exercised speculation at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeedStats {
    /// Speculative regions the compiler selected.
    pub regions: usize,
    /// `SyncLoad`s the compiler inserted (memory-resident forwarding).
    pub sync_loads: usize,
    /// Violations observed across all simulated modes.
    pub violations: u64,
    /// Dynamic instructions of the sequential oracle run.
    pub oracle_steps: u64,
}

fn failure(kind: FailureKind, detail: impl Into<String>) -> Failure {
    Failure {
        kind,
        detail: detail.into(),
    }
}

/// Check one module (its own profile, Quick-style) against the oracle under
/// `modes`. This is the unit the shrinker re-runs; [`check_seed`] layers
/// the two-salt train/ref pairing on top.
///
/// # Errors
/// The first failed property, as a [`Failure`].
pub fn check_module(m: &Module, cfg: &FuzzConfig, modes: &[Mode]) -> Result<SeedStats, Failure> {
    check_pair(m, None, cfg, modes)
}

/// Check a measurement module with an optional train-input variant (same
/// structure, different data) driving the `T` compilation.
///
/// # Errors
/// The first failed property, as a [`Failure`].
pub fn check_pair(
    measure: &Module,
    train: Option<&Module>,
    cfg: &FuzzConfig,
    modes: &[Mode],
) -> Result<SeedStats, Failure> {
    validate(measure).map_err(|e| failure(FailureKind::Invalid, format!("measure: {e}")))?;
    if let Some(t) = train {
        validate(t).map_err(|e| failure(FailureKind::Invalid, format!("train: {e}")))?;
    }

    let mut interp = tls_profile::Interp::new(measure, cfg.interp_config());
    let seq = interp
        .run(&mut tls_profile::NullObserver)
        .map_err(|e| failure(FailureKind::Oracle, format!("sequential interpreter: {e}")))?;
    let oracle = ArchOutcome {
        output: seq.output,
        ret: seq.ret,
        memory: seq.memory,
    };

    let mut h = Harness::from_modules("fuzz", measure, train, &cfg.compile_options()).map_err(
        |e| match e {
            ExperimentError::WrongOutput { mode, detail, .. } => {
                failure(FailureKind::Mismatch { mode }, detail)
            }
            other => failure(FailureKind::Prepare, other.to_string()),
        },
    )?;
    h.base.max_steps = cfg.max_sim_steps;

    // The simulator's own sequential run is itself a differential subject:
    // it must agree with the interpreter before any mode is judged
    // against it.
    if let Some(d) = oracle.diff_outside(&h.seq.output, h.seq.ret, &h.seq.memory, &h.scratch) {
        return Err(failure(
            FailureKind::Mismatch {
                mode: "SEQ-sim".into(),
            },
            d,
        ));
    }

    let mut stats = SeedStats {
        regions: h.set_c.regions.len(),
        sync_loads: h.set_c.report.sync_loads,
        violations: 0,
        oracle_steps: seq.steps,
    };
    for &mode in modes {
        let run = if cfg.break_forwarded_recovery {
            let mut plan = FaultPlan::mutation(Mutation::SkipForwardRecheck);
            h.run_traced(mode, &mut plan.over(NullTracer))
        } else {
            h.run(mode)
        };
        let r = run.map_err(|e| match e {
            ExperimentError::WrongOutput { mode, detail, .. } => {
                failure(FailureKind::Mismatch { mode }, detail)
            }
            other => failure(FailureKind::Prepare, other.to_string()),
        })?;
        // `Harness::run` verified the result against the simulator's
        // sequential baseline, which was verified against the interpreter
        // above; re-check directly so a divergence names the oracle.
        if let Some(d) = oracle.diff_outside(&r.output, r.ret, &r.memory, &h.scratch) {
            return Err(failure(FailureKind::Mismatch { mode: mode.label() }, d));
        }
        stats.violations += r.total_violations;
        // Metamorphic invariant: with every region load perfectly
        // predicted, no inter-epoch dependence can be observed out of
        // order, so no epoch is ever squashed.
        if mode == Mode::OracleAll && r.total_violations != 0 {
            return Err(failure(
                FailureKind::Violation { mode: mode.label() },
                format!(
                    "{} violation(s) despite perfect prediction of every load",
                    r.total_violations
                ),
            ));
        }
    }
    Ok(stats)
}

/// Generate the seed's ref/train module pair and run the full check.
///
/// # Errors
/// The first failed property, as a [`Failure`].
pub fn check_seed(seed: u64, cfg: &FuzzConfig) -> Result<SeedStats, Failure> {
    let measure = generate(seed, &cfg.gen, 0);
    let train = generate(seed, &cfg.gen, 1);
    // A zero-epoch program trivially satisfies every differential property
    // — the generator emitting one is a bug, not a passing seed. Checked
    // here rather than in `check_module` so the shrinker may still
    // straighten loops while minimizing (the failure signature, not the
    // loop, is what shrinking preserves).
    validate_epochs(&measure)
        .map_err(|e| failure(FailureKind::Invalid, format!("measure: {e}")))?;
    check_pair(&measure, Some(&train), cfg, &ALL_MODES)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Upper bound on candidate evaluations per shrink (each candidate re-runs
/// compile + profile + the failing mode).
const SHRINK_BUDGET: usize = 2_000;

/// Minimize `m` while it keeps failing with `signature` under `modes`.
///
/// Classic greedy delta-debugging over the IR: repeatedly try removal
/// transformations (drop an instruction, straighten a branch, empty a
/// block, zero a global's initializer, gut a non-entry function), keep a
/// candidate only if it still validates — or still fails validation when
/// the signature *is* `invalid` — and reproduces the same failure
/// signature, and iterate to a fixpoint. Candidates that hit interpreter
/// or simulator step limits produce a different signature and are
/// rejected, so loop-breaking edits are filtered automatically.
pub fn shrink_module(m: &Module, cfg: &FuzzConfig, signature: &str, modes: &[Mode]) -> Module {
    // Shrink-time step caps are tightened: a candidate whose counter
    // update was deleted spins until the cap, and the full caps would
    // make each such candidate cost seconds.
    let cfg = FuzzConfig {
        max_interp_steps: cfg.max_interp_steps.min(300_000),
        max_sim_steps: cfg.max_sim_steps.min(3_000_000),
        ..cfg.clone()
    };
    let still_fails = |c: &Module| match check_module(c, &cfg, modes) {
        Err(f) => f.kind.signature() == signature,
        Ok(_) => false,
    };
    let mut best = m.clone();
    let mut budget = SHRINK_BUDGET;
    loop {
        let before = best.static_instr_count();
        for pass in [
            Pass::GutFunction,
            Pass::EmptyBlock,
            Pass::StraightenBranch,
            Pass::DropInstr,
            Pass::ZeroGlobal,
        ] {
            apply_pass(&mut best, pass, &still_fails, &mut budget);
            if budget == 0 {
                return best;
            }
        }
        if best.static_instr_count() == before {
            return best;
        }
    }
}

#[derive(Clone, Copy)]
enum Pass {
    DropInstr,
    StraightenBranch,
    EmptyBlock,
    ZeroGlobal,
    GutFunction,
}

fn try_candidate(
    best: &mut Module,
    c: Module,
    still_fails: &impl Fn(&Module) -> bool,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if still_fails(&c) {
        *best = c;
        true
    } else {
        false
    }
}

fn apply_pass(
    best: &mut Module,
    pass: Pass,
    still_fails: &impl Fn(&Module) -> bool,
    budget: &mut usize,
) {
    match pass {
        Pass::DropInstr => {
            for f in 0..best.funcs.len() {
                for b in 0..best.funcs[f].blocks.len() {
                    // Reverse order so earlier indices stay valid after a
                    // successful removal.
                    let mut i = best.funcs[f].blocks[b].instrs.len();
                    while i > 0 {
                        i -= 1;
                        let mut c = best.clone();
                        c.funcs[f].blocks[b].instrs.remove(i);
                        try_candidate(best, c, still_fails, budget);
                        if *budget == 0 {
                            return;
                        }
                    }
                }
            }
        }
        Pass::StraightenBranch => {
            for f in 0..best.funcs.len() {
                for b in 0..best.funcs[f].blocks.len() {
                    let Some(Terminator::Br { t, f: fb, .. }) = best.funcs[f].blocks[b].term else {
                        continue;
                    };
                    for target in [t, fb] {
                        let mut c = best.clone();
                        c.funcs[f].blocks[b].term = Some(Terminator::Jump(target));
                        if try_candidate(best, c, still_fails, budget) {
                            break;
                        }
                        if *budget == 0 {
                            return;
                        }
                    }
                }
            }
        }
        Pass::EmptyBlock => {
            for f in 0..best.funcs.len() {
                for b in 0..best.funcs[f].blocks.len() {
                    if best.funcs[f].blocks[b].instrs.is_empty() {
                        continue;
                    }
                    let mut c = best.clone();
                    c.funcs[f].blocks[b].instrs.clear();
                    try_candidate(best, c, still_fails, budget);
                    if *budget == 0 {
                        return;
                    }
                }
            }
        }
        Pass::ZeroGlobal => {
            for g in 0..best.globals.len() {
                if best.globals[g].init.iter().all(|&w| w == 0) {
                    continue;
                }
                let mut c = best.clone();
                c.globals[g].init.clear();
                try_candidate(best, c, still_fails, budget);
                if *budget == 0 {
                    return;
                }
            }
        }
        Pass::GutFunction => {
            // Reduce a whole non-entry function to `ret 0`; calls to it
            // become cheap no-ops. Callers keep their call instructions, so
            // this only survives when the callee's behaviour is irrelevant
            // to the failure.
            for f in 0..best.funcs.len() {
                if tls_ir::FuncId(f as u32) == best.entry {
                    continue;
                }
                if best.funcs[f].blocks.len() == 1 && best.funcs[f].blocks[0].instrs.is_empty() {
                    continue;
                }
                let mut c = best.clone();
                let func = &mut c.funcs[f];
                func.blocks.truncate(1);
                func.blocks[0].instrs.clear();
                func.blocks[0].term = Some(Terminator::Ret(Some(Operand::Const(0))));
                try_candidate(best, c, still_fails, budget);
                if *budget == 0 {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// One failing seed of a campaign, with its minimized reproducer.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The generator seed.
    pub seed: u64,
    /// What went wrong.
    pub failure: Failure,
    /// Static instruction count before shrinking.
    pub original_instrs: usize,
    /// The minimized module (equal to the original when the failure only
    /// reproduces with the train/ref pair, which the shrinker skips).
    pub minimized: Module,
    /// Path the artifact was written to, if an output directory was given.
    pub artifact: Option<String>,
}

/// Aggregate outcome of a fuzzing campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Seeds checked.
    pub iters: u64,
    /// Failing seeds, in seed order.
    pub failures: Vec<FuzzFailure>,
    /// Workers that panicked instead of returning a verdict; the rest of
    /// the campaign still completed (see [`par::par_map_isolated`]).
    pub run_errors: Vec<par::RunError>,
    /// Seeds whose compilation selected at least one speculative region.
    pub seeds_with_regions: u64,
    /// Seeds with at least one compiler-inserted synchronized load.
    pub seeds_with_sync_loads: u64,
    /// Seeds that saw at least one violation in some mode (speculation
    /// actually failed and recovered somewhere).
    pub seeds_with_violations: u64,
    /// Total dynamic instructions interpreted across all oracle runs.
    pub oracle_steps: u64,
}

impl FuzzReport {
    /// Human-readable one-paragraph summary.
    pub fn summary(&self) -> String {
        format!(
            "{} seed(s): {} failure(s), {} worker error(s); {} with regions, \
             {} with sync loads, {} with violations; {} oracle steps",
            self.iters,
            self.failures.len(),
            self.run_errors.len(),
            self.seeds_with_regions,
            self.seeds_with_sync_loads,
            self.seeds_with_violations,
            self.oracle_steps
        )
    }
}

/// Render a failing module as a replayable text artifact: `#` header lines
/// (ignored by [`tls_ir::serial::parse`]) followed by the serialized module.
pub fn artifact_text(f: &FuzzFailure) -> String {
    format!(
        "# tls-fuzz failure artifact\n\
         # seed: {}\n\
         # failure: {}\n\
         # instrs: {} original, {} minimized\n\
         # replay: repro fuzz --replay <this file>\n\
         {}",
        f.seed,
        f.failure,
        f.original_instrs,
        f.minimized.static_instr_count(),
        serial::to_text(&f.minimized)
    )
}

/// Run `iters` seeds starting at `seed0`; shrink each failure and, when
/// `out_dir` is given, write its artifact there.
///
/// Seeds fan out over [`par::par_map_isolated`]: a panicking worker is
/// captured as a [`par::RunError`] and the rest of the campaign completes.
/// Campaigns that must survive a crash run through `repro campaign fuzz`
/// ([`crate::orchestrate`]), which journals, resumes and retries shards.
pub fn run_fuzz(seed0: u64, iters: u64, cfg: &FuzzConfig, out_dir: Option<&Path>) -> FuzzReport {
    let campaign = std::time::Instant::now();
    let seeds: Vec<u64> = (0..iters).map(|i| seed0.wrapping_add(i)).collect();
    let outcomes = par::par_map_isolated(
        seeds.clone(),
        |_, seed| format!("fuzz seed {seed}"),
        |_, seed| {
            if cfg.panic_on_seed == Some(seed) {
                panic!("deliberate worker panic on seed {seed} (--panic-seed)");
            }
            check_seed(seed, cfg)
        },
    );
    let mut report = FuzzReport {
        iters,
        ..FuzzReport::default()
    };
    for (seed, outcome) in seeds.into_iter().zip(outcomes) {
        match outcome {
            Ok(Ok(stats)) => {
                report.seeds_with_regions += u64::from(stats.regions > 0);
                report.seeds_with_sync_loads += u64::from(stats.sync_loads > 0);
                report.seeds_with_violations += u64::from(stats.violations > 0);
                report.oracle_steps += stats.oracle_steps;
            }
            Ok(Err(f)) => report.failures.push(shrink_failure(seed, f, cfg, out_dir)),
            Err(e) => report.run_errors.push(e),
        }
    }
    crate::metrics::set_gauge(
        "fuzz.seeds_per_sec",
        iters as f64 / campaign.elapsed().as_secs_f64().max(1e-9),
    );
    report
}

fn shrink_failure(seed: u64, f: Failure, cfg: &FuzzConfig, out_dir: Option<&Path>) -> FuzzFailure {
    let measure = generate(seed, &cfg.gen, 0);
    let signature = f.kind.signature();
    // Shrinking operates on the single measurement module: re-check whether
    // the failure reproduces without the separate train profile, and if so
    // minimize against the failing mode only (much cheaper than the full
    // matrix per candidate).
    let failing_mode = match &f.kind {
        FailureKind::Mismatch { mode } | FailureKind::Violation { mode } => ALL_MODES
            .iter()
            .copied()
            .find(|m| m.label() == *mode)
            .map(|m| vec![m]),
        _ => None,
    }
    .unwrap_or_else(|| ALL_MODES.to_vec());
    let reproduces = matches!(
        check_module(&measure, cfg, &failing_mode),
        Err(ref g) if g.kind.signature() == signature
    );
    let minimized = if reproduces {
        shrink_module(&measure, cfg, &signature, &failing_mode)
    } else {
        measure.clone()
    };
    let mut out = FuzzFailure {
        seed,
        failure: f,
        original_instrs: measure.static_instr_count(),
        minimized,
        artifact: None,
    };
    if let Some(dir) = out_dir {
        let path = dir.join(format!(
            "seed_{seed}_{}.txt",
            slug(&out.failure.kind.signature())
        ));
        // Artifact-write failures must not kill the campaign: warn and move
        // on — the failure itself is still in the report.
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, artifact_text(&out)))
        {
            Ok(()) => out.artifact = Some(path.display().to_string()),
            Err(e) => eprintln!(
                "warning: failed to write fuzz artifact {}: {e}",
                path.display()
            ),
        }
    }
    out
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Parse a `results/fuzz/` artifact and re-run the full check on it.
///
/// # Errors
/// `Err(String)` when the file cannot be read or parsed; `Ok(Err(f))` when
/// the module still fails (the expected outcome for an unfixed bug).
pub fn replay(path: &Path, cfg: &FuzzConfig) -> Result<Result<SeedStats, Failure>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let m = serial::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok(check_module(&m, cfg, &ALL_MODES))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seed_passes_full_matrix() {
        let cfg = FuzzConfig::default();
        let stats = check_seed(3, &cfg).expect("seed 3 is green");
        assert!(stats.oracle_steps > 0);
    }

    #[test]
    fn fault_injection_is_caught() {
        let cfg = FuzzConfig {
            break_forwarded_recovery: true,
            ..FuzzConfig::default()
        };
        // Not every program triggers forwarding with a mismatched address;
        // scan a few seeds and require at least one catch.
        let caught = (0..20).any(|s| {
            matches!(
                check_seed(s, &cfg),
                Err(Failure {
                    kind: FailureKind::Mismatch { .. },
                    ..
                })
            )
        });
        assert!(caught, "injected recovery fault never detected in 20 seeds");
    }

    #[test]
    fn panicking_seed_is_isolated() {
        let cfg = FuzzConfig {
            panic_on_seed: Some(2),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(1, 4, &cfg, None);
        assert_eq!(report.run_errors.len(), 1, "exactly one worker died");
        assert!(report.run_errors[0]
            .detail
            .contains("deliberate worker panic"));
        assert_eq!(report.run_errors[0].label, "fuzz seed 2");
        assert!(
            report.failures.is_empty(),
            "a panic is not a property failure"
        );
        assert_eq!(report.seeds_with_regions, 3, "the other seeds still ran");
    }

    #[test]
    fn signature_is_stable_under_detail_changes() {
        let a = FailureKind::Mismatch { mode: "C".into() };
        let b = FailureKind::Mismatch { mode: "C".into() };
        assert_eq!(a.signature(), b.signature());
        assert_ne!(
            a.signature(),
            FailureKind::Violation { mode: "C".into() }.signature()
        );
    }
}
