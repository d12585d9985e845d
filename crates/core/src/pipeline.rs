//! The end-to-end TLS compilation pipeline (§3.1).
//!
//! [`compile_all`] produces, from one program:
//!
//! * `seq` — the untouched program with the selected regions *marked* (the
//!   sequential baseline, used for normalization);
//! * `unsync` — unrolled + scalar synchronization only (the paper's `U`
//!   bars);
//! * `synced` — `unsync` plus memory-resident synchronization driven by a
//!   dependence profile (the `C` bars when profiled on the same input, the
//!   `T` bars when profiled on the train input).
//!
//! The profile input must be a module with *identical code* (same static
//! ids) — typically the same workload built with a different input set.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use tls_analysis::{induction::induction_vars, loops::find_loops, Cfg, Dominators};
use tls_ir::{Module, RegionId, Sid, SpecRegion, Var};
use tls_profile::{profile_module, DepProfile, ExecError, LoopKey};

use crate::memsync::insert_memory_sync;
use crate::options::{CompileOptions, CompileReport, RegionSummary};
use crate::scalar::insert_scalar_sync;
use crate::select::select_regions;
use crate::unroll::{unroll_factor, unroll_loop};

/// Why compilation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Profiling execution aborted.
    Profile(ExecError),
    /// The produced module failed validation (a pass bug).
    Invalid(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Profile(e) => write!(f, "profiling failed: {e}"),
            CompileError::Invalid(e) => write!(f, "transformed module invalid: {e}"),
        }
    }
}

impl Error for CompileError {}

impl From<ExecError> for CompileError {
    fn from(e: ExecError) -> Self {
        CompileError::Profile(e)
    }
}

/// Everything [`compile_all`] produces.
#[derive(Clone, Debug)]
pub struct CompilationSet {
    /// Sequential baseline: original code, regions marked for attribution.
    pub seq: Module,
    /// `U`: unrolled + scalar synchronization, no memory synchronization.
    pub unsync: Module,
    /// Fully synchronized module (`C`/`T` depending on the profile input).
    pub synced: Module,
    /// Original sids of loads the compiler chose to synchronize, valid in
    /// `unsync` (the Figure 11 marking set).
    pub marked_loads: HashSet<Sid>,
    /// Selected regions, in region-id order.
    pub regions: Vec<RegionSummary>,
    /// Size/effect report.
    pub report: CompileReport,
    /// The dependence profile used for synchronization decisions (of the
    /// unrolled profile module); reused by threshold studies.
    pub dep_profile: DepProfile,
}

/// Run the full pipeline.
///
/// `code` is the program to transform; `profile_input` is a module with
/// identical code whose execution drives all profiling (pass `code` itself
/// for same-input profiling, i.e. the paper's `C` configuration).
///
/// # Errors
/// Returns [`CompileError`] if profiling runs or validation fail.
pub fn compile_all(
    code: &Module,
    profile_input: &Module,
    opts: &CompileOptions,
) -> Result<CompilationSet, CompileError> {
    let prof1 = profile_module(profile_input)?;
    let selected = select_regions(
        code,
        &prof1,
        4,
        opts.min_coverage,
        opts.min_avg_trip,
        opts.min_epoch_size,
        opts.only_loops.as_deref(),
    );

    // Sequential baseline: mark regions on the original code.
    let mut seq = code.clone();
    for (i, sel) in selected.iter().enumerate() {
        let blocks = loop_blocks_of(&seq, sel.key).unwrap_or_default();
        seq.regions.push(SpecRegion {
            id: RegionId(i as u32),
            func: sel.key.func,
            header: sel.key.header,
            blocks,
            unroll: 1,
        });
    }

    // Working copies: `base` will be transformed; `pbase` mirrors it with
    // the profile input's data so the dependence profile has matching sids.
    let mut base = code.clone();
    let mut pbase = profile_input.clone();
    let mut summaries = Vec::new();
    let mut report = CompileReport {
        static_before: code.static_instr_count(),
        ..CompileReport::default()
    };
    struct RegionPlan {
        key: LoopKey,
        blocks: Vec<tls_ir::BlockId>,
        inductions: Vec<(Var, i64)>,
    }
    let mut plans: Vec<RegionPlan> = Vec::new();

    for (i, sel) in selected.iter().enumerate() {
        // Pre-unroll loop structure + induction detection.
        let (lp, inductions) = {
            let f = base.func(sel.key.func);
            let cfg = Cfg::new(f);
            let dom = Dominators::new(f, &cfg);
            let lp = find_loops(f, &cfg, &dom)
                .into_iter()
                .find(|l| l.header == sel.key.header)
                .expect("selected loop exists");
            let ivs: Vec<(Var, i64)> = induction_vars(f, &lp, &dom)
                .into_iter()
                .map(|iv| (iv.var, iv.step))
                .collect();
            (lp, ivs)
        };
        let factor = if opts.unroll_small_loops {
            unroll_factor(sel.avg_epoch_size, opts.unroll_target, opts.max_unroll)
        } else {
            1
        };
        let blocks = unroll_loop(&mut base, sel.key.func, &lp, factor);
        let pblocks = unroll_loop(&mut pbase, sel.key.func, &lp, factor);
        debug_assert_eq!(blocks, pblocks, "mirror modules diverged");
        debug_assert_eq!(base.next_sid, pbase.next_sid, "sid streams diverged");
        let region = SpecRegion {
            id: RegionId(i as u32),
            func: sel.key.func,
            header: sel.key.header,
            blocks: blocks.clone(),
            unroll: factor,
        };
        base.regions.push(region.clone());
        pbase.regions.push(region);
        summaries.push(RegionSummary {
            id: RegionId(i as u32),
            loop_key: sel.key,
            coverage: sel.coverage,
            avg_trip: sel.avg_trip,
            avg_epoch_size: sel.avg_epoch_size,
            unroll: factor,
        });
        plans.push(RegionPlan {
            key: sel.key,
            blocks,
            inductions: inductions
                .into_iter()
                .map(|(v, s)| (v, s * factor as i64))
                .collect(),
        });
    }

    // Scalar synchronization (U and beyond).
    for plan in &plans {
        let r = insert_scalar_sync(
            &mut base,
            plan.key.func,
            plan.key.header,
            &plan.blocks,
            &plan.inductions,
            opts.schedule_signals,
        );
        report.scalar_channels += r.channels;
        report.privatized += r.privatized;
    }
    let unsync = base.clone();
    tls_ir::validate(&unsync).map_err(|e| CompileError::Invalid(e.to_string()))?;

    // Dependence profile of the unrolled code on the profile input.
    let dep_profile = profile_module(&pbase)?;

    // Memory synchronization.
    let mut synced = base;
    let mut marked_loads: HashSet<Sid> = HashSet::new();
    if opts.insert_memory_sync {
        for plan in &plans {
            let Some(lprof) = dep_profile.loops.get(&plan.key) else {
                continue;
            };
            let stats = insert_memory_sync(
                &mut synced,
                plan.key.func,
                plan.key.header,
                &plan.blocks,
                lprof,
                &dep_profile,
                opts.freq_threshold,
                opts.schedule_signals,
            );
            report.groups += stats.groups;
            report.sync_loads += stats.sync_loads;
            report.signalled_stores += stats.signalled_stores;
            report.clones += stats.clones;
            marked_loads.extend(stats.marked_loads);
        }
        refresh_region_blocks(&mut synced);
    }
    report.static_after = synced.static_instr_count();
    tls_ir::validate(&synced).map_err(|e| CompileError::Invalid(e.to_string()))?;

    Ok(CompilationSet {
        seq,
        unsync,
        synced,
        marked_loads,
        regions: summaries,
        report,
        dep_profile,
    })
}

/// The loads of the selected regions whose inter-epoch dependence frequency
/// exceeds `threshold` — the per-threshold load sets of the Figure 6 study.
/// Sids refer to the module the profile was taken from (the `unsync`
/// module's numbering).
pub fn loads_above_threshold(
    profile: &DepProfile,
    regions: &[RegionSummary],
    threshold: f64,
) -> HashSet<Sid> {
    let mut out = HashSet::new();
    for r in regions {
        let Some(lp) = profile.loops.get(&r.loop_key) else {
            continue;
        };
        if lp.total_iters == 0 {
            continue;
        }
        for (sid, epochs) in &lp.load_dep_epochs_by_sid {
            if *epochs as f64 / lp.total_iters as f64 > threshold {
                out.insert(*sid);
            }
        }
    }
    out
}

fn loop_blocks_of(module: &Module, key: LoopKey) -> Option<Vec<tls_ir::BlockId>> {
    let f = module.func(key.func);
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    find_loops(f, &cfg, &dom)
        .into_iter()
        .find(|l| l.header == key.header)
        .map(|l| l.blocks.into_iter().collect())
}

/// Recompute each region's block set from the (possibly transformed) CFG.
fn refresh_region_blocks(module: &mut Module) {
    let updates: Vec<(usize, Vec<tls_ir::BlockId>)> = module
        .regions
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            loop_blocks_of(
                module,
                LoopKey {
                    func: r.func,
                    header: r.header,
                },
            )
            .map(|b| (i, b))
        })
        .collect();
    for (i, blocks) in updates {
        module.regions[i].blocks = blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};
    use tls_profile::run_sequential;
    use tls_sim::{Machine, SimConfig};

    /// The paper's Figure 4 pattern: a parallelized loop whose body calls a
    /// procedure that reads and writes a global (`free_list`-like), plus an
    /// independent array update for substance.
    fn figure4_like(n: i64, seed: i64) -> Module {
        let mut mb = ModuleBuilder::new();
        let shared = mb.add_global("free_list", 1, vec![seed]);
        let arr = mb.add_global("arr", 512, vec![]);
        let bump = mb.declare("bump", 1);
        let main = mb.declare("main", 0);

        let mut fb = mb.define(bump);
        let d = fb.param(0);
        let v = fb.var("v");
        fb.load(v, shared, 0);
        fb.bin(v, BinOp::Add, v, d);
        fb.store(v, shared, 0);
        fb.ret(Some(Operand::Var(v)));
        fb.finish();

        let mut fb = mb.define(main);
        let (i, c, p, w, t) = (
            fb.var("i"),
            fb.var("c"),
            fb.var("p"),
            fb.var("w"),
            fb.var("t"),
        );
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.call(Some(t), bump, vec![Operand::Const(1)]);
        // Independent work on a private array slot.
        fb.bin(p, BinOp::Add, Operand::Global(arr), i);
        fb.assign(w, Operand::Var(i));
        for _ in 0..10 {
            fb.bin(w, BinOp::Mul, w, 5);
            fb.bin(w, BinOp::Add, w, 3);
        }
        fb.store(w, p, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, shared, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        mb.build().expect("valid")
    }

    fn default_opts() -> CompileOptions {
        CompileOptions {
            min_epoch_size: 5.0,
            ..CompileOptions::default()
        }
    }

    #[test]
    fn pipeline_produces_equivalent_modules() {
        let code = figure4_like(60, 7);
        let reference = run_sequential(&code).expect("runs");
        let set = compile_all(&code, &code, &default_opts()).expect("compiles");
        for (name, m) in [
            ("seq", &set.seq),
            ("unsync", &set.unsync),
            ("synced", &set.synced),
        ] {
            let r = run_sequential(m).expect("runs");
            assert_eq!(r.output, reference.output, "{name} diverged sequentially");
        }
        assert_eq!(set.regions.len(), 1);
        assert!(set.report.groups >= 1, "{:?}", set.report);
        assert!(set.report.sync_loads >= 1);
        assert!(set.report.signalled_stores >= 1);
        assert!(set.report.clones >= 1, "bump must be cloned");
        assert!(!set.marked_loads.is_empty());
        // On a ~45-instruction toy the fixed synchronization scaffolding
        // dominates, so the ratio is far above the paper's <1 % (which is
        // relative to SPEC-sized code); just bound it loosely here. The
        // workload-scale growth is checked in the integration tests.
        assert!(
            set.report.code_growth() < 3.0,
            "code growth {:.2} too large",
            set.report.code_growth()
        );
    }

    #[test]
    fn synchronization_beats_plain_speculation_under_tls() {
        let code = figure4_like(80, 3);
        let set = compile_all(&code, &code, &default_opts()).expect("compiles");
        let reference = run_sequential(&code).expect("runs");
        let u = Machine::new(&set.unsync, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let c = Machine::new(&set.synced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(u.output, reference.output, "U must stay correct");
        assert_eq!(c.output, reference.output, "C must stay correct");
        assert!(
            c.total_violations < u.total_violations,
            "C {} vs U {} violations",
            c.total_violations,
            u.total_violations
        );
        let rid = tls_ir::RegionId(0);
        assert!(
            c.regions[&rid].slots.fail < u.regions[&rid].slots.fail,
            "fail slots must shrink: C {} vs U {}",
            c.regions[&rid].slots.fail,
            u.regions[&rid].slots.fail
        );
    }

    #[test]
    fn train_profile_still_produces_correct_code() {
        // Different input (seed/size) for profiling: the paper's T bars.
        let ref_code = figure4_like(80, 3);
        let train_code = figure4_like(30, 11);
        let set = compile_all(&ref_code, &train_code, &default_opts()).expect("compiles");
        let reference = run_sequential(&ref_code).expect("runs");
        let t = Machine::new(&set.synced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(t.output, reference.output);
        assert!(
            set.report.sync_loads >= 1,
            "train profile finds the dep too"
        );
    }

    #[test]
    fn threshold_study_orders_load_sets_by_inclusion() {
        let code = figure4_like(60, 7);
        let set = compile_all(&code, &code, &default_opts()).expect("compiles");
        let l5 = loads_above_threshold(&set.dep_profile, &set.regions, 0.05);
        let l15 = loads_above_threshold(&set.dep_profile, &set.regions, 0.15);
        let l25 = loads_above_threshold(&set.dep_profile, &set.regions, 0.25);
        assert!(l25.is_subset(&l15) && l15.is_subset(&l5));
        assert!(!l5.is_empty(), "the free-list load depends every epoch");
    }

    #[test]
    fn memory_sync_can_be_disabled_for_the_u_configuration() {
        let code = figure4_like(40, 1);
        let opts = CompileOptions {
            insert_memory_sync: false,
            ..default_opts()
        };
        let set = compile_all(&code, &code, &opts).expect("compiles");
        assert_eq!(set.report.groups, 0);
        assert_eq!(set.report.sync_loads, 0);
        // unsync and synced are the same program in this configuration.
        let a = run_sequential(&set.unsync).expect("runs");
        let b = run_sequential(&set.synced).expect("runs");
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn late_signalling_ablation_is_correct_but_slower() {
        let code = figure4_like(80, 3);
        let early = compile_all(&code, &code, &default_opts()).expect("compiles");
        let late_opts = CompileOptions {
            schedule_signals: false,
            ..default_opts()
        };
        let late = compile_all(&code, &code, &late_opts).expect("compiles");
        let reference = run_sequential(&code).expect("runs");
        let e = Machine::new(&early.synced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let l = Machine::new(&late.synced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(e.output, reference.output);
        assert_eq!(l.output, reference.output);
        let rid = tls_ir::RegionId(0);
        assert!(
            e.regions[&rid].cycles <= l.regions[&rid].cycles,
            "early signalling should not be slower: {} vs {}",
            e.regions[&rid].cycles,
            l.regions[&rid].cycles
        );
    }
}

#[cfg(test)]
mod unroll_pipeline_tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};
    use tls_profile::run_sequential;
    use tls_sim::{Machine, SimConfig};

    /// A loop with tiny (~8-instruction) epochs: the paper unrolls such
    /// loops so spawn/commit overheads amortize.
    fn tiny_epochs(n: i64) -> Module {
        let mut mb = ModuleBuilder::new();
        let arr = mb.add_global("arr", n as u64, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, c, p, v) = (fb.var("i"), fb.var("c"), fb.var("p"), fb.var("v"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(p, BinOp::Add, Operand::Global(arr), i);
        fb.bin(v, BinOp::Mul, i, 3);
        fb.bin(v, BinOp::Add, v, 7);
        fb.store(v, p, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        let (s, q, t, cc) = (fb.var("s"), fb.var("q"), fb.var("t"), fb.var("cc"));
        fb.assign(s, 0);
        fb.assign(q, 0);
        let rh = fb.block("rh");
        let rb = fb.block("rb");
        let re = fb.block("re");
        fb.jump(rh);
        fb.switch_to(rh);
        fb.bin(cc, BinOp::Lt, q, n);
        fb.br(cc, rb, re);
        fb.switch_to(rb);
        fb.bin(t, BinOp::Add, Operand::Global(arr), q);
        fb.load(t, t, 0);
        fb.bin(s, BinOp::Xor, s, t);
        fb.bin(q, BinOp::Add, q, 1);
        fb.jump(rh);
        fb.switch_to(re);
        fb.output(s);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    fn opts(unroll: bool) -> CompileOptions {
        CompileOptions {
            min_coverage: 0.0,
            min_avg_trip: 1.0,
            min_epoch_size: 1.0,
            unroll_small_loops: unroll,
            ..CompileOptions::default()
        }
    }

    #[test]
    fn unrolling_amortizes_per_epoch_overheads() {
        let code = tiny_epochs(256);
        let reference = run_sequential(&code).expect("runs");
        let rolled = compile_all(&code, &code, &opts(false)).expect("compiles");
        let unrolled = compile_all(&code, &code, &opts(true)).expect("compiles");
        assert_eq!(rolled.regions[0].unroll, 1);
        assert!(
            unrolled.regions[0].unroll >= 2,
            "a ~8-instruction epoch must be unrolled (got {})",
            unrolled.regions[0].unroll
        );
        let r = Machine::new(&rolled.unsync, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let u = Machine::new(&unrolled.unsync, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(r.output, reference.output);
        assert_eq!(u.output, reference.output);
        // Unrolling merges iterations into epochs: fewer epochs, less
        // spawn/commit overhead per iteration.
        let re = r.regions.values().next().expect("region").epochs;
        let ue = u.regions.values().next().expect("region").epochs;
        assert!(
            ue * 2 <= re,
            "unrolling must reduce the epoch count ({ue} vs {re})"
        );
        assert!(
            u.region_cycles() < r.region_cycles(),
            "unrolled region ({}) must beat rolled ({})",
            u.region_cycles(),
            r.region_cycles()
        );
    }
}
