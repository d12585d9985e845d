//! Simple induction-variable detection.
//!
//! A loop-carried scalar whose only in-loop definition is `v = v ± c` (with
//! `c` constant), sitting in a block that executes exactly once per
//! iteration (dominates every latch), can be *privatized*: epoch `k`
//! computes `v = v₀ + k·step` locally instead of waiting for the previous
//! epoch. Without this, every parallelized loop would serialize on its
//! counter.

use std::collections::HashMap;

use tls_ir::{BinOp, BlockId, Function, Instr, Operand, Var};

use crate::dom::Dominators;
use crate::loops::NaturalLoop;

/// A privatizable induction variable of a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InductionVar {
    /// The register.
    pub var: Var,
    /// Per-iteration increment (negative for down-counting loops).
    pub step: i64,
    /// Block holding the single update.
    pub update_block: BlockId,
    /// Index of the update instruction within `update_block`.
    pub update_index: usize,
}

/// Find the simple induction variables of `lp`.
///
/// A variable qualifies when it has exactly one definition inside the loop,
/// of the form `v = add v, c` / `v = sub v, c`, in a block that dominates
/// every latch (so it runs exactly once per iteration).
pub fn induction_vars(func: &Function, lp: &NaturalLoop, dom: &Dominators) -> Vec<InductionVar> {
    // Count all in-loop defs per var, and remember candidate updates.
    let mut def_count: HashMap<Var, usize> = HashMap::new();
    let mut candidate: HashMap<Var, InductionVar> = HashMap::new();
    for &b in &lp.blocks {
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            let Some(dst) = instr.def() else { continue };
            *def_count.entry(dst).or_insert(0) += 1;
            if let Instr::Bin {
                dst: d,
                op,
                a: Operand::Var(src),
                b: Operand::Const(c),
            } = instr
            {
                if *src == *d {
                    let step = match op {
                        BinOp::Add => Some(*c),
                        BinOp::Sub => Some(-*c),
                        _ => None,
                    };
                    if let Some(step) = step {
                        candidate.insert(
                            *d,
                            InductionVar {
                                var: *d,
                                step,
                                update_block: b,
                                update_index: i,
                            },
                        );
                    }
                }
            }
        }
    }
    let mut out: Vec<InductionVar> = candidate
        .into_values()
        .filter(|iv| {
            def_count[&iv.var] == 1
                && lp
                    .latches
                    .iter()
                    .all(|&latch| dom.dominates(iv.update_block, latch))
        })
        .collect();
    out.sort_by_key(|iv| iv.var);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::loops::find_loops;
    use tls_ir::{ModuleBuilder, Operand};

    /// Loop with: i += 1 (induction), j -= 2 (induction), acc = acc + i
    /// (not induction: non-const addend), k += 1 but only on one path
    /// (not induction: update doesn't dominate the latch).
    fn build() -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let n = fb.var("n");
        let i = fb.var("i");
        let j = fb.var("j");
        let acc = fb.var("acc");
        let k = fb.var("k");
        let c = fb.var("c");
        let head = fb.block("head");
        let body = fb.block("body");
        let then = fb.block("then");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.assign(j, 100);
        fb.assign(acc, 0);
        fb.assign(k, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(i, BinOp::Add, i, 1);
        fb.bin(j, BinOp::Sub, j, 2);
        fb.bin(acc, BinOp::Add, acc, i);
        fb.br(c, then, latch);
        fb.switch_to(then);
        fb.bin(k, BinOp::Add, k, 1);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Var(acc)));
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn detects_only_true_induction_vars() {
        let m = build();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        let ivs = induction_vars(func, &loops[0], &dom);
        let vars: Vec<(Var, i64)> = ivs.iter().map(|iv| (iv.var, iv.step)).collect();
        // i is Var(1), j is Var(2); acc (3) and k (4) must be excluded.
        assert_eq!(vars, vec![(Var(1), 1), (Var(2), -2)]);
        assert_eq!(ivs[0].update_block, BlockId(2));
    }

    #[test]
    fn multiple_defs_disqualify() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let i = fb.var("i");
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.br(p, body, exit);
        fb.switch_to(body);
        fb.bin(i, BinOp::Add, i, 1);
        fb.bin(i, BinOp::Add, i, 1); // second def
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        assert!(induction_vars(func, &loops[0], &dom).is_empty());
    }
}
