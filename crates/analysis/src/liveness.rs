//! Backward liveness of virtual registers.
//!
//! Scalar synchronization (§2.1) targets *communicating scalars*: registers
//! that are live across epoch boundaries. This analysis provides per-block
//! live-in/live-out sets; `tls-core` combines them with the loop structure
//! to find loop-carried scalars.

use tls_ir::{Block, BlockId, Function, Var};

use crate::bitset::BitSet;
use crate::cfg::Cfg;

/// Per-block liveness sets for one function.
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    num_vars: usize,
}

impl Liveness {
    /// Compute liveness for `func` over its `cfg`.
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        let n = func.blocks.len();
        let nv = func.num_vars;
        let mut gen = Vec::with_capacity(n);
        let mut kill = Vec::with_capacity(n);
        for block in &func.blocks {
            let (g, k) = gen_kill(block, nv);
            gen.push(g);
            kill.push(k);
        }
        let mut live_in = vec![BitSet::new(nv); n];
        let mut live_out = vec![BitSet::new(nv); n];
        // Iterate to fixpoint in postorder (reverse RPO) for fast convergence.
        let order: Vec<BlockId> = cfg.rpo().iter().rev().copied().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let bi = b.index();
                let mut out = BitSet::new(nv);
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inp = out.clone();
                inp.subtract(&kill[bi]);
                inp.union_with(&gen[bi]);
                if out != live_out[bi] || inp != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inp;
                    changed = true;
                }
            }
        }
        Self {
            live_in,
            live_out,
            num_vars: nv,
        }
    }

    /// Registers live at the entry of `b`.
    pub fn live_in(&self, b: BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Registers live at the exit of `b`.
    pub fn live_out(&self, b: BlockId) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// Number of registers the sets range over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }
}

/// Upward-exposed uses (`gen`) and definitions (`kill`) of one block,
/// including the terminator's uses.
fn gen_kill(block: &Block, num_vars: usize) -> (BitSet, BitSet) {
    let mut gen = BitSet::new(num_vars);
    let mut kill = BitSet::new(num_vars);
    let use_var = |v: Var, kill: &BitSet, gen: &mut BitSet| {
        if !kill.contains(v.index()) {
            gen.insert(v.index());
        }
    };
    for instr in &block.instrs {
        for v in instr.uses() {
            use_var(v, &kill, &mut gen);
        }
        if let Some(d) = instr.def() {
            kill.insert(d.index());
        }
    }
    if let Some(t) = &block.term {
        for v in t.uses() {
            use_var(v, &kill, &mut gen);
        }
    }
    (gen, kill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};

    /// A counting loop: `i` and `sum` are loop-carried, `t` is local.
    fn counting_loop() -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let n = fb.var("n");
        let i = fb.var("i");
        let sum = fb.var("sum");
        let t = fb.var("t");
        let c = fb.var("c");
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.assign(sum, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(t, BinOp::Mul, i, 2);
        fb.bin(sum, BinOp::Add, sum, t);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Var(sum)));
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn loop_carried_vars_are_live_at_header() {
        let m = counting_loop();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        let head = BlockId(1);
        let live_head: Vec<usize> = lv.live_in(head).iter().collect();
        // n=0, i=1, sum=2 live at header; t=3, c=4 are not.
        assert_eq!(live_head, vec![0, 1, 2]);
        assert!(!lv.live_in(head).contains(3));
        assert_eq!(lv.num_vars(), 5);
    }

    #[test]
    fn local_temp_is_dead_across_body_exit() {
        let m = counting_loop();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        let body = BlockId(2);
        // t is consumed inside body: not live out.
        assert!(!lv.live_out(body).contains(3));
        // sum and i are live out of the body (used next iteration).
        assert!(lv.live_out(body).contains(1));
        assert!(lv.live_out(body).contains(2));
    }

    #[test]
    fn exit_block_keeps_return_value_live() {
        let m = counting_loop();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let lv = Liveness::new(func, &cfg);
        let exit = BlockId(3);
        assert!(lv.live_in(exit).contains(2)); // sum returned
        assert!(!lv.live_in(exit).contains(0)); // n not needed anymore
    }

    #[test]
    fn def_before_use_is_not_upward_exposed() {
        let m = counting_loop();
        let func = m.func(m.entry);
        let (gen, kill) = gen_kill(func.block(BlockId(2)), func.num_vars);
        // body: t = i*2 (def t, use i); sum += t; i += 1.
        assert!(gen.contains(1)); // i used before redefined
        assert!(gen.contains(2)); // sum
        assert!(!gen.contains(3)); // t defined before its use
        assert!(kill.contains(3));
        assert!(kill.contains(1));
    }
}
