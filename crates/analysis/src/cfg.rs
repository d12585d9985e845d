//! Control-flow-graph utilities for a single function.

use tls_ir::{BlockId, Function};

/// Predecessors, successors and orderings of a function's CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<Option<usize>>,
}

impl Cfg {
    /// Build the CFG of `func`.
    ///
    /// Blocks unreachable from the entry have no reverse-postorder index and
    /// are skipped by [`Cfg::rpo`].
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (bid, block) in func.iter_blocks() {
            for s in block.successors() {
                succs[bid.index()].push(s);
                preds[s.index()].push(bid);
            }
        }
        // Iterative postorder DFS from the entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        if n > 0 {
            let entry = func.entry();
            let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
            visited[entry.index()] = true;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < succs[b.index()].len() {
                    let s = succs[b.index()][*i];
                    *i += 1;
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        let mut rpo_index = vec![None; n];
        for (i, b) in post.iter().enumerate() {
            rpo_index[b.index()] = Some(i);
        }
        Self {
            preds,
            succs,
            rpo: post,
            rpo_index,
        }
    }

    /// Number of blocks (including unreachable ones).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder, or `None` if unreachable.
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index[b.index()]
    }

    /// Is `b` reachable from the entry?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{ModuleBuilder, Operand};

    /// entry → a → c, entry → b → c, d unreachable.
    fn diamond() -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let a = fb.block("a");
        let b = fb.block("b");
        let c = fb.block("c");
        let d = fb.block("dead");
        fb.br(p, a, b);
        fb.switch_to(a);
        fb.jump(c);
        fb.switch_to(b);
        fb.jump(c);
        fb.switch_to(c);
        fb.ret(None);
        fb.switch_to(d);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn preds_succs_and_rpo() {
        let m = diamond();
        let cfg = Cfg::new(m.func(m.entry));
        let (e, a, b, c, d) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(4));
        assert_eq!(cfg.succs(e), &[a, b]);
        assert_eq!(cfg.preds(c), &[a, b]);
        assert!(cfg.preds(e).is_empty());
        assert_eq!(cfg.rpo()[0], e);
        assert_eq!(*cfg.rpo().last().expect("nonempty"), c);
        assert_eq!(cfg.rpo().len(), 4);
        assert!(cfg.is_reachable(a) && !cfg.is_reachable(d));
        assert!(cfg.rpo_index(d).is_none());
        // RPO: every edge from reachable u to v with v not a back edge has
        // rpo(u) < rpo(v) in an acyclic graph.
        for &u in cfg.rpo() {
            for &v in cfg.succs(u) {
                assert!(cfg.rpo_index(u).expect("reachable") < cfg.rpo_index(v).expect("reachable"));
            }
        }
        assert_eq!(cfg.len(), 5);
        assert!(!cfg.is_empty());
    }

    #[test]
    fn loop_cfg_rpo_starts_at_entry() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.br(p, body, exit);
        fb.switch_to(body);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(Some(Operand::Const(0)));
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let cfg = Cfg::new(m.func(m.entry));
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.rpo().len(), 4);
        assert_eq!(cfg.preds(BlockId(1)).len(), 2); // entry + back edge
    }
}
