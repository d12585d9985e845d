//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use tls_ir::{BlockId, Function};

use crate::cfg::Cfg;

/// Immediate dominators of the reachable blocks of a function.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b`; the entry's idom is itself.
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Compute dominators for `func` using its `cfg`.
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        let n = func.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return Self { idom };
        }
        let entry = func.entry();
        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cfg, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Self { idom }
    }

    /// Immediate dominator of `b` (`b` itself for the entry; `None` if
    /// unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Does `a` dominate `b`? (Reflexive; false if either is unreachable.)
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }
}

fn intersect(idom: &[Option<BlockId>], cfg: &Cfg, mut a: BlockId, mut b: BlockId) -> BlockId {
    let rpo = |x: BlockId| {
        cfg.rpo_index(x)
            .expect("block on dominator path is reachable")
    };
    while a != b {
        while rpo(a) > rpo(b) {
            a = idom[a.index()].expect("reachable block has idom");
        }
        while rpo(b) > rpo(a) {
            b = idom[b.index()].expect("reachable block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::ModuleBuilder;

    /// entry(b0) → {a(b1), b(b2)} → join(b3) → loop head(b4) ⇄ body(b5), exit(b6).
    fn build() -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let a = fb.block("a");
        let b = fb.block("b");
        let join = fb.block("join");
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.br(p, a, b);
        fb.switch_to(a);
        fb.jump(join);
        fb.switch_to(b);
        fb.jump(join);
        fb.switch_to(join);
        fb.jump(head);
        fb.switch_to(head);
        fb.br(p, body, exit);
        fb.switch_to(body);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn idoms_match_hand_computation() {
        let m = build();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let e = BlockId(0);
        assert_eq!(dom.idom(e), Some(e));
        assert_eq!(dom.idom(BlockId(1)), Some(e));
        assert_eq!(dom.idom(BlockId(2)), Some(e));
        assert_eq!(dom.idom(BlockId(3)), Some(e)); // join's idom is entry
        assert_eq!(dom.idom(BlockId(4)), Some(BlockId(3)));
        assert_eq!(dom.idom(BlockId(5)), Some(BlockId(4)));
        assert_eq!(dom.idom(BlockId(6)), Some(BlockId(4)));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let m = build();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        assert!(dom.dominates(BlockId(0), BlockId(6)));
        assert!(dom.dominates(BlockId(3), BlockId(5)));
        assert!(dom.dominates(BlockId(4), BlockId(4)));
        assert!(!dom.dominates(BlockId(1), BlockId(3))); // join has 2 preds
        assert!(!dom.dominates(BlockId(5), BlockId(6)));
    }
}
