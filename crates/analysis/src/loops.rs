//! Natural-loop detection.
//!
//! Speculative regions are natural loops (§3.1 "we focus solely on loops"),
//! so region selection starts from the loops found here.

use std::collections::BTreeSet;

use tls_ir::{BlockId, Function};

use crate::cfg::Cfg;
use crate::dom::Dominators;

/// A natural loop: a header plus the bodies of all back edges targeting it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges; dominates every block).
    pub header: BlockId,
    /// All blocks of the loop, including the header. Sorted.
    pub blocks: BTreeSet<BlockId>,
    /// Sources of the back edges (`latch → header`).
    pub latches: Vec<BlockId>,
    /// Edges `(from, to)` leaving the loop (`from` inside, `to` outside).
    pub exits: Vec<(BlockId, BlockId)>,
}

impl NaturalLoop {
    /// Does this loop contain block `b`?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Is `other` strictly nested inside `self`?
    pub fn contains_loop(&self, other: &NaturalLoop) -> bool {
        self.header != other.header && other.blocks.is_subset(&self.blocks)
    }
}

/// Find all natural loops of `func`. Loops sharing a header are merged.
/// Returned in ascending header order.
pub fn find_loops(func: &Function, cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for (bid, block) in func.iter_blocks() {
        if !cfg.is_reachable(bid) {
            continue;
        }
        for succ in block.successors() {
            if dom.dominates(succ, bid) {
                // Back edge bid → succ; collect the natural loop body.
                let header = succ;
                let mut body: BTreeSet<BlockId> = BTreeSet::new();
                body.insert(header);
                let mut stack = vec![bid];
                while let Some(b) = stack.pop() {
                    if body.insert(b) {
                        for &p in cfg.preds(b) {
                            if cfg.is_reachable(p) {
                                stack.push(p);
                            }
                        }
                    }
                }
                if let Some(l) = loops.iter_mut().find(|l| l.header == header) {
                    l.blocks.extend(body);
                    l.latches.push(bid);
                } else {
                    loops.push(NaturalLoop {
                        header,
                        blocks: body,
                        latches: vec![bid],
                        exits: vec![],
                    });
                }
            }
        }
    }
    for l in &mut loops {
        let mut exits = Vec::new();
        for &b in &l.blocks {
            for s in func.block(b).successors() {
                if !l.blocks.contains(&s) {
                    exits.push((b, s));
                }
            }
        }
        exits.sort();
        exits.dedup();
        l.exits = exits;
    }
    loops.sort_by_key(|l| l.header);
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::ModuleBuilder;

    /// Nested loops:
    /// entry(b0) → outer_head(b1) → inner_head(b2) ⇄ inner_body(b3);
    /// inner_head → outer_latch(b4) → outer_head; outer_head → exit(b5).
    fn nested() -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let oh = fb.block("outer_head");
        let ih = fb.block("inner_head");
        let ib = fb.block("inner_body");
        let ol = fb.block("outer_latch");
        let ex = fb.block("exit");
        fb.jump(oh);
        fb.switch_to(oh);
        fb.br(p, ih, ex);
        fb.switch_to(ih);
        fb.br(p, ib, ol);
        fb.switch_to(ib);
        fb.jump(ih);
        fb.switch_to(ol);
        fb.jump(oh);
        fb.switch_to(ex);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn finds_nested_loops_with_exits() {
        let m = nested();
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        assert_eq!(loops.len(), 2);
        let outer = &loops[0];
        let inner = &loops[1];
        assert_eq!(outer.header, BlockId(1));
        assert_eq!(inner.header, BlockId(2));
        assert_eq!(
            outer.blocks.iter().copied().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)]
        );
        assert_eq!(
            inner.blocks.iter().copied().collect::<Vec<_>>(),
            vec![BlockId(2), BlockId(3)]
        );
        assert!(outer.contains_loop(inner));
        assert!(!inner.contains_loop(outer));
        assert_eq!(outer.exits, vec![(BlockId(1), BlockId(5))]);
        assert_eq!(inner.exits, vec![(BlockId(2), BlockId(4))]);
        assert_eq!(outer.latches, vec![BlockId(4)]);
        assert_eq!(inner.latches, vec![BlockId(3)]);
        assert!(inner.contains(BlockId(3)));
        assert!(!inner.contains(BlockId(4)));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        assert!(find_loops(func, &cfg, &dom).is_empty());
    }

    #[test]
    fn two_latches_merge_into_one_loop() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        let p = fb.var("p");
        let head = fb.block("head");
        let l1 = fb.block("latch1");
        let l2 = fb.block("latch2");
        let ex = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.br(p, l1, l2);
        fb.switch_to(l1);
        fb.jump(head);
        fb.switch_to(l2);
        fb.br(p, head, ex);
        fb.switch_to(ex);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let func = m.func(m.entry);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].latches.len(), 2);
        assert_eq!(loops[0].blocks.len(), 3);
    }
}
