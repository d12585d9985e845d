//! Call graph over a module.
//!
//! Used by region selection (to reject loops whose bodies could dynamically
//! nest another speculative region) and by procedure cloning (to walk the
//! call tree rooted at a parallelized loop, §2.3).

use std::collections::HashSet;

use tls_ir::{FuncId, Instr, Module, Sid};

/// One call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// The calling function.
    pub caller: FuncId,
    /// The called function.
    pub callee: FuncId,
    /// The call instruction's static id.
    pub sid: Sid,
}

/// The static call graph of a module.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Call sites grouped by caller (indexed by `FuncId`).
    calls_from: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Build the call graph of `m`.
    pub fn new(m: &Module) -> Self {
        let mut calls_from = vec![Vec::new(); m.funcs.len()];
        for (fi, func) in m.funcs.iter().enumerate() {
            let caller = FuncId(fi as u32);
            for block in &func.blocks {
                for instr in &block.instrs {
                    if let Instr::Call {
                        func: callee, sid, ..
                    } = instr
                    {
                        calls_from[fi].push(CallSite {
                            caller,
                            callee: *callee,
                            sid: *sid,
                        });
                    }
                }
            }
        }
        Self { calls_from }
    }

    /// Call sites within `f`.
    pub fn calls_from(&self, f: FuncId) -> &[CallSite] {
        &self.calls_from[f.index()]
    }

    /// All functions reachable from `roots` (inclusive), in visit order.
    pub fn reachable(&self, roots: impl IntoIterator<Item = FuncId>) -> Vec<FuncId> {
        let mut seen: HashSet<FuncId> = HashSet::new();
        let mut order = Vec::new();
        let mut stack: Vec<FuncId> = roots.into_iter().collect();
        while let Some(f) = stack.pop() {
            if seen.insert(f) {
                order.push(f);
                for cs in self.calls_from(f) {
                    stack.push(cs.callee);
                }
            }
        }
        order
    }

    /// Is any function in `targets` reachable from `from` (inclusive)?
    pub fn reaches_any(&self, from: FuncId, targets: &HashSet<FuncId>) -> bool {
        self.reachable([from]).iter().any(|f| targets.contains(f))
    }

    /// Is `f` (directly or mutually) recursive?
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.calls_from(f)
            .iter()
            .any(|cs| cs.callee == f || self.reachable([cs.callee]).contains(&f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::ModuleBuilder;

    /// main → a → b; main → b; c is unreachable; r → r (recursive).
    fn build() -> (tls_ir::Module, [FuncId; 5]) {
        let mut mb = ModuleBuilder::new();
        let a = mb.declare("a", 0);
        let b = mb.declare("b", 0);
        let c = mb.declare("c", 0);
        let r = mb.declare("r", 1);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(b);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(a);
        fb.call(None, b, vec![]);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(c);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(r);
        let done = fb.block("done");
        let rec = fb.block("rec");
        fb.br(fb.param(0), rec, done);
        fb.switch_to(rec);
        fb.call(None, r, vec![tls_ir::Operand::Const(0)]);
        fb.jump(done);
        fb.switch_to(done);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        fb.call(None, a, vec![]);
        fb.call(None, b, vec![]);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        (mb.build().expect("valid"), [a, b, c, r, main])
    }

    #[test]
    fn edges_and_reachability() {
        let (m, [a, b, c, r, main]) = build();
        let cg = CallGraph::new(&m);
        assert_eq!(cg.calls_from(main).len(), 2);
        assert_eq!(cg.calls_from(a)[0].callee, b);
        assert!(cg.calls_from(b).is_empty());
        let reach = cg.reachable([main]);
        assert!(reach.contains(&a) && reach.contains(&b) && reach.contains(&main));
        assert!(!reach.contains(&c) && !reach.contains(&r));
        let targets: HashSet<FuncId> = [b].into_iter().collect();
        assert!(cg.reaches_any(main, &targets));
        assert!(cg.reaches_any(a, &targets));
        assert!(!cg.reaches_any(c, &targets));
    }

    #[test]
    fn recursion_detection() {
        let (m, [a, _, _, r, main]) = build();
        let cg = CallGraph::new(&m);
        assert!(cg.is_recursive(r));
        assert!(!cg.is_recursive(a));
        assert!(!cg.is_recursive(main));
    }
}
