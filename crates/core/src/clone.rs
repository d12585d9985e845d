//! Procedure cloning (§2.3 "Cloning").
//!
//! When a synchronized memory access sits on a particular call stack, the
//! synchronization code must only run when the access is reached along that
//! stack. The compiler therefore clones every procedure on the path and
//! retargets the path's call sites to the clones — code specialization with
//! negligible growth (the paper reports < 1 % on average).

use std::collections::HashMap;

use tls_ir::{FuncId, Function, Instr, Module, Sid};

/// Clone function `f` with fresh static ids.
///
/// Returns the new function's id and the mapping from `f`'s original sids
/// to the clone's sids (used to find a specific instruction inside the
/// clone).
pub fn clone_function(module: &mut Module, f: FuncId, suffix: &str) -> (FuncId, HashMap<Sid, Sid>) {
    let mut body: Function = module.func(f).clone();
    body.name = format!("{}__{}", body.name, suffix);
    let mut map = HashMap::new();
    for block in &mut body.blocks {
        for instr in &mut block.instrs {
            if let Some(sid) = instr.sid_mut() {
                let fresh = module.fresh_sid();
                map.insert(*sid, fresh);
                *sid = fresh;
            }
        }
    }
    let id = FuncId(module.funcs.len() as u32);
    module.funcs.push(body);
    (id, map)
}

/// Memoized call-path specializer: walks a path of call-site sids rooted at
/// a region's function, cloning each callee once per *path* (not once per
/// function), exactly like the call-tree walk of §2.3.
#[derive(Debug)]
pub struct Specializer {
    root: FuncId,
    /// `(function instance, call sid within it)` → `(clone, sid map)`.
    cache: HashMap<(FuncId, Sid), (FuncId, HashMap<Sid, Sid>)>,
    /// Number of clones created.
    pub clones: usize,
}

impl Specializer {
    /// A specializer rooted at the function containing the parallelized
    /// loop.
    pub fn new(root: FuncId) -> Self {
        Self {
            root,
            cache: HashMap::new(),
            clones: 0,
        }
    }

    /// Resolve the function instance reached by following `path` (call-site
    /// sids, outermost first), cloning along the way. Translates `leaf_sid`
    /// (an original sid within the final callee) to its sid in the clone.
    ///
    /// Returns `None` if the path cannot be resolved (e.g., it was
    /// truncated by the profiler); such accesses are simply left
    /// unsynchronized.
    pub fn resolve(
        &mut self,
        module: &mut Module,
        path: &[Sid],
        leaf_sid: Sid,
    ) -> Option<(FuncId, Sid)> {
        let mut inst = self.root;
        let mut map: Option<HashMap<Sid, Sid>> = None;
        for (depth, &call_orig) in path.iter().enumerate() {
            let call_actual = translate(&map, call_orig);
            if let Some((clone, clone_map)) = self.cache.get(&(inst, call_actual)) {
                inst = *clone;
                map = Some(clone_map.clone());
                continue;
            }
            // Find the call site in `inst` and clone its callee.
            let callee = find_callee(module, inst, call_actual)?;
            let (clone, clone_map) =
                clone_function(module, callee, &format!("tls{}_{}", depth, call_actual.0));
            self.clones += 1;
            retarget_call(module, inst, call_actual, clone);
            self.cache
                .insert((inst, call_actual), (clone, clone_map.clone()));
            inst = clone;
            map = Some(clone_map);
        }
        Some((inst, translate(&map, leaf_sid)))
    }
}

fn translate(map: &Option<HashMap<Sid, Sid>>, sid: Sid) -> Sid {
    match map {
        None => sid,
        Some(m) => m.get(&sid).copied().unwrap_or(sid),
    }
}

fn find_callee(module: &Module, func: FuncId, call_sid: Sid) -> Option<FuncId> {
    for block in &module.func(func).blocks {
        for instr in &block.instrs {
            if let Instr::Call {
                func: callee, sid, ..
            } = instr
            {
                if *sid == call_sid {
                    return Some(*callee);
                }
            }
        }
    }
    None
}

fn retarget_call(module: &mut Module, func: FuncId, call_sid: Sid, new_callee: FuncId) {
    for block in &mut module.func_mut(func).blocks {
        for instr in &mut block.instrs {
            if let Instr::Call {
                func: callee, sid, ..
            } = instr
            {
                if *sid == call_sid {
                    *callee = new_callee;
                    return;
                }
            }
        }
    }
    unreachable!("call site {call_sid} vanished from {func}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};
    use tls_profile::run_sequential;

    /// main calls helper twice; helper calls leaf; leaf bumps a global.
    /// Returns (module, [call_h1, call_h2, call_leaf], leaf_store_sid).
    fn build() -> (tls_ir::Module, [Sid; 3], Sid) {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("g", 1, vec![0]);
        let leaf = mb.declare("leaf", 0);
        let helper = mb.declare("helper", 0);
        let main = mb.declare("main", 0);

        let mut fb = mb.define(leaf);
        let v = fb.var("v");
        fb.load(v, g, 0);
        fb.bin(v, BinOp::Add, v, 1);
        let store = fb.store(v, g, 0);
        fb.ret(None);
        fb.finish();

        let mut fb = mb.define(helper);
        let call_leaf = fb.call(None, leaf, vec![]);
        fb.ret(None);
        fb.finish();

        let mut fb = mb.define(main);
        let call_h1 = fb.call(None, helper, vec![]);
        let call_h2 = fb.call(None, helper, vec![]);
        let out = fb.var("out");
        fb.load(out, g, 0);
        fb.output(out);
        fb.ret(Some(Operand::Var(out)));
        fb.finish();
        mb.set_entry(main);
        (
            mb.build().expect("valid"),
            [call_h1, call_h2, call_leaf],
            store,
        )
    }

    #[test]
    fn clone_function_renumbers_sids() {
        let (mut m, _, store) = build();
        let leaf = m.func_by_name("leaf").expect("exists");
        let before = m.funcs.len();
        let (clone, map) = clone_function(&mut m, leaf, "x");
        assert_eq!(m.funcs.len(), before + 1);
        assert_ne!(map[&store], store);
        assert!(m.func(clone).name.contains("leaf__x"));
        tls_ir::validate(&m).expect("no duplicate sids");
    }

    #[test]
    fn specializer_clones_along_distinct_paths() {
        let (mut m, [h1, h2, cl], store) = build();
        let main = m.func_by_name("main").expect("exists");
        let mut sp = Specializer::new(main);
        let (inst1, sid1) = sp.resolve(&mut m, &[h1, cl], store).expect("path resolves");
        let (inst2, sid2) = sp.resolve(&mut m, &[h2, cl], store).expect("path resolves");
        // Two call paths → two distinct leaf clones, distinct sids.
        assert_ne!(inst1, inst2);
        assert_ne!(sid1, sid2);
        // Four clones total: helper×2 and leaf×2.
        assert_eq!(sp.clones, 4);
        // Re-resolving the same path hits the cache.
        let (inst1b, sid1b) = sp.resolve(&mut m, &[h1, cl], store).expect("cached");
        assert_eq!((inst1b, sid1b), (inst1, sid1));
        assert_eq!(sp.clones, 4);
        // Semantics unchanged.
        tls_ir::validate(&m).expect("valid");
        let r = run_sequential(&m).expect("runs");
        assert_eq!(r.output, vec![2]);
    }

    #[test]
    fn empty_path_resolves_in_root() {
        let (mut m, _, store) = build();
        let leaf = m.func_by_name("leaf").expect("exists");
        let mut sp = Specializer::new(leaf);
        let (inst, sid) = sp.resolve(&mut m, &[], store).expect("identity");
        assert_eq!(inst, leaf);
        assert_eq!(sid, store);
        assert_eq!(sp.clones, 0);
    }

    #[test]
    fn unresolvable_path_returns_none() {
        let (mut m, _, _) = build();
        let main = m.func_by_name("main").expect("exists");
        let mut sp = Specializer::new(main);
        assert!(sp.resolve(&mut m, &[Sid(9999)], Sid(0)).is_none());
    }
}
