//! Loop unrolling (§3.1: "the compiler automatically applies loop unrolling
//! to small loops to help amortize the overheads of speculative
//! parallelization").
//!
//! Unrolling by factor *u* duplicates the loop body *u − 1* times and chains
//! the back edges copy-to-copy, so one epoch executes up to *u* original
//! iterations while every exit edge still leaves at its original target —
//! semantics are preserved exactly, including early exits mid-epoch.

use std::collections::HashMap;

use tls_analysis::NaturalLoop;
use tls_ir::{BlockId, FuncId, Module};

/// Choose an unroll factor that brings epochs of `avg_epoch_size`
/// instructions up to roughly `target`, capped at `max_unroll`.
pub fn unroll_factor(avg_epoch_size: f64, target: f64, max_unroll: u32) -> u32 {
    if avg_epoch_size <= 0.0 {
        return 1;
    }
    let f = (target / avg_epoch_size).ceil() as u32;
    f.clamp(1, max_unroll.max(1))
}

/// Unroll `lp` (a natural loop of `func`) by `factor` in place.
///
/// Returns the complete set of loop blocks after unrolling (original body
/// plus all copies). A factor of 1 is a no-op.
pub fn unroll_loop(
    module: &mut Module,
    func: FuncId,
    lp: &NaturalLoop,
    factor: u32,
) -> Vec<BlockId> {
    let mut all_blocks: Vec<BlockId> = lp.blocks.iter().copied().collect();
    if factor <= 1 {
        return all_blocks;
    }
    let header = lp.header;
    let body: Vec<BlockId> = lp.blocks.iter().copied().collect();
    let n_orig = module.func(func).blocks.len() as u32;

    // Allocate ids for every copy up front: copy c (1-based) of body[i] is
    // block n_orig + (c-1)*body.len() + i.
    let mut maps: Vec<HashMap<BlockId, BlockId>> = Vec::new();
    for c in 1..factor {
        let mut map = HashMap::new();
        for (i, b) in body.iter().enumerate() {
            map.insert(*b, BlockId(n_orig + (c - 1) * body.len() as u32 + i as u32));
        }
        maps.push(map);
    }
    let next_header = |c: u32| -> BlockId {
        // After copy c (0 = original), the next iteration starts at...
        if (c as usize) < maps.len() {
            maps[c as usize][&header]
        } else {
            header
        }
    };

    // Create the copies.
    for c in 1..factor {
        let map = maps[(c - 1) as usize].clone();
        for b in &body {
            let mut block = module.func(func).block(*b).clone();
            block.name = format!("{}_u{}", block.name, c);
            for instr in &mut block.instrs {
                if let Some(sid) = instr.sid_mut() {
                    *sid = module.fresh_sid();
                }
            }
            if let Some(term) = &mut block.term {
                term.map_successors(|t| {
                    if t == header {
                        next_header(c)
                    } else if let Some(&m) = map.get(&t) {
                        m
                    } else {
                        t // exit edge: original target
                    }
                });
            }
            let fid = module.func_mut(func);
            debug_assert_eq!(fid.blocks.len(), map[b].index());
            fid.blocks.push(block);
        }
    }

    // Retarget the original body's back edges to the first copy. Any edge
    // from inside the body to the header is a back edge (entry edges come
    // from outside the body and are untouched).
    let first = next_header(0);
    for b in &body {
        if let Some(term) = &mut module.func_mut(func).blocks[b.index()].term {
            term.map_successors(|t| if t == header { first } else { t });
        }
    }

    for map in &maps {
        let mut copies: Vec<BlockId> = map.values().copied().collect();
        copies.sort();
        all_blocks.extend(copies);
    }
    all_blocks.sort();
    all_blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_analysis::{loops::find_loops, Cfg, Dominators};
    use tls_ir::{BinOp, ModuleBuilder, Operand};
    use tls_profile::run_sequential;

    fn counting_module(n: i64) -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, c, v) = (fb.var("i"), fb.var("c"), fb.var("v"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.load(v, acc, 0);
        fb.bin(v, BinOp::Add, v, i);
        fb.store(v, acc, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, acc, 0);
        fb.output(v);
        fb.ret(Some(Operand::Var(v)));
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    fn loop_of(m: &tls_ir::Module, f: FuncId) -> NaturalLoop {
        let func = m.func(f);
        let cfg = Cfg::new(func);
        let dom = Dominators::new(func, &cfg);
        let loops = find_loops(func, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        loops.into_iter().next().expect("one loop")
    }

    #[test]
    fn factor_selection_targets_epoch_size() {
        assert_eq!(unroll_factor(10.0, 30.0, 4), 3);
        assert_eq!(unroll_factor(40.0, 30.0, 4), 1);
        assert_eq!(unroll_factor(5.0, 30.0, 4), 4); // capped
        assert_eq!(unroll_factor(0.0, 30.0, 4), 1);
    }

    #[test]
    fn unrolled_loop_preserves_semantics() {
        for n in [0i64, 1, 2, 3, 7, 10, 23] {
            let reference = run_sequential(&counting_module(n)).expect("runs");
            for factor in [2u32, 3, 4] {
                let mut m = counting_module(n);
                let entry = m.entry;
                let lp = loop_of(&m, entry);
                let blocks = unroll_loop(&mut m, entry, &lp, factor);
                tls_ir::validate(&m).expect("still valid");
                let r = run_sequential(&m).expect("runs");
                assert_eq!(r.output, reference.output, "n={n} factor={factor} diverged");
                assert_eq!(blocks.len(), 2 * factor as usize);
            }
        }
    }

    #[test]
    fn unrolled_body_forms_one_bigger_loop() {
        let mut m = counting_module(20);
        let entry = m.entry;
        let lp = loop_of(&m, entry);
        let header = lp.header;
        let blocks = unroll_loop(&mut m, entry, &lp, 3);
        let lp2 = loop_of(&m, m.entry);
        assert_eq!(lp2.header, header);
        assert_eq!(
            lp2.blocks.iter().copied().collect::<Vec<_>>(),
            blocks,
            "unrolled body is exactly the natural loop"
        );
    }

    #[test]
    fn copies_get_fresh_sids() {
        let mut m = counting_module(5);
        let before = m.next_sid;
        let entry = m.entry;
        let lp = loop_of(&m, entry);
        unroll_loop(&mut m, entry, &lp, 2);
        assert!(m.next_sid > before);
        tls_ir::validate(&m).expect("no duplicate sids");
    }

    #[test]
    fn factor_one_is_identity() {
        let mut m = counting_module(5);
        let snapshot = format!("{m}");
        let entry = m.entry;
        let lp = loop_of(&m, entry);
        let blocks = unroll_loop(&mut m, entry, &lp, 1);
        assert_eq!(format!("{m}"), snapshot);
        assert_eq!(blocks.len(), 2);
    }
}
