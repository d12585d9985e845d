//! Scalar synchronization and induction-variable privatization (§2.1, and
//! the prior scalar-communication work \[32\] this paper builds on).
//!
//! Every loop-carried scalar of a speculative region — a register live at
//! the header and redefined in the loop — must be communicated between
//! epochs:
//!
//! * *induction variables* (`v += c` once per iteration) are **privatized**:
//!   the preheader saves `v_base = v`, and each epoch recomputes
//!   `v = v_base + epoch_id × step` locally, so the counter never
//!   serializes the loop;
//! * everything else gets a scalar channel: the preheader signals the
//!   initial value, each epoch `wait`s at the top of the header and
//!   `signal`s after its last definition (right after a unique definition
//!   when possible — the instruction-scheduling optimization of \[32\] that
//!   shortens the critical forwarding path — and at the latches otherwise).

use std::collections::HashSet;

use tls_analysis::{Cfg, Dominators, Liveness};
use tls_ir::{BinOp, BlockId, FuncId, Instr, Module, Operand, Var};

/// What the pass did for one region.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScalarSyncResult {
    /// Channels created (one per communicated scalar).
    pub channels: usize,
    /// Induction variables privatized.
    pub privatized: usize,
}

/// Insert scalar synchronization for the region `(func, header)` whose loop
/// body is `loop_blocks`. `inductions` lists `(var, step_per_epoch)` pairs
/// detected before unrolling (step multiplied by the unroll factor).
pub fn insert_scalar_sync(
    module: &mut Module,
    func: FuncId,
    header: BlockId,
    loop_blocks: &[BlockId],
    inductions: &[(Var, i64)],
    schedule_signals: bool,
) -> ScalarSyncResult {
    let in_loop: HashSet<BlockId> = loop_blocks.iter().copied().collect();
    let (carried, defs_of, latches, preheaders) = {
        let f = module.func(func);
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        // Defs per var inside the loop.
        let mut defs_of: Vec<Vec<(BlockId, usize)>> = vec![Vec::new(); f.num_vars];
        for &b in loop_blocks {
            for (i, instr) in f.block(b).instrs.iter().enumerate() {
                if let Some(d) = instr.def() {
                    defs_of[d.index()].push((b, i));
                }
            }
        }
        let carried: Vec<Var> = live
            .live_in(header)
            .iter()
            .map(|i| Var(i as u32))
            .filter(|v| !defs_of[v.index()].is_empty())
            .collect();
        let latches: Vec<BlockId> = loop_blocks
            .iter()
            .copied()
            .filter(|b| f.block(*b).successors().contains(&header))
            .collect();
        let preheaders: Vec<BlockId> = cfg
            .preds(header)
            .iter()
            .copied()
            .filter(|p| !in_loop.contains(p))
            .collect();
        (carried, defs_of, latches, preheaders)
    };

    let privatized: Vec<(Var, i64)> = inductions
        .iter()
        .copied()
        .filter(|(v, _)| carried.contains(v))
        .collect();
    let synced: Vec<Var> = carried
        .iter()
        .copied()
        .filter(|v| !privatized.iter().any(|(p, _)| p == v))
        .collect();

    // --- privatization ---------------------------------------------------
    let mut header_prepend: Vec<Instr> = Vec::new();
    let mut result = ScalarSyncResult::default();
    if !privatized.is_empty() {
        let epoch_var = fresh_var(module, func, "__epoch");
        header_prepend.push(Instr::EpochId { dst: epoch_var });
        for &(v, step) in &privatized {
            let base = fresh_var(module, func, "__base");
            let tmp = fresh_var(module, func, "__step");
            // Preheaders capture the region-entry value.
            for &p in &preheaders {
                append_instr(
                    module,
                    func,
                    p,
                    Instr::Assign {
                        dst: base,
                        src: Operand::Var(v),
                    },
                );
            }
            header_prepend.push(Instr::Bin {
                dst: tmp,
                op: BinOp::Mul,
                a: Operand::Var(epoch_var),
                b: Operand::Const(step),
            });
            header_prepend.push(Instr::Bin {
                dst: v,
                op: BinOp::Add,
                a: Operand::Var(base),
                b: Operand::Var(tmp),
            });
            result.privatized += 1;
        }
    }

    // --- wait/signal for the remaining carried scalars --------------------
    // Early signals are collected first and inserted afterwards in
    // descending position order: `defs_of` indices refer to the original
    // blocks, and inserting while iterating would shift the recorded
    // position of any later definition in the same block, placing its
    // signal *before* the definition (forwarding the previous epoch's
    // value — a correctness bug, not a scheduling detail).
    let dom_of = {
        let f = module.func(func);
        let cfg = Cfg::new(f);
        Dominators::new(f, &cfg)
    };
    // Blocks that can re-execute within a single epoch: members of a cycle
    // in the loop body that avoids the region header (an inner loop). A
    // consumer epoch consumes exactly one signal per channel, so the first
    // signal must carry the final value — a signal placed after a
    // definition inside an inner loop fires once per inner iteration with
    // a value that is still being updated. Such definitions keep the
    // latch-signal schedule.
    let in_nested_cycle: HashSet<BlockId> = {
        let f = module.func(func);
        let mut nested = HashSet::new();
        for &b in loop_blocks {
            if b == header {
                continue;
            }
            let mut stack: Vec<BlockId> = f
                .block(b)
                .successors()
                .into_iter()
                .filter(|s| in_loop.contains(s) && *s != header)
                .collect();
            let mut seen: HashSet<BlockId> = stack.iter().copied().collect();
            while let Some(x) = stack.pop() {
                if x == b {
                    nested.insert(b);
                    break;
                }
                for s in f.block(x).successors() {
                    if in_loop.contains(&s) && s != header && seen.insert(s) {
                        stack.push(s);
                    }
                }
            }
        }
        nested
    };
    let mut early_signals: Vec<(BlockId, usize, Instr)> = Vec::new();
    for &v in &synced {
        let chan = module.fresh_chan();
        result.channels += 1;
        for &p in &preheaders {
            append_instr(
                module,
                func,
                p,
                Instr::SignalScalar {
                    chan,
                    val: Operand::Var(v),
                },
            );
        }
        header_prepend.push(Instr::WaitScalar { dst: v, chan });
        let defs = &defs_of[v.index()];
        let single_def = defs.len() == 1;
        let mut covered_latches: HashSet<BlockId> = HashSet::new();
        if schedule_signals && single_def && !in_nested_cycle.contains(&defs[0].0) {
            let (db, di) = defs[0];
            // Early signal right after the unique definition.
            early_signals.push((
                db,
                di + 1,
                Instr::SignalScalar {
                    chan,
                    val: Operand::Var(v),
                },
            ));
            // Latches dominated by the definition need no second signal.
            for &l in &latches {
                if dom_of.dominates(db, l) {
                    covered_latches.insert(l);
                }
            }
        }
        for &l in &latches {
            if !covered_latches.contains(&l) {
                append_instr(
                    module,
                    func,
                    l,
                    Instr::SignalScalar {
                        chan,
                        val: Operand::Var(v),
                    },
                );
            }
        }
    }
    early_signals.sort_by_key(|&(b, i, _)| std::cmp::Reverse((b.index(), i)));
    for (b, i, instr) in early_signals {
        insert_instr(module, func, b, i, instr);
    }

    // Prepend the header batch (privatization first, then waits).
    let blk = module.func_mut(func).block_mut(header);
    for instr in header_prepend.into_iter().rev() {
        blk.instrs.insert(0, instr);
    }
    result
}

fn fresh_var(module: &mut Module, func: FuncId, name: &str) -> Var {
    let f = module.func_mut(func);
    let v = Var(f.num_vars as u32);
    f.num_vars += 1;
    f.var_names.push(name.to_string());
    v
}

fn append_instr(module: &mut Module, func: FuncId, block: BlockId, instr: Instr) {
    module.func_mut(func).block_mut(block).instrs.push(instr);
}

fn insert_instr(module: &mut Module, func: FuncId, block: BlockId, idx: usize, instr: Instr) {
    module
        .func_mut(func)
        .block_mut(block)
        .instrs
        .insert(idx, instr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_analysis::{induction::induction_vars, loops::find_loops};
    use tls_ir::{ModuleBuilder, RegionId, SpecRegion};
    use tls_profile::run_sequential;

    /// sum-of-0..n loop with an induction variable and an accumulator.
    fn build(n: i64) -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, sum, c) = (fb.var("i"), fb.var("sum"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.assign(sum, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, tls_ir::BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(sum, tls_ir::BinOp::Add, sum, i);
        fb.bin(i, tls_ir::BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.output(sum);
        fb.output(i);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    fn transform(mut m: tls_ir::Module, schedule: bool) -> tls_ir::Module {
        let entry = m.entry;
        let (lp, ivs) = {
            let f = m.func(entry);
            let cfg = Cfg::new(f);
            let dom = Dominators::new(f, &cfg);
            let loops = find_loops(f, &cfg, &dom);
            let lp = loops.into_iter().next().expect("one loop");
            let ivs: Vec<(Var, i64)> = induction_vars(f, &lp, &dom)
                .into_iter()
                .map(|iv| (iv.var, iv.step))
                .collect();
            (lp, ivs)
        };
        let blocks: Vec<BlockId> = lp.blocks.iter().copied().collect();
        insert_scalar_sync(&mut m, entry, lp.header, &blocks, &ivs, schedule);
        m.regions.push(SpecRegion {
            id: RegionId(0),
            func: entry,
            header: lp.header,
            blocks,
            unroll: 1,
        });
        tls_ir::validate(&m).expect("valid after transform");
        m
    }

    #[test]
    fn transformed_module_is_sequentially_equivalent() {
        for n in [0i64, 1, 5, 17] {
            let reference = run_sequential(&build(n)).expect("runs");
            for schedule in [false, true] {
                let t = transform(build(n), schedule);
                let r = run_sequential(&t).expect("runs");
                assert_eq!(r.output, reference.output, "n={n} schedule={schedule}");
            }
        }
    }

    #[test]
    fn induction_is_privatized_and_accumulator_synced() {
        let m = transform(build(10), true);
        let text = m.func(m.entry).to_string();
        assert!(text.contains("epoch_id"), "{text}");
        assert!(text.contains("wait_scalar"), "{text}");
        assert!(text.contains("signal_scalar"), "{text}");
        assert_eq!(m.next_chan, 1, "only `sum` needs a channel");
    }

    #[test]
    fn early_signal_is_placed_after_unique_def() {
        let m = transform(build(10), true);
        let f = m.func(m.entry);
        // In the body block, the signal must directly follow `sum += i`.
        let body = f.block(BlockId(2));
        let pos_def = body
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Bin { dst, .. } if *dst == Var(1)))
            .expect("sum def exists");
        assert!(
            matches!(body.instrs[pos_def + 1], Instr::SignalScalar { .. }),
            "signal not scheduled early: {body:?}"
        );
    }

    #[test]
    fn unscheduled_mode_signals_at_latch_only() {
        let m = transform(build(10), false);
        let f = m.func(m.entry);
        let body = f.block(BlockId(2));
        // Exactly one signal, at the end of the (single) latch block.
        let signals: Vec<usize> = body
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::SignalScalar { .. }))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(signals, vec![body.instrs.len() - 1]);
    }

    #[test]
    fn tls_execution_matches_after_transform() {
        let m = transform(build(25), true);
        let reference = run_sequential(&m).expect("runs");
        let par = tls_sim::simulate(&m, tls_sim::SimConfig::cgo2004()).expect("simulates");
        assert_eq!(par.output, reference.output);
        assert_eq!(par.total_violations, 0, "pure scalar loop never violates");
    }
}
