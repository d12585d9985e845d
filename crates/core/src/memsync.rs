//! Memory-resident synchronization insertion (§2.2–§2.3, the paper's core
//! transformation).
//!
//! Given the inter-epoch dependence profile of a speculative region:
//!
//! 1. keep the edges occurring in at least `freq_threshold` of epochs;
//! 2. form **groups** — connected components of the frequent-dependence
//!    graph over `(static id, call stack)` vertices;
//! 3. **clone** the procedures on each synchronized access's call stack
//!    ([`crate::clone::Specializer`]) so synchronization only runs on the
//!    profiled path;
//! 4. rewrite each synchronized load into a [`tls_ir::Instr::SyncLoad`]
//!    (wait + address check + `use_forwarded_value` select, §2.2);
//! 5. follow each synchronized store with a [`tls_ir::Instr::SignalMem`]
//!    (early forwarding) and maintain a per-group *produced* flag in a
//!    private global so that every back edge signals `NULL` when the epoch
//!    produced nothing — the consumer never waits forever (§2.2).
//!
//! The flag lives in memory, but each epoch stores 0 to it at the header
//! before any read, so flag reads always hit the epoch's own write buffer
//! and can never cause violations.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tls_ir::{BlockId, FuncId, GroupId, Instr, Module, Operand, Sid, Terminator, Var};
use tls_profile::{DepProfile, LoopProfile, VertexKey};

use crate::clone::Specializer;

/// What the pass did for one region.
#[derive(Clone, Debug, Default)]
pub struct MemSyncStats {
    /// Groups formed (connected components above the threshold).
    pub groups: usize,
    /// Loads rewritten into `SyncLoad`.
    pub sync_loads: usize,
    /// Stores followed by a `SignalMem`.
    pub signalled_stores: usize,
    /// Procedures cloned.
    pub clones: usize,
    /// Original (pre-clone) sids of the loads chosen for synchronization —
    /// the compiler's marking for the Figure 11 experiment.
    pub marked_loads: BTreeSet<Sid>,
}

/// Insert memory synchronization for one region.
///
/// `lprof` is the region loop's dependence profile (from the *unrolled*
/// module, so sids match); `profile` provides the interned call paths.
/// `schedule_signals` selects early forwarding (signal right after the
/// store) versus latch-time signalling (the ablation that behaves like
/// hardware synchronization's "wait until produced at epoch end").
#[allow(clippy::too_many_arguments)]
pub fn insert_memory_sync(
    module: &mut Module,
    region_func: FuncId,
    header: BlockId,
    loop_blocks: &[BlockId],
    lprof: &LoopProfile,
    profile: &DepProfile,
    freq_threshold: f64,
    schedule_signals: bool,
) -> MemSyncStats {
    let mut stats = MemSyncStats::default();
    if lprof.total_iters == 0 {
        return stats;
    }
    // 1. Frequent edges, deterministically ordered. Forwarding delivers a
    // value only from the immediately preceding epoch, so the frequency
    // that matters is the *distance-1* frequency (§2.4: "frequently-
    // occurring data dependences between consecutive epochs").
    let mut frequent: Vec<(VertexKey, VertexKey)> = lprof
        .edges
        .iter()
        .filter(|(_, e)| e.epochs_d1 as f64 / lprof.total_iters as f64 >= freq_threshold)
        .map(|(k, _)| *k)
        .collect();
    frequent.sort();
    if frequent.is_empty() {
        return stats;
    }

    // 2. Connected components over the vertices of frequent edges.
    let mut vertices: BTreeSet<VertexKey> = BTreeSet::new();
    for (s, l) in &frequent {
        vertices.insert(*s);
        vertices.insert(*l);
    }
    let index: HashMap<VertexKey, usize> =
        vertices.iter().enumerate().map(|(i, v)| (*v, i)).collect();
    let mut uf = tls_analysis::UnionFind::new(vertices.len());
    for (s, l) in &frequent {
        uf.union(index[s], index[l]);
    }
    let vertex_list: Vec<VertexKey> = vertices.iter().copied().collect();
    let components = uf.groups();

    // 3–5. Process each group.
    let mut specializer = Specializer::new(region_func);
    // Rewrites already applied, to dedupe shared (instance, sid) targets.
    let mut rewritten: BTreeMap<(FuncId, Sid), GroupId> = BTreeMap::new();
    // Per group: the flag global's base address operand.
    let mut group_flags: Vec<(GroupId, tls_ir::GlobalId)> = Vec::new();

    for comp in components {
        let group = module.fresh_group();
        let flag = module.push_global(format!("__tls_flag_{}", group.0), 3, vec![]);
        group_flags.push((group, flag));
        stats.groups += 1;
        for vi in comp {
            let v = vertex_list[vi];
            let path = profile.ctx_path(v.ctx).to_vec();
            let Some((inst, sid)) = specializer.resolve(module, &path, v.sid) else {
                continue;
            };
            if rewritten.contains_key(&(inst, sid)) {
                continue;
            }
            match find_instr(module, inst, sid) {
                Some((b, i, true)) => {
                    // A load: rewrite to SyncLoad.
                    let block = module.func_mut(inst).block_mut(b);
                    if let Instr::Load {
                        dst,
                        addr,
                        off,
                        sid,
                    } = block.instrs[i].clone()
                    {
                        block.instrs[i] = Instr::SyncLoad {
                            dst,
                            addr,
                            off,
                            group,
                            sid,
                        };
                        stats.sync_loads += 1;
                        stats.marked_loads.insert(v.sid);
                        rewritten.insert((inst, sid), group);
                    }
                }
                Some((b, i, false)) => {
                    // A store: record produced value and optionally signal
                    // early.
                    let (val, addr, off) = {
                        let Instr::Store { val, addr, off, .. } =
                            module.func(inst).block(b).instrs[i].clone()
                        else {
                            continue;
                        };
                        (val, addr, off)
                    };
                    let mut seq: Vec<Instr> = Vec::new();
                    if schedule_signals {
                        let sig_sid = module.fresh_sid();
                        seq.push(Instr::SignalMem {
                            group,
                            addr,
                            off,
                            val,
                            sid: sig_sid,
                        });
                    }
                    // flag = 1; saved_addr = addr + off; saved_val = val.
                    let f = module.func_mut(inst);
                    let tmp = Var(f.num_vars as u32);
                    f.num_vars += 1;
                    f.var_names.push("__tls_addr".into());
                    seq.push(Instr::Store {
                        val: Operand::Const(1),
                        addr: Operand::Global(flag),
                        off: 0,
                        sid: Sid(u32::MAX), // fixed below
                    });
                    seq.push(Instr::Bin {
                        dst: tmp,
                        op: tls_ir::BinOp::Add,
                        a: addr,
                        b: Operand::Const(off),
                    });
                    seq.push(Instr::Store {
                        val: Operand::Var(tmp),
                        addr: Operand::Global(flag),
                        off: 1,
                        sid: Sid(u32::MAX),
                    });
                    seq.push(Instr::Store {
                        val,
                        addr: Operand::Global(flag),
                        off: 2,
                        sid: Sid(u32::MAX),
                    });
                    // Assign fresh sids to the placeholder stores.
                    for instr in &mut seq {
                        if instr.sid() == Some(Sid(u32::MAX)) {
                            if let Some(s) = instr.sid_mut() {
                                *s = module.fresh_sid();
                            }
                        }
                    }
                    let block = module.func_mut(inst).block_mut(b);
                    for (k, instr) in seq.into_iter().enumerate() {
                        block.instrs.insert(i + 1 + k, instr);
                    }
                    stats.signalled_stores += 1;
                    rewritten.insert((inst, sid), group);
                }
                None => {}
            }
        }
    }
    stats.clones = specializer.clones;
    if stats.groups == 0 {
        return stats;
    }

    // Header: reset every group flag before anything else in the epoch.
    let reset_sids: Vec<Sid> = group_flags.iter().map(|_| module.fresh_sid()).collect();
    {
        let blk = module.func_mut(region_func).block_mut(header);
        for ((_, flag), sid) in group_flags.iter().zip(reset_sids).rev() {
            blk.instrs.insert(
                0,
                Instr::Store {
                    val: Operand::Const(0),
                    addr: Operand::Global(*flag),
                    off: 0,
                    sid,
                },
            );
        }
    }

    // Back edges: guard chain that signals NULL (or, without scheduling,
    // the saved value) for every group the epoch produced no value for.
    let latches: Vec<BlockId> = loop_blocks
        .iter()
        .copied()
        .filter(|b| {
            module
                .func(region_func)
                .block(*b)
                .successors()
                .contains(&header)
        })
        .collect();
    for latch in latches {
        let mut target = header;
        // Build the chain in reverse group order so group 0 is checked
        // first at runtime.
        for &(group, flag) in group_flags.iter().rev() {
            target = build_guard(module, region_func, group, flag, target, schedule_signals);
        }
        // Retarget this latch's header edge to the chain head.
        let blk = module.func_mut(region_func).block_mut(latch);
        if let Some(term) = &mut blk.term {
            let chain = target;
            term.map_successors(|t| if t == header { chain } else { t });
        }
    }
    stats
}

/// Create the guard blocks for one group on one back edge; returns the
/// chain entry block.
fn build_guard(
    module: &mut Module,
    func: FuncId,
    group: GroupId,
    flag: tls_ir::GlobalId,
    next: BlockId,
    schedule_signals: bool,
) -> BlockId {
    let (tmp, a, w) = {
        let f = module.func_mut(func);
        let base = f.num_vars as u32;
        f.num_vars += 3;
        f.var_names.push("__tls_f".into());
        f.var_names.push("__tls_a".into());
        f.var_names.push("__tls_v".into());
        (Var(base), Var(base + 1), Var(base + 2))
    };
    let load_sid = module.fresh_sid();
    // "Not produced" block: signal NULL.
    let nul = {
        let f = module.func_mut(func);
        let id = BlockId(f.blocks.len() as u32);
        f.blocks.push(tls_ir::Block {
            name: format!("tls_null_{}", group.0),
            instrs: vec![Instr::SignalMemNull { group }],
            term: Some(Terminator::Jump(next)),
        });
        id
    };
    // "Produced" path: with early signalling nothing more to do; without,
    // signal the saved (addr, value) now.
    let produced = if schedule_signals {
        next
    } else {
        let la = module.fresh_sid();
        let lv = module.fresh_sid();
        let sig = module.fresh_sid();
        let f = module.func_mut(func);
        let id = BlockId(f.blocks.len() as u32);
        f.blocks.push(tls_ir::Block {
            name: format!("tls_late_sig_{}", group.0),
            instrs: vec![
                Instr::Load {
                    dst: a,
                    addr: Operand::Global(flag),
                    off: 1,
                    sid: la,
                },
                Instr::Load {
                    dst: w,
                    addr: Operand::Global(flag),
                    off: 2,
                    sid: lv,
                },
                Instr::SignalMem {
                    group,
                    addr: Operand::Var(a),
                    off: 0,
                    val: Operand::Var(w),
                    sid: sig,
                },
            ],
            term: Some(Terminator::Jump(next)),
        });
        id
    };
    let f = module.func_mut(func);
    let chk = BlockId(f.blocks.len() as u32);
    f.blocks.push(tls_ir::Block {
        name: format!("tls_chk_{}", group.0),
        instrs: vec![Instr::Load {
            dst: tmp,
            addr: Operand::Global(flag),
            off: 0,
            sid: load_sid,
        }],
        term: Some(Terminator::Br {
            cond: Operand::Var(tmp),
            t: produced,
            f: nul,
        }),
    });
    chk
}

/// Locate the instruction with `sid` in `func`; returns (block, index,
/// is_load).
fn find_instr(module: &Module, func: FuncId, sid: Sid) -> Option<(BlockId, usize, bool)> {
    for (bid, block) in module.func(func).iter_blocks() {
        for (i, instr) in block.instrs.iter().enumerate() {
            if instr.sid() == Some(sid) {
                return match instr {
                    Instr::Load { .. } => Some((bid, i, true)),
                    Instr::Store { .. } => Some((bid, i, false)),
                    // Already rewritten or not a memory access (e.g. a call
                    // sid): nothing to do.
                    _ => None,
                };
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, RegionId, SpecRegion};
    use tls_profile::{profile_module, run_sequential, LoopKey};

    /// A loop with (a) a hot accumulator dependence every epoch, (b) a cold
    /// dependence every 16th epoch, and (c) an independent slot write.
    fn build(n: i64) -> (tls_ir::Module, LoopKey) {
        let mut mb = ModuleBuilder::new();
        let hot = mb.add_global("hot", 1, vec![0]);
        let cold = mb.add_global("cold", 1, vec![0]);
        let slots = mb.add_global("slots", 256, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, c, v, p) = (fb.var("i"), fb.var("c"), fb.var("v"), fb.var("p"));
        let head = fb.block("head");
        let body = fb.block("body");
        let rare = fb.block("rare");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.load(v, hot, 0);
        fb.bin(v, BinOp::Add, v, i);
        fb.store(v, hot, 0);
        fb.bin(p, BinOp::Add, slots, i);
        fb.store(v, p, 0);
        fb.bin(c, BinOp::Rem, i, 16);
        fb.bin(c, BinOp::Eq, c, 0);
        fb.br(c, rare, latch);
        fb.switch_to(rare);
        fb.load(v, cold, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, cold, 0);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, hot, 0);
        fb.output(v);
        fb.load(v, cold, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let module = mb.build().expect("valid");
        let key = LoopKey {
            func: f,
            header: tls_ir::BlockId(1),
        };
        (module, key)
    }

    fn transform(n: i64, threshold: f64, schedule: bool) -> (tls_ir::Module, MemSyncStats) {
        let (mut m, key) = build(n);
        let profile = profile_module(&m).expect("profiles");
        let lprof = profile.loops[&key].clone();
        let blocks: Vec<BlockId> = (1..=4).map(BlockId).collect();
        let stats = insert_memory_sync(
            &mut m, key.func, key.header, &blocks, &lprof, &profile, threshold, schedule,
        );
        // Register the region so TLS execution semantics apply if simulated.
        let all_blocks: Vec<BlockId> = (1..m.func(key.func).blocks.len() as u32)
            .map(BlockId)
            .collect();
        let _ = all_blocks;
        m.regions.push(SpecRegion {
            id: RegionId(0),
            func: key.func,
            header: key.header,
            blocks,
            unroll: 1,
        });
        tls_ir::validate(&m).expect("valid after memsync");
        (m, stats)
    }

    #[test]
    fn hot_dependence_is_synchronized_and_cold_is_not() {
        let (m, stats) = transform(64, 0.05, true);
        assert_eq!(stats.groups, 1, "only the hot accumulator qualifies");
        assert_eq!(stats.sync_loads, 1);
        assert_eq!(stats.signalled_stores, 1);
        assert_eq!(stats.marked_loads.len(), 1);
        let text = m.func(m.entry).to_string();
        assert!(text.contains("sync_load [@g0+0]"), "{text}");
        assert!(
            !text.contains("sync_load [@g1+0]"),
            "cold dep synced: {text}"
        );
        // Guard chain exists on the back edge.
        assert!(text.contains("signal_mem_null"), "{text}");
    }

    #[test]
    fn zero_threshold_synchronizes_every_distance_one_edge() {
        let (_, stats) = transform(64, 0.0, true);
        // hot (every epoch) and cold (1/16 at distance 16 — NOT distance 1,
        // so even a zero threshold requires at least one d1 occurrence;
        // cold deps never occur at distance 1 here... except threshold 0.0
        // admits freq-0 edges too, so both groups form).
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.sync_loads, 2);
    }

    #[test]
    fn transformed_module_is_sequentially_equivalent() {
        let reference = run_sequential(&build(64).0).expect("runs");
        for schedule in [true, false] {
            let (m, _) = transform(64, 0.05, schedule);
            let r = run_sequential(&m).expect("runs");
            assert_eq!(r.output, reference.output, "schedule={schedule}");
        }
    }

    #[test]
    fn late_signalling_emits_no_early_signal() {
        let (m, stats) = transform(64, 0.05, false);
        assert_eq!(stats.groups, 1);
        let text = m.func(m.entry).to_string();
        // The body block (b2) holds the store but no signal_mem directly
        // after it; signals only appear in the guard blocks.
        let body_text = m
            .func(m.entry)
            .block(BlockId(2))
            .instrs
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            !body_text.contains("signal_mem grp"),
            "late mode must not signal in the body: {body_text}"
        );
        assert!(text.contains("tls_late_sig"), "{text}");
    }

    #[test]
    fn empty_profile_is_a_no_op() {
        let (mut m, key) = build(8);
        let before = format!("{m}");
        let lprof = tls_profile::LoopProfile::default();
        let profile = tls_profile::DepProfile::default();
        let stats = insert_memory_sync(
            &mut m,
            key.func,
            key.header,
            &[BlockId(1), BlockId(2), BlockId(3)],
            &lprof,
            &profile,
            0.05,
            true,
        );
        assert_eq!(stats.groups, 0);
        assert_eq!(before, format!("{m}"));
    }
}
