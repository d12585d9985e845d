//! Inter-epoch data-dependence profiling (§2.3 "Profiling dependences").
//!
//! The profiler observes a sequential run and, for every natural loop,
//! records which loads depend on stores from *earlier iterations* of that
//! loop. Loads and stores are named by their static instruction id plus the
//! call stack rooted at the loop (context-sensitive), and dependences are
//! aggregated over all iterations (flow-insensitive) — exactly the paper's
//! naming scheme. Per-loop coverage, instance and trip-count statistics for
//! region selection (§3.1) are collected in the same pass.

use std::collections::HashMap;

use tls_ir::{BlockId, FuncId, RegionId, Sid};

use crate::interp::{ExecObserver, Interp, LoopInstance, TraceState};

/// Interned call-stack identifier. `0` is always the empty stack.
pub type CtxId = u32;

/// Maximum call-stack depth kept per context (deeper stacks are truncated
/// to their innermost frames, matching a bounded-context profiler).
const MAX_CTX: usize = 8;

/// Number of buckets in the dependence-distance histogram: distances
/// `1..=8` map to buckets `0..=7`; bucket `8` collects distances ≥ 9.
pub const DIST_BUCKETS: usize = 9;

/// A load or store named by static id + call stack rooted at the loop.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexKey {
    /// Static instruction id.
    pub sid: Sid,
    /// Interned call stack from the loop to the instruction.
    pub ctx: CtxId,
}

/// Static identity of a loop (function + header), stable across runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LoopKey {
    /// Function containing the loop.
    pub func: FuncId,
    /// Header block of the loop.
    pub header: BlockId,
}

/// Statistics for one frequent-dependence-graph edge (store → load).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepEdge {
    /// Iterations (epochs) of the loop in which this dependence occurred
    /// at least once — the paper's dependence frequency numerator.
    pub epochs: u64,
    /// Iterations in which it occurred at distance 1 (from the immediately
    /// preceding epoch). Forwarding reaches only the successor epoch, so
    /// §2.4's "frequently-occurring data dependences between *consecutive*
    /// epochs" filter uses this count.
    pub epochs_d1: u64,
    /// Raw occurrence count (several per epoch possible).
    pub occurrences: u64,
    /// Histogram of dependence distances (in epochs); see [`DIST_BUCKETS`].
    pub dist_hist: [u64; DIST_BUCKETS],
}

/// Everything profiled about one loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopProfile {
    /// Dynamic instances of the loop (times it was entered).
    pub instances: u64,
    /// Total iterations (epochs) across all instances.
    pub total_iters: u64,
    /// Dynamic instructions executed inside the loop, callees included.
    pub dyn_instrs: u64,
    /// Dependence edges `(store, load) → stats`.
    pub edges: HashMap<(VertexKey, VertexKey), DepEdge>,
    /// Per consumer vertex: epochs in which it had *any* inter-epoch dep.
    pub load_dep_epochs: HashMap<VertexKey, u64>,
    /// Same, aggregated per static load id (used by the Figure 6 threshold
    /// study and by hardware-table comparisons, which see only PCs).
    pub load_dep_epochs_by_sid: HashMap<Sid, u64>,
}

impl LoopProfile {
    /// Fraction of epochs in which `v` depended on an earlier epoch.
    pub fn load_freq(&self, v: VertexKey) -> f64 {
        if self.total_iters == 0 {
            0.0
        } else {
            *self.load_dep_epochs.get(&v).unwrap_or(&0) as f64 / self.total_iters as f64
        }
    }

    /// Fraction of epochs in which edge `(store, load)` occurred.
    pub fn edge_freq(&self, store: VertexKey, load: VertexKey) -> f64 {
        if self.total_iters == 0 {
            0.0
        } else {
            self.edges
                .get(&(store, load))
                .map_or(0.0, |e| e.epochs as f64 / self.total_iters as f64)
        }
    }

    /// Average iterations per instance (the paper requires ≥ 1.5).
    pub fn avg_trip(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.total_iters as f64 / self.instances as f64
        }
    }

    /// Average dynamic instructions per iteration (the paper requires ≥ 15).
    pub fn avg_epoch_size(&self) -> f64 {
        if self.total_iters == 0 {
            0.0
        } else {
            self.dyn_instrs as f64 / self.total_iters as f64
        }
    }
}

/// The result of a profiling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DepProfile {
    /// Per-loop profiles.
    pub loops: HashMap<LoopKey, LoopProfile>,
    /// Total dynamic instructions of the whole run (coverage denominator).
    pub total_dyn_instrs: u64,
    ctx_paths: Vec<Vec<Sid>>,
}

impl DepProfile {
    /// The call path (call-site sids, outermost first) behind a context id.
    ///
    /// # Panics
    /// Panics if `ctx` was not produced by this profile.
    pub fn ctx_path(&self, ctx: CtxId) -> &[Sid] {
        &self.ctx_paths[ctx as usize]
    }

    /// Coverage of a loop: fraction of total execution spent inside it.
    pub fn coverage(&self, key: LoopKey) -> f64 {
        if self.total_dyn_instrs == 0 {
            return 0.0;
        }
        self.loops
            .get(&key)
            .map_or(0.0, |l| l.dyn_instrs as f64 / self.total_dyn_instrs as f64)
    }
}

#[derive(Clone, Debug)]
struct WriterRec {
    sid: Sid,
    call_sids: Vec<Sid>,
    /// Active loop instances at store time: (inst_seq, iter).
    loops: Vec<(u64, u64)>,
}

/// Observer that builds a [`DepProfile`]. Create with [`DepProfiler::new`],
/// pass to [`Interp::run`], then call [`DepProfiler::finish`].
pub struct DepProfiler {
    /// LoopUid → (static key, region?) copied from the interpreter.
    loop_keys: Vec<(LoopKey, Option<RegionId>)>,
    /// Accumulators indexed by LoopUid.
    instances: Vec<u64>,
    total_iters: Vec<u64>,
    dyn_instrs: Vec<u64>,
    edges: Vec<HashMap<(VertexKey, VertexKey), DepEdgeAcc>>,
    load_dep: Vec<HashMap<VertexKey, (u64, u64, u64)>>, // (last inst, last iter, epochs)
    load_dep_sid: Vec<HashMap<Sid, (u64, u64, u64)>>,
    ctx_intern: HashMap<Vec<Sid>, CtxId>,
    ctx_paths: Vec<Vec<Sid>>,
    last_writer: HashMap<i64, WriterRec>,
    total_instrs: u64,
}

#[derive(Clone, Debug, Default)]
struct DepEdgeAcc {
    stats: DepEdge,
    /// Consumer (inst_seq, iter) last counted toward `epochs`.
    last_counted: Option<(u64, u64)>,
    /// Consumer (inst_seq, iter) last counted toward `epochs_d1`.
    last_counted_d1: Option<(u64, u64)>,
}

impl DepProfiler {
    /// Build a profiler for the interpreter's module (captures its loop
    /// table; the interpreter itself is not retained).
    pub fn new(interp: &Interp<'_>) -> Self {
        let loop_keys: Vec<(LoopKey, Option<RegionId>)> = interp
            .loop_meta()
            .iter()
            .map(|m| {
                (
                    LoopKey {
                        func: m.func,
                        header: m.header,
                    },
                    m.region,
                )
            })
            .collect();
        let n = loop_keys.len();
        Self {
            loop_keys,
            instances: vec![0; n],
            total_iters: vec![0; n],
            dyn_instrs: vec![0; n],
            edges: vec![HashMap::new(); n],
            load_dep: vec![HashMap::new(); n],
            load_dep_sid: vec![HashMap::new(); n],
            ctx_intern: HashMap::from([(Vec::new(), 0)]),
            ctx_paths: vec![Vec::new()],
            last_writer: HashMap::new(),
            total_instrs: 0,
        }
    }

    fn intern_ctx(&mut self, path: &[Sid]) -> CtxId {
        let trimmed = if path.len() > MAX_CTX {
            &path[path.len() - MAX_CTX..]
        } else {
            path
        };
        if let Some(&id) = self.ctx_intern.get(trimmed) {
            return id;
        }
        let id = self.ctx_paths.len() as CtxId;
        self.ctx_intern.insert(trimmed.to_vec(), id);
        self.ctx_paths.push(trimmed.to_vec());
        id
    }

    /// Consume the profiler and produce the profile.
    pub fn finish(self) -> DepProfile {
        let mut loops = HashMap::new();
        for (lu, (key, _)) in self.loop_keys.iter().enumerate() {
            if self.instances[lu] == 0 {
                continue;
            }
            let edges = self.edges[lu]
                .iter()
                .map(|(k, v)| (*k, v.stats.clone()))
                .collect();
            loops.insert(
                *key,
                LoopProfile {
                    instances: self.instances[lu],
                    total_iters: self.total_iters[lu],
                    dyn_instrs: self.dyn_instrs[lu],
                    edges,
                    load_dep_epochs: self.load_dep[lu].iter().map(|(k, v)| (*k, v.2)).collect(),
                    load_dep_epochs_by_sid: self.load_dep_sid[lu]
                        .iter()
                        .map(|(k, v)| (*k, v.2))
                        .collect(),
                },
            );
        }
        DepProfile {
            loops,
            total_dyn_instrs: self.total_instrs,
            ctx_paths: self.ctx_paths,
        }
    }
}

impl ExecObserver for DepProfiler {
    fn on_instr(&mut self, trace: &TraceState, _func: FuncId, _instr: &tls_ir::Instr) {
        self.total_instrs += 1;
        for li in &trace.loops {
            self.dyn_instrs[li.lu] += 1;
        }
    }

    fn on_load(&mut self, trace: &TraceState, sid: Sid, addr: i64, _value: i64) {
        let Some(writer) = self.last_writer.get(&addr) else {
            return;
        };
        // Clone the small writer record so `self` methods can be called.
        let writer = writer.clone();
        for li in &trace.loops {
            let Some(&(_, w_iter)) = writer.loops.iter().find(|(seq, _)| *seq == li.inst_seq)
            else {
                continue; // store happened outside this instance
            };
            if w_iter >= li.iter {
                continue; // intra-epoch (or impossible future) dependence
            }
            let dist = li.iter - w_iter;
            let lu = li.lu;
            let consumer = VertexKey {
                sid,
                ctx: self.intern_ctx(&trace.call_sids[li.call_base..]),
            };
            let producer = VertexKey {
                sid: writer.sid,
                ctx: self.intern_ctx(&writer.call_sids[li.call_base.min(writer.call_sids.len())..]),
            };
            let acc = self.edges[lu].entry((producer, consumer)).or_default();
            acc.stats.occurrences += 1;
            let bucket = (dist as usize - 1).min(DIST_BUCKETS - 1);
            acc.stats.dist_hist[bucket] += 1;
            if acc.last_counted != Some((li.inst_seq, li.iter)) {
                acc.last_counted = Some((li.inst_seq, li.iter));
                acc.stats.epochs += 1;
            }
            if dist == 1 && acc.last_counted_d1 != Some((li.inst_seq, li.iter)) {
                acc.last_counted_d1 = Some((li.inst_seq, li.iter));
                acc.stats.epochs_d1 += 1;
            }
            let entry = self.load_dep[lu]
                .entry(consumer)
                .or_insert((u64::MAX, 0, 0));
            if (entry.0, entry.1) != (li.inst_seq, li.iter) {
                *entry = (li.inst_seq, li.iter, entry.2 + 1);
            }
            let entry = self.load_dep_sid[lu].entry(sid).or_insert((u64::MAX, 0, 0));
            if (entry.0, entry.1) != (li.inst_seq, li.iter) {
                *entry = (li.inst_seq, li.iter, entry.2 + 1);
            }
        }
    }

    fn on_store(&mut self, trace: &TraceState, sid: Sid, addr: i64, _value: i64) {
        self.last_writer.insert(
            addr,
            WriterRec {
                sid,
                call_sids: trace.call_sids.clone(),
                loops: trace
                    .loops
                    .iter()
                    .map(|li| (li.inst_seq, li.iter))
                    .collect(),
            },
        );
    }

    fn on_loop_enter(&mut self, trace: &TraceState) {
        let li = trace.loops.last().expect("entered loop");
        self.instances[li.lu] += 1;
    }

    fn on_loop_iter(&mut self, trace: &TraceState) {
        let li = trace.loops.last().expect("iterating loop");
        self.total_iters[li.lu] += 1;
    }

    fn on_loop_exit(&mut self, _trace: &TraceState, closed: &LoopInstance) {
        // Count the instance's first iteration (iter 0): total iterations of
        // the instance = closed.iter + 1.
        self.total_iters[closed.lu] += 1;
    }
}

/// Profile `module` with default limits; convenience for callers that do
/// not need the raw [`crate::ExecResult`].
///
/// # Errors
/// Propagates interpreter limits as [`crate::ExecError`].
pub fn profile_module(module: &tls_ir::Module) -> Result<DepProfile, crate::ExecError> {
    let mut interp = Interp::new(module, crate::InterpConfig::default());
    let mut prof = DepProfiler::new(&interp);
    interp.run(&mut prof)?;
    Ok(prof.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder};

    /// A loop over i in 0..n where each iteration loads and stores global
    /// `acc` — a guaranteed distance-1 dependence every epoch — plus a
    /// sparse dependence through `spare` touched every 4th iteration.
    fn dep_loop(n: i64) -> (tls_ir::Module, Vec<Sid>) {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let spare = mb.add_global("spare", 1, vec![0]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, v, c, m4) = (fb.var("i"), fb.var("v"), fb.var("c"), fb.var("m4"));
        let head = fb.block("head");
        let body = fb.block("body");
        let sparse = fb.block("sparse");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        let ld_acc = fb.load(v, acc, 0);
        fb.bin(v, BinOp::Add, v, 1);
        let st_acc = fb.store(v, acc, 0);
        fb.bin(m4, BinOp::Rem, i, 4);
        fb.bin(m4, BinOp::Eq, m4, 0);
        fb.br(m4, sparse, latch);
        fb.switch_to(sparse);
        let ld_sp = fb.load(v, spare, 0);
        fb.bin(v, BinOp::Add, v, 10);
        let st_sp = fb.store(v, spare, 0);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        (
            mb.build().expect("valid"),
            vec![ld_acc, st_acc, ld_sp, st_sp],
        )
    }

    #[test]
    fn finds_frequent_and_sparse_dependences() {
        let (m, sids) = dep_loop(40);
        let profile = profile_module(&m).expect("profiles");
        let key = LoopKey {
            func: m.entry,
            header: BlockId(1),
        };
        let lp = &profile.loops[&key];
        assert_eq!(lp.instances, 1);
        assert_eq!(lp.total_iters, 41); // 40 body iters + final header check
        let acc_edge = (
            VertexKey {
                sid: sids[1],
                ctx: 0,
            },
            VertexKey {
                sid: sids[0],
                ctx: 0,
            },
        );
        let e = &lp.edges[&acc_edge];
        // acc: every iteration 1..=39 sees the previous iteration's store.
        assert_eq!(e.epochs, 39);
        assert_eq!(e.dist_hist[0], 39); // all distance 1
                                        // spare: touched on iterations 0,4,8,...,36 → 9 consumers dep on
                                        // previous toucher (distance 4), first one has no writer.
        let sp_edge = (
            VertexKey {
                sid: sids[3],
                ctx: 0,
            },
            VertexKey {
                sid: sids[2],
                ctx: 0,
            },
        );
        let s = &lp.edges[&sp_edge];
        assert_eq!(s.epochs, 9);
        assert_eq!(s.dist_hist[3], 9); // all distance 4
                                       // Frequencies: acc ~95%, spare ~22%.
        assert!(lp.edge_freq(acc_edge.0, acc_edge.1) > 0.9);
        assert!(lp.edge_freq(sp_edge.0, sp_edge.1) < 0.3);
        assert!(lp.load_freq(acc_edge.1) > 0.9);
        // Per-sid aggregation matches.
        assert_eq!(lp.load_dep_epochs_by_sid[&sids[0]], 39);
        assert!(profile.coverage(key) > 0.8);
        assert!(lp.avg_trip() > 10.0);
        assert!(lp.avg_epoch_size() > 3.0);
    }

    #[test]
    fn context_distinguishes_call_paths() {
        // Two call sites of the same helper store to the same global; the
        // dependence edges must separate the two paths (paper Fig. 5).
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("shared", 1, vec![0]);
        let helper = mb.declare("bump", 0);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(helper);
        let v = fb.var("v");
        fb.load(v, g, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, g, 0);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        let (i, c) = (fb.var("i"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 10);
        fb.br(c, body, exit);
        fb.switch_to(body);
        let call1 = fb.call(None, helper, vec![]);
        let call2 = fb.call(None, helper, vec![]);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        let m = mb.build().expect("valid");
        let profile = profile_module(&m).expect("profiles");
        let key = LoopKey {
            func: main,
            header: BlockId(1),
        };
        let lp = &profile.loops[&key];
        // Contexts: one per call site. The inter-epoch edge is
        // store@call2 → load@call1 (call2's store is last in the epoch).
        let ctxs: std::collections::HashSet<CtxId> =
            lp.edges.keys().flat_map(|(s, l)| [s.ctx, l.ctx]).collect();
        assert!(ctxs.len() >= 2, "expected ≥2 contexts, got {ctxs:?}");
        let inter = lp
            .edges
            .iter()
            .filter(|(_, e)| e.epochs > 0)
            .collect::<Vec<_>>();
        assert!(!inter.is_empty());
        // Each context path resolves to a real call site.
        for (s, l) in lp.edges.keys() {
            for v in [s, l] {
                let path = profile.ctx_path(v.ctx);
                assert!(path.len() == 1, "path {path:?}");
                assert!(path[0] == call1 || path[0] == call2);
            }
        }
    }

    #[test]
    fn no_dependences_in_independent_loop() {
        // Each iteration touches its own array slot: no inter-epoch deps.
        let mut mb = ModuleBuilder::new();
        let arr = mb.add_global("arr", 64, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, p, v, c) = (fb.var("i"), fb.var("p"), fb.var("v"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 64);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(p, BinOp::Add, arr, i);
        fb.load(v, p, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, p, 0);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let profile = profile_module(&m).expect("profiles");
        let key = LoopKey {
            func: m.entry,
            header: BlockId(1),
        };
        assert!(profile.loops[&key].edges.is_empty());
        assert_eq!(profile.loops[&key].total_iters, 65);
    }
}
