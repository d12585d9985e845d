//! Programs and helpers shared by the simulator's unit tests.

use tls_ir::{BinOp, BlockId, FuncId, Module, ModuleBuilder, Operand, RegionId, Sid, SpecRegion};

use crate::config::SimConfig;
use crate::events::TraceEvent;
use crate::machine::Machine;
use crate::stats::SimResult;
use crate::trace::RecordingTracer;

/// Mark the loop {head, body...} of function `f` as the next region.
pub(crate) fn mark_region(
    mb: &mut ModuleBuilder,
    f: FuncId,
    header: BlockId,
    blocks: Vec<BlockId>,
) {
    let module = mb.module_mut();
    let id = RegionId(module.regions.len() as u32);
    module.regions.push(SpecRegion {
        id,
        func: f,
        header,
        blocks,
        unroll: 1,
    });
}

/// Loop with a memory-resident dependence through global `acc`; when
/// `synced` the body uses SyncLoad/SignalMem, else plain load/store.
/// Returns the module and the dependence's load.
pub(crate) fn mem_dep_module(n: i64, synced: bool) -> (Module, Sid) {
    let mut mb = ModuleBuilder::new();
    let acc = mb.add_global("acc", 1, vec![0]);
    let f = mb.declare("main", 0);
    let group = mb.fresh_group();
    let mut fb = mb.define(f);
    let (ep, i, c, v, w) = (
        fb.var("ep"),
        fb.var("i"),
        fb.var("c"),
        fb.var("v"),
        fb.var("w"),
    );
    let head = fb.block("head");
    let body = fb.block("body");
    let exit = fb.block("exit");
    fb.jump(head);
    fb.switch_to(head);
    fb.epoch_id(ep);
    fb.assign(i, Operand::Var(ep));
    fb.bin(c, BinOp::Lt, i, n);
    fb.br(c, body, exit);
    fb.switch_to(body);
    let load_sid = if synced {
        fb.sync_load(v, acc, 0, group)
    } else {
        fb.load(v, acc, 0)
    };
    fb.bin(v, BinOp::Add, v, 1);
    fb.store(v, acc, 0);
    if synced {
        fb.signal_mem(group, acc, 0, v);
    }
    // Independent tail work *after* the value is produced: this is what
    // early forwarding overlaps and stall-till-commit serializes.
    fb.assign(w, Operand::Var(i));
    for _ in 0..12 {
        fb.bin(w, BinOp::Mul, w, 3);
        fb.bin(w, BinOp::Add, w, 1);
    }
    fb.jump(head);
    fb.switch_to(exit);
    fb.load(v, acc, 0);
    fb.output(v);
    fb.ret(None);
    fb.finish();
    mb.set_entry(f);
    mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
    (mb.build().expect("valid"), load_sid)
}

/// Simulate `m` under `cfg`, recording the run's event stream.
pub(crate) fn traced(m: &Module, cfg: SimConfig) -> (SimResult, Vec<TraceEvent>) {
    let mut rec = RecordingTracer::default();
    let r = Machine::new(m, cfg)
        .run_traced(&mut rec)
        .expect("simulates");
    (r, rec.events)
}
