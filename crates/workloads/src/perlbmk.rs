//! `253.perlbmk` stand-in: interpreter dispatch over a memory-resident
//! operand stack pointer.
//!
//! Every epoch executes one bytecode. The stack pointer lives in memory
//! (the interpreter's VM state), is read at the top of the dispatch, and
//! its new value is stored early — the evaluation of the op follows. The
//! dependence occurs every epoch at distance 1, so compiler-inserted
//! forwarding restores most of the parallelism (the paper: perlbmk among
//! the compiler-synchronization wins).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (240, 4_500), (900, 17_000));
    let stack = scale.words(256);
    let mut r = rng("perlbmk", input);
    let ops = input_data(&mut r, epochs as usize, 0, 100);

    let mut mb = ModuleBuilder::new();
    let sp_g = mb.add_global("vm_sp", 1, vec![8]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gstack = mb.add_global("vm_stack", stack as u64, vec![]);
    let gops = mb.add_global("bytecode", epochs as u64, ops);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (op, sp, nsp, w, c, t) = (
        fb.var("op"),
        fb.var("sp"),
        fb.var("nsp"),
        fb.var("w"),
        fb.var("c"),
        fb.var("t"),
    );
    fb.assign(acc, 37);
    filler(&mut fb, "compile", fill, acc);
    warm(&mut fb, "warm_ops", gops, epochs);
    warm(&mut fb, "warm_stack", gstack, stack);

    let region = counted_loop(&mut fb, "run", epochs);
    let opp = fb.var("opp");
    fb.bin(opp, BinOp::Add, gops, region.i);
    fb.load(op, opp, 0);
    let res = fb.var("res");
    fb.assign(res, v(op));
    // Dispatch: read the stack pointer and commit the new value EARLY.
    fb.load(sp, sp_g, 0);
    let push = fb.block("op_push");
    let pop = fb.block("op_pop");
    let eval = fb.block("op_eval");
    fb.bin(c, BinOp::And, op, 1);
    fb.br(c, push, pop);
    fb.switch_to(push);
    fb.bin(nsp, BinOp::Add, sp, 1);
    fb.bin(nsp, BinOp::Rem, nsp, stack - 8);
    fb.store(nsp, sp_g, 0);
    fb.bin(t, BinOp::Add, gstack, sp);
    fb.store(op, t, 0);
    fb.jump(eval);
    fb.switch_to(pop);
    fb.bin(nsp, BinOp::Max, sp, 2);
    fb.bin(nsp, BinOp::Sub, nsp, 1);
    fb.store(nsp, sp_g, 0);
    fb.bin(t, BinOp::Add, gstack, nsp);
    fb.load(w, t, 0);
    fb.bin(res, BinOp::Xor, res, w);
    fb.jump(eval);
    // Evaluation tail: independent of the stack pointer chain.
    fb.switch_to(eval);
    fb.assign(w, v(op));
    churn(&mut fb, w, 18);
    fb.bin(res, BinOp::Add, res, w);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(res, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "destruct", fill / 2, acc);
    let fsp = fb.var("fsp");
    fb.load(fsp, sp_g, 0);
    fb.output(fsp);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("perlbmk workload is valid")
}
