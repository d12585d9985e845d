//! `254.gap` stand-in: a workspace bump allocator.
//!
//! Every epoch allocates a small object: it reads the free pointer from the
//! workspace header and advances it immediately (produced early), then
//! initializes the freshly allocated words — an allocation-intensive
//! pattern in which the allocator state is the classic frequently-occurring
//! memory-resident dependence. Compiler forwarding pipelines the allocator
//! even though the initialization tails overlap freely.

use tls_ir::{BinOp, Module, ModuleBuilder, HEAP_BASE};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (240, 1_800), (900, 7_000));
    let mut r = rng("gap", input);
    let sizes = input_data(&mut r, epochs as usize, 2, 7);

    let mut mb = ModuleBuilder::new();
    let free_ptr = mb.add_global("ws_free", 1, vec![HEAP_BASE]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gsizes = mb.add_global("alloc_sizes", epochs as u64, sizes);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (size, p, np, w, t) = (
        fb.var("size"),
        fb.var("p"),
        fb.var("np"),
        fb.var("w"),
        fb.var("t"),
    );
    fb.assign(acc, 41);
    filler(&mut fb, "read_library", fill, acc);
    warm(&mut fb, "warm_sizes", gsizes, epochs);

    let region = counted_loop(&mut fb, "interp", epochs);
    let sp = fb.var("szp");
    fb.bin(sp, BinOp::Add, gsizes, region.i);
    fb.load(size, sp, 0);
    // Bump allocation: read and advance the free pointer immediately.
    fb.load(p, free_ptr, 0);
    fb.bin(np, BinOp::Add, p, size);
    fb.store(np, free_ptr, 0);
    // Initialize the new object (independent of the allocator chain).
    let init = counted_loop(&mut fb, "init", 4);
    fb.bin(t, BinOp::Add, p, init.i);
    fb.bin(w, BinOp::Mul, init.i, 7);
    fb.bin(w, BinOp::Add, w, region.i);
    fb.store(w, t, 0);
    fb.jump(init.latch);
    fb.switch_to(init.exit);
    fb.assign(w, v(size));
    churn(&mut fb, w, 14);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "gc", fill / 2, acc);
    let fin = fb.var("fin");
    fb.load(fin, free_ptr, 0);
    fb.bin(fin, BinOp::Sub, fin, HEAP_BASE);
    fb.output(fin);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("gap workload is valid")
}
