//! `176.gcc` stand-in: worklist processing with a shared id counter.
//!
//! Epochs process independent work items, but roughly a third of them
//! allocate a fresh identifier from a shared counter behind a procedure
//! call — a moderately frequent, distance-1 dependence that compiler
//! synchronization (after cloning the allocator) handles well. Coverage is
//! low (~18 % in the paper), so the program-level effect is modest.

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (220, 8_000), (800, 30_000));
    let mut r = rng("gcc", input);
    // Worklists allocate ids in bursts: the head of every 16-item window
    // synthesizes insns back to back, the rest follow the drawn data. The
    // guaranteed bursts keep the allocator dependence's distance-1 frequency
    // safely above the 5% selection threshold instead of leaving it to seed
    // luck (i.i.d. items give only ~6% expected, within noise of 5%).
    let items: Vec<i64> = input_data(&mut r, epochs as usize, 0, 1 << 20)
        .into_iter()
        .enumerate()
        .map(|(i, x)| if i % 16 < 2 { x & !3 } else { x })
        .collect();

    let mut mb = ModuleBuilder::new();
    let next_id = mb.add_global("next_insn_id", 1, vec![1000]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gitems = mb.add_global("worklist", epochs as u64, items);
    let alloc_id = mb.declare("alloc_id", 0);
    let main = mb.declare("main", 0);

    // alloc_id(): id = next_id; next_id = id + 1; return id.
    let mut fb = mb.define(alloc_id);
    let id = fb.var("id");
    let nid = fb.var("nid");
    fb.load(id, next_id, 0);
    fb.bin(nid, BinOp::Add, id, 1);
    fb.store(nid, next_id, 0);
    fb.ret(Some(v(id)));
    fb.finish();

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (item, w, c, got) = (fb.var("item"), fb.var("w"), fb.var("c"), fb.var("got"));
    fb.assign(acc, 23);
    filler(&mut fb, "parse", fill, acc);
    warm(&mut fb, "warm_items", gitems, epochs);

    let region = counted_loop(&mut fb, "combine", epochs);
    let ip = fb.var("ip");
    fb.bin(ip, BinOp::Add, gitems, region.i);
    fb.load(item, ip, 0);
    fb.assign(w, v(item));
    churn(&mut fb, w, 20);
    let res = fb.var("res");
    fb.assign(res, v(w));
    // ~25% of items synthesize a new insn and need an id.
    let hot = fb.block("new_insn");
    let cold = fb.block("no_insn");
    fb.bin(c, BinOp::And, item, 3);
    fb.bin(c, BinOp::Eq, c, 0);
    fb.br(c, hot, cold);
    fb.switch_to(hot);
    fb.call(Some(got), alloc_id, vec![]);
    fb.bin(res, BinOp::Add, res, got);
    fb.jump(cold);
    fb.switch_to(cold);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(res, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "regalloc", fill / 2, acc);
    let last = fb.var("last");
    fb.load(last, next_id, 0);
    fb.output(last);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("gcc workload is valid")
}
