//! `181.mcf` stand-in: arc scan with sparse node-potential updates.
//!
//! Each epoch inspects one arc of a network; reading the source node's
//! potential is universal, but only a fraction of epochs (negative reduced
//! cost) write the destination's potential — so dependences occur in a
//! moderate fraction of epochs at small, varying distances. Compiler
//! synchronization helps some; coverage is high (~89 % in the paper).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (260, 400), (1_000, 1_400));
    // Few nodes → recent-epoch collisions are common; footprint scaling
    // widens the network (and dilutes collisions) deliberately.
    let nodes = scale.words(12);
    let mut r = rng("mcf", input);
    let srcs = input_data(&mut r, epochs as usize, 0, nodes);
    let dsts = input_data(&mut r, epochs as usize, 0, nodes);
    let costs = input_data(&mut r, epochs as usize, -50, 50);
    let potentials = input_data(&mut r, nodes as usize, 0, 1_000);

    let mut mb = ModuleBuilder::new();
    let gpot = mb.add_global("potential", nodes as u64, potentials);
    let total_flow = mb.add_global("total_flow", 1, vec![0]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gsrc = mb.add_global("arc_src", epochs as u64, srcs);
    let gdst = mb.add_global("arc_dst", epochs as u64, dsts);
    let gcost = mb.add_global("arc_cost", epochs as u64, costs);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (src, dst, cost, ps, pd, w, c, t) = (
        fb.var("src"),
        fb.var("dst"),
        fb.var("cost"),
        fb.var("ps"),
        fb.var("pd"),
        fb.var("w"),
        fb.var("c"),
        fb.var("t"),
    );
    fb.assign(acc, 29);
    filler(&mut fb, "read_net", fill, acc);
    warm(&mut fb, "warm_src", gsrc, epochs);
    warm(&mut fb, "warm_dst", gdst, epochs);
    warm(&mut fb, "warm_cost", gcost, epochs);

    let region = counted_loop(&mut fb, "simplex", epochs);
    fb.bin(t, BinOp::Add, gsrc, region.i);
    fb.load(src, t, 0);
    fb.bin(t, BinOp::Add, gdst, region.i);
    fb.load(dst, t, 0);
    fb.bin(t, BinOp::Add, gcost, region.i);
    fb.load(cost, t, 0);
    // Update the running flow EARLY: a frequent fixed-address dependence
    // the compiler forwards well (mcf improves under C, paper Table 2).
    let flow = fb.var("flow");
    fb.load(flow, total_flow, 0);
    fb.bin(flow, BinOp::Add, flow, cost);
    fb.store(flow, total_flow, 0);
    // Read the source potential (the consumer side of the dependence).
    fb.bin(t, BinOp::Add, gpot, src);
    fb.load(ps, t, 0);
    fb.bin(w, BinOp::Add, ps, cost);
    churn(&mut fb, w, 18);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    // Strongly negative reduced cost (~4%): update the destination
    // potential — too infrequent to synchronize, left speculative.
    let pivot = fb.block("pivot");
    let cont = fb.block("cont");
    fb.bin(c, BinOp::Lt, cost, -45);
    fb.br(c, pivot, cont);
    fb.switch_to(pivot);
    fb.bin(t, BinOp::Add, gpot, dst);
    fb.load(pd, t, 0);
    fb.bin(pd, BinOp::Add, pd, cost);
    fb.store(pd, t, 0);
    fb.jump(cont);
    fb.switch_to(cont);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "flow_report", fill / 2, acc);
    let flow_out = fb.var("flow_out");
    fb.load(flow_out, total_flow, 0);
    fb.output(flow_out);
    let sum = fb.var("sum");
    fb.assign(sum, 0);
    let tally = counted_loop(&mut fb, "tally", nodes);
    let (tp, tv) = (fb.var("tp"), fb.var("tv"));
    fb.bin(tp, BinOp::Add, gpot, tally.i);
    fb.load(tv, tp, 0);
    fb.bin(sum, BinOp::Add, sum, tv);
    fb.jump(tally.latch);
    fb.switch_to(tally.exit);
    fb.output(sum);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("mcf workload is valid")
}
