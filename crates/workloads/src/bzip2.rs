//! `256.bzip2` stand-ins.
//!
//! **Compression**: a bucket-count phase. Each epoch increments one of 16
//! bucket counters selected by the data; a given pair of epochs conflicts
//! only when their buckets collide within the speculation window, so
//! dependences occur in a modest fraction of epochs and the forwarded
//! address rarely matches — neither technique moves the needle much,
//! matching the paper's flat bzip2-compress rows.
//!
//! **Decompression**: block decode with no shared state at all; the paper
//! notes failed speculation "was not a problem to begin with", so all bars
//! coincide.

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Compression (bucket counting).
pub fn build_comp(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (260, 600), (1_000, 2_400));
    // Footprint scaling widens the bucket array (diluting collisions), which
    // is the intended meaning of a larger working set.
    let buckets = scale.words(16);
    let mut r = rng("bzip2_comp", input);
    let data = input_data(&mut r, epochs as usize, 0, 1 << 16);

    let mut mb = ModuleBuilder::new();
    let gbkt = mb.add_global("buckets", buckets as u64, vec![]);
    let run_len = mb.add_global("run_len", 1, vec![1]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gdata = mb.add_global("block", epochs as u64, data);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, b, p, cnt, w) = (
        fb.var("d"),
        fb.var("b"),
        fb.var("p"),
        fb.var("cnt"),
        fb.var("w"),
    );
    fb.assign(acc, 43);
    filler(&mut fb, "rle", fill, acc);
    warm(&mut fb, "warm_block", gdata, epochs);

    let region = counted_loop(&mut fb, "sort", epochs);
    let dp = fb.var("dp");
    fb.bin(dp, BinOp::Add, gdata, region.i);
    fb.load(d, dp, 0);
    fb.bin(b, BinOp::Rem, d, buckets);
    fb.bin(p, BinOp::Add, gbkt, b);
    fb.load(cnt, p, 0);
    fb.bin(cnt, BinOp::Add, cnt, 1);
    fb.store(cnt, p, 0);
    fb.assign(w, v(d));
    churn(&mut fb, w, 22);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    // Run boundaries (pairs of adjacent epochs, ~6% of all epochs) extend
    // the current run length — a low-frequency distance-1 dependence
    // (Figure 6: bzip2-compress needs the 5% threshold).
    let run = fb.block("run_boundary");
    let after = fb.block("after_run");
    let rcond = fb.var("rcond");
    fb.bin(rcond, BinOp::Div, region.i, 2);
    fb.bin(rcond, BinOp::Rem, rcond, 16);
    fb.bin(rcond, BinOp::Eq, rcond, 0);
    fb.br(rcond, run, after);
    fb.switch_to(run);
    let rl = fb.var("rl");
    fb.load(rl, run_len, 0);
    fb.bin(rl, BinOp::Add, rl, d);
    fb.store(rl, run_len, 0);
    fb.jump(after);
    fb.switch_to(after);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "mtf", fill / 2, acc);
    let sum = fb.var("sum");
    fb.assign(sum, 0);
    let tally = counted_loop(&mut fb, "tally", buckets);
    let (tp, tv) = (fb.var("tp"), fb.var("tv"));
    fb.bin(tp, BinOp::Add, gbkt, tally.i);
    fb.load(tv, tp, 0);
    fb.bin(sum, BinOp::Add, sum, tv);
    fb.jump(tally.latch);
    fb.switch_to(tally.exit);
    let rl_out = fb.var("rl_out");
    fb.load(rl_out, run_len, 0);
    fb.output(rl_out);
    fb.output(sum);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("bzip2_comp workload is valid")
}

/// Decompression (independent block decode).
pub fn build_decomp(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (200, 6_500), (700, 24_000));
    let mut r = rng("bzip2_decomp", input);
    let data = input_data(&mut r, epochs as usize, 0, 1 << 20);

    let mut mb = ModuleBuilder::new();
    let gdata = mb.add_global("stream", epochs as u64, data);
    let gout = mb.add_global("decoded", epochs as u64, vec![]);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, w, op) = (fb.var("d"), fb.var("w"), fb.var("op"));
    fb.assign(acc, 47);
    filler(&mut fb, "read_header", fill, acc);
    warm(&mut fb, "warm_stream", gdata, epochs);

    let region = counted_loop(&mut fb, "decode", epochs);
    let dp = fb.var("dp");
    fb.bin(dp, BinOp::Add, gdata, region.i);
    fb.load(d, dp, 0);
    fb.assign(w, v(d));
    churn(&mut fb, w, 24);
    fb.bin(op, BinOp::Add, gout, region.i);
    fb.store(w, op, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);

    reduce(&mut fb, gout, epochs, acc);

    filler(&mut fb, "crc_check", fill / 2, acc);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("bzip2_decomp workload is valid")
}
