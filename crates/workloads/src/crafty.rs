//! `186.crafty` stand-in: bitboard evaluation with an infrequent shared
//! transposition-table update.
//!
//! Epochs evaluate positions almost independently; about 8 % of them store
//! into a small shared table that later epochs probe. The dependence is
//! infrequent enough that plain speculation usually wins it back, so the
//! techniques matter less here (paper: 14 % coverage, mild improvements).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (220, 9_000), (750, 32_000));
    let tt = scale.words(16);
    let mut r = rng("crafty", input);
    let positions = input_data(&mut r, epochs as usize, 0, 1 << 30);

    let mut mb = ModuleBuilder::new();
    let gtt = mb.add_global("ttable", tt as u64, vec![]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gpos = mb.add_global("positions", epochs as u64, positions);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (pos, w, c, slot, tp, te) = (
        fb.var("pos"),
        fb.var("w"),
        fb.var("c"),
        fb.var("slot"),
        fb.var("tp"),
        fb.var("te"),
    );
    fb.assign(acc, 31);
    filler(&mut fb, "book_probe", fill, acc);
    warm(&mut fb, "warm_pos", gpos, epochs);

    let region = counted_loop(&mut fb, "search", epochs);
    let pp = fb.var("pp");
    fb.bin(pp, BinOp::Add, gpos, region.i);
    fb.load(pos, pp, 0);
    // Probe the transposition table (read side of the dependence).
    fb.bin(slot, BinOp::Rem, pos, tt);
    fb.bin(tp, BinOp::Add, gtt, slot);
    fb.load(te, tp, 0);
    // Bitboard-ish evaluation.
    fb.bin(w, BinOp::Xor, pos, te);
    fb.bin(w, BinOp::And, w, 0x5555_5555);
    churn(&mut fb, w, 22);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    // ~3%: store the evaluation back into the table. Below the 5%
    // threshold, so the compiler leaves it speculative (paper: crafty is
    // barely affected by the techniques).
    let store_tt = fb.block("tt_store");
    let cont = fb.block("cont");
    fb.bin(c, BinOp::Rem, pos, 32);
    fb.bin(c, BinOp::Eq, c, 0);
    fb.br(c, store_tt, cont);
    fb.switch_to(store_tt);
    fb.store(w, tp, 0);
    fb.jump(cont);
    fb.switch_to(cont);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "annotate", fill / 2, acc);
    let sum = fb.var("sum");
    fb.assign(sum, 0);
    let tally = counted_loop(&mut fb, "tally", tt);
    let (sp, sv) = (fb.var("sp"), fb.var("sv"));
    fb.bin(sp, BinOp::Add, gtt, tally.i);
    fb.load(sv, sp, 0);
    fb.bin(sum, BinOp::Xor, sum, sv);
    fb.jump(tally.latch);
    fb.switch_to(tally.exit);
    fb.output(sum);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("crafty workload is valid")
}
