//! `099.go` stand-in: move evaluation with a shared history table.
//!
//! Each epoch evaluates one candidate move: roughly a third of the moves
//! update a shared evaluation score through a call *early in the epoch*,
//! then scan a private slice of the board (independent work). The score is
//! a moderately frequent, distance-1 dependence whose forwarded address
//! always matches — the kind of dependence compiler synchronization covers
//! well (the paper reports go among the benchmarks improved by
//! compiler-inserted synchronization, at 22 % coverage).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (200, 6_000), (700, 24_000));
    let hist_size = scale.words(8);
    let board = scale.words(361);
    let mut r = rng("go", input);
    let moves = input_data(&mut r, epochs as usize, 0, 1_000_000);
    let board_init = input_data(&mut r, board as usize, 0, 3);

    let mut mb = ModuleBuilder::new();
    let history = mb.add_global("history", hist_size as u64, vec![]);
    let eval_score = mb.add_global("eval_score", 1, vec![0]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gboard = mb.add_global("board", board as u64, board_init);
    let gmoves = mb.add_global("moves", epochs as u64, moves);
    let update_history = mb.declare("update_history", 1);
    let main = mb.declare("main", 0);

    // update_history(mv): eval_score += mv, plus a blind history-table
    // update (read-modify-write through a call so synchronization requires
    // cloning; the score's address is fixed, so forwarding always matches).
    let mut fb = mb.define(update_history);
    let mv = fb.param(0);
    let (slot, p, h) = (fb.var("slot"), fb.var("p"), fb.var("h"));
    fb.load(h, eval_score, 0);
    fb.bin(h, BinOp::Add, h, mv);
    fb.store(h, eval_score, 0);
    fb.bin(slot, BinOp::Rem, mv, hist_size);
    fb.bin(p, BinOp::Add, history, slot);
    fb.store(mv, p, 0);
    fb.ret(None);
    fb.finish();

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (mv, c, w, b, bp) = (
        fb.var("mv"),
        fb.var("c"),
        fb.var("w"),
        fb.var("b"),
        fb.var("bp"),
    );
    fb.assign(acc, 5);
    filler(&mut fb, "opening_book", fill, acc);
    warm(&mut fb, "warm_moves", gmoves, epochs);
    warm(&mut fb, "warm_board", gboard, board);

    let region = counted_loop(&mut fb, "genmove", epochs);
    let mp = fb.var("mp");
    fb.bin(mp, BinOp::Add, gmoves, region.i);
    fb.load(mv, mp, 0);
    // ~1/3 of moves touch the shared evaluation score, EARLY in the epoch.
    let hot = fb.block("hist_update");
    let cold = fb.block("skip");
    fb.bin(c, BinOp::Rem, mv, 3);
    fb.bin(c, BinOp::Eq, c, 0);
    fb.br(c, hot, cold);
    fb.switch_to(hot);
    fb.call(None, update_history, vec![v(mv)]);
    fb.jump(cold);
    fb.switch_to(cold);
    // Private board scan: read a board cell owned by this move.
    fb.bin(bp, BinOp::Rem, region.i, board);
    fb.bin(bp, BinOp::Add, gboard, bp);
    fb.load(b, bp, 0);
    fb.bin(w, BinOp::Add, mv, b);
    churn(&mut fb, w, 22);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "life_death", fill / 2, acc);
    let score = fb.var("score");
    fb.load(score, eval_score, 0);
    fb.output(score);
    let hsum = fb.var("hsum");
    let hp = fb.var("hp");
    fb.assign(hsum, 0);
    let tally = counted_loop(&mut fb, "tally", hist_size);
    let hv = fb.var("hv");
    fb.bin(hp, BinOp::Add, history, tally.i);
    fb.load(hv, hp, 0);
    fb.bin(hsum, BinOp::Add, hsum, hv);
    fb.jump(tally.latch);
    fb.switch_to(tally.exit);
    fb.output(hsum);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("go workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_dependence_is_moderately_frequent() {
        let m = build(InputSet::Train, Scale::BASE);
        let profile = tls_profile::profile_module(&m).expect("profiles");
        let (_, lp) = profile
            .loops
            .iter()
            .filter(|(_, l)| l.avg_epoch_size() >= 15.0)
            .max_by_key(|(_, l)| l.total_iters)
            .expect("region loop profiled");
        let max_freq = lp
            .edges
            .values()
            .map(|e| e.epochs as f64 / lp.total_iters as f64)
            .fold(0.0f64, f64::max);
        assert!(
            (0.05..0.9).contains(&max_freq),
            "history dep should be moderate, got {max_freq}"
        );
    }
}
