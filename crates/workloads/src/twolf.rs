//! `300.twolf` stand-in: a dependence the profile sees but TLS timing
//! rarely violates.
//!
//! Each epoch does its heavy evaluation first and only touches the shared
//! `best_cost` cell at the very end. Sequentially the load depends on a
//! store from a previous iteration in a third of the epochs — well above
//! the synchronization threshold — but under TLS the consumer's load
//! executes so late that the producer has usually already committed, and
//! hardly any violations happen. Synchronizing it "just adds extra
//! overhead — this is the cause of the small performance degradation in
//! TWOLF" (§4.2).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (220, 5_500), (800, 20_000));
    let mut r = rng("twolf", input);
    let cells = input_data(&mut r, epochs as usize, 1, 10_000);

    let mut mb = ModuleBuilder::new();
    let best = mb.add_global("best_cost", 1, vec![1 << 40]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gcells = mb.add_global("cells", epochs as u64, cells);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, w, c, b) = (fb.var("d"), fb.var("w"), fb.var("c"), fb.var("b"));
    fb.assign(acc, 53);
    filler(&mut fb, "read_cells", fill, acc);
    warm(&mut fb, "warm_cells", gcells, epochs);

    let region = counted_loop(&mut fb, "place_pass", epochs);
    let dp = fb.var("dp");
    fb.bin(dp, BinOp::Add, gcells, region.i);
    fb.load(d, dp, 0);
    // One epoch in eight publishes a new candidate cost EARLY (a blind
    // store: no exposed read, so it cannot be violated).
    let improve = fb.block("improve");
    let work = fb.block("work");
    fb.bin(c, BinOp::Rem, d, 8);
    fb.bin(c, BinOp::Eq, c, 0);
    fb.br(c, improve, work);
    fb.switch_to(improve);
    fb.store(d, best, 0);
    fb.jump(work);
    // Heavy evaluation; the shared cell is read mid-epoch. Under TLS timing
    // the producer has usually committed by then, so the profiled
    // dependence rarely violates — synchronizing it (and waiting for the
    // 7-in-8 NULL signals that only arrive at the producer's latch) is pure
    // overhead, the paper's twolf observation.
    fb.switch_to(work);
    fb.assign(w, v(d));
    churn(&mut fb, w, 13);
    fb.load(b, best, 0);
    churn(&mut fb, w, 13);
    fb.bin(w, BinOp::Add, w, b);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "global_route", fill / 2, acc);
    let fbv = fb.var("fbv");
    fb.load(fbv, best, 0);
    fb.output(fbv);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("twolf workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_cost_dependence_is_above_threshold_in_the_profile() {
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
            max_freq > 0.05,
            "the profile must see the dep above the 5% threshold: {max_freq}"
        );
    }
}
