//! `175.vpr` (place) stand-in: a swap loop serialized on an RNG state.
//!
//! Each epoch reads a memory-resident random-number state, spends the bulk
//! of the epoch evaluating the candidate swap, and only writes the next
//! state *at the end*. The dependence occurs every epoch, but the value is
//! produced late: compiler forwarding arrives no earlier than hardware
//! stall-till-commit, while the inserted synchronization still costs
//! instructions — so hardware synchronization comes out slightly ahead, as
//! in the paper (§4.2: m88ksim, gzip_comp and vpr_place do best with
//! hardware-inserted synchronization).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (240, 60), (900, 200));
    let grid = scale.words(128);
    let mut r = rng("vpr", input);
    let costs = input_data(&mut r, grid as usize, 1, 100);

    let mut mb = ModuleBuilder::new();
    let rng_state = mb.add_global("rng_state", 1, vec![0x2545F491]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gcost = mb.add_global("cost_grid", grid as u64, costs);
    let best = mb.add_global("best_cost", 1, vec![1 << 40]);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (s, w, slot, cp, cost, c) = (
        fb.var("s"),
        fb.var("w"),
        fb.var("slot"),
        fb.var("cp"),
        fb.var("cost"),
        fb.var("c"),
    );
    fb.assign(acc, 17);
    filler(&mut fb, "netlist_read", fill, acc);
    warm(&mut fb, "warm_grid", gcost, grid);

    let region = counted_loop(&mut fb, "anneal", epochs);
    // Read the RNG state at the top...
    fb.load(s, rng_state, 0);
    // ...but the epoch's real work (evaluating the swap) happens before the
    // next state is computed and stored: the value is produced LATE.
    fb.bin(slot, BinOp::Rem, s, grid);
    fb.bin(cp, BinOp::Add, gcost, slot);
    fb.load(cost, cp, 0);
    fb.bin(w, BinOp::Add, s, cost);
    churn(&mut fb, w, 22);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    // Occasionally improve the best cost (second, rarer dependence).
    let improve = fb.block("improve");
    let cont = fb.block("cont");
    fb.bin(c, BinOp::Rem, w, 10);
    fb.bin(c, BinOp::Eq, c, 0);
    fb.br(c, improve, cont);
    fb.switch_to(improve);
    let b = fb.var("b");
    fb.load(b, best, 0);
    fb.bin(b, BinOp::Min, b, cost);
    fb.store(b, best, 0);
    fb.jump(cont);
    fb.switch_to(cont);
    // xorshift-style next state, stored at the very end of the epoch.
    let ns = fb.var("ns");
    fb.bin(ns, BinOp::Mul, s, 6364136223846793005);
    fb.bin(ns, BinOp::Add, ns, 1442695040888963407);
    fb.bin(ns, BinOp::Shr, ns, 1);
    fb.store(ns, rng_state, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "timing_report", fill / 2, acc);
    let (fs, fbst) = (fb.var("fs"), fb.var("fbst"));
    fb.load(fs, rng_state, 0);
    fb.load(fbst, best, 0);
    fb.output(fs);
    fb.output(fbst);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("vpr workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_dependence_occurs_every_epoch() {
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
            max_freq > 0.9,
            "rng_state dep must be near-universal: {max_freq}"
        );
    }
}
