//! `197.parser` stand-in: the paper's running example (Figure 4).
//!
//! Every iteration of the parallelized loop calls `free_element` (which
//! pushes an element onto a global free list) and, on about half the
//! iterations, `use_element` (which pops one). The head of the free list is
//! read and written *through procedure calls* every epoch — a guaranteed
//! distance-1 memory-resident dependence that the hardware keeps violating
//! and the compiler can synchronize after cloning `free_element` /
//! `use_element` (§2.3). The linked-list `next` pointers add a second,
//! address-varying dependence whose forwarded address still matches
//! (epoch *k* reads exactly the node epoch *k−1* pushed).
//!
//! The value is produced early in each epoch and followed by independent
//! work, so forwarding overlaps most of the epoch: this is the paper's
//! largest compiler-synchronization win (region speedup ≈ 2.1 at 37 %
//! coverage).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (220, 2_600), (850, 10_000));
    let pool = scale.words(64);
    let mut r = rng("parser", input);
    let data = input_data(&mut r, epochs as usize, 0, 1_000_000);

    let mut mb = ModuleBuilder::new();
    let free_list = mb.add_global("free_list", 1, vec![0]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let next = mb.add_global("next", pool as u64, vec![]);
    let gdata = mb.add_global("data", epochs as u64, data);
    let free_element = mb.declare("free_element", 1);
    let use_element = mb.declare("use_element", 0);
    let main = mb.declare("main", 0);

    // free_element(elem): next[elem] = free_list; free_list = elem.
    let mut fb = mb.define(free_element);
    let elem = fb.param(0);
    let head = fb.var("head");
    let p = fb.var("p");
    fb.load(head, free_list, 0);
    fb.bin(p, BinOp::Add, next, elem);
    fb.store(head, p, 0);
    fb.store(elem, free_list, 0);
    fb.ret(None);
    fb.finish();

    // use_element(): e = free_list; free_list = next[e]; return e.
    let mut fb = mb.define(use_element);
    let (e, p, n) = (fb.var("e"), fb.var("p"), fb.var("n"));
    fb.load(e, free_list, 0);
    fb.bin(p, BinOp::Add, next, e);
    fb.load(n, p, 0);
    fb.store(n, free_list, 0);
    fb.ret(Some(v(e)));
    fb.finish();

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, elem, got, w, c) = (
        fb.var("d"),
        fb.var("elem"),
        fb.var("got"),
        fb.var("w"),
        fb.var("c"),
    );
    fb.assign(acc, 1);
    filler(&mut fb, "pre", fill, acc);
    warm(&mut fb, "warm_data", gdata, epochs);

    let region = counted_loop(&mut fb, "parse", epochs);
    let dp = fb.var("dp");
    let res = fb.var("res");
    fb.bin(dp, BinOp::Add, gdata, region.i);
    fb.load(d, dp, 0);
    fb.assign(res, v(d));
    fb.bin(elem, BinOp::Rem, region.i, pool);
    // The shared free-list update happens first, through a call.
    fb.call(None, free_element, vec![v(elem)]);
    // Half the epochs also pop an element.
    let pop = fb.block("pop");
    let tail = fb.block("tail");
    fb.bin(c, BinOp::And, d, 1);
    fb.br(c, pop, tail);
    fb.switch_to(pop);
    fb.call(Some(got), use_element, vec![]);
    fb.bin(res, BinOp::Xor, res, got);
    fb.jump(tail);
    // Independent tail work: what early forwarding overlaps. The epoch's
    // result goes to a private scratch slot (reduced after the loop), so no
    // scalar accumulator serializes the region.
    fb.switch_to(tail);
    fb.assign(w, v(d));
    churn(&mut fb, w, 22);
    fb.bin(res, BinOp::Add, res, w);
    fb.bin(dp, BinOp::Add, scratch, region.i);
    fb.store(res, dp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "post", fill / 2, acc);
    let fl = fb.var("fl");
    fb.load(fl, free_list, 0);
    fb.output(fl);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("parser workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_produces_stable_output() {
        let m = build(InputSet::Train, Scale::BASE);
        let r = tls_profile::run_sequential(&m).expect("runs");
        assert_eq!(r.output.len(), 2);
        let r2 = tls_profile::run_sequential(&build(InputSet::Train, Scale::BASE)).expect("runs");
        assert_eq!(r.output, r2.output);
    }

    #[test]
    fn free_list_dependence_is_frequent_and_distance_one() {
        let m = build(InputSet::Train, Scale::BASE);
        let profile = tls_profile::profile_module(&m).expect("profiles");
        // Find the region loop (the one with the most iterations that is
        // not a filler: filler epochs are tiny).
        let (_, lp) = profile
            .loops
            .iter()
            .filter(|(_, l)| l.avg_epoch_size() >= 15.0)
            .max_by_key(|(_, l)| l.total_iters)
            .expect("region loop profiled");
        let frequent: Vec<_> = lp
            .edges
            .values()
            .filter(|e| e.epochs as f64 / lp.total_iters as f64 >= 0.5)
            .collect();
        assert!(
            !frequent.is_empty(),
            "free_list dependence must appear in most epochs"
        );
        // Dominant distance must be 1 (forwarding from the predecessor).
        let d1: u64 = frequent.iter().map(|e| e.dist_hist[0]).sum();
        let all: u64 = frequent
            .iter()
            .map(|e| e.dist_hist.iter().sum::<u64>())
            .sum();
        assert!(d1 * 10 >= all * 9, "distance-1 should dominate: {d1}/{all}");
    }
}
