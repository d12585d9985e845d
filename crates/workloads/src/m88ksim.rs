//! `124.m88ksim` stand-in: false sharing between adjacent counters.
//!
//! The paper's analysis (§4.2): "In M88KSIM, violations are not caused by
//! true data dependences, rather they are caused by false sharing ... the
//! hardware is tracking dependences at a cache line granularity", so
//! hardware-inserted synchronization wins while compiler synchronization of
//! the *true* (distance-2) dependences cannot help.
//!
//! The model: a simulated machine keeps two per-unit statistics counters in
//! *one cache line*; epoch *k* updates counter *k mod 2*. At word
//! granularity each counter's dependence has distance 2; at line
//! granularity consecutive epochs conflict every time. The compiler
//! synchronizes the distance-2 edges, but the forwarded address (the other
//! word) never matches, so violations remain; hardware stall-till-oldest
//! removes them.

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, reduce, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Build the workload.
pub fn build(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (260, 1_000), (1_000, 4_000));
    let mut r = rng("m88ksim", input);
    let data = input_data(&mut r, epochs as usize, 1, 64);

    let mut mb = ModuleBuilder::new();
    // Both counters live in one line, together with a read-only mode word
    // (word 2): reading it puts the whole line in the epoch's read set, so
    // stores to either counter violate it — false sharing with *no* true
    // dependence for the compiler to synchronize. Deliberately NOT scaled
    // with footprint: the single shared line IS the pattern.
    let counters = mb.add_global("unit_counters", 3, vec![0, 0, 7]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let gdata = mb.add_global("trace", epochs as u64, data);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, unit, p, cval, w) = (
        fb.var("d"),
        fb.var("unit"),
        fb.var("p"),
        fb.var("cval"),
        fb.var("w"),
    );
    fb.assign(acc, 7);
    filler(&mut fb, "decode", fill, acc);
    warm(&mut fb, "warm_trace", gdata, epochs);

    let region = counted_loop(&mut fb, "sim", epochs);
    let dp = fb.var("dp");
    fb.bin(dp, BinOp::Add, gdata, region.i);
    fb.load(d, dp, 0);
    // Per-epoch simulation work first (overlappable), result in a private
    // slot.
    fb.assign(w, v(d));
    churn(&mut fb, w, 26);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(w, wp, 0);
    // Retirement bookkeeping at the end of the epoch: read the shared mode
    // word (same line as the counters — the false-sharing victim), then
    // bump this unit's counter.
    let cfg = fb.var("cfg");
    fb.load(cfg, counters, 2);
    fb.bin(w, BinOp::Add, w, cfg);
    fb.store(w, wp, 0);
    fb.bin(unit, BinOp::And, region.i, 1);
    fb.bin(p, BinOp::Add, counters, unit);
    fb.load(cval, p, 0);
    fb.bin(cval, BinOp::Add, cval, d);
    fb.store(cval, p, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    reduce(&mut fb, scratch, epochs, acc);

    filler(&mut fb, "report", fill / 3, acc);
    let (c0, c1) = (fb.var("c0"), fb.var("c1"));
    fb.load(c0, counters, 0);
    fb.load(c1, counters, 1);
    fb.output(c0);
    fb.output(c1);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("m88ksim workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_a_cache_line() {
        let m = build(InputSet::Train, Scale::BASE);
        let g = m.global_by_name("unit_counters").expect("exists");
        let base = m.global(g).addr;
        assert_eq!(tls_ir::line_of(base), tls_ir::line_of(base + 1));
    }

    #[test]
    fn true_dependences_have_distance_two() {
        let m = build(InputSet::Train, Scale::BASE);
        let profile = tls_profile::profile_module(&m).expect("profiles");
        let (_, lp) = profile
            .loops
            .iter()
            .filter(|(_, l)| l.avg_epoch_size() >= 15.0)
            .max_by_key(|(_, l)| l.total_iters)
            .expect("region loop profiled");
        let (mut d1, mut d2) = (0u64, 0u64);
        for e in lp.edges.values() {
            d1 += e.dist_hist[0];
            d2 += e.dist_hist[1];
        }
        assert!(d2 > 0, "alternating counters depend at distance 2");
        assert_eq!(d1, 0, "no true distance-1 dependences (only false sharing)");
    }
}
