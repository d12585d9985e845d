//! Shared scaffolding for workload construction.
//!
//! Workloads are built from three ingredients:
//!
//! * [`input_data`] — deterministic pseudo-random input arrays, seeded per
//!   (workload, input set) so `train` and `ref` differ in *data* only;
//! * [`counted_loop`] — the standard region skeleton (preheader → header →
//!   body → latch → exit) whose iterations become epochs;
//! * [`filler`] — a flat loop with ~7 instructions per iteration, below the
//!   paper's 15-instruction epoch-size floor, used to model the sequential
//!   (non-parallelized) portion of each benchmark and thereby its region
//!   coverage; [`reduce`] is the sequential reduction of a region's
//!   per-epoch results that most workloads run after it.

use tls_ir::{BinOp, BlockId, FuncBuilder, GlobalId, Operand, Var};

use crate::{InputSet, Scale};

/// The deterministic splitmix64 generator shared with the IR-level random
/// program generator. Same algorithm (and therefore the same stream) as the
/// private implementation this crate used to carry, so workload input data
/// is unchanged.
pub(crate) use tls_ir::SplitMix64 as Prng;

/// Deterministic RNG for a workload/input pair.
pub(crate) fn rng(tag: &str, input: InputSet) -> Prng {
    let mut seed = match input {
        InputSet::Train => 0x5EED_7EA1_u64,
        InputSet::Ref => 0x0DD_C0FFEE_u64,
    };
    for b in tag.bytes() {
        seed = seed.wrapping_mul(0x100000001B3).wrapping_add(b as u64);
    }
    Prng::seed_from_u64(seed)
}

/// `n` pseudo-random values in `lo..hi`.
pub(crate) fn input_data(r: &mut Prng, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..n).map(|_| r.gen_range(lo, hi)).collect()
}

/// Select the `(epochs, fill)` base pair for `input` and apply the
/// iteration multiplier to both — the one place every workload's
/// iteration-like dimensions pass through, so no constructor carries a
/// hardcoded dynamic size past this point.
pub(crate) fn sized(
    input: InputSet,
    scale: Scale,
    train: (i64, i64),
    reference: (i64, i64),
) -> (i64, i64) {
    let (epochs, fill) = match input {
        InputSet::Train => train,
        InputSet::Ref => reference,
    };
    (scale.iter_count(epochs), scale.iter_count(fill))
}

/// Handles of a counted region loop under construction.
#[allow(dead_code)] // head is useful to callers that mark regions manually
pub(crate) struct Region {
    /// Loop header (becomes the region header).
    pub head: BlockId,
    /// First body block; the builder cursor is here on return.
    pub body: BlockId,
    /// Latch (already sealed: `i += 1; jump head`); end body paths with
    /// `fb.jump(region.latch)`.
    pub latch: BlockId,
    /// Exit block (unterminated; cursor must be moved here afterwards).
    pub exit: BlockId,
    /// The iteration counter, `0..count`.
    pub i: Var,
}

/// Emit the skeleton of a counted loop (`for i in 0..count`) and leave the
/// cursor at the body block.
pub(crate) fn counted_loop(fb: &mut FuncBuilder<'_>, name: &str, count: i64) -> Region {
    let i = fb.var(format!("{name}_i"));
    let c = fb.var(format!("{name}_c"));
    fb.assign(i, 0);
    let head = fb.block(format!("{name}_head"));
    let body = fb.block(format!("{name}_body"));
    let latch = fb.block(format!("{name}_latch"));
    let exit = fb.block(format!("{name}_exit"));
    fb.jump(head);
    fb.switch_to(head);
    fb.bin(c, BinOp::Lt, i, count);
    fb.br(c, body, exit);
    fb.switch_to(latch);
    fb.bin(i, BinOp::Add, i, 1);
    fb.jump(head);
    fb.switch_to(body);
    Region {
        head,
        body,
        latch,
        exit,
        i,
    }
}

/// Emit a flat filler loop of `iters` iterations (~7 instructions each,
/// below the selection floor) that mixes `acc`; cursor ends after the loop.
pub(crate) fn filler(fb: &mut FuncBuilder<'_>, name: &str, iters: i64, acc: Var) {
    let r = counted_loop(fb, name, iters);
    fb.bin(acc, BinOp::Mul, acc, 3);
    fb.bin(acc, BinOp::Add, acc, r.i);
    fb.jump(r.latch);
    fb.switch_to(r.exit);
}

/// Emit a sequential loop that XORs `base[0..count]` into `acc` (cursor
/// ends after the loop). Its ~5-instruction iterations are below the
/// selection floor, so it is never chosen as a region.
pub(crate) fn reduce(fb: &mut FuncBuilder<'_>, base: GlobalId, count: i64, acc: Var) {
    let r = counted_loop(fb, "reduce", count);
    let (rp, rv) = (fb.var("rp"), fb.var("rv"));
    fb.bin(rp, BinOp::Add, base, r.i);
    fb.load(rv, rp, 0);
    fb.bin(acc, BinOp::Xor, acc, rv);
    fb.jump(r.latch);
    fb.switch_to(r.exit);
}

/// Emit a loop that touches every word of a global once (cursor moves past
/// it). Models the earlier program phase that produced or read the data:
/// without it every region access would be a cold main-memory miss, which
/// swamps the differences between the synchronization schemes.
pub(crate) fn warm(fb: &mut FuncBuilder<'_>, name: &str, base: GlobalId, words: i64) {
    let r = counted_loop(fb, name, words);
    let p = fb.var(format!("{name}_p"));
    let t = fb.var(format!("{name}_t"));
    fb.bin(p, BinOp::Add, Operand::Global(base), r.i);
    fb.load(t, p, 0);
    fb.jump(r.latch);
    fb.switch_to(r.exit);
}

/// Emit `n` dependent ALU instructions on `v` (per-epoch "work").
pub(crate) fn churn(fb: &mut FuncBuilder<'_>, v: Var, n: usize) {
    for k in 0..n {
        if k % 2 == 0 {
            fb.bin(v, BinOp::Mul, v, 3);
        } else {
            fb.bin(v, BinOp::Add, v, 1 + k as i64);
        }
    }
}

/// Convenience: `Operand` from a var (reads better in long builder code).
pub(crate) fn v(x: Var) -> Operand {
    Operand::Var(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::ModuleBuilder;
    use tls_profile::run_sequential;

    #[test]
    fn rng_is_deterministic_and_input_sensitive() {
        let a: Vec<i64> = input_data(&mut rng("x", InputSet::Ref), 8, 0, 100);
        let b: Vec<i64> = input_data(&mut rng("x", InputSet::Ref), 8, 0, 100);
        let c: Vec<i64> = input_data(&mut rng("x", InputSet::Train), 8, 0, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| (0..100).contains(&x)));
    }

    #[test]
    fn counted_loop_and_filler_run() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let acc = fb.var("acc");
        fb.assign(acc, 1);
        let r = counted_loop(&mut fb, "main", 5);
        fb.bin(acc, BinOp::Add, acc, r.i);
        fb.jump(r.latch);
        fb.switch_to(r.exit);
        filler(&mut fb, "fill", 10, acc);
        fb.output(acc);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let out = run_sequential(&m).expect("runs");
        assert_eq!(out.output.len(), 1);
        // 1 + 0+1+2+3+4 = 11 before the filler mixes it further.
        assert_ne!(out.output[0], 0);
    }

    #[test]
    fn churn_emits_requested_instructions() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let x = fb.var("x");
        fb.assign(x, 2);
        churn(&mut fb, x, 6);
        fb.output(x);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        assert_eq!(m.func(m.entry).blocks[0].instrs.len(), 8); // assign + 6 + output
        let out = run_sequential(&m).expect("runs");
        // k even multiplies by 3, k odd adds k+1: ((2·3+2)·3+4)·3+6 = 90.
        assert_eq!(out.output, vec![90]);
    }
}
