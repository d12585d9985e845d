//! `164.gzip` stand-ins: hash-chain compression (two effort levels) and
//! window-copy decompression.
//!
//! **Compression** (`comp1`/`comp2`): each epoch hashes an input symbol and
//! reads/updates `hash_head[h]`. Because `h` varies per epoch, the
//! dependence's *address* changes constantly — the forwarded value rarely
//! matches the consumer's address, so synchronization mostly adds overhead,
//! and the paper's gzip-compress rows do not speed up. The body also forks
//! into a "match" and a "literal" path whose mix is *input-dependent*: the
//! train input exercises only the literal path, so a train profile never
//! sees the match path's dependences — reproducing the paper's observation
//! that gzip-compress is the one benchmark sensitive to the profiling input
//! (T ≠ C, §4.1). `comp2` does extra chain work per epoch ("higher effort").
//!
//! **Decompression** (`decomp`): each epoch reads the output cursor,
//! advances it immediately (value produced *early*), then spends most of
//! the epoch copying a window run. Compiler forwarding overlaps the copy;
//! hardware synchronization must stall until the producer commits — this is
//! the paper's "the compiler is able to speculatively forward the desired
//! value much earlier than our hardware can" case (§4.2).

use tls_ir::{BinOp, Module, ModuleBuilder};

use crate::util::{churn, counted_loop, filler, input_data, rng, sized, v, warm};
use crate::{InputSet, Scale};

/// Compression, effort level 1.
pub fn build_comp1(input: InputSet, scale: Scale) -> Module {
    build_comp(input, scale, 1, "gzip_comp1")
}

/// Compression, effort level 2 (longer chain walk per epoch).
pub fn build_comp2(input: InputSet, scale: Scale) -> Module {
    build_comp(input, scale, 2, "gzip_comp2")
}

fn build_comp(input: InputSet, scale: Scale, effort: i64, tag: &str) -> Module {
    let (epochs, fill) = sized(input, scale, (240, 2_400), (900, 9_000));
    // The hash table is probed through an `And` mask, so its footprint
    // scaling must stay a power of two.
    let hsize = scale.pow2_words(64);
    let mut r = rng(tag, input);
    // Input sensitivity: the train input only ever takes the literal path
    // (symbol % 100 < 70); the ref input takes the match path ~30% of the
    // time. The *code* is identical; only the data differs.
    let data = match input {
        InputSet::Train => input_data(&mut r, epochs as usize, 0, 1_000)
            .into_iter()
            .map(|x| (x / 100) * 100 + x % 70)
            .collect::<Vec<i64>>(),
        InputSet::Ref => input_data(&mut r, epochs as usize, 0, 1_000),
    };

    let mut mb = ModuleBuilder::new();
    let head_init = {
        let mut hr = rng("gzip_head", input);
        input_data(&mut hr, hsize as usize, 0, 1 << 20)
    };
    let hash_head = mb.add_global("hash_head", hsize as u64, head_init);
    let crc = mb.add_global("crc", 1, vec![0x1234]);
    let scratch = mb.add_global("scratch", epochs as u64, vec![]);
    let match_len = mb.add_global("longest_match", 1, vec![0]);
    let lit_count = mb.add_global("literal_count", 1, vec![0]);
    let gdata = mb.add_global("input", epochs as u64, data);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (d, h, p, prev, w, c, t) = (
        fb.var("d"),
        fb.var("h"),
        fb.var("p"),
        fb.var("prev"),
        fb.var("w"),
        fb.var("c"),
        fb.var("t"),
    );
    fb.assign(acc, 3);
    filler(&mut fb, "io_in", fill, acc);
    warm(&mut fb, "warm_input", gdata, epochs);

    let region = counted_loop(&mut fb, "deflate", epochs);
    let dp = fb.var("dp");
    fb.bin(dp, BinOp::Add, gdata, region.i);
    fb.load(d, dp, 0);
    // Hash and probe the head table (address varies epoch to epoch).
    fb.bin(h, BinOp::Mul, d, 2654435761);
    fb.bin(h, BinOp::Shr, h, 16);
    fb.bin(h, BinOp::And, h, hsize - 1);
    fb.bin(p, BinOp::Add, hash_head, h);
    fb.load(prev, p, 0);
    let res = fb.var("res");
    fb.assign(res, v(prev));
    // Input-dependent fork: match path iff d % 100 >= 70.
    let matched = fb.block("match");
    let literal = fb.block("literal");
    let store_head = fb.block("store_head");
    fb.bin(t, BinOp::Rem, d, 100);
    fb.bin(c, BinOp::Ge, t, 70);
    fb.br(c, matched, literal);
    // Match path: walk the chain (effort-scaled) and bump longest_match.
    fb.switch_to(matched);
    let mlen = fb.var("mlen");
    fb.load(mlen, match_len, 0);
    fb.bin(mlen, BinOp::Add, mlen, 1);
    fb.store(mlen, match_len, 0);
    fb.assign(w, v(prev));
    churn(&mut fb, w, (12 * effort) as usize);
    fb.bin(res, BinOp::Add, res, w);
    fb.jump(store_head);
    // Literal path: bump literal_count.
    fb.switch_to(literal);
    let lits = fb.var("lits");
    fb.load(lits, lit_count, 0);
    fb.bin(lits, BinOp::Add, lits, 1);
    fb.store(lits, lit_count, 0);
    fb.assign(w, v(d));
    churn(&mut fb, w, 12);
    fb.bin(res, BinOp::Add, res, w);
    fb.jump(store_head);
    // Record the epoch's result in its private slot. Block boundaries
    // (pairs of
    // adjacent epochs, ~8% of all epochs) also fold the running CRC — a
    // low-frequency but distance-1 dependence: exactly the kind that makes
    // the paper lower its synchronization threshold to 5% (Figure 6).
    fb.switch_to(store_head);
    let flush = fb.block("crc_flush");
    let after = fb.block("after_flush");
    let fcond = fb.var("fcond");
    fb.bin(fcond, BinOp::Div, region.i, 2);
    fb.bin(fcond, BinOp::Rem, fcond, 12);
    fb.bin(fcond, BinOp::Eq, fcond, 0);
    fb.br(fcond, flush, after);
    fb.switch_to(flush);
    let crcv = fb.var("crcv");
    fb.load(crcv, crc, 0);
    fb.bin(crcv, BinOp::Xor, crcv, d);
    fb.bin(crcv, BinOp::Mul, crcv, 31);
    fb.store(crcv, crc, 0);
    fb.jump(after);
    fb.switch_to(after);
    let wp = fb.var("wp");
    fb.bin(wp, BinOp::Add, scratch, region.i);
    fb.store(res, wp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    // Reduce the per-epoch results sequentially (small iterations: never
    // selected as a region).
    let red = counted_loop(&mut fb, "reduce", epochs);
    let (rp, rv) = (fb.var("rp"), fb.var("rv"));
    fb.bin(rp, BinOp::Add, scratch, red.i);
    fb.load(rv, rp, 0);
    fb.bin(acc, BinOp::Xor, acc, rv);
    fb.jump(red.latch);
    fb.switch_to(red.exit);

    filler(&mut fb, "io_out", fill / 2, acc);
    let (m_out, l_out, c_out) = (fb.var("m_out"), fb.var("l_out"), fb.var("c_out"));
    fb.load(m_out, match_len, 0);
    fb.load(l_out, lit_count, 0);
    fb.load(c_out, crc, 0);
    fb.output(m_out);
    fb.output(l_out);
    fb.output(c_out);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("gzip_comp workload is valid")
}

/// Decompression: early-produced cursor, long independent copy.
pub fn build_decomp(input: InputSet, scale: Scale) -> Module {
    let (epochs, fill) = sized(input, scale, (220, 300), (800, 1_000));
    let window = scale.words(256);
    let out_size = scale.words(16_384);
    let mut r = rng("gzip_decomp", input);
    let lens = input_data(&mut r, epochs as usize, 4, 12);
    let srcs = input_data(&mut r, epochs as usize, 0, window - 16);

    let mut mb = ModuleBuilder::new();
    let out_pos = mb.add_global("out_pos", 1, vec![0]);
    let scratch = mb.add_global("dscratch", epochs as u64, vec![]);
    let gwin = mb.add_global("window", window as u64, {
        let mut rr = rng("gzip_decomp_win", input);
        input_data(&mut rr, window as usize, 0, 255)
    });
    let gout = mb.add_global("out", out_size as u64, vec![]);
    let glens = mb.add_global("lens", epochs as u64, lens);
    let gsrcs = mb.add_global("srcs", epochs as u64, srcs);
    let main = mb.declare("main", 0);

    let mut fb = mb.define(main);
    let acc = fb.var("acc");
    let (pos, len, src, tp) = (fb.var("pos"), fb.var("len"), fb.var("src"), fb.var("tp"));
    fb.assign(acc, 11);
    filler(&mut fb, "huffman", fill, acc);
    warm(&mut fb, "warm_lens", glens, epochs);
    warm(&mut fb, "warm_srcs", gsrcs, epochs);
    warm(&mut fb, "warm_win", gwin, window);

    let region = counted_loop(&mut fb, "inflate", epochs);
    // Read the cursor and advance it IMMEDIATELY: the forwarded value is
    // produced at the top of the epoch.
    fb.bin(tp, BinOp::Add, glens, region.i);
    fb.load(len, tp, 0);
    fb.load(pos, out_pos, 0);
    let npos = fb.var("npos");
    fb.bin(npos, BinOp::Add, pos, len);
    fb.bin(npos, BinOp::Rem, npos, out_size - 32);
    fb.store(npos, out_pos, 0);
    // Long independent tail: copy `len` words from the window.
    fb.bin(tp, BinOp::Add, gsrcs, region.i);
    fb.load(src, tp, 0);
    let lw = fb.var("lw");
    fb.assign(lw, 0);
    let copy = counted_loop(&mut fb, "copy", 10);
    let (sp, dp2, byte) = (fb.var("sp"), fb.var("dp2"), fb.var("byte"));
    fb.bin(sp, BinOp::Add, gwin, src);
    fb.bin(sp, BinOp::Add, sp, copy.i);
    fb.load(byte, sp, 0);
    fb.bin(dp2, BinOp::Add, gout, pos);
    fb.bin(dp2, BinOp::Add, dp2, copy.i);
    fb.store(byte, dp2, 0);
    fb.bin(lw, BinOp::Add, lw, byte);
    fb.jump(copy.latch);
    fb.switch_to(copy.exit);
    fb.bin(tp, BinOp::Add, scratch, region.i);
    fb.store(lw, tp, 0);
    fb.jump(region.latch);
    fb.switch_to(region.exit);
    // Reduce the per-epoch results sequentially (small iterations: never
    // selected as a region).
    let red = counted_loop(&mut fb, "reduce", epochs);
    let (rp, rv) = (fb.var("rp"), fb.var("rv"));
    fb.bin(rp, BinOp::Add, scratch, red.i);
    fb.load(rv, rp, 0);
    fb.bin(acc, BinOp::Xor, acc, rv);
    fb.jump(red.latch);
    fb.switch_to(red.exit);

    filler(&mut fb, "crc", fill / 4, acc);
    let final_pos = fb.var("final_pos");
    fb.load(final_pos, out_pos, 0);
    fb.output(final_pos);
    fb.output(acc);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("gzip_decomp workload is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_input_never_takes_the_match_path() {
        let m = build_comp1(InputSet::Train, Scale::BASE);
        let r = tls_profile::run_sequential(&m).expect("runs");
        assert_eq!(r.output[0], 0, "train input must keep longest_match at 0");
        let m = build_comp1(InputSet::Ref, Scale::BASE);
        let r = tls_profile::run_sequential(&m).expect("runs");
        assert!(r.output[0] > 0, "ref input exercises the match path");
    }

    #[test]
    fn comp2_does_more_work_than_comp1() {
        let a =
            tls_profile::run_sequential(&build_comp1(InputSet::Ref, Scale::BASE)).expect("runs");
        let b =
            tls_profile::run_sequential(&build_comp2(InputSet::Ref, Scale::BASE)).expect("runs");
        assert!(b.steps > a.steps);
    }

    #[test]
    fn decomp_cursor_dependence_is_every_epoch() {
        let m = build_decomp(InputSet::Train, Scale::BASE);
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
            "out_pos dep must be near-universal: {max_freq}"
        );
    }
}
