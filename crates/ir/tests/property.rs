//! Seeded properties of the IR layer: total evaluation, line arithmetic,
//! and builder/validator agreement. Every case comes from the in-repo
//! splitmix64 generator, so a failure names the seed that replays it.

use tls_ir::{line_of, line_offset, BinOp, ModuleBuilder, Operand, SplitMix64, LINE_WORDS};

/// Seeded cases per property.
const CASES: u64 = 24;

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Min,
    BinOp::Max,
];

/// A uniform `i64`, or one quarter of the time a value at an edge of
/// division, shifts or the type's range.
fn any_i64(rng: &mut SplitMix64) -> i64 {
    const EDGES: [i64; 8] = [0, 1, -1, 63, 64, i64::MIN, i64::MIN + 1, i64::MAX];
    if rng.pick(4) == 0 {
        EDGES[rng.pick(EDGES.len())]
    } else {
        rng.next_u64() as i64
    }
}

/// Every operation is total (never panics) and comparisons return 0/1.
#[test]
fn binop_eval_is_total() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for op in BINOPS {
            for _ in 0..16 {
                let (a, b) = (any_i64(&mut rng), any_i64(&mut rng));
                let r = op.eval(a, b);
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) {
                    assert!(r == 0 || r == 1, "seed {seed}: {op:?}({a}, {b}) = {r}");
                }
            }
        }
    }
}

/// Line arithmetic round-trips for arbitrary addresses.
#[test]
fn line_math_round_trips() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for _ in 0..64 {
            let addr = any_i64(&mut rng);
            let off = line_offset(addr);
            assert!(
                (0..LINE_WORDS).contains(&off),
                "seed {seed}: offset {off} of {addr}"
            );
            // Avoid overflow at the extremes of the address space.
            if let Some(base) = line_of(addr).checked_mul(LINE_WORDS) {
                assert_eq!(base + off, addr, "seed {seed}: line of {addr}");
            }
        }
    }
}

/// Builder-produced modules always validate, interpret deterministically,
/// and allocate dense, unique sids.
#[test]
fn built_chains_validate_and_run() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let len = rng.gen_range(1, 40) as usize;
        let consts: Vec<i16> = (0..len).map(|_| rng.next_u64() as i16).collect();
        let at = format!("seed {seed} ({consts:?})");
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("g", consts.len() as u64, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (v, p) = (fb.var("v"), fb.var("p"));
        fb.assign(v, 1);
        for (i, &c) in consts.iter().enumerate() {
            fb.bin(v, BinOp::Add, v, c as i64);
            fb.bin(p, BinOp::Add, g, i as i64);
            fb.store(v, p, 0);
        }
        let mut sum_expected: i64 = 0;
        let mut acc: i64 = 1;
        for &c in &consts {
            acc = acc.wrapping_add(c as i64);
            sum_expected = sum_expected.wrapping_add(acc);
        }
        let s = fb.var("s");
        let t = fb.var("t");
        fb.assign(s, 0);
        for i in 0..consts.len() {
            fb.bin(p, BinOp::Add, g, i as i64);
            fb.load(t, p, 0);
            fb.bin(s, BinOp::Add, s, t);
        }
        fb.output(s);
        fb.ret(Some(Operand::Var(s)));
        fb.finish();
        mb.set_entry(f);
        let m = mb
            .build()
            .unwrap_or_else(|e| panic!("{at}: builder output must validate: {e}"));
        assert_eq!(m.next_sid as usize, consts.len() * 2, "{at}: sids");
        let r = tls_profile::run_sequential(&m).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(r.output, vec![sum_expected], "{at}: output");
        assert_eq!(r.ret, sum_expected, "{at}: return value");
    }
}
