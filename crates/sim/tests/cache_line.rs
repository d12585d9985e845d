//! Line-granularity edge cases of speculative conflict detection.
//!
//! Hand-built speculative loops whose only carried scalar is the epoch
//! counter (already privatized via `epoch_id`), so the epochs overlap
//! freely and interact through memory alone. Each test compares the
//! parallel run against the sequential run of the same module: the
//! architectural state must be identical no matter what the detector did.

use tls_ir::{
    BinOp, FuncBuilder, GlobalId, Module, Operand, RegionId, SpecRegion, Var, LINE_WORDS,
};
use tls_sim::{simulate, SimConfig, SimResult};

const TRIP: i64 = 3;
const G_WORDS: u64 = 16;

/// One speculative loop of [`TRIP`] epochs. `emit` supplies the per-epoch
/// body; it gets `(fb, i, g, a, t)` — the epoch index, the 16-word global
/// and two scratch registers — and must define `a`/`t` before use so
/// nothing is live at the header.
fn region_module(emit: impl Fn(&mut FuncBuilder<'_>, Var, GlobalId, Var, Var)) -> Module {
    let mut mb = tls_ir::ModuleBuilder::new();
    let g = mb.add_global("g", G_WORDS, (0..G_WORDS as i64).map(|k| 100 + k).collect());
    let f = mb.declare("main", 0);
    let mut fb = mb.define(f);
    let (i, c, a, t) = (fb.var("i"), fb.var("c"), fb.var("a"), fb.var("t"));
    let head = fb.block("head");
    let body = fb.block("body");
    let latch = fb.block("latch");
    let exit = fb.block("exit");
    fb.jump(head);
    fb.switch_to(head);
    fb.epoch_id(i);
    fb.bin(c, BinOp::Lt, i, TRIP);
    fb.br(c, body, exit);
    fb.switch_to(body);
    emit(&mut fb, i, g, a, t);
    fb.jump(latch);
    fb.switch_to(latch);
    fb.jump(head);
    fb.switch_to(exit);
    fb.ret(None);
    fb.finish();
    mb.set_entry(f);
    let mut m = mb.build().expect("valid module");
    m.regions.push(SpecRegion {
        id: RegionId(0),
        func: f,
        header: head,
        blocks: vec![head, body, latch],
        unroll: 1,
    });
    tls_ir::validate(&m).expect("valid region");
    m
}

/// A dependent multiply chain: stretches the epoch so neighbours overlap
/// in simulated time. `t` is (re)defined first, so it stays epoch-local.
fn pad(fb: &mut FuncBuilder<'_>, t: Var, n: u32) {
    fb.assign(t, 7);
    for _ in 0..n {
        fb.bin(t, BinOp::Mul, t, 3);
    }
}

/// Run parallel under `cfg` and assert the architectural state matches the
/// module's own sequential execution; returns the parallel result.
fn check(m: &Module, cfg: SimConfig) -> SimResult {
    let seq = simulate(m, SimConfig::sequential()).expect("sequential runs");
    let par = simulate(m, cfg).expect("parallel runs");
    assert_eq!(par.output, seq.output, "observable output diverged");
    assert_eq!(par.ret, seq.ret, "return value diverged");
    assert_eq!(
        seq.memory.first_diff(&par.memory),
        None,
        "final memory diverged"
    );
    par
}

/// Epochs store distinct words of one line while loading another word of
/// that same line (never stored): pure false sharing. Line granularity
/// must flag it; word granularity must not.
#[test]
fn false_sharing_within_a_line_depends_on_granularity() {
    let m = region_module(|fb, i, g, a, t| {
        // Load the last word of the first line — no epoch stores it.
        fb.bin(a, BinOp::Add, Operand::Global(g), LINE_WORDS - 1);
        fb.load(t, a, 0);
        fb.output(t);
        pad(fb, t, 12);
        // Store this epoch's private word of the same line (words 0..TRIP).
        fb.bin(a, BinOp::Add, Operand::Global(g), i);
        fb.store(i, a, 0);
    });
    let line = check(&m, SimConfig::cgo2004());
    assert!(
        line.total_violations > 0,
        "line granularity must flag false sharing within a line"
    );
    let word = check(
        &m,
        SimConfig {
            word_grain: true,
            ..SimConfig::cgo2004()
        },
    );
    assert_eq!(
        word.total_violations, 0,
        "word granularity must not flag disjoint words"
    );
}

/// The same shape, but the stores land in the *next* line, adjacent to the
/// loaded word across the line boundary: no conflict at either
/// granularity — the detector must not over-approximate across lines.
#[test]
fn adjacent_words_across_a_line_boundary_never_conflict() {
    let m = region_module(|fb, i, g, a, t| {
        fb.bin(a, BinOp::Add, Operand::Global(g), LINE_WORDS - 1);
        fb.load(t, a, 0);
        fb.output(t);
        pad(fb, t, 12);
        // First words of the second line: adjacent addresses, other line.
        fb.bin(a, BinOp::Add, Operand::Global(g), i);
        fb.store(i, a, LINE_WORDS);
    });
    for cfg in [
        SimConfig::cgo2004(),
        SimConfig {
            word_grain: true,
            ..SimConfig::cgo2004()
        },
    ] {
        let r = check(&m, cfg);
        assert_eq!(r.total_violations, 0, "no line is shared");
    }
}

/// Speculative read sets are not cache state: evicting every line from a
/// two-line L1 must neither lose the pending conflict nor corrupt the
/// architectural result.
#[test]
fn speculative_lines_survive_timing_cache_eviction() {
    let m = region_module(|fb, i, g, a, t| {
        fb.bin(a, BinOp::Add, Operand::Global(g), LINE_WORDS - 1);
        fb.load(t, a, 0);
        fb.output(t);
        // Touch every line of the global: capacity-evicts the whole tiny
        // L1, including the line the load above is speculatively tracking.
        for j in 0..(G_WORDS as i64 / LINE_WORDS) {
            fb.bin(a, BinOp::Add, Operand::Global(g), j * LINE_WORDS);
            fb.load(t, a, 0);
        }
        pad(fb, t, 12);
        fb.bin(a, BinOp::Add, Operand::Global(g), i);
        fb.store(i, a, 0);
    });
    let tiny = SimConfig {
        l1_lines: 2,
        l1_ways: 1,
        ..SimConfig::cgo2004()
    };
    let r = check(&m, tiny);
    assert!(
        r.total_violations > 0,
        "the false-sharing conflict must survive eviction of its line"
    );
}

/// The same true dependence caught by each detector side. Eager: the
/// consumer's load executes first, the producer's late store finds it in
/// the consumer's read set. Commit-time: the producer's store executes
/// first, the consumer's late load sees the uncommitted line and registers
/// a pending violation. Both must flag it (at word granularity too — it is
/// a genuine same-word dependence) and both must recover to the sequential
/// state.
#[test]
fn eager_and_commit_time_detection_agree() {
    // Epoch k loads g[k] and stores g[k+1]: a distance-1 chain.
    let eager = region_module(|fb, i, g, a, t| {
        fb.bin(a, BinOp::Add, Operand::Global(g), i);
        fb.load(t, a, 0); // early load
        fb.output(t);
        pad(fb, t, 12);
        fb.bin(t, BinOp::Add, i, 1000);
        fb.store(t, a, 1); // late store to g[i + 1]
    });
    let commit = region_module(|fb, i, g, a, t| {
        fb.bin(a, BinOp::Add, Operand::Global(g), i);
        fb.bin(t, BinOp::Add, i, 1000);
        fb.store(t, a, 1); // early store to g[i + 1]
        pad(fb, t, 6);
        fb.load(t, a, 0); // mid-epoch load of g[i]
        fb.output(t);
        pad(fb, t, 12);
    });
    let mut outputs = Vec::new();
    for m in [&eager, &commit] {
        for word_grain in [false, true] {
            let r = check(
                m,
                SimConfig {
                    word_grain,
                    ..SimConfig::cgo2004()
                },
            );
            assert!(
                r.total_violations > 0,
                "true dependence missed (word_grain={word_grain})"
            );
            outputs.push(r.output);
        }
    }
    // Same logical program: every run observes the same value chain.
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}
