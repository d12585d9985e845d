//! Seeded end-to-end properties: for random loop bodies full of
//! cross-epoch memory traffic, the whole pipeline — region selection,
//! scalar sync, memory sync, cloning — must preserve sequential semantics
//! under every execution mode. This drives the squash/restart/forwarding
//! machinery far beyond what the hand-written workloads exercise. Every
//! body comes from the in-repo splitmix64 generator, so a failure names
//! the seed that replays it.

use tls_repro::core::{compile_all, CompileOptions};
use tls_repro::ir::{BinOp, Module, ModuleBuilder, SplitMix64};
use tls_repro::profile::run_sequential;
use tls_repro::sim::{Machine, SimConfig, SyncLoadPolicy};

/// Seeded cases per property.
const CASES: u64 = 24;

/// One step of a randomly generated epoch body.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `w = w <op> c`.
    Alu(u8, i8),
    /// `w ^= shared[k % 8]` (cross-epoch read).
    LoadShared(u8),
    /// `shared[k % 8] = w` (cross-epoch write).
    StoreShared(u8),
    /// `w += slots[i % 16]` (mostly-private read).
    LoadSlot,
    /// `slots[i % 16] = w` (short-distance dependence carrier).
    StoreSlot,
    /// `if w & 1 { shared[k % 8] += 1 }` (conditional dependence).
    CondBump(u8),
}

/// A body of `min..max` steps, each kind equally likely.
fn random_ops(rng: &mut SplitMix64, min: i64, max: i64) -> Vec<Op> {
    let len = rng.gen_range(min, max);
    (0..len)
        .map(|_| match rng.pick(6) {
            0 => Op::Alu(rng.pick(6) as u8, rng.next_u64() as i8),
            1 => Op::LoadShared(rng.pick(8) as u8),
            2 => Op::StoreShared(rng.pick(8) as u8),
            3 => Op::LoadSlot,
            4 => Op::StoreSlot,
            _ => Op::CondBump(rng.pick(8) as u8),
        })
        .collect()
}

fn alu(idx: u8) -> BinOp {
    match idx % 6 {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Xor,
        4 => BinOp::Or,
        _ => BinOp::And,
    }
}

/// Build a program whose region loop executes `ops` every epoch.
fn build_program(ops: &[Op], epochs: i64) -> Module {
    let mut mb = ModuleBuilder::new();
    let shared = mb.add_global("shared", 8, (0..8).map(|x| x * 3 + 1).collect());
    let slots = mb.add_global("slots", 16, vec![]);
    let out = mb.add_global("out", epochs as u64, vec![]);
    let f = mb.declare("main", 0);
    let mut fb = mb.define(f);
    let (i, c, w, t, p) = (
        fb.var("i"),
        fb.var("c"),
        fb.var("w"),
        fb.var("t"),
        fb.var("p"),
    );
    let head = fb.block("head");
    let body = fb.block("body");
    let latch = fb.block("latch");
    let exit = fb.block("exit");
    fb.assign(i, 0);
    fb.jump(head);
    fb.switch_to(head);
    fb.bin(c, BinOp::Lt, i, epochs);
    fb.br(c, body, exit);
    fb.switch_to(latch);
    fb.bin(i, BinOp::Add, i, 1);
    fb.jump(head);
    fb.switch_to(body);
    fb.bin(w, BinOp::Add, i, 7);
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::Alu(o, k) => fb.bin(w, alu(o), w, k as i64),
            Op::LoadShared(k) => {
                fb.load(t, shared, (k % 8) as i64);
                fb.bin(w, BinOp::Xor, w, t);
            }
            Op::StoreShared(k) => {
                fb.store(w, shared, (k % 8) as i64);
            }
            Op::LoadSlot => {
                fb.bin(p, BinOp::Rem, i, 16);
                fb.bin(p, BinOp::Add, slots, p);
                fb.load(t, p, 0);
                fb.bin(w, BinOp::Add, w, t);
            }
            Op::StoreSlot => {
                fb.bin(p, BinOp::Rem, i, 16);
                fb.bin(p, BinOp::Add, slots, p);
                fb.store(w, p, 0);
            }
            Op::CondBump(k) => {
                let hot = fb.block(format!("hot{n}"));
                let cont = fb.block(format!("cont{n}"));
                fb.bin(c, BinOp::And, w, 1);
                fb.br(c, hot, cont);
                fb.switch_to(hot);
                fb.load(t, shared, (k % 8) as i64);
                fb.bin(t, BinOp::Add, t, 1);
                fb.store(t, shared, (k % 8) as i64);
                fb.jump(cont);
                fb.switch_to(cont);
            }
        }
    }
    fb.bin(p, BinOp::Add, out, i);
    fb.store(w, p, 0);
    fb.jump(latch);
    fb.switch_to(exit);
    // Output every shared word and a checksum over the per-epoch results.
    for k in 0..8 {
        fb.load(t, shared, k);
        fb.output(t);
    }
    let (j, sum, cc) = (fb.var("j"), fb.var("sum"), fb.var("cc"));
    let rh = fb.block("rh");
    let rb = fb.block("rb");
    let re = fb.block("re");
    fb.assign(j, 0);
    fb.assign(sum, 0);
    fb.jump(rh);
    fb.switch_to(rh);
    fb.bin(cc, BinOp::Lt, j, epochs);
    fb.br(cc, rb, re);
    fb.switch_to(rb);
    fb.bin(p, BinOp::Add, out, j);
    fb.load(t, p, 0);
    fb.bin(sum, BinOp::Xor, sum, t);
    fb.bin(j, BinOp::Add, j, 1);
    fb.jump(rh);
    fb.switch_to(re);
    fb.output(sum);
    fb.ret(None);
    fb.finish();
    mb.set_entry(f);
    mb.build().expect("generated program is valid")
}

fn permissive_opts() -> CompileOptions {
    CompileOptions {
        min_coverage: 0.0,
        min_avg_trip: 1.0,
        min_epoch_size: 1.0,
        ..CompileOptions::default()
    }
}

/// Sequential semantics survive the full pipeline and every simulator
/// configuration.
#[test]
fn pipeline_preserves_semantics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 4, 20);
        let epochs = rng.gen_range(5, 40);
        let at = format!("seed {seed} ({epochs} epochs, {ops:?})");
        let program = build_program(&ops, epochs);
        let reference = run_sequential(&program).unwrap_or_else(|e| panic!("{at}: {e}"));
        let set = compile_all(&program, &program, &permissive_opts())
            .unwrap_or_else(|e| panic!("{at}: {e}"));

        // Transformed modules are sequentially equivalent.
        for (name, m) in [
            ("seq", &set.seq),
            ("unsync", &set.unsync),
            ("synced", &set.synced),
        ] {
            let r = run_sequential(m).unwrap_or_else(|e| panic!("{at}: {name}: {e}"));
            assert_eq!(
                r.output, reference.output,
                "{at}: {name} diverged sequentially"
            );
        }

        // TLS execution matches under the main configurations.
        let configs: Vec<(&str, &Module, SimConfig)> = vec![
            ("U", &set.unsync, SimConfig::cgo2004()),
            ("C", &set.synced, SimConfig::cgo2004()),
            (
                "H",
                &set.unsync,
                SimConfig {
                    hw_sync: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "B",
                &set.synced,
                SimConfig {
                    hw_sync: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "P",
                &set.unsync,
                SimConfig {
                    hw_predict: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "L",
                &set.synced,
                SimConfig {
                    sync_load_policy: SyncLoadPolicy::StallTillOldest,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "word",
                &set.unsync,
                SimConfig {
                    word_grain: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "relay",
                &set.synced,
                SimConfig {
                    relay_forwarding: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "B+",
                &set.synced,
                SimConfig {
                    hw_sync: true,
                    hybrid_filter: true,
                    ..SimConfig::cgo2004()
                },
            ),
            (
                "2core",
                &set.synced,
                SimConfig {
                    cores: 2,
                    ..SimConfig::cgo2004()
                },
            ),
        ];
        for (name, module, cfg) in configs {
            let r = Machine::new(module, cfg)
                .run()
                .unwrap_or_else(|e| panic!("{at}: mode {name}: {e}"));
            assert_eq!(r.output, reference.output, "{at}: mode {name} diverged");
        }
    }
}

/// The sequential interpreter and the simulator's sequential mode agree
/// on untransformed programs.
#[test]
fn simulator_sequential_mode_matches_interpreter() {
    for seed in 1000..1000 + CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 2, 16);
        let epochs = rng.gen_range(2, 30);
        let at = format!("seed {seed} ({epochs} epochs, {ops:?})");
        let program = build_program(&ops, epochs);
        let a = run_sequential(&program).unwrap_or_else(|e| panic!("{at}: {e}"));
        let b = Machine::new(&program, SimConfig::sequential())
            .run()
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(a.output, b.output, "{at}: output");
        assert_eq!(a.ret, b.ret, "{at}: return value");
    }
}
