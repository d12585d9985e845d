//! The paper's headline qualitative claims, asserted end to end on the
//! train-scale inputs. These are the *shape* results EXPERIMENTS.md
//! reports: who wins, in which benchmark, and why.

use std::sync::OnceLock;

use tls_repro::core::CompileOptions;
use tls_repro::experiments::{Harness, Mode, Scale};
use tls_repro::sim::{Machine, SimConfig, SimResult};

fn harness(name: &str) -> &'static Harness {
    static CACHE: OnceLock<std::sync::Mutex<std::collections::HashMap<String, &'static Harness>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let mut guard = cache.lock().expect("lock");
    if let Some(h) = guard.get(name) {
        return h;
    }
    let w = tls_repro::workloads::by_name(name).expect("workload exists");
    let h: &'static Harness =
        Box::leak(Box::new(Harness::new(w, Scale::Quick).expect("harness builds")));
    guard.insert(name.to_string(), h);
    h
}

fn region_cycles(h: &Harness, mode: Mode) -> u64 {
    h.run(mode).expect("runs").region_cycles()
}

fn run(h: &Harness, mode: Mode) -> SimResult {
    h.run(mode).expect("runs")
}

/// §1.2 / Figure 2: eliminating failed speculation has substantial
/// potential on benchmarks that violate frequently.
#[test]
fn oracle_shows_substantial_potential_where_speculation_fails() {
    let h = harness("gap");
    let u = region_cycles(h, Mode::Unsync);
    let o = region_cycles(h, Mode::OracleAll);
    assert!(
        (o as f64) < 0.5 * u as f64,
        "gap: perfect prediction should at least halve region time (O {o} vs U {u})"
    );
}

/// §4.1 / Figure 8: compiler-inserted synchronization significantly cuts
/// failed speculation on the benchmarks it improves (the paper reports an
/// average 68% fail reduction on the improved set).
#[test]
fn compiler_sync_cuts_fail_slots_on_improved_benchmarks() {
    for name in ["parser", "gap", "gzip_decomp", "perlbmk", "gcc", "go"] {
        let h = harness(name);
        let u = run(h, Mode::Unsync);
        let c = run(h, Mode::CompilerRef);
        let bu = h.bar(Mode::Unsync, &u);
        let bc = h.bar(Mode::CompilerRef, &c);
        assert!(
            bc.fail < bu.fail * 0.5,
            "{name}: fail slots must drop by more than half (U {:.1} → C {:.1})",
            bu.fail,
            bc.fail
        );
        assert!(
            bc.norm_time < bu.norm_time,
            "{name}: C ({:.1}) must beat U ({:.1})",
            bc.norm_time,
            bu.norm_time
        );
    }
}

/// §4.1: region speedup over sequential for the flagship compiler wins.
#[test]
fn compiler_sync_yields_real_region_speedups() {
    for (name, min_speedup) in [("parser", 1.5), ("gap", 1.5), ("gzip_decomp", 1.5)] {
        let h = harness(name);
        let c = run(h, Mode::CompilerRef);
        let s = h.program_stats(Mode::CompilerRef, &c);
        assert!(
            s.region_speedup > min_speedup,
            "{name}: region speedup {:.2} below {min_speedup}",
            s.region_speedup
        );
    }
}

/// §4.2: m88ksim's violations come from false sharing, which the compiler
/// cannot synchronize away but hardware (tracking lines) can.
#[test]
fn m88ksim_false_sharing_prefers_hardware() {
    let h = harness("m88ksim");
    let u = run(h, Mode::Unsync);
    let c = run(h, Mode::CompilerRef);
    let hw = run(h, Mode::HwSync);
    assert!(
        c.total_violations as f64 > 0.5 * u.total_violations as f64,
        "compiler sync cannot remove false-sharing violations (C {} vs U {})",
        c.total_violations,
        u.total_violations
    );
    assert!(
        hw.region_cycles() * 2 < c.region_cycles(),
        "hardware sync must win big on m88ksim (H {} vs C {})",
        hw.region_cycles(),
        c.region_cycles()
    );
}

/// §4.2: in gzip_decomp the compiler forwards the value much earlier than
/// hardware stall-till-commit can deliver it.
#[test]
fn gzip_decomp_early_forwarding_beats_hardware() {
    let h = harness("gzip_decomp");
    let c = region_cycles(h, Mode::CompilerRef);
    let hw = region_cycles(h, Mode::HwSync);
    assert!(
        c * 2 < hw,
        "early forwarding must dominate (C {c} vs H {hw})"
    );
}

/// §4.2: twolf's profiled dependence rarely violates under TLS timing, so
/// synchronizing it is pure overhead (a small degradation).
#[test]
fn twolf_over_synchronization_degrades() {
    let h = harness("twolf");
    let u = run(h, Mode::Unsync);
    let c = run(h, Mode::CompilerRef);
    assert!(
        c.region_cycles() > u.region_cycles(),
        "twolf: C ({}) should be slightly worse than U ({})",
        c.region_cycles(),
        u.region_cycles()
    );
    assert!(
        (c.region_cycles() as f64) < 1.6 * u.region_cycles() as f64,
        "…but only slightly"
    );
}

/// §4.2 / Figure 10: the value-prediction technique has insignificant
/// effect — forwarded memory-resident values are unpredictable.
#[test]
fn value_prediction_is_insignificant()
{
    for name in ["parser", "gzip_comp1"] {
        let h = harness(name);
        let u = region_cycles(h, Mode::Unsync);
        let p = region_cycles(h, Mode::HwPredict);
        let c = region_cycles(h, Mode::CompilerRef);
        assert!(
            p as f64 > 0.6 * u as f64,
            "{name}: P ({p}) should not approach a real fix (U {u})"
        );
        assert!(
            c < p,
            "{name}: compiler sync ({c}) must beat value prediction ({p})"
        );
    }
}

/// §4.2 / Figure 10: the hybrid captures (most of) the better technique on
/// benchmarks where compiler and hardware differ sharply.
#[test]
fn hybrid_tracks_the_better_technique() {
    for name in ["m88ksim", "parser", "gzip_decomp"] {
        let h = harness(name);
        let c = region_cycles(h, Mode::CompilerRef);
        let hw = region_cycles(h, Mode::HwSync);
        let b = region_cycles(h, Mode::Hybrid);
        let best = c.min(hw);
        assert!(
            (b as f64) < 1.25 * best as f64,
            "{name}: B ({b}) should track best(C {c}, H {hw})"
        );
    }
}

/// Figure 9: early forwarding beats stalling until the previous epoch
/// completes, where the value is produced early.
#[test]
fn forwarding_beats_stall_till_complete() {
    for name in ["gzip_decomp", "parser", "gap"] {
        let h = harness(name);
        let c = region_cycles(h, Mode::CompilerRef);
        let l = region_cycles(h, Mode::LateSync);
        assert!(
            c < l,
            "{name}: forwarding (C {c}) must beat stall-till-complete (L {l})"
        );
    }
}

/// Figure 6: lowering the prediction threshold helps monotonically, and
/// perfect prediction of everything is the limit.
#[test]
fn threshold_study_is_monotone() {
    for name in ["gzip_comp1", "bzip2_comp"] {
        let h = harness(name);
        let v25 = run(h, Mode::Threshold(25)).total_violations;
        let v15 = run(h, Mode::Threshold(15)).total_violations;
        let v5 = run(h, Mode::Threshold(5)).total_violations;
        let vo = run(h, Mode::OracleAll).total_violations;
        assert!(v15 <= v25, "{name}: 15% ({v15}) vs 25% ({v25})");
        assert!(v5 <= v15, "{name}: 5% ({v5}) vs 15% ({v15})");
        assert!(vo <= v5, "{name}: O ({vo}) vs 5% ({v5})");
    }
}

/// §2.2: the signal address buffer never needs more than 10 entries.
#[test]
fn signal_address_buffer_stays_small() {
    for name in ["parser", "gap", "gzip_decomp", "perlbmk"] {
        let h = harness(name);
        let c = run(h, Mode::CompilerRef);
        assert!(
            c.max_signal_buffer <= 10,
            "{name}: signal buffer reached {} entries",
            c.max_signal_buffer
        );
    }
}

/// §2.3: code growth from cloning and synchronization stays small at
/// workload scale.
#[test]
fn code_growth_is_modest() {
    for name in ["parser", "go", "gcc"] {
        let h = harness(name);
        let growth = h.set_c.report.code_growth();
        // Our IR programs are orders of magnitude smaller than SPEC, so the
        // fixed synchronization scaffolding weighs proportionally more than
        // the paper's <1%; bound it loosely.
        assert!(
            growth < 1.4,
            "{name}: code growth {growth:.2} exceeds 40%"
        );
    }
}

/// Figure 11: compiler marking and the hardware table cover different (and
/// overlapping) sets of violating loads.
#[test]
fn marking_classification_is_populated() {
    let h = harness("gzip_comp1");
    let r = h
        .run(Mode::Marking {
            stall_compiler: false,
            stall_hardware: false,
        })
        .expect("runs");
    let classes = r.violation_class_totals();
    let total: u64 = classes.values().sum();
    assert!(total > 0, "expected violations to classify");
}

/// The paper's proposed hybrid enhancement (iii): hardware filters out
/// compiler-inserted synchronization that rarely forwards a usable value.
/// twolf — the canonical over-synchronization victim — should recover,
/// and the benchmarks where the hybrid already works must not regress.
#[test]
fn filtered_hybrid_removes_useless_synchronization() {
    let h = harness("twolf");
    let b = region_cycles(h, Mode::Hybrid);
    let bf = region_cycles(h, Mode::HybridFiltered);
    assert!(
        bf < b,
        "twolf: filtered hybrid ({bf}) must beat the plain hybrid ({b})"
    );
    for name in ["m88ksim", "parser", "gap"] {
        let h = harness(name);
        let b = region_cycles(h, Mode::Hybrid);
        let bf = region_cycles(h, Mode::HybridFiltered);
        assert!(
            (bf as f64) < 1.15 * b as f64,
            "{name}: filtering must not hurt (B+ {bf} vs B {b})"
        );
    }
}

/// Ablation (DESIGN §9): signalling right after the producing store — the
/// paper's scheduling of memory-value forwarding — never loses to signalling
/// at the latch on gzip_decomp, the benchmark that needs early forwarding.
#[test]
fn early_signals_do_not_lose_to_latch_signals() {
    let w = tls_repro::workloads::by_name("gzip_decomp").expect("workload exists");
    let latch_opts = CompileOptions {
        schedule_signals: false,
        ..CompileOptions::default()
    };
    let latch = Harness::with_options(w, Scale::Quick, &latch_opts).expect("harness builds");
    let e = region_cycles(harness("gzip_decomp"), Mode::CompilerRef);
    let l = region_cycles(&latch, Mode::CompilerRef);
    assert!(
        e <= l * 11 / 10,
        "gzip_decomp: early signals ({e} region cycles) vs latch-time signals ({l})"
    );
}

/// Ablation (DESIGN §9): tracking exposed reads per word instead of per
/// cache line removes m88ksim's false-sharing violations.
#[test]
fn word_grain_tracking_removes_false_sharing_violations() {
    let h = harness("m88ksim");
    let line = Machine::new(&h.set_c.unsync, SimConfig::cgo2004())
        .run()
        .expect("runs");
    assert_eq!(
        line.output, h.seq.output,
        "line-grain run must stay correct"
    );
    let word_cfg = SimConfig {
        word_grain: true,
        ..SimConfig::cgo2004()
    };
    let word = Machine::new(&h.set_c.unsync, word_cfg).run().expect("runs");
    assert!(
        word.total_violations < line.total_violations,
        "m88ksim: word grain ({}) must violate less than line grain ({})",
        word.total_violations,
        line.total_violations
    );
}

/// Ablation (DESIGN §9): relaying the incoming memory signal instead of
/// sending NULL keeps parser architecturally correct.
#[test]
fn relay_forwarding_matches_sequential_output() {
    let h = harness("parser");
    let relay_cfg = SimConfig {
        relay_forwarding: true,
        ..SimConfig::cgo2004()
    };
    let relay = Machine::new(&h.set_c.synced, relay_cfg)
        .run()
        .expect("runs");
    assert_eq!(
        relay.output, h.seq.output,
        "relay forwarding must stay correct"
    );
}
