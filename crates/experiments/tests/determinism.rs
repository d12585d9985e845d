//! Determinism guarantees of the parallel pipeline and the pre-decoded
//! interpreter.
//!
//! The parallel fan-out (`par::par_map`) must be invisible: figure output
//! and every per-mode `SimResult` must be identical whether the pipeline
//! runs on one worker or many. Separately, the simulator's pre-decoded
//! instruction arena must preserve execution semantics — its observable
//! output has to match direct interpretation of the module by the
//! independent profiler executor.

use tls_experiments::{figures, par, Harness, Mode, Scale};

fn harness(name: &str) -> Harness {
    let w = tls_workloads::by_name(name).expect("workload exists");
    Harness::new(w, Scale::Quick).expect("harness builds")
}

#[test]
fn figure_output_is_byte_identical_serial_vs_parallel() {
    // Each rendering gets its own harnesses: a harness keeps the run
    // summaries a figure reads, so the parallel rendering on the serial
    // one's harnesses would simulate nothing.
    let fresh = || vec![harness("parser"), harness("gcc")];
    par::set_jobs(1);
    let serial = figures::fig8(&fresh()).expect("fig8 serial").to_string();
    par::set_jobs(4);
    let parallel = figures::fig8(&fresh()).expect("fig8 parallel").to_string();
    par::set_jobs(0);
    assert_eq!(serial, parallel, "fan-out must not change figure output");
    assert!(serial.contains("parser") && serial.contains("gcc"));
}

#[test]
fn mode_results_are_identical_serial_vs_parallel() {
    let h = harness("mcf");
    let modes = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync];
    let serial: Vec<_> = modes
        .iter()
        .map(|&m| h.run(m).expect("serial run"))
        .collect();
    par::set_jobs(3);
    let parallel = par::par_map(modes.to_vec(), |_, m| h.run(m).expect("parallel run"));
    par::set_jobs(0);
    for ((s, p), &mode) in serial.iter().zip(&parallel).zip(&modes) {
        let label = mode.label();
        assert_eq!(s.total_cycles, p.total_cycles, "{label}: cycles");
        assert_eq!(s.instructions, p.instructions, "{label}: instructions");
        assert_eq!(
            s.total_violations, p.total_violations,
            "{label}: violations"
        );
        assert_eq!(s.output, p.output, "{label}: output");
        assert_eq!(
            s.regions.keys().count(),
            p.regions.keys().count(),
            "{label}: region count"
        );
        for (rid, rs) in &s.regions {
            let pr = &p.regions[rid];
            assert_eq!(rs.cycles, pr.cycles, "{label}: region cycles");
            assert_eq!(rs.slots, pr.slots, "{label}: slot breakdown");
            assert_eq!(rs.epochs, pr.epochs, "{label}: epochs");
        }
    }
}

/// The `Machine::new` pre-decoding (flat instruction arena, dense side
/// tables) must preserve results: every TLS mode's observable output equals
/// the output of `tls_profile::run_sequential`, which interprets the
/// original nested `Module` structure directly and shares no code with the
/// pre-decoded dispatch loop.
#[test]
fn predecoded_dispatch_matches_direct_interpretation() {
    for name in ["parser", "gcc"] {
        let h = harness(name);
        let direct = tls_profile::run_sequential(&h.set_c.seq).expect("direct run");
        assert_eq!(h.seq.output, direct.output, "{name}: sequential baseline");
        for mode in [Mode::Unsync, Mode::CompilerRef, Mode::HwSync] {
            // Harness::run also asserts output == sequential internally;
            // compare against the independent executor explicitly.
            let r = h.run(mode).expect("mode runs");
            assert_eq!(r.output, direct.output, "{name}/{}", mode.label());
        }
    }
}
