//! Fixed-seed differential-fuzzing smoke corpus (tier 1).
//!
//! The full campaigns run via `repro fuzz`; these tests pin a deterministic
//! subset so `cargo test` exercises the generator, the whole mode matrix,
//! the shrinker, and the checked-in regression corpus on every run.

use std::path::Path;

use tls_repro::experiments::fuzz::{self, FailureKind, FuzzConfig};
use tls_repro::experiments::{Harness, Mode};
use tls_repro::ir::{generate, GenConfig, GenFamily};

/// 200 deterministic seeds, every mode, zero tolerated mismatches. Runs
/// serially in well under a minute (the release campaign does 200 seeds in
/// ~0.7 s on one core).
#[test]
fn smoke_corpus_is_clean() {
    let cfg = FuzzConfig::default();
    let report = fuzz::run_fuzz(1, 200, &cfg, None).expect("valid generator config");
    assert_eq!(report.iters, 200);
    let summaries: Vec<String> = report
        .failures
        .iter()
        .map(|f| f.failure.to_string())
        .collect();
    assert!(
        report.failures.is_empty(),
        "fuzz smoke corpus found mismatches: {summaries:?}"
    );
    // The corpus must actually exercise the machinery it claims to test.
    assert!(report.seeds_with_regions >= 150, "{}", report.summary());
    assert!(report.seeds_with_sync_loads >= 50, "{}", report.summary());
    assert!(report.seeds_with_violations >= 20, "{}", report.summary());
}

/// Every adversarial scenario family stays architecturally oracle-equal
/// across the full mode matrix: 10 deterministic seeds per family, zero
/// tolerated mismatches, and the corpus must actually speculate.
#[test]
fn scenario_families_are_oracle_equal_across_all_modes() {
    for family in GenFamily::ALL {
        if family == GenFamily::Baseline {
            continue; // covered (at 20x the depth) by smoke_corpus_is_clean
        }
        let cfg = FuzzConfig {
            gen: GenConfig::for_family(family),
            ..FuzzConfig::default()
        };
        let report = fuzz::run_fuzz(1, 10, &cfg, None).expect("valid generator config");
        let summaries: Vec<String> = report
            .failures
            .iter()
            .map(|f| f.failure.to_string())
            .collect();
        assert!(
            report.failures.is_empty(),
            "{} family diverged from the oracle: {summaries:?}",
            family.label()
        );
        assert!(
            report.run_errors.is_empty(),
            "{} family: worker errors {:?}",
            family.label(),
            report.run_errors
        );
        assert!(
            report.seeds_with_regions >= 8,
            "{} family barely speculates: {}",
            family.label(),
            report.summary()
        );
    }
}

/// Phase-shift seeds whose data salts draw the adversarial pairing (the
/// measurement input flips its dependence pattern early, the train input
/// late) must drive the adaptive controller through at least one mid-run
/// policy transition — asserted via the machine counters, not inferred
/// from timing — and the adaptive run must recover violations the stale
/// train profile leaves behind.
#[test]
fn phase_shift_seeds_exercise_policy_transitions() {
    let cfg = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    let opts = cfg.compile_options();
    for seed in [4u64, 7, 16] {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let h = Harness::from_modules(format!("phase_shift/{seed}"), &measure, Some(&train), &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let t = h.run(Mode::CompilerTrain).expect("T runs");
        let at = h.run_counted(Mode::AdaptiveTrain).expect("A-T runs");
        let c = at
            .counters
            .as_deref()
            .expect("a counted run publishes its bank");
        assert!(
            c.total_policy_transitions() >= 1,
            "seed {seed}: no mid-run policy transition (counters: {:?})",
            c.policy_transitions
        );
        assert!(
            at.total_violations < t.total_violations,
            "seed {seed}: A-T ({}) must recover violations vs T ({})",
            at.total_violations,
            t.total_violations
        );
    }
}

/// The shrinker demo of the fault-injection self-test: with the
/// forwarded-value recovery fault enabled the harness must catch
/// mismatches, and at least one must minimize below 30 instructions.
#[test]
fn fault_injection_shrinks_to_small_repro() {
    let cfg = FuzzConfig {
        break_forwarded_recovery: true,
        ..FuzzConfig::default()
    };
    let report = fuzz::run_fuzz(1, 40, &cfg, None).expect("valid generator config");
    assert!(
        !report.failures.is_empty(),
        "injected fault was not detected in 40 seeds"
    );
    let smallest = report
        .failures
        .iter()
        .map(|f| f.minimized.static_instr_count())
        .min()
        .expect("nonempty");
    assert!(
        smallest < 30,
        "smallest minimized repro has {smallest} instructions"
    );
}

/// Every checked-in minimized module from past fuzz-found bugs must keep
/// passing the full matrix (see the header comment of each artifact for
/// the defect it pins).
#[test]
fn regression_corpus_stays_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let cfg = FuzzConfig::default();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/regressions exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        match fuzz::replay(&path, &cfg) {
            Ok(Ok(_)) => checked += 1,
            Ok(Err(f)) => panic!("{} regressed: {f}", path.display()),
            Err(e) => panic!("{}: {e}", path.display()),
        }
    }
    assert!(checked >= 2, "regression corpus missing ({checked} found)");
}

/// Two malformed headers that validation used to accept and the
/// interpreter then panicked on: an entry function with a parameter, and a
/// called function with more parameters than registers. Replaying either
/// artifact must report an invalid module.
#[test]
fn malformed_parameter_headers_replay_as_invalid() {
    const ENTRY_WITH_PARAM: &str = "tlsir 1
entry 0
counts sid=0 chan=0 group=0 globals_end=1048576
func main params=1 vars=1
block entry
  output v0
  term ret #0
";
    const PARAMS_WITHOUT_REGISTERS: &str = "tlsir 1
entry 1
counts sid=1 chan=0 group=0 globals_end=1048576
func helper params=1 vars=0
block entry
  term ret #0
func main params=0 vars=1
block entry
  call v0 f0 s0 #7
  output v0
  term ret #0
";
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("malformed_parameter_headers");
    std::fs::create_dir_all(&dir).expect("create the artifact directory");
    for (name, text) in [
        ("entry_with_param", ENTRY_WITH_PARAM),
        ("params_without_registers", PARAMS_WITHOUT_REGISTERS),
    ] {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, text).expect("write the artifact");
        match fuzz::replay(&path, &FuzzConfig::default()) {
            Ok(Err(f)) if f.kind == FailureKind::Invalid => {}
            other => panic!("{name}: expected an invalid-module failure, got {other:?}"),
        }
    }
}
