//! Metamorphic properties of the scale machinery and the adversarial
//! scenario families (tier 1).
//!
//! Scaling a workload multiplies loop trips and data-structure footprints
//! but leaves the instruction stream untouched, so conclusions drawn at
//! one scale must transfer to another: the relative ordering of
//! synchronization modes is scale-invariant, and for workloads with a
//! fixed dependence pattern the violation *rate* (violations per epoch)
//! is scale-independent even though absolute counts grow. The phase-shift
//! scenario family checks the converse: when the dependence pattern flips
//! mid-run at a data-dependent boundary, a profile gathered on the train
//! input mis-weights the phases and compiler-inserted synchronization
//! degrades — while hardware synchronization, which adapts at run time,
//! does not.

use tls_repro::experiments::{fuzz::FuzzConfig, Harness, Mode, Scale};
use tls_repro::ir::{generate, GenConfig, GenFamily};
use tls_repro::workloads::by_name;

fn harness(name: &str, scale: Scale) -> Harness {
    let w = by_name(name).expect("workload exists");
    Harness::new(w, scale).unwrap_or_else(|e| panic!("{name}: harness failed: {e}"))
}

/// Region cycles of one mode at one scale.
fn region_cycles(h: &Harness, mode: Mode) -> u64 {
    h.run(mode)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", h.name, mode.label()))
        .region_cycles()
}

#[test]
fn sync_mode_ordering_is_stable_from_quick_to_ref() {
    // parser: compiler sync beats the unsynchronized baseline (Figure 8's
    // headline) — at quick scale AND at full ref scale.
    for scale in [Scale::Quick, Scale::Full] {
        let h = harness("parser", scale);
        let u = region_cycles(&h, Mode::Unsync);
        let c = region_cycles(&h, Mode::CompilerRef);
        assert!(
            c < u,
            "parser at {}: C ({c}) must beat U ({u})",
            scale.label()
        );
    }
    // m88ksim: hardware sync beats compiler sync (the false-sharing
    // pattern, Figure 10) — the preference must also hold at both scales.
    for scale in [Scale::Quick, Scale::Full] {
        let h = harness("m88ksim", scale);
        let c = region_cycles(&h, Mode::CompilerRef);
        let hw = region_cycles(&h, Mode::HwSync);
        assert!(
            hw < c,
            "m88ksim at {}: H ({hw}) must beat C ({c})",
            scale.label()
        );
    }
}

#[test]
fn violation_rate_is_scale_independent_for_fixed_patterns() {
    // parser and mcf have a fixed distance-1 dependence pattern: under the
    // unsynchronized baseline, violations per epoch must stay flat as the
    // iteration count scales 4x (absolute counts grow with the run).
    for name in ["parser", "mcf"] {
        let mut rates = Vec::new();
        for mult in [1u32, 4u32] {
            let ws = tls_repro::workloads::Scale::new(mult, 1).expect("nonzero");
            let scale = if ws.is_base() {
                Scale::Quick
            } else {
                Scale::ScaledQuick(ws)
            };
            let h = harness(name, scale);
            let r = h.run(Mode::Unsync).expect("U runs");
            let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
            assert!(epochs > 0, "{name} at {mult}x commits epochs");
            rates.push(r.total_violations as f64 / epochs as f64);
        }
        let (r1, r4) = (rates[0], rates[1]);
        assert!(
            (r4 / r1 - 1.0).abs() < 0.25,
            "{name}: violation rate drifted under scaling: {r1:.3}/epoch at 1x vs {r4:.3} at 4x"
        );
        assert!(
            r1 > 0.1,
            "{name}: the pattern must actually violate ({r1:.3}/epoch)"
        );
    }
}

#[test]
fn phase_shift_degrades_trained_compiler_sync_but_not_hardware() {
    // Generated phase-shift programs flip their dependence pattern at a
    // boundary drawn from the *data* stream, so the train salt profiles a
    // different phase mix than the measurement run executes. Summed over a
    // seed corpus: train-profiled compiler sync (T) must suffer more
    // violations than both self-profiled compiler sync (C) and hardware
    // sync (H), because only T plans around the wrong boundary.
    let cfg = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    let opts = cfg.compile_options();
    let (mut t_viol, mut c_viol, mut h_viol) = (0u64, 0u64, 0u64);
    for seed in 0..12u64 {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let h = Harness::from_modules("phase_shift", &measure, Some(&train), &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        t_viol += h.run(Mode::CompilerTrain).expect("T runs").total_violations;
        c_viol += h.run(Mode::CompilerRef).expect("C runs").total_violations;
        h_viol += h.run(Mode::HwSync).expect("H runs").total_violations;
    }
    assert!(
        t_viol > 0,
        "the shifted phase must actually bite under the train profile"
    );
    assert!(
        t_viol > c_viol,
        "train-profiled sync must degrade vs self-profiled: T {t_viol} vs C {c_viol}"
    );
    assert!(
        t_viol > h_viol,
        "hardware sync must adapt across the shift: T {t_viol} vs H {h_viol}"
    );
}

#[test]
fn adaptive_is_within_bounded_overhead_of_best_static_policy() {
    // On stationary inputs the dependence pattern never shifts, so the
    // adaptive controller has nothing to chase: after its first windows it
    // must settle near one static policy and stay within a constant factor
    // of whichever static mode is best for the workload. (The bound is
    // loose — stalls taken while the controller learns are real — but it
    // is a *bound*: an oscillating controller blows through it.)
    for name in ["parser", "mcf"] {
        let h = harness(name, Scale::Quick);
        let best = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync]
            .into_iter()
            .map(|m| region_cycles(&h, m))
            .min()
            .expect("nonempty");
        let a = region_cycles(&h, Mode::Adaptive);
        assert!(
            a as f64 <= best as f64 * 2.0,
            "{name}: adaptive ({a}) exceeds 2x the best static policy ({best})"
        );
    }
}

#[test]
fn adaptive_beats_stale_train_profile_on_phase_shift() {
    // The converse of `phase_shift_degrades_trained_compiler_sync...`: on
    // seeds whose data salts draw the adversarial train/measure pairing
    // (the measurement input flips its dependence pattern early, so phase
    // B dominates a run the train profile never saw), the adaptive
    // controller layered on the *same* stale module must strictly beat
    // static train-profiled sync — and the win must be attributable to
    // actual mid-run policy transitions, not noise.
    let cfg = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    let opts = cfg.compile_options();
    let (mut t_cycles, mut at_cycles, mut t_viol, mut at_viol) = (0u64, 0u64, 0u64, 0u64);
    let mut transitions = 0u64;
    for seed in [4u64, 6, 7, 14, 15, 16, 35, 36, 44, 45] {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let h = Harness::from_modules("phase_shift", &measure, Some(&train), &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let t = h.run(Mode::CompilerTrain).expect("T runs");
        let at = h.run_counted(Mode::AdaptiveTrain).expect("A-T runs");
        t_cycles += t.region_cycles();
        t_viol += t.total_violations;
        at_cycles += at.region_cycles();
        at_viol += at.total_violations;
        transitions += at
            .counters
            .as_deref()
            .expect("counted run publishes its bank")
            .total_policy_transitions();
    }
    assert!(
        t_viol > 50,
        "the corpus must actually hurt T ({t_viol} violations)"
    );
    assert!(
        at_cycles < t_cycles,
        "adaptive must beat the stale profile: A-T {at_cycles} vs T {t_cycles} cycles"
    );
    assert!(
        at_viol < t_viol / 10,
        "adaptive must recover the violation storm: A-T {at_viol} vs T {t_viol}"
    );
    assert!(
        transitions > 0,
        "the win must come from mid-run policy transitions"
    );
}

#[test]
fn policy_transition_rate_is_scale_independent() {
    // Scaling parser's iteration count leaves its dependence pattern
    // untouched, so the controller must churn at the same per-epoch rate:
    // transitions per committed epoch stay flat from 1x to 4x even though
    // absolute transition counts grow with the run.
    let mut rates = Vec::new();
    for mult in [1u32, 4u32] {
        let ws = tls_repro::workloads::Scale::new(mult, 1).expect("nonzero");
        let scale = if ws.is_base() {
            Scale::Quick
        } else {
            Scale::ScaledQuick(ws)
        };
        let h = harness("parser", scale);
        let r = h.run_counted(Mode::AdaptiveUnsync).expect("A-U runs");
        let c = r
            .counters
            .as_deref()
            .expect("counted run publishes its bank");
        let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
        assert!(epochs > 0, "parser at {mult}x commits epochs");
        rates.push(c.total_policy_transitions() as f64 / epochs as f64);
    }
    let (r1, r4) = (rates[0], rates[1]);
    assert!(
        r1 > 0.05,
        "the controller must actually transition at base scale ({r1:.3}/epoch)"
    );
    assert!(
        (r4 / r1 - 1.0).abs() < 0.3,
        "transition rate drifted under scaling: {r1:.3}/epoch at 1x vs {r4:.3} at 4x"
    );
}

#[test]
fn scale_labels_round_trip_through_parse() {
    for s in ["quick", "ref", "ref:100x1", "quick:4x2"] {
        let parsed = Scale::parse(s).unwrap_or_else(|| panic!("`{s}` parses"));
        assert_eq!(parsed.label(), s, "label/parse round trip");
    }
    // Convenience spellings normalize.
    assert_eq!(Scale::parse("full").expect("full").label(), "ref");
    assert_eq!(Scale::parse("100x").expect("100x").label(), "ref:100x1");
    assert_eq!(Scale::parse("1x1").expect("1x1").label(), "ref");
    assert_eq!(
        Scale::parse("quick:1x1").expect("quick base").label(),
        "quick"
    );
    assert!(Scale::parse("0x2").is_none(), "zero multiplier rejected");
    assert!(Scale::parse("bogus").is_none());
}
