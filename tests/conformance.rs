//! Lockstep conformance against the timing-free TLS protocol model
//! (tier 1).
//!
//! Three properties are pinned here, on top of the implicit check that
//! debug-build `Harness::run` performs on every speculative run:
//!
//! 1. **Real workloads conform** — two workloads, explicitly recorded and
//!    checked under the compiler-sync, hardware-prediction and hybrid
//!    paths, with non-vacuity floors on what the model verified.
//! 2. **The checker is not vacuous** — re-simulating under a fault plan
//!    carrying a protocol mutation (`Mutation::SkipExposedRead`:
//!    forwarded-load fallbacks skip the exposed-read-set insertion;
//!    `Mutation::SkipPredictionVerify`: adaptive predictions skip
//!    commit-time verification) must make the checker reject streams a
//!    final-state comparison alone can miss.
//! 3. **The event stream serializes losslessly** — `events_to_json` ∘
//!    `events_from_json` is the identity over a fuzz corpus, so archived
//!    streams can be re-checked offline.

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::{conform, spec_modes, ExperimentError, Harness, Mode, Scale};
use tls_repro::ir::generate;
use tls_repro::sim::{events_from_json, events_to_json, FaultPlan, Mutation, RecordingTracer};

/// Prepare a workload harness at quick scale.
fn quick(name: &str) -> Harness {
    let w = tls_repro::workloads::by_name(name).expect("workload exists");
    Harness::new(w, Scale::Quick).unwrap_or_else(|e| panic!("{name}: harness failed: {e}"))
}

/// The three value-communication paths the acceptance gate names:
/// compiler-inserted synchronization, hardware value prediction, and the
/// compiler + hardware hybrid.
const PATHS: [Mode; 3] = [Mode::CompilerRef, Mode::HwPredict, Mode::Hybrid];

#[test]
fn small_workloads_conform_on_all_three_paths() {
    for name in ["parser", "m88ksim"] {
        let h = quick(name);
        let mut commits = 0;
        for mode in PATHS {
            let stats = conform::conform_run(&h, mode)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", mode.label()));
            commits += stats.commits;
            assert!(
                stats.instances > 0 && stats.stores > 0,
                "{name}/{}: vacuous pass: {}",
                mode.label(),
                stats.summary()
            );
        }
        assert!(commits > 0, "{name}: no commits verified");
    }
}

#[test]
fn prediction_path_is_exercised() {
    // The HwPredict run must actually track predictions to commit-time
    // verification on some workload, or path coverage is vacuous.
    let mut predicted = 0;
    for name in ["parser", "m88ksim", "go"] {
        let h = quick(name);
        let stats =
            conform::conform_run(&h, Mode::HwPredict).unwrap_or_else(|e| panic!("{name}/P: {e}"));
        predicted += stats.predicted_loads;
    }
    assert!(predicted > 0, "no workload exercised value prediction");
}

#[test]
fn seeded_mutation_is_rejected() {
    // Re-simulate with the read-marking fault injected: forwarded loads
    // that fall back to a plain memory read (mismatched or NULL forwarded
    // address) skip the exposed-read-set insertion, so the simulator
    // misses the eager violation a later conflicting store must raise.
    // On `go` (indexed addressing → frequent address mismatches) the
    // checker must reject the stream as a *missed violation* — exactly the
    // bug class that final-state differencing alone can let commit.
    let h = quick("go");
    let mut rejected = 0u64;
    for mode in [Mode::CompilerRef, Mode::CompilerTrain, Mode::HybridFiltered] {
        let mut plan = FaultPlan::mutation(Mutation::SkipExposedRead);
        let mut rec = RecordingTracer::default();
        match h.run_traced(mode, &mut plan.over(&mut rec)) {
            // The missed squash usually corrupts architectural state too;
            // either way the event stream is what the checker judges.
            Ok(_) | Err(ExperimentError::WrongOutput { .. }) => {}
            Err(e) => panic!("go/{}: {e}", mode.label()),
        }
        match h.check_conformance(mode, &rec.events) {
            Ok(stats) => panic!(
                "go/{}: the checker accepted a mutated run ({})",
                mode.label(),
                stats.summary()
            ),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("missed violation"),
                    "go/{}: rejected for the wrong reason: {msg}",
                    mode.label()
                );
                rejected += 1;
            }
        }
    }
    assert_eq!(rejected, 3);

    // Control: the identical runs without the fault conform.
    conform::conform_run(&h, Mode::CompilerRef).expect("clean go/C conforms");
}

#[test]
fn seeded_adaptive_mutation_is_rejected() {
    // Re-simulate with the adaptive-forwarding fault injected: when the
    // controller places a dependence under the PREDICT policy, the mutated
    // machine consumes the predicted value (and emits the PredictedLoad
    // event) but skips registering it for commit-time verification — so a
    // wrong prediction is never squashed and its value simply commits. The
    // protocol model rebuilds the predicted set from the event stream and
    // must reject the first such commit as a missed mispredict; final-state
    // differencing alone can let it through when the corruption stays in
    // dead data.
    let h = quick("parser");
    let mut plan = FaultPlan::mutation(Mutation::SkipPredictionVerify);
    let mut rec = RecordingTracer::default();
    match h.run_traced(Mode::AdaptiveUnsync, &mut plan.over(&mut rec)) {
        Ok(_) | Err(ExperimentError::WrongOutput { .. }) => {}
        Err(e) => panic!("parser/A-U: {e}"),
    }
    match h.check_conformance(Mode::AdaptiveUnsync, &rec.events) {
        Ok(stats) => panic!(
            "parser/A-U: the checker accepted a run with unverified predictions ({})",
            stats.summary()
        ),
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("missed mispredict"),
                "parser/A-U: rejected for the wrong reason: {msg}"
            );
        }
    }

    // Control: the identical adaptive runs without the fault conform, and
    // actually exercise the prediction path the fault targets.
    let stats = conform::conform_run(&h, Mode::AdaptiveUnsync).expect("clean parser/A-U");
    assert!(
        stats.predicted_loads > 0,
        "clean parser/A-U never predicted — the fault above is vacuous"
    );
    conform::conform_run(&h, Mode::Adaptive).expect("clean parser/A conforms");
}

#[test]
fn event_streams_round_trip_through_json() {
    let cfg = FuzzConfig::default();
    for seed in 1..=10u64 {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let mut h = Harness::from_modules(
            format!("roundtrip-{seed}"),
            &measure,
            Some(&train),
            &cfg.compile_options(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: prepare failed: {e}"));
        h.base.max_steps = cfg.max_sim_steps;
        for mode in [Mode::CompilerRef, Mode::HwPredict, Mode::Hybrid] {
            let mut rec = RecordingTracer::default();
            h.run_traced(mode, &mut rec)
                .unwrap_or_else(|e| panic!("seed {seed} mode {}: {e}", mode.label()));
            let json = events_to_json(&rec.events);
            let parsed = events_from_json(&json)
                .unwrap_or_else(|e| panic!("seed {seed} mode {}: parse: {e}", mode.label()));
            assert_eq!(
                parsed,
                rec.events,
                "seed {seed} mode {}: stream changed across serialization",
                mode.label()
            );
        }
    }
}

#[test]
fn conformance_agrees_with_the_canonical_mode_list() {
    // `spec_modes` is MODES minus the sequential baseline, in order.
    assert_eq!(spec_modes().len() + 1, tls_repro::experiments::MODES.len());
    assert_eq!(tls_repro::experiments::MODES[0], Mode::Seq);
    assert!(!spec_modes().contains(&Mode::Seq));
    for m in PATHS {
        assert!(spec_modes().contains(&m));
    }
}
