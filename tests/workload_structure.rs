//! Structural invariants of every workload after compilation: a region is
//! selected, it matches the paper's selection heuristics, the train/ref
//! builds stay sid-compatible through the pipeline, and the sequential
//! baseline attributes a sensible coverage. The second half checks the
//! generator's adversarial scenario families for the structure their
//! names promise (two dependence regimes, line-grain-only sharing, deep
//! call chains, mixed nests).

use tls_repro::core::{compile_all, CompileOptions};
use tls_repro::ir::{generate, GenConfig, GenFamily};
use tls_repro::sim::{Machine, SimConfig};
use tls_repro::workloads::{all, InputSet};

#[test]
fn every_workload_selects_a_qualifying_region() {
    for w in all() {
        let m = w.module(InputSet::Train);
        let set = compile_all(&m, &m, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            set.regions.len(),
            1,
            "{}: expected exactly one speculative region",
            w.name
        );
        let r = &set.regions[0];
        assert!(
            r.avg_epoch_size >= 15.0,
            "{}: epoch size {:.1} below the paper's floor",
            w.name,
            r.avg_epoch_size
        );
        assert!(
            r.avg_trip >= 1.5,
            "{}: avg trip {:.1} below the paper's floor",
            w.name,
            r.avg_trip
        );
        assert!(
            r.coverage >= 0.001,
            "{}: coverage {:.4} below the paper's floor",
            w.name,
            r.coverage
        );
        // Induction privatization always applies (the loop counter).
        assert!(
            set.report.privatized >= 1,
            "{}: loop counter must be privatized",
            w.name
        );
    }
}

#[test]
fn coverage_attribution_is_consistent() {
    // The fraction of sequential cycles attributed to regions must be a
    // proper fraction, and roughly agree with the profiled instruction
    // coverage (cycles and instructions weight loops differently, so allow
    // a wide band).
    for w in all() {
        let m = w.module(InputSet::Train);
        let set = compile_all(&m, &m, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let seq = Machine::new(&set.seq, SimConfig::sequential())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let total = seq.total_cycles.max(1) as f64;
        let region = seq.region_cycles() as f64;
        let cycle_cov = region / total;
        assert!(
            cycle_cov > 0.0 && cycle_cov < 1.0,
            "{}: cycle coverage {cycle_cov:.3} out of range",
            w.name
        );
        let instr_cov = set.regions[0].coverage;
        assert!(
            (cycle_cov - instr_cov).abs() < 0.45,
            "{}: cycle coverage {cycle_cov:.2} far from instruction coverage {instr_cov:.2}",
            w.name
        );
    }
}

/// Relaxed selection floors for generated programs (small random loops),
/// mirroring `FuzzConfig::compile_options`.
fn gen_options() -> CompileOptions {
    CompileOptions {
        min_coverage: 0.0,
        min_avg_trip: 1.0,
        min_epoch_size: 1.0,
        ..CompileOptions::default()
    }
}

#[test]
fn phase_shift_family_shifts_sync_placement_across_inputs() {
    // The phase boundary is drawn from the data salt: one mode leaves the
    // phase-B recurrence a single epoch (profiled frequency ~0), the other
    // makes it dominant (~75%). Profiling the same code on different salts
    // must therefore mark *different* load sets for synchronization — the
    // exact property that defeats train-input profiling. Deterministic:
    // each salt's boundary mode is a fixed function of (seed, salt).
    let cfg = GenConfig::for_family(GenFamily::PhaseShift);
    let mut shifting = 0;
    for seed in 0..10u64 {
        let code = generate(seed, &cfg, 0);
        let marks: Vec<Vec<_>> = (0..4u64)
            .map(|salt| {
                let input = generate(seed, &cfg, salt);
                let set = compile_all(&code, &input, &gen_options())
                    .unwrap_or_else(|e| panic!("seed {seed} salt {salt}: {e}"));
                let mut v: Vec<_> = set.marked_loads.iter().copied().collect();
                v.sort();
                v
            })
            .collect();
        if marks.iter().any(|m| *m != marks[0]) {
            shifting += 1;
        }
    }
    // A seed only fails to shift when all four salts draw the same
    // boundary mode (probability 1/8 each way); most seeds must shift.
    assert!(
        shifting >= 6,
        "sync placement must depend on the profiling input: only {shifting}/10 seeds shifted"
    );
}

#[test]
fn false_sharing_family_differs_at_line_vs_word_grain() {
    // The family's only cross-epoch memory traffic shares a cache line but
    // never a word: the loaded word is never stored. Tracking dependences
    // per line must therefore squash epochs that per-word tracking leaves
    // untouched — the definitional test of false sharing.
    let cfg = GenConfig::for_family(GenFamily::FalseSharing);
    let (mut line_viol, mut word_viol) = (0u64, 0u64);
    for seed in 0..5u64 {
        let m = generate(seed, &cfg, 0);
        let set =
            compile_all(&m, &m, &gen_options()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut line_cfg = SimConfig::cgo2004();
        line_cfg.word_grain = false;
        let mut word_cfg = SimConfig::cgo2004();
        word_cfg.word_grain = true;
        line_viol += Machine::new(&set.unsync, line_cfg)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed} line-grain: {e}"))
            .total_violations;
        word_viol += Machine::new(&set.unsync, word_cfg)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed} word-grain: {e}"))
            .total_violations;
    }
    assert!(
        line_viol > word_viol,
        "line-grain tracking must see the false sharing: {line_viol} line vs {word_viol} word"
    );
}

#[test]
fn deep_clone_family_forces_call_chain_cloning() {
    // Region code reaches the shared state only through a CLONE_DEPTH-long
    // call chain; synchronizing the leaf's accesses forces the compiler to
    // clone the whole chain. At least one seed's compilation must report
    // multiple clones (one per chain level on the synchronized path).
    let cfg = GenConfig::for_family(GenFamily::DeepClone);
    let max_clones = (0..10u64)
        .map(|seed| {
            let m = generate(seed, &cfg, 0);
            compile_all(&m, &m, &gen_options())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                .report
                .clones
        })
        .max()
        .expect("nonempty");
    assert!(
        max_clones >= 2,
        "deep-clone corpus never cloned past one level (max {max_clones})"
    );
}

#[test]
fn mixed_nests_family_profiles_independent_and_dependent_loops() {
    // Four sibling nests alternate private and shared access patterns: the
    // profile must contain loops with cross-epoch dependence edges AND
    // loops without any — the interleaving that tests per-region selection
    // rather than whole-program averages.
    let cfg = GenConfig::for_family(GenFamily::MixedNests);
    let mut saw_mix = false;
    for seed in 0..10u64 {
        let m = generate(seed, &cfg, 0);
        let set =
            compile_all(&m, &m, &gen_options()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let profiled: Vec<bool> = set
            .dep_profile
            .loops
            .values()
            .filter(|lp| lp.total_iters > 0)
            .map(|lp| lp.edges.values().any(|e| e.epochs > 0))
            .collect();
        if profiled.len() >= 4
            && profiled.iter().any(|&dep| dep)
            && profiled.iter().any(|&dep| !dep)
        {
            saw_mix = true;
            break;
        }
    }
    assert!(
        saw_mix,
        "no mixed-nest seed profiled both dependent and independent loops"
    );
}

#[test]
fn train_profile_compiles_ref_code() {
    // The T configuration: a profile gathered on the train module must
    // apply cleanly to the ref module (identical sids) for every workload.
    for w in all() {
        let ref_m = w.module(InputSet::Ref);
        let train_m = w.module(InputSet::Train);
        let set = compile_all(&ref_m, &train_m, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        tls_repro::ir::validate(&set.synced)
            .unwrap_or_else(|e| panic!("{}: invalid T module: {e}", w.name));
    }
}
