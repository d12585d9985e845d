//! Seeded fault injection against the TLS correctness contract (tier 1).
//!
//! Four properties are pinned here:
//!
//! 1. **Maskable faults are absorbed** — ≥25 seeded corrupted-signal plans
//!    per compiler-sync mode on `go` and `mcf` leave the architectural
//!    results byte-identical to sequential execution, while the extra
//!    squashes prove the §2.2 recovery machinery (not luck) absorbed them.
//! 2. **Contract-breaking faults are caught** — plans that corrupt state
//!    the protocol has no net under must be rejected by the conformance
//!    checker (or die with a typed simulation error), proving the checker
//!    is not vacuous.
//! 3. **Worker panics are isolated** — a deliberately panicking plan
//!    becomes exactly one structured `RunError` while the rest of the
//!    campaign completes and is judged normally.
//! 4. **Runaway modules hit the cycle budget** — a generated module patched
//!    to spin forever fails with `SimError::CycleBudgetExceeded` instead of
//!    hanging the harness.

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::inject::{run_campaign, InjectConfig, Partition, PlanOutcome};
use tls_repro::experiments::{Harness, Mode, Scale};
use tls_repro::ir::{generate, BlockId, Instr, Operand, Terminator, Var};
use tls_repro::sim::{simulate, FaultClass, SimConfig, SimError};

/// Prepare a workload harness at quick scale.
fn quick(name: &str) -> Harness {
    let w = tls_repro::workloads::by_name(name).expect("workload exists");
    Harness::new(w, Scale::Quick).unwrap_or_else(|e| panic!("{name}: harness failed: {e}"))
}

/// The two compiler memory-synchronization modes the acceptance gate names.
const SYNC_MODES: [Mode; 2] = [Mode::CompilerRef, Mode::CompilerTrain];

#[test]
fn corrupted_signals_are_masked_with_extra_squashes() {
    // Corrupting a synchronization signal on the wire must never corrupt
    // architectural state: the consumer's address check falls back to a
    // plain (exposed) memory read and the violation machinery replays the
    // epoch if the value was stale. Only cycles may degrade.
    let cfg = InjectConfig {
        rate: 1.0,
        budget: 4,
        partition: Partition::Classes(vec![FaultClass::CorruptSignal]),
        ..InjectConfig::default()
    };
    for name in ["go", "mcf"] {
        let h = quick(name);
        for mode in SYNC_MODES {
            let report = run_campaign(&h, mode, 1, 25, &cfg)
                .unwrap_or_else(|e| panic!("{name}/{}: baseline failed: {e}", mode.label()));
            assert!(
                report.errors.is_empty(),
                "{name}/{}: {:?}",
                mode.label(),
                report.errors
            );
            assert_eq!(report.results.len(), 25);
            let mut fired = 0u64;
            let mut squashes_added = 0u64;
            for r in &report.results {
                // Every plan must be absorbed: oracle-equal output or no
                // injection at all. Anything else is a soundness hole.
                assert!(
                    matches!(r.outcome, PlanOutcome::Masked | PlanOutcome::Dormant),
                    "{name}/{} plan {}: {:?}",
                    mode.label(),
                    r.plan_seed,
                    r.outcome
                );
                fired += r.injected;
                squashes_added += r.squashes.saturating_sub(report.baseline_squashes);
            }
            assert!(
                fired > 0,
                "{name}/{}: vacuous campaign, no signal fault fired",
                mode.label()
            );
            assert!(
                squashes_added > 0,
                "{name}/{}: corrupted signals fired {fired} time(s) but never exercised \
                 the recovery path",
                mode.label()
            );
            report
                .sound()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", mode.label()));
        }
    }
}

#[test]
fn contract_breaking_faults_are_rejected() {
    // The three contract-breaking classes corrupt state the protocol has
    // no net under; the conformance checker (or a typed simulator error)
    // must catch every plan that fires — otherwise the checker is vacuous.
    let cfg = InjectConfig {
        rate: 1.0,
        budget: 8,
        partition: Partition::Contract,
        ..InjectConfig::default()
    };
    let h = quick("go");
    let report = run_campaign(&h, Mode::CompilerRef, 1, 9, &cfg)
        .unwrap_or_else(|e| panic!("go/C: baseline failed: {e}"));
    assert!(report.errors.is_empty(), "go/C: {:?}", report.errors);
    let rejected = report
        .results
        .iter()
        .filter(|r| matches!(r.outcome, PlanOutcome::Rejected(_)))
        .count();
    assert!(rejected > 0, "go/C: no contract-breaking plan was caught");
    report.sound().unwrap_or_else(|e| panic!("go/C: {e}"));
}

#[test]
fn a_panicking_worker_is_one_structured_error() {
    // The seeded worker-panic mutation: plan index 2 dies mid-campaign,
    // the other plans still run and are judged normally.
    let cfg = InjectConfig {
        rate: 1.0,
        budget: 4,
        partition: Partition::Classes(vec![FaultClass::CorruptSignal]),
        panic_on_plan: Some(2),
    };
    let h = quick("mcf");
    let report = run_campaign(&h, Mode::CompilerRef, 10, 6, &cfg).expect("baseline runs");
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(
        report.errors[0].detail.contains("deliberate worker panic"),
        "{}",
        report.errors[0]
    );
    assert!(
        report.errors[0].label.contains("mcf/C"),
        "{}",
        report.errors[0]
    );
    assert_eq!(report.results.len(), 5, "the other plans must complete");
    report.sound().unwrap_or_else(|e| panic!("mcf/C: {e}"));
}

#[test]
fn nonterminating_module_hits_the_cycle_budget() {
    // Patch a generated program so its entry block spins forever: the
    // simulator must fail with the typed cycle-budget error instead of
    // hanging the campaign.
    let gen_cfg = FuzzConfig::default();
    let mut module = generate(7, &gen_cfg.gen, 0);
    let entry = module.entry.index();
    let block = &mut module.funcs[entry].blocks[0];
    if block.instrs.is_empty() {
        // The spin must spend simulated time, or the step limit fires
        // before the cycle budget does.
        module.funcs[entry].num_vars = module.funcs[entry].num_vars.max(1);
        module.funcs[entry].blocks[0].instrs.push(Instr::Assign {
            dst: Var(0),
            src: Operand::Const(0),
        });
    }
    module.funcs[entry].blocks[0].term = Some(Terminator::Jump(BlockId(0)));
    let mut cfg = SimConfig::sequential();
    cfg.max_cycles = 10_000;
    match simulate(&module, cfg) {
        Err(SimError::CycleBudgetExceeded(budget)) => assert_eq!(budget, 10_000),
        other => panic!("expected a cycle-budget error, got {other:?}"),
    }
    // Control: the unpatched module completes under the same budget.
    let clean = generate(7, &gen_cfg.gen, 0);
    let mut cfg = SimConfig::sequential();
    cfg.max_cycles = 4_000_000;
    simulate(&clean, cfg).expect("the unpatched module terminates");
}

#[test]
fn every_fault_class_is_partitioned_exactly_once() {
    // The maskable/contract split is the campaign's ground truth; a class
    // in both (or neither) partition would silently skew every judgement.
    let mut seen = Vec::new();
    for c in FaultClass::MASKABLE {
        assert!(
            c.is_maskable(),
            "{} listed maskable but not judged so",
            c.name()
        );
        seen.push(c);
    }
    for c in FaultClass::CONTRACT {
        assert!(
            !c.is_maskable(),
            "{} listed contract but judged maskable",
            c.name()
        );
        seen.push(c);
    }
    seen.sort_by_key(|c| c.name());
    seen.dedup();
    assert_eq!(seen.len(), FaultClass::ALL.len());
}
