//! The figure drivers share one run summary per (harness, mode) (tier 1).
//!
//! A mode that several figures show is simulated once per harness however
//! many of them render, a failing mode fails once and every figure that
//! needs it reports that error, and `Harness::run` still simulates on every
//! call. Simulations are counted as the metrics registry's `sim` spans (one
//! per `Harness` simulation, failed ones included). The registry is
//! process-global, so this file holds a single test.

use std::collections::BTreeSet;

use tls_repro::experiments::{figures, metrics, ExperimentError, Harness, Mode, Scale, MODES};
use tls_repro::sim::SimError;

/// The targets that render from prepared harnesses, with the modes each
/// shows in (harness, mode) order. `sweep` and `adaptive` build their own
/// harnesses, and `fig7` simulates nothing.
const SHARED: [(&str, &[&str]); 9] = [
    ("fig2", &["U", "O"]),
    ("fig6", &["U", "O>25%", "O>15%", "O>5%", "O"]),
    ("fig8", &["U", "T", "C"]),
    ("fig9", &["C", "E", "L"]),
    ("fig10", &["U", "P", "H", "C", "B"]),
    ("fig11", &["mark-U", "mark-C", "mark-H", "mark-B"]),
    ("fig12", &["U", "C", "H", "B"]),
    ("table2", &["B", "C"]),
    ("report", &["C"]),
];

fn mode(label: &str) -> Mode {
    Mode::from_label(label).expect("known mode label")
}

fn harness(name: &str) -> Harness {
    let w = tls_repro::workloads::by_name(name).expect("workload exists");
    Harness::new(w, Scale::Quick).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Simulations so far: `sim` spans at any nesting depth.
fn simulations() -> u64 {
    metrics::snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("sim"))
        .map(|(_, s)| s.count)
        .sum()
}

/// Render `target`, returning the table text or the error's `Debug` form,
/// and the number of simulations it ran.
fn render(target: &str, hs: &[Harness]) -> (Result<String, String>, u64) {
    let before = simulations();
    let out = figures::by_name(target, hs)
        .expect("known target")
        .map(|t| t.to_string())
        .map_err(|e| format!("{e:?}"));
    (out, simulations() - before)
}

#[test]
fn figures_simulate_each_mode_once_per_harness() {
    let distinct: BTreeSet<&str> = SHARED.iter().flat_map(|(_, m)| m.iter().copied()).collect();
    assert_eq!(
        distinct.len(),
        16,
        "the shared targets show 16 distinct modes"
    );

    // First rendering: a target simulates only the modes no earlier target
    // showed, once on each harness.
    let hs = vec![harness("mcf"), harness("parser")];
    let mut seen = BTreeSet::new();
    let mut first = Vec::new();
    for (target, labels) in SHARED {
        let new = labels.iter().filter(|l| seen.insert(**l)).count() as u64;
        let (out, sims) = render(target, &hs);
        let table = out.unwrap_or_else(|e| panic!("{target}: {e}"));
        assert_eq!(sims, new * hs.len() as u64, "{target}: simulations");
        first.push(table);
    }

    // Second rendering: nothing is simulated, and the tables are the same.
    for ((target, _), want) in SHARED.iter().zip(&first) {
        let (out, sims) = render(target, &hs);
        assert_eq!(sims, 0, "{target}: rendered again");
        assert_eq!(out.as_ref(), Ok(want), "{target}: second rendering");
    }

    // A mode in MODES that no figure showed fills its slot on first use, a
    // mode outside MODES has no slot, and `Harness::run` never reads them.
    let (unshown, outside, u) = (mode("B+"), Mode::Threshold(50), mode("U"));
    assert!(!distinct.contains("B+") && MODES.contains(&unshown) && !MODES.contains(&outside));
    for (what, m, via_run, want) in [
        ("first summary of an unshown mode", unshown, false, 1),
        ("second summary of an unshown mode", unshown, false, 0),
        ("summary of a mode outside MODES", outside, false, 1),
        ("the same summary again", outside, false, 1),
        ("Harness::run of a shown mode", u, true, 1),
        ("the same run again", u, true, 1),
    ] {
        let before = simulations();
        if via_run {
            hs[0].run(m).expect(what);
        } else {
            hs[0].summary(m).expect(what);
        }
        assert_eq!(simulations() - before, want, "{what}");
    }

    // A step budget that `B` and `C` fit in and `U` does not: each mode is
    // simulated once, failing or not, and a target fails with the error of
    // its first failing mode, on the first rendering and on the second.
    let mut h = harness("mcf");
    let steps: Vec<(&str, u64)> = distinct
        .iter()
        .map(|&l| (l, h.run(mode(l)).expect("unlimited run").instructions))
        .collect();
    let steps_of = |l: &str| steps.iter().find(|&&(m, _)| m == l).expect("shown mode").1;
    let limit = steps_of("B").max(steps_of("C"));
    let fails = |l: &str| steps_of(l) > limit;
    assert!(fails("U"), "U must exceed the limit {limit}: {steps:?}");
    h.base.max_steps = limit;
    let hs = vec![h];
    let mut seen = BTreeSet::new();
    let mut failed = BTreeSet::new();
    for round in 0..2 {
        for (target, labels) in SHARED {
            let new = labels.iter().filter(|l| seen.insert(**l)).count() as u64;
            let (out, sims) = render(target, &hs);
            assert_eq!(
                sims,
                if round == 0 { new } else { 0 },
                "{target}: round {round}"
            );
            match labels.iter().find(|l| fails(l)) {
                None => assert!(out.is_ok(), "{target}: {out:?}"),
                Some(&l) => {
                    failed.insert(target);
                    let err = hs[0].summary(mode(l)).expect_err("failing mode");
                    assert!(
                        matches!(err, ExperimentError::Sim(SimError::StepLimit(n)) if n == limit),
                        "{target}/{l}: {err}"
                    );
                    assert_eq!(out, Err(format!("{err:?}")), "{target}: round {round}");
                }
            }
        }
    }
    assert!(
        !failed.is_empty() && failed.len() < SHARED.len(),
        "some targets must fail and some succeed under the limit {limit}: {failed:?}"
    );
}
