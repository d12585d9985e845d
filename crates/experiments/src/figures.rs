//! One driver per table/figure of the paper's evaluation.
//!
//! Every function takes prepared [`Harness`]es (compile once, reuse across
//! figures) and renders a [`Table`] whose rows correspond to the paper's
//! bars or table rows. Region bars are normalized execution time
//! (sequential = 100) split into busy/fail/sync/other, exactly like the
//! paper's stacked bars.
//!
//! The drivers over prepared harnesses read [`Harness::summary`], so a mode
//! that several figures show (`U` is in five, `C` in six) is simulated once
//! per harness however many of them render. [`sweep`] and [`adaptive`]
//! build their own harnesses and run them directly.

use tls_profile::DIST_BUCKETS;

use crate::harness::{ExperimentError, Harness, Mode};
use crate::par;
use crate::report::{f2, pct, Table};

fn bar_cells(h: &Harness, mode: Mode) -> Result<Vec<String>, ExperimentError> {
    let b = h.summary(mode)?.bar;
    Ok(vec![
        mode.label(),
        f2(b.norm_time),
        f2(b.busy),
        f2(b.fail),
        f2(b.sync),
        f2(b.other),
        b.violations.to_string(),
    ])
}

/// Fan one row-producing closure out over every (harness, mode) pair; rows
/// come back in (harness, mode) order, so the rendered table is identical
/// to a serial run. The first error in that order is reported, also
/// matching serial behavior.
fn run_pairs<R: Send>(
    harnesses: &[Harness],
    modes: &[Mode],
    f: impl Fn(&Harness, Mode) -> Result<R, ExperimentError> + Sync,
) -> Result<Vec<R>, ExperimentError> {
    let pairs: Vec<(usize, Mode)> = (0..harnesses.len())
        .flat_map(|i| modes.iter().map(move |&m| (i, m)))
        .collect();
    par::par_map(pairs, |_, (i, mode)| f(&harnesses[i], mode))
        .into_iter()
        .collect()
}

fn bars_table(
    title: &str,
    harnesses: &[Harness],
    modes: &[Mode],
) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        title,
        &[
            "bench",
            "bar",
            "time",
            "busy",
            "fail",
            "sync",
            "other",
            "violations",
        ],
    );
    let rows = run_pairs(harnesses, modes, bar_cells)?;
    for (h, chunk) in harnesses.iter().zip(rows.chunks(modes.len())) {
        for (k, body) in chunk.iter().enumerate() {
            let mut cells = vec![if k == 0 {
                h.name.clone()
            } else {
                String::new()
            }];
            cells.extend(body.iter().cloned());
            t.row(cells);
        }
    }
    Ok(t)
}

/// Figure 2: potential impact of eliminating failed speculation — the `U`
/// baseline versus `O` (perfect forwarding of every memory value).
pub fn fig2(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    bars_table(
        "Figure 2: region time, U (TLS baseline) vs O (perfect memory value prediction)",
        harnesses,
        &FIG2_MODES,
    )
}

const FIG2_MODES: [Mode; 2] = [Mode::Unsync, Mode::OracleAll];
const FIG6_MODES: [Mode; 5] = [
    Mode::Unsync,
    Mode::Threshold(25),
    Mode::Threshold(15),
    Mode::Threshold(5),
    Mode::OracleAll,
];
const FIG8_MODES: [Mode; 3] = [Mode::Unsync, Mode::CompilerTrain, Mode::CompilerRef];
const FIG9_MODES: [Mode; 3] = [Mode::CompilerRef, Mode::PerfectSync, Mode::LateSync];
const FIG10_MODES: [Mode; 5] = [
    Mode::Unsync,
    Mode::HwPredict,
    Mode::HwSync,
    Mode::CompilerRef,
    Mode::Hybrid,
];
const FIG11_MODES: [Mode; 4] = [
    Mode::Marking {
        stall_compiler: false,
        stall_hardware: false,
    },
    Mode::Marking {
        stall_compiler: true,
        stall_hardware: false,
    },
    Mode::Marking {
        stall_compiler: false,
        stall_hardware: true,
    },
    Mode::Marking {
        stall_compiler: true,
        stall_hardware: true,
    },
];
const FIG12_MODES: [Mode; 4] = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync, Mode::Hybrid];
const TABLE2_MODES: [Mode; 2] = [Mode::Hybrid, Mode::CompilerRef];
const REPORT_MODES: [Mode; 1] = [Mode::CompilerRef];

/// Every mode some figure or table runs, in target order (with repeats).
/// The canonical-list agreement test checks each against [`crate::MODES`].
pub fn modes_used() -> Vec<Mode> {
    let mut out = Vec::new();
    out.extend_from_slice(&FIG2_MODES);
    out.extend_from_slice(&FIG6_MODES);
    out.extend_from_slice(&FIG8_MODES);
    out.extend_from_slice(&FIG9_MODES);
    out.extend_from_slice(&FIG10_MODES);
    out.extend_from_slice(&FIG11_MODES);
    out.extend_from_slice(&FIG12_MODES);
    out.extend_from_slice(&TABLE2_MODES);
    out.extend_from_slice(&SWEEP_MODES);
    out.extend_from_slice(&ADAPT_STATIC_MODES);
    out.extend_from_slice(&ADAPT_SHIFT_MODES);
    out.extend_from_slice(&REPORT_MODES);
    out
}

/// Figure 6: perfect prediction restricted to loads whose dependence
/// frequency exceeds 25 %, 15 % and 5 % — the threshold study that selects
/// the paper's 5 % synchronization threshold.
pub fn fig6(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    bars_table(
        "Figure 6: perfect prediction of loads above a dependence-frequency threshold",
        harnesses,
        &FIG6_MODES,
    )
}

/// Figure 7: distribution of dependence distances for the frequent
/// (≥ 5 % of epochs) inter-epoch dependences — forwarding to the successor
/// epoch only pays off because distance 1 dominates.
pub fn fig7(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut headers = vec!["bench".to_string()];
    for d in 1..DIST_BUCKETS {
        headers.push(format!("d={d}"));
    }
    headers.push(format!("d>={DIST_BUCKETS}"));
    let mut t = Table::new(
        "Figure 7: dependence distance distribution of frequent dependences (% of occurrences)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for h in harnesses {
        let mut hist = [0u64; DIST_BUCKETS];
        for summary in &h.set_c.regions {
            let Some(lp) = h.set_c.dep_profile.loops.get(&summary.loop_key) else {
                continue;
            };
            for e in lp.edges.values() {
                if lp.total_iters > 0 && e.epochs as f64 / lp.total_iters as f64 >= 0.05 {
                    for (i, n) in e.dist_hist.iter().enumerate() {
                        hist[i] += n;
                    }
                }
            }
        }
        let total: u64 = hist.iter().sum();
        let mut row = vec![h.name.clone()];
        for n in hist {
            row.push(if total == 0 {
                "-".into()
            } else {
                pct(n as f64 / total as f64)
            });
        }
        t.row(row);
    }
    Ok(t)
}

/// Figure 8: compiler-inserted synchronization — `U` vs `T` (train profile)
/// vs `C` (ref profile).
pub fn fig8(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    bars_table(
        "Figure 8: compiler-inserted memory synchronization (U / T / C)",
        harnesses,
        &FIG8_MODES,
    )
}

/// Figure 9: the cost of synchronization — `C` vs `E` (perfect value, no
/// stall) vs `L` (stall until the previous epoch completes).
pub fn fig9(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    bars_table(
        "Figure 9: synchronization cost (C / E perfect / L stall-till-complete)",
        harnesses,
        &FIG9_MODES,
    )
}

/// Figure 10: hardware techniques vs the compiler — `U`, `P` (prediction),
/// `H` (hardware sync), `C` (compiler sync), `B` (hybrid).
pub fn fig10(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    bars_table(
        "Figure 10: hardware vs compiler synchronization (U / P / H / C / B)",
        harnesses,
        &FIG10_MODES,
    )
}

/// Figure 11: violations classified by which scheme would have synchronized
/// the violating load, under the four stall modes.
pub fn fig11(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    use tls_sim::ViolationClass as VC;
    let mut t = Table::new(
        "Figure 11: violating loads by would-be-synchronizing scheme",
        &[
            "bench", "mode", "neither", "C-only", "H-only", "both", "total",
        ],
    );
    let modes = FIG11_MODES;
    let rows = run_pairs(harnesses, &modes, |h, mode| {
        let cls = h.summary(mode)?.violation_classes;
        let get = |c: VC| cls.get(&c).copied().unwrap_or(0);
        let total: u64 = cls.values().sum();
        Ok(vec![
            mode.label(),
            get(VC::Neither).to_string(),
            get(VC::CompilerOnly).to_string(),
            get(VC::HardwareOnly).to_string(),
            get(VC::Both).to_string(),
            total.to_string(),
        ])
    })?;
    for (h, chunk) in harnesses.iter().zip(rows.chunks(modes.len())) {
        for (k, body) in chunk.iter().enumerate() {
            let mut cells = vec![if k == 0 {
                h.name.clone()
            } else {
                String::new()
            }];
            cells.extend(body.iter().cloned());
            t.row(cells);
        }
    }
    Ok(t)
}

/// Figure 12: whole-program execution time under `U`, `C`, `H`, `B`
/// (sequential = 1.0; larger speedup is better).
pub fn fig12(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Figure 12: program speedup over sequential (U / C / H / B)",
        &["bench", "coverage", "U", "C", "H", "B"],
    );
    let modes = FIG12_MODES;
    let stats = run_pairs(harnesses, &modes, |h, mode| Ok(h.summary(mode)?.stats))?;
    for (h, chunk) in harnesses.iter().zip(stats.chunks(modes.len())) {
        let mut cells = vec![h.name.clone(), pct(chunk[0].coverage)];
        cells.extend(chunk.iter().map(|s| f2(s.program_speedup)));
        t.row(cells);
    }
    Ok(t)
}

/// Table 2: region coverage and region/sequential/program speedups for the
/// compiler-only (`C`) and hybrid (`B`) configurations.
pub fn table2(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Table 2: coverage and speedups (relative to sequential execution)",
        &[
            "bench",
            "coverage",
            "region B",
            "region C",
            "seq B",
            "seq C",
            "program B",
            "program C",
        ],
    );
    let modes = TABLE2_MODES;
    let stats = run_pairs(harnesses, &modes, |h, mode| Ok(h.summary(mode)?.stats))?;
    for (h, chunk) in harnesses.iter().zip(stats.chunks(modes.len())) {
        let (sb, sc) = (&chunk[0], &chunk[1]);
        t.row(vec![
            h.name.clone(),
            pct(sb.coverage),
            f2(sb.region_speedup),
            f2(sc.region_speedup),
            f2(sb.sequential_speedup),
            f2(sc.sequential_speedup),
            f2(sb.program_speedup),
            f2(sc.program_speedup),
        ]);
    }
    Ok(t)
}

/// Compiler statistics table (code growth, clones, groups — the paper's
/// in-text claims: < 1 % growth from cloning, ≤ 10-entry signal buffer).
pub fn compiler_report(harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Compiler statistics",
        &[
            "bench", "regions", "unroll", "chans", "privat", "groups", "syncld", "sigst", "clones",
            "growth", "sigbuf",
        ],
    );
    let sigbufs = run_pairs(harnesses, &REPORT_MODES, |h, mode| {
        Ok(h.summary(mode)?.max_signal_buffer)
    })?;
    for (h, sigbuf) in harnesses.iter().zip(&sigbufs) {
        let rep = &h.set_c.report;
        let unrolls: Vec<String> = h
            .set_c
            .regions
            .iter()
            .map(|r| r.unroll.to_string())
            .collect();
        t.row(vec![
            h.name.clone(),
            h.set_c.regions.len().to_string(),
            unrolls.join("/"),
            rep.scalar_channels.to_string(),
            rep.privatized.to_string(),
            rep.groups.to_string(),
            rep.sync_loads.to_string(),
            rep.signalled_stores.to_string(),
            rep.clones.to_string(),
            f2(rep.code_growth()),
            sigbuf.to_string(),
        ]);
    }
    Ok(t)
}

/// Benches, iteration multipliers and modes of the scaling sweep. Small on
/// purpose: the sweep is a golden-pinned smoke of the scale machinery, not
/// a benchmark campaign (that is `repro run --scale`).
const SWEEP_BENCHES: [&str; 3] = ["go", "parser", "mcf"];
const SWEEP_ITERS: [u32; 3] = [1, 2, 4];
const SWEEP_MODES: [Mode; 3] = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync];

/// Scaling sweep: three benches at 1×/2×/4× iterations under U/C/H, with
/// normalized region time, violations per thousand epochs, and the
/// streaming epoch-latency sketch (p50/p99).
///
/// Always runs on the *quick* (train) inputs regardless of the CLI scale —
/// the prepared harnesses are ignored — so the rendered table is identical
/// under any `repro sweep` invocation and can be pinned as a golden
/// snapshot. The interesting property it pins: the violation *rate*
/// (violations per epoch) stays flat as iterations scale, while absolute
/// counts grow.
pub fn sweep(_harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Scaling sweep: quick inputs at 1x/2x/4x iterations (U / C / H)",
        &[
            "bench", "scale", "mode", "time", "viol/kep", "ep-p50", "ep-p99",
        ],
    );
    let combos: Vec<(&str, u32)> = SWEEP_BENCHES
        .iter()
        .flat_map(|&b| SWEEP_ITERS.iter().map(move |&m| (b, m)))
        .collect();
    let rows = par::par_map(combos, |_, (bench, mult)| {
        let w = tls_workloads::by_name(bench).expect("sweep bench exists");
        let ws = tls_workloads::Scale::new(mult, 1).expect("sweep multipliers are nonzero");
        let scale = if ws.is_base() {
            crate::harness::Scale::Quick
        } else {
            crate::harness::Scale::ScaledQuick(ws)
        };
        let h = Harness::new(w, scale)?;
        let mut out: Vec<Vec<String>> = Vec::new();
        for (k, &mode) in SWEEP_MODES.iter().enumerate() {
            let r = h.run(mode)?;
            let b = h.bar(mode, &r);
            let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
            let ec = r.epoch_cycle_totals();
            out.push(vec![
                if k == 0 {
                    format!("{mult}x1")
                } else {
                    String::new()
                },
                mode.label(),
                f2(b.norm_time),
                if epochs == 0 {
                    "-".into()
                } else {
                    f2(r.total_violations as f64 * 1000.0 / epochs as f64)
                },
                ec.quantile(0.5).to_string(),
                ec.quantile(0.99).to_string(),
            ]);
        }
        Ok(out)
    })
    .into_iter()
    .collect::<Result<Vec<_>, ExperimentError>>()?;
    for ((bench, _), chunk) in SWEEP_BENCHES
        .iter()
        .flat_map(|&b| SWEEP_ITERS.iter().map(move |&m| (b, m)))
        .zip(&rows)
    {
        for (k, body) in chunk.iter().enumerate() {
            let mut cells = vec![if k == 0 && body[0] == "1x1" {
                bench.to_string()
            } else {
                String::new()
            }];
            cells.extend(body.iter().cloned());
            t.row(cells);
        }
    }
    Ok(t)
}

/// Benches, static comparison modes, and phase-shift seeds of the
/// `adaptive` target. The static half runs real workloads; the shift half
/// runs generated `phase_shift`-family programs (the inputs whose
/// dependence regime flips mid-run — the case static profiling cannot
/// serve), comparing the train-profiled compiler (`T`) against the
/// adaptive controller layered on the same module (`A-T`) and on the
/// unsynchronized one (`A-U`).
const ADAPT_BENCHES: [&str; 2] = ["parser", "mcf"];
const ADAPT_STATIC_MODES: [Mode; 4] = [
    Mode::Unsync,
    Mode::CompilerRef,
    Mode::HwSync,
    Mode::Adaptive,
];
// Seeds whose data salts draw the adversarial pairing: the measurement
// input is boundary-early (phase B dominates) while the train input is
// boundary-late (phase B invisible to the profile), so `T` violates on
// most phase-B epochs and the controller visibly recovers.
const ADAPT_SHIFT_SEEDS: [u64; 3] = [4, 7, 16];
const ADAPT_SHIFT_MODES: [Mode; 3] = [
    Mode::CompilerTrain,
    Mode::AdaptiveTrain,
    Mode::AdaptiveUnsync,
];

/// Adaptive synchronization: the static policies vs the online
/// per-dependence controller, on stationary workloads and on
/// phase-shifting generated programs.
///
/// Like [`sweep`], always runs quick-scale self-built inputs regardless of
/// the prepared harnesses, so the table is deterministic and golden-pinned.
/// The properties it pins: on stationary inputs the controller stays close
/// to the best static policy (its transitions settle), and on the
/// phase-shift family it recovers what the train profile leaves behind,
/// with the win visible in the transition/re-profile counters.
pub fn adaptive(_harnesses: &[Harness]) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Adaptive synchronization: static policies vs the online controller",
        &[
            "bench",
            "mode",
            "time",
            "violations",
            "transitions",
            "reprofiles",
        ],
    );
    let counted = |h: &Harness, mode: Mode, label: String, first: bool| {
        let r = h.run_counted(mode)?;
        let b = h.bar(mode, &r);
        let c = r.counters.as_deref().expect("counted run has a bank");
        Ok::<Vec<String>, ExperimentError>(vec![
            if first { label } else { String::new() },
            mode.label(),
            f2(b.norm_time),
            r.total_violations.to_string(),
            c.total_policy_transitions().to_string(),
            c.reprofiles.to_string(),
        ])
    };
    let stationary = par::par_map(ADAPT_BENCHES.to_vec(), |_, bench| {
        let w = tls_workloads::by_name(bench).expect("adaptive bench exists");
        let h = Harness::new(w, crate::harness::Scale::Quick)?;
        let mut out = Vec::new();
        for (k, &mode) in ADAPT_STATIC_MODES.iter().enumerate() {
            out.push(counted(&h, mode, bench.to_string(), k == 0)?);
        }
        Ok(out)
    })
    .into_iter()
    .collect::<Result<Vec<_>, ExperimentError>>()?;
    let shifted = par::par_map(ADAPT_SHIFT_SEEDS.to_vec(), |_, seed| {
        let cfg = tls_ir::GenConfig::for_family(tls_ir::GenFamily::PhaseShift);
        let measure = tls_ir::generate(seed, &cfg, 0);
        let train = tls_ir::generate(seed, &cfg, 1);
        let opts = crate::fuzz::FuzzConfig::default().compile_options();
        let h =
            Harness::from_modules(format!("phase_shift/{seed}"), &measure, Some(&train), &opts)?;
        let mut out = Vec::new();
        for (k, &mode) in ADAPT_SHIFT_MODES.iter().enumerate() {
            out.push(counted(&h, mode, h.name.clone(), k == 0)?);
        }
        Ok(out)
    })
    .into_iter()
    .collect::<Result<Vec<_>, ExperimentError>>()?;
    for row in stationary.into_iter().chain(shifted).flatten() {
        t.row(row);
    }
    Ok(t)
}

/// Every figure/table target, in presentation order — the `repro` driver's
/// CLI names and the golden-snapshot corpus both index this list.
pub const TARGETS: [&str; 12] = [
    "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table2", "sweep",
    "adaptive", "report",
];

/// Render the target with the given CLI name, or `None` if unknown.
///
/// # Errors
/// Whatever the target's driver reports.
pub fn by_name(target: &str, harnesses: &[Harness]) -> Option<Result<Table, ExperimentError>> {
    Some(match target {
        "fig2" => fig2(harnesses),
        "fig6" => fig6(harnesses),
        "fig7" => fig7(harnesses),
        "fig8" => fig8(harnesses),
        "fig9" => fig9(harnesses),
        "fig10" => fig10(harnesses),
        "fig11" => fig11(harnesses),
        "fig12" => fig12(harnesses),
        "table2" => table2(harnesses),
        "sweep" => sweep(harnesses),
        "adaptive" => adaptive(harnesses),
        "report" => compiler_report(harnesses),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    fn quick(name: &str) -> Harness {
        let w = tls_workloads::by_name(name).expect("workload exists");
        Harness::new(w, Scale::Quick).expect("harness builds")
    }

    #[test]
    fn every_figure_mode_is_in_the_canonical_list() {
        for m in modes_used() {
            assert!(
                crate::MODES.contains(&m),
                "figure mode {m:?} is missing from the canonical MODES list"
            );
        }
    }

    #[test]
    fn parser_compiler_sync_beats_baseline() {
        let h = quick("parser");
        let u = h.run(Mode::Unsync).expect("U runs");
        let c = h.run(Mode::CompilerRef).expect("C runs");
        let bu = h.bar(Mode::Unsync, &u);
        let bc = h.bar(Mode::CompilerRef, &c);
        assert!(
            bc.fail < bu.fail * 0.5,
            "compiler sync must cut fail slots: C {:.1} vs U {:.1}",
            bc.fail,
            bu.fail
        );
        assert!(
            bc.norm_time < bu.norm_time,
            "parser: C {:.1} should beat U {:.1}",
            bc.norm_time,
            bu.norm_time
        );
        assert!(bc.norm_time < 100.0, "parser under C must beat sequential");
    }

    #[test]
    fn oracle_bounds_every_other_mode() {
        let h = quick("go");
        let o = h.run(Mode::OracleAll).expect("O runs");
        let u = h.run(Mode::Unsync).expect("U runs");
        // O is an upper bound up to second-order timing noise (cache and
        // branch-predictor state differ slightly between the runs).
        assert!(
            o.region_cycles() as f64 <= u.region_cycles() as f64 * 1.05,
            "O {} should not exceed U {} by more than noise",
            o.region_cycles(),
            u.region_cycles()
        );
        assert_eq!(o.total_violations, 0);
    }

    #[test]
    fn threshold_modes_are_monotonic() {
        let h = quick("bzip2_comp");
        let t25 = h.run(Mode::Threshold(25)).expect("runs");
        let t5 = h.run(Mode::Threshold(5)).expect("runs");
        let o = h.run(Mode::OracleAll).expect("runs");
        // More perfectly-predicted loads → no more violations.
        assert!(t5.total_violations <= t25.total_violations);
        assert!(o.total_violations <= t5.total_violations);
    }

    #[test]
    fn m88ksim_prefers_hardware_sync() {
        let h = quick("m88ksim");
        let c = h.run(Mode::CompilerRef).expect("C runs");
        let hw = h.run(Mode::HwSync).expect("H runs");
        assert!(
            hw.total_violations < c.total_violations,
            "hardware must remove false-sharing violations: H {} vs C {}",
            hw.total_violations,
            c.total_violations
        );
        assert!(
            hw.region_cycles() < c.region_cycles(),
            "m88ksim: H {} should beat C {}",
            hw.region_cycles(),
            c.region_cycles()
        );
    }

    #[test]
    fn fig11_classifies_marked_loads() {
        let h = quick("parser");
        let r = h
            .run(Mode::Marking {
                stall_compiler: false,
                stall_hardware: false,
            })
            .expect("marking run");
        let cls = r.violation_class_totals();
        let compiler_covered: u64 = cls
            .iter()
            .filter(|(k, _)| {
                matches!(
                    k,
                    tls_sim::ViolationClass::CompilerOnly | tls_sim::ViolationClass::Both
                )
            })
            .map(|(_, v)| *v)
            .sum();
        assert!(
            compiler_covered > 0,
            "parser's violating loads are compiler-marked: {cls:?}"
        );
    }

    #[test]
    fn tables_render_for_a_small_set() {
        let hs = vec![quick("ijpeg")];
        for table in [
            fig2(&hs).expect("fig2"),
            fig7(&hs).expect("fig7"),
            fig12(&hs).expect("fig12"),
            table2(&hs).expect("table2"),
            compiler_report(&hs).expect("report"),
        ] {
            let s = table.to_string();
            assert!(s.contains("ijpeg"), "{s}");
        }
    }
}
