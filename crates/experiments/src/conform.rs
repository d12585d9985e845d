//! Explicit conformance checking: record a run's event stream and verify it
//! against the timing-free protocol model in [`tls_sim::check_conformance`].
//!
//! Two drivers back the `repro conform` subcommand:
//!
//! * [`conform_bench`] — one workload, one mode or the whole speculative
//!   matrix ([`crate::spec_modes`]);
//! * [`conform_fuzz`] — generated programs (the differential fuzzer's
//!   [`tls_ir::generate()`]), every speculative mode per seed, fanned out
//!   over the [`crate::par`] pool.
//!
//! Debug builds additionally run the same check inside every
//! [`Harness::run`], so `cargo test` exercises conformance implicitly;
//! these drivers are the release-build (CI smoke and nightly) entry points
//! and report what was exercised via [`ConformanceStats`].

use tls_sim::{ConformanceStats, RecordingTracer};

use crate::fuzz::FuzzConfig;
use crate::{par, spec_modes, ExperimentError, Harness, Mode, Scale};

/// Outcome of a conformance campaign: how many (program, mode) runs were
/// checked and the merged non-vacuity counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConformReport {
    /// (program, mode) pairs checked.
    pub runs: u64,
    /// Merged model counters across all runs.
    pub stats: ConformanceStats,
}

impl ConformReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!("{} run(s) conform: {}", self.runs, self.stats.summary())
    }
}

/// Record `mode` on a prepared harness and check the stream against the
/// model.
///
/// # Errors
/// Simulation failures, architectural divergence, or
/// [`ExperimentError::Conformance`] on the first protocol divergence.
pub fn conform_run(h: &Harness, mode: Mode) -> Result<ConformanceStats, ExperimentError> {
    let mut rec = RecordingTracer::default();
    h.run_traced(mode, &mut rec)?;
    h.check_conformance(mode, &rec.events)
}

/// Check every `modes` entry on a prepared harness, merging the counters.
///
/// # Errors
/// The first failing mode's error, as [`conform_run`].
pub fn conform_harness(h: &Harness, modes: &[Mode]) -> Result<ConformReport, ExperimentError> {
    let mut report = ConformReport::default();
    for &mode in modes {
        report.stats.merge(&conform_run(h, mode)?);
        report.runs += 1;
    }
    Ok(report)
}

/// `repro conform <bench>`: compile the named workload and conformance-check
/// one mode (or, with `None`, the whole speculative matrix).
///
/// # Errors
/// Unknown workload/mode, preparation failures, and the first divergence.
pub fn conform_bench(
    bench: &str,
    mode_label: Option<&str>,
    scale: Scale,
) -> Result<ConformReport, String> {
    let workload =
        tls_workloads::by_name(bench).ok_or_else(|| format!("unknown workload `{bench}`"))?;
    let modes: Vec<Mode> = match mode_label {
        None => spec_modes().to_vec(),
        Some(l) => {
            let mode = Mode::from_label(l).ok_or_else(|| format!("unknown mode `{l}`"))?;
            if mode == Mode::Seq {
                return Err("the sequential baseline has no speculative protocol to check".into());
            }
            vec![mode]
        }
    };
    let h = Harness::new(workload, scale).map_err(|e| format!("failed to prepare {bench}: {e}"))?;
    conform_harness(&h, &modes).map_err(|e| e.to_string())
}

/// Outcome of a graceful conformance campaign: the whole seed matrix runs
/// to completion, collecting every per-seed check failure and every worker
/// panic instead of aborting on the first.
#[derive(Clone, Debug, Default)]
pub struct ConformFuzzOutcome {
    /// Merged counters of the seeds that conformed.
    pub report: ConformReport,
    /// Per-seed check failures (divergence or pipeline error), seed order.
    pub failures: Vec<String>,
    /// Workers that panicked; the rest of the matrix still completed.
    pub errors: Vec<par::RunError>,
}

impl ConformFuzzOutcome {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}; {} failure(s), {} worker error(s)",
            self.report.summary(),
            self.failures.len(),
            self.errors.len()
        )
    }
}

/// `repro conform --fuzz`: generate `seeds` programs starting at `seed0`
/// (the differential fuzzer's generator and compile options) and
/// conformance-check every speculative mode of each, in parallel.
///
/// Degrades gracefully: a failing or panicking seed is recorded and the
/// remaining seeds still run, so one bad seed cannot mask the rest of the
/// campaign.
pub fn conform_fuzz(seed0: u64, seeds: u64, cfg: &FuzzConfig) -> ConformFuzzOutcome {
    let campaign = std::time::Instant::now();
    let per_seed = par::par_map_isolated(
        (0..seeds)
            .map(|i| seed0.wrapping_add(i))
            .collect::<Vec<u64>>(),
        |_, seed| format!("conform seed {seed}"),
        |_, seed| conform_seed(seed, cfg).map_err(|e| format!("seed {seed}: {e}")),
    );
    let mut out = ConformFuzzOutcome::default();
    for r in per_seed {
        match r {
            Ok(Ok(sub)) => {
                out.report.runs += sub.runs;
                out.report.stats.merge(&sub.stats);
            }
            Ok(Err(failure)) => out.failures.push(failure),
            Err(e) => out.errors.push(e),
        }
    }
    crate::metrics::set_gauge(
        "conform.seeds_per_sec",
        seeds as f64 / campaign.elapsed().as_secs_f64().max(1e-9),
    );
    out
}

/// Conformance-check one generated seed across the speculative matrix.
///
/// # Errors
/// Pipeline failures on the generated program, or the first divergence.
pub fn conform_seed(seed: u64, cfg: &FuzzConfig) -> Result<ConformReport, String> {
    let measure = tls_ir::generate(seed, &cfg.gen, 0);
    let train = tls_ir::generate(seed, &cfg.gen, 1);
    let mut h = Harness::from_modules("fuzz", &measure, Some(&train), &cfg.compile_options())
        .map_err(|e| format!("prepare: {e}"))?;
    h.base.max_steps = cfg.max_sim_steps;
    conform_harness(&h, spec_modes()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_workload_conforms_across_the_speculative_matrix() {
        let w = tls_workloads::by_name("parser").expect("workload exists");
        let h = Harness::new(w, Scale::Quick).expect("prepares");
        let report = conform_harness(&h, spec_modes()).expect("conforms");
        assert_eq!(report.runs, spec_modes().len() as u64);
        assert!(report.stats.commits > 0);
    }

    #[test]
    fn fuzz_seeds_conform() {
        let cfg = FuzzConfig::default();
        let mut report = ConformReport::default();
        for seed in 1..=3 {
            let sub = conform_seed(seed, &cfg).expect("seed conforms");
            report.runs += sub.runs;
            report.stats.merge(&sub.stats);
        }
        assert!(report.runs > 0);
        assert!(report.stats.instances > 0, "{}", report.summary());
    }

    #[test]
    fn fuzz_seed_range_wraps_past_u64_max() {
        let cfg = FuzzConfig::default();
        let out = conform_fuzz(u64::MAX, 2, &cfg);
        assert!(
            out.failures.is_empty() && out.errors.is_empty(),
            "{}",
            out.summary()
        );
        let mut expected = ConformReport::default();
        for seed in [u64::MAX, 0] {
            let sub = conform_seed(seed, &cfg).expect("seed conforms");
            expected.runs += sub.runs;
            expected.stats.merge(&sub.stats);
        }
        assert_eq!(out.report.runs, expected.runs);
        assert_eq!(out.report.stats, expected.stats);
    }
}
