//! `repro bench`: wall-clock measurement of the repro pipeline itself.
//!
//! Times the two phases of the pipeline per workload — *prepare* (compile
//! both profiles, record oracles, run the sequential baseline) and
//! *simulate* (the four headline modes `U`/`C`/`H`/`B`) — then repeats the
//! whole pipeline once serially and once with the parallel fan-out of
//! [`crate::par`] to measure the end-to-end speedup. Each pass is run
//! [`rounds`](run_bench) times and the median-wall-clock round is
//! reported, so a single scheduler hiccup cannot skew the committed
//! numbers. The report serializes to `BENCH_repro.json` (hand-rolled JSON;
//! the workspace builds offline, so no serde), and [`check_report`] turns
//! a committed report into a perf-regression gate (`repro bench --check`).

use std::time::Instant;

use tls_sim::{parse_json, CountingTracer, Json};
use tls_workloads::Workload;

use crate::harness::{ExperimentError, Harness, Mode, Scale};
use crate::par;
use crate::report::json_string;

/// The modes the simulate phase runs (the paper's headline comparison).
const BENCH_MODES: [Mode; 4] = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync, Mode::Hybrid];

/// Interleaved rounds for the overhead comparisons; odd so the median is a
/// real round.
const OVERHEAD_ROUNDS: usize = 7;

/// Per-workload phase timings (measured during the median serial pass).
#[derive(Clone, Debug)]
pub struct WorkloadBench {
    /// Workload name.
    pub name: String,
    /// Prepare phase (compile + profile + oracles + sequential baseline),
    /// milliseconds.
    pub prep_ms: f64,
    /// Simulate phase (modes `U`, `C`, `H`, `B`), milliseconds.
    pub sim_ms: f64,
    /// Dynamic instructions simulated across the four modes.
    pub instructions: u64,
    /// Simulated instructions per wall-clock second during the simulate
    /// phase.
    pub ips: f64,
}

/// The full benchmark report.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Scale the pipeline ran at.
    pub scale: Scale,
    /// Worker threads used by the parallel pass.
    pub jobs: usize,
    /// CPUs available on the host.
    pub host_cores: usize,
    /// Rounds each pass was repeated; the medians below come from them.
    pub rounds: usize,
    /// End-to-end wall time of the serial pass, milliseconds (median
    /// round).
    pub serial_wall_ms: f64,
    /// End-to-end wall time of the parallel pass, milliseconds (median
    /// round).
    pub parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms`.
    pub speedup: f64,
    /// Simulated instructions per second with tracing disabled
    /// (`NullTracer`, the default hot loop) — median of the interleaved
    /// rounds.
    pub null_tracer_ips: f64,
    /// Simulated instructions per second with the cheapest *enabled*
    /// tracer (`CountingTracer`) — median of the interleaved rounds.
    pub counting_tracer_ips: f64,
    /// `(null - counting) / null`, as a percentage: the wall-clock cost of
    /// turning tracing on, positive when the traced run was slower. The
    /// disabled path must not pay for the hooks at all — a guard test
    /// asserts it stays within noise of the enabled path from the fast side.
    pub tracing_overhead_pct: f64,
    /// Simulated instructions per second with counters disabled, from the
    /// counter comparison's own interleaved rounds (median).
    pub counters_null_ips: f64,
    /// Simulated instructions per second with machine counters enabled
    /// (`MachineCounters`) — median of the interleaved rounds.
    pub counters_ips: f64,
    /// `(counters_null - counters) / counters_null`, as a percentage: the
    /// wall-clock cost of turning the counter bank on, positive when the
    /// counted run was slower. The counters-off run is the `NullTracer` hot
    /// loop that `disabled_tracing_pays_nothing` guards.
    pub counters_overhead_pct: f64,
    /// Peak resident-set size of the benchmarking process in kB (0 where
    /// procfs is unavailable). A host-side figure: informational, never
    /// gated by [`check_report`].
    pub peak_rss_kb: u64,
    /// Per-workload phase timings from the median serial pass.
    pub workloads: Vec<WorkloadBench>,
}

impl BenchReport {
    /// Serialize to a JSON object (the `BENCH_repro.json` schema).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"scale\":{},", json_string(&format!("{:?}", self.scale))));
        s.push_str(&format!("\"jobs\":{},", self.jobs));
        s.push_str(&format!("\"host_cores\":{},", self.host_cores));
        s.push_str(&format!("\"rounds\":{},", self.rounds));
        s.push_str(&format!("\"serial_wall_ms\":{:.3},", self.serial_wall_ms));
        s.push_str(&format!("\"parallel_wall_ms\":{:.3},", self.parallel_wall_ms));
        s.push_str(&format!("\"speedup\":{:.3},", self.speedup));
        s.push_str(&format!(
            "\"tracing\":{{\"null_tracer_ips\":{:.0},\"counting_tracer_ips\":{:.0},\
             \"overhead_pct\":{:.3}}},",
            self.null_tracer_ips, self.counting_tracer_ips, self.tracing_overhead_pct
        ));
        s.push_str(&format!(
            "\"counters\":{{\"null_ips\":{:.0},\"counters_ips\":{:.0},\
             \"overhead_pct\":{:.3}}},",
            self.counters_null_ips, self.counters_ips, self.counters_overhead_pct
        ));
        s.push_str(&format!("\"peak_rss_kb\":{},", self.peak_rss_kb));
        s.push_str("\"workloads\":[");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"prep_ms\":{:.3},\"sim_ms\":{:.3},\
                 \"instructions\":{},\"sim_instructions_per_sec\":{:.0}}}",
                json_string(&w.name),
                w.prep_ms,
                w.sim_ms,
                w.instructions,
                w.ips
            ));
        }
        s.push_str("]}");
        s
    }

    /// Divide every throughput figure by `factor` — the `--handicap`
    /// self-test knob behind the CI proof that the `--check` gate actually
    /// trips on a seeded slowdown. Never applied to committed reports.
    pub fn handicap(&mut self, factor: f64) {
        let f = factor.max(1e-9);
        self.null_tracer_ips /= f;
        self.counting_tracer_ips /= f;
        self.counters_null_ips /= f;
        self.counters_ips /= f;
        for w in &mut self.workloads {
            w.ips /= f;
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 for empty).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("ips and wall times are finite"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// One serial pipeline pass with per-workload phase timings.
fn serial_pass(
    workloads: &[Workload],
    scale: Scale,
) -> Result<(f64, Vec<WorkloadBench>), ExperimentError> {
    let pass = Instant::now();
    let mut per = Vec::with_capacity(workloads.len());
    for &w in workloads {
        let t = Instant::now();
        let h = Harness::new(w, scale)?;
        let prep_ms = ms(t);
        let t = Instant::now();
        let mut instructions = 0;
        for mode in BENCH_MODES {
            instructions += h.run(mode)?.instructions;
        }
        let sim_ms = ms(t);
        per.push(WorkloadBench {
            name: w.name.to_string(),
            prep_ms,
            sim_ms,
            instructions,
            ips: instructions as f64 / (sim_ms / 1e3).max(1e-9),
        });
    }
    Ok((ms(pass), per))
}

/// One parallel pipeline pass (prepare fan-out, then mode fan-out).
fn parallel_pass(workloads: &[Workload], scale: Scale) -> Result<f64, ExperimentError> {
    let pass = Instant::now();
    let harnesses = Harness::prepare_all(workloads, scale)?;
    let pairs: Vec<(usize, Mode)> = (0..harnesses.len())
        .flat_map(|i| BENCH_MODES.iter().map(move |&m| (i, m)))
        .collect();
    par::par_map(pairs, |_, (i, mode)| harnesses[i].run(mode))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ms(pass))
}

/// Interleaved throughput comparison of two run flavours on one harness:
/// per round, run `a` then `b` and record each side's instructions/second;
/// return the per-side *medians*. Interleaving keeps host frequency drift
/// from biasing either side; the median rejects scheduling outliers in
/// both directions (a best-of comparison can go negative when one side's
/// best round lands on a quiet scheduler).
fn interleaved_ips(
    h: &Harness,
    rounds: usize,
    a: &dyn Fn(&Harness) -> Result<tls_sim::SimResult, ExperimentError>,
    b: &dyn Fn(&Harness) -> Result<tls_sim::SimResult, ExperimentError>,
) -> Result<(f64, f64), ExperimentError> {
    let mut a_ips = Vec::with_capacity(rounds);
    let mut b_ips = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let r = a(h)?;
        a_ips.push(r.instructions as f64 / t.elapsed().as_secs_f64().max(1e-9));
        let t = Instant::now();
        let r = b(h)?;
        b_ips.push(r.instructions as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    Ok((median(a_ips), median(b_ips)))
}

/// The wall-clock cost of instrumentation as a percentage of the plain
/// run: `(null − instrumented) ÷ null × 100` over throughputs (instr/s),
/// so a positive value means the instrumented run was slower.
fn overhead_pct(null_ips: f64, instrumented_ips: f64) -> f64 {
    (null_ips - instrumented_ips) / null_ips.max(1e-9) * 100.0
}

/// Median-of-[`OVERHEAD_ROUNDS`] interleaved throughput of the
/// tracing-*disabled* hot loop (`NullTracer`, statically compiled out)
/// against the cheapest *enabled* tracer (`CountingTracer`). Returns
/// `(null_ips, counting_ips)`.
///
/// # Errors
/// Propagates simulation failures.
pub fn tracing_overhead(h: &Harness) -> Result<(f64, f64), ExperimentError> {
    interleaved_ips(
        h,
        OVERHEAD_ROUNDS,
        &|h| h.run(Mode::Unsync),
        &|h| {
            let mut counter = CountingTracer::default();
            h.run_traced(Mode::Unsync, &mut counter)
        },
    )
}

/// Median-of-[`OVERHEAD_ROUNDS`] interleaved throughput of the plain run
/// against a counted one, whose `MachineCounters` bank is the tracer and
/// also takes the per-instruction `Fine` facts. Returns `(null_ips,
/// counted_ips)`.
///
/// # Errors
/// Propagates simulation failures.
pub fn counters_overhead(h: &Harness) -> Result<(f64, f64), ExperimentError> {
    interleaved_ips(
        h,
        OVERHEAD_ROUNDS,
        &|h| h.run(Mode::Unsync),
        &|h| h.run_counted(Mode::Unsync),
    )
}

/// Run the benchmark: `rounds` serial passes (median round's phase
/// timings), `rounds` parallel passes with up to `jobs` workers (0 = one
/// per CPU), then the tracing- and counter-overhead comparisons on the
/// first workload.
///
/// # Errors
/// Propagates harness preparation and simulation failures.
pub fn run_bench(
    workloads: &[Workload],
    scale: Scale,
    jobs: usize,
    rounds: usize,
) -> Result<BenchReport, ExperimentError> {
    let rounds = rounds.max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    par::set_jobs(1);
    let mut serial: Vec<(f64, Vec<WorkloadBench>)> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        serial.push(serial_pass(workloads, scale)?);
    }
    // The median round's per-workload numbers are reported with its wall
    // time, so the row set stays internally consistent.
    serial.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("wall times are finite"));
    let (serial_wall_ms, per) = serial.swap_remove(serial.len() / 2);
    par::set_jobs(jobs);
    let mut parallel: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        parallel.push(parallel_pass(workloads, scale)?);
    }
    let parallel_wall_ms = median(parallel);
    let ((null_tracer_ips, counting_tracer_ips), (counters_null_ips, counters_ips)) =
        match workloads.first() {
            Some(&w) => {
                let h = Harness::new(w, scale)?;
                (tracing_overhead(&h)?, counters_overhead(&h)?)
            }
            None => ((0.0, 0.0), (0.0, 0.0)),
        };
    Ok(BenchReport {
        scale,
        jobs: par::jobs_for(usize::MAX),
        host_cores,
        rounds,
        serial_wall_ms,
        parallel_wall_ms,
        speedup: serial_wall_ms / parallel_wall_ms.max(1e-9),
        null_tracer_ips,
        counting_tracer_ips,
        tracing_overhead_pct: overhead_pct(null_tracer_ips, counting_tracer_ips),
        counters_null_ips,
        counters_ips,
        counters_overhead_pct: overhead_pct(counters_null_ips, counters_ips),
        peak_rss_kb: crate::metrics::peak_rss_kb().unwrap_or(0),
        workloads: per,
    })
}

/// The perf-regression gate behind `repro bench --check`: compare a fresh
/// report against a committed baseline (`BENCH_repro.json` bytes) and
/// collect every workload whose simulate-phase throughput fell more than
/// `tolerance_pct` percent below the baseline's. The tracing-disabled hot
/// loop is gated the same way. An empty vector means the gate passes;
/// workloads absent from the baseline are skipped (new workloads must not
/// fail the gate retroactively).
///
/// # Errors
/// A description of why the baseline could not be read as a bench report.
pub fn check_report(
    current: &BenchReport,
    baseline_json: &str,
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    let base = parse_json(baseline_json).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let floor = 1.0 - tolerance_pct / 100.0;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let workloads = base
        .get("workloads")
        .and_then(|w| match w {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        })
        .ok_or_else(|| "baseline has no \"workloads\" array".to_string())?;
    for w in &current.workloads {
        let Some(b) = workloads.iter().find(|b| {
            b.get("name").and_then(Json::as_str) == Some(w.name.as_str())
        }) else {
            continue;
        };
        let Some(base_ips) = b.get("sim_instructions_per_sec").and_then(Json::as_num) else {
            return Err(format!("baseline workload `{}` has no sim_instructions_per_sec", w.name));
        };
        compared += 1;
        if base_ips > 0.0 && w.ips < base_ips * floor {
            regressions.push(format!(
                "{}: {:.0} instr/s vs baseline {:.0} ({:+.1}%, tolerance -{tolerance_pct}%)",
                w.name,
                w.ips,
                base_ips,
                (w.ips - base_ips) / base_ips * 100.0
            ));
        }
    }
    if let Some(base_null) = base
        .get("tracing")
        .and_then(|t| t.get("null_tracer_ips"))
        .and_then(Json::as_num)
    {
        compared += 1;
        if base_null > 0.0 && current.null_tracer_ips < base_null * floor {
            regressions.push(format!(
                "null-tracer hot loop: {:.0} instr/s vs baseline {:.0} ({:+.1}%, \
                 tolerance -{tolerance_pct}%)",
                current.null_tracer_ips,
                base_null,
                (current.null_tracer_ips - base_null) / base_null * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err("baseline shares no workloads with this run; nothing was gated".into());
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_serializes() {
        let w = tls_workloads::by_name("ijpeg").expect("workload exists");
        let r = run_bench(&[w], Scale::Quick, 2, 1).expect("bench runs");
        assert_eq!(r.workloads.len(), 1);
        assert!(r.workloads[0].instructions > 0);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"name\":\"ijpeg\""), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"tracing\""), "{json}");
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"rounds\":1"), "{json}");
        assert!(r.null_tracer_ips > 0.0 && r.counting_tracer_ips > 0.0 && r.counters_ips > 0.0);
        par::set_jobs(0);
    }

    #[test]
    fn slower_instrumented_side_is_positive_overhead() {
        assert_eq!(overhead_pct(80.0, 60.0), 25.0);
        assert_eq!(overhead_pct(80.0, 100.0), -25.0);
        assert_eq!(overhead_pct(80.0, 80.0), 0.0);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![5.0]), 5.0);
        assert_eq!(median(vec![1.0, 100.0, 3.0]), 3.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 1000.0]), 2.5);
    }

    #[test]
    fn check_report_gates_on_the_baseline() {
        let w = tls_workloads::by_name("ijpeg").expect("workload exists");
        let mut r = run_bench(&[w], Scale::Quick, 1, 1).expect("bench runs");
        let baseline = r.to_json();
        // Same report vs its own baseline: within tolerance.
        assert_eq!(check_report(&r, &baseline, 25.0).expect("gates"), Vec::<String>::new());
        // A seeded 2x slowdown must trip a 25% gate.
        r.handicap(2.0);
        let regressions = check_report(&r, &baseline, 25.0).expect("gates");
        assert!(!regressions.is_empty(), "handicapped run must regress");
        assert!(regressions.iter().any(|m| m.contains("ijpeg")), "{regressions:?}");
        // A baseline with unmatched workload names still gates the
        // null-tracer figure (shared by every report)...
        let foreign = baseline.replace("ijpeg", "other");
        let regressions = check_report(&r, &foreign, 25.0).expect("gates");
        assert!(regressions.iter().all(|m| m.contains("null-tracer")), "{regressions:?}");
        // ...but a baseline sharing *no* figure at all is an error, not a
        // silent pass.
        let alien = foreign.replace("null_tracer_ips", "nt_ips");
        assert!(check_report(&r, &alien, 25.0).is_err());
        assert!(check_report(&r, "not json", 25.0).is_err());
        assert!(check_report(&r, "{}", 25.0).is_err());
    }

    /// The regression guard for the zero-cost-when-disabled claim: the
    /// default hot loop (`NullTracer`, hooks compiled out) must not run
    /// slower than the tracing-enabled loop beyond measurement noise. If a
    /// change makes the disabled path pay for event construction, the two
    /// converge and this fails. Asserted on the *median* of the
    /// interleaved rounds, which unlike best-of cannot be rescued (or
    /// sunk) by one lucky round.
    #[test]
    fn disabled_tracing_pays_nothing() {
        let w = tls_workloads::by_name("ijpeg").expect("workload exists");
        let h = Harness::new(w, Scale::Quick).expect("harness builds");
        let (null_ips, counting_ips) = tracing_overhead(&h).expect("overhead measured");
        assert!(null_ips > 0.0 && counting_ips > 0.0);
        // The throughput claim is only meaningful with optimizations on:
        // debug builds inline nothing, so the relative cost of the two
        // monomorphizations is noise and the comparison flakes.
        if cfg!(debug_assertions) {
            return;
        }
        assert!(
            null_ips >= counting_ips * 0.98,
            "tracing-disabled throughput regressed: null {null_ips:.0} instr/s vs \
             enabled {counting_ips:.0} instr/s (medians)"
        );
    }
}
