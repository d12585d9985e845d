//! Command-line driver for the reproduction.
//!
//! ```text
//! repro <target> [--quick] [--scale S] [--workloads a,b,c] [--jobs N] [--out path]
//! repro run <bench> [--mode M|all] [--quick] [--scale S] [--out path]
//! repro trace <bench> [--mode M] [--quick] [--scale S] [--perfetto path]
//!             [--attrib path] [--width N]
//! repro trace-check <perfetto.json>
//! repro fuzz [--seed S] [--iters N] [--jobs N] [--family F] [--break-forwarding]
//!            [--replay path] [--artifacts dir] [--panic-seed S]
//! repro conform <bench> [--mode M] [--quick] [--scale S]
//! repro conform --fuzz [--seed S] [--seeds N] [--jobs N]
//! repro inject <bench> [--mode M] [--faults F] [--seed S] [--campaign K]
//!              [--rate R] [--budget B] [--quick] [--scale S] [--jobs N]
//!              [--out path] [--panic-plan K]
//! repro metrics <bench> [--mode M] [--quick] [--scale S] [--out path]
//!               [--prom path]
//! repro campaign <fuzz|conform|inject> [--seed S] [--iters N] [--shard N]
//!             [--workers W] [--family F] [--break-forwarding] [--bench B]
//!             [--mode M] [--quick] [--scale S] [--faults F] [--rate R]
//!             [--budget B] [--artifacts dir] [--resume] [--out path]
//!             [--max-attempts N] [--deadline SECS]
//!             [--heartbeat-timeout SECS] [--backoff-ms N]
//!             [--backoff-cap-ms N] [--worker-failures N] [--worker-exe path]
//!             [--crash-shard K] [--crash-every-attempt]
//!             [--die-after-checkpoints N]
//! repro worker
//!
//! targets: fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table2 sweep adaptive
//!          report all list run trace trace-check fuzz conform inject
//!          metrics campaign worker
//! global flags: --verbose --quiet --metrics path
//! exit codes: 0 success, 2 usage, 3 simulation/internal error,
//!             4 correctness-check failure, 6 campaign finished with
//!             partial coverage
//! ```
//!
//! `--quick` measures the train inputs (fast); the default measures ref.
//! `--scale S` picks the workload scale: `quick`, `ref`, a multiplier pair
//! `NxM` (N× iterations, M× memory footprint on the ref inputs; `N` alone
//! means `Nx1`), or `quick:NxM` to scale the train inputs instead.
//! Scaling multiplies loop trip counts and data-structure sizes but leaves
//! the instruction stream untouched, so profiles transfer across scales.
//! `--jobs N` caps the worker threads of the parallel fan-out (default: one
//! per CPU; `--jobs 1` forces the serial pipeline). `--out path` writes the
//! results as JSON in addition to the text tables on stdout: an array of
//! table objects for figure targets, the degradation report for `inject`.
//!
//! `--verbose` adds detail (per-epoch and wait tables under `trace`);
//! `--quiet` suppresses progress chatter and the per-target resource
//! lines. By default every target reports one line of wall time and peak
//! RSS (from `/proc/self/status`, so it reflects the process high-water
//! mark) when it finishes; the timings come from the hierarchical span
//! registry in `tls_experiments::metrics`, which also underlies the
//! global `--metrics path` flag: after any subcommand finishes
//! (successfully or not), the full host-metrics snapshot — phase spans,
//! campaign gauges, counters, peak RSS — is written to `path` as JSON.
//!
//! `metrics` runs one workload under one mode (default `C`) with the
//! machine-counter bank enabled and prints the counters — instructions
//! retired by class, cache hits/misses/evictions, write-buffer high-water
//! marks, signal traffic, violations by cause, prediction hit rate — in
//! deterministic row order. `--out` writes the same rows as JSON and
//! `--prom` as Prometheus text exposition; both exports contain only
//! simulated values, so they are byte-identical across hosts and `--jobs`
//! settings.
//!
//! `trace` runs one workload under one mode (default `U`; see
//! `Mode::from_label` for the letters) with event tracing enabled, prints
//! an ASCII timeline plus dependence-attribution tables, and optionally
//! exports a Chrome-trace/Perfetto JSON timeline (`--perfetto`, open at
//! <https://ui.perfetto.dev>) and an attribution report (`--attrib`). The
//! event stream is first checked against the timing-free protocol model
//! (as `conform` checks it) and the command exits 4 on a divergence. The
//! exported Perfetto JSON is validated before it is written, and the
//! attribution's squash count is checked against the run's violation
//! total. `trace-check` re-validates a previously exported Perfetto file
//! (used by CI).
//!
//! `conform` replays a run's event stream through the timing-free TLS
//! protocol model (`tls_sim::check_conformance`) and reports the first
//! divergence: an unjustified or missed squash, an out-of-order commit, a
//! write-buffer mismatch at commit, or a forwarded value that differs from
//! what the model says the producer sent. The bench form checks one
//! workload under one mode (default: the whole speculative matrix); the
//! `--fuzz` form generates `--seeds N` random programs (default 200) and
//! checks every speculative mode of each — failing seeds are collected
//! while the rest of the campaign completes.
//!
//! `run` executes one workload across the mode matrix (or one mode with
//! `--mode`) and prints per-mode cycles, speedup over the sequential
//! baseline, violations, committed epochs and the constant-memory
//! streaming epoch-latency summary (mean / p50 / p99 / max) — the target
//! behind the scaling studies: `repro run go --scale 100x` completes with
//! O(1) per-epoch memory.
//!
//! `fuzz` runs the differential fuzzer: `--iters N` seeds starting at
//! `--seed S`, each generated program checked across the full mode matrix
//! against the sequential interpreter. `--family F` draws programs from an
//! adversarial scenario family instead of the baseline generator
//! (`phase_shift`, `false_sharing`, `deep_clone`, `mixed_nests`; see
//! `tls_ir::GenFamily`). Failures are shrunk and written
//! under `--artifacts dir` (default `results/fuzz`). A campaign that must
//! survive a crash runs as `repro campaign fuzz`, which journals finished
//! shards and continues with `--resume`. `--break-forwarding`
//! injects the forwarded-value recovery fault (the harness must then report
//! mismatches — a self-test of the fuzzer). `--panic-seed S` deliberately
//! panics the worker handling seed S — a self-test of panic isolation: the
//! campaign must complete with exactly one structured worker error.
//! `--replay path` re-checks a previously written artifact instead of
//! generating programs.
//!
//! `inject` runs a seeded fault-injection campaign against one workload
//! and mode (default `C`): `--campaign K` fault plans with seeds starting
//! at `--seed S`, each perturbing one fault class drawn from `--faults`
//! (`maskable`, `contract`, `both`, or a comma-separated class list; see
//! `tls_sim::FaultClass`). Maskable plans must leave the architectural
//! results byte-identical to sequential execution with only cycles
//! degrading; contract-breaking plans must be rejected by the protocol
//! conformance checker. The per-fault-class degradation report (squashes
//! added, cycles lost, masked/rejected verdicts) is printed and, with
//! `--out`, written as JSON. `--panic-plan K` deliberately panics the
//! worker of plan index K (panic-isolation self-test: the campaign must
//! complete with exactly that one worker error).
//!
//! `campaign` runs a fuzz, conformance or fault-injection campaign through
//! the fault-tolerant orchestrator (`tls_experiments::orchestrate`): the
//! seed range is split into `--shard`-sized shards dispatched to a pool of
//! `--workers` respawnable `repro worker` subprocesses over a
//! line-delimited JSON stdio protocol. Wedged workers (no heartbeat within
//! `--heartbeat-timeout`, or a job exceeding `--deadline`) are killed;
//! failed shards retry up to `--max-attempts` times with exponential
//! backoff (`--backoff-ms` base, `--backoff-cap-ms` cap) plus
//! deterministic jitter; a worker slot dying more than `--worker-failures`
//! times is retired and the pool shrinks. Completed shards are checkpointed
//! to an append-only, integrity-sealed journal under `--artifacts`, so
//! after any crash — `kill -9` included — `--resume` merges the finished
//! shards with the rest and produces a report byte-identical to an
//! uninterrupted run. SIGINT/SIGTERM drain: in-flight shards finish, the
//! journal and `--metrics` snapshot flush, and the partial report is
//! written. A campaign that completes with shards still missing (retry or
//! pool budget exhausted, or a drain) exits 6 — partial coverage — instead
//! of pretending success or failure. An inject worker compiles its
//! workload once and keeps the harness for every later shard of the same
//! spec. `--crash-shard`,
//! `--crash-every-attempt` and `--die-after-checkpoints` are self-test
//! knobs that crash a worker mid-shard (every attempt, or just the first)
//! or abort the orchestrator after N checkpoints, so CI can prove the
//! recovery story end to end. `worker` is the subprocess side; it is not
//! meant to be invoked by hand.

use std::process::ExitCode;
use std::time::Duration;

use tls_experiments::{
    attrib, conform, figures, fuzz, inject, metrics, orchestrate, par, proto, worker, Harness,
    Mode, Scale, Table, MODES,
};
use tls_ir::{GenConfig, GenFamily};
use tls_sim::{ascii_timeline, json, perfetto_json, validate_perfetto, RecordingTracer};
use tls_workloads::Workload;

/// How chatty to be (`--quiet` < default < `--verbose`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verbosity {
    Quiet,
    Normal,
    Verbose,
}

/// Why the driver exits nonzero. Every failure path funnels through this
/// enum so the documented exit codes stay consistent across subcommands.
enum CliError {
    /// Bad command line (exit 2). The usage text has already been printed.
    Usage,
    /// Simulation, preparation or I/O failure (exit 3).
    Sim(String),
    /// A correctness check failed: fuzz property, conformance divergence,
    /// trace invariant, or campaign soundness (exit 4).
    Check(String),
    /// A campaign completed but with partial coverage — some shards never
    /// finished (retry budget or worker pool exhausted, or a drain was
    /// requested). Exit 6: distinct from both success and `Check` so CI
    /// can tell "everything checked passed, but not everything ran" apart
    /// from "something failed".
    Partial(String),
}

impl CliError {
    fn report(self) -> ExitCode {
        match self {
            CliError::Usage => ExitCode::from(2),
            CliError::Sim(msg) => {
                eprintln!("{msg}");
                ExitCode::from(3)
            }
            CliError::Check(msg) => {
                eprintln!("{msg}");
                ExitCode::from(4)
            }
            CliError::Partial(msg) => {
                eprintln!("{msg}");
                ExitCode::from(6)
            }
        }
    }
}

fn usage() -> CliError {
    eprintln!(
        "usage: repro <fig2|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table2|sweep|adaptive|report|all|list> \
         [--quick] [--scale S] [--workloads a,b,c] [--jobs N] [--out path]\n\
         \x20      repro run <bench> [--mode M|all] [--quick] [--scale S] [--out path]\n\
         \x20      repro trace <bench> [--mode M] [--quick] [--scale S] [--perfetto path] \
         [--attrib path] [--width N]\n\
         \x20      repro trace-check <perfetto.json>\n\
         \x20      repro fuzz [--seed S] [--iters N] [--jobs N] [--family F] [--break-forwarding] \
         [--replay path] [--artifacts dir] [--panic-seed S]\n\
         \x20      repro conform <bench> [--mode M] [--quick] [--scale S]\n\
         \x20      repro conform --fuzz [--seed S] [--seeds N] [--jobs N]\n\
         \x20      repro inject <bench> [--mode M] [--faults F] [--seed S] [--campaign K] \
         [--rate R] [--budget B] [--quick] [--scale S] [--jobs N] [--out path] [--panic-plan K]\n\
         \x20      repro metrics <bench> [--mode M] [--quick] [--scale S] [--out path] \
         [--prom path]\n\
         \x20      repro campaign <fuzz|conform|inject> [--seed S] [--iters N] [--shard N] \
         [--workers W] [--family F] [--break-forwarding] [--bench B] [--mode M] [--quick] \
         [--scale S] [--faults F] [--rate R] [--budget B] \
         [--artifacts dir] [--resume] [--out path] [--max-attempts N] [--deadline SECS] \
         [--heartbeat-timeout SECS] [--backoff-ms N] [--backoff-cap-ms N] [--worker-failures N] \
         [--worker-exe path] [--crash-shard K] [--crash-every-attempt] \
         [--die-after-checkpoints N]\n\
         \x20      repro worker  (campaign worker subprocess; spawned by `repro campaign`)\n\
         \x20      --scale: quick | ref | NxM (N x iterations, M x footprint) | quick:NxM\n\
         \x20      --family: baseline | phase_shift | false_sharing | deep_clone | mixed_nests\n\
         \x20      global flags: --verbose --quiet --metrics path (host-metrics JSON snapshot)\n\
         \x20      exit codes: 0 ok, 2 usage, 3 sim/internal error, 4 check failure, \
         6 partial campaign coverage"
    );
    CliError::Usage
}

/// Parse a `--scale` operand, printing a diagnostic on failure.
fn parse_scale(s: &str) -> Result<Scale, CliError> {
    Scale::parse(s).ok_or_else(|| {
        eprintln!("bad --scale `{s}`: expected quick, ref, N, NxM or quick:NxM");
        CliError::Usage
    })
}

/// Parse a `--rate` operand: a per-decision probability, so finite and in
/// [0, 1].
fn parse_rate(s: Option<&String>) -> Result<f64, CliError> {
    s.and_then(|s| s.parse().ok())
        .filter(|r| (0.0..=1.0).contains(r))
        .ok_or_else(|| {
            eprintln!("bad --rate: expected a probability in [0, 1]");
            CliError::Usage
        })
}

/// One-line wall-time + peak-RSS report for a finished target. Consumes
/// the target's [`metrics::Span`] guard: the line is read off the span
/// (so the ad-hoc `--verbose` timing and the `--metrics` export can never
/// disagree) and dropping it here records the phase into the registry.
fn report_resources(verbosity: Verbosity, span: metrics::Span) {
    if verbosity == Verbosity::Quiet {
        return;
    }
    let wall = span.elapsed_ms() / 1e3;
    match metrics::peak_rss_kb() {
        Some(kb) => eprintln!(
            "[{}] wall {wall:.2} s, peak RSS {:.1} MB",
            span.path(),
            kb as f64 / 1024.0
        ),
        None => eprintln!("[{}] wall {wall:.2} s", span.path()),
    }
}

/// `repro run <bench>`: one workload across the mode matrix, with the
/// streaming epoch-latency summary per mode.
fn run_run_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("run");
    let mut bench_name: Option<String> = None;
    let mut mode_label = String::from("all");
    let mut scale = Scale::Full;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode_label = m.clone(),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return Err(usage()),
            },
            name if bench_name.is_none() && !name.starts_with('-') => {
                bench_name = Some(name.to_string());
            }
            _ => return Err(usage()),
        }
    }
    let Some(bench_name) = bench_name else {
        return Err(usage());
    };
    let workload = tls_workloads::by_name(&bench_name)
        .ok_or_else(|| CliError::Sim(format!("unknown workload `{bench_name}`")))?;
    let modes: Vec<Mode> = if mode_label == "all" {
        MODES.to_vec()
    } else {
        vec![Mode::from_label(&mode_label)
            .ok_or_else(|| CliError::Sim(format!("unknown mode `{mode_label}`")))?]
    };
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "running {bench_name} at scale {} across {} mode(s)...",
            scale.label(),
            modes.len()
        );
    }
    let harness = Harness::new(workload, scale)
        .map_err(|e| CliError::Sim(format!("failed to prepare {bench_name}: {e}")))?;
    let seq_cycles = harness.seq.total_cycles;
    println!(
        "{bench_name} @ {} (sequential baseline: {seq_cycles} cycles)",
        scale.label()
    );
    println!(
        "{:<6} {:>12} {:>8} {:>10} {:>9}  epoch cycles (mean/p50/p99/max)",
        "mode", "cycles", "speedup", "violations", "epochs"
    );
    let mut rows: Vec<String> = Vec::new();
    for mode in modes {
        let r = harness
            .run(mode)
            .map_err(|e| CliError::Sim(format!("{bench_name}/{}: {e}", mode.label())))?;
        let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
        let ec = r.epoch_cycle_totals();
        let speedup = seq_cycles as f64 / r.total_cycles as f64;
        let summary = if ec.is_empty() {
            String::from("-")
        } else {
            format!(
                "{:.1}/{}/{}/{}",
                ec.mean(),
                ec.quantile(0.5),
                ec.quantile(0.99),
                ec.max
            )
        };
        println!(
            "{:<6} {:>12} {:>8.3} {:>10} {:>9}  {summary}",
            mode.label(),
            r.total_cycles,
            speedup,
            r.total_violations,
            epochs
        );
        rows.push(json::object(|w| {
            w.str("mode", &mode.label())
                .raw("cycles", r.total_cycles)
                .raw("speedup", format_args!("{speedup:.6}"))
                .raw("violations", r.total_violations)
                .raw("epochs", epochs)
                .raw("epoch_cycle_count", ec.count)
                .raw("epoch_cycle_mean", format_args!("{:.3}", ec.mean()))
                .raw("epoch_cycle_p50", ec.quantile(0.5))
                .raw("epoch_cycle_p99", ec.quantile(0.99))
                .raw("epoch_cycle_max", if ec.is_empty() { 0 } else { ec.max });
        }));
    }
    if let Some(path) = out {
        let doc = json::object(|w| {
            w.str("bench", &bench_name)
                .str("scale", &scale.label())
                .raw("seq_cycles", seq_cycles)
                .raw("peak_rss_kb", metrics::peak_rss_kb().unwrap_or(0))
                .arr("modes", |w| {
                    for row in &rows {
                        w.item_raw(row);
                    }
                });
        });
        write_out(&path, &doc)?;
    }
    report_resources(verbosity, span);
    Ok(())
}

/// `repro trace <bench>`: one traced run, timeline + attribution exports.
fn run_trace_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("trace");
    let mut bench_name: Option<String> = None;
    let mut mode_label = String::from("U");
    let mut scale = Scale::Full;
    let mut perfetto_path: Option<String> = None;
    let mut attrib_path: Option<String> = None;
    let mut width: usize = 100;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode_label = m.clone(),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--perfetto" => match it.next() {
                Some(p) => perfetto_path = Some(p.clone()),
                None => return Err(usage()),
            },
            "--attrib" => match it.next() {
                Some(p) => attrib_path = Some(p.clone()),
                None => return Err(usage()),
            },
            "--width" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => width = n,
                None => return Err(usage()),
            },
            name if bench_name.is_none() && !name.starts_with('-') => {
                bench_name = Some(name.to_string());
            }
            _ => return Err(usage()),
        }
    }
    let Some(bench_name) = bench_name else {
        return Err(usage());
    };
    let workload = tls_workloads::by_name(&bench_name)
        .ok_or_else(|| CliError::Sim(format!("unknown workload `{bench_name}`")))?;
    let mode = Mode::from_label(&mode_label)
        .ok_or_else(|| CliError::Sim(format!("unknown mode `{mode_label}`")))?;
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "tracing {bench_name} under mode {} at {scale:?} scale...",
            mode.label()
        );
    }
    let harness = Harness::new(workload, scale)
        .map_err(|e| CliError::Sim(format!("failed to prepare {bench_name}: {e}")))?;
    let mut rec = RecordingTracer::default();
    let result = harness
        .run_traced(mode, &mut rec)
        .map_err(|e| CliError::Sim(format!("traced run failed: {e}")))?;
    let events = rec.events;
    // Check the stream against the protocol model before exporting
    // anything from it.
    harness
        .check_conformance(mode, &events)
        .map_err(|e| CliError::Check(e.to_string()))?;
    let attribution = attrib::attribute(&events);
    if attribution.total_squashes != result.total_violations {
        return Err(CliError::Check(format!(
            "attribution mismatch: {} squash events vs {} violations reported by the run",
            attribution.total_squashes, result.total_violations
        )));
    }
    let spawns: u64 = attribution.epochs.values().map(|e| e.spawns).sum();
    let commits: u64 = attribution.epochs.values().map(|e| e.commits).sum();
    // The model holds each spawn to exactly one commit or cancel.
    let cancels = spawns - commits;
    println!(
        "{bench_name}/{}: {} events ({spawns} spawns, {commits} commits, {} squashes, \
         {cancels} cancels) over {} cycles, {} violation(s)",
        mode.label(),
        events.len(),
        attribution.total_squashes,
        result.total_cycles,
        result.total_violations
    );
    print!("{}", ascii_timeline(&events, width, 4));
    if !attribution.edges.is_empty() {
        println!("{}", attribution.edge_table(10));
    }
    if verbosity == Verbosity::Verbose {
        println!("{}", attribution.epoch_table());
        if !attribution.waits.is_empty() {
            println!("{}", attribution.wait_table());
        }
    }
    if let Some(path) = perfetto_path {
        let json = perfetto_json(&events);
        match validate_perfetto(&json) {
            Ok(n) => {
                if verbosity > Verbosity::Quiet {
                    eprintln!(
                        "perfetto export: {n} trace event(s), open at https://ui.perfetto.dev"
                    );
                }
            }
            Err(e) => {
                return Err(CliError::Check(format!(
                    "generated Perfetto JSON failed validation: {e}"
                )));
            }
        }
        write_out(&path, &json)?;
    }
    if let Some(path) = attrib_path {
        let json = attribution.to_json(&bench_name, &mode.label(), result.total_violations);
        write_out(&path, &json)?;
    }
    report_resources(verbosity, span);
    Ok(())
}

/// `repro trace-check <file>`: validate a previously exported timeline.
fn run_trace_check_cmd(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(usage());
    };
    let contents = std::fs::read_to_string(path)
        .map_err(|e| CliError::Sim(format!("failed to read {path}: {e}")))?;
    match validate_perfetto(&contents) {
        Ok(n) => {
            println!("{path}: valid Chrome trace, {n} event(s), timestamps monotonic");
            Ok(())
        }
        Err(e) => Err(CliError::Check(format!(
            "{path}: invalid Chrome trace: {e}"
        ))),
    }
}

fn run_fuzz_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("fuzz");
    let mut seed: u64 = 1;
    let mut iters: u64 = 1000;
    let mut jobs: usize = 0;
    let mut cfg = fuzz::FuzzConfig::default();
    let mut replay: Option<String> = None;
    let mut artifacts = String::from("results/fuzz");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return Err(usage()),
            },
            "--iters" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => iters = n,
                None => return Err(usage()),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return Err(usage()),
            },
            "--break-forwarding" => cfg.break_forwarded_recovery = true,
            "--family" => match it.next() {
                Some(f) => match GenFamily::parse(f) {
                    Some(fam) => cfg.gen = GenConfig::for_family(fam),
                    None => {
                        eprintln!(
                            "unknown --family `{f}`: expected one of {}",
                            GenFamily::ALL
                                .iter()
                                .map(|g| g.label())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        return Err(CliError::Usage);
                    }
                },
                None => return Err(usage()),
            },
            "--panic-seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.panic_on_seed = Some(n),
                None => return Err(usage()),
            },
            "--replay" => match it.next() {
                Some(p) => replay = Some(p.clone()),
                None => return Err(usage()),
            },
            "--artifacts" => match it.next() {
                Some(p) => artifacts = p.clone(),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    par::set_jobs(jobs);
    if let Some(path) = replay {
        return match fuzz::replay(std::path::Path::new(&path), &cfg) {
            Err(e) => Err(CliError::Sim(e)),
            Ok(Ok(stats)) => {
                println!(
                    "replay passed: {} region(s), {} sync load(s), {} violation(s)",
                    stats.regions, stats.sync_loads, stats.violations
                );
                Ok(())
            }
            Ok(Err(f)) => Err(CliError::Check(format!("replay still fails: {f}"))),
        };
    }
    eprintln!(
        "fuzzing {iters} seed(s) from {seed} across {} modes{}...",
        fuzz::ALL_MODES.len(),
        if cfg.break_forwarded_recovery {
            " with the forwarded-recovery fault injected"
        } else {
            ""
        }
    );
    let report = fuzz::run_fuzz(seed, iters, &cfg, Some(std::path::Path::new(&artifacts)));
    println!("{}", report.summary());
    for f in &report.failures {
        println!(
            "  seed {}: {} ({} -> {} instrs){}",
            f.seed,
            f.failure,
            f.original_instrs,
            f.minimized.static_instr_count(),
            f.artifact
                .as_deref()
                .map(|p| format!(", artifact {p}"))
                .unwrap_or_default()
        );
    }
    for e in &report.run_errors {
        println!("  {e}");
    }
    report_resources(verbosity, span);
    // With --panic-seed the deliberate worker death is the expected
    // outcome; anything else wrong with the workers is an internal error.
    let expected_errors = usize::from(cfg.panic_on_seed.is_some());
    if report.run_errors.len() != expected_errors {
        return Err(CliError::Sim(format!(
            "{} worker(s) died (expected {expected_errors})",
            report.run_errors.len()
        )));
    }
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Check(format!(
            "{} seed(s) failed their checks",
            report.failures.len()
        )))
    }
}

/// `repro conform`: lockstep conformance checking against the reference
/// protocol model — one workload, or a fuzzing campaign with `--fuzz`.
fn run_conform_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("conform");
    let mut bench_name: Option<String> = None;
    let mut mode_label: Option<String> = None;
    let mut scale = Scale::Full;
    let mut fuzz_form = false;
    let mut seed: u64 = 1;
    let mut seeds: u64 = 200;
    let mut jobs: usize = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuzz" => fuzz_form = true,
            "--mode" => match it.next() {
                Some(m) => mode_label = Some(m.clone()),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return Err(usage()),
            },
            "--seeds" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seeds = n,
                None => return Err(usage()),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return Err(usage()),
            },
            name if bench_name.is_none() && !name.starts_with('-') => {
                bench_name = Some(name.to_string());
            }
            _ => return Err(usage()),
        }
    }
    par::set_jobs(jobs);
    if fuzz_form {
        if verbosity > Verbosity::Quiet {
            eprintln!(
                "conformance-checking {seeds} generated seed(s) from {seed} across the \
                 speculative mode matrix..."
            );
        }
        let outcome = conform::conform_fuzz(seed, seeds, &fuzz::FuzzConfig::default());
        println!("{}", outcome.summary());
        for f in &outcome.failures {
            println!("  {f}");
        }
        for e in &outcome.errors {
            println!("  {e}");
        }
        report_resources(verbosity, span);
        if !outcome.errors.is_empty() {
            return Err(CliError::Sim(format!(
                "{} conformance worker(s) died",
                outcome.errors.len()
            )));
        }
        if !outcome.failures.is_empty() {
            return Err(CliError::Check(format!(
                "{} seed(s) failed conformance",
                outcome.failures.len()
            )));
        }
        return Ok(());
    }
    let Some(bench_name) = bench_name else {
        return Err(usage());
    };
    if tls_workloads::by_name(&bench_name).is_none() {
        return Err(CliError::Sim(format!("unknown workload `{bench_name}`")));
    }
    if let Some(l) = &mode_label {
        match Mode::from_label(l) {
            None => return Err(CliError::Sim(format!("unknown mode `{l}`"))),
            Some(Mode::Seq) => {
                return Err(CliError::Sim(
                    "the sequential baseline has no speculative protocol to check".into(),
                ));
            }
            Some(_) => {}
        }
    }
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "conformance-checking {bench_name} under {} at {scale:?} scale...",
            mode_label
                .as_deref()
                .unwrap_or("the speculative mode matrix")
        );
    }
    match conform::conform_bench(&bench_name, mode_label.as_deref(), scale) {
        Ok(report) => {
            println!("{}", report.summary());
            report_resources(verbosity, span);
            Ok(())
        }
        Err(e) => Err(CliError::Check(e)),
    }
}

/// `repro inject <bench>`: a seeded fault-injection campaign with the
/// per-fault-class degradation report.
fn run_inject_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("inject");
    let mut bench_name: Option<String> = None;
    let mut mode_label = String::from("C");
    let mut scale = Scale::Full;
    let mut seed: u64 = 1;
    let mut plans: u64 = 20;
    let mut jobs: usize = 0;
    let mut out: Option<String> = None;
    let mut cfg = inject::InjectConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode_label = m.clone(),
                None => return Err(usage()),
            },
            "--faults" => match it.next() {
                Some(f) => {
                    cfg.partition = inject::Partition::parse(f).map_err(|e| {
                        eprintln!("{e}");
                        CliError::Usage
                    })?;
                }
                None => return Err(usage()),
            },
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return Err(usage()),
            },
            "--campaign" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => plans = n,
                None => return Err(usage()),
            },
            "--rate" => cfg.rate = parse_rate(it.next())?,
            "--budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.budget = n,
                None => return Err(usage()),
            },
            "--panic-plan" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => cfg.panic_on_plan = Some(n),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--jobs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => jobs = n,
                None => return Err(usage()),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return Err(usage()),
            },
            name if bench_name.is_none() && !name.starts_with('-') => {
                bench_name = Some(name.to_string());
            }
            _ => return Err(usage()),
        }
    }
    par::set_jobs(jobs);
    let Some(bench_name) = bench_name else {
        return Err(usage());
    };
    let workload = tls_workloads::by_name(&bench_name)
        .ok_or_else(|| CliError::Sim(format!("unknown workload `{bench_name}`")))?;
    let mode = Mode::from_label(&mode_label)
        .ok_or_else(|| CliError::Sim(format!("unknown mode `{mode_label}`")))?;
    if mode == Mode::Seq {
        return Err(CliError::Sim(
            "the sequential baseline has no speculative protocol to perturb".into(),
        ));
    }
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "injecting {plans} fault plan(s) from seed {seed} into {bench_name}/{} at \
             {scale:?} scale...",
            mode.label()
        );
    }
    let h = Harness::new(workload, scale)
        .map_err(|e| CliError::Sim(format!("failed to prepare {bench_name}: {e}")))?;
    let report = inject::run_campaign(&h, mode, seed, plans, &cfg)
        .map_err(|e| CliError::Sim(format!("baseline run failed: {e}")))?;
    print!("{}", report.table());
    println!("{}", report.summary());
    for e in &report.errors {
        println!("  {e}");
    }
    if let Some(path) = out {
        write_out(&path, &report.to_json())?;
    }
    report_resources(verbosity, span);
    // With --panic-plan the deliberate worker death is the expected
    // outcome; anything else wrong with the workers is an internal error.
    let expected_errors = usize::from(cfg.panic_on_plan.is_some());
    if report.errors.len() != expected_errors {
        return Err(CliError::Sim(format!(
            "{} worker(s) died (expected {expected_errors})",
            report.errors.len()
        )));
    }
    report.sound().map_err(CliError::Check)
}

/// `repro metrics <bench>`: one counted run, machine counters printed in
/// deterministic row order, optional JSON / Prometheus exports.
fn run_metrics_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("metrics");
    let mut bench_name: Option<String> = None;
    let mut mode_label = String::from("C");
    let mut scale = Scale::Full;
    let mut out: Option<String> = None;
    let mut prom: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode_label = m.clone(),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return Err(usage()),
            },
            "--prom" => match it.next() {
                Some(p) => prom = Some(p.clone()),
                None => return Err(usage()),
            },
            name if bench_name.is_none() && !name.starts_with('-') => {
                bench_name = Some(name.to_string());
            }
            _ => return Err(usage()),
        }
    }
    let Some(bench_name) = bench_name else {
        return Err(usage());
    };
    let workload = tls_workloads::by_name(&bench_name)
        .ok_or_else(|| CliError::Sim(format!("unknown workload `{bench_name}`")))?;
    let mode = Mode::from_label(&mode_label)
        .ok_or_else(|| CliError::Sim(format!("unknown mode `{mode_label}`")))?;
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "counting {bench_name} under mode {} at scale {}...",
            mode.label(),
            scale.label()
        );
    }
    let harness = Harness::new(workload, scale)
        .map_err(|e| CliError::Sim(format!("failed to prepare {bench_name}: {e}")))?;
    let result = harness
        .run_counted(mode)
        .map_err(|e| CliError::Sim(format!("{bench_name}/{}: {e}", mode.label())))?;
    let counters = result
        .counters
        .as_ref()
        .ok_or_else(|| CliError::Sim("counted run produced no counter bank".into()))?;
    println!(
        "{bench_name}/{} @ {}: {} cycles, {} instructions",
        mode.label(),
        scale.label(),
        result.total_cycles,
        result.instructions
    );
    for (name, v) in counters.rows() {
        println!("  {name:<28} {v:>14}");
    }
    println!(
        "  {:<28} {:>13.1}%\n  {:<28} {:>13.1}%",
        "derived.l1_hit_rate",
        counters.l1_hit_rate() * 100.0,
        "derived.prediction_hit_rate",
        counters.prediction_hit_rate() * 100.0
    );
    if let Some(path) = out {
        write_out(
            &path,
            &metrics::counters_json(&bench_name, &mode.label(), &scale.label(), counters),
        )?;
    }
    if let Some(path) = prom {
        write_out(
            &path,
            &metrics::counters_prometheus(&bench_name, &mode.label(), counters),
        )?;
    }
    report_resources(verbosity, span);
    Ok(())
}

/// `repro campaign <fuzz|conform|inject>`: a sharded multi-process
/// campaign through the fault-tolerant orchestrator.
fn run_campaign_cmd(args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let span = metrics::span("campaign");
    let Some((kind_name, rest)) = args.split_first() else {
        return Err(usage());
    };
    let mut seed: u64 = 1;
    let mut iters: u64 = 200;
    let mut shard: u64 = 25;
    let mut workers: usize = 4;
    let mut family = GenFamily::Baseline;
    let mut break_forwarding = false;
    let mut bench_name: Option<String> = None;
    let mut mode_label = String::from("C");
    let mut scale = Scale::Full;
    let mut faults = String::from("both");
    let mut rate: f64 = 0.05;
    let mut budget: u64 = 8;
    let mut artifacts = String::from("results/campaign");
    let mut resume = false;
    let mut out: Option<String> = None;
    let mut max_attempts: u64 = 3;
    let mut deadline = Duration::from_secs(600);
    let mut heartbeat_timeout = Duration::from_secs(120);
    let mut backoff = Duration::from_millis(200);
    let mut backoff_cap = Duration::from_millis(5000);
    let mut worker_failures: u64 = 2;
    let mut worker_exe: Option<String> = None;
    let mut crash_shard: Option<u64> = None;
    let mut crash_every_attempt = false;
    let mut die_after_checkpoints: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => seed = n,
                None => return Err(usage()),
            },
            "--iters" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => iters = n,
                None => return Err(usage()),
            },
            "--shard" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => shard = n,
                None => return Err(usage()),
            },
            "--workers" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => workers = n,
                None => return Err(usage()),
            },
            "--family" => match it.next().and_then(|f| GenFamily::parse(f)) {
                Some(f) => family = f,
                None => return Err(usage()),
            },
            "--break-forwarding" => break_forwarding = true,
            "--bench" => match it.next() {
                Some(b) => bench_name = Some(b.clone()),
                None => return Err(usage()),
            },
            "--mode" => match it.next() {
                Some(m) => mode_label = m.clone(),
                None => return Err(usage()),
            },
            "--quick" => scale = Scale::Quick,
            "--scale" => match it.next() {
                Some(s) => scale = parse_scale(s)?,
                None => return Err(usage()),
            },
            "--faults" => match it.next() {
                Some(f) => faults = f.clone(),
                None => return Err(usage()),
            },
            "--rate" => rate = parse_rate(it.next())?,
            "--budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget = n,
                None => return Err(usage()),
            },
            "--artifacts" => match it.next() {
                Some(d) => artifacts = d.clone(),
                None => return Err(usage()),
            },
            "--resume" => resume = true,
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return Err(usage()),
            },
            "--max-attempts" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_attempts = n,
                None => return Err(usage()),
            },
            "--deadline" => match it.next().and_then(|n| n.parse().ok()) {
                Some(secs) => deadline = Duration::from_secs(secs),
                None => return Err(usage()),
            },
            "--heartbeat-timeout" => match it.next().and_then(|n| n.parse().ok()) {
                Some(secs) => heartbeat_timeout = Duration::from_secs(secs),
                None => return Err(usage()),
            },
            "--backoff-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(ms) => backoff = Duration::from_millis(ms),
                None => return Err(usage()),
            },
            "--backoff-cap-ms" => match it.next().and_then(|n| n.parse().ok()) {
                Some(ms) => backoff_cap = Duration::from_millis(ms),
                None => return Err(usage()),
            },
            "--worker-failures" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => worker_failures = n,
                None => return Err(usage()),
            },
            "--worker-exe" => match it.next() {
                Some(p) => worker_exe = Some(p.clone()),
                None => return Err(usage()),
            },
            "--crash-shard" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => crash_shard = Some(n),
                None => return Err(usage()),
            },
            "--crash-every-attempt" => crash_every_attempt = true,
            "--die-after-checkpoints" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => die_after_checkpoints = Some(n),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    let kind = match kind_name.as_str() {
        "fuzz" => proto::JobSpec::Fuzz {
            family,
            break_forwarding,
        },
        "conform" => proto::JobSpec::Conform { family },
        "inject" => {
            let Some(bench_name) = bench_name else {
                eprintln!("campaign inject needs --bench <workload>");
                return Err(CliError::Usage);
            };
            if tls_workloads::by_name(&bench_name).is_none() {
                return Err(CliError::Sim(format!("unknown workload `{bench_name}`")));
            }
            if Mode::from_label(&mode_label).is_none() {
                return Err(CliError::Sim(format!("unknown mode `{mode_label}`")));
            }
            inject::Partition::parse(&faults).map_err(|e| {
                eprintln!("{e}");
                CliError::Usage
            })?;
            proto::JobSpec::Inject {
                bench: bench_name,
                mode: mode_label,
                scale: scale.label(),
                faults,
                rate,
                budget,
            }
        }
        other => {
            eprintln!("unknown campaign kind `{other}` (expected fuzz, conform or inject)");
            return Err(CliError::Usage);
        }
    };
    let worker_cmd = match worker_exe {
        Some(exe) => vec![exe, "worker".to_string()],
        None => {
            let exe = std::env::current_exe()
                .map_err(|e| CliError::Sim(format!("cannot locate own executable: {e}")))?;
            vec![exe.display().to_string(), "worker".to_string()]
        }
    };
    let spec = orchestrate::CampaignSpec {
        kind,
        seed0: seed,
        total: iters,
        shard_size: shard,
        workers,
        max_attempts,
        worker_failure_budget: worker_failures,
        job_deadline: deadline,
        heartbeat_timeout,
        backoff_base: backoff,
        backoff_cap,
        artifacts: std::path::PathBuf::from(&artifacts),
        resume,
        worker_cmd,
        crash_shard,
        crash_every_attempt,
        die_after_checkpoints,
    };
    orchestrate::install_signal_handlers();
    if verbosity > Verbosity::Quiet {
        eprintln!(
            "campaign {kind_name}: {iters} seed(s) from {seed} in shards of {shard} across \
             {workers} worker(s){}...",
            if resume {
                ", resuming from the journal"
            } else {
                ""
            }
        );
    }
    let report = orchestrate::run_campaign(&spec).map_err(CliError::Sim)?;
    println!("{}", report.summary());
    if !report.merged.failed.is_empty() {
        println!("  failed seeds: {:?}", report.merged.failed);
    }
    if !report.merged.errored.is_empty() {
        println!("  errored seeds: {:?}", report.merged.errored);
    }
    if let Some(path) = out {
        write_out(&path, &report.to_json())?;
    }
    report_resources(verbosity, span);
    if report.partial() {
        Err(CliError::Partial(format!(
            "partial coverage: {} of {} shard(s) incomplete",
            report.incomplete.len(),
            report.incomplete.len() + report.completed.len()
        )))
    } else if report.failed() {
        Err(CliError::Check(format!(
            "{} seed(s) failed their checks, {} unsound plan(s)",
            report.merged.failed.len(),
            report.merged.unsound
        )))
    } else {
        Ok(())
    }
}

/// `repro worker`: the campaign worker subprocess. Speaks the
/// line-delimited JSON protocol on stdin/stdout; everything human goes to
/// stderr.
fn run_worker_cmd() -> Result<(), CliError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    worker::serve(stdin.lock(), stdout.lock()).map_err(CliError::Sim)
}

fn write_out(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Sim(format!("failed to write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn run_figures(target: &str, args: &[String], verbosity: Verbosity) -> Result<(), CliError> {
    let mut scale = Scale::Full;
    let mut filter: Option<Vec<String>> = None;
    let mut jobs: usize = 0; // 0 = one worker per CPU
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--scale" => {
                let Some(s) = it.next() else {
                    return Err(usage());
                };
                scale = parse_scale(s)?;
            }
            "--workloads" => {
                let Some(list) = it.next() else {
                    return Err(usage());
                };
                filter = Some(list.split(',').map(str::to_string).collect());
            }
            "--jobs" => {
                let Some(n) = it.next().and_then(|n| n.parse().ok()) else {
                    return Err(usage());
                };
                jobs = n;
            }
            "--out" => {
                let Some(path) = it.next() else {
                    return Err(usage());
                };
                out = Some(path.clone());
            }
            _ => return Err(usage()),
        }
    }
    par::set_jobs(jobs);
    if target != "all" && !figures::TARGETS.contains(&target) {
        return Err(usage());
    }
    let workloads: Vec<Workload> = match &filter {
        None => tls_workloads::all(),
        Some(names) => {
            let mut ws = Vec::new();
            for n in names {
                match tls_workloads::by_name(n) {
                    Some(w) => ws.push(w),
                    None => return Err(CliError::Sim(format!("unknown workload `{n}`"))),
                }
            }
            ws
        }
    };

    if verbosity > Verbosity::Quiet {
        eprintln!(
            "preparing {} workload(s) at {:?} scale (compile + profile + sequential baseline)...",
            workloads.len(),
            scale
        );
        if verbosity == Verbosity::Verbose {
            for w in &workloads {
                eprintln!("  {} ({})", w.name, w.paper_name);
            }
        }
    }
    let prepare_span = metrics::span("prepare");
    let harnesses = Harness::prepare_all(&workloads, scale)
        .map_err(|e| CliError::Sim(format!("failed to prepare workloads: {e}")))?;
    report_resources(verbosity, prepare_span);

    let targets: Vec<&str> = if target == "all" {
        figures::TARGETS.to_vec()
    } else {
        vec![target]
    };
    let mut tables: Vec<Table> = Vec::new();
    // Degrade gracefully: a failing figure is recorded and the remaining
    // targets still render, so one bad target cannot hide the others.
    let mut failed: Vec<String> = Vec::new();
    for t in targets {
        let t_span = metrics::span(t);
        let Some(table) = figures::by_name(t, &harnesses) else {
            return Err(usage());
        };
        match table {
            Ok(table) => {
                println!("{table}");
                tables.push(table);
                report_resources(verbosity, t_span);
            }
            Err(e) => {
                eprintln!("{t} failed: {e}");
                failed.push(format!("{t}: {e}"));
            }
        }
    }
    if let Some(path) = out {
        let doc = json::array(|w| {
            for table in &tables {
                w.item_raw(table.to_json());
            }
        });
        write_out(&path, &doc)?;
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Sim(format!(
            "{} target(s) failed: {}",
            failed.len(),
            failed.join("; ")
        )))
    }
}

fn real_main() -> Result<(), CliError> {
    let mut verbosity = Verbosity::Normal;
    let mut metrics_out: Option<String> = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--verbose" => verbosity = Verbosity::Verbose,
            "--quiet" => verbosity = Verbosity::Quiet,
            "--metrics" => {
                i += 1;
                match raw.get(i) {
                    Some(p) => metrics_out = Some(p.clone()),
                    None => return Err(usage()),
                }
            }
            _ => args.push(raw[i].clone()),
        }
        i += 1;
    }
    let Some(target) = args.first().cloned() else {
        return Err(usage());
    };
    let result = match target.as_str() {
        "list" => {
            for w in tls_workloads::all() {
                println!("{:<14} {:<20} {}", w.name, w.paper_name, w.pattern);
            }
            Ok(())
        }
        "run" => run_run_cmd(&args[1..], verbosity),
        "fuzz" => run_fuzz_cmd(&args[1..], verbosity),
        "conform" => run_conform_cmd(&args[1..], verbosity),
        "inject" => run_inject_cmd(&args[1..], verbosity),
        "trace" => run_trace_cmd(&args[1..], verbosity),
        "trace-check" => run_trace_check_cmd(&args[1..]),
        "metrics" => run_metrics_cmd(&args[1..], verbosity),
        "campaign" => run_campaign_cmd(&args[1..], verbosity),
        "worker" => run_worker_cmd(),
        t => run_figures(t, &args[1..], verbosity),
    };
    // The host-metrics snapshot is written even when the subcommand failed
    // (a failing campaign's phase timings are exactly what one wants to
    // see), but an export error never masks the subcommand's own verdict.
    if let Some(path) = metrics_out {
        let wrote = write_out(&path, &metrics::snapshot().to_json());
        if result.is_ok() {
            wrote?;
        }
    }
    result
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(),
    }
}
