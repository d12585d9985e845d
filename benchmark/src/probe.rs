//! Per-layer probes: each layer's public function called standalone on
//! the workload's own inputs, inside a span, so layers that the timed
//! rounds only reach through a black box (`Harness::new`, `check_seed`,
//! `run_campaign`) still get their own host time and counts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use tls_core::{compile_all, CompileOptions};
use tls_experiments::fuzz;
use tls_experiments::journal::{append_line, seal_line};
use tls_experiments::proto::{FromWorker, Job, JobSpec, ShardStats, ToWorker};
use tls_experiments::{Harness, Mode};
use tls_ir::{GenFamily, Module};
use tls_profile::{profile_module, record_oracle, ArchOutcome, InterpConfig};
use tls_sim::{Machine, MachineCounters, SimConfig, SlotBreakdown};

use crate::report::Values;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    baseline_diff, fold_seed, fuzz_config, harness_inputs, programs, registry_spans, Kind, Params,
};

/// The modes each program is probed under: every mode a per-layer metric
/// names.
const PROBE_MODES: [Mode; 6] = [
    Mode::Unsync,
    Mode::CompilerTrain,
    Mode::CompilerRef,
    Mode::HwSync,
    Mode::Hybrid,
    Mode::Adaptive,
];

/// One program as the pipeline sees it.
struct Program {
    name: String,
    measure: Module,
    train: Option<Module>,
}

#[derive(Default)]
struct ModeTotals {
    instrs: u64,
    slots: SlotBreakdown,
    counters: MachineCounters,
}

/// Walk every program of the workload through the pipeline layer by layer
/// (build → interpret → profile → compile → prepare → sequential baseline →
/// mode runs) and report each layer's time and the exact simulated counts.
pub fn pipeline(
    kind: Kind,
    p: &Params,
    tr: &mut Tracer,
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    let fuzz_cfg = fuzz_config();
    let (opts, interp, max_sim_steps) = match kind {
        Kind::FuzzDiff | Kind::CampaignFuzz => (
            fuzz_cfg.compile_options(),
            InterpConfig {
                max_steps: fuzz_cfg.max_interp_steps,
                ..InterpConfig::default()
            },
            Some(fuzz_cfg.max_sim_steps),
        ),
        _ => (CompileOptions::default(), InterpConfig::default(), None),
    };
    let inputs: Vec<Program> = match kind {
        Kind::FuzzDiff | Kind::CampaignFuzz => match p.seeds() {
            Ok(seeds) => seeds
                .into_iter()
                .map(|s| {
                    tr.span("input.build", s.to_string(), |_| Program {
                        name: s.to_string(),
                        measure: tls_ir::generate(s, &fuzz_cfg.gen, 0),
                        train: Some(tls_ir::generate(s, &fuzz_cfg.gen, 1)),
                    })
                })
                .collect(),
            Err(e) => {
                problems.push(e);
                Vec::new()
            }
        },
        _ => {
            let scale = if kind == Kind::SimLong {
                p.long_scale()
            } else {
                p.paper_scale()
            };
            programs(kind, p)
                .into_iter()
                .map(|w| {
                    tr.span("input.build", w.name, |_| {
                        let (measure, train) = harness_inputs(&w, scale);
                        Program {
                            name: w.name.to_string(),
                            measure,
                            train,
                        }
                    })
                })
                .collect()
        }
    };

    let mut dyn_instrs = 0u64;
    let (mut prep_registry, mut check_s) = (0.0, 0.0);
    let (mut sync_loads, mut clones, mut growth) = (0usize, 0usize, Vec::new());
    let (mut with_regions, mut with_sync, mut with_violations) = (0u64, 0u64, 0u64);
    let mut modes: BTreeMap<String, ModeTotals> = BTreeMap::new();
    for prog in &inputs {
        let name = prog.name.as_str();
        let arch = match tr.span("profile.interp", name, |_| {
            ArchOutcome::of(&prog.measure, interp)
        }) {
            Ok(a) => a,
            Err(e) => {
                problems.push(format!("{name}: interpreter: {e}"));
                continue;
            }
        };
        for input in std::iter::once(&prog.measure).chain(&prog.train) {
            match tr.span("profile.depprof", name, |_| profile_module(input)) {
                Ok(prof) => dyn_instrs += prof.total_dyn_instrs,
                Err(e) => problems.push(format!("{name}: profiler: {e}")),
            }
        }
        let compiled = tr.span("core.compile", name, |_| {
            compile_all(&prog.measure, &prog.measure, &opts)?;
            if let Some(t) = &prog.train {
                compile_all(&prog.measure, t, &opts)?;
            }
            Ok::<(), tls_core::CompileError>(())
        });
        if let Err(e) = compiled {
            problems.push(format!("{name}: compile: {e}"));
        }
        let before = registry_spans("prep").1;
        let prepared = tr.span("harness.prep", name, |_| {
            Harness::from_modules(name, &prog.measure, prog.train.as_ref(), &opts)
        });
        prep_registry += registry_spans("prep").1 - before;
        let mut h = match prepared {
            Ok(h) => h,
            Err(e) => {
                problems.push(format!("{name}: prepare: {e}"));
                continue;
            }
        };
        if let Some(steps) = max_sim_steps {
            h.base.max_steps = steps;
        }
        problems.extend(baseline_diff(&h, &arch));
        if let Err(e) = tr.span("sim.seq", name, |_| {
            Machine::new(&h.set_c.seq, SimConfig::sequential()).run()
        }) {
            problems.push(format!("{name}: sequential simulation: {e}"));
        }
        for module in [&h.set_c.unsync, &h.set_c.synced] {
            tr.span("sim.new", name, |_| {
                black_box(Machine::new(module, h.base.clone()));
            });
            if let Err(e) = tr.span("profile.oracle", name, |_| record_oracle(module)) {
                problems.push(format!("{name}: value oracle: {e}"));
            }
        }
        let rep = &h.set_c.report;
        sync_loads += rep.sync_loads;
        clones += rep.clones;
        growth.push(rep.code_growth());
        with_regions += u64::from(!h.set_c.regions.is_empty());
        with_sync += u64::from(rep.sync_loads > 0);

        let check_before = registry_spans("check").1;
        let mut violated = false;
        for mode in PROBE_MODES {
            let label = mode.label();
            let timed = tr.span("sim.run", format!("{name}/{label}"), |_| h.run(mode));
            let counted = timed.and_then(|r| Ok((r, h.run_counted(mode)?)));
            let (run, counted) = match counted {
                Ok(pair) => pair,
                Err(e) => {
                    problems.push(format!("{name}/{label}: {e}"));
                    continue;
                }
            };
            let t = modes.entry(label).or_default();
            t.instrs += run.instructions;
            for region in counted.regions.values() {
                t.slots.add(&region.slots);
            }
            if let Some(c) = &counted.counters {
                t.counters.merge(c);
            }
            violated |= counted.total_violations > 0;
        }
        check_s += registry_spans("check").1 - check_before;
        with_violations += u64::from(violated);
    }

    let secs = |name: &str| tr.total_self(name);
    let n = inputs.len().max(1) as f64;
    let run_spans: Vec<(String, f64)> = tr
        .named("sim.run")
        .into_iter()
        .map(|i| (tr.spans[i].detail.clone(), tr.spans[i].secs()))
        .collect();
    let mode_secs = |label: &str| -> f64 {
        run_spans
            .iter()
            .filter(|(d, _)| d.rsplit('/').next() == Some(label))
            .map(|(_, s)| s)
            .sum()
    };
    let total = |f: &dyn Fn(&ModeTotals) -> f64| modes.values().map(f).sum::<f64>();
    let mode = |label: &str| modes.get(label);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    for name in [
        "input.build",
        "profile.interp",
        "profile.depprof",
        "profile.oracle",
        "core.compile",
        "harness.prep",
        "sim.seq",
    ] {
        values.insert(format!("{name}_s"), secs(name));
    }
    values.insert(
        "profile.depprof_mips".into(),
        dyn_instrs as f64 / secs("profile.depprof") / 1e6,
    );
    values.insert("harness.check_s".into(), check_s);
    let new_spans: Vec<f64> = tr
        .named("sim.new")
        .iter()
        .map(|&i| tr.spans[i].secs())
        .collect();
    values.insert(
        "sim.new_us".into(),
        new_spans.iter().sum::<f64>() / new_spans.len().max(1) as f64 * 1e6,
    );
    let run_secs: Vec<f64> = run_spans.iter().map(|(_, s)| *s).collect();
    values.insert("sim.run_us".into(), median(&run_secs) * 1e6);
    values.insert(
        "sim.mips".into(),
        total(&|t| t.instrs as f64) / run_secs.iter().sum::<f64>() / 1e6,
    );
    for label in ["U", "C", "H", "B", "A"] {
        let instrs = mode(label).map_or(0, |t| t.instrs);
        values.insert(
            format!("sim.mips.{label}"),
            instrs as f64 / mode_secs(label) / 1e6,
        );
    }
    for label in ["U", "C", "B", "A"] {
        let t = mode(label);
        let (slots, c) = t.map(|t| (t.slots, t.counters.clone())).unwrap_or_default();
        let attempts = c.epochs_committed + c.epochs_squashed;
        values.insert(
            format!("sim.squash_frac.{label}"),
            ratio(c.epochs_squashed, attempts),
        );
        values.insert(
            format!("sim.fail_frac.{label}"),
            ratio(slots.fail, slots.total()),
        );
    }
    // U inserts no memory synchronization, so it has no sync slots or
    // forwarded values to report.
    for label in ["C", "B", "A"] {
        let t = mode(label);
        let slots = t.map(|t| t.slots).unwrap_or_default();
        let forwards = t.map_or(0, |t| t.counters.signal_recvs_mem);
        values.insert(
            format!("sim.sync_frac.{label}"),
            ratio(slots.sync, slots.total()),
        );
        values.insert(format!("sim.forwards.{label}"), forwards as f64);
    }
    values.insert("sim.minstr".into(), total(&|t| t.instrs as f64) / 1e6);
    let mut all = MachineCounters::default();
    for t in modes.values() {
        all.merge(&t.counters);
    }
    values.insert("sim.l1_hit_rate".into(), all.l1_hit_rate());
    values.insert("core.sync_loads".into(), sync_loads as f64);
    values.insert("core.clones".into(), clones as f64);
    values.insert("core.code_growth".into(), growth.iter().sum::<f64>() / n);
    values.insert("input.with_regions_frac".into(), with_regions as f64 / n);
    values.insert("input.with_sync_loads_frac".into(), with_sync as f64 / n);
    values.insert(
        "input.with_violations_frac".into(),
        with_violations as f64 / n,
    );

    // The registry's own `prep` timer wraps the same calls; a large gap
    // would mean the spans here measure something else.
    let prep = secs("harness.prep");
    if (prep_registry - prep).abs() > 0.05 * prep {
        problems.push(format!(
            "harness.prep_s {prep:.4} s disagrees with the metrics registry's prep total {prep_registry:.4} s"
        ));
    }
}

/// A campaign worker process that is killed and reaped however the probe
/// ends.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker, String> {
        let (exe, args) = cmd.split_first().ok_or("empty worker command")?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, msg: &ToWorker) -> Result<(), String> {
        writeln!(self.stdin, "{}", msg.encode())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("worker stdin: {e}"))
    }

    fn recv(&mut self) -> Result<FromWorker, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("worker closed its stdout".into()),
            Ok(_) => FromWorker::parse(line.trim()),
            Err(e) => Err(format!("worker stdout: {e}")),
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.send(&ToWorker::Shutdown)?;
        while !matches!(self.recv()?, FromWorker::Bye) {}
        Ok(())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The campaign layers, probed the same way on every workload: worker
/// spawn until its hello, one shard's round trip against the same seeds
/// checked in-process, and sealed journal appends.
pub fn orchestration(p: &Params, tr: &mut Tracer, values: &mut Values, problems: &mut Vec<String>) {
    if let Err(e) = orchestration_inner(p, tr, values) {
        problems.push(format!("orchestration probe: {e}"));
    }
}

fn orchestration_inner(p: &Params, tr: &mut Tracer, values: &mut Values) -> Result<(), String> {
    let seeds: Vec<u64> = p
        .seeds()?
        .into_iter()
        .take(p.shard_size() as usize)
        .collect();
    let mut spawn_ms = Vec::new();
    let mut probe_worker = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut w = tr.span("worker.spawn", "", |_| -> Result<Worker, String> {
            let mut w = Worker::spawn(&p.worker_cmd())?;
            match w.recv()? {
                FromWorker::Hello { .. } => Ok(w),
                other => Err(format!("expected hello, got {other:?}")),
            }
        })?;
        spawn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match probe_worker {
            None => probe_worker = Some(w),
            Some(_) => w.send(&ToWorker::Shutdown)?,
        }
    }
    values.insert("worker.spawn_ms".into(), median(&spawn_ms));

    let mut w = probe_worker.expect("three workers spawned");
    let job = ToWorker::Job(Job {
        shard: 0,
        attempt: 0,
        seed0: seeds[0],
        count: seeds.len() as u64,
        index0: 0,
        crash_at: None,
        spec: JobSpec::Fuzz {
            family: GenFamily::Baseline,
            break_forwarding: false,
        },
    });
    let t0 = Instant::now();
    let remote = tr.span("worker.shard", "", |_| -> Result<ShardStats, String> {
        w.send(&job)?;
        loop {
            match w.recv()? {
                FromWorker::Result { stats, .. } => return Ok(stats),
                FromWorker::Error { detail, .. } => return Err(detail),
                _ => {}
            }
        }
    })?;
    let round_trip = t0.elapsed().as_secs_f64();
    w.shutdown()?;

    let cfg = fuzz_config();
    let t0 = Instant::now();
    let mut local = ShardStats::default();
    tr.span("orchestrate.in_process", "", |_| {
        for &s in &seeds {
            fold_seed(&mut local, s, &fuzz::check_seed(s, &cfg));
        }
    });
    let in_process = t0.elapsed().as_secs_f64();
    if remote != local {
        return Err(format!(
            "worker shard stats {} differ from in-process {}",
            remote.to_json(),
            local.to_json()
        ));
    }
    values.insert("worker.shard_ms".into(), round_trip * 1e3);
    values.insert(
        "orchestrate.overhead_frac".into(),
        1.0 - in_process / round_trip,
    );

    let path = p.tmp.join("probe.journal");
    let payload = format!("done shard=0 {}", local.to_json());
    let mut append_ms = Vec::new();
    for i in 0..40 {
        let t0 = Instant::now();
        tr.span("journal.append", i.to_string(), |_| {
            append_line(&path, &seal_line(&payload))
        })
        .map_err(|e| format!("journal append: {e}"))?;
        append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    values.insert(
        "journal.append_ms".into(),
        append_ms.iter().sum::<f64>() / append_ms.len() as f64,
    );
    Ok(())
}
