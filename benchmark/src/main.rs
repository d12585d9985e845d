//! Same-host layered benchmark of the TLS reproduction.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!               [--trace-out F] [--out F] [--smoke]
//! benchmark worker
//! benchmark calibrate
//! ```
//!
//! `run --workload W` measures one workload in this process: set-up
//! (repeated at least five times; the median is `setup_s`), one warm-up
//! round, then timed rounds with tracing off until `--seconds` have passed,
//! then one pass for the exact region speedups. A fixed reference task
//! timed around every round and batch of set-ups corrects the times for
//! host speed (see `calib`). With
//! `--trace 1` a serial traced round and the per-layer probes follow, and
//! the result line carries the per-layer metrics instead of the end-to-end
//! ones. Without `--workload`, every workload runs in a fresh child
//! process of this binary, so peak RSS and allocator state are per
//! workload. The last line of standard output is the JSON result; the exit
//! code is 0 only when every output checked out.
//!
//! `worker` serves the campaign worker protocol, so the campaign-fuzz
//! workload needs no separately built `repro`; `calibrate` runs the
//! host-speed reference task once and prints its time.

mod calib;
mod json;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use tls_experiments::metrics;
use tls_sim::{parse_json, validate_perfetto, Json};

use report::{Values, END_TO_END, PER_LAYER};
use trace::{chrome_document, Tracer};
use workloads::{Kind, Params, Round, KINDS};

const USAGE: &str = "usage: benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--trace-out F] [--out F] [--smoke]\n       benchmark worker\n       benchmark calibrate";

/// Set-up repetitions per run: at least `SETUPS`, and more while they add
/// up to less than `SETUP_MIN_S`, up to `SETUPS_MAX`, so that the median of
/// a set-up of a few tens of milliseconds (`setup_s`) is as steady as that
/// of one of a second.
const SETUPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUPS_MAX: usize = 60;

struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                cli.workload =
                    Some(Kind::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => cli.trace_out = Some(value()?.into()),
            "--out" => cli.out = Some(value()?.into()),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_cli(rest) {
            Ok(cli) => match cli.workload {
                Some(kind) => run_one(kind, &cli),
                None => run_all(&cli),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some((cmd, [])) if cmd == "calibrate" => {
            println!("{}", calib::task());
            0
        }
        Some((cmd, [])) if cmd == "worker" => {
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            match tls_experiments::worker::serve(stdin.lock(), stdout.lock()) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("worker: {e}");
                    3
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn own_exe() -> Result<String, String> {
    std::env::current_exe()
        .map(|p| p.display().to_string())
        .map_err(|e| format!("cannot locate own executable: {e}"))
}

/// Everything one workload run reports.
struct Measured {
    lines: Vec<String>,
    result: String,
    correct: bool,
}

/// Operation counts, digests and problems accumulated over a run's rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: Vec<u64>,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, r: Round) {
        self.attempted += r.ops;
        self.failed += r.failed;
        self.digests.push(r.digest);
        self.problems.extend(r.problems.into_iter().take(5));
    }
}

fn run_one(kind: Kind, cli: &Cli) -> i32 {
    let tmp = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".tmp")
        .join(format!("{}-{}", kind.name(), std::process::id()));
    let measured = own_exe().and_then(|exe| {
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let params = Params {
            smoke: cli.smoke,
            seed: cli.seed,
            jobs: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(2),
            tmp: tmp.clone(),
            exe,
        };
        measure(kind, &params, cli)
    });
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match measured {
        Ok(m) => {
            for l in &m.lines {
                println!("{l}");
            }
            println!("{}", m.result);
            if let Some(path) = &cli.out {
                if let Err(e) = std::fs::write(path, format!("{}\n", m.result)) {
                    eprintln!("write {}: {e}", path.display());
                    return 1;
                }
            }
            i32::from(!m.correct)
        }
        Err(e) => {
            eprintln!("benchmark {}: {e}", kind.name());
            1
        }
    }
}

fn measure(kind: Kind, p: &Params, cli: &Cli) -> Result<Measured, String> {
    let mut tally = Tally::default();
    // Every set-up and round lies between two reference samples (see
    // `calib`); each is timed as (wall seconds, index of the sample taken
    // just before it), and the next sample is taken just after it.
    let mut reference_s = Vec::new();
    let mut setups: Vec<(f64, usize)> = Vec::new();
    let mut state = None;
    while setups.is_empty()
        || (!p.smoke
            && (setups.len() < SETUPS
                || (setups.iter().map(|s| s.0).sum::<f64>() < SETUP_MIN_S
                    && setups.len() < SETUPS_MAX)))
    {
        drop(state.take());
        if setups.len().is_multiple_of(SETUPS) {
            reference_s.push(calib::sample(&p.exe, p.jobs)?);
        }
        let t0 = Instant::now();
        state = Some(workloads::setup(kind, p)?);
        setups.push((t0.elapsed().as_secs_f64(), reference_s.len() - 1));
    }
    let state = state.expect("at least one set-up");

    // Peak RSS is read after set-up and one round: later rounds only add
    // allocator growth that depends on how many rounds the host's speed let
    // the timed phase fit in.
    let mut peak_rss_kb = None;
    if !p.smoke {
        reference_s.push(calib::sample(&p.exe, p.jobs)?);
        tally.add(workloads::round(
            kind,
            &state,
            p,
            &mut Tracer::off(),
            p.jobs,
        ));
        peak_rss_kb = metrics::peak_rss_kb();
    }
    let mut rounds: Vec<(f64, usize)> = Vec::new();
    let mut ops = Vec::new();
    let t0 = Instant::now();
    while rounds.is_empty() || (!p.smoke && t0.elapsed().as_secs_f64() < cli.seconds) {
        reference_s.push(calib::sample(&p.exe, p.jobs)?);
        let t = Instant::now();
        let r = workloads::round(kind, &state, p, &mut Tracer::off(), p.jobs);
        rounds.push((t.elapsed().as_secs_f64(), reference_s.len() - 1));
        ops.push(r.ops as f64);
        tally.add(r);
    }
    reference_s.push(calib::sample(&p.exe, p.jobs)?);
    let peak_rss_kb = peak_rss_kb
        .or_else(metrics::peak_rss_kb)
        .ok_or("peak RSS is unavailable (no /proc/self/status)")?;

    // The end-to-end times are in seconds of the nominal host (see `calib`).
    let nominal = |timed: &[(f64, usize)]| -> Vec<f64> {
        timed
            .iter()
            .map(|&(secs, at)| calib::nominal(secs, reference_s[at], reference_s[at + 1]))
            .collect()
    };
    let (setup_s, round_s) = (nominal(&setups), nominal(&rounds));
    let ops_per_s: Vec<f64> = ops.iter().zip(&round_s).map(|(n, s)| n / s).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let round_wall: Vec<f64> = rounds.iter().map(|r| r.0).collect();
    let host = stats::median(&reference_s) / calib::NOMINAL_S;
    let round_wall_s = stats::median(&round_wall);
    let mut values = Values::new();
    values.insert("setup_s".into(), stats::median(&setup_s));
    values.insert("round_s".into(), stats::median(&round_s));
    values.insert("ops_per_s".into(), stats::median(&ops_per_s));
    values.insert("bench.host_factor".into(), host);
    values.insert("bench.round_wall_s".into(), round_wall_s);
    values.insert("peak_rss_mb".into(), peak_rss_kb as f64 / 1024.0);
    match workloads::region_speedups(&state, p) {
        Ok(speedups) => values.extend(speedups),
        Err(e) => tally.problems.push(format!("region speedups: {e}")),
    }

    let mut lines = vec![
        format!(
            "benchmark {}: seed {}, {} thread(s), {} set-up(s), {}{} timed round(s)",
            kind.name(),
            p.seed,
            p.jobs,
            setup_s.len(),
            if p.smoke { "" } else { "warm-up + " },
            round_s.len()
        ),
        format!("  set-up s (wall):    {}", summary(&setup_wall)),
        format!("  set-up s (nominal): {}", summary(&setup_s)),
        format!("  round  s (wall):    {}", join(&round_wall)),
        format!("  round  s (nominal): {}", join(&round_s)),
        format!("  round  s (nominal): {}", summary(&round_s)),
        format!(
            "  reference task s: {} (host {host:.3}x slower than nominal)",
            join(&reference_s)
        ),
    ];
    if kind == Kind::CampaignFuzz {
        lines
            .push("  peak_rss_mb is the orchestrator process only; workers are not counted".into());
    }

    if cli.trace || cli.trace_out.is_some() {
        let t = traced(kind, p, &state, round_wall_s, cli.trace_out.as_deref());
        tally.add(t.round);
        tally.problems.extend(t.problems);
        values.extend(t.values);
        lines.extend(t.lines);
    }

    let digest = tally.digests[0];
    if tally.digests.iter().any(|&d| d != digest) {
        tally.problems.push(format!(
            "sim_digest differs between rounds: {:x?}",
            tally.digests
        ));
    }
    let correct = tally.problems.is_empty() && tally.failed == 0;
    lines.push(format!("sim_digest {digest:016x}"));
    lines.push(format!(
        "  attempted {} operation(s), failed {}",
        tally.attempted, tally.failed
    ));
    let defs: &[report::MetricDef] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    lines.push(format!(
        "{} metrics:",
        if cli.trace { "per-layer" } else { "end-to-end" }
    ));
    lines.extend(report::describe(defs, &values));
    for problem in &tally.problems {
        lines.push(format!("PROBLEM: {problem}"));
    }
    let result = report::result_line(correct, tally.attempted, tally.failed, defs, &values)
        .map_err(|e| {
            [e].into_iter()
                .chain(tally.problems)
                .collect::<Vec<_>>()
                .join("; ")
        })?;
    Ok(Measured {
        lines,
        result,
        correct,
    })
}

/// What the traced round and the layer probes produced.
struct Traced {
    round: Round,
    values: Values,
    lines: Vec<String>,
    problems: Vec<String>,
}

/// The traced round at one thread, then the per-layer probes; `round_s` is
/// the untraced median wall time it is compared with.
fn traced(
    kind: Kind,
    p: &Params,
    state: &workloads::State,
    round_s: f64,
    trace_out: Option<&Path>,
) -> Traced {
    let mut tr = Tracer::on();
    let round = tr.span("round", kind.name(), |tr| {
        workloads::round(kind, state, p, tr, 1)
    });
    let wall = tr.spans[0].secs();
    let coverage = tr.coverage(0);
    let mut values = Values::new();
    let mut problems = Vec::new();
    if coverage < 0.95 {
        problems.push(format!(
            "top-level spans cover only {:.1}% of the traced round",
            coverage * 100.0
        ));
    }
    values.insert("bench.traced_round_s".into(), wall);
    values.insert("par.speedup".into(), wall / round_s);
    values.insert("bench.span_coverage".into(), coverage);
    values.insert(
        "bench.trace_overhead_frac".into(),
        span_cost() * tr.spans.len() as f64 / wall,
    );
    tr.span("probes", kind.name(), |tr| {
        probe::pipeline(kind, p, tr, &mut values, &mut problems);
        probe::orchestration(p, tr, &mut values, &mut problems);
    });

    let mut lines = Vec::new();
    for (name, what) in [("sim.run", "mode run"), ("fuzz.check_seed", "seed check")] {
        let ms: Vec<f64> = tr
            .named(name)
            .iter()
            .map(|&i| tr.spans[i].secs() * 1e3)
            .collect();
        let cuts: Vec<String> = stats::reportable_percentiles(ms.len())
            .into_iter()
            .map(|q| format!("p{q}={:.3}", stats::percentile(&ms, q)))
            .collect();
        if !cuts.is_empty() {
            lines.push(format!("  {what} ms: {} (n={})", cuts.join(" "), ms.len()));
        }
    }
    let mut by_name = BTreeMap::<&str, f64>::new();
    for i in (0..tr.spans.len()).filter(|&i| tr.spans[i].parent == Some(0)) {
        *by_name.entry(tr.spans[i].name.as_str()).or_default() += tr.self_time(i);
    }
    let top: Vec<String> = by_name
        .into_iter()
        .map(|(name, s)| format!("{name}={s:.3}"))
        .collect();
    lines.push(format!(
        "  traced round {wall:.3} s, self time by span: {}",
        top.join(" ")
    ));

    let doc = chrome_document(&tr.chrome_events(kind.pid(), kind.name()));
    if let Err(e) = validate_perfetto(&doc) {
        problems.push(format!("trace export is invalid: {e}"));
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, doc) {
            problems.push(format!("write {}: {e}", path.display()));
        }
    }
    Traced {
        round,
        values,
        lines,
        problems,
    }
}

/// Host time one recorded span costs, seconds.
fn span_cost() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::on();
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("calibrate", "detail", |_| ());
    }
    t0.elapsed().as_secs_f64() / f64::from(N)
}

/// Median, quartiles and spread of `xs`, for the report.
fn summary(xs: &[f64]) -> String {
    let median = stats::median(xs);
    match (stats::quartiles(xs), stats::spread(xs)) {
        (Some((q1, q3)), Some(spread)) => format!(
            "median {median:.4}, q1 {q1:.4}, q3 {q3:.4}, spread {:.2}% (n={})",
            spread * 100.0,
            xs.len()
        ),
        _ => format!("median {median:.4} (n={})", xs.len()),
    }
}

fn join(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every workload in a child process of this binary; fuzz-diff and
/// campaign-fuzz must agree on the digest of the same seeds.
fn run_all(cli: &Cli) -> i32 {
    let exe = match own_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut results = Vec::new();
    let mut digests = BTreeMap::new();
    let mut trace_parts = Vec::new();
    for kind in KINDS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", kind.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if cli.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &cli.trace_out {
            let part = PathBuf::from(format!("{}.{}", out.display(), kind.name()));
            cmd.arg("--trace-out").arg(&part);
            trace_parts.push(part);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("run {}: {e}", kind.name());
                return 1;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        correct &= output.status.success();
        if let Some(d) = text.lines().find_map(|l| l.strip_prefix("sim_digest ")) {
            digests.insert(kind.name(), d.to_string());
        }
        let last = text.lines().last().unwrap_or_default();
        match parse_json(last) {
            Ok(j) => {
                let num = |k: &str| j.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
                attempted += num("attempted");
                failed += num("failed");
                results.push(format!("{}:{last}", json::string(kind.name())));
            }
            Err(_) => correct = false,
        }
    }
    if digests.get("fuzz-diff") != digests.get("campaign-fuzz") {
        println!("PROBLEM: fuzz-diff and campaign-fuzz digests of the same seeds differ");
        correct = false;
    }
    if let Some(out) = &cli.trace_out {
        if let Err(e) = merge_traces(&trace_parts, out) {
            println!("PROBLEM: {e}");
            correct = false;
        }
    }
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"workloads\":{{{}}}}}",
        results.join(",")
    );
    println!("{line}");
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("write {}: {e}", path.display());
            return 1;
        }
    }
    i32::from(!correct)
}

/// Merge per-workload trace files (one `pid` each) into one document.
fn merge_traces(parts: &[PathBuf], out: &Path) -> Result<(), String> {
    let mut events: Vec<(f64, String)> = Vec::new();
    for part in parts {
        let text =
            std::fs::read_to_string(part).map_err(|e| format!("read {}: {e}", part.display()))?;
        let _ = std::fs::remove_file(part);
        let doc = parse_json(&text)?;
        let Some(Json::Arr(evs)) = doc.get("traceEvents") else {
            return Err(format!("{}: no traceEvents", part.display()));
        };
        for ev in evs {
            let ts = ev.get("ts").and_then(Json::as_num).unwrap_or(0.0);
            events.push((ts, json::render(ev)));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let doc = chrome_document(&events.into_iter().map(|(_, e)| e).collect::<Vec<_>>());
    validate_perfetto(&doc)?;
    std::fs::write(out, doc).map_err(|e| format!("write {}: {e}", out.display()))
}
