//! Golden snapshots of every figure/table at Quick scale, the
//! machine-counter exports and the simulator's exactness fingerprints.
//!
//! The committed JSON under `tests/golden/` is the exact `repro <target>
//! --quick --out` payload; any change to the pipeline, the simulator or
//! the table rendering that shifts a number shows up as a byte diff here.
//! `tests/golden/counters/` pins `repro metrics` the same way, and
//! `tests/golden/sim_fingerprints.json` pins the raw simulated numbers of
//! every program × mode run. Release builds also pin the full-scale
//! `repro all` output, `results/repro_all_ref.txt`. Refresh intentionally
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! UPDATE_GOLDEN=1 cargo test --release --test golden
//! ```

use std::path::PathBuf;

use tls_repro::experiments::attrib::attribute;
use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::journal::fnv64;
use tls_repro::experiments::metrics::{counters_json, counters_prometheus};
use tls_repro::experiments::{figures, par, Harness, Mode, Scale, MODES};
use tls_repro::ir::{generate, serial, GenConfig, GenFamily};
use tls_repro::sim::{
    events_to_json, perfetto_json, AdaptConfig, FaultClass, FaultPlan, Mutation, NullTracer,
    RecordingTracer, SimResult, Tracer,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn figures_match_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let workloads = tls_repro::workloads::all();
    let harnesses = Harness::prepare_all(&workloads, Scale::Quick).expect("prepare workloads");
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut stale: Vec<String> = Vec::new();
    for target in figures::TARGETS {
        let table = figures::by_name(target, &harnesses)
            .expect("known target")
            .unwrap_or_else(|e| panic!("{target} failed: {e}"));
        let want = format!("{}\n", table.to_json());
        let path = dir.join(format!("{target}.json"));
        if update {
            std::fs::write(&path, &want).expect("write golden");
            continue;
        }
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable ({e}); run UPDATE_GOLDEN=1", path.display()));
        if got != want {
            stale.push(target.to_string());
        }
    }
    assert!(
        stale.is_empty(),
        "golden snapshots differ for {stale:?}; inspect the diff and refresh \
         with UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

/// The full-scale pin: `results/repro_all_ref.txt` is the exact stdout of
/// `repro all`, every [`figures::TARGETS`] entry rendered at
/// [`Scale::Full`] and followed by a blank line. The quick-scale snapshots
/// above never reach the ref inputs, so this is what holds the published
/// numbers still. Ref scale takes seconds in a release build and far longer
/// in a debug one, so only release builds run it.
#[cfg(not(debug_assertions))]
#[test]
fn full_scale_output_matches_results_file() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let harnesses =
        Harness::prepare_all(&tls_repro::workloads::all(), Scale::Full).expect("prepare workloads");
    let mut want = String::new();
    for target in figures::TARGETS {
        let table = figures::by_name(target, &harnesses)
            .expect("known target")
            .unwrap_or_else(|e| panic!("{target} failed: {e}"));
        want.push_str(&format!("{table}\n"));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/repro_all_ref.txt");
    if update {
        std::fs::write(&path, &want).expect("write results/repro_all_ref.txt");
        return;
    }
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable ({e}); run UPDATE_GOLDEN=1", path.display()));
    let first = want
        .lines()
        .zip(got.lines())
        .position(|(w, g)| w != g)
        .map_or_else(
            || "past the shorter file".to_string(),
            |i| format!("{}", i + 1),
        );
    assert!(
        got == want,
        "repro all output differs from {} (first at line {first}; {} vs {} lines); inspect \
         the diff and refresh with UPDATE_GOLDEN=1 cargo test --release --test golden",
        path.display(),
        want.lines().count(),
        got.lines().count()
    );
}

/// Golden snapshots of the `repro metrics` machine-counter exports.
///
/// `tests/golden/counters/<bench>_<mode>.json` and `.prom` are the exact
/// `repro metrics <bench> --quick --mode <mode> --out/--prom` payloads,
/// stored as written (no trailing newline is added). Two generated programs
/// widen the row coverage: fuzz seed 1 under C reaches the scalar-channel
/// rows, and phase-shift seed 16 under U with a 100-cycle adaptive window
/// (the `trace_invariants.rs` set-up) reaches `adapt.reprofiles`. Together
/// the set drives 39 of the 40 counter rows off zero; the one it misses is
/// `cache.spec_line_evictions`, which stays 0 on every workload tried, even
/// at `ref:1x4` on mcf, gzip_decomp, go and parser.
#[test]
fn counter_exports_match_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir().join("counters");
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden/counters");
    }
    let mut payloads: Vec<(String, String)> = Vec::new();
    for (bench, label) in [
        ("ijpeg", "C"),
        ("parser", "C"),
        ("parser", "A-U"),
        ("go", "A"),
        ("go", "B"),
        ("mcf", "P"),
        ("gap", "U"),
    ] {
        let w = tls_repro::workloads::by_name(bench).expect("workload exists");
        let h = Harness::new(w, Scale::Quick).expect("harness builds");
        let mode = Mode::from_label(label).expect("known mode");
        let r = h
            .run_counted(mode)
            .unwrap_or_else(|e| panic!("{bench}/{label}: {e}"));
        let c = r.counters.as_deref().expect("counted run has a bank");
        let scale = Scale::Quick.label();
        payloads.push((
            format!("{bench}_{label}.json"),
            counters_json(bench, label, &scale, c),
        ));
        payloads.push((
            format!("{bench}_{label}.prom"),
            counters_prometheus(bench, label, c),
        ));
    }
    let fuzz = FuzzConfig::default();
    let phase = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    let window = AdaptConfig {
        window: 100,
        ..AdaptConfig::default()
    };
    for (name, cfg, seed, mode, adapt) in [
        ("fuzz-1", &fuzz, 1, Mode::CompilerRef, None),
        ("phase-shift-16", &phase, 16, Mode::Unsync, Some(window)),
    ] {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let mut h = Harness::from_modules(name, &measure, Some(&train), &cfg.compile_options())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        h.base.max_steps = cfg.max_sim_steps;
        h.base.adapt = adapt;
        let r = h
            .run_counted(mode)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let c = r.counters.as_deref().expect("counted run has a bank");
        let label = mode.label();
        payloads.push((
            format!("{name}_{label}.json"),
            counters_json(name, &label, "generated", c),
        ));
    }
    let mut stale: Vec<String> = Vec::new();
    for (file, want) in payloads {
        let path = dir.join(&file);
        if update {
            std::fs::write(&path, &want).expect("write golden");
            continue;
        }
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable ({e}); run UPDATE_GOLDEN=1", path.display()));
        if got != want {
            stale.push(file);
        }
    }
    assert!(
        stale.is_empty(),
        "counter exports differ for {stale:?}; inspect the diff and refresh \
         with UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

/// One line of `sim_fingerprints.json`: the numbers a run's figures and
/// benchmark digests are built from, with the output stream and the final
/// memory reduced to FNV-1a digests.
fn fingerprint(r: &SimResult) -> String {
    let regions: Vec<String> = r
        .regions
        .iter()
        .map(|(rid, s)| {
            format!(
                "[{},{},{},{},{},{}]",
                rid.0, s.epochs, s.slots.busy, s.slots.fail, s.slots.sync, s.slots.other
            )
        })
        .collect();
    let output: Vec<u8> = r.output.iter().flat_map(|v| v.to_le_bytes()).collect();
    let memory: Vec<u8> = r
        .memory
        .words()
        .into_iter()
        .flat_map(|(a, v)| a.to_le_bytes().into_iter().chain(v.to_le_bytes()))
        .collect();
    format!(
        "{{\"total_cycles\":{},\"sequential_cycles\":{},\"instructions\":{},\
         \"violations\":{},\"max_signal_buffer\":{},\"regions\":[{}],\
         \"output\":\"{:016x}\",\"memory\":\"{:016x}\"",
        r.total_cycles,
        r.sequential_cycles,
        r.instructions,
        r.total_violations,
        r.max_signal_buffer,
        regions.join(","),
        fnv64(&output),
        fnv64(&memory),
    )
}

/// Exactness fingerprints: every workload at Quick scale and fuzz seeds
/// 1–4 under all 21 [`MODES`], plus the knobs no mode sets (`word_grain`,
/// `relay_forwarding`, two cores) on parser, m88ksim and fuzz seed 1, plus
/// the faulted runs of [`perturbations`].
///
/// Each run goes through the release benchmark's `NullTracer` path, and a
/// counted run of the same mode must return the same result. For parser
/// and fuzz seed 1 the digest of the recorded event stream is pinned too.
/// A change to the simulator that is meant to leave timing alone must leave
/// every line in place; any shift in simulated timing, squashes, outputs or
/// memory shows up as a named line.
#[test]
fn simulation_fingerprints_match_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let fuzz = FuzzConfig::default();
    let mut harnesses =
        Harness::prepare_all(&tls_repro::workloads::all(), Scale::Quick).expect("prepare");
    harnesses.extend((1..=4).map(|seed| {
        let measure = generate(seed, &fuzz.gen, 0);
        let train = generate(seed, &fuzz.gen, 1);
        let name = format!("fuzz-{seed}");
        let mut h = Harness::from_modules(name, &measure, Some(&train), &fuzz.compile_options())
            .unwrap_or_else(|e| panic!("fuzz seed {seed}: {e}"));
        h.base.max_steps = fuzz.max_sim_steps;
        h
    }));
    let per_program = par::par_map(harnesses.iter_mut().collect(), |_, h: &mut Harness| {
        let mut lines = Vec::new();
        let events = h.name == "parser" || h.name == "fuzz-1";
        for &mode in MODES.iter() {
            lines.push(fingerprint_line(h, "base", mode, events));
        }
        if matches!(h.name.as_str(), "parser" | "m88ksim" | "fuzz-1") {
            let base = h.base.clone();
            for config in ["word_grain", "relay_forwarding", "cores2"] {
                h.base = base.clone();
                match config {
                    "word_grain" => h.base.word_grain = true,
                    "relay_forwarding" => h.base.relay_forwarding = true,
                    _ => h.base.cores = 2,
                }
                for mode in [Mode::Unsync, Mode::CompilerRef, Mode::HwSync, Mode::Hybrid] {
                    lines.push(fingerprint_line(h, config, mode, false));
                }
            }
            h.base = base;
        }
        for (p, mode) in perturbations(&h.name) {
            lines.push(perturbed_line(h, p, mode));
        }
        lines
    });
    let lines: Vec<String> = per_program.into_iter().flatten().collect();

    let want = format!("{{\n{}\n}}\n", lines.join(",\n"));
    let path = golden_dir().join("sim_fingerprints.json");
    if update {
        std::fs::write(&path, &want).expect("write golden");
        return;
    }
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable ({e}); run UPDATE_GOLDEN=1", path.display()));
    let stale: Vec<&str> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, _)| w.split('"').nth(1).unwrap_or(w))
        .collect();
    assert!(
        got == want,
        "simulation fingerprints differ ({} of {} lines; first {:?}); inspect the \
         diff and refresh with UPDATE_GOLDEN=1 cargo test --test golden",
        stale.len(),
        want.lines().count(),
        &stale[..stale.len().min(8)]
    );
}

/// The Perfetto timeline and the attribution report of one traced run
/// (`repro trace parser --mode U --quick`), pinned by length and fnv64.
#[test]
fn trace_exports_match_pinned_digests() {
    let w = tls_repro::workloads::by_name("parser").expect("workload exists");
    let h = Harness::new(w, Scale::Quick).expect("harness builds");
    let mut rec = RecordingTracer::default();
    let result = h.run_traced(Mode::Unsync, &mut rec).expect("traced run");
    let digest = |doc: &str| (doc.len(), format!("{:016x}", fnv64(doc.as_bytes())));
    let perfetto = perfetto_json(&rec.events);
    assert_eq!(digest(&perfetto), (482399, "b74277a2ecba1bcb".to_string()));
    let attribution = attribute(&rec.events).to_json("parser", "U", result.total_violations);
    assert_eq!(
        digest(&attribution),
        (27113, "fb861f14cb85a352".to_string())
    );
}

/// The generator's program text for every family preset: seeds 1–3, each
/// on data salts 0 and 1, pinned per family by total length and fnv64 of
/// the concatenated `serial::to_text` output. Only Baseline and PhaseShift
/// programs reach the simulation fingerprints, so a drift in any other
/// preset shows up here first.
#[test]
fn generated_programs_match_pinned_digests() {
    let got: Vec<(&str, usize, String)> = GenFamily::ALL
        .iter()
        .map(|&family| {
            let cfg = GenConfig::for_family(family);
            let text: String = (1..=3u64)
                .flat_map(|seed| [0, 1].map(|salt| serial::to_text(&generate(seed, &cfg, salt))))
                .collect();
            let hash = format!("{:016x}", fnv64(text.as_bytes()));
            (family.label(), text.len(), hash)
        })
        .collect();
    let want = [
        ("baseline", 21665, "e6b97705ccf18fed"),
        ("phase_shift", 14351, "043dbeebee02980c"),
        ("false_sharing", 14443, "9120b11298a433d9"),
        ("deep_clone", 17955, "223419ad07bcf517"),
        ("mixed_nests", 18959, "99cb7e46383063a7"),
    ];
    let want: Vec<(&str, usize, String)> = want
        .iter()
        .map(|&(f, n, h)| (f, n, h.to_string()))
        .collect();
    assert_eq!(got, want);
}

/// Run `mode` on the `NullTracer` path, check that a counted run agrees,
/// and render the `"program/config/mode": {...}` fingerprint line (with the
/// event-stream digest when `events` is set).
fn fingerprint_line(h: &Harness, config: &str, mode: Mode, events: bool) -> String {
    let key = format!("{}/{config}/{}", h.name, mode.label());
    let mut plain = h
        .run_traced(mode, &mut NullTracer)
        .unwrap_or_else(|e| panic!("{key}: {e}"));
    let mut line = format!("\"{key}\": {}", fingerprint(&plain));
    let mut counted = h.run_counted(mode).unwrap_or_else(|e| panic!("{key}: {e}"));
    counted.counters = None;
    assert!(
        counted.memory.same_words(&plain.memory),
        "{key}: counted run's memory differs"
    );
    counted.memory = Default::default();
    plain.memory = Default::default();
    assert_eq!(
        format!("{counted:?}"),
        format!("{plain:?}"),
        "{key}: counted run differs from the NullTracer run"
    );
    if events {
        let mut rec = RecordingTracer::default();
        h.run_traced(mode, &mut rec)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        let json = events_to_json(&rec.events);
        line.push_str(&format!(",\"events\":\"{:016x}\"", fnv64(json.as_bytes())));
    }
    line.push('}');
    line
}

/// A perturbed run pinned in `sim_fingerprints.json`: a seeded plan for
/// one fault class at rate 1.0 and budget 8, or one of the three test-only
/// protocol mutations.
#[derive(Clone, Copy, Debug)]
enum Perturbation {
    Plan(FaultClass, u64),
    Mutation(Mutation),
}

/// The faulted runs pinned for `program`. On go under C: every fault class
/// that fires there, seeded as `repro inject go --mode C --faults both
/// --seed 1` seeds it, and the read-marking mutation under the three modes
/// `tests/conformance.rs` uses. On parser: the prediction class under P and
/// the adaptive mutation under A-U. On fuzz seed 1: the forwarding mutation
/// under T, the mode `repro fuzz --break-forwarding` fails it in.
fn perturbations(program: &str) -> Vec<(Perturbation, Mode)> {
    match program {
        "go" => {
            let mut runs: Vec<(Perturbation, Mode)> = FaultClass::ALL
                .into_iter()
                .enumerate()
                .filter(|&(_, class)| class != FaultClass::CorruptPrediction)
                .map(|(k, class)| (Perturbation::Plan(class, 1 + k as u64), Mode::CompilerRef))
                .collect();
            for mode in [Mode::CompilerRef, Mode::CompilerTrain, Mode::HybridFiltered] {
                runs.push((Perturbation::Mutation(Mutation::SkipExposedRead), mode));
            }
            runs
        }
        "parser" => vec![
            (
                Perturbation::Plan(FaultClass::CorruptPrediction, 1),
                Mode::HwPredict,
            ),
            (
                Perturbation::Mutation(Mutation::SkipPredictionVerify),
                Mode::AdaptiveUnsync,
            ),
        ],
        "fuzz-1" => vec![(
            Perturbation::Mutation(Mutation::SkipForwardRecheck),
            Mode::CompilerTrain,
        )],
        _ => Vec::new(),
    }
}

/// Run `mode` under `p` with `tracer`; returns the result and the plan's
/// injection count. Maskable plans keep the output check; contract plans
/// and mutations corrupt state on purpose, so their runs are unchecked.
fn perturbed_run<T: Tracer>(
    h: &Harness,
    mode: Mode,
    p: Perturbation,
    tracer: &mut T,
) -> (SimResult, u64) {
    let key = format!("{}/{p:?}/{}", h.name, mode.label());
    let (run, injected) = match p {
        Perturbation::Plan(class, seed) => {
            let mut plan = FaultPlan::seeded(seed, &[class], 1.0, 8);
            let run = if class.is_maskable() {
                h.run_traced(mode, &mut plan.over(tracer))
            } else {
                h.run_unchecked(mode, &mut plan.over(tracer))
            };
            (run, plan.count(class))
        }
        Perturbation::Mutation(m) => (
            h.run_unchecked(mode, &mut FaultPlan::mutation(m).over(tracer)),
            0,
        ),
    };
    (run.unwrap_or_else(|e| panic!("{key}: {e}")), injected)
}

/// Render the fingerprint line of one perturbed run: the `NullTracer` run's
/// numbers, the plan's injection count and the recorded event stream's
/// digest. The recorded run must agree with the `NullTracer` one, every
/// plan must fire, and every mutation must change the event stream.
fn perturbed_line(h: &Harness, p: Perturbation, mode: Mode) -> String {
    let label = match p {
        Perturbation::Plan(class, _) => format!("plan:{}", class.name()),
        Perturbation::Mutation(Mutation::SkipExposedRead) => "mutation:skip-exposed-read".into(),
        Perturbation::Mutation(Mutation::SkipPredictionVerify) => {
            "mutation:skip-prediction-verify".into()
        }
        Perturbation::Mutation(Mutation::SkipForwardRecheck) => {
            "mutation:skip-forward-recheck".into()
        }
    };
    let key = format!("{}/{label}/{}", h.name, mode.label());
    let (mut plain, injected) = perturbed_run(h, mode, p, &mut NullTracer);
    let mut rec = RecordingTracer::default();
    let (mut recorded, recorded_injected) = perturbed_run(h, mode, p, &mut rec);
    let mut line = format!("\"{key}\": {}", fingerprint(&plain));
    assert_eq!(
        injected, recorded_injected,
        "{key}: recording changed the plan"
    );
    assert!(
        recorded.memory.same_words(&plain.memory),
        "{key}: recorded run's memory differs"
    );
    recorded.memory = Default::default();
    plain.memory = Default::default();
    assert_eq!(
        format!("{recorded:?}"),
        format!("{plain:?}"),
        "{key}: recorded run differs from the NullTracer run"
    );
    let digest = |events: &[tls_repro::sim::TraceEvent]| fnv64(events_to_json(events).as_bytes());
    match p {
        Perturbation::Plan(..) => {
            assert!(injected > 0, "{key}: the plan never fired");
            line.push_str(&format!(",\"injected\":{injected}"));
        }
        Perturbation::Mutation(_) => {
            let mut clean = RecordingTracer::default();
            h.run_traced(mode, &mut clean)
                .unwrap_or_else(|e| panic!("{key}: clean run: {e}"));
            assert_ne!(
                digest(&clean.events),
                digest(&rec.events),
                "{key}: the mutation left the event stream unchanged"
            );
        }
    }
    line.push_str(&format!(",\"events\":\"{:016x}\"}}", digest(&rec.events)));
    line
}
