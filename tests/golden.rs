//! Golden snapshots of every figure/table at Quick scale, plus the
//! machine-counter exports.
//!
//! The committed JSON under `tests/golden/` is the exact `repro <target>
//! --quick --out` payload; any change to the pipeline, the simulator or
//! the table rendering that shifts a number shows up as a byte diff here.
//! `tests/golden/counters/` pins `repro metrics` the same way.
//! Refresh intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::path::PathBuf;

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::metrics::{counters_json, counters_prometheus};
use tls_repro::experiments::{figures, Harness, Mode, Scale};
use tls_repro::ir::{generate, GenConfig, GenFamily};
use tls_repro::sim::AdaptConfig;

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
