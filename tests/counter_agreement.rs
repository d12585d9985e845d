//! Counter/trace agreement: the machine-counter bank is a fold over the
//! same event stream a recording tracer sees.
//!
//! For fuzz seeds 1–5 under every mode in [`MODES`], a counted run and a
//! recorded run must return the same result apart from the bank, and every
//! bank row that an event carries must equal [`MachineCounters`] folded
//! over the recorded stream. The remaining rows come from `Tracer::fine`
//! facts no event carries; `golden.rs` pins those through the counter
//! export snapshots.

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::{Harness, MODES};
use tls_repro::ir::generate;
use tls_repro::sim::{MachineCounters, RecordingTracer, Tracer};

/// Rows fed by `Tracer::fine` rather than by a trace event.
fn is_fine(row: &str) -> bool {
    row.starts_with("retired.")
        || matches!(
            row,
            "cache.l1_hits"
                | "cache.l2_hits"
                | "cache.mem_fetches"
                | "spec.wb_words_high_water"
                | "spec.wb_lines_high_water"
                | "predict.verified"
        )
}

#[test]
fn counter_bank_equals_the_folded_event_stream() {
    let cfg = FuzzConfig::default();
    let mut all = MachineCounters::default();
    for seed in 1..=5 {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let mut h = Harness::from_modules("fuzz", &measure, Some(&train), &cfg.compile_options())
            .unwrap_or_else(|e| panic!("seed {seed} failed to prepare: {e}"));
        h.base.max_steps = cfg.max_sim_steps;
        for &mode in MODES.iter() {
            let at = format!("seed {seed}/{}", mode.label());
            let mut counted = h.run_counted(mode).unwrap_or_else(|e| panic!("{at}: {e}"));
            let mut rec = RecordingTracer::default();
            let mut traced = h
                .run_traced(mode, &mut rec)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            let bank = counted
                .counters
                .take()
                .expect("a counted run carries its bank");
            assert!(
                counted.memory.same_words(&traced.memory),
                "{at}: final memory differs"
            );
            counted.memory = Default::default();
            traced.memory = Default::default();
            assert_eq!(
                format!("{counted:?}"),
                format!("{traced:?}"),
                "{at}: results differ"
            );

            let mut folded = MachineCounters::default();
            for e in &rec.events {
                folded.event(*e);
            }
            let banked = bank.rows();
            for (row, v) in folded.rows() {
                if !is_fine(&row) {
                    assert_eq!(banked[&row], v, "{at}: bank row {row} vs the folded stream");
                }
            }
            all.merge(&folded);
        }
    }
    assert!(
        all.epochs_committed > 0
            && all.spec_stores > 0
            && all.signal_sends_scalar + all.signal_sends_mem > 0
            && all.total_violations() > 0,
        "the seed range exercised no speculative activity — vacuous check: {all:?}"
    );
}
