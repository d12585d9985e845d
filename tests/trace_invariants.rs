//! Event-stream invariants over a generated fuzz corpus (tier 1).
//!
//! For every seed × mode pair the traced run must produce a stream that
//! (a) passes the structural checker — every spawn closed by exactly one
//! commit or cancel with squashes reopening attempts, wait begin/end
//! nesting, memory-signal receives matching a prior send; (b) replays to
//! the *exact* per-region slot breakdown, cycle count, epoch and instance
//! totals the simulator reported — proving the stream is complete, not
//! just well-formed; and (c) counts one squash event per reported
//! violation, the invariant the attribution reports rely on.
//! `disabled_tracing_pays_nothing` guards the other side: a run with
//! tracing off pays nothing for the hooks.

use std::time::Instant;

use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::{spec_modes, Harness, Mode, Scale};
use tls_repro::ir::{generate, GenConfig, GenFamily};
use tls_repro::sim::{
    check_event_stream, replay_slots, AdaptConfig, CountingTracer, NullTracer, RecordingTracer,
    TraceEvent,
};

const SEEDS: u64 = 30;

#[test]
fn fuzz_corpus_event_streams_are_consistent() {
    let cfg = FuzzConfig::default();
    let mut seeds_with_violations = 0u64;
    let mut seeds_with_recvs = 0u64;
    let mut seeds_with_samples = 0u64;
    for seed in 1..=SEEDS {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let mut h = Harness::from_modules(
            format!("trace-fuzz-{seed}"),
            &measure,
            Some(&train),
            &cfg.compile_options(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: prepare failed: {e}"));
        h.base.max_steps = cfg.max_sim_steps;
        // Exercise the sampling path too; it must not disturb replay.
        h.base.trace_interval = 128;
        let (w, cores) = (h.base.issue_width, h.base.cores as u64);
        let mut saw_violation = false;
        let mut saw_recv = false;
        let mut saw_sample = false;
        // Sequential execution has no epochs and traces no region events;
        // the replay invariant is about speculative runs.
        for &mode in spec_modes() {
            let mut rec = RecordingTracer::default();
            let result = h
                .run_traced(mode, &mut rec)
                .unwrap_or_else(|e| panic!("seed {seed} mode {}: {e}", mode.label()));
            let events = rec.events;

            // (a) structural invariants.
            let stream = check_event_stream(&events)
                .unwrap_or_else(|e| panic!("seed {seed} mode {}: bad stream: {e}", mode.label()));

            // (c) one squash event per reported violation.
            assert_eq!(
                stream.squashes,
                result.total_violations,
                "seed {seed} mode {}: squash events vs violations",
                mode.label()
            );

            // (b) exact replay of the simulator's region aggregates.
            let replayed = replay_slots(&events, w, cores);
            assert_eq!(
                replayed.len(),
                result.regions.len(),
                "seed {seed} mode {}: region set",
                mode.label()
            );
            let mut replayed_violations = 0;
            for (rid, rep) in &replayed {
                let reg = &result.regions[rid];
                assert_eq!(
                    rep.slots,
                    reg.slots,
                    "seed {seed} mode {} region {rid:?}: slot breakdown",
                    mode.label()
                );
                assert_eq!(rep.cycles, reg.cycles, "seed {seed} region {rid:?}: cycles");
                assert_eq!(rep.epochs, reg.epochs, "seed {seed} region {rid:?}: epochs");
                assert_eq!(
                    rep.instances, reg.instances,
                    "seed {seed} region {rid:?}: instances"
                );
                replayed_violations += rep.violations;
            }
            assert_eq!(
                replayed_violations,
                result.total_violations,
                "seed {seed} mode {}: replayed violations",
                mode.label()
            );

            saw_violation |= result.total_violations > 0;
            saw_recv |= events
                .iter()
                .any(|e| matches!(e, TraceEvent::SignalRecv { .. }));
            saw_sample |= events
                .iter()
                .any(|e| matches!(e, TraceEvent::SlotSample { .. }));
        }
        seeds_with_violations += u64::from(saw_violation);
        seeds_with_recvs += u64::from(saw_recv);
        seeds_with_samples += u64::from(saw_sample);
    }
    // The corpus must actually exercise the event kinds the checker
    // validates, or the invariants above are vacuous.
    assert!(
        seeds_with_violations >= 3,
        "only {seeds_with_violations}/{SEEDS} seeds squashed"
    );
    assert!(
        seeds_with_recvs >= 3,
        "only {seeds_with_recvs}/{SEEDS} seeds consumed forwarded values"
    );
    assert!(
        seeds_with_samples >= 3,
        "only {seeds_with_samples}/{SEEDS} seeds emitted slot samples"
    );
}

/// The adaptive event surface, end to end: a phase-shift program run with
/// a deliberately small controller window emits `PolicyTransition` *and*
/// `Reprofile` events, the structural checker accepts the stream, the
/// event counts equal the bank of a second, counted run, and the new
/// events do not disturb the exact slot replay. (The default window is
/// longer than these generated programs, so re-profiling needs the
/// small-window config to fire at all — that is exactly why this test
/// pins it.)
#[test]
fn adaptive_events_replay_and_match_counters() {
    let cfg = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    // Seed 16's measurement input flips its dependence pattern early, so a
    // 100-cycle window sees new hot dependences plus fresh violations at a
    // boundary — the re-profile trigger.
    let measure = generate(16, &cfg.gen, 0);
    let train = generate(16, &cfg.gen, 1);
    let mut h = Harness::from_modules(
        "adapt-trace",
        &measure,
        Some(&train),
        &cfg.compile_options(),
    )
    .unwrap_or_else(|e| panic!("prepare failed: {e}"));
    h.base.max_steps = cfg.max_sim_steps;
    h.base.adapt = Some(AdaptConfig {
        window: 100,
        ..AdaptConfig::default()
    });
    let (w, cores) = (h.base.issue_width, h.base.cores as u64);
    let mut rec = RecordingTracer::default();
    let result = h
        .run_traced(Mode::Unsync, &mut rec)
        .unwrap_or_else(|e| panic!("adaptive unsync run: {e}"));
    let counted = h
        .run_counted(Mode::Unsync)
        .unwrap_or_else(|e| panic!("adaptive unsync counted run: {e}"));
    let events = rec.events;
    assert_eq!(
        counted.total_cycles, result.total_cycles,
        "counting changed the run"
    );

    check_event_stream(&events).unwrap_or_else(|e| panic!("bad adaptive stream: {e}"));

    let transitions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PolicyTransition { .. }))
        .count() as u64;
    let reprofiles = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Reprofile { .. }))
        .count() as u64;
    let published = counted
        .counters
        .as_deref()
        .expect("counted run publishes counters");
    assert!(transitions >= 1, "no policy transitions traced");
    assert!(reprofiles >= 1, "the small window must force a re-profile");
    assert_eq!(
        transitions,
        published.total_policy_transitions(),
        "traced transitions vs counter bank"
    );
    assert_eq!(
        reprofiles, published.reprofiles,
        "traced re-profiles vs counter bank"
    );

    // The new event kinds must not disturb the exact replay invariant.
    let replayed = replay_slots(&events, w, cores);
    assert_eq!(replayed.len(), result.regions.len(), "region set");
    for (rid, rep) in &replayed {
        let reg = &result.regions[rid];
        assert_eq!(rep.slots, reg.slots, "region {rid:?}: slot breakdown");
        assert_eq!(rep.cycles, reg.cycles, "region {rid:?}: cycles");
    }
}

/// The regression guard for the zero-cost-when-disabled claim: the
/// default hot loop (`NullTracer`, hooks compiled out) must not run
/// slower than the tracing-enabled loop beyond measurement noise. If a
/// change makes the disabled path pay for event construction, the two
/// converge and this fails. The rounds interleave the two sides and
/// alternate which goes first, so host frequency drift and warm-up bias
/// neither, and the assertion is on their *medians*, which unlike best-of
/// cannot be rescued (or sunk) by one lucky round.
#[test]
fn disabled_tracing_pays_nothing() {
    // The throughput claim is only meaningful with optimizations on:
    // debug builds inline nothing, so the relative cost of the two
    // monomorphizations is noise. Nothing is asserted there, so nothing
    // runs.
    if cfg!(debug_assertions) {
        return;
    }
    // Odd, so the median is a real round.
    const ROUNDS: usize = 7;
    // Run pairs per round: each round times about 25 ms of simulation per
    // side, interleaved at single-run grain, so host speed drift within a
    // round falls on both sides alike.
    const PAIRS: usize = 16;
    let w = tls_repro::workloads::by_name("ijpeg").expect("workload exists");
    let h = Harness::new(w, Scale::Quick).expect("harness builds");
    let (mut null, mut counting) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        // (instructions, seconds) per side: [null, counting].
        let mut sides = [(0u64, 0f64); 2];
        for pair in 0..PAIRS {
            // Alternate which side goes first, so warm caches and clock
            // ramps favour neither.
            let first = (round + pair) % 2;
            for side in [first, 1 - first] {
                let start = Instant::now();
                let r = if side == 0 {
                    h.run_traced(Mode::Unsync, &mut NullTracer)
                } else {
                    h.run_traced(Mode::Unsync, &mut CountingTracer::default())
                };
                sides[side].1 += start.elapsed().as_secs_f64();
                sides[side].0 += r.expect("run").instructions;
            }
        }
        let ips = |(instructions, secs): (u64, f64)| instructions as f64 / secs.max(1e-9);
        null.push(ips(sides[0]));
        counting.push(ips(sides[1]));
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
        xs[ROUNDS / 2]
    };
    let (null_ips, counting_ips) = (median(null), median(counting));
    assert!(null_ips > 0.0 && counting_ips > 0.0);
    assert!(
        null_ips >= counting_ips * 0.98,
        "tracing-disabled throughput regressed: null {null_ips:.0} instr/s vs \
         enabled {counting_ips:.0} instr/s (medians)"
    );
}
