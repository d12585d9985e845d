//! The constant-memory streaming epoch-latency statistics agree *exactly*
//! with a buffered recompute from the recorded event stream (tier 1).
//!
//! `RegionStats::epoch_cycles` is aggregated online at each commit; every
//! `TraceEvent::EpochCommit` carries the same `start`/`end` pair the
//! aggregation consumed. Rebuilding the summary from the full recorded
//! stream must therefore reproduce the streaming struct bit-for-bit —
//! across fuzzed programs, modes, and a deterministic splitmix64 value
//! corpus for the pure-aggregation property.

use tls_repro::experiments::{fuzz::FuzzConfig, Harness, Mode};
use tls_repro::ir::generate;
use tls_repro::sim::{RecordingTracer, StreamingStats, TraceEvent};

/// splitmix64: the standard 64-bit finalizer-based PRNG — deterministic,
/// dependency-free value corpus for the aggregation property.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn streaming_equals_buffered_on_splitmix64_corpora() {
    for seed in 0..50u64 {
        let mut state = seed;
        let n = (splitmix64(&mut state) % 500) as usize + 1;
        // Mixed magnitudes: small latencies and full-range outliers.
        let values: Vec<u64> = (0..n)
            .map(|_| {
                let v = splitmix64(&mut state);
                if v.is_multiple_of(7) {
                    v
                } else {
                    v % 100_000
                }
            })
            .collect();
        let buffered = StreamingStats::from_values(&values);
        let mut streamed = StreamingStats::default();
        for &v in &values {
            streamed.record(v);
        }
        assert_eq!(streamed, buffered, "seed {seed}: streaming != buffered");
        // Merging summaries of any split must also be exact.
        let mid = n / 2;
        let mut merged = StreamingStats::from_values(&values[..mid]);
        merged.merge(&StreamingStats::from_values(&values[mid..]));
        assert_eq!(merged, buffered, "seed {seed}: merge is not exact");
    }
}

#[test]
fn simulator_streaming_stats_match_event_stream_replay() {
    let cfg = FuzzConfig::default();
    let opts = cfg.compile_options();
    let modes = [Mode::Unsync, Mode::CompilerRef, Mode::HwSync];
    let mut epochful_runs = 0u32;
    for seed in 0..50u64 {
        let m = generate(seed, &cfg.gen, 0);
        let h = Harness::from_modules("stream", &m, None, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for mode in modes {
            let mut rec = RecordingTracer::default();
            let r = h
                .run_traced(mode, &mut rec)
                .unwrap_or_else(|e| panic!("seed {seed}/{}: {e}", mode.label()));
            let committed: Vec<u64> = rec
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::EpochCommit { start, end, .. } => Some(end - start),
                    _ => None,
                })
                .collect();
            assert_eq!(
                StreamingStats::from_values(&committed),
                r.epoch_cycle_totals(),
                "seed {seed}/{}: streaming summary diverges from the event stream",
                mode.label()
            );
            if !committed.is_empty() {
                epochful_runs += 1;
            }
        }
    }
    assert!(
        epochful_runs >= 60,
        "corpus too thin: only {epochful_runs} runs committed speculative epochs"
    );
}
