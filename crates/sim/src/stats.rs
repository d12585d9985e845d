//! Graduation-slot accounting and simulation results.
//!
//! The paper's region bars (Figures 2, 8, 9, 10) divide all potential
//! graduation slots — issue width × cycles × cores — into four segments:
//! `busy` (instructions graduated by committed epochs), `fail` (all slots of
//! squashed epoch attempts), `sync` (stalls waiting on wait/signal or
//! hardware synchronization) and `other` (everything else). This module
//! holds those accumulators plus the per-run summary [`SimResult`].

use std::collections::BTreeMap;

use tls_ir::{RegionId, Sid};
use tls_profile::Memory;

use crate::counters::MachineCounters;
use crate::inject::FaultSummary;

/// Potential graduation slots divided into the paper's four segments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotBreakdown {
    /// Slots in which an instruction of a committed epoch graduated.
    pub busy: u64,
    /// All slots of epoch attempts that were squashed.
    pub fail: u64,
    /// Slots stalled on synchronization (scalar/memory wait, hardware
    /// stall-till-oldest, signal latency).
    pub sync: u64,
    /// Remaining slots (pipeline gaps, memory latency, commit waits, idle
    /// cores).
    pub other: u64,
}

impl SlotBreakdown {
    /// Total slots.
    pub fn total(&self) -> u64 {
        self.busy + self.fail + self.sync + self.other
    }

    /// Add another breakdown in place.
    pub fn add(&mut self, o: &SlotBreakdown) {
        self.busy += o.busy;
        self.fail += o.fail;
        self.sync += o.sync;
        self.other += o.other;
    }

    /// Move every slot into `fail` (used when an attempt is squashed).
    pub fn into_fail(self) -> SlotBreakdown {
        SlotBreakdown {
            busy: 0,
            fail: self.total(),
            sync: 0,
            other: 0,
        }
    }
}

/// Constant-memory streaming summary of a per-epoch quantity (here: commit
/// latency in cycles of each committed epoch attempt).
///
/// Holds count/sum/min/max plus a log2-bucketed histogram instead of a
/// per-epoch vector, so memory stays O(1) regardless of how many epochs a
/// scaled-up run commits. All operations are exact integer arithmetic:
/// recording values one at a time ("streaming") and merging summaries built
/// from any partition of the same values ("buffered") produce *identical*
/// structs, which the property tests rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamingStats {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating: pinned at `u64::MAX` if the
    /// total ever overflows, identically under any recording order).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `buckets[k]` counts values of bit length `k` (so bucket 0 holds only
    /// the value 0, bucket k holds `2^(k-1) ..= 2^k - 1`).
    pub buckets: [u64; 65],
}

impl Default for StreamingStats {
    fn default() -> Self {
        StreamingStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl StreamingStats {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Merge another summary in place (exact: equivalent to having recorded
    /// the other summary's values here).
    pub fn merge(&mut self, o: &StreamingStats) {
        self.count += o.count;
        self.sum = self.sum.saturating_add(o.sum);
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        for (b, ob) in self.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += ob;
        }
    }

    /// Buffered reference aggregation: summarize a complete value list in
    /// one shot. Must equal the streaming result for the same values.
    pub fn from_values(values: &[u64]) -> StreamingStats {
        let mut s = StreamingStats::default();
        for &v in values {
            s.record(v);
        }
        s
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the histogram bucket holding the `q`-quantile value
    /// (`q` in `0.0..=1.0`), clamped to the exact max. A log2 sketch: the
    /// true quantile lies within 2× of the returned bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = if k == 0 {
                    0
                } else {
                    (1u64 << k).wrapping_sub(1)
                };
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// Which synchronization scheme would have covered a violating load
/// (Figure 11 classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationClass {
    /// Neither compiler marking nor the hardware table covered the load.
    Neither,
    /// Only the compiler marking covered it.
    CompilerOnly,
    /// Only the hardware violating-loads table covered it.
    HardwareOnly,
    /// Both schemes covered it.
    Both,
}

/// Aggregate statistics for all instances of one speculative region.
#[derive(Clone, Debug, Default)]
pub struct RegionStats {
    /// Wall-clock cycles spent inside the region's instances.
    pub cycles: u64,
    /// Graduation-slot breakdown over `cores × issue_width × cycles`.
    pub slots: SlotBreakdown,
    /// Dynamic instances of the region.
    pub instances: u64,
    /// Committed epochs.
    pub epochs: u64,
    /// Squashed epoch attempts (violations).
    pub violations: u64,
    /// Violations classified by would-be synchronization coverage.
    /// `BTreeMap` so reports iterate in a deterministic class order.
    pub violation_classes: BTreeMap<ViolationClass, u64>,
    /// Violations per static load id (diagnostics, hardware-table studies),
    /// in `Sid` order.
    pub violations_by_load: BTreeMap<Sid, u64>,
    /// Streaming summary of committed-epoch latencies (cycles from attempt
    /// start to commit). Constant-memory: safe at any scale.
    pub epoch_cycles: StreamingStats,
}

/// The outcome of one simulation.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Observable output stream (must equal sequential execution's).
    pub output: Vec<i64>,
    /// Value returned by the entry function.
    pub ret: i64,
    /// Total program cycles.
    pub total_cycles: u64,
    /// Cycles spent outside any speculative region.
    pub sequential_cycles: u64,
    /// Dynamic instructions executed (committed work only).
    pub instructions: u64,
    /// Per-region aggregates, in `RegionId` order.
    pub regions: BTreeMap<RegionId, RegionStats>,
    /// Largest signal-address-buffer occupancy observed (the paper reports
    /// that 10 entries always suffice).
    pub max_signal_buffer: usize,
    /// Total squashed attempts across all regions.
    pub total_violations: u64,
    /// Final committed memory state. Under TLS only committed epochs write
    /// here, so it must equal sequential execution's final memory — the
    /// second half of the architectural correctness invariant (the first
    /// being `output`).
    pub memory: Memory,
    /// Per-class fault-injection counters (all zero unless the run was
    /// perturbed via `SimConfig::inject`).
    pub faults: FaultSummary,
    /// Machine counter bank, populated only by counted runs
    /// ([`crate::Machine::run_counted`]). `None` means the run was not
    /// counted, not that nothing happened.
    pub counters: Option<Box<MachineCounters>>,
}

impl SimResult {
    /// Cycles spent inside speculative regions (all regions summed).
    pub fn region_cycles(&self) -> u64 {
        self.regions.values().map(|r| r.cycles).sum()
    }

    /// Committed-epoch latency summary merged across all regions.
    pub fn epoch_cycle_totals(&self) -> StreamingStats {
        let mut out = StreamingStats::default();
        for r in self.regions.values() {
            out.merge(&r.epoch_cycles);
        }
        out
    }

    /// Total violations classified for Figure 11.
    pub fn violation_class_totals(&self) -> BTreeMap<ViolationClass, u64> {
        let mut out = BTreeMap::new();
        for r in self.regions.values() {
            for (k, v) in &r.violation_classes {
                *out.entry(*k).or_insert(0) += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_and_fail_conversion() {
        let b = SlotBreakdown {
            busy: 10,
            fail: 2,
            sync: 3,
            other: 5,
        };
        assert_eq!(b.total(), 20);
        let f = b.into_fail();
        assert_eq!(f.fail, 20);
        assert_eq!(f.busy + f.sync + f.other, 0);
        let mut acc = SlotBreakdown::default();
        acc.add(&b);
        acc.add(&f);
        assert_eq!(acc.total(), 40);
        assert_eq!(acc.fail, 22);
    }

    #[test]
    fn streaming_matches_buffered_under_any_partition() {
        let values: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(7) % 10_000)
            .collect();
        let buffered = StreamingStats::from_values(&values);
        // Stream one at a time.
        let mut streamed = StreamingStats::default();
        for &v in &values {
            streamed.record(v);
        }
        assert_eq!(streamed, buffered);
        // Merge arbitrary partitions.
        for chunk in [1usize, 3, 7, 64, 200] {
            let mut merged = StreamingStats::default();
            for part in values.chunks(chunk) {
                merged.merge(&StreamingStats::from_values(part));
            }
            assert_eq!(merged, buffered, "partition by {chunk} must be exact");
        }
        assert_eq!(buffered.count, 200);
        assert_eq!(buffered.sum, values.iter().sum::<u64>());
        assert_eq!(buffered.min, *values.iter().min().unwrap());
        assert_eq!(buffered.max, *values.iter().max().unwrap());
    }

    #[test]
    fn quantile_brackets_the_true_value() {
        let values: Vec<u64> = (1..=1000u64).collect();
        let s = StreamingStats::from_values(&values);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), 1);
        for q in [0.25f64, 0.5, 0.9, 0.99] {
            let truth = values[((q * 1000.0).ceil() as usize - 1).min(999)];
            let est = s.quantile(q);
            assert!(est >= truth, "upper bound: {est} >= {truth} at q={q}");
            assert!(
                est <= truth.saturating_mul(2),
                "within 2x: {est} <= 2*{truth} at q={q}"
            );
        }
        let empty = StreamingStats::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn result_aggregates_regions() {
        let mut r = SimResult::default();
        let mut a = RegionStats {
            cycles: 100,
            ..RegionStats::default()
        };
        a.violation_classes.insert(ViolationClass::Both, 2);
        let mut b = RegionStats {
            cycles: 50,
            ..RegionStats::default()
        };
        b.violation_classes.insert(ViolationClass::Both, 1);
        b.violation_classes.insert(ViolationClass::Neither, 4);
        r.regions.insert(RegionId(0), a);
        r.regions.insert(RegionId(1), b);
        assert_eq!(r.region_cycles(), 150);
        let cls = r.violation_class_totals();
        assert_eq!(cls[&ViolationClass::Both], 3);
        assert_eq!(cls[&ViolationClass::Neither], 4);
    }
}
