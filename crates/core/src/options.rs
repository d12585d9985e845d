//! Compilation options and reports.

use tls_ir::RegionId;
use tls_profile::LoopKey;

/// Knobs for the TLS compilation pipeline, defaulted to the paper's values.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Minimum dependence frequency (fraction of epochs) for an edge to be
    /// synchronized. The paper settles on 5 % (§2.4, Figure 6).
    pub freq_threshold: f64,
    /// Minimum fraction of total execution a loop must cover (0.1 %).
    pub min_coverage: f64,
    /// Minimum average epochs per loop instance (1.5).
    pub min_avg_trip: f64,
    /// Minimum average dynamic instructions per epoch (15).
    pub min_epoch_size: f64,
    /// Per-epoch instruction target that unrolling small loops aims for.
    pub unroll_target: f64,
    /// Upper bound on the unroll factor (`1` disables unrolling).
    pub max_unroll: u32,
    /// Place each memory signal immediately after the producing store
    /// (early forwarding); `false` falls back to signalling at the latches,
    /// which serializes like hardware synchronization (ablation).
    pub schedule_signals: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            freq_threshold: 0.05,
            min_coverage: 0.001,
            min_avg_trip: 1.5,
            min_epoch_size: 15.0,
            unroll_target: 30.0,
            max_unroll: 4,
            schedule_signals: true,
        }
    }
}

/// Per-region summary recorded by the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSummary {
    /// Region id in the produced modules.
    pub id: RegionId,
    /// The original loop.
    pub loop_key: LoopKey,
    /// Fraction of profiled execution covered by the loop.
    pub coverage: f64,
    /// Average epochs per instance in the profile.
    pub avg_trip: f64,
    /// Average instructions per epoch in the profile (before unrolling).
    pub avg_epoch_size: f64,
    /// Unroll factor applied.
    pub unroll: u32,
}

/// What the pipeline did (sizes for reports and tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileReport {
    /// Scalar channels created.
    pub scalar_channels: usize,
    /// Induction variables privatized.
    pub privatized: usize,
    /// Memory synchronization groups created.
    pub groups: usize,
    /// Loads replaced by `SyncLoad`.
    pub sync_loads: usize,
    /// Stores followed by `SignalMem`.
    pub signalled_stores: usize,
    /// Procedures cloned (§2.3 reports < 1 % code growth).
    pub clones: usize,
    /// Static instructions before and after transformation.
    pub static_before: usize,
    /// Static instructions after transformation.
    pub static_after: usize,
}

impl CompileReport {
    /// Code growth factor introduced by the transformation.
    pub fn code_growth(&self) -> f64 {
        if self.static_before == 0 {
            1.0
        } else {
            self.static_after as f64 / self.static_before as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_heuristics() {
        let o = CompileOptions::default();
        assert_eq!(o.freq_threshold, 0.05);
        assert_eq!(o.min_coverage, 0.001);
        assert_eq!(o.min_avg_trip, 1.5);
        assert_eq!(o.min_epoch_size, 15.0);
        assert!(o.schedule_signals);
    }

    #[test]
    fn code_growth_is_a_ratio() {
        let r = CompileReport {
            static_before: 200,
            static_after: 210,
            ..CompileReport::default()
        };
        assert!((r.code_growth() - 1.05).abs() < 1e-9);
        assert_eq!(CompileReport::default().code_growth(), 1.0);
    }
}
