//! Simulation parameters (the analogue of the paper's Table 1) and
//! execution-mode knobs for the evaluation's bar letters.
//!
//! Test-only perturbations are not configuration: fault plans and protocol
//! mutations reach the machine through its tracer (see [`crate::inject`]).

use std::collections::HashSet;

use tls_ir::Sid;

use crate::adapt::AdaptConfig;

/// How a compiler-inserted `SyncLoad` behaves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SyncLoadPolicy {
    /// Normal operation (§2.2): wait for the forwarded `(address, value)`
    /// from the previous epoch and use it when the address matches.
    #[default]
    Forward,
    /// Figure 9 `L` bars: the synchronized load stalls until this epoch is
    /// the oldest (the previous epoch has completed), then loads from
    /// memory — the conservative scheme hardware synchronization uses.
    StallTillOldest,
    /// Figure 9 `E` bars: the consumer perfectly predicts the synchronized
    /// value — zero stall, the sequentially-correct value is used.
    Oracle,
}

/// Which plain loads consult the value oracle ("perfect prediction").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum OracleSel {
    /// No perfect prediction.
    #[default]
    None,
    /// Figure 2 `O` bars: every load inside a region is perfectly predicted.
    AllLoads,
    /// Figure 6: only loads with these static ids are perfectly predicted.
    Sids(HashSet<Sid>),
}

/// All machine and policy parameters for one simulation.
///
/// Construct with [`SimConfig::cgo2004`] for the paper's machine model
/// (4-way issue, 128-entry ROB, 4 cores, 32 B lines, 32 KB L1, 2 MB L2) and
/// adjust the policy knobs per experiment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    // --- pipeline (Table 1, "Pipeline Parameters") ---
    /// Instructions issued (and graduated) per cycle per core.
    pub issue_width: u64,
    /// Reorder-buffer entries per core.
    pub rob_size: usize,
    /// Latency of integer multiply.
    pub lat_mul: u64,
    /// Latency of integer divide / remainder.
    pub lat_div: u64,
    /// Latency of all other ALU operations.
    pub lat_alu: u64,
    /// Pipeline refill penalty on a branch mispredict.
    pub mispredict_penalty: u64,
    /// Entries in the per-core 2-bit branch-prediction table.
    pub branch_table: usize,

    // --- memory (Table 1, "Memory Parameters") ---
    /// Number of processing cores.
    pub cores: usize,
    /// L1 data cache: total lines and associativity; 1-cycle hits.
    pub l1_lines: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency.
    pub l1_lat: u64,
    /// Unified L2: total lines and associativity.
    pub l2_lines: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Minimum miss latency to the secondary cache.
    pub l2_lat: u64,
    /// Minimum miss latency to local memory.
    pub mem_lat: u64,

    // --- TLS mechanisms ---
    /// Latency of forwarding a signal between cores over the crossbar.
    pub forward_lat: u64,
    /// Cycles to spawn an epoch on a free core.
    pub spawn_overhead: u64,
    /// Cycles to commit an epoch (plus one per dirty line).
    pub commit_overhead: u64,
    /// Extra commit cycles per speculatively-modified line.
    pub commit_per_line: u64,
    /// Cycles between a squash and the restart of the epoch.
    pub restart_penalty: u64,
    /// Entries in the hardware violating-loads table (mode `H`).
    pub hw_table_size: usize,
    /// Cycles between periodic resets of the violating-loads table.
    pub hw_reset_interval: u64,
    /// Entries in the hardware last-value prediction table (mode `P`).
    pub predictor_entries: usize,
    /// Confidence threshold (0–3) a predictor entry must reach to be used.
    pub predictor_threshold: u8,

    // --- execution-mode knobs ---
    /// `false` reproduces the sequential baseline (regions run serially).
    pub parallelize: bool,
    /// Enable hardware-inserted synchronization (`H` and `B` bars).
    pub hw_sync: bool,
    /// Enable hardware value prediction (`P` bars).
    pub hw_predict: bool,
    /// Behaviour of compiler-inserted synchronized loads.
    pub sync_load_policy: SyncLoadPolicy,
    /// Which plain loads are perfectly predicted.
    pub oracle_sel: OracleSel,
    /// Figure 11: loads (by sid) that stall-till-oldest as stand-ins for
    /// compiler synchronization in the marking experiment.
    pub stall_marked: Option<HashSet<Sid>>,
    /// Figure 11: loads considered "compiler-marked" when classifying the
    /// violations that still occur.
    pub mark_compiler: HashSet<Sid>,
    /// Track inter-epoch dependences per word instead of per cache line
    /// (ablation: removes false-sharing violations).
    pub word_grain: bool,
    /// Ablation: epochs that do not produce a group's value relay the
    /// incoming forwarded value instead of signalling NULL.
    pub relay_forwarding: bool,
    /// The paper's proposed hybrid enhancement (iii): hardware tracks how
    /// often each compiler-synchronized load actually uses its forwarded
    /// value, and stops waiting on the ones that rarely do.
    pub hybrid_filter: bool,
    /// Adaptive per-dependence policy controller (modes `A`/`A-T`/`A-U`):
    /// when set, every speculative load consults [`crate::AdaptController`]
    /// and is handled by the FORWARD, STALL or PREDICT mechanism the
    /// controller currently assigns its sid (see [`crate::adapt`]). `None`
    /// reproduces the paper's static policies exactly.
    pub adapt: Option<AdaptConfig>,
    /// Safety net: maximum dynamic instructions per simulation.
    pub max_steps: u64,
    /// Safety net: maximum simulated cycles per run. A module whose loop
    /// never terminates (a hostile generated program, or a simulator bug)
    /// trips this budget and returns `SimError::CycleBudgetExceeded`
    /// instead of spinning forever.
    pub max_cycles: u64,
}

impl SimConfig {
    /// The paper's machine (Table 1): 4-way issue, 128-entry ROB, 4 cores,
    /// 32 B lines, 32 KB 2-way L1 (1 cycle), 2 MB 4-way L2 (10 cycles),
    /// 75-cycle memory, 10-cycle crossbar.
    pub fn cgo2004() -> Self {
        Self {
            issue_width: 4,
            rob_size: 128,
            lat_mul: 3,
            lat_div: 12,
            lat_alu: 1,
            mispredict_penalty: 10,
            branch_table: 2048,
            cores: 4,
            l1_lines: 1024, // 32 KB / 32 B
            l1_ways: 2,
            l1_lat: 1,
            l2_lines: 65536, // 2 MB / 32 B
            l2_ways: 4,
            l2_lat: 10,
            mem_lat: 75,
            forward_lat: 10,
            spawn_overhead: 10,
            commit_overhead: 5,
            commit_per_line: 1,
            restart_penalty: 10,
            hw_table_size: 32,
            hw_reset_interval: 10_000,
            predictor_entries: 1024,
            predictor_threshold: 2,
            parallelize: true,
            hw_sync: false,
            hw_predict: false,
            sync_load_policy: SyncLoadPolicy::Forward,
            oracle_sel: OracleSel::None,
            stall_marked: None,
            mark_compiler: HashSet::new(),
            word_grain: false,
            relay_forwarding: false,
            hybrid_filter: false,
            adapt: None,
            max_steps: 4_000_000_000,
            max_cycles: 4_000_000_000,
        }
    }

    /// The sequential baseline: same core model, no parallelization.
    pub fn sequential() -> Self {
        Self {
            parallelize: false,
            ..Self::cgo2004()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::cgo2004()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cgo2004_matches_table1() {
        let c = SimConfig::cgo2004();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.cores, 4);
        assert_eq!(c.l1_lines * 32, 32 * 1024); // 32 KB of 32 B lines
        assert_eq!(c.l2_lines * 32, 2 * 1024 * 1024); // 2 MB
        assert!(c.parallelize);
        assert_eq!(c.sync_load_policy, SyncLoadPolicy::Forward);
    }

    #[test]
    fn sequential_disables_parallelization_only() {
        let c = SimConfig::sequential();
        assert!(!c.parallelize);
        assert_eq!(c.issue_width, SimConfig::cgo2004().issue_width);
    }
}
