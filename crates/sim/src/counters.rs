//! Hardware-counter-style machine counters.
//!
//! [`MachineCounters`] is the host-side analogue of a CPU's performance
//! counter bank: cheap monotonically-increasing totals over a simulated
//! run — instructions executed by opcode class, cache hits and misses per
//! level, line evictions, speculative load/store traffic, write-buffer
//! occupancy high-water marks, signal send/receive counts per channel
//! kind, violations by cause and value prediction outcomes.
//!
//! The bank is a [`Tracer`]: every counter that mirrors a [`TraceEvent`]
//! is a fold over the event stream, so it equals what a
//! [`crate::RecordingTracer`] replay of the same run counts by
//! construction. The four facts no event carries (retired [`OpClass`], the
//! [`MemLevel`] that served an access, write-buffer occupancy after a store
//! and predictions verified at commit) arrive through [`Tracer::fine`],
//! which the bank enables with [`Tracer::FINE`]. Counting is purely
//! observational — the simulated timing, outputs and statistics are those
//! of an untraced run.
//!
//! The counter values are a function of the simulated execution alone
//! (never of wall-clock time or host parallelism), so two runs of the
//! same module under the same [`crate::SimConfig`] produce identical
//! counter banks — the property the `repro metrics` CLI export and its
//! golden snapshots rely on.

use std::collections::BTreeMap;

use tls_ir::{BinOp, Instr, Terminator};

use crate::adapt::Policy;
use crate::events::{Fine, SignalKind, TraceEvent, Tracer, ViolationKind, WaitKind};

/// Coarse opcode classes for the retired-instruction counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Register moves, simple integer ALU ops, `EpochId`.
    Alu,
    /// Multiplies, divides and remainders (long-latency arithmetic).
    MulDiv,
    /// Plain and synchronized loads.
    Load,
    /// Stores.
    Store,
    /// Control transfers (jumps and conditional branches).
    Branch,
    /// Function calls.
    Call,
    /// Function returns.
    Ret,
    /// Wait/signal synchronization instructions.
    Sync,
    /// Observable-output instructions.
    Output,
}

impl OpClass {
    /// Number of classes (size of the per-class counter bank).
    pub const COUNT: usize = 9;

    /// All classes, in counter-bank order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Alu,
        OpClass::MulDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Ret,
        OpClass::Sync,
        OpClass::Output,
    ];

    /// Stable lowercase name (JSON keys, Prometheus labels).
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::MulDiv => "mul_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
            OpClass::Ret => "ret",
            OpClass::Sync => "sync",
            OpClass::Output => "output",
        }
    }

    /// Index into the per-class counter bank.
    #[inline]
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Class of an instruction.
    #[inline]
    pub fn of(instr: &Instr) -> OpClass {
        match instr {
            Instr::Assign { .. } | Instr::EpochId { .. } => OpClass::Alu,
            Instr::Bin { op, .. } => match op {
                BinOp::Mul | BinOp::Div | BinOp::Rem => OpClass::MulDiv,
                _ => OpClass::Alu,
            },
            Instr::Load { .. } | Instr::SyncLoad { .. } => OpClass::Load,
            Instr::Store { .. } => OpClass::Store,
            Instr::Call { .. } => OpClass::Call,
            Instr::Output { .. } => OpClass::Output,
            Instr::WaitScalar { .. }
            | Instr::SignalScalar { .. }
            | Instr::SignalMem { .. }
            | Instr::SignalMemNull { .. } => OpClass::Sync,
        }
    }

    /// Class of a block terminator.
    #[inline]
    pub fn of_term(term: &Terminator) -> OpClass {
        match term {
            Terminator::Jump(_) | Terminator::Br { .. } => OpClass::Branch,
            Terminator::Ret(_) => OpClass::Ret,
        }
    }
}

/// Which level of the memory hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemLevel {
    /// Private L1 data cache hit.
    L1,
    /// Shared L2 hit (L1 miss).
    L2,
    /// Main memory (both caches missed).
    Mem,
}

/// Index of [`ViolationKind`] in the per-cause violation bank
/// (declaration order: eager, commit-time, resignal, mispredict).
#[inline]
pub fn violation_index(kind: ViolationKind) -> usize {
    match kind {
        ViolationKind::Eager => 0,
        ViolationKind::CommitTime => 1,
        ViolationKind::Resignal => 2,
        ViolationKind::Mispredict => 3,
    }
}

/// The counter bank itself: plain `u64` slots, deterministic for a given
/// module and configuration, filled by running the machine with the bank
/// as its tracer ([`crate::Machine::run_traced`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Instructions executed per [`OpClass`] (bank order of
    /// [`OpClass::ALL`]). Includes re-executed work of squashed attempts,
    /// like [`crate::SimResult::instructions`].
    pub retired: [u64; OpClass::COUNT],
    /// Accesses served by the private L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 and hit the shared L2.
    pub l2_hits: u64,
    /// Accesses that went to main memory.
    pub mem_fetches: u64,
    /// Valid L1 lines evicted by speculative-load fills (exactly the
    /// `LineEvict` trace sites).
    pub line_evictions: u64,
    /// The subset of `line_evictions` that held the epoch's speculative
    /// read- or write-set state.
    pub spec_line_evictions: u64,
    /// Speculative stores buffered.
    pub spec_stores: u64,
    /// Speculative loads that read beyond their own write buffer.
    pub spec_loads_exposed: u64,
    /// Speculative loads satisfied from the epoch's own write buffer.
    pub spec_loads_buffered: u64,
    /// Words drained to memory by committing epochs.
    pub commit_writes: u64,
    /// Committed epochs (parallel mode).
    pub epochs_committed: u64,
    /// Squashed epoch attempts (every victim of every violation).
    pub epochs_squashed: u64,
    /// Largest write-buffer word count observed in any epoch attempt.
    pub wb_words_high_water: u64,
    /// Largest write-buffer dirty-line count observed.
    pub wb_lines_high_water: u64,
    /// Scalar-channel signals sent.
    pub signal_sends_scalar: u64,
    /// Memory-group value signals sent (including §2.2 re-signals).
    pub signal_sends_mem: u64,
    /// Memory-group NULL signals sent.
    pub signal_sends_mem_null: u64,
    /// Scalar-channel forwarded values received.
    pub signal_recvs_scalar: u64,
    /// Memory-group forwarded values consumed.
    pub signal_recvs_mem: u64,
    /// Violations by cause (index via [`violation_index`]).
    pub violations: [u64; 4],
    /// Epoch wait episodes on scalar channels.
    pub waits_scalar: u64,
    /// Epoch wait episodes on memory groups.
    pub waits_mem: u64,
    /// Epoch wait episodes stalling till oldest.
    pub waits_oldest: u64,
    /// Hardware value predictions consumed by loads.
    pub predicted_loads: u64,
    /// Predictions that passed commit-time verification.
    pub predictions_verified: u64,
    /// Adaptive policy switches by destination policy (bank order of
    /// [`Policy::ALL`]: forward, stall, predict).
    pub policy_transitions: [u64; 3],
    /// Adaptive distribution-shift re-profiles (bulk policy resets).
    pub reprofiles: u64,
}

impl MachineCounters {
    /// Total instructions across all opcode classes.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Total cache/memory accesses.
    pub fn total_accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.mem_fetches
    }

    /// Fraction of accesses served by the L1 (0.0 when none).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Total violations across all causes.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// Violations of one cause.
    pub fn violations_of(&self, kind: ViolationKind) -> u64 {
        self.violations[violation_index(kind)]
    }

    /// Total adaptive policy switches across all destinations.
    pub fn total_policy_transitions(&self) -> u64 {
        self.policy_transitions.iter().sum()
    }

    /// Fraction of consumed predictions that verified at commit (1.0 when
    /// none were consumed: nothing mispredicted).
    pub fn prediction_hit_rate(&self) -> f64 {
        if self.predicted_loads == 0 {
            1.0
        } else {
            self.predictions_verified as f64 / self.predicted_loads as f64
        }
    }

    /// Merge another bank in place (sums, except high-water marks which
    /// take the max). Exact under any partition, like `StreamingStats`.
    pub fn merge(&mut self, o: &MachineCounters) {
        for (a, b) in self.retired.iter_mut().zip(o.retired.iter()) {
            *a += b;
        }
        for (a, b) in self.violations.iter_mut().zip(o.violations.iter()) {
            *a += b;
        }
        for (a, b) in self
            .policy_transitions
            .iter_mut()
            .zip(o.policy_transitions.iter())
        {
            *a += b;
        }
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.mem_fetches += o.mem_fetches;
        self.line_evictions += o.line_evictions;
        self.spec_line_evictions += o.spec_line_evictions;
        self.spec_stores += o.spec_stores;
        self.spec_loads_exposed += o.spec_loads_exposed;
        self.spec_loads_buffered += o.spec_loads_buffered;
        self.commit_writes += o.commit_writes;
        self.epochs_committed += o.epochs_committed;
        self.epochs_squashed += o.epochs_squashed;
        self.wb_words_high_water = self.wb_words_high_water.max(o.wb_words_high_water);
        self.wb_lines_high_water = self.wb_lines_high_water.max(o.wb_lines_high_water);
        self.signal_sends_scalar += o.signal_sends_scalar;
        self.signal_sends_mem += o.signal_sends_mem;
        self.signal_sends_mem_null += o.signal_sends_mem_null;
        self.signal_recvs_scalar += o.signal_recvs_scalar;
        self.signal_recvs_mem += o.signal_recvs_mem;
        self.waits_scalar += o.waits_scalar;
        self.waits_mem += o.waits_mem;
        self.waits_oldest += o.waits_oldest;
        self.predicted_loads += o.predicted_loads;
        self.predictions_verified += o.predictions_verified;
        self.reprofiles += o.reprofiles;
    }

    /// Every counter as a `name → value` map with dotted hierarchical
    /// names, in deterministic `BTreeMap` order. The single source of
    /// truth for the JSON and Prometheus exports.
    pub fn rows(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for class in OpClass::ALL {
            out.insert(
                format!("retired.{}", class.name()),
                self.retired[class.index()],
            );
        }
        out.insert("cache.l1_hits".into(), self.l1_hits);
        out.insert("cache.l2_hits".into(), self.l2_hits);
        out.insert("cache.mem_fetches".into(), self.mem_fetches);
        out.insert("cache.line_evictions".into(), self.line_evictions);
        out.insert("cache.spec_line_evictions".into(), self.spec_line_evictions);
        out.insert("spec.stores".into(), self.spec_stores);
        out.insert("spec.loads_exposed".into(), self.spec_loads_exposed);
        out.insert("spec.loads_buffered".into(), self.spec_loads_buffered);
        out.insert("spec.commit_writes".into(), self.commit_writes);
        out.insert("spec.epochs_committed".into(), self.epochs_committed);
        out.insert("spec.epochs_squashed".into(), self.epochs_squashed);
        out.insert("spec.wb_words_high_water".into(), self.wb_words_high_water);
        out.insert("spec.wb_lines_high_water".into(), self.wb_lines_high_water);
        out.insert("signal.sends_scalar".into(), self.signal_sends_scalar);
        out.insert("signal.sends_mem".into(), self.signal_sends_mem);
        out.insert("signal.sends_mem_null".into(), self.signal_sends_mem_null);
        out.insert("signal.recvs_scalar".into(), self.signal_recvs_scalar);
        out.insert("signal.recvs_mem".into(), self.signal_recvs_mem);
        for kind in [
            ViolationKind::Eager,
            ViolationKind::CommitTime,
            ViolationKind::Resignal,
            ViolationKind::Mispredict,
        ] {
            out.insert(
                format!("violations.{}", kind.name()),
                self.violations[violation_index(kind)],
            );
        }
        out.insert("waits.scalar".into(), self.waits_scalar);
        out.insert("waits.mem".into(), self.waits_mem);
        out.insert("waits.oldest".into(), self.waits_oldest);
        out.insert("predict.loads".into(), self.predicted_loads);
        out.insert("predict.verified".into(), self.predictions_verified);
        for p in Policy::ALL {
            out.insert(
                format!("adapt.to_{}", p.name()),
                self.policy_transitions[p.index()],
            );
        }
        out.insert("adapt.reprofiles".into(), self.reprofiles);
        out
    }
}

impl Tracer for MachineCounters {
    const FINE: bool = true;

    #[inline]
    fn event(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::LineEvict { speculative, .. } => {
                self.line_evictions += 1;
                self.spec_line_evictions += u64::from(speculative);
            }
            TraceEvent::SpecStore { .. } => self.spec_stores += 1,
            TraceEvent::SpecLoad { exposed: true, .. } => self.spec_loads_exposed += 1,
            TraceEvent::SpecLoad { exposed: false, .. } => self.spec_loads_buffered += 1,
            TraceEvent::CommitWrite { .. } => self.commit_writes += 1,
            TraceEvent::EpochCommit { .. } => self.epochs_committed += 1,
            TraceEvent::EpochSquash { .. } => self.epochs_squashed += 1,
            TraceEvent::SignalSend { kind, .. } => match kind {
                SignalKind::Scalar(_) => self.signal_sends_scalar += 1,
                SignalKind::Mem(_) => self.signal_sends_mem += 1,
                SignalKind::MemNull(_) => self.signal_sends_mem_null += 1,
            },
            TraceEvent::SignalRecv { kind, .. } => match kind {
                SignalKind::Scalar(_) => self.signal_recvs_scalar += 1,
                SignalKind::Mem(_) | SignalKind::MemNull(_) => self.signal_recvs_mem += 1,
            },
            TraceEvent::Violation { kind, .. } => self.violations[violation_index(kind)] += 1,
            TraceEvent::WaitBegin { kind, .. } => match kind {
                WaitKind::Scalar(_) => self.waits_scalar += 1,
                WaitKind::Mem(_) => self.waits_mem += 1,
                WaitKind::Oldest => self.waits_oldest += 1,
            },
            TraceEvent::PredictedLoad { .. } => self.predicted_loads += 1,
            TraceEvent::PolicyTransition { to, .. } => self.policy_transitions[to.index()] += 1,
            TraceEvent::Reprofile { .. } => self.reprofiles += 1,
            _ => {}
        }
    }

    #[inline]
    fn fine(&mut self, f: Fine) {
        match f {
            Fine::Retire(class) => self.retired[class.index()] += 1,
            Fine::Access(MemLevel::L1) => self.l1_hits += 1,
            Fine::Access(MemLevel::L2) => self.l2_hits += 1,
            Fine::Access(MemLevel::Mem) => self.mem_fetches += 1,
            Fine::WbOccupancy { words, lines } => {
                self.wb_words_high_water = self.wb_words_high_water.max(words as u64);
                self.wb_lines_high_water = self.wb_lines_high_water.max(lines as u64);
            }
            Fine::PredictionsVerified(n) => self.predictions_verified += n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{ChanId, GroupId, RegionId};

    #[test]
    fn fold_maps_events_and_fine_facts_to_rows() {
        let (rid, ord, time) = (RegionId(0), 0, 0);
        let violation = |kind| TraceEvent::Violation {
            rid,
            ord,
            kind,
            load_sid: None,
            store_sid: None,
            addr: None,
            producer: None,
            consumer: 1,
            core: 1,
            time,
        };
        let signal = |kind| TraceEvent::SignalRecv {
            rid,
            ord,
            epoch: 1,
            core: 1,
            kind,
            addr: None,
            value: 0,
            time,
        };
        let transition = |to| TraceEvent::PolicyTransition {
            rid,
            ord,
            epoch: 1,
            core: 1,
            sid: tls_ir::Sid(0),
            from: Policy::Forward,
            to,
            time,
        };
        let mut c = MachineCounters::default();
        for e in [
            violation(ViolationKind::Eager),
            violation(ViolationKind::Mispredict),
            signal(SignalKind::Scalar(ChanId(0))),
            signal(SignalKind::MemNull(GroupId(1))),
            transition(Policy::Stall),
            transition(Policy::Stall),
            transition(Policy::Predict),
            TraceEvent::Reprofile { rid, ord, time },
            TraceEvent::LineEvict {
                core: 0,
                line: 3,
                speculative: true,
                time,
            },
            TraceEvent::RegionEnter { rid, ord, time },
        ] {
            c.event(e);
        }
        for f in [
            Fine::Retire(OpClass::Load),
            Fine::Retire(OpClass::Load),
            Fine::Retire(OpClass::MulDiv),
            Fine::Access(MemLevel::L1),
            Fine::Access(MemLevel::Mem),
            Fine::WbOccupancy { words: 7, lines: 3 },
            Fine::WbOccupancy { words: 4, lines: 5 },
        ] {
            c.fine(f);
        }
        let rows = c.rows();
        assert_eq!(rows["adapt.to_stall"], 2);
        assert_eq!(rows["adapt.to_predict"], 1);
        assert_eq!(rows["adapt.to_forward"], 0);
        assert_eq!(rows["adapt.reprofiles"], 1);
        assert_eq!(c.total_policy_transitions(), 3);
        assert_eq!(rows["retired.load"], 2);
        assert_eq!(rows["retired.mul_div"], 1);
        assert_eq!(rows["cache.l1_hits"], 1);
        assert_eq!(rows["cache.mem_fetches"], 1);
        assert_eq!(rows["cache.line_evictions"], 1);
        assert_eq!(rows["cache.spec_line_evictions"], 1);
        assert_eq!(rows["violations.eager"], 1);
        assert_eq!(rows["violations.mispredict"], 1);
        assert_eq!(rows["signal.recvs_scalar"], 1);
        assert_eq!(rows["signal.recvs_mem"], 1);
        assert_eq!(rows["spec.wb_words_high_water"], 7);
        assert_eq!(rows["spec.wb_lines_high_water"], 5);
        assert_eq!(c.total_retired(), 3);
        assert_eq!(c.total_violations(), 2);
        assert_eq!(rows.len(), 40, "one row per counter slot");
    }

    #[test]
    fn merge_sums_counts_and_maxes_high_water() {
        let mut a = MachineCounters {
            spec_stores: 1,
            wb_words_high_water: 10,
            wb_lines_high_water: 2,
            predictions_verified: 3,
            ..MachineCounters::default()
        };
        let b = MachineCounters {
            spec_stores: 2,
            wb_words_high_water: 6,
            wb_lines_high_water: 4,
            predicted_loads: 1,
            ..MachineCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.spec_stores, 3);
        assert_eq!(a.wb_words_high_water, 10);
        assert_eq!(a.wb_lines_high_water, 4);
        assert_eq!(a.predicted_loads, 1);
        assert_eq!(a.predictions_verified, 3);
    }

    #[test]
    fn rates_handle_empty_banks() {
        let c = MachineCounters::default();
        assert_eq!(c.l1_hit_rate(), 0.0);
        assert_eq!(c.prediction_hit_rate(), 1.0);
        let c = MachineCounters {
            predicted_loads: 2,
            predictions_verified: 1,
            l1_hits: 2,
            l2_hits: 1,
            mem_fetches: 1,
            ..MachineCounters::default()
        };
        assert_eq!(c.prediction_hit_rate(), 0.5);
        assert_eq!(c.l1_hit_rate(), 0.5);
    }

    #[test]
    fn opclass_covers_every_instr_shape() {
        assert_eq!(OpClass::ALL.len(), OpClass::COUNT);
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        // Distinct stable names.
        let names: std::collections::BTreeSet<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpClass::COUNT);
    }
}
