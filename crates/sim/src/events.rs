//! Typed epoch-event tracing: the observability layer of the simulator.
//!
//! The paper explains every cycle it reports — graduation slots are split
//! into busy/fail/sync/other and each violation is attributed to the
//! synchronization scheme that would have covered it. The aggregate
//! [`crate::SimResult`] reproduces those end-of-run numbers; this module
//! exposes the *per-event* stream behind them so a run can be debugged:
//! which epoch stalled on which `wait`, which store→load edge caused each
//! squash, and where the time of a `fail` or `sync` segment actually went.
//!
//! The [`Tracer`] trait is statically dispatched and zero-cost when
//! disabled: every emission site in the machine is guarded by the
//! associated constant [`Tracer::ENABLED`], so with the default
//! [`NullTracer`] the event construction is compiled out of the hot loop
//! entirely (`disabled_tracing_pays_nothing` in the root
//! `tests/trace_invariants.rs` pins this property).
//! It is the machine's only observation channel: the
//! [`crate::MachineCounters`] bank is itself a tracer folding this stream,
//! plus the per-instruction [`Fine`] facts it opts into. It is also the
//! machine's only test hook: a [`crate::inject::FaultPlan`] perturbs a run
//! by wrapping its tracer, through the fault sites that
//! [`Tracer::FAULTS`] compiles out of every other run.

use tls_ir::{ChanId, GroupId, RegionId, Sid};

use crate::adapt::Policy;
use crate::counters::{MemLevel, OpClass};
use crate::inject::{Fault, FaultClass, FaultSite};
use crate::machine::SimError;

/// What an epoch is blocked on while in a wait state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitKind {
    /// A compiler-inserted scalar channel (`wait` instruction).
    Scalar(ChanId),
    /// A compiler-inserted memory group (`SyncLoad` awaiting its signal).
    Mem(GroupId),
    /// Stalling until this epoch is the oldest (hardware synchronization,
    /// the `L` policy, or a marked load).
    Oldest,
}

/// Which channel a forwarded value travelled on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SignalKind {
    /// Scalar channel (`signal` instruction).
    Scalar(ChanId),
    /// Memory group with a forwarded `(addr, value)` pair.
    Mem(GroupId),
    /// Memory group NULL signal (no value produced on this path; possibly a
    /// relayed value under `relay_forwarding`).
    MemNull(GroupId),
}

impl SignalKind {
    /// The wait state this signal satisfies.
    pub fn wait_kind(&self) -> WaitKind {
        match self {
            SignalKind::Scalar(c) => WaitKind::Scalar(*c),
            SignalKind::Mem(g) | SignalKind::MemNull(g) => WaitKind::Mem(*g),
        }
    }
}

/// How a violation was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A store hit a later epoch's read set (invalidation-based eager
    /// detection, false sharing included).
    Eager,
    /// A load read committed memory while an earlier epoch held an
    /// uncommitted store to the same line; fired when that epoch committed.
    CommitTime,
    /// The producer stored to an address it had already forwarded and the
    /// consumer had used the stale value (signal-address-buffer, §2.2).
    Resignal,
    /// A hardware value prediction failed commit-time verification.
    Mispredict,
}

impl ViolationKind {
    /// Stable lowercase name (JSON keys, report rows).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::Eager => "eager",
            ViolationKind::CommitTime => "commit_time",
            ViolationKind::Resignal => "resignal",
            ViolationKind::Mispredict => "mispredict",
        }
    }
}

/// One timestamped simulator event.
///
/// `ord` is the dynamic region-instance ordinal ([`crate::Machine`] counts
/// region entries program-wide), so events of different instances of the
/// same static region can be told apart. Epoch indices are per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Parallel execution of a region instance began.
    RegionEnter {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Entry cycle.
        time: u64,
    },
    /// The region instance finished (its exit epoch committed).
    RegionExit {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Exit cycle.
        time: u64,
    },
    /// An epoch was spawned on a core.
    EpochSpawn {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index within the instance.
        epoch: u64,
        /// Core the epoch runs on.
        core: usize,
        /// Spawn cycle.
        time: u64,
    },
    /// An epoch attempt committed.
    EpochCommit {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Start of the committed attempt.
        start: u64,
        /// Commit completion cycle.
        end: u64,
        /// Instructions graduated by the attempt (busy-slot source).
        graduated: u64,
        /// Cycles the attempt spent blocked on synchronization.
        sync_cycles: u64,
    },
    /// An epoch attempt was squashed (and the epoch restarted).
    EpochSquash {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Start of the squashed attempt.
        start: u64,
        /// Squash cycle.
        end: u64,
        /// Cycle at which the restarted attempt begins.
        restart: u64,
        /// The violating load of the triggering dependence, if known.
        load_sid: Option<Sid>,
        /// The violating store of the triggering dependence, if known.
        store_sid: Option<Sid>,
    },
    /// An epoch attempt was cancelled because the region exited before the
    /// epoch's turn (not a violation).
    EpochCancel {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Start of the cancelled attempt.
        start: u64,
        /// Cancellation cycle (region exit commit).
        end: u64,
    },
    /// An inter-epoch dependence violation was detected. One violation
    /// squashes the named consumer and, cascading, every later epoch.
    Violation {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Detection kind.
        kind: ViolationKind,
        /// The offending load's static id, if known.
        load_sid: Option<Sid>,
        /// The offending store's static id, if known.
        store_sid: Option<Sid>,
        /// Word address of the dependence, if known.
        addr: Option<i64>,
        /// Producer (storing) epoch index, if known.
        producer: Option<u64>,
        /// Consumer (first squashed) epoch index.
        consumer: u64,
        /// Core of the consumer epoch.
        core: usize,
        /// Detection cycle.
        time: u64,
    },
    /// An epoch began waiting.
    WaitBegin {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// What the epoch waits on.
        kind: WaitKind,
        /// Cycle the wait began.
        time: u64,
    },
    /// An epoch stopped waiting (signal arrived, became oldest, or the
    /// attempt ended by squash/cancel).
    WaitEnd {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// What the epoch was waiting on.
        kind: WaitKind,
        /// Cycle the matching wait began.
        since: u64,
        /// Cycle the wait ended.
        time: u64,
    },
    /// An epoch sent a forwarded value (or NULL) to its successor.
    SignalSend {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Sending epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Channel/group and flavour.
        kind: SignalKind,
        /// Forwarded address for memory signals.
        addr: Option<i64>,
        /// Forwarded value (0 for NULL signals).
        value: i64,
        /// Send cycle.
        time: u64,
    },
    /// An epoch consumed a forwarded value.
    SignalRecv {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Receiving epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Channel/group the value arrived on.
        kind: SignalKind,
        /// Address the value was forwarded for (memory signals).
        addr: Option<i64>,
        /// The consumed value.
        value: i64,
        /// Consumption cycle.
        time: u64,
    },
    /// A cache line was evicted by an epoch's access; `speculative` is true
    /// when the evicting epoch held speculative state (exposed read or
    /// buffered write) for the victim line.
    LineEvict {
        /// Core whose L1 (or the shared L2) evicted.
        core: usize,
        /// Victim line number.
        line: i64,
        /// Whether the accessing epoch had speculative state on the line.
        speculative: bool,
        /// Eviction cycle.
        time: u64,
    },
    /// A speculative store entered an epoch's write buffer (stays private
    /// until commit).
    SpecStore {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Storing epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Static id of the store.
        sid: Sid,
        /// Word address written.
        addr: i64,
        /// Value buffered.
        value: i64,
        /// Execution cycle.
        time: u64,
    },
    /// A speculative load executed. `exposed` is true when the value came
    /// from committed memory (and the line joins the epoch's read set —
    /// squashable), false when it was satisfied from the epoch's own write
    /// buffer (invisible to the violation rule).
    SpecLoad {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Loading epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Static id of the load.
        sid: Sid,
        /// Word address read.
        addr: i64,
        /// Value observed.
        value: i64,
        /// Whether the load read committed state (exposed read).
        exposed: bool,
        /// Execution cycle.
        time: u64,
    },
    /// A hardware value prediction was used for a load; verified against
    /// committed memory when the epoch commits.
    PredictedLoad {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Loading epoch index.
        epoch: u64,
        /// Core.
        core: usize,
        /// Static id of the load.
        sid: Sid,
        /// Word address read.
        addr: i64,
        /// Predicted value.
        value: i64,
        /// Execution cycle.
        time: u64,
    },
    /// One word of a committing epoch's write buffer drained to memory.
    /// Emitted before the attempt's [`TraceEvent::EpochCommit`].
    CommitWrite {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Committing epoch index.
        epoch: u64,
        /// Word address written back.
        addr: i64,
        /// Value made architectural.
        value: i64,
        /// Commit cycle.
        time: u64,
    },
    /// The adaptive controller switched a dependence's synchronization
    /// mechanism (see [`crate::adapt`]). Observational: the switch affects
    /// timing and forwarding provenance, never committed values.
    PolicyTransition {
        /// Static region.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Epoch whose load (or violation) drove the switch.
        epoch: u64,
        /// Core of that epoch.
        core: usize,
        /// The dependence (static load id) that switched.
        sid: Sid,
        /// Policy before the switch.
        from: Policy,
        /// Policy now in force.
        to: Policy,
        /// Switch cycle.
        time: u64,
    },
    /// The adaptive controller declared a dependence-distribution shift
    /// and bulk-reset every per-dependence policy (see [`crate::adapt`]).
    /// Counted once per reset, not as per-dependence transitions.
    Reprofile {
        /// Static region the triggering consultation belonged to.
        rid: RegionId,
        /// Dynamic instance ordinal.
        ord: u64,
        /// Reset cycle.
        time: u64,
    },
    /// A seeded fault plan perturbed the hardware at this point (see
    /// [`crate::inject`]); emitted once per fired fault, before the site's
    /// other events. Lets archived streams be audited for which protocol
    /// points were attacked.
    FaultInject {
        /// The injected fault's class.
        class: FaultClass,
        /// Epoch index the fault applied to.
        epoch: u64,
        /// Word address involved, when address-specific.
        addr: Option<i64>,
        /// Injection cycle.
        time: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp (cycle).
    pub fn time(&self) -> u64 {
        match *self {
            TraceEvent::RegionEnter { time, .. }
            | TraceEvent::RegionExit { time, .. }
            | TraceEvent::EpochSpawn { time, .. }
            | TraceEvent::Violation { time, .. }
            | TraceEvent::WaitBegin { time, .. }
            | TraceEvent::WaitEnd { time, .. }
            | TraceEvent::SignalSend { time, .. }
            | TraceEvent::SignalRecv { time, .. }
            | TraceEvent::LineEvict { time, .. }
            | TraceEvent::SpecStore { time, .. }
            | TraceEvent::SpecLoad { time, .. }
            | TraceEvent::PredictedLoad { time, .. }
            | TraceEvent::CommitWrite { time, .. }
            | TraceEvent::PolicyTransition { time, .. }
            | TraceEvent::Reprofile { time, .. }
            | TraceEvent::FaultInject { time, .. } => time,
            TraceEvent::EpochCommit { end, .. }
            | TraceEvent::EpochSquash { end, .. }
            | TraceEvent::EpochCancel { end, .. } => end,
        }
    }
}

/// A per-instruction machine fact that no [`TraceEvent`] carries, delivered
/// only to tracers that opt in with [`Tracer::FINE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fine {
    /// One instruction or terminator of this class executed.
    Retire(OpClass),
    /// An access was served by this level of the memory hierarchy.
    Access(MemLevel),
    /// Write-buffer occupancy right after a speculative store.
    WbOccupancy {
        /// Buffered words.
        words: usize,
        /// Dirty lines.
        lines: usize,
    },
    /// This many value predictions passed commit-time verification.
    PredictionsVerified(u64),
}

/// Receiver of simulator events, statically dispatched: the machine's one
/// hook surface.
///
/// Implementations with `ENABLED = false` cost nothing: the machine guards
/// every emission with `if T::ENABLED`, so the event value is never even
/// constructed; `FINE` and `FAULTS` gate their sites the same way.
/// Implementations are free to aggregate, record, or stream. A tracer whose
/// `FAULTS` is false is observational only.
pub trait Tracer {
    /// Gate for all emission sites; `false` compiles tracing out.
    const ENABLED: bool = true;

    /// Gate for the per-instruction [`Fine`] sites. Off by default, so an
    /// event-only tracer never pays a call per retired instruction.
    const FINE: bool = false;

    /// Gate for the fault sites ([`Tracer::fault`]). Off by default, so
    /// every fault site is compiled out of an observational run.
    const FAULTS: bool = false;

    /// Receive one event. Events arrive in the deterministic order the
    /// simulator produced them (not necessarily sorted by timestamp:
    /// commit-ordered bookkeeping can emit slightly out of time order).
    fn event(&mut self, e: TraceEvent);

    /// Receive one per-instruction fact; called only when
    /// [`Tracer::FINE`] is `true`.
    #[inline(always)]
    fn fine(&mut self, _f: Fine) {
        debug_assert!(Self::FINE, "a Fine site ignored the FINE gate");
    }

    /// Decide whether and how to perturb the machine at `at`; called only
    /// when [`Tracer::FAULTS`] is `true`. An error aborts the run.
    #[inline(always)]
    fn fault(&mut self, _at: FaultSite) -> Result<Option<Fault>, SimError> {
        debug_assert!(Self::FAULTS, "a fault site ignored the FAULTS gate");
        Ok(None)
    }
}

/// The default tracer: does nothing, compiled out of the hot loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _e: TraceEvent) {
        if cfg!(debug_assertions) {
            unreachable!("an event site ignored the ENABLED gate");
        }
    }
}

/// Forward through mutable references so callers can keep ownership.
impl<T: Tracer> Tracer for &mut T {
    const ENABLED: bool = T::ENABLED;
    const FINE: bool = T::FINE;
    const FAULTS: bool = T::FAULTS;

    #[inline(always)]
    fn event(&mut self, e: TraceEvent) {
        (**self).event(e);
    }

    #[inline(always)]
    fn fine(&mut self, f: Fine) {
        (**self).fine(f);
    }

    #[inline(always)]
    fn fault(&mut self, at: FaultSite) -> Result<Option<Fault>, SimError> {
        (**self).fault(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_disabled() {
        const { assert!(!NullTracer::ENABLED && !NullTracer::FINE && !NullTracer::FAULTS) };
        const { assert!(!<&mut NullTracer as Tracer>::ENABLED) };
    }

    #[test]
    fn event_time_accessor_covers_span_events() {
        let e = TraceEvent::EpochCommit {
            rid: RegionId(0),
            ord: 0,
            epoch: 3,
            core: 1,
            start: 10,
            end: 25,
            graduated: 40,
            sync_cycles: 0,
        };
        assert_eq!(e.time(), 25);
        let v = TraceEvent::Violation {
            rid: RegionId(0),
            ord: 0,
            kind: ViolationKind::Eager,
            load_sid: Some(Sid(1)),
            store_sid: Some(Sid(2)),
            addr: Some(64),
            producer: Some(0),
            consumer: 1,
            core: 1,
            time: 17,
        };
        assert_eq!(v.time(), 17);
        assert_eq!(ViolationKind::CommitTime.name(), "commit_time");
    }

    #[test]
    fn signal_kind_maps_to_wait_kind() {
        assert_eq!(
            SignalKind::Scalar(ChanId(2)).wait_kind(),
            WaitKind::Scalar(ChanId(2))
        );
        assert_eq!(
            SignalKind::Mem(GroupId(1)).wait_kind(),
            WaitKind::Mem(GroupId(1))
        );
        assert_eq!(
            SignalKind::MemNull(GroupId(1)).wait_kind(),
            WaitKind::Mem(GroupId(1))
        );
    }
}
