//! Seeded, deterministic fault injection against the TLS protocol.
//!
//! The paper's central robustness claim (§2.2) is that compiler-inserted
//! synchronization is *speculation about communication*: the signal-address
//! buffer and the `use_forwarded_value` re-check guarantee that wrong
//! forwarding costs cycles, never correctness. A [`FaultPlan`] perturbs the
//! simulated hardware at defined protocol points to prove that net actually
//! catches. Fault classes are partitioned:
//!
//! * **Maskable** ([`FaultClass::MASKABLE`]) — the protocol machinery must
//!   absorb them. A run with only maskable faults injected ends with final
//!   memory byte-equal to the sequential oracle; only cycle counts (extra
//!   squashes, stalls, misses) may degrade.
//! * **Contract-breaking** ([`FaultClass::CONTRACT`]) — deliberately outside
//!   the net. A run in which one fired must be rejected by the protocol
//!   model ([`crate::check_conformance`]), proving the checker non-vacuous.
//!
//! Plans are deterministic: [`FaultPlan::seeded`] drives every decision from
//! a splitmix64 stream, so the same `(seed, classes, rate, budget)` tuple
//! replays the identical fault sequence. [`FaultPlan::scripted`] instead
//! follows an explicit decision list and reports
//! [`SimError::FaultPlanExhausted`] when the simulation outruns it — the
//! typed alternative to an out-of-bounds panic inside the machine.
//! [`FaultPlan::mutation`] carries one deliberate protocol bug
//! ([`Mutation`]) instead of fault classes.
//!
//! A plan reaches the machine as a tracer: `plan.over(tracer)` wraps the
//! run's own tracer, turns on [`Tracer::FAULTS`] and answers each
//! [`FaultSite`] with a [`Fault`] or nothing. Every other tracer leaves
//! `FAULTS` off, which compiles the fault sites out of its runs.

use tls_ir::SplitMix64;

use crate::events::{Fine, TraceEvent, Tracer};
use crate::machine::SimError;

/// XOR mask applied to a forwarded address by [`FaultClass::CorruptSignal`].
///
/// Bit 40 is far above every simulated data address, so the corrupted
/// address can never equal the consumer's load address: the §2.2
/// `use_forwarded_value` re-check is guaranteed to see a mismatch and fall
/// back to a plain (recoverable) load.
pub const CORRUPT_ADDR_XOR: i64 = 1 << 40;

/// One class of injectable hardware fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Garble a forwarded memory signal on the wire: address and value are
    /// corrupted *together*, so the consumer's address re-check fails and it
    /// falls back to a plain load. Maskable — the fallback is the §2.2
    /// recovery path, at the cost of stalls and possible squashes.
    CorruptSignal,
    /// Drop a forwarded memory signal: the consumer sees a NULL signal and
    /// falls back to a plain load. Maskable.
    DropSignal,
    /// Delay a signal's arrival by extra crossbar cycles. Maskable — pure
    /// timing. The only class applied to scalar signals (scalar sync is
    /// non-speculative; dropping it would deadlock by design).
    DelaySignal,
    /// Deliver a memory signal twice: the duplicate occupies an extra
    /// signal-address-buffer entry and the later delivery wins. Maskable —
    /// pure timing.
    DuplicateSignal,
    /// Spuriously evict the accessed line from the local L1 after a
    /// speculative load. Maskable — caches hold no correctness state.
    EvictLine,
    /// Suppress eager (invalidation-based) violation detection for one
    /// store→load conflict, deferring it to the producer's commit. Maskable
    /// — the commit-time check still squashes the consumer, later.
    DeferEager,
    /// Perturb a hardware value prediction (forcing one from the table even
    /// below the confidence threshold if needed). Maskable — commit-time
    /// verification re-reads memory and squashes on mismatch.
    CorruptPrediction,
    /// Corrupt a forwarded value *as it is consumed*, address intact. The
    /// §2.2 net only re-checks addresses, so nothing inside the machine
    /// catches this: the protocol model must reject the run.
    CorruptSignalValue,
    /// Swallow an eager violation entirely — no squash, no deferral. The
    /// consumer commits stale data; the model must flag a missed violation.
    SuppressViolation,
    /// Flip a value as a committing epoch's write buffer drains to memory.
    /// The model's write-back equality check must reject the run.
    CorruptCommitWrite,
}

impl FaultClass {
    /// Number of fault classes.
    pub const COUNT: usize = 10;

    /// Every class, maskable first, in stable report order.
    pub const ALL: [FaultClass; FaultClass::COUNT] = [
        FaultClass::CorruptSignal,
        FaultClass::DropSignal,
        FaultClass::DelaySignal,
        FaultClass::DuplicateSignal,
        FaultClass::EvictLine,
        FaultClass::DeferEager,
        FaultClass::CorruptPrediction,
        FaultClass::CorruptSignalValue,
        FaultClass::SuppressViolation,
        FaultClass::CorruptCommitWrite,
    ];

    /// Classes the protocol machinery must absorb (oracle-equal runs).
    pub const MASKABLE: [FaultClass; 7] = [
        FaultClass::CorruptSignal,
        FaultClass::DropSignal,
        FaultClass::DelaySignal,
        FaultClass::DuplicateSignal,
        FaultClass::EvictLine,
        FaultClass::DeferEager,
        FaultClass::CorruptPrediction,
    ];

    /// Classes outside the net: the conformance checker must reject them.
    pub const CONTRACT: [FaultClass; 3] = [
        FaultClass::CorruptSignalValue,
        FaultClass::SuppressViolation,
        FaultClass::CorruptCommitWrite,
    ];

    /// Stable dense index (report rows, per-class counters).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name (CLI `--faults` lists, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::CorruptSignal => "corrupt-signal",
            FaultClass::DropSignal => "drop-signal",
            FaultClass::DelaySignal => "delay-signal",
            FaultClass::DuplicateSignal => "duplicate-signal",
            FaultClass::EvictLine => "evict-line",
            FaultClass::DeferEager => "defer-eager",
            FaultClass::CorruptPrediction => "corrupt-prediction",
            FaultClass::CorruptSignalValue => "corrupt-signal-value",
            FaultClass::SuppressViolation => "suppress-violation",
            FaultClass::CorruptCommitWrite => "corrupt-commit-write",
        }
    }

    /// Parse a [`FaultClass::name`] back to the class.
    pub fn from_name(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Whether the protocol machinery is required to absorb this class.
    pub fn is_maskable(self) -> bool {
        !FaultClass::CONTRACT.contains(&self)
    }
}

/// A protocol point at which a fault hook ([`Tracer::fault`]) is consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// An epoch sends a forwarded memory signal.
    MemSignal,
    /// An epoch sends a scalar signal. Only [`FaultClass::DelaySignal`]
    /// applies: scalar synchronization is non-speculative, so dropping or
    /// corrupting it has no recovery net.
    ScalarSignal,
    /// Eager detection found a store→read-set conflict. The site's epoch is
    /// the victim, not the storing epoch.
    EagerViolation,
    /// A hardware value prediction is available for a load (mode `P`):
    /// a confident one, or a below-threshold table entry.
    Prediction,
    /// A speculative load read committed memory.
    SpecLoad,
    /// A word of a committing epoch's write buffer drains to memory.
    CommitWrite,
    /// A consumer uses a forwarded value whose address matched.
    SignalRecv,
    /// The check a [`Mutation`] removes is about to run.
    Check(Mutation),
}

impl FaultPoint {
    /// The site of this point in `epoch`, at `addr` and cycle `time`.
    pub fn at(self, epoch: u64, addr: Option<i64>, time: u64) -> FaultSite {
        FaultSite {
            point: self,
            epoch,
            addr,
            time,
        }
    }
}

/// Where and when a fault hook is consulted: the protocol point and what a
/// [`TraceEvent::FaultInject`] reports of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// The protocol point.
    pub point: FaultPoint,
    /// The epoch index the fault applies to.
    pub epoch: u64,
    /// The word address involved, when address-specific.
    pub addr: Option<i64>,
    /// The cycle.
    pub time: u64,
}

/// What the machine does at a [`FaultSite`] when a fault hook fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Add this nonzero delta to the site's value: a draining commit
    /// write, a prediction or a consumed forwarded value.
    Perturb(i64),
    /// Garble a memory signal on the wire: XOR [`CORRUPT_ADDR_XOR`] into
    /// its address and add this nonzero delta to its value.
    Corrupt(i64),
    /// Replace a memory signal with a NULL signal (no forwarded value).
    Drop,
    /// Add this many cycles to a signal's arrival time.
    Delay(u64),
    /// Deliver a memory signal twice; the duplicate lands this many cycles
    /// later.
    Duplicate(u64),
    /// Evict the just-loaded line from the local caches.
    Evict,
    /// Turn an eager squash into a commit-time pending check (maskable).
    Defer,
    /// Swallow an eager violation entirely (contract-breaking).
    Suppress,
    /// Skip the check at a [`FaultPoint::Check`] site.
    Skip,
}

/// A deliberate protocol bug that a plan can carry
/// ([`FaultPlan::mutation`]). Unlike a [`FaultClass`], a mutation fires on
/// every visit to its site, draws no randomness, counts nothing and emits
/// no event. The differential fuzzer and the conformance self-tests use
/// them to show that their checkers catch a broken protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// A `SyncLoad` consumes a forwarded value even when the forwarded
    /// address does not match its own: the §2.2 `use_forwarded_value`
    /// re-check is skipped. Final-state differencing must catch it.
    SkipForwardRecheck,
    /// A `SyncLoad` that falls back to a plain memory read skips the
    /// exposed-read-set insertion, so a later conflicting store cannot
    /// squash it. The protocol model must report a missed violation.
    SkipExposedRead,
    /// The adaptive PREDICT path consumes its predicted value but skips the
    /// commit-time verification entry, so a wrong prediction commits. The
    /// protocol model must report a missed mispredict.
    SkipPredictionVerify,
}

/// A finite, explicit decision script (tests and replay).
#[derive(Clone, Debug)]
struct Script {
    decisions: Vec<bool>,
    cursor: usize,
}

/// A deterministic plan for perturbing one simulation.
///
/// A plan drives a run as its tracer: [`FaultPlan::over`] wraps the run's
/// own tracer, and the [`crate::Machine`] consults the plan at each
/// protocol point. All randomness comes from the plan's own splitmix64
/// stream, so runs replay exactly. The caller keeps the plan and reads its
/// counts after the run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    enabled: [bool; FaultClass::COUNT],
    rate: f64,
    budget: u64,
    rng: SplitMix64,
    script: Option<Script>,
    mutation: Option<Mutation>,
    by_class: [u64; FaultClass::COUNT],
}

impl FaultPlan {
    /// A plan whose decisions are drawn from a seeded splitmix64 stream.
    ///
    /// At each protocol point where one of `classes` applies, the plan fires
    /// with probability `rate`, up to `budget` total injections.
    pub fn seeded(seed: u64, classes: &[FaultClass], rate: f64, budget: u64) -> FaultPlan {
        let mut enabled = [false; FaultClass::COUNT];
        for c in classes {
            enabled[c.index()] = true;
        }
        FaultPlan {
            enabled,
            rate,
            budget,
            rng: SplitMix64::seed_from_u64(seed),
            script: None,
            mutation: None,
            by_class: [0; FaultClass::COUNT],
        }
    }

    /// A plan for exactly one class that follows an explicit decision list.
    ///
    /// When the simulation reaches more decision points than the script
    /// covers, the machine run fails with [`SimError::FaultPlanExhausted`].
    pub fn scripted(class: FaultClass, decisions: Vec<bool>) -> FaultPlan {
        let mut plan = FaultPlan::seeded(0, &[class], 1.0, u64::MAX);
        plan.script = Some(Script {
            decisions,
            cursor: 0,
        });
        plan
    }

    /// A plan that injects no fault class and applies `mutation` on every
    /// visit to its site.
    pub fn mutation(mutation: Mutation) -> FaultPlan {
        FaultPlan {
            mutation: Some(mutation),
            ..FaultPlan::seeded(0, &[], 0.0, 0)
        }
    }

    /// This plan driving a run as its tracer, over the run's own `inner`
    /// tracer.
    pub fn over<T: Tracer>(&mut self, inner: T) -> Faulted<'_, T> {
        Faulted { plan: self, inner }
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Faults of `class` injected so far.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.by_class[class.index()]
    }

    /// One decision for `class`: fire or not. A class that is disabled or
    /// over budget consumes no randomness and no script step.
    fn decide(&mut self, class: FaultClass) -> Result<bool, SimError> {
        if !self.enabled[class.index()] || self.injected() >= self.budget {
            return Ok(false);
        }
        let fire = match &mut self.script {
            Some(s) => {
                if s.cursor >= s.decisions.len() {
                    return Err(SimError::FaultPlanExhausted {
                        class: class.name(),
                        decision: s.cursor as u64,
                    });
                }
                let f = s.decisions[s.cursor];
                s.cursor += 1;
                f
            }
            None => self.rng.chance(self.rate),
        };
        if fire {
            self.by_class[class.index()] += 1;
        }
        Ok(fire)
    }

    /// A nonzero value perturbation.
    fn delta(&mut self) -> i64 {
        (self.rng.next_u64() | 1) as i64
    }

    /// A small extra-latency amount (1–128 cycles).
    fn delay(&mut self) -> u64 {
        1 + self.rng.next_u64() % 128
    }

    /// The decision at `point`: the classes that apply there are tried in
    /// order, and the first that fires draws its effect.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    fn decide_at(&mut self, point: FaultPoint) -> Result<Option<(FaultClass, Fault)>, SimError> {
        use FaultClass::*;
        let classes: &[FaultClass] = match point {
            FaultPoint::MemSignal => &[CorruptSignal, DropSignal, DelaySignal, DuplicateSignal],
            FaultPoint::ScalarSignal => &[DelaySignal],
            FaultPoint::EagerViolation => &[DeferEager, SuppressViolation],
            FaultPoint::Prediction => &[CorruptPrediction],
            FaultPoint::SpecLoad => &[EvictLine],
            FaultPoint::CommitWrite => &[CorruptCommitWrite],
            FaultPoint::SignalRecv => &[CorruptSignalValue],
            FaultPoint::Check(_) => &[],
        };
        for &class in classes {
            if self.decide(class)? {
                let fault = match class {
                    CorruptSignal => Fault::Corrupt(self.delta()),
                    DropSignal => Fault::Drop,
                    DelaySignal => Fault::Delay(self.delay()),
                    DuplicateSignal => Fault::Duplicate(self.delay()),
                    EvictLine => Fault::Evict,
                    DeferEager => Fault::Defer,
                    SuppressViolation => Fault::Suppress,
                    CorruptPrediction | CorruptSignalValue | CorruptCommitWrite => {
                        Fault::Perturb(self.delta())
                    }
                };
                return Ok(Some((class, fault)));
            }
        }
        Ok(None)
    }
}

/// A [`FaultPlan`] driving a run over the run's own tracer
/// ([`FaultPlan::over`]). Events and [`Fine`] facts pass through to the
/// inner tracer; each fired fault is counted in the plan and reported to
/// the inner tracer as one [`TraceEvent::FaultInject`], at decision time.
#[derive(Debug)]
pub struct Faulted<'p, T> {
    plan: &'p mut FaultPlan,
    inner: T,
}

impl<T: Tracer> Tracer for Faulted<'_, T> {
    const ENABLED: bool = T::ENABLED;
    const FINE: bool = T::FINE;
    const FAULTS: bool = true;

    #[inline(always)]
    fn event(&mut self, e: TraceEvent) {
        self.inner.event(e);
    }

    #[inline(always)]
    fn fine(&mut self, f: Fine) {
        self.inner.fine(f);
    }

    fn fault(&mut self, at: FaultSite) -> Result<Option<Fault>, SimError> {
        if let FaultPoint::Check(m) = at.point {
            return Ok((self.plan.mutation == Some(m)).then_some(Fault::Skip));
        }
        let Some((class, fault)) = self.plan.decide_at(at.point)? else {
            return Ok(None);
        };
        if T::ENABLED {
            self.inner.event(TraceEvent::FaultInject {
                class,
                epoch: at.epoch,
                addr: at.addr,
                time: at.time,
            });
        }
        Ok(Some(fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullTracer, RecordingTracer};

    #[test]
    fn partitions_cover_all_classes_exactly_once() {
        assert_eq!(
            FaultClass::MASKABLE.len() + FaultClass::CONTRACT.len(),
            FaultClass::COUNT
        );
        for c in FaultClass::ALL {
            let in_mask = FaultClass::MASKABLE.contains(&c);
            let in_contract = FaultClass::CONTRACT.contains(&c);
            assert!(in_mask ^ in_contract, "{}", c.name());
            assert_eq!(c.is_maskable(), in_mask);
            assert_eq!(FaultClass::from_name(c.name()), Some(c));
        }
        assert_eq!(FaultClass::from_name("no-such-fault"), None);
    }

    /// Consult `plan` once at `point`, as the machine does.
    fn consult(plan: &mut FaultPlan, point: FaultPoint) -> Result<Option<Fault>, SimError> {
        plan.over(NullTracer).fault(point.at(1, Some(64), 10))
    }

    #[test]
    fn seeded_plans_replay_exactly() {
        let mk = || FaultPlan::seeded(42, &[FaultClass::CorruptSignal], 0.5, 8);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..64 {
            assert_eq!(
                consult(&mut a, FaultPoint::MemSignal).expect("seeded never exhausts"),
                consult(&mut b, FaultPoint::MemSignal).expect("seeded never exhausts")
            );
        }
        assert_eq!(a.by_class, b.by_class);
        assert!(a.injected() <= 8);
    }

    #[test]
    fn budget_caps_total_injections() {
        let mut p = FaultPlan::seeded(7, &[FaultClass::EvictLine], 1.0, 3);
        let mut fired = 0;
        for _ in 0..100 {
            if consult(&mut p, FaultPoint::SpecLoad).expect("seeded never exhausts")
                == Some(Fault::Evict)
            {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(p.count(FaultClass::EvictLine), 3);
    }

    #[test]
    fn scripted_plan_follows_script_then_errors() {
        let mut p = FaultPlan::scripted(FaultClass::DropSignal, vec![false, true]);
        assert_eq!(
            consult(&mut p, FaultPoint::MemSignal).expect("in script"),
            None
        );
        assert_eq!(
            consult(&mut p, FaultPoint::MemSignal).expect("in script"),
            Some(Fault::Drop)
        );
        match consult(&mut p, FaultPoint::MemSignal) {
            Err(SimError::FaultPlanExhausted { class, decision }) => {
                assert_eq!(class, "drop-signal");
                assert_eq!(decision, 2);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn disabled_classes_never_fire_or_consume_decisions() {
        let mut p = FaultPlan::scripted(FaultClass::DelaySignal, vec![true]);
        // Eager-violation sites only consult DeferEager/SuppressViolation;
        // neither is enabled, so the script must stay untouched.
        assert_eq!(
            consult(&mut p, FaultPoint::EagerViolation).expect("no classes apply"),
            None
        );
        assert!(consult(&mut p, FaultPoint::ScalarSignal)
            .expect("in script")
            .is_some());
    }

    #[test]
    fn fired_faults_reach_the_inner_tracer_and_mutations_stay_silent() {
        let mut plan = FaultPlan::seeded(1, &[FaultClass::CorruptCommitWrite], 1.0, 1);
        let mut rec = RecordingTracer::default();
        let site = FaultPoint::CommitWrite.at(3, Some(96), 40);
        let mut hooked = plan.over(&mut rec);
        assert!(matches!(hooked.fault(site), Ok(Some(Fault::Perturb(d))) if d != 0));
        // The budget of one is spent: no second fault, no second event.
        assert_eq!(hooked.fault(site), Ok(None));
        let check = FaultPoint::Check(Mutation::SkipExposedRead).at(3, Some(96), 40);
        assert_eq!(hooked.fault(check), Ok(None));
        assert_eq!(
            rec.events,
            vec![TraceEvent::FaultInject {
                class: FaultClass::CorruptCommitWrite,
                epoch: 3,
                addr: Some(96),
                time: 40,
            }]
        );
        assert_eq!(plan.count(FaultClass::CorruptCommitWrite), 1);

        let mut m = FaultPlan::mutation(Mutation::SkipExposedRead);
        let mut rec = RecordingTracer::default();
        let mut hooked = m.over(&mut rec);
        for _ in 0..3 {
            assert_eq!(hooked.fault(check), Ok(Some(Fault::Skip)));
        }
        let other = FaultPoint::Check(Mutation::SkipForwardRecheck).at(3, Some(96), 40);
        assert_eq!(hooked.fault(other), Ok(None));
        assert_eq!(hooked.fault(site), Ok(None));
        assert!(rec.events.is_empty());
        assert_eq!(m.injected(), 0);
    }
}
