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

use tls_ir::SplitMix64;

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

    /// Stable dense index (report rows, [`FaultSummary`] bins).
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

/// How one memory signal send is perturbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalFault {
    /// Garble address (XOR [`CORRUPT_ADDR_XOR`]) and value (add the delta)
    /// together on the wire.
    Corrupt {
        /// Nonzero perturbation added to the forwarded value.
        value_delta: i64,
    },
    /// Replace the signal with a NULL signal (no forwarded value).
    Drop,
    /// Add the given number of cycles to the signal's arrival time.
    Delay(u64),
    /// Deliver twice; the duplicate lands the given cycles later.
    Duplicate(u64),
}

/// How one eager violation detection is perturbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EagerFault {
    /// Convert the eager squash into a commit-time pending check (maskable).
    Defer,
    /// Swallow the violation entirely (contract-breaking).
    Suppress,
}

/// Per-class injection counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSummary {
    by_class: [u64; FaultClass::COUNT],
}

impl FaultSummary {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Faults injected of one class.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.by_class[class.index()]
    }

    /// Add another run's counters into this one.
    pub fn merge(&mut self, other: &FaultSummary) {
        for (a, b) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            *a += *b;
        }
    }

    /// One-line `class=count` summary of the nonzero bins.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = FaultClass::ALL
            .into_iter()
            .filter(|c| self.count(*c) > 0)
            .map(|c| format!("{}={}", c.name(), self.count(c)))
            .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" ")
        }
    }
}

/// A finite, explicit decision script (tests and replay).
#[derive(Clone, Debug)]
struct Script {
    decisions: Vec<bool>,
    cursor: usize,
}

/// A deterministic plan for perturbing one simulation.
///
/// Install it via `SimConfig::inject`; the [`crate::Machine`] consults the
/// plan at each protocol point for the enabled classes. All randomness comes
/// from the plan's own splitmix64 stream, so runs replay exactly.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    enabled: [bool; FaultClass::COUNT],
    rate: f64,
    budget: u64,
    rng: SplitMix64,
    script: Option<Script>,
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

    /// Whether `class` can still fire (enabled and under budget). Cheap:
    /// never consumes randomness, so it is safe to call speculatively.
    pub fn wants(&self, class: FaultClass) -> bool {
        self.enabled[class.index()] && self.injected() < self.budget
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Counters snapshot.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            by_class: self.by_class,
        }
    }

    /// One decision for `class`: fire or not.
    fn decide(&mut self, class: FaultClass) -> Result<bool, SimError> {
        if !self.wants(class) {
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

    /// Consulted when an epoch sends a forwarded memory signal.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_mem_signal(&mut self) -> Result<Option<SignalFault>, SimError> {
        if self.decide(FaultClass::CorruptSignal)? {
            let value_delta = self.delta();
            return Ok(Some(SignalFault::Corrupt { value_delta }));
        }
        if self.decide(FaultClass::DropSignal)? {
            return Ok(Some(SignalFault::Drop));
        }
        if self.decide(FaultClass::DelaySignal)? {
            let d = self.delay();
            return Ok(Some(SignalFault::Delay(d)));
        }
        if self.decide(FaultClass::DuplicateSignal)? {
            let d = self.delay();
            return Ok(Some(SignalFault::Duplicate(d)));
        }
        Ok(None)
    }

    /// Consulted when an epoch sends a scalar signal: extra delay cycles.
    /// Only [`FaultClass::DelaySignal`] applies — scalar synchronization is
    /// non-speculative, so dropping or corrupting it has no recovery net.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_scalar_signal(&mut self) -> Result<Option<u64>, SimError> {
        if self.decide(FaultClass::DelaySignal)? {
            let d = self.delay();
            return Ok(Some(d));
        }
        Ok(None)
    }

    /// Consulted when eager detection finds a store→read-set conflict.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_eager_violation(&mut self) -> Result<Option<EagerFault>, SimError> {
        if self.decide(FaultClass::DeferEager)? {
            return Ok(Some(EagerFault::Defer));
        }
        if self.decide(FaultClass::SuppressViolation)? {
            return Ok(Some(EagerFault::Suppress));
        }
        Ok(None)
    }

    /// Consulted when a hardware value prediction is available: a nonzero
    /// delta to add to the predicted value.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_prediction(&mut self) -> Result<Option<i64>, SimError> {
        if self.decide(FaultClass::CorruptPrediction)? {
            let d = self.delta();
            return Ok(Some(d));
        }
        Ok(None)
    }

    /// Consulted on a speculative load: spuriously evict the line?
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_spec_load(&mut self) -> Result<bool, SimError> {
        self.decide(FaultClass::EvictLine)
    }

    /// Consulted per word as a committing write buffer drains: a nonzero
    /// delta to add to the written-back value.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_commit_write(&mut self) -> Result<Option<i64>, SimError> {
        if self.decide(FaultClass::CorruptCommitWrite)? {
            let d = self.delta();
            return Ok(Some(d));
        }
        Ok(None)
    }

    /// Consulted when a consumer uses a forwarded value whose address
    /// matched: a nonzero delta to add to the consumed value.
    ///
    /// # Errors
    /// [`SimError::FaultPlanExhausted`] on an overrun script.
    pub fn on_signal_recv(&mut self) -> Result<Option<i64>, SimError> {
        if self.decide(FaultClass::CorruptSignalValue)? {
            let d = self.delta();
            return Ok(Some(d));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn seeded_plans_replay_exactly() {
        let mk = || FaultPlan::seeded(42, &[FaultClass::CorruptSignal], 0.5, 8);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..64 {
            assert_eq!(
                a.on_mem_signal().expect("seeded never exhausts"),
                b.on_mem_signal().expect("seeded never exhausts")
            );
        }
        assert_eq!(a.summary(), b.summary());
        assert!(a.summary().injected() <= 8);
    }

    #[test]
    fn budget_caps_total_injections() {
        let mut p = FaultPlan::seeded(7, &[FaultClass::EvictLine], 1.0, 3);
        let mut fired = 0;
        for _ in 0..100 {
            if p.on_spec_load().expect("seeded never exhausts") {
                fired += 1;
            }
        }
        assert_eq!(fired, 3);
        assert_eq!(p.summary().count(FaultClass::EvictLine), 3);
        assert!(!p.wants(FaultClass::EvictLine));
    }

    #[test]
    fn scripted_plan_follows_script_then_errors() {
        let mut p = FaultPlan::scripted(FaultClass::DropSignal, vec![false, true]);
        assert_eq!(p.on_mem_signal().expect("in script"), None);
        assert_eq!(
            p.on_mem_signal().expect("in script"),
            Some(SignalFault::Drop)
        );
        match p.on_mem_signal() {
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
        assert_eq!(p.on_eager_violation().expect("no classes apply"), None);
        assert!(p.on_scalar_signal().expect("in script").is_some());
    }

    #[test]
    fn summary_merges_and_prints() {
        let mut p = FaultPlan::seeded(1, &[FaultClass::DelaySignal], 1.0, 2);
        let _ = p.on_scalar_signal().expect("seeded");
        let _ = p.on_scalar_signal().expect("seeded");
        let mut total = FaultSummary::default();
        total.merge(&p.summary());
        total.merge(&p.summary());
        assert_eq!(total.count(FaultClass::DelaySignal), 4);
        assert_eq!(total.injected(), 4);
        assert!(total.summary().contains("delay-signal=4"));
        assert_eq!(FaultSummary::default().summary(), "none");
    }
}
