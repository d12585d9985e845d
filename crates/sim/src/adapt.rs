//! Adaptive per-dependence synchronization policies (ROADMAP item 4).
//!
//! The paper compares *static* value-communication policies fixed at
//! compile time: compiler-inserted forwarding, hardware synchronization,
//! hardware value prediction and hybrids. Its own train-vs-ref experiment
//! shows the weakness — profiled sync placement is input-sensitive. This
//! module adds the *online* counterpart: a per-static-load controller that
//! watches the violation stream and switches each dependence between
//!
//! * **FORWARD** — trust the compiler (or plain speculation): no hardware
//!   intervention; the default, and what quiet dependences decay back to;
//! * **STALL** — hardware synchronization: the load waits until its epoch
//!   is the oldest, the conservative scheme of §4.2;
//! * **PREDICT** — last-value prediction with 2-bit confidence, verified
//!   at commit exactly like mode `P`.
//!
//! Observed violations raise a per-sid score inside a periodic-decay
//! window (the same periodic-forgiveness idea as the
//! [`crate::ViolationTable`] reset); the score escalates FORWARD to STALL,
//! predictor confidence upgrades STALL to PREDICT, a verified
//! misprediction demotes PREDICT back to STALL, and full decay releases a
//! dependence to FORWARD again. A *re-profiling trigger* watches the
//! dependence-frequency distribution: when violations start arriving at
//! loads outside the established hot set (the phase-shift family's exact
//! failure mode), every per-dependence policy is reset at once so the
//! controller re-learns the new phase instead of serving the old one.
//!
//! Policy decisions change **timing and forwarding provenance only** —
//! never committed values. A STALL delays a load, a PREDICT substitutes a
//! value that commit-time verification re-checks against memory; the
//! conformance model therefore accepts adaptive runs unchanged, and the
//! seeded `break_adaptive_forwarding` mutation proves it would reject a
//! prediction that skipped verification.

use tls_ir::Sid;

use crate::events::ViolationKind;

/// The mechanism an adaptive dependence currently uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Policy {
    /// No hardware intervention: honor compiler signals, plain speculation
    /// otherwise.
    Forward,
    /// Hardware synchronization: stall the load until the epoch is oldest.
    Stall,
    /// Last-value prediction, verified at commit.
    Predict,
}

impl Policy {
    /// Stable lowercase name (JSON fields, counter rows).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Forward => "forward",
            Policy::Stall => "stall",
            Policy::Predict => "predict",
        }
    }

    /// Parse a [`Policy::name`] back (JSON round-trip).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "forward" => Some(Policy::Forward),
            "stall" => Some(Policy::Stall),
            "predict" => Some(Policy::Predict),
            _ => None,
        }
    }

    /// Index into per-policy counter banks (declaration order).
    #[inline]
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// All policies, in bank order.
    pub const ALL: [Policy; 3] = [Policy::Forward, Policy::Stall, Policy::Predict];
}

/// Tuning knobs of the adaptive controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Cycles per observation window; scores decay (halve) and the
    /// re-profiling check runs at window boundaries.
    pub window: u64,
    /// Score added per observed violation (saturating at `score_cap`).
    pub violation_weight: u32,
    /// Saturation cap of the per-dependence violation score.
    pub score_cap: u32,
    /// Windowed score at which FORWARD escalates to STALL.
    pub stall_score: u32,
    /// Windows a dependence stays in the "known hot" set after its last
    /// violation (the re-profiling trigger's memory; longer than the score
    /// decay so probe oscillations don't look like new dependences).
    pub history_windows: u32,
    /// Minimum violations inside one window before a distribution shift
    /// can be declared.
    pub reprofile_min: u32,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            window: 2_000,
            violation_weight: 2,
            score_cap: 8,
            stall_score: 2,
            history_windows: 4,
            reprofile_min: 2,
        }
    }
}

/// What one controller consultation decided (and any state change it
/// caused, for the caller to emit as events/counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The policy now in force for the consulted dependence.
    pub policy: Policy,
    /// A per-dependence policy switch this consultation performed.
    pub transition: Option<(Policy, Policy)>,
    /// Whether the window boundary crossed by this consultation declared a
    /// distribution shift and bulk-reset every policy. A re-profile is
    /// counted once (its own event), not as per-dependence transitions.
    pub reprofiled: bool,
}

/// Per-dependence adaptive state.
#[derive(Clone, Debug, Default)]
struct SidState {
    /// Windowed violation score (halved at each boundary).
    score: u32,
    /// Windows remaining in the "known hot" set (decremented at each
    /// boundary, refreshed by violations).
    history: u32,
    /// Policy in force. `Default` must be FORWARD.
    policy: Option<Policy>,
}

impl SidState {
    #[inline]
    fn policy(&self) -> Policy {
        self.policy.unwrap_or(Policy::Forward)
    }
}

/// The per-dependence policy controller. One lives inside each adaptive
/// [`crate::Machine`] and persists across region instances, like the
/// violating-loads table it extends.
#[derive(Clone, Debug)]
pub struct AdaptController {
    cfg: AdaptConfig,
    states: Vec<SidState>,
    window_start: u64,
    /// Violations observed inside the current window.
    window_viol: u32,
    /// Distinct dependences that violated this window without being in the
    /// known-hot set (the distribution-shift signal).
    window_new: u32,
    /// Dependences in the known-hot set at the last window boundary.
    known_hot: u32,
    transitions: u64,
    reprofiles: u64,
}

impl AdaptController {
    /// A controller with the given tuning.
    pub fn new(cfg: AdaptConfig) -> Self {
        Self {
            cfg,
            states: Vec::new(),
            window_start: 0,
            window_viol: 0,
            window_new: 0,
            known_hot: 0,
            transitions: 0,
            reprofiles: 0,
        }
    }

    fn state_mut(states: &mut Vec<SidState>, sid: Sid) -> &mut SidState {
        let i = sid.index();
        if i >= states.len() {
            states.resize_with(i + 1, SidState::default);
        }
        &mut states[i]
    }

    /// Cross any elapsed window boundary: decay scores and run the
    /// re-profiling check. Returns `true` when a shift was declared.
    fn roll_window(&mut self, now: u64) -> bool {
        if now.saturating_sub(self.window_start) < self.cfg.window {
            return false;
        }
        self.window_start = now;
        let shifted =
            self.known_hot > 0 && self.window_new > 0 && self.window_viol >= self.cfg.reprofile_min;
        if shifted {
            // The distribution moved: forget everything and re-learn.
            for s in &mut self.states {
                *s = SidState::default();
            }
            self.known_hot = 0;
            self.reprofiles += 1;
        } else {
            let mut hot = 0;
            for s in &mut self.states {
                s.score /= 2;
                s.history = s.history.saturating_sub(1);
                if s.history > 0 {
                    hot += 1;
                }
            }
            self.known_hot = hot;
        }
        self.window_viol = 0;
        self.window_new = 0;
        shifted
    }

    /// Consult the policy for a dynamic execution of load `sid` at cycle
    /// `now`. `confident` is whether the value predictor currently has an
    /// at-threshold prediction for this sid (gates the STALL→PREDICT
    /// upgrade).
    pub fn decide(&mut self, sid: Sid, now: u64, confident: bool) -> Outcome {
        let reprofiled = self.roll_window(now);
        let s = Self::state_mut(&mut self.states, sid);
        let from = s.policy();
        let to = match from {
            Policy::Forward => Policy::Forward,
            // Fully decayed: release the dependence back to FORWARD.
            Policy::Stall if s.score == 0 => Policy::Forward,
            // A confident last-value entry beats stalling: predict instead.
            Policy::Stall if confident => Policy::Predict,
            Policy::Stall => Policy::Stall,
            // Correct predictions keep confidence up, so PREDICT is sticky
            // while it works; it only drops once both the score and the
            // predictor's confidence are gone.
            Policy::Predict if s.score == 0 && !confident => Policy::Forward,
            Policy::Predict => Policy::Predict,
        };
        s.policy = Some(to);
        let transition = (from != to).then_some((from, to));
        if transition.is_some() {
            self.transitions += 1;
        }
        Outcome {
            policy: to,
            transition,
            reprofiled,
        }
    }

    /// Observe a violation attributed to load `sid` at cycle `now`.
    pub fn record_violation(&mut self, sid: Sid, kind: ViolationKind, now: u64) -> Outcome {
        let reprofiled = self.roll_window(now);
        self.window_viol = self.window_viol.saturating_add(1);
        let cfg = self.cfg.clone();
        let s = Self::state_mut(&mut self.states, sid);
        let was_quiet = s.history == 0;
        s.history = cfg.history_windows;
        s.score = (s.score + cfg.violation_weight).min(cfg.score_cap);
        let from = s.policy();
        let to = match from {
            // A verified misprediction means last-value is wrong for the
            // new phase: fall back to the safe stall.
            Policy::Predict if kind == ViolationKind::Mispredict => Policy::Stall,
            Policy::Forward if s.score >= cfg.stall_score => Policy::Stall,
            other => other,
        };
        s.policy = Some(to);
        if was_quiet {
            self.window_new += 1;
        }
        let transition = (from != to).then_some((from, to));
        if transition.is_some() {
            self.transitions += 1;
        }
        Outcome {
            policy: to,
            transition,
            reprofiled,
        }
    }

    /// Total per-dependence policy switches performed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total distribution-shift re-profiles performed.
    pub fn reprofiles(&self) -> u64 {
        self.reprofiles
    }

    /// The policy currently in force for `sid` (FORWARD when untracked).
    pub fn policy_of(&self, sid: Sid) -> Policy {
        self.states
            .get(sid.index())
            .map_or(Policy::Forward, |s| s.policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AdaptController {
        AdaptController::new(AdaptConfig::default())
    }

    #[test]
    fn violations_escalate_forward_to_stall() {
        let mut c = ctl();
        assert_eq!(c.policy_of(Sid(3)), Policy::Forward);
        let o = c.record_violation(Sid(3), ViolationKind::Eager, 100);
        assert_eq!(o.policy, Policy::Stall);
        assert_eq!(o.transition, Some((Policy::Forward, Policy::Stall)));
        assert!(!o.reprofiled);
        assert_eq!(c.transitions(), 1);
        // A decision without predictor confidence keeps stalling.
        let o = c.decide(Sid(3), 150, false);
        assert_eq!(o.policy, Policy::Stall);
        assert_eq!(o.transition, None);
    }

    #[test]
    fn confidence_upgrades_stall_to_predict_and_mispredict_demotes() {
        let mut c = ctl();
        c.record_violation(Sid(1), ViolationKind::Eager, 10);
        let o = c.decide(Sid(1), 20, true);
        assert_eq!(o.policy, Policy::Predict);
        assert_eq!(o.transition, Some((Policy::Stall, Policy::Predict)));
        // Working predictions keep it there.
        assert_eq!(c.decide(Sid(1), 30, true).policy, Policy::Predict);
        // A verified misprediction falls back to the safe stall.
        let o = c.record_violation(Sid(1), ViolationKind::Mispredict, 40);
        assert_eq!(o.policy, Policy::Stall);
        assert_eq!(o.transition, Some((Policy::Predict, Policy::Stall)));
    }

    #[test]
    fn full_decay_releases_back_to_forward() {
        let mut c = ctl();
        let w = AdaptConfig::default().window;
        c.record_violation(Sid(0), ViolationKind::Eager, 0);
        assert_eq!(c.policy_of(Sid(0)), Policy::Stall);
        // Quiet windows halve the score (2 → 1 → 0); the next decision
        // after full decay releases the dependence.
        assert_eq!(c.decide(Sid(0), w, false).policy, Policy::Stall);
        let o = c.decide(Sid(0), 2 * w, false);
        assert_eq!(o.policy, Policy::Forward);
        assert_eq!(o.transition, Some((Policy::Stall, Policy::Forward)));
    }

    #[test]
    fn distribution_shift_triggers_reprofile() {
        let mut c = ctl();
        let w = AdaptConfig::default().window;
        // Phase A: sid 0 is the established hot dependence.
        c.record_violation(Sid(0), ViolationKind::Eager, 10);
        c.record_violation(Sid(0), ViolationKind::Eager, 20);
        assert!(!c.decide(Sid(0), w, false).reprofiled); // boundary: no shift
                                                         // Phase B: violations arrive at a dependence outside the hot set.
        c.record_violation(Sid(7), ViolationKind::Eager, w + 10);
        c.record_violation(Sid(7), ViolationKind::Eager, w + 20);
        let o = c.decide(Sid(7), 2 * w, false);
        assert!(o.reprofiled);
        assert_eq!(c.reprofiles(), 1);
        // The bulk reset released the phase-A dependence too.
        assert_eq!(c.policy_of(Sid(0)), Policy::Forward);
    }

    #[test]
    fn first_window_of_a_run_never_reprofiles() {
        let mut c = ctl();
        let w = AdaptConfig::default().window;
        c.record_violation(Sid(2), ViolationKind::Eager, 1);
        c.record_violation(Sid(2), ViolationKind::Eager, 2);
        c.record_violation(Sid(2), ViolationKind::Eager, 3);
        // Plenty of "new" violations, but no established hot set yet.
        assert!(!c.decide(Sid(2), w + 1, false).reprofiled);
        assert_eq!(c.reprofiles(), 0);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
        }
        assert_eq!(Policy::parse("nope"), None);
        assert_eq!(Policy::Forward.index(), 0);
        assert_eq!(Policy::Stall.index(), 1);
        assert_eq!(Policy::Predict.index(), 2);
    }
}
