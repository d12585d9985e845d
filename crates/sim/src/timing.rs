//! Per-core superscalar timing model.
//!
//! Approximates a 4-way-issue, out-of-order machine with a 128-entry
//! reorder buffer (Table 1): instructions issue in order, at most
//! `issue_width` per cycle, each no earlier than its operands are ready;
//! they complete after an operation-specific latency and graduate in order
//! (again `issue_width` per cycle); a full ROB stalls issue; conditional
//! branches consult a 2-bit predictor and a mispredict flushes the front
//! end for `mispredict_penalty` cycles.

use crate::config::SimConfig;

/// The timing state of one core while running one epoch attempt.
///
/// The ROB is a fixed ring allocated once, so an epoch restarted with
/// [`CoreTimer::reset`] reuses it.
#[derive(Clone, Debug)]
pub struct CoreTimer {
    issue_width: u64,
    /// Earliest cycle the next instruction can issue (front-end).
    next_fetch: u64,
    /// Instructions already issued in the `next_fetch` cycle.
    issued_this_cycle: u64,
    /// Graduation times of in-flight instructions: a ring of `rob_size`
    /// slots holding `rob_len` entries from `rob_head` on, oldest first.
    rob: Box<[u64]>,
    rob_len: usize,
    rob_head: usize,
    /// Time the previous instruction graduated.
    last_grad: u64,
    /// Instructions graduated in the `last_grad` cycle.
    grad_this_cycle: u64,
    /// Instructions graduated since the last reset (busy-slot counter).
    graduated: u64,
}

impl CoreTimer {
    /// A fresh pipeline starting at time `now`.
    pub fn new(config: &SimConfig, now: u64) -> Self {
        Self {
            issue_width: config.issue_width,
            next_fetch: now,
            issued_this_cycle: 0,
            rob: vec![0; config.rob_size].into_boxed_slice(),
            rob_len: 0,
            rob_head: 0,
            last_grad: now,
            grad_this_cycle: 0,
            graduated: 0,
        }
    }

    /// Return to the state [`CoreTimer::new`] builds at `now`, keeping the
    /// ROB's storage.
    pub fn reset(&mut self, now: u64) {
        self.next_fetch = now;
        self.issued_this_cycle = 0;
        self.rob_len = 0;
        self.rob_head = 0;
        self.last_grad = now;
        self.grad_this_cycle = 0;
        self.graduated = 0;
    }

    /// Reset the pipeline (squash/flush) so the next instruction issues no
    /// earlier than `now`.
    pub fn flush(&mut self, now: u64) {
        self.next_fetch = self.next_fetch.max(now);
        self.issued_this_cycle = 0;
        self.rob_len = 0;
        self.last_grad = self.last_grad.max(now);
        self.grad_this_cycle = 0;
    }

    /// Instructions graduated since construction (busy slots).
    pub fn graduated(&self) -> u64 {
        self.graduated
    }

    /// Earliest time the next instruction could issue (no operand stalls).
    pub fn horizon(&self) -> u64 {
        let mut t = self.next_fetch;
        if self.issued_this_cycle >= self.issue_width {
            t += 1;
        }
        if self.rob_len == self.rob.len() {
            t = t.max(self.rob[self.rob_head]);
        }
        t
    }

    /// Issue one instruction whose operands are ready at `ready` and which
    /// takes `latency` cycles to execute. Returns `(issue, complete)`.
    pub fn issue(&mut self, ready: u64, latency: u64) -> (u64, u64) {
        let mut t = self.next_fetch.max(ready);
        if self.issued_this_cycle >= self.issue_width && t == self.next_fetch {
            t += 1;
        }
        // ROB constraint: at most `rob_size` in flight. Graduation times are
        // monotonic, so freeing the head entry is exactly the stall point.
        if self.rob_len == self.rob.len() {
            t = t.max(self.rob[self.rob_head]);
            self.rob_head += 1;
            if self.rob_head == self.rob.len() {
                self.rob_head = 0;
            }
            self.rob_len -= 1;
        }
        if t > self.next_fetch {
            self.next_fetch = t;
            self.issued_this_cycle = 0;
        }
        self.issued_this_cycle += 1;
        if self.issued_this_cycle >= self.issue_width {
            self.next_fetch = t + 1;
            self.issued_this_cycle = 0;
        }
        let complete = t + latency;
        // In-order graduation, `issue_width` per cycle.
        let mut grad = complete.max(self.last_grad);
        if grad == self.last_grad {
            if self.grad_this_cycle >= self.issue_width {
                grad += 1;
                self.grad_this_cycle = 1;
            } else {
                self.grad_this_cycle += 1;
            }
        } else {
            self.grad_this_cycle = 1;
        }
        self.last_grad = grad;
        let mut tail = self.rob_head + self.rob_len;
        if tail >= self.rob.len() {
            tail -= self.rob.len();
        }
        self.rob[tail] = grad;
        self.rob_len += 1;
        self.graduated += 1;
        (t, complete)
    }

    /// Stall the front end until `until` (used for waits and mispredicts).
    pub fn stall_until(&mut self, until: u64) {
        if until > self.next_fetch {
            self.next_fetch = until;
            self.issued_this_cycle = 0;
        }
    }
}

/// Per-core 2-bit saturating branch predictor, indexed by a hash of the
/// branch's location.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    counters: Vec<u8>,
}

impl BranchPredictor {
    /// A predictor with `entries` 2-bit counters, initialized weakly taken.
    pub fn new(entries: usize) -> Self {
        Self {
            counters: vec![2; entries.max(1)],
        }
    }

    fn index(&self, key: u64) -> usize {
        // Fibonacci hashing spreads block/function ids.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % self.counters.len()
    }

    /// Predict the branch identified by `key`.
    pub fn predict(&self, key: u64) -> bool {
        self.counters[self.index(key)] >= 2
    }

    /// Train with the actual outcome; returns true if the prediction was
    /// correct.
    pub fn update(&mut self, key: u64, taken: bool) -> bool {
        let i = self.index(key);
        let predicted = self.counters[i] >= 2;
        if taken {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::cgo2004()
    }

    #[test]
    fn independent_instructions_pack_into_issue_width() {
        let mut t = CoreTimer::new(&cfg(), 0);
        // 8 independent 1-cycle instructions on a 4-wide machine: the first
        // four issue at cycle 0, the next four at cycle 1.
        let issues: Vec<u64> = (0..8).map(|_| t.issue(0, 1).0).collect();
        assert_eq!(issues, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.graduated(), 8);
    }

    #[test]
    fn dependent_chain_serializes_on_latency() {
        let mut t = CoreTimer::new(&cfg(), 0);
        let mut ready = 0;
        let mut issues = Vec::new();
        for _ in 0..4 {
            let (iss, complete) = t.issue(ready, 3);
            issues.push(iss);
            ready = complete;
        }
        assert_eq!(issues, vec![0, 3, 6, 9]);
    }

    #[test]
    fn rob_limits_runahead() {
        let mut config = cfg();
        config.rob_size = 4;
        let mut t = CoreTimer::new(&config, 0);
        // One long-latency instruction then many independent ones: issue
        // cannot run more than rob_size ahead of graduation.
        let (_, _complete) = t.issue(0, 100);
        let mut max_issue = 0;
        for _ in 0..8 {
            let (iss, _) = t.issue(0, 1);
            max_issue = max_issue.max(iss);
        }
        // Graduation of the long op is at ~100; with a 4-entry ROB the
        // 5th+ instruction must wait for it.
        assert!(
            max_issue >= 100,
            "issue ran ahead of a full ROB: {max_issue}"
        );
    }

    #[test]
    fn flush_resets_pipeline_state() {
        let mut t = CoreTimer::new(&cfg(), 0);
        t.issue(0, 50);
        t.flush(200);
        let (iss, _) = t.issue(0, 1);
        assert!(iss >= 200);
    }

    #[test]
    fn stall_until_delays_issue() {
        let mut t = CoreTimer::new(&cfg(), 0);
        t.stall_until(40);
        assert_eq!(t.issue(0, 1).0, 40);
    }

    #[test]
    fn predictor_learns_bias() {
        let mut p = BranchPredictor::new(64);
        let key = 7;
        for _ in 0..4 {
            p.update(key, false);
        }
        assert!(!p.predict(key));
        // A loop-back branch taken repeatedly becomes predicted taken.
        for _ in 0..4 {
            p.update(key, true);
        }
        assert!(p.predict(key));
        // Alternating pattern yields some mispredicts.
        let mut wrong = 0;
        for i in 0..20 {
            if !p.update(key, i % 2 == 0) {
                wrong += 1;
            }
        }
        assert!(wrong > 0);
    }
}
