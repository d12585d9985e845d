//! Hardware-inserted synchronization and value prediction (§4.2).
//!
//! Models the distributed hardware technique of the authors' prior work
//! [25] that the paper compares against: a small table tracks the static
//! loads that have caused speculation to fail; a load whose id hits the
//! table *stalls until the previous epoch completes* (not until the value
//! is produced — the key disadvantage relative to compiler-inserted
//! forwarding). To avoid over-synchronizing, the table is periodically
//! reset. The same table selects the loads that mode `P` value-predicts,
//! using a last-value table with 2-bit confidence.

use tls_ir::{FxHashMap, Sid};

/// The violating-loads table: an LRU list of load sids (stand-ins for PCs)
/// that caused violations, periodically reset.
#[derive(Clone, Debug)]
pub struct ViolationTable {
    entries: Vec<(Sid, u64)>, // (sid, last-touch stamp)
    capacity: usize,
    reset_interval: u64,
    last_reset: u64,
    stamp: u64,
}

impl ViolationTable {
    /// A table with `capacity` entries, reset every `reset_interval` cycles
    /// (`0` disables periodic reset).
    pub fn new(capacity: usize, reset_interval: u64) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            reset_interval,
            last_reset: 0,
            stamp: 0,
        }
    }

    fn maybe_reset(&mut self, now: u64) {
        if self.reset_interval > 0 && now.saturating_sub(self.last_reset) >= self.reset_interval {
            self.entries.clear();
            self.last_reset = now;
        }
    }

    /// Record that `sid` caused a violation at cycle `now`.
    pub fn record_violation(&mut self, sid: Sid, now: u64) {
        self.maybe_reset(now);
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|(s, _)| *s == sid) {
            e.1 = self.stamp;
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
                .expect("nonempty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((sid, self.stamp));
    }

    /// Does the table currently mark `sid` (i.e., would hardware
    /// synchronize this load)? Applies the periodic reset first.
    pub fn contains(&mut self, sid: Sid, now: u64) -> bool {
        self.maybe_reset(now);
        if let Some(e) = self.entries.iter_mut().find(|(s, _)| *s == sid) {
            self.stamp += 1;
            e.1 = self.stamp;
            true
        } else {
            false
        }
    }

    /// Non-mutating membership probe (classification only — no reset, no
    /// LRU update).
    pub fn probe(&self, sid: Sid) -> bool {
        self.entries.iter().any(|(s, _)| *s == sid)
    }

    /// Current number of tracked loads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no loads are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-static-load last-value predictor with 2-bit confidence.
#[derive(Clone, Debug)]
pub struct ValuePredictor {
    table: FxHashMap<usize, (i64, u8)>,
    entries: usize,
    threshold: u8,
}

impl ValuePredictor {
    /// A predictor with `entries` slots and the given confidence threshold
    /// (0–3).
    pub fn new(entries: usize, threshold: u8) -> Self {
        Self {
            table: FxHashMap::default(),
            entries: entries.max(1),
            threshold: threshold.min(3),
        }
    }

    fn slot(&self, sid: Sid) -> usize {
        sid.index() % self.entries
    }

    /// The predicted value for `sid`, if confidence is at threshold.
    pub fn predict(&self, sid: Sid) -> Option<i64> {
        self.table
            .get(&self.slot(sid))
            .filter(|(_, conf)| *conf >= self.threshold)
            .map(|(v, _)| *v)
    }

    /// The stored value for `sid` regardless of confidence.
    ///
    /// Only the fault injector uses this: a forced misprediction needs a
    /// plausible-but-unverified value, exactly what a below-threshold table
    /// entry is. Normal prediction always goes through [`Self::predict`].
    pub fn peek(&self, sid: Sid) -> Option<i64> {
        self.table.get(&self.slot(sid)).map(|(v, _)| *v)
    }

    /// Train with an observed value; confidence rises on repeats and
    /// resets on change. A first observation starts at confidence 0.
    pub fn train(&mut self, sid: Sid, value: i64) {
        let slot = self.slot(sid);
        match self.table.get_mut(&slot) {
            None => {
                self.table.insert(slot, (value, 0));
            }
            Some(e) => {
                if e.0 == value {
                    e.1 = (e.1 + 1).min(3);
                } else {
                    *e = (value, 0);
                }
            }
        }
    }

    /// Penalize a verified misprediction (confidence reset, value updated).
    pub fn mispredicted(&mut self, sid: Sid, actual: i64) {
        let slot = self.slot(sid);
        self.table.insert(slot, (actual, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_table_records_and_evicts_lru() {
        let mut t = ViolationTable::new(2, 0);
        t.record_violation(Sid(1), 0);
        t.record_violation(Sid(2), 0);
        assert!(t.contains(Sid(1), 0)); // touches 1 → 2 becomes LRU
        t.record_violation(Sid(3), 0);
        assert!(t.contains(Sid(1), 0));
        assert!(t.contains(Sid(3), 0));
        assert!(!t.contains(Sid(2), 0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn periodic_reset_clears_table() {
        let mut t = ViolationTable::new(4, 100);
        t.record_violation(Sid(1), 10);
        assert!(t.contains(Sid(1), 50));
        assert!(!t.contains(Sid(1), 200)); // interval elapsed → cleared
        assert!(t.is_empty());
        // Recording after the reset works normally.
        t.record_violation(Sid(2), 210);
        assert!(t.probe(Sid(2)));
    }

    #[test]
    fn predictor_needs_repeats_to_gain_confidence() {
        let mut p = ValuePredictor::new(64, 2);
        assert_eq!(p.predict(Sid(0)), None);
        p.train(Sid(0), 7);
        assert_eq!(p.predict(Sid(0)), None); // conf 0
        p.train(Sid(0), 7);
        assert_eq!(p.predict(Sid(0)), None); // conf 1
        p.train(Sid(0), 7);
        assert_eq!(p.predict(Sid(0)), Some(7)); // conf 2 = threshold
        p.train(Sid(0), 9); // value changed
        assert_eq!(p.predict(Sid(0)), None);
    }

    #[test]
    fn misprediction_resets_confidence() {
        let mut p = ValuePredictor::new(64, 1);
        p.train(Sid(3), 5);
        p.train(Sid(3), 5);
        assert_eq!(p.predict(Sid(3)), Some(5));
        p.mispredicted(Sid(3), 8);
        assert_eq!(p.predict(Sid(3)), None);
        p.train(Sid(3), 8);
        assert_eq!(p.predict(Sid(3)), Some(8));
    }
}
