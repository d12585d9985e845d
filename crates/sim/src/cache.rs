//! Set-associative cache latency model.
//!
//! Models hit/miss timing only: private per-core L1 data caches backed by a
//! shared unified L2, backed by memory (Table 1). Speculative state is held
//! separately (see `spec`); this model answers "how long does this access
//! take" and tracks tag-array contents with LRU replacement.

use std::ops::Range;

use tls_ir::line_of;

use crate::config::SimConfig;
use crate::counters::MemLevel;

/// One set-associative tag array with LRU replacement.
///
/// Sets are materialized on their first [`access`](Self::access): a
/// simulated run touches a few hundred of the L2's 16,384 sets, so building
/// the whole array up front would dominate short runs. An untouched set
/// behaves exactly like a materialized one holding invalid ways with zero
/// stamps: it probes false, ignores invalidation, and its first miss fills
/// way 0.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    /// Per set: 0 while untouched, else `k` with the set's ways at
    /// `(k - 1) * ways .. k * ways` of `arena`.
    slot: Vec<u32>,
    /// Ways of the materialized sets, `ways` per set.
    arena: Vec<Way>,
    ways: usize,
    clock: u64,
}

/// One way of a set.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    /// `None` = invalid.
    tag: Option<i64>,
    /// LRU stamp. Invalidation keeps it, so victim choice is by stamp
    /// alone.
    stamp: u64,
}

impl SetAssocCache {
    /// A cache with `lines` total lines and `ways` associativity.
    ///
    /// # Panics
    /// Panics if `ways` is zero or does not divide `lines`, or if there are
    /// more than `u32::MAX` sets.
    pub fn new(lines: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "lines must split into ways"
        );
        let sets = lines / ways;
        assert!(u32::try_from(sets).is_ok(), "set index must fit in u32");
        Self {
            slot: vec![0; sets],
            arena: Vec::new(),
            ways,
            clock: 0,
        }
    }

    fn set_of(&self, line: i64) -> usize {
        (line.rem_euclid(self.slot.len() as i64)) as usize
    }

    /// Arena range of `line`'s set, or `None` while the set is untouched.
    fn span(&self, line: i64) -> Option<Range<usize>> {
        let k = self.slot[self.set_of(line)] as usize;
        (k > 0).then(|| (k - 1) * self.ways..k * self.ways)
    }

    /// Materialize `line`'s untouched set: all ways invalid, zero stamps.
    fn materialize(&mut self, line: i64) -> Range<usize> {
        let base = self.arena.len();
        self.arena.resize(base + self.ways, Way::default());
        let set = self.set_of(line);
        self.slot[set] =
            u32::try_from(self.arena.len() / self.ways).expect("set count checked in new");
        base..self.arena.len()
    }

    /// Number of sets materialized so far (diagnostics only).
    pub fn resident_sets(&self) -> usize {
        self.arena.len() / self.ways
    }

    /// Access `line`: returns true on hit. Misses install the line,
    /// evicting the LRU way.
    pub fn access(&mut self, line: i64) -> bool {
        self.access_evict(line).0
    }

    /// Like [`SetAssocCache::access`], but also reports the valid line the
    /// miss evicted, if any (observability: speculative-state evictions).
    pub fn access_evict(&mut self, line: i64) -> (bool, Option<i64>) {
        self.clock += 1;
        let span = self.span(line).unwrap_or_else(|| self.materialize(line));
        let set = &mut self.arena[span];
        if let Some(way) = set.iter_mut().find(|w| w.tag == Some(line)) {
            way.stamp = self.clock;
            return (true, None);
        }
        // Miss: evict LRU.
        let victim = set.iter_mut().min_by_key(|w| w.stamp).expect("ways > 0");
        victim.stamp = self.clock;
        (false, victim.tag.replace(line))
    }

    /// Is `line` present (no state change)?
    pub fn probe(&self, line: i64) -> bool {
        self.span(line)
            .is_some_and(|span| self.arena[span].iter().any(|w| w.tag == Some(line)))
    }

    /// Invalidate `line` if present.
    pub fn invalidate(&mut self, line: i64) {
        let Some(span) = self.span(line) else {
            return;
        };
        for way in &mut self.arena[span] {
            if way.tag == Some(line) {
                way.tag = None;
            }
        }
    }
}

/// The memory hierarchy: per-core L1s over a shared L2.
#[derive(Clone, Debug)]
pub struct MemSystem {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    l1_lat: u64,
    l2_lat: u64,
    mem_lat: u64,
}

impl MemSystem {
    /// Build the hierarchy described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            l1: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1_lines, config.l1_ways))
                .collect(),
            l2: SetAssocCache::new(config.l2_lines, config.l2_ways),
            l1_lat: config.l1_lat,
            l2_lat: config.l2_lat,
            mem_lat: config.mem_lat,
        }
    }

    /// Latency of core `core` accessing the word at `addr`; fills caches on
    /// the way.
    pub fn access(&mut self, core: usize, addr: i64) -> u64 {
        self.access_evict(core, addr).0
    }

    /// Like [`MemSystem::access`], but also reports the line evicted from
    /// the accessing core's L1, if the access evicted one. Timing-identical
    /// to [`MemSystem::access`].
    pub fn access_evict(&mut self, core: usize, addr: i64) -> (u64, Option<i64>) {
        let line = line_of(addr);
        let (l1_hit, evicted) = self.l1[core].access_evict(line);
        if l1_hit {
            (self.l1_lat, None)
        } else if self.l2.access(line) {
            (self.l2_lat, evicted)
        } else {
            (self.mem_lat, evicted)
        }
    }

    /// The hierarchy level that served an access of latency `lat` (as
    /// returned by [`MemSystem::access`]). Counter classification only; if
    /// a config gives two levels identical latencies the faster one wins.
    #[inline]
    pub fn level_of(&self, lat: u64) -> MemLevel {
        if lat == self.l1_lat {
            MemLevel::L1
        } else if lat == self.l2_lat {
            MemLevel::L2
        } else {
            MemLevel::Mem
        }
    }

    /// Install a line into a core's L1 and the L2 (used when commits write
    /// back speculative lines).
    pub fn install(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        self.l1[core].access(line);
        self.l2.access(line);
    }

    /// Invalidate a line in `core`'s own L1 (and the L2): the fault
    /// injector's spurious eviction. Purely a timing perturbation — the
    /// next access misses and refetches; caches hold no correctness state.
    pub fn invalidate_local(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        self.l1[core].invalidate(line);
        self.l2.invalidate(line);
    }

    /// Invalidate a line in every *other* core's L1 (commit-time coherence).
    pub fn invalidate_others(&mut self, core: usize, addr: i64) {
        let line = line_of(addr);
        for (c, l1) in self.l1.iter_mut().enumerate() {
            if c != core {
                l1.invalidate(line);
            }
        }
    }

    /// Materialized sets as `(summed over the L1s, in the L2)`
    /// (diagnostics only).
    pub fn resident_sets(&self) -> (usize, usize) {
        let l1 = self.l1.iter().map(SetAssocCache::resident_sets).sum();
        (l1, self.l2.resident_sets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_replacement_within_a_set() {
        // 4 lines, 2 ways → 2 sets. Lines 0, 2, 4 all map to set 0.
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(0));
        assert!(!c.access(2));
        assert!(c.access(0)); // hit, refreshes 0
        assert!(!c.access(4)); // evicts LRU = 2
        assert!(c.access(0));
        assert!(!c.access(2)); // 2 was evicted
        assert!(c.probe(2));
        assert!(!c.probe(6));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(1);
        assert!(c.probe(1));
        c.invalidate(1);
        assert!(!c.probe(1));
        assert!(!c.access(1)); // miss again
    }

    #[test]
    fn hierarchy_latencies_escalate() {
        let cfg = SimConfig::cgo2004();
        let mut m = MemSystem::new(&cfg);
        // Cold: full memory latency.
        assert_eq!(m.access(0, 1000), cfg.mem_lat);
        // Warm in L1.
        assert_eq!(m.access(0, 1000), cfg.l1_lat);
        // Same line, different word: still the same line → L1 hit.
        assert_eq!(m.access(0, 1001), cfg.l1_lat);
        // Another core misses its L1 but hits shared L2.
        assert_eq!(m.access(1, 1000), cfg.l2_lat);
        // Invalidation forces the other core back to L2.
        m.invalidate_others(1, 1000);
        assert_eq!(m.access(0, 1000), cfg.l2_lat);
    }

    #[test]
    #[should_panic(expected = "lines must split into ways")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(5, 2);
    }

    #[test]
    fn eviction_of_a_resident_line_is_observable() {
        // 4 lines, 2 ways → set 0 holds lines {0, 2, 4, …}. The machine
        // relies on the evicted tag to emit `LineEvict` for lines an epoch
        // has speculatively read, so the victim must be reported exactly.
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.access_evict(0), (false, None)); // cold fill, no victim
        assert_eq!(c.access_evict(2), (false, None)); // second way, no victim
        assert_eq!(c.access_evict(4), (false, Some(0))); // LRU line 0 evicted
        assert_eq!(c.access_evict(4), (true, None)); // hits never evict
        assert_eq!(c.access_evict(0), (false, Some(2))); // now 2 is LRU
                                                         // Invalidated ways are reused without reporting a victim.
        c.invalidate(4);
        assert_eq!(c.access_evict(6), (false, None));
        // Victims go by retained stamps alone: a freshly invalidated way is
        // not refilled before an older valid one.
        c.invalidate(6);
        assert_eq!(c.access_evict(8), (false, Some(0)));
    }

    #[test]
    fn hierarchy_reports_l1_victim_only_on_miss() {
        // One-line L1 per core: every miss to a new line evicts the old
        // one; the L2 fill path must still surface the L1 victim.
        let mut cfg = SimConfig::cgo2004();
        cfg.l1_lines = 1;
        cfg.l1_ways = 1;
        let mut m = MemSystem::new(&cfg);
        assert_eq!(m.access_evict(0, 0), (cfg.mem_lat, None));
        // New line from memory, displacing line 0.
        assert_eq!(m.access_evict(0, 100), (cfg.mem_lat, Some(line_of(0))));
        // Warm L2 (same word reloaded on another round trip): the victim
        // is reported with the L2 latency too.
        assert_eq!(m.access_evict(0, 0), (cfg.l2_lat, Some(line_of(100))));
        // An L1 hit never reports a victim.
        assert_eq!(m.access_evict(0, 1), (cfg.l1_lat, None));
    }

    #[test]
    fn line_masking_edge_cases() {
        // Words 0..LINE_WORDS share line 0; the next word starts line 1;
        // negative addresses floor toward -∞ rather than truncating to 0,
        // so -1 must NOT land in line 0 (that would alias the first line
        // of the heap with addresses below it).
        let lw = tls_ir::LINE_WORDS;
        assert_eq!(line_of(0), line_of(lw - 1));
        assert_ne!(line_of(lw - 1), line_of(lw));
        assert_eq!(line_of(-1), -1);
        assert_eq!(line_of(-lw), -1);
        assert_eq!(line_of(-lw - 1), -2);
        // The cache maps negative lines to valid sets (rem_euclid), so
        // accesses below address zero are cacheable, distinct from their
        // positive aliases, and hit on re-access.
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(line_of(-1)));
        assert!(c.access(line_of(-1)));
        assert!(c.probe(line_of(-1)));
        assert!(!c.probe(line_of(lw - 1).wrapping_neg() - 42));
        // Distinct words of one line are one cache line end to end.
        let mut m = MemSystem::new(&SimConfig::cgo2004());
        let first = m.access(0, lw * 10);
        assert_eq!(first, SimConfig::cgo2004().mem_lat);
        for w in 1..lw {
            assert_eq!(m.access(0, lw * 10 + w), SimConfig::cgo2004().l1_lat);
        }
        assert_eq!(m.access(0, lw * 11), SimConfig::cgo2004().mem_lat);
    }
}
