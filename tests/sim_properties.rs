//! Seeded property tests for the simulator's building blocks: the
//! set-associative cache against two reference models, and the pipeline
//! timer's invariants and its ring-buffer ROB against the `VecDeque` one.
//! Every sequence comes from the in-repo splitmix64 generator, so a failure
//! names the seed that replays it.

use std::collections::{BTreeSet, VecDeque};

use tls_repro::ir::SplitMix64;
use tls_repro::sim::{CoreTimer, MemSystem, SetAssocCache, SimConfig};

/// Seeded sequences per cache property.
const CASES: u64 = 300;

/// Cache geometries `(lines, ways)`: 1-, 2- and 4-way caches of 16 sets,
/// then the cgo2004 L1 and L2.
fn geometries() -> [(usize, usize); 5] {
    let c = SimConfig::cgo2004();
    [
        (16, 1),
        (32, 2),
        (64, 4),
        (c.l1_lines, c.l1_ways),
        (c.l2_lines, c.l2_ways),
    ]
}

/// Ordered-list LRU model: per set, the resident lines most recent first.
struct ListLru {
    sets: Vec<Vec<i64>>,
    ways: usize,
}

impl ListLru {
    fn new(lines: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); lines / ways],
            ways,
        }
    }

    fn set(&self, line: i64) -> usize {
        line.rem_euclid(self.sets.len() as i64) as usize
    }

    fn access_evict(&mut self, line: i64) -> (bool, Option<i64>) {
        let ways = self.ways;
        let s = self.set(line);
        let s = &mut self.sets[s];
        if let Some(pos) = s.iter().position(|&l| l == line) {
            s.remove(pos);
            s.insert(0, line);
            (true, None)
        } else {
            s.insert(0, line);
            (false, if s.len() > ways { s.pop() } else { None })
        }
    }

    fn probe(&self, line: i64) -> bool {
        self.sets[self.set(line)].contains(&line)
    }
}

/// The cache as it was before sets were materialized lazily: eager
/// `sets × ways` tag and stamp arrays. Its victim choice (lowest stamp,
/// with invalidated ways keeping theirs) is the behaviour the lazy cache
/// must reproduce once `invalidate` enters a sequence.
struct EagerCache {
    tags: Vec<Option<i64>>,
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    clock: u64,
}

impl EagerCache {
    fn new(lines: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "lines must split into ways"
        );
        let sets = lines / ways;
        Self {
            tags: vec![None; lines],
            stamps: vec![0; lines],
            sets,
            ways,
            clock: 0,
        }
    }

    fn set_of(&self, line: i64) -> usize {
        (line.rem_euclid(self.sets as i64)) as usize
    }

    fn access_evict(&mut self, line: i64) -> (bool, Option<i64>) {
        self.clock += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == Some(line) {
                self.stamps[base + w] = self.clock;
                return (true, None);
            }
        }
        // Miss: evict LRU.
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("ways > 0");
        let evicted = self.tags[base + victim];
        self.tags[base + victim] = Some(line);
        self.stamps[base + victim] = self.clock;
        (false, evicted)
    }

    fn probe(&self, line: i64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == Some(line))
    }

    fn invalidate(&mut self, line: i64) {
        let set = self.set_of(line);
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == Some(line) {
                self.tags[base + w] = None;
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Access(i64),
    Probe(i64),
    Invalidate(i64),
}

/// A seeded operation sequence over a `sets`-set cache. Accesses go to
/// three hot sets with seven tags each, negative lines included, so ways
/// conflict and evict. Probes and invalidations hit the hot lines half the
/// time and otherwise any line in `-2·sets .. 2·sets`, which in the large
/// caches is almost always a set no access has touched.
fn ops(rng: &mut SplitMix64, sets: usize, invalidate: bool) -> Vec<Op> {
    let sets = sets as i64;
    let hot: Vec<i64> = (0..3).map(|_| rng.gen_range(-sets, sets)).collect();
    let line = |rng: &mut SplitMix64, anywhere: bool| {
        if anywhere {
            rng.gen_range(-2 * sets, 2 * sets)
        } else {
            hot[rng.pick(hot.len())] + sets * rng.gen_range(-3, 4)
        }
    };
    let len = rng.gen_range(1, 300);
    (0..len)
        .map(|_| match rng.pick(if invalidate { 5 } else { 4 }) {
            0..=2 => Op::Access(line(rng, false)),
            3 => {
                let anywhere = rng.chance(0.5);
                Op::Probe(line(rng, anywhere))
            }
            _ => {
                let anywhere = rng.chance(0.5);
                Op::Invalidate(line(rng, anywhere))
            }
        })
        .collect()
}

/// Runs every seeded sequence through the cache and a reference, comparing
/// each result, then probes every line of the accessed sets' tag range and
/// checks that exactly the accessed sets were materialized.
fn check_against<R>(
    invalidate: bool,
    new_ref: impl Fn(usize, usize) -> R,
    apply: impl Fn(&mut R, Op) -> (bool, Option<i64>),
) {
    for seed in 0..CASES {
        let (lines, ways) = geometries()[seed as usize % 5];
        let sets = lines / ways;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cache = SetAssocCache::new(lines, ways);
        let mut reference = new_ref(lines, ways);
        let mut touched = BTreeSet::new();
        let sequence = ops(&mut rng, sets, invalidate);
        for (i, &op) in sequence.iter().enumerate() {
            let got = match op {
                Op::Access(line) => {
                    touched.insert(line.rem_euclid(sets as i64));
                    cache.access_evict(line)
                }
                Op::Probe(line) => (cache.probe(line), None),
                Op::Invalidate(line) => {
                    cache.invalidate(line);
                    (false, None)
                }
            };
            let want = apply(&mut reference, op);
            assert_eq!(got, want, "seed {seed}, {lines}x{ways}, op {i}: {op:?}");
        }
        for &set in &touched {
            for tag in -4..5 {
                let line = set + tag * sets as i64;
                let want = apply(&mut reference, Op::Probe(line)).0;
                assert_eq!(cache.probe(line), want, "seed {seed}, final probe {line}");
            }
        }
        assert_eq!(
            cache.resident_sets(),
            touched.len(),
            "seed {seed}: sets materialized"
        );
    }
}

#[test]
fn cache_matches_ordered_list_lru() {
    check_against(false, ListLru::new, |m, op| match op {
        Op::Access(line) => m.access_evict(line),
        Op::Probe(line) => (m.probe(line), None),
        Op::Invalidate(_) => unreachable!("sequence has no invalidations"),
    });
}

#[test]
fn cache_with_invalidation_matches_eager_arrays() {
    check_against(true, EagerCache::new, |m, op| match op {
        Op::Access(line) => m.access_evict(line),
        Op::Probe(line) => (m.probe(line), None),
        Op::Invalidate(line) => {
            m.invalidate(line);
            (false, None)
        }
    });
}

/// Construction stays proportional to the sets touched: a fresh cgo2004
/// hierarchy holds no sets, invalidating lines it never loaded adds none,
/// and `n` accesses materialize at most `n` sets per level.
#[test]
fn hierarchy_materializes_only_touched_sets() {
    let config = SimConfig::cgo2004();
    let mut m = MemSystem::new(&config);
    assert_eq!(m.resident_sets(), (0, 0));
    m.invalidate_local(0, 4096);
    m.invalidate_others(1, -4096);
    assert_eq!(m.resident_sets(), (0, 0));
    let mut rng = SplitMix64::seed_from_u64(12);
    for n in 1..=200 {
        let core = rng.pick(config.cores);
        m.access(core, rng.gen_range(-1 << 20, 1 << 20));
        let (l1, l2) = m.resident_sets();
        assert!(
            l1 <= n && l2 <= n,
            "{n} accesses materialized {l1} L1 and {l2} L2 sets"
        );
    }
}

/// Pipeline timer invariants: issue times are monotone, never earlier
/// than operand readiness, and no cycle issues more than the issue width.
#[test]
fn timer_is_monotone_and_bounded() {
    let config = SimConfig::cgo2004();
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut t = CoreTimer::new(&config, 0);
        let n = rng.gen_range(1, 200) as u64;
        let mut last_issue = 0;
        let mut in_cycle = 0;
        for _ in 0..n {
            let ready = last_issue + rng.gen_range(0, 3) as u64;
            let lat = rng.gen_range(1, 20) as u64;
            let (issue, complete) = t.issue(ready, lat);
            assert!(issue >= last_issue, "seed {seed}: issue went backwards");
            assert!(issue >= ready, "seed {seed}: issued before operands ready");
            assert_eq!(complete, issue + lat);
            in_cycle = if issue == last_issue { in_cycle + 1 } else { 1 };
            assert!(
                in_cycle <= config.issue_width,
                "seed {seed}: cycle {issue} over-issued"
            );
            last_issue = issue;
        }
        assert_eq!(t.graduated(), n);
        assert!(
            last_issue + 1 >= n.div_ceil(config.issue_width),
            "seed {seed}"
        );
    }
}

/// The pipeline timer as it was before its ROB became a fixed ring: a
/// `VecDeque` of graduation times, rebuilt for every epoch attempt. Verbatim
/// apart from the name; the `reset` the ring timer offers was construction.
#[derive(Clone, Debug)]
pub struct DequeTimer {
    issue_width: u64,
    rob_size: usize,
    /// Earliest cycle the next instruction can issue (front-end).
    next_fetch: u64,
    /// Instructions already issued in the `next_fetch` cycle.
    issued_this_cycle: u64,
    /// Graduation times of in-flight instructions (ROB occupancy).
    rob: VecDeque<u64>,
    /// Time the previous instruction graduated.
    last_grad: u64,
    /// Instructions graduated in the `last_grad` cycle.
    grad_this_cycle: u64,
    /// Instructions graduated since the last reset (busy-slot counter).
    graduated: u64,
}

impl DequeTimer {
    /// A fresh pipeline starting at time `now`.
    pub fn new(config: &SimConfig, now: u64) -> Self {
        Self {
            issue_width: config.issue_width,
            rob_size: config.rob_size,
            next_fetch: now,
            issued_this_cycle: 0,
            rob: VecDeque::with_capacity(config.rob_size),
            last_grad: now,
            grad_this_cycle: 0,
            graduated: 0,
        }
    }

    /// Reset the pipeline (squash/flush) so the next instruction issues no
    /// earlier than `now`.
    pub fn flush(&mut self, now: u64) {
        self.next_fetch = self.next_fetch.max(now);
        self.issued_this_cycle = 0;
        self.rob.clear();
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
        if self.rob.len() >= self.rob_size {
            t = t.max(*self.rob.front().expect("rob nonempty"));
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
        if self.rob.len() >= self.rob_size {
            let head = self.rob.pop_front().expect("rob nonempty");
            t = t.max(head);
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
        self.rob.push_back(grad);
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

#[derive(Clone, Copy, Debug)]
enum TimerOp {
    Issue { ready: u64, latency: u64 },
    StallUntil(u64),
    Flush(u64),
    Reset(u64),
}

/// The ring-buffer ROB returns what the `VecDeque` one did: the same
/// `(issue, complete)` for every instruction, and the same `horizon()` and
/// `graduated()` after every operation, over seeded mixes of issues with
/// short and long latencies, front-end stalls, flushes and resets (a
/// restarted epoch), on ROBs of 1, 2, 3, 8 and 128 entries and 1-, 2- and
/// 4-wide issue. Runs of up to 400 issues fill even the largest ROB and
/// wrap its ring many times.
#[test]
fn ring_rob_matches_deque_timer() {
    let mut shapes = Vec::new();
    for rob_size in [1, 2, 3, 8, 128] {
        for issue_width in [1, 2, 4] {
            shapes.push((rob_size, issue_width));
        }
    }
    for seed in 0..CASES {
        let (rob_size, issue_width) = shapes[seed as usize % shapes.len()];
        let config = SimConfig {
            rob_size,
            issue_width,
            ..SimConfig::cgo2004()
        };
        let mut rng = SplitMix64::seed_from_u64(seed);
        let start = rng.gen_range(0, 50) as u64;
        let mut ring = CoreTimer::new(&config, start);
        let mut deque = DequeTimer::new(&config, start);
        let mut now = start;
        for step in 0..rng.gen_range(1, 400) {
            let op = match rng.pick(40) {
                0 => TimerOp::Flush(now + rng.gen_range(0, 30) as u64),
                1 => TimerOp::Reset(now + rng.gen_range(0, 30) as u64),
                2..=4 => TimerOp::StallUntil(now + rng.gen_range(0, 20) as u64),
                _ => TimerOp::Issue {
                    ready: now + rng.gen_range(0, 4) as u64,
                    latency: if rng.chance(0.1) {
                        rng.gen_range(50, 300) as u64
                    } else {
                        rng.gen_range(1, 6) as u64
                    },
                },
            };
            let at = format!("seed {seed}, rob {rob_size}, width {issue_width}, op {step}: {op:?}");
            match op {
                TimerOp::Issue { ready, latency } => {
                    let got = ring.issue(ready, latency);
                    assert_eq!(got, deque.issue(ready, latency), "{at}");
                    now = got.0;
                }
                TimerOp::StallUntil(t) => {
                    ring.stall_until(t);
                    deque.stall_until(t);
                }
                TimerOp::Flush(t) => {
                    ring.flush(t);
                    deque.flush(t);
                }
                TimerOp::Reset(t) => {
                    ring.reset(t);
                    deque = DequeTimer::new(&config, t);
                    now = t;
                }
            }
            assert_eq!(ring.horizon(), deque.horizon(), "{at}: horizon");
            assert_eq!(ring.graduated(), deque.graduated(), "{at}: graduated");
        }
    }
}
