//! Per-epoch speculative state.
//!
//! Each epoch buffers its stores in a private write buffer (the paper uses
//! the first-level data cache), tracks the lines it speculatively loaded at
//! cache-line granularity (per-word store masks prevent an epoch's own
//! writes from registering as exposed reads), holds the mailboxes of
//! incoming forwarded values, and maintains the producer-side signal
//! address buffer of §2.2.

use std::collections::BTreeMap;

use tls_ir::{line_of, ChanId, FxHashMap, FxHashSet, GroupId, Sid};

/// Speculative write buffer: word values plus touched-line bookkeeping
/// (each dirty line remembers the first static store that wrote it, for
/// dependence-edge attribution).
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer {
    /// Word → value. `BTreeMap` so commit order is deterministic.
    words: BTreeMap<i64, i64>,
    /// Dirty line → sid of the first store into it.
    lines: FxHashMap<i64, Sid>,
}

impl WriteBuffer {
    /// Record a speculative store by static store `sid`.
    pub fn store(&mut self, addr: i64, val: i64, sid: Sid) {
        self.words.insert(addr, val);
        self.lines.entry(line_of(addr)).or_insert(sid);
    }

    /// This epoch's value for `addr`, if it wrote it.
    pub fn load(&self, addr: i64) -> Option<i64> {
        self.words.get(&addr).copied()
    }

    /// Did the epoch write to this exact word?
    pub fn wrote_word(&self, addr: i64) -> bool {
        self.words.contains_key(&addr)
    }

    /// Did the epoch write anywhere in this line?
    pub fn wrote_line(&self, line: i64) -> bool {
        self.lines.contains_key(&line)
    }

    /// If the epoch wrote this line, the sid of its first store into it.
    pub fn line_writer(&self, line: i64) -> Option<Sid> {
        self.lines.get(&line).copied()
    }

    /// Number of speculatively-modified lines (commit cost).
    pub fn dirty_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of buffered words (occupancy counters).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Words written, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.words.iter().map(|(a, v)| (*a, *v))
    }

    /// Discard all buffered state (squash).
    pub fn clear(&mut self) {
        self.words.clear();
        self.lines.clear();
    }
}

/// Speculatively-loaded locations, tracked at line granularity (with the
/// word retained for the per-word ablation) and remembering the first load
/// sid per line for violation attribution.
#[derive(Clone, Debug, Default)]
pub struct ReadSet {
    /// Line → sid of the first exposed load of that line.
    lines: FxHashMap<i64, Sid>,
    /// Exact words read (used only when `word_grain` tracking is on).
    words: FxHashSet<i64>,
}

impl ReadSet {
    /// Record an exposed load of `addr` by static load `sid`.
    pub fn insert(&mut self, addr: i64, sid: Sid) {
        self.lines.entry(line_of(addr)).or_insert(sid);
        self.words.insert(addr);
    }

    /// If the epoch read line `line`, the sid of its first load of it.
    pub fn line_reader(&self, line: i64) -> Option<Sid> {
        self.lines.get(&line).copied()
    }

    /// Did the epoch read this exact word?
    pub fn read_word(&self, addr: i64) -> bool {
        self.words.contains(&addr)
    }

    /// Discard (squash).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.words.clear();
    }

    /// Number of lines tracked.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if no exposed loads were recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// One forwarded memory value: `addr` of `None` encodes the NULL signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemSignal {
    /// Forwarded address; `None` = NULL (no value produced on this path).
    pub addr: Option<i64>,
    /// Forwarded value (meaningless for NULL signals).
    pub value: i64,
    /// Cycle at which the signal is visible to the consumer.
    pub ready_at: u64,
}

impl MemSignal {
    /// The NULL signal, visible at `ready_at` — what a consumer sees when
    /// the producer had no value on this path (or a fault dropped it).
    pub fn null(ready_at: u64) -> MemSignal {
        MemSignal {
            addr: None,
            value: 0,
            ready_at,
        }
    }
}

/// The signals one epoch has *sent* to its successor, plus the
/// producer-side signal address buffer of §2.2.
///
/// Consumers read their predecessor's `SyncState` (the machine keeps the
/// last committed epoch's around for the current oldest epoch), so signals
/// survive consumer restarts and reach successors spawned after the signal
/// was sent. A squash clears the state; the cascading squash guarantees no
/// consumer retains a value from a cleared mailbox.
///
/// The mailboxes are dense, one slot per channel and per group of the
/// module, so sending and receiving index a vector instead of hashing.
#[derive(Clone, Debug)]
pub struct SyncState {
    /// Per `ChanId`: the sent value and the cycle the consumer can read it.
    scalars: Vec<Option<(i64, u64)>>,
    /// Per `GroupId`: the forwarded signal.
    mems: Vec<Option<MemSignal>>,
    /// Producer-side signal address buffer: forwarded (group, addr) pairs;
    /// a later store in this epoch to a buffered address violates the
    /// consumer (§2.2).
    sig_buf: Vec<(GroupId, i64)>,
    /// Largest occupancy `sig_buf` reached (paper: never above 10).
    sig_buf_high_water: usize,
}

impl SyncState {
    /// Empty mailboxes for `chans` scalar channels and `groups` memory
    /// groups (a module's `next_chan` and `next_group`).
    pub fn new(chans: usize, groups: usize) -> Self {
        Self {
            scalars: vec![None; chans],
            mems: vec![None; groups],
            sig_buf: Vec::new(),
            sig_buf_high_water: 0,
        }
    }

    /// The value sent on `chan` and the cycle it is readable, if sent.
    pub fn scalar(&self, chan: ChanId) -> Option<(i64, u64)> {
        self.scalars[chan.index()]
    }

    /// Send `value` on `chan`, readable from cycle `ready_at`.
    pub fn send_scalar(&mut self, chan: ChanId, value: i64, ready_at: u64) {
        self.scalars[chan.index()] = Some((value, ready_at));
    }

    /// Every sent scalar as `(chan, value)`, in channel order.
    pub fn sent_scalars(&self) -> impl Iterator<Item = (ChanId, i64)> + '_ {
        self.scalars
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.map(|(v, _)| (ChanId(c as u32), v)))
    }

    /// The signal forwarded on `group`, if any.
    pub fn mem(&self, group: GroupId) -> Option<MemSignal> {
        self.mems[group.index()]
    }

    /// Forward `signal` on `group`, replacing any earlier one.
    pub fn send_mem(&mut self, group: GroupId, signal: MemSignal) {
        self.mems[group.index()] = Some(signal);
    }

    /// Record a forwarded memory signal on the producer side.
    pub fn push_sig_buf(&mut self, group: GroupId, addr: i64) {
        self.sig_buf.push((group, addr));
        self.sig_buf_high_water = self.sig_buf_high_water.max(self.sig_buf.len());
    }

    /// Largest signal-address-buffer occupancy since the epoch was spawned.
    pub fn sig_buf_high_water(&self) -> usize {
        self.sig_buf_high_water
    }

    /// Groups whose forwarded address equals a word this store hits.
    pub fn buffered_groups_at(&self, addr: i64) -> Vec<GroupId> {
        self.sig_buf
            .iter()
            .filter(|(_, a)| *a == addr)
            .map(|(g, _)| *g)
            .collect()
    }

    /// Clear all state (squash: the epoch will re-execute and re-signal).
    /// The high-water mark survives: it spans every attempt of an epoch.
    pub fn clear(&mut self) {
        self.scalars.fill(None);
        self.mems.fill(None);
        self.sig_buf.clear();
    }

    /// Forget the high-water mark (a recycled state starting a new epoch).
    pub fn reset_high_water(&mut self) {
        self.sig_buf_high_water = 0;
    }

    /// Merge `newer`'s entries over this state (used to roll the committed
    /// baseline forward when an epoch commits).
    pub fn absorb(&mut self, newer: &SyncState) {
        for (mine, theirs) in self.scalars.iter_mut().zip(&newer.scalars) {
            if theirs.is_some() {
                *mine = *theirs;
            }
        }
        for (mine, theirs) in self.mems.iter_mut().zip(&newer.mems) {
            if theirs.is_some() {
                *mine = *theirs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::LINE_WORDS;

    #[test]
    fn write_buffer_tracks_words_and_lines() {
        let mut wb = WriteBuffer::default();
        wb.store(10, 1, Sid(7));
        wb.store(11, 2, Sid(8));
        wb.store(10 + LINE_WORDS, 3, Sid(9));
        assert_eq!(wb.load(10), Some(1));
        assert_eq!(wb.load(12), None);
        assert!(wb.wrote_word(11));
        assert!(!wb.wrote_word(12));
        assert!(wb.wrote_line(line_of(10)));
        // First store into the line wins the attribution.
        assert_eq!(wb.line_writer(line_of(10)), Some(Sid(7)));
        assert_eq!(wb.line_writer(line_of(10 + LINE_WORDS)), Some(Sid(9)));
        assert_eq!(wb.dirty_lines(), 2);
        let all: Vec<_> = wb.iter().collect();
        assert_eq!(all, vec![(10, 1), (11, 2), (10 + LINE_WORDS, 3)]);
        wb.clear();
        assert_eq!(wb.dirty_lines(), 0);
        assert_eq!(wb.load(10), None);
    }

    #[test]
    fn read_set_remembers_first_reader_per_line() {
        let mut rs = ReadSet::default();
        assert!(rs.is_empty());
        rs.insert(8, Sid(5));
        rs.insert(9, Sid(6)); // same line, later load
        assert_eq!(rs.line_reader(line_of(8)), Some(Sid(5)));
        assert!(rs.read_word(9));
        assert!(!rs.read_word(10));
        assert_eq!(rs.len(), 1);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn signal_buffer_high_water_and_lookup() {
        let mut s = SyncState::new(0, 3);
        s.push_sig_buf(GroupId(0), 100);
        s.push_sig_buf(GroupId(1), 200);
        s.push_sig_buf(GroupId(2), 100);
        assert_eq!(s.sig_buf_high_water(), 3);
        assert_eq!(
            s.buffered_groups_at(100),
            vec![GroupId(0), GroupId(2)]
        );
        assert!(s.buffered_groups_at(300).is_empty());
        s.clear();
        assert!(s.buffered_groups_at(100).is_empty());
        assert_eq!(s.sig_buf_high_water(), 3); // high water persists
        s.reset_high_water();
        assert_eq!(s.sig_buf_high_water(), 0);
    }

    #[test]
    fn absorb_overrides_entries() {
        let mut base = SyncState::new(3, 2);
        base.send_scalar(ChanId(0), 1, 0);
        base.send_scalar(ChanId(1), 2, 0);
        base.send_mem(GroupId(0), MemSignal::null(0));
        let mut newer = SyncState::new(3, 2);
        newer.send_scalar(ChanId(0), 10, 5);
        newer.send_mem(
            GroupId(0),
            MemSignal {
                addr: Some(42),
                value: 7,
                ready_at: 9,
            },
        );
        base.absorb(&newer);
        assert_eq!(base.scalar(ChanId(0)), Some((10, 5)));
        assert_eq!(base.scalar(ChanId(1)), Some((2, 0))); // untouched
        assert_eq!(base.scalar(ChanId(2)), None);
        assert_eq!(base.mem(GroupId(0)).map(|s| s.addr), Some(Some(42)));
        assert_eq!(base.mem(GroupId(1)), None);
        let sent: Vec<_> = base.sent_scalars().collect();
        assert_eq!(sent, vec![(ChanId(0), 10), (ChanId(1), 2)]);
        base.clear();
        assert_eq!(base.sent_scalars().count(), 0);
        assert_eq!(base.mem(GroupId(0)), None);
    }
}
