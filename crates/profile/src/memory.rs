//! Flat, word-addressed, paged memory.

use tls_ir::FxHashMap;

const PAGE_WORDS: usize = 1024;

/// A sparse 64-bit word-addressed memory. Unwritten words read as zero.
///
/// Shared between the sequential interpreter and the simulator's committed
/// architectural state.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: FxHashMap<i64, Box<[i64; PAGE_WORDS]>>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memory initialized with a module's globals.
    pub fn with_globals(module: &tls_ir::Module) -> Self {
        let mut mem = Self::new();
        for g in &module.globals {
            for (i, &v) in g.init.iter().enumerate() {
                mem.write(g.addr + i as i64, v);
            }
        }
        mem
    }

    #[inline]
    fn split(addr: i64) -> (i64, usize) {
        (
            addr.div_euclid(PAGE_WORDS as i64),
            addr.rem_euclid(PAGE_WORDS as i64) as usize,
        )
    }

    /// Read the word at `addr` (zero if never written).
    #[inline]
    pub fn read(&self, addr: i64) -> i64 {
        let (p, o) = Self::split(addr);
        self.pages.get(&p).map_or(0, |page| page[o])
    }

    /// Write `val` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: i64, val: i64) {
        let (p, o) = Self::split(addr);
        self.pages
            .entry(p)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[o] = val;
    }

    /// Number of resident pages (diagnostics only).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The nonzero words as `(addr, value)`, in address order. Like
    /// [`Memory::first_diff`], this is semantic: page residency and written
    /// zeros leave no trace.
    pub fn words(&self) -> Vec<(i64, i64)> {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|(p, _)| **p);
        pages
            .into_iter()
            .flat_map(|(p, page)| {
                let base = p * PAGE_WORDS as i64;
                page.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0)
                    .map(move |(o, v)| (base + o as i64, *v))
            })
            .collect()
    }

    /// The first `(addr, self_value, other_value)` where the two memories
    /// disagree, in address order, or `None` if they hold the same words.
    ///
    /// Comparison is semantic: a page full of zeros equals an absent page,
    /// so two memories with different page residency can still be equal.
    pub fn first_diff(&self, other: &Memory) -> Option<(i64, i64, i64)> {
        self.first_diff_outside(other, &(0..0))
    }

    /// Like [`Memory::first_diff`], but words with addresses in `skip` are
    /// not compared. Used to exclude compiler-introduced scratch (the
    /// memory-resident synchronization flags live past the original
    /// program's globals) from architectural-equality checks.
    pub fn first_diff_outside(
        &self,
        other: &Memory,
        skip: &std::ops::Range<i64>,
    ) -> Option<(i64, i64, i64)> {
        let mut pages: Vec<i64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            let a = self.pages.get(&p);
            let b = other.pages.get(&p);
            for o in 0..PAGE_WORDS {
                let addr = p * PAGE_WORDS as i64 + o as i64;
                if skip.contains(&addr) {
                    continue;
                }
                let va = a.map_or(0, |pg| pg[o]);
                let vb = b.map_or(0, |pg| pg[o]);
                if va != vb {
                    return Some((addr, va, vb));
                }
            }
        }
        None
    }

    /// Do the two memories hold the same words? (See [`Memory::first_diff`].)
    pub fn same_words(&self, other: &Memory) -> bool {
        self.first_diff(other).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(1 << 40), 0);
        assert_eq!(m.read(-5), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut m = Memory::new();
        for addr in [0i64, 1, 1023, 1024, 1025, -1, -1024, 1 << 30] {
            m.write(addr, addr.wrapping_mul(7) + 1);
        }
        for addr in [0i64, 1, 1023, 1024, 1025, -1, -1024, 1 << 30] {
            assert_eq!(m.read(addr), addr.wrapping_mul(7) + 1, "addr {addr}");
        }
        assert_eq!(m.read(2), 0);
    }

    #[test]
    fn diff_is_semantic_and_ordered() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert!(a.same_words(&b));
        // Residency alone is not a difference.
        a.write(5, 0);
        assert!(a.same_words(&b) && b.same_words(&a));
        a.write(2048, 7);
        b.write(2048, 7);
        b.write(-3, 1);
        a.write(9000, 4);
        // First difference in address order: -3.
        assert_eq!(a.first_diff(&b), Some((-3, 0, 1)));
        b.write(-3, 0);
        assert_eq!(a.first_diff(&b), Some((9000, 4, 0)));
        b.write(9000, 4);
        assert!(a.same_words(&b));
        assert_eq!(a.words(), vec![(2048, 7), (9000, 4)]);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn with_globals_loads_initializers() {
        let mut mb = tls_ir::ModuleBuilder::new();
        let g = mb.add_global("tbl", 6, vec![9, 8, 7]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let mem = Memory::with_globals(&m);
        let base = m.global(g).addr;
        assert_eq!(mem.read(base), 9);
        assert_eq!(mem.read(base + 2), 7);
        assert_eq!(mem.read(base + 3), 0); // zero-padded tail
    }
}
