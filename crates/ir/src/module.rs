//! Module, function, block and global definitions.

use std::collections::HashMap;

use crate::ids::{BlockId, FuncId, GlobalId, RegionId, Sid, Var};
use crate::instr::{Instr, Terminator};
use crate::{GLOBAL_BASE, LINE_WORDS};

/// A basic block: straight-line instructions plus a terminator.
///
/// The terminator is `None` only while a block is under construction; a
/// validated module never contains unterminated blocks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Debug name (not semantically meaningful).
    pub name: String,
    /// Straight-line instruction sequence.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Option<Terminator>,
}

impl Block {
    /// Successors of this block (empty for `Ret` or unterminated blocks).
    pub fn successors(&self) -> Vec<BlockId> {
        self.term
            .as_ref()
            .map_or_else(Vec::new, Terminator::successors)
    }
}

/// A function: a CFG of blocks over a set of virtual registers.
///
/// The first `num_params` registers are the parameters; execution begins at
/// [`Function::entry`]. Registers start at `0` for non-parameters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Function {
    /// Function name (unique within the module; used for lookup and display).
    pub name: String,
    /// Number of parameters (= the first `num_params` registers).
    pub num_params: usize,
    /// Total number of virtual registers.
    pub num_vars: usize,
    /// Debug names for registers, parallel to register indices.
    pub var_names: Vec<String>,
    /// The blocks of the function; `BlockId` indexes into this.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block. Always `b0`.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Borrow a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutably borrow a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Parameter registers, in declaration order.
    pub fn params(&self) -> impl Iterator<Item = Var> {
        (0..self.num_params as u32).map(Var)
    }
}

/// A statically allocated, line-aligned region of memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Name for diagnostics.
    pub name: String,
    /// Size in words.
    pub words: u64,
    /// Initial contents; shorter than `words` means the rest is zero.
    pub init: Vec<i64>,
    /// Base word address, assigned when the global is declared.
    pub addr: i64,
}

/// A loop selected for speculative parallelization: each iteration of the
/// loop body becomes an epoch.
///
/// The region is a natural loop of `func`: control entering `header` from
/// outside `blocks` starts a region instance; each arrival back at `header`
/// along a back edge begins the next epoch; leaving `blocks` ends the
/// instance. Procedures called from the body execute within the epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecRegion {
    /// This region's id (index into [`Module::regions`]).
    pub id: RegionId,
    /// Function containing the parallelized loop.
    pub func: FuncId,
    /// Loop header block.
    pub header: BlockId,
    /// All blocks of the natural loop, including `header`.
    pub blocks: Vec<BlockId>,
    /// Unroll factor applied when the region was formed (1 = not unrolled);
    /// recorded for diagnostics and the experiment reports.
    pub unroll: u32,
}

impl SpecRegion {
    /// Does the region contain block `b`?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// A complete program: functions, globals and speculative regions.
///
/// `PartialEq` is structural (used by serialization round-trip and
/// generator determinism tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// All functions; `FuncId` indexes into this.
    pub funcs: Vec<Function>,
    /// All globals; `GlobalId` indexes into this.
    pub globals: Vec<Global>,
    /// The function where execution starts (no arguments).
    pub entry: FuncId,
    /// Loops chosen for speculative parallelization.
    pub regions: Vec<SpecRegion>,
    /// Number of static-instruction ids handed out (ids are `0..next_sid`).
    pub next_sid: u32,
    /// Number of scalar channels handed out.
    pub next_chan: u32,
    /// Number of memory synchronization groups handed out.
    pub next_group: u32,
    /// First free word address after the globals (heap allocators in
    /// workloads start their arenas at [`crate::HEAP_BASE`], which is checked
    /// to lie beyond this).
    pub globals_end: i64,
}

impl Module {
    /// Borrow a function.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Mutably borrow a function.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.index()]
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Borrow a global.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn global(&self, g: GlobalId) -> &Global {
        &self.globals[g.index()]
    }

    /// Find a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// The region whose header is `(func, header)`, if any.
    pub fn region_at(&self, func: FuncId, header: BlockId) -> Option<&SpecRegion> {
        self.regions
            .iter()
            .find(|r| r.func == func && r.header == header)
    }

    /// Map from `(func, header)` to region id, for fast lookup by executors.
    pub fn region_headers(&self) -> HashMap<(FuncId, BlockId), RegionId> {
        self.regions
            .iter()
            .map(|r| ((r.func, r.header), r.id))
            .collect()
    }

    /// Allocate a fresh static-instruction id.
    pub fn fresh_sid(&mut self) -> Sid {
        let s = Sid(self.next_sid);
        self.next_sid += 1;
        s
    }

    /// Allocate a fresh scalar channel.
    pub fn fresh_chan(&mut self) -> crate::ChanId {
        let c = crate::ChanId(self.next_chan);
        self.next_chan += 1;
        c
    }

    /// Allocate a fresh memory synchronization group.
    pub fn fresh_group(&mut self) -> crate::GroupId {
        let g = crate::GroupId(self.next_group);
        self.next_group += 1;
        g
    }

    /// Append a global, assigning it the next line-aligned address.
    /// Returns its id.
    pub fn push_global(&mut self, name: impl Into<String>, words: u64, init: Vec<i64>) -> GlobalId {
        let addr = if self.globals_end == 0 {
            GLOBAL_BASE
        } else {
            self.globals_end
        };
        let id = GlobalId(self.globals.len() as u32);
        let aligned = words.max(1).div_ceil(LINE_WORDS as u64) * LINE_WORDS as u64;
        self.globals.push(Global {
            name: name.into(),
            words,
            init,
            addr,
        });
        self.globals_end = addr + aligned as i64;
        id
    }

    /// Total static instruction count across all functions (for reports).
    pub fn static_instr_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_global_assigns_line_aligned_addresses() {
        let mut m = Module::default();
        let a = m.push_global("a", 1, vec![]);
        let b = m.push_global("b", 5, vec![1, 2, 3, 4, 5]);
        let c = m.push_global("c", 4, vec![]);
        assert_eq!(m.global(a).addr, GLOBAL_BASE);
        assert_eq!(m.global(b).addr, GLOBAL_BASE + LINE_WORDS);
        // b spans 5 words → rounded up to 2 lines.
        assert_eq!(m.global(c).addr, GLOBAL_BASE + 3 * LINE_WORDS);
        assert_eq!(m.globals_end, GLOBAL_BASE + 4 * LINE_WORDS);
        assert_eq!(m.global_by_name("b"), Some(b));
        assert_eq!(m.global_by_name("zzz"), None);
    }

    #[test]
    fn fresh_ids_are_dense() {
        let mut m = Module::default();
        assert_eq!(m.fresh_sid(), Sid(0));
        assert_eq!(m.fresh_sid(), Sid(1));
        assert_eq!(m.fresh_chan().0, 0);
        assert_eq!(m.fresh_group().0, 0);
        assert_eq!(m.fresh_group().0, 1);
        assert_eq!(m.next_sid, 2);
    }

    #[test]
    fn region_lookup() {
        let mut m = Module::default();
        m.funcs.push(Function {
            name: "f".into(),
            ..Function::default()
        });
        m.regions.push(SpecRegion {
            id: RegionId(0),
            func: FuncId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1), BlockId(2)],
            unroll: 1,
        });
        assert!(m.region_at(FuncId(0), BlockId(1)).is_some());
        assert!(m.region_at(FuncId(0), BlockId(2)).is_none());
        let map = m.region_headers();
        assert_eq!(map[&(FuncId(0), BlockId(1))], RegionId(0));
        assert!(m.regions[0].contains(BlockId(2)));
        assert!(!m.regions[0].contains(BlockId(0)));
    }
}
