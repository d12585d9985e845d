#![warn(missing_docs)]

//! Compiler intermediate representation for the CGO 2004 TLS reproduction.
//!
//! This crate defines a small register-machine IR — the stand-in for the
//! paper's SUIF 1.3 infrastructure — that the profiler (`tls-profile`), the
//! synchronization-insertion passes (`tls-core`) and the chip-multiprocessor
//! simulator (`tls-sim`) all operate on.
//!
//! # Model
//!
//! * A [`Module`] holds [`Function`]s, line-aligned [`Global`]s and the set of
//!   [`SpecRegion`]s (loops chosen for speculative parallelization).
//! * A [`Function`] is a control-flow graph of [`Block`]s; each block is a
//!   sequence of [`Instr`]s ended by a [`Terminator`].
//! * Values are 64-bit integers held in per-function virtual registers
//!   ([`Var`]); memory is a flat, *word-addressed* space (one address = one
//!   64-bit word; a cache line is [`LINE_WORDS`] words). Pointer arithmetic
//!   is plain integer arithmetic on word addresses.
//! * Every memory access and call site carries a stable static-instruction
//!   identifier ([`Sid`]) used by the dependence profiler and by the
//!   simulated hardware tables, mirroring the paper's per-instruction
//!   identifiers (§2.3).
//!
//! # TLS intrinsics
//!
//! The compiler communicates with the simulated TLS hardware through
//! dedicated instructions:
//!
//! * [`Instr::WaitScalar`] / [`Instr::SignalScalar`] — the register-resident
//!   forwarding primitive of the prior scalar work (§2.1).
//! * [`Instr::SyncLoad`] — the consumer side of memory-resident forwarding
//!   (§2.2): wait for `(address, value)` from the previous epoch, compare the
//!   forwarded address against the load address, set `use_forwarded_value`,
//!   fall back to a plain load when they differ or when the location was
//!   overwritten locally.
//! * [`Instr::SignalMem`] / [`Instr::SignalMemNull`] — the producer side:
//!   forward `(address, value)` to the successor epoch (entering the signal
//!   address buffer), or a `NULL` address on paths that never produce.
//!
//! # Example
//!
//! Build and print a function that sums a global array:
//!
//! ```
//! use tls_ir::{BinOp, ModuleBuilder, Operand};
//!
//! let mut mb = ModuleBuilder::new();
//! let data = mb.add_global("data", 4, vec![10, 20, 30, 40]);
//! let main = mb.declare("main", 0);
//! let mut fb = mb.define(main);
//! let (i, sum, p, v, c) = (fb.var("i"), fb.var("sum"), fb.var("p"), fb.var("v"), fb.var("c"));
//! fb.assign(i, 0);
//! fb.assign(sum, 0);
//! let head = fb.block("head");
//! let body = fb.block("body");
//! let exit = fb.block("exit");
//! fb.jump(head);
//! fb.switch_to(head);
//! fb.bin(c, BinOp::Lt, i, 4);
//! fb.br(c, body, exit);
//! fb.switch_to(body);
//! fb.bin(p, BinOp::Add, data, i);
//! fb.load(v, p, 0);
//! fb.bin(sum, BinOp::Add, sum, v);
//! fb.bin(i, BinOp::Add, i, 1);
//! fb.jump(head);
//! fb.switch_to(exit);
//! fb.output(sum);
//! fb.ret(Some(Operand::Const(0)));
//! fb.finish();
//! mb.set_entry(main);
//! let module = mb.build().expect("valid module");
//! assert_eq!(module.funcs.len(), 1);
//! ```

mod builder;
mod display;
pub mod generate;
mod ids;
mod instr;
mod module;
mod rng;
pub mod serial;
mod validate;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use generate::{generate, GenConfig, GenFamily};
pub use ids::{BlockId, ChanId, FuncId, GlobalId, GroupId, RegionId, Sid, Var};
pub use instr::{BinOp, Instr, Operand, Terminator};
pub use module::{Block, Function, Global, Module, SpecRegion};
pub use rng::{FxHashMap, FxHashSet, FxHasher, SplitMix64};
pub use validate::{validate, validate_epochs, ValidateError};

/// Bytes per machine word. Addresses in this IR count words, not bytes.
pub const WORD_BYTES: u64 = 8;

/// Words per cache line in the simulated memory hierarchy (32-byte lines).
pub const LINE_WORDS: i64 = 4;

/// First word address handed out to module globals.
///
/// Globals are line-aligned so unrelated globals never share a cache line;
/// workloads that *want* false sharing place both words in one global.
pub const GLOBAL_BASE: i64 = 1 << 20;

/// First word address of the heap region managed by workload-level
/// allocators (a bump pointer held in an ordinary global, so allocation
/// itself is a memory-resident dependence — as in `gap`).
pub const HEAP_BASE: i64 = 1 << 24;

/// Cache-line index of a word address.
#[inline]
pub fn line_of(addr: i64) -> i64 {
    addr.div_euclid(LINE_WORDS)
}

/// Offset of a word address within its cache line, in `0..LINE_WORDS`.
#[inline]
pub fn line_offset(addr: i64) -> i64 {
    addr.rem_euclid(LINE_WORDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math_is_consistent() {
        for addr in [-9i64, -1, 0, 1, 3, 4, 5, 1023, 1 << 30] {
            assert_eq!(line_of(addr) * LINE_WORDS + line_offset(addr), addr);
            let off = line_offset(addr);
            assert!((0..LINE_WORDS).contains(&off), "offset {off} for {addr}");
        }
    }

    #[test]
    fn global_and_heap_bases_are_line_aligned() {
        assert_eq!(line_offset(GLOBAL_BASE), 0);
        assert_eq!(line_offset(HEAP_BASE), 0);
        // Keep the heap strictly above the static globals.
        let (heap, globals) = (HEAP_BASE, GLOBAL_BASE);
        assert!(heap > globals);
    }
}
