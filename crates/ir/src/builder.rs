//! Fluent builders for modules and functions.
//!
//! [`ModuleBuilder`] declares globals and functions; [`FuncBuilder`] emits
//! instructions into a current block (cursor style). See the crate-level
//! example.

use crate::ids::{BlockId, ChanId, FuncId, GlobalId, GroupId, Sid, Var};
use crate::instr::{BinOp, Instr, Operand, Terminator};
use crate::module::{Block, Function, Module};
use crate::validate::{validate, ValidateError};

/// Incrementally constructs a [`Module`].
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
    defined: Vec<bool>,
}

impl ModuleBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a global of `words` words with the given initializer
    /// (shorter than `words` = zero-padded tail).
    ///
    /// # Panics
    /// Panics if `init` is longer than `words`.
    pub fn add_global(&mut self, name: impl Into<String>, words: u64, init: Vec<i64>) -> GlobalId {
        assert!(
            init.len() as u64 <= words,
            "initializer longer than the global"
        );
        self.module.push_global(name, words, init)
    }

    /// Declare a function (so call sites can reference it before its body
    /// exists). Define the body later with [`ModuleBuilder::define`].
    pub fn declare(&mut self, name: impl Into<String>, num_params: usize) -> FuncId {
        let id = FuncId(self.module.funcs.len() as u32);
        let name = name.into();
        let var_names = (0..num_params).map(|i| format!("p{i}")).collect();
        self.module.funcs.push(Function {
            name,
            num_params,
            num_vars: num_params,
            var_names,
            blocks: vec![],
        });
        self.defined.push(false);
        id
    }

    /// Begin defining the body of a previously declared function.
    ///
    /// # Panics
    /// Panics if the function was already defined.
    pub fn define(&mut self, func: FuncId) -> FuncBuilder<'_> {
        assert!(
            !self.defined[func.index()],
            "function {} defined twice",
            self.module.funcs[func.index()].name
        );
        FuncBuilder::new(self, func)
    }

    /// Set the program entry function.
    pub fn set_entry(&mut self, func: FuncId) {
        self.module.entry = func;
    }

    /// Allocate a scalar forwarding channel (normally done by the compiler,
    /// exposed for hand-written TLS code in tests and examples).
    pub fn fresh_chan(&mut self) -> ChanId {
        self.module.fresh_chan()
    }

    /// Allocate a memory synchronization group (normally done by the
    /// compiler, exposed for hand-written TLS code).
    pub fn fresh_group(&mut self) -> GroupId {
        self.module.fresh_group()
    }

    /// Direct access to the module under construction.
    pub fn module_mut(&mut self) -> &mut Module {
        &mut self.module
    }

    /// Validate and return the finished module.
    ///
    /// # Errors
    /// Returns the first structural problem found; see [`ValidateError`].
    pub fn build(self) -> Result<Module, ValidateError> {
        validate(&self.module)?;
        Ok(self.module)
    }

    /// Return the module without validating (for tests that need to observe
    /// invalid modules).
    pub fn build_unchecked(self) -> Module {
        self.module
    }
}

/// Emits instructions into one function. Obtained from
/// [`ModuleBuilder::define`]; call [`FuncBuilder::finish`] when done.
///
/// The builder maintains a *current block* cursor: emitters append to it,
/// terminator emitters seal it, and [`FuncBuilder::switch_to`] moves it.
/// The entry block `b0` is created automatically and is current initially.
#[derive(Debug)]
pub struct FuncBuilder<'m> {
    mb: &'m mut ModuleBuilder,
    func: FuncId,
    body: Function,
    cur: BlockId,
}

impl<'m> FuncBuilder<'m> {
    fn new(mb: &'m mut ModuleBuilder, func: FuncId) -> Self {
        let decl = &mb.module.funcs[func.index()];
        let mut body = Function {
            name: decl.name.clone(),
            num_params: decl.num_params,
            num_vars: decl.num_vars,
            var_names: decl.var_names.clone(),
            blocks: vec![],
        };
        body.blocks.push(Block {
            name: "entry".into(),
            ..Block::default()
        });
        Self {
            mb,
            func,
            body,
            cur: BlockId(0),
        }
    }

    /// This function's id.
    pub fn id(&self) -> FuncId {
        self.func
    }

    /// The `i`-th parameter register.
    ///
    /// # Panics
    /// Panics if `i >= num_params`.
    pub fn param(&self, i: usize) -> Var {
        assert!(i < self.body.num_params, "parameter index out of range");
        Var(i as u32)
    }

    /// Allocate a fresh named register.
    pub fn var(&mut self, name: impl Into<String>) -> Var {
        let v = Var(self.body.num_vars as u32);
        self.body.num_vars += 1;
        self.body.var_names.push(name.into());
        v
    }

    /// Create a new (empty, unterminated) block without moving the cursor.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        let b = BlockId(self.body.blocks.len() as u32);
        self.body.blocks.push(Block {
            name: name.into(),
            ..Block::default()
        });
        b
    }

    /// Move the cursor to `b`.
    ///
    /// # Panics
    /// Panics if `b` does not exist.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b.index() < self.body.blocks.len(), "no such block {b}");
        self.cur = b;
    }

    fn emit(&mut self, i: Instr) {
        let blk = &mut self.body.blocks[self.cur.index()];
        assert!(
            blk.term.is_none(),
            "emitting into terminated block {} of {}",
            self.cur,
            self.body.name
        );
        blk.instrs.push(i);
    }

    fn terminate(&mut self, t: Terminator) {
        let blk = &mut self.body.blocks[self.cur.index()];
        assert!(
            blk.term.is_none(),
            "block {} of {} terminated twice",
            self.cur,
            self.body.name
        );
        blk.term = Some(t);
    }

    fn fresh_sid(&mut self) -> Sid {
        self.mb.module.fresh_sid()
    }

    // --- instruction emitters -------------------------------------------

    /// `dst = src`.
    pub fn assign(&mut self, dst: Var, src: impl Into<Operand>) {
        self.emit(Instr::Assign {
            dst,
            src: src.into(),
        });
    }

    /// `dst = op(a, b)`.
    pub fn bin(&mut self, dst: Var, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.emit(Instr::Bin {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `dst = mem[addr + off]`; returns the load's static id.
    pub fn load(&mut self, dst: Var, addr: impl Into<Operand>, off: i64) -> Sid {
        let sid = self.fresh_sid();
        self.emit(Instr::Load {
            dst,
            addr: addr.into(),
            off,
            sid,
        });
        sid
    }

    /// `mem[addr + off] = val`; returns the store's static id.
    pub fn store(&mut self, val: impl Into<Operand>, addr: impl Into<Operand>, off: i64) -> Sid {
        let sid = self.fresh_sid();
        self.emit(Instr::Store {
            val: val.into(),
            addr: addr.into(),
            off,
            sid,
        });
        sid
    }

    /// Call `func(args...)` into `dst`; returns the call site's static id.
    pub fn call(&mut self, dst: Option<Var>, func: FuncId, args: Vec<Operand>) -> Sid {
        let sid = self.fresh_sid();
        self.emit(Instr::Call {
            dst,
            func,
            args,
            sid,
        });
        sid
    }

    /// Append `val` to the observable output stream.
    pub fn output(&mut self, val: impl Into<Operand>) {
        self.emit(Instr::Output { val: val.into() });
    }

    /// `dst =` current epoch index (see [`Instr::EpochId`]).
    pub fn epoch_id(&mut self, dst: Var) {
        self.emit(Instr::EpochId { dst });
    }

    /// Consumer side of scalar forwarding.
    pub fn wait_scalar(&mut self, dst: Var, chan: ChanId) {
        self.emit(Instr::WaitScalar { dst, chan });
    }

    /// Producer side of scalar forwarding.
    pub fn signal_scalar(&mut self, chan: ChanId, val: impl Into<Operand>) {
        self.emit(Instr::SignalScalar {
            chan,
            val: val.into(),
        });
    }

    /// Consumer side of memory-resident forwarding (see [`Instr::SyncLoad`]).
    pub fn sync_load(
        &mut self,
        dst: Var,
        addr: impl Into<Operand>,
        off: i64,
        group: GroupId,
    ) -> Sid {
        let sid = self.fresh_sid();
        self.emit(Instr::SyncLoad {
            dst,
            addr: addr.into(),
            off,
            group,
            sid,
        });
        sid
    }

    /// Producer side of memory-resident forwarding (see [`Instr::SignalMem`]).
    pub fn signal_mem(
        &mut self,
        group: GroupId,
        addr: impl Into<Operand>,
        off: i64,
        val: impl Into<Operand>,
    ) -> Sid {
        let sid = self.fresh_sid();
        self.emit(Instr::SignalMem {
            group,
            addr: addr.into(),
            off,
            val: val.into(),
            sid,
        });
        sid
    }

    /// Forward a `NULL` address on `group` (paths that never produce).
    pub fn signal_mem_null(&mut self, group: GroupId) {
        self.emit(Instr::SignalMemNull { group });
    }

    // --- terminators ------------------------------------------------------

    /// Seal the current block with an unconditional jump.
    pub fn jump(&mut self, to: BlockId) {
        self.terminate(Terminator::Jump(to));
    }

    /// Seal the current block with `if cond != 0 goto t else goto f`.
    pub fn br(&mut self, cond: impl Into<Operand>, t: BlockId, f: BlockId) {
        self.terminate(Terminator::Br {
            cond: cond.into(),
            t,
            f,
        });
    }

    /// Seal the current block with a return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.terminate(Terminator::Ret(val));
    }

    /// Install the finished body into the module.
    pub fn finish(self) {
        let slot = &mut self.mb.module.funcs[self.func.index()];
        *slot = self.body;
        self.mb.defined[self.func.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_two_function_module() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("counter", 1, vec![7]);
        let bump = mb.declare("bump", 1);
        let main = mb.declare("main", 0);

        let mut fb = mb.define(bump);
        let (v, r) = (fb.var("v"), fb.var("r"));
        fb.load(v, g, 0);
        fb.bin(r, BinOp::Add, v, fb.param(0));
        fb.store(r, g, 0);
        fb.ret(Some(Operand::Var(r)));
        fb.finish();

        let mut fb = mb.define(main);
        let out = fb.var("out");
        fb.call(Some(out), bump, vec![Operand::Const(3)]);
        fb.output(out);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);

        let m = mb.build().expect("valid");
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.func_by_name("bump"), Some(bump));
        assert_eq!(m.next_sid, 3); // load, store, call
        assert_eq!(m.entry, main);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.ret(None);
    }

    #[test]
    #[should_panic(expected = "emitting into terminated block")]
    fn emit_after_terminator_panics() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        let v = fb.var("v");
        fb.assign(v, 1);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_define_panics() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        let _ = mb.define(f);
    }

    #[test]
    fn params_are_first_registers() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("f", 2);
        let mut fb = mb.define(f);
        assert_eq!(fb.param(0), Var(0));
        assert_eq!(fb.param(1), Var(1));
        assert_eq!(fb.var("x"), Var(2));
        fb.ret(None);
        fb.finish();
    }
}
