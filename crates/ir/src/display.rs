//! Textual listing of modules and functions for debugging and golden tests.

use std::fmt;

use crate::instr::{Instr, Operand, Terminator};
use crate::module::{Function, Module};

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Global(g) => write!(f, "{g}"),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Assign { dst, src } => write!(f, "{dst} = {src}"),
            Instr::Bin { dst, op, a, b } => write!(f, "{dst} = {} {a}, {b}", op.mnemonic()),
            Instr::Load {
                dst,
                addr,
                off,
                sid,
            } => {
                write!(f, "{dst} = load [{addr}+{off}] {sid}")
            }
            Instr::Store {
                val,
                addr,
                off,
                sid,
            } => {
                write!(f, "store [{addr}+{off}] = {val} {sid}")
            }
            Instr::Call {
                dst,
                func,
                args,
                sid,
            } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {func}(")?;
                } else {
                    write!(f, "call {func}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") {sid}")
            }
            Instr::Output { val } => write!(f, "output {val}"),
            Instr::EpochId { dst } => write!(f, "{dst} = epoch_id"),
            Instr::WaitScalar { dst, chan } => write!(f, "{dst} = wait_scalar {chan}"),
            Instr::SignalScalar { chan, val } => write!(f, "signal_scalar {chan}, {val}"),
            Instr::SyncLoad {
                dst,
                addr,
                off,
                group,
                sid,
            } => write!(f, "{dst} = sync_load [{addr}+{off}] {group} {sid}"),
            Instr::SignalMem {
                group,
                addr,
                off,
                val,
                sid,
            } => write!(f, "signal_mem {group}, [{addr}+{off}], {val} {sid}"),
            Instr::SignalMemNull { group } => write!(f, "signal_mem_null {group}"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(b) => write!(f, "jump {b}"),
            Terminator::Br { cond, t, f: fb } => write!(f, "br {cond}, {t}, {fb}"),
            Terminator::Ret(None) => write!(f, "ret"),
            Terminator::Ret(Some(v)) => write!(f, "ret {v}"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {}({} params) {{", self.name, self.num_params)?;
        for (bid, block) in self.iter_blocks() {
            writeln!(f, "{bid}: ; {}", block.name)?;
            for i in &block.instrs {
                writeln!(f, "  {i}")?;
            }
            match &block.term {
                Some(t) => writeln!(f, "  {t}")?,
                None => writeln!(f, "  <unterminated>")?,
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {} [{} words] @ {}", g.name, g.words, g.addr)?;
        }
        for r in &self.regions {
            writeln!(
                f,
                "region {} = func {} header {} ({} blocks, unroll {})",
                r.id,
                r.func,
                r.header,
                r.blocks.len(),
                r.unroll
            )?;
        }
        for func in &self.funcs {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ModuleBuilder;
    use crate::instr::{BinOp, Operand};

    #[test]
    fn listing_contains_expected_lines() {
        let mut mb = ModuleBuilder::new();
        let g = mb.add_global("flag", 1, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let v = fb.var("v");
        fb.bin(v, BinOp::Add, 1, 2);
        fb.store(v, g, 0);
        fb.output(v);
        fb.ret(Some(Operand::Const(0)));
        fb.finish();
        let m = mb.build().expect("valid");
        let text = m.to_string();
        assert!(text.contains("global flag [1 words]"), "{text}");
        assert!(text.contains("v0 = add 1, 2"), "{text}");
        assert!(text.contains("store [@g0+0] = v0 #0"), "{text}");
        assert!(text.contains("output v0"), "{text}");
        assert!(text.contains("ret 0"), "{text}");
    }
}
