//! Structural validation of modules.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::ids::{BlockId, FuncId, Var};
use crate::instr::{Instr, Operand, Terminator};
use crate::module::{Function, Module};

/// A structural defect found in a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// The entry function id is out of range.
    BadEntry(FuncId),
    /// The entry function takes parameters; a program starts with none.
    EntryParams {
        /// The entry function's name.
        func: String,
        /// Its parameter count.
        params: usize,
    },
    /// A function has more parameters than registers to receive them.
    ParamsExceedVars {
        /// The offending function.
        func: String,
        /// Its parameter count.
        params: usize,
        /// Its register count.
        vars: usize,
    },
    /// A block has no terminator.
    Unterminated {
        /// The offending function.
        func: String,
        /// The unterminated block.
        block: BlockId,
    },
    /// A terminator or region names a block that does not exist.
    BadBlock {
        /// The offending function.
        func: String,
        /// The nonexistent block.
        block: BlockId,
    },
    /// An instruction names a register `>= num_vars`.
    BadVar {
        /// The offending function.
        func: String,
        /// The out-of-range register.
        var: Var,
    },
    /// A call site names a function that does not exist.
    BadCallee {
        /// The offending function.
        func: String,
        /// The nonexistent callee id.
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// The calling function.
        func: String,
        /// The callee's name.
        callee: String,
        /// The callee's parameter count.
        expected: usize,
        /// The number of arguments passed.
        got: usize,
    },
    /// An operand names a global that does not exist.
    BadGlobal {
        /// The offending function.
        func: String,
    },
    /// Two instructions share a static id.
    DuplicateSid {
        /// The function holding the second occurrence.
        func: String,
    },
    /// A region's header is not in its block list, or a region block does
    /// not exist.
    BadRegion {
        /// The malformed region's id.
        region: u32,
    },
    /// The entry function contains no loop (no backward control edge), so
    /// the program has zero epochs and every TLS mode trivially agrees.
    /// Raised only by [`validate_epochs`].
    NoEpochs,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadEntry(id) => write!(f, "entry function {id} does not exist"),
            ValidateError::EntryParams { func, params } => {
                write!(
                    f,
                    "entry function `{func}` takes {params} parameters, expected 0"
                )
            }
            ValidateError::ParamsExceedVars { func, params, vars } => {
                write!(
                    f,
                    "`{func}` has {params} parameters but only {vars} registers"
                )
            }
            ValidateError::Unterminated { func, block } => {
                write!(f, "block {block} of `{func}` has no terminator")
            }
            ValidateError::BadBlock { func, block } => {
                write!(f, "`{func}` references nonexistent block {block}")
            }
            ValidateError::BadVar { func, var } => {
                write!(f, "`{func}` references out-of-range register {var}")
            }
            ValidateError::BadCallee { func, callee } => {
                write!(f, "`{func}` calls nonexistent function {callee}")
            }
            ValidateError::BadArity {
                func,
                callee,
                expected,
                got,
            } => write!(
                f,
                "`{func}` calls `{callee}` with {got} arguments, expected {expected}"
            ),
            ValidateError::BadGlobal { func } => {
                write!(f, "`{func}` references a nonexistent global")
            }
            ValidateError::DuplicateSid { func } => {
                write!(f, "duplicate static instruction id in `{func}`")
            }
            ValidateError::BadRegion { region } => write!(f, "region {region} is malformed"),
            ValidateError::NoEpochs => {
                write!(f, "entry function has no loop: the program has zero epochs")
            }
        }
    }
}

impl Error for ValidateError {}

/// Check the structural invariants of a module.
///
/// # Errors
/// Returns the first defect found.
pub fn validate(m: &Module) -> Result<(), ValidateError> {
    if m.entry.index() >= m.funcs.len() {
        return Err(ValidateError::BadEntry(m.entry));
    }
    let entry = &m.funcs[m.entry.index()];
    if entry.num_params != 0 {
        return Err(ValidateError::EntryParams {
            func: entry.name.clone(),
            params: entry.num_params,
        });
    }
    let mut sids = HashSet::new();
    for func in &m.funcs {
        validate_func(m, func, &mut sids)?;
    }
    for r in &m.regions {
        if r.func.index() >= m.funcs.len() {
            return Err(ValidateError::BadRegion { region: r.id.0 });
        }
        let nblocks = m.funcs[r.func.index()].blocks.len();
        if !r.blocks.contains(&r.header)
            || r.blocks.iter().any(|b| b.index() >= nblocks)
            || r.unroll == 0
        {
            return Err(ValidateError::BadRegion { region: r.id.0 });
        }
    }
    Ok(())
}

/// Check that the entry function contains at least one loop — i.e. at
/// least one terminator targeting an earlier (or the same) block. Builder
/// output lays blocks out in creation order, so a backward edge is exactly
/// a loop. Modules without one have zero epochs: nothing speculates, every
/// mode agrees trivially, and a fuzz run over them tests nothing — the
/// fuzzer rejects them up front with this check.
///
/// Kept separate from [`validate`] because legitimately loop-free modules
/// exist (tiny hand-built test programs); only epoch-oriented pipelines
/// should insist on epochs.
///
/// # Errors
/// [`ValidateError::NoEpochs`] if the entry function has no backward edge.
pub fn validate_epochs(m: &Module) -> Result<(), ValidateError> {
    if m.entry.index() >= m.funcs.len() {
        return Err(ValidateError::BadEntry(m.entry));
    }
    let func = &m.funcs[m.entry.index()];
    for (bi, block) in func.blocks.iter().enumerate() {
        let mut targets: Vec<BlockId> = Vec::new();
        match &block.term {
            Some(Terminator::Jump(t)) => targets.push(*t),
            Some(Terminator::Br { t, f, .. }) => {
                targets.push(*t);
                targets.push(*f);
            }
            _ => {}
        }
        if targets.iter().any(|t| t.index() <= bi) {
            return Ok(());
        }
    }
    Err(ValidateError::NoEpochs)
}

fn validate_func(
    m: &Module,
    func: &Function,
    sids: &mut HashSet<u32>,
) -> Result<(), ValidateError> {
    let name = || func.name.clone();
    let check_var = |v: Var| {
        if v.index() >= func.num_vars {
            Err(ValidateError::BadVar {
                func: name(),
                var: v,
            })
        } else {
            Ok(())
        }
    };
    let check_operand = |op: &Operand| match op {
        Operand::Var(v) => check_var(*v),
        Operand::Global(g) => {
            if g.index() >= m.globals.len() {
                Err(ValidateError::BadGlobal { func: name() })
            } else {
                Ok(())
            }
        }
        Operand::Const(_) => Ok(()),
    };
    let check_block = |b: BlockId| {
        if b.index() >= func.blocks.len() {
            Err(ValidateError::BadBlock {
                func: name(),
                block: b,
            })
        } else {
            Ok(())
        }
    };
    if func.num_params > func.num_vars {
        return Err(ValidateError::ParamsExceedVars {
            func: name(),
            params: func.num_params,
            vars: func.num_vars,
        });
    }

    for (bid, block) in func.iter_blocks() {
        for instr in &block.instrs {
            if let Some(v) = instr.def() {
                check_var(v)?;
            }
            let mut res = Ok(());
            instr.visit_operands(|op| {
                if res.is_ok() {
                    res = check_operand(op);
                }
            });
            res?;
            if let Some(sid) = instr.sid() {
                if !sids.insert(sid.0) {
                    return Err(ValidateError::DuplicateSid { func: name() });
                }
            }
            if let Instr::Call { func: callee, args, .. } = instr {
                let Some(cf) = m.funcs.get(callee.index()) else {
                    return Err(ValidateError::BadCallee {
                        func: name(),
                        callee: *callee,
                    });
                };
                if cf.num_params != args.len() {
                    return Err(ValidateError::BadArity {
                        func: name(),
                        callee: cf.name.clone(),
                        expected: cf.num_params,
                        got: args.len(),
                    });
                }
            }
        }
        match &block.term {
            None => {
                return Err(ValidateError::Unterminated {
                    func: name(),
                    block: bid,
                })
            }
            Some(Terminator::Jump(b)) => check_block(*b)?,
            Some(Terminator::Br { cond, t, f }) => {
                check_operand(cond)?;
                check_block(*t)?;
                check_block(*f)?;
            }
            Some(Terminator::Ret(v)) => {
                if let Some(op) = v {
                    check_operand(op)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::{RegionId, Sid};
    use crate::module::SpecRegion;

    fn tiny() -> ModuleBuilder {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb
    }

    #[test]
    fn valid_module_passes() {
        assert!(tiny().build().is_ok());
    }

    #[test]
    fn unterminated_block_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let fb = mb.define(f);
        fb.finish(); // entry block never terminated
        let m = mb.build_unchecked();
        assert!(matches!(
            validate(&m),
            Err(ValidateError::Unterminated { .. })
        ));
    }

    #[test]
    fn out_of_range_var_is_rejected() {
        let mut mb = tiny();
        mb.module_mut().funcs[0].blocks[0]
            .instrs
            .push(Instr::Assign {
                dst: Var(99),
                src: Operand::Const(0),
            });
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::BadVar { .. })
        ));
    }

    #[test]
    fn bad_callee_and_arity_are_rejected() {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare("callee", 2);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(callee);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        fb.call(None, callee, vec![Operand::Const(1)]); // wrong arity
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        assert!(matches!(
            mb.build(),
            Err(ValidateError::BadArity { expected: 2, got: 1, .. })
        ));
    }

    #[test]
    fn entry_with_parameters_is_rejected() {
        let mut mb = tiny();
        mb.module_mut().funcs[0].num_params = 1;
        mb.module_mut().funcs[0].num_vars = 1;
        assert_eq!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::EntryParams {
                func: "main".into(),
                params: 1
            })
        );
    }

    #[test]
    fn more_parameters_than_registers_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare("callee", 1);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(callee);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        fb.call(None, callee, vec![Operand::Const(1)]);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        mb.module_mut().funcs[callee.index()].num_vars = 0;
        let err = validate(&mb.build_unchecked()).unwrap_err();
        assert_eq!(
            err,
            ValidateError::ParamsExceedVars {
                func: "callee".into(),
                params: 1,
                vars: 0
            }
        );
        assert_eq!(
            err.to_string(),
            "`callee` has 1 parameters but only 0 registers"
        );
    }

    #[test]
    fn duplicate_sid_is_rejected() {
        let mut mb = tiny();
        let g = mb.add_global("g", 1, vec![]);
        let m = mb.module_mut();
        let instrs = &mut m.funcs[0].blocks[0].instrs;
        for _ in 0..2 {
            instrs.push(Instr::Store {
                val: Operand::Const(1),
                addr: Operand::Global(g),
                off: 0,
                sid: Sid(0),
            });
        }
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::DuplicateSid { .. })
        ));
    }

    #[test]
    fn malformed_region_is_rejected() {
        let mut mb = tiny();
        mb.module_mut().regions.push(SpecRegion {
            id: RegionId(0),
            func: FuncId(0),
            header: BlockId(0),
            blocks: vec![], // header missing from blocks
            unroll: 1,
        });
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::BadRegion { region: 0 })
        ));
    }

    #[test]
    fn validate_epochs_rejects_straight_line_modules() {
        let m = tiny().build().unwrap();
        assert_eq!(validate_epochs(&m), Err(ValidateError::NoEpochs));
    }

    #[test]
    fn validate_epochs_accepts_a_loop() {
        use crate::instr::BinOp;
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let i = fb.var("i");
        let c = fb.var("c");
        fb.assign(i, 0);
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, Operand::Var(i), 4);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(i, BinOp::Add, Operand::Var(i), 1);
        fb.jump(head); // backward edge
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().unwrap();
        assert_eq!(validate_epochs(&m), Ok(()));
    }

    #[test]
    fn errors_display_readably() {
        let e = ValidateError::BadArity {
            func: "main".into(),
            callee: "callee".into(),
            expected: 2,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "`main` calls `callee` with 1 arguments, expected 2"
        );
    }
}
