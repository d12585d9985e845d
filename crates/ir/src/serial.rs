//! Round-trippable text serialization for [`Module`]s.
//!
//! The differential fuzzer writes minimized failing modules to
//! `results/fuzz/` in this format so they can be replayed (`repro fuzz
//! --replay <file>`) and checked in as regression tests. The format is
//! line-oriented and whitespace-separated; lines starting with `#` and
//! blank lines are ignored, so artifacts can carry a commented header.
//!
//! Names (of globals, functions, blocks and registers) are written
//! verbatim after sanitizing whitespace and commas to `_`; a module whose
//! names contain such characters round-trips structurally but not
//! byte-identically. [`parse`] refuses such names, so whatever it accepts
//! re-serializes to text that parses back equal. Everything the executors
//! consume — ids, addresses, instructions, terminators, regions —
//! round-trips exactly, which [`parse`]`(`[`to_text`]`(m)) == m` tests
//! rely on.

use std::fmt::Write as _;

use crate::ids::{BlockId, ChanId, FuncId, GlobalId, GroupId, RegionId, Sid, Var};
use crate::instr::{BinOp, Instr, Operand, Terminator};
use crate::module::{Block, Function, Global, Module, SpecRegion};

/// A parse failure: the 1-based line number and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == ',' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn op_text(op: &Operand) -> String {
    match op {
        Operand::Var(v) => format!("v{}", v.0),
        Operand::Const(c) => format!("#{c}"),
        Operand::Global(g) => format!("g{}", g.0),
    }
}

/// Serialize `module` to the textual format.
pub fn to_text(module: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "tlsir 1");
    let _ = writeln!(s, "entry {}", module.entry.0);
    let _ = writeln!(
        s,
        "counts sid={} chan={} group={} globals_end={}",
        module.next_sid, module.next_chan, module.next_group, module.globals_end
    );
    for g in &module.globals {
        let init: Vec<String> = g.init.iter().map(i64::to_string).collect();
        let init = if init.is_empty() {
            "-".to_string()
        } else {
            init.join(",")
        };
        let _ = writeln!(
            s,
            "global {} words={} addr={} init={}",
            sanitize(&g.name),
            g.words,
            g.addr,
            init
        );
    }
    for f in &module.funcs {
        let _ = writeln!(
            s,
            "func {} params={} vars={}",
            sanitize(&f.name),
            f.num_params,
            f.num_vars
        );
        let names: Vec<String> = f.var_names.iter().map(|n| sanitize(n)).collect();
        let _ = writeln!(
            s,
            "varnames {}",
            if names.is_empty() {
                "-".into()
            } else {
                names.join(",")
            }
        );
        for b in &f.blocks {
            let _ = writeln!(s, "block {}", sanitize(&b.name));
            for i in &b.instrs {
                let _ = writeln!(s, "  {}", instr_text(i));
            }
            match &b.term {
                None => {}
                Some(Terminator::Jump(to)) => {
                    let _ = writeln!(s, "  term jump {}", to.0);
                }
                Some(Terminator::Br { cond, t, f }) => {
                    let _ = writeln!(s, "  term br {} {} {}", op_text(cond), t.0, f.0);
                }
                Some(Terminator::Ret(v)) => match v {
                    None => {
                        let _ = writeln!(s, "  term ret");
                    }
                    Some(op) => {
                        let _ = writeln!(s, "  term ret {}", op_text(op));
                    }
                },
            }
        }
    }
    for r in &module.regions {
        let blocks: Vec<String> = r.blocks.iter().map(|b| b.0.to_string()).collect();
        let _ = writeln!(
            s,
            "region id={} func={} header={} unroll={} blocks={}",
            r.id.0,
            r.func.0,
            r.header.0,
            r.unroll,
            if blocks.is_empty() {
                "-".into()
            } else {
                blocks.join(",")
            }
        );
    }
    s
}

fn instr_text(i: &Instr) -> String {
    match i {
        Instr::Assign { dst, src } => format!("assign v{} {}", dst.0, op_text(src)),
        Instr::Bin { dst, op, a, b } => format!(
            "bin v{} {} {} {}",
            dst.0,
            op.mnemonic(),
            op_text(a),
            op_text(b)
        ),
        Instr::Load {
            dst,
            addr,
            off,
            sid,
        } => {
            format!("load v{} {} {} s{}", dst.0, op_text(addr), off, sid.0)
        }
        Instr::Store {
            val,
            addr,
            off,
            sid,
        } => {
            format!(
                "store {} {} {} s{}",
                op_text(val),
                op_text(addr),
                off,
                sid.0
            )
        }
        Instr::Call {
            dst,
            func,
            args,
            sid,
        } => {
            let mut s = match dst {
                Some(d) => format!("call v{}", d.0),
                None => "call -".to_string(),
            };
            let _ = write!(s, " f{} s{}", func.0, sid.0);
            for a in args {
                let _ = write!(s, " {}", op_text(a));
            }
            s
        }
        Instr::Output { val } => format!("output {}", op_text(val)),
        Instr::EpochId { dst } => format!("epochid v{}", dst.0),
        Instr::WaitScalar { dst, chan } => format!("wait v{} c{}", dst.0, chan.0),
        Instr::SignalScalar { chan, val } => format!("sigscalar c{} {}", chan.0, op_text(val)),
        Instr::SyncLoad {
            dst,
            addr,
            off,
            group,
            sid,
        } => format!(
            "syncload v{} {} {} m{} s{}",
            dst.0,
            op_text(addr),
            off,
            group.0,
            sid.0
        ),
        Instr::SignalMem {
            group,
            addr,
            off,
            val,
            sid,
        } => format!(
            "sigmem m{} {} {} {} s{}",
            group.0,
            op_text(addr),
            off,
            op_text(val),
            sid.0
        ),
        Instr::SignalMemNull { group } => format!("signull m{}", group.0),
    }
}

struct Parser {
    line_no: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            msg: msg.into(),
        }
    }

    /// A global, function or block name, refused if [`to_text`] would
    /// write it differently.
    fn name(&self, tok: &str) -> Result<String, ParseError> {
        if sanitize(tok) == tok {
            Ok(tok.to_string())
        } else {
            Err(self.err(format!("bad name `{tok}`")))
        }
    }

    fn num<T: std::str::FromStr>(&self, tok: &str, what: &str) -> Result<T, ParseError> {
        tok.parse()
            .map_err(|_| self.err(format!("bad {what} `{tok}`")))
    }

    /// `key=value` → value.
    fn kv<'t>(&self, tok: &'t str, key: &str) -> Result<&'t str, ParseError> {
        tok.strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected `{key}=...`, got `{tok}`")))
    }

    /// `v12` / `#-3` / `g0` → operand.
    fn operand(&self, tok: &str) -> Result<Operand, ParseError> {
        if let Some(r) = tok.strip_prefix('v') {
            Ok(Operand::Var(Var(self.num(r, "register")?)))
        } else if let Some(r) = tok.strip_prefix('#') {
            Ok(Operand::Const(self.num(r, "constant")?))
        } else if let Some(r) = tok.strip_prefix('g') {
            Ok(Operand::Global(GlobalId(self.num(r, "global")?)))
        } else {
            Err(self.err(format!("bad operand `{tok}`")))
        }
    }

    fn var(&self, tok: &str) -> Result<Var, ParseError> {
        match self.operand(tok)? {
            Operand::Var(v) => Ok(v),
            _ => Err(self.err(format!("expected register, got `{tok}`"))),
        }
    }

    fn tagged<T: From<u32>>(&self, tok: &str, tag: char, what: &str) -> Result<T, ParseError> {
        let r = tok
            .strip_prefix(tag)
            .ok_or_else(|| self.err(format!("expected {what} `{tag}N`, got `{tok}`")))?;
        Ok(T::from(self.num::<u32>(r, what)?))
    }

    fn binop(&self, tok: &str) -> Result<BinOp, ParseError> {
        use BinOp::*;
        const OPS: [BinOp; 18] = [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, Min, Max,
        ];
        OPS.iter()
            .copied()
            .find(|o| o.mnemonic() == tok)
            .ok_or_else(|| self.err(format!("unknown binop `{tok}`")))
    }
}

macro_rules! id_from {
    ($($t:ident),*) => {$(
        impl From<u32> for $t {
            fn from(v: u32) -> Self {
                $t(v)
            }
        }
    )*};
}
id_from!(Sid, ChanId, GroupId, Var, FuncId, BlockId, GlobalId, RegionId);

/// Parse a module from the textual format. Lines beginning with `#` and
/// blank lines are skipped (artifact headers).
///
/// # Errors
/// Returns the first malformed line. The result is *not* validated; run
/// [`crate::validate`] on it before executing.
pub fn parse(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::default();
    let mut cur_func: Option<usize> = None;
    let mut cur_block: Option<usize> = None;
    let mut saw_magic = false;
    let mut p = Parser { line_no: 0 };

    for (no, raw) in text.lines().enumerate() {
        p.line_no = no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "tlsir" => {
                if toks.get(1) != Some(&"1") {
                    return Err(p.err("unsupported version"));
                }
                saw_magic = true;
            }
            "entry" => {
                let t = toks.get(1).ok_or_else(|| p.err("missing entry id"))?;
                module.entry = FuncId(p.num(t, "entry")?);
            }
            "counts" => {
                for t in &toks[1..] {
                    if let Ok(v) = p.kv(t, "sid") {
                        module.next_sid = p.num(v, "sid count")?;
                    } else if let Ok(v) = p.kv(t, "chan") {
                        module.next_chan = p.num(v, "chan count")?;
                    } else if let Ok(v) = p.kv(t, "group") {
                        module.next_group = p.num(v, "group count")?;
                    } else if let Ok(v) = p.kv(t, "globals_end") {
                        module.globals_end = p.num(v, "globals_end")?;
                    } else {
                        return Err(p.err(format!("unknown count `{t}`")));
                    }
                }
            }
            "global" => {
                if toks.len() != 5 {
                    return Err(p.err("global wants: name words= addr= init="));
                }
                let words = p.num(p.kv(toks[2], "words")?, "words")?;
                let addr = p.num(p.kv(toks[3], "addr")?, "addr")?;
                let init_s = p.kv(toks[4], "init")?;
                let init = if init_s == "-" {
                    vec![]
                } else {
                    init_s
                        .split(',')
                        .map(|v| p.num(v, "init value"))
                        .collect::<Result<Vec<i64>, _>>()?
                };
                module.globals.push(Global {
                    name: p.name(toks[1])?,
                    words,
                    init,
                    addr,
                });
            }
            "func" => {
                if toks.len() != 4 {
                    return Err(p.err("func wants: name params= vars="));
                }
                module.funcs.push(Function {
                    name: p.name(toks[1])?,
                    num_params: p.num(p.kv(toks[2], "params")?, "params")?,
                    num_vars: p.num(p.kv(toks[3], "vars")?, "vars")?,
                    var_names: vec![],
                    blocks: vec![],
                });
                cur_func = Some(module.funcs.len() - 1);
                cur_block = None;
            }
            "varnames" => {
                let f = cur_func.ok_or_else(|| p.err("varnames outside func"))?;
                if toks.len() > 1 && toks[1] != "-" {
                    module.funcs[f].var_names = toks[1].split(',').map(str::to_string).collect();
                }
            }
            "block" => {
                let f = cur_func.ok_or_else(|| p.err("block outside func"))?;
                module.funcs[f].blocks.push(Block {
                    name: p.name(toks.get(1).unwrap_or(&"b"))?,
                    instrs: vec![],
                    term: None,
                });
                cur_block = Some(module.funcs[f].blocks.len() - 1);
            }
            "term" => {
                let (f, b) = match (cur_func, cur_block) {
                    (Some(f), Some(b)) => (f, b),
                    _ => return Err(p.err("term outside block")),
                };
                let term = match toks.get(1) {
                    Some(&"jump") => {
                        let to = toks.get(2).ok_or_else(|| p.err("jump wants a target"))?;
                        Terminator::Jump(BlockId(p.num(to, "block")?))
                    }
                    Some(&"br") => {
                        if toks.len() != 5 {
                            return Err(p.err("br wants: cond t f"));
                        }
                        Terminator::Br {
                            cond: p.operand(toks[2])?,
                            t: BlockId(p.num(toks[3], "block")?),
                            f: BlockId(p.num(toks[4], "block")?),
                        }
                    }
                    Some(&"ret") => match toks.get(2) {
                        None => Terminator::Ret(None),
                        Some(op) => Terminator::Ret(Some(p.operand(op)?)),
                    },
                    _ => return Err(p.err("unknown terminator")),
                };
                let blk = &mut module.funcs[f].blocks[b];
                if blk.term.is_some() {
                    return Err(p.err("block terminated twice"));
                }
                blk.term = Some(term);
            }
            "region" => {
                if toks.len() != 6 {
                    return Err(p.err("region wants: id= func= header= unroll= blocks="));
                }
                let blocks_s = p.kv(toks[5], "blocks")?;
                let blocks = if blocks_s == "-" {
                    vec![]
                } else {
                    blocks_s
                        .split(',')
                        .map(|v| Ok(BlockId(p.num(v, "block")?)))
                        .collect::<Result<Vec<_>, ParseError>>()?
                };
                module.regions.push(SpecRegion {
                    id: RegionId(p.num(p.kv(toks[1], "id")?, "region id")?),
                    func: FuncId(p.num(p.kv(toks[2], "func")?, "func")?),
                    header: BlockId(p.num(p.kv(toks[3], "header")?, "header")?),
                    blocks,
                    unroll: p.num(p.kv(toks[4], "unroll")?, "unroll")?,
                });
            }
            _ => {
                // An instruction line inside the current block.
                let (f, b) = match (cur_func, cur_block) {
                    (Some(f), Some(b)) => (f, b),
                    _ => return Err(p.err(format!("unexpected `{}`", toks[0]))),
                };
                let instr = parse_instr(&p, &toks)?;
                module.funcs[f].blocks[b].instrs.push(instr);
            }
        }
    }
    if !saw_magic {
        return Err(ParseError {
            line: 0,
            msg: "missing `tlsir 1` header".into(),
        });
    }
    Ok(module)
}

fn parse_instr(p: &Parser, toks: &[&str]) -> Result<Instr, ParseError> {
    let want = |n: usize| -> Result<(), ParseError> {
        if toks.len() == n {
            Ok(())
        } else {
            Err(p.err(format!(
                "`{}` wants {} tokens, got {}",
                toks[0],
                n,
                toks.len()
            )))
        }
    };
    match toks[0] {
        "assign" => {
            want(3)?;
            Ok(Instr::Assign {
                dst: p.var(toks[1])?,
                src: p.operand(toks[2])?,
            })
        }
        "bin" => {
            want(5)?;
            Ok(Instr::Bin {
                dst: p.var(toks[1])?,
                op: p.binop(toks[2])?,
                a: p.operand(toks[3])?,
                b: p.operand(toks[4])?,
            })
        }
        "load" => {
            want(5)?;
            Ok(Instr::Load {
                dst: p.var(toks[1])?,
                addr: p.operand(toks[2])?,
                off: p.num(toks[3], "offset")?,
                sid: p.tagged(toks[4], 's', "sid")?,
            })
        }
        "store" => {
            want(5)?;
            Ok(Instr::Store {
                val: p.operand(toks[1])?,
                addr: p.operand(toks[2])?,
                off: p.num(toks[3], "offset")?,
                sid: p.tagged(toks[4], 's', "sid")?,
            })
        }
        "call" => {
            if toks.len() < 4 {
                return Err(p.err("call wants: dst func sid args..."));
            }
            let dst = if toks[1] == "-" {
                None
            } else {
                Some(p.var(toks[1])?)
            };
            let args = toks[4..]
                .iter()
                .map(|t| p.operand(t))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Instr::Call {
                dst,
                func: p.tagged(toks[2], 'f', "func")?,
                args,
                sid: p.tagged(toks[3], 's', "sid")?,
            })
        }
        "output" => {
            want(2)?;
            Ok(Instr::Output {
                val: p.operand(toks[1])?,
            })
        }
        "epochid" => {
            want(2)?;
            Ok(Instr::EpochId {
                dst: p.var(toks[1])?,
            })
        }
        "wait" => {
            want(3)?;
            Ok(Instr::WaitScalar {
                dst: p.var(toks[1])?,
                chan: p.tagged(toks[2], 'c', "chan")?,
            })
        }
        "sigscalar" => {
            want(3)?;
            Ok(Instr::SignalScalar {
                chan: p.tagged(toks[1], 'c', "chan")?,
                val: p.operand(toks[2])?,
            })
        }
        "syncload" => {
            want(6)?;
            Ok(Instr::SyncLoad {
                dst: p.var(toks[1])?,
                addr: p.operand(toks[2])?,
                off: p.num(toks[3], "offset")?,
                group: p.tagged(toks[4], 'm', "group")?,
                sid: p.tagged(toks[5], 's', "sid")?,
            })
        }
        "sigmem" => {
            want(6)?;
            Ok(Instr::SignalMem {
                group: p.tagged(toks[1], 'm', "group")?,
                addr: p.operand(toks[2])?,
                off: p.num(toks[3], "offset")?,
                val: p.operand(toks[4])?,
                sid: p.tagged(toks[5], 's', "sid")?,
            })
        }
        "signull" => {
            want(2)?;
            Ok(Instr::SignalMemNull {
                group: p.tagged(toks[1], 'm', "group")?,
            })
        }
        other => Err(p.err(format!("unknown instruction `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenConfig};
    use crate::validate;

    #[test]
    fn generated_modules_round_trip() {
        let cfg = GenConfig::default();
        for seed in 0..25 {
            let m = generate(seed, &cfg, 0);
            let text = to_text(&m);
            let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(m, back, "seed {seed}");
            validate(&back).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let m = generate(3, &GenConfig::default(), 0);
        let text = format!("# artifact header\n# seed: 3\n\n{}", to_text(&m));
        assert_eq!(parse(&text).expect("parses"), m);
    }

    #[test]
    fn tls_intrinsics_round_trip() {
        // Hand-build a module using every intrinsic form.
        let mut mb = crate::ModuleBuilder::new();
        let g = mb.add_global("g", 4, vec![1, 2]);
        let f = mb.declare("main", 0);
        let chan = mb.fresh_chan();
        let grp = mb.fresh_group();
        let mut fb = mb.define(f);
        let (v, w) = (fb.var("v"), fb.var("w"));
        fb.epoch_id(v);
        fb.wait_scalar(w, chan);
        fb.signal_scalar(chan, w);
        fb.sync_load(v, g, 1, grp);
        fb.store(v, g, 1);
        fb.signal_mem(grp, g, 1, v);
        fb.signal_mem_null(grp);
        fb.call(None, f, vec![]);
        fb.output(v);
        fb.ret(Some(Operand::Const(0)));
        fb.finish();
        mb.set_entry(f);
        let m = mb.build_unchecked();
        let back = parse(&to_text(&m)).expect("parses");
        assert_eq!(m, back);
    }

    #[test]
    fn names_to_text_would_rewrite_are_refused() {
        let m = generate(3, &GenConfig::default(), 0);
        let text = to_text(&m);
        let block = text
            .lines()
            .find(|l| l.starts_with("block "))
            .expect("a block");
        let bad = text.replacen(block, &format!("{block},x"), 1);
        let e = parse(&bad).expect_err("comma in a block name");
        assert!(e.msg.contains("bad name"), "{e}");
        let func = text
            .lines()
            .find(|l| l.starts_with("func "))
            .expect("a func");
        let bad = text.replacen(func, &func.replacen("func ", "func a,", 1), 1);
        assert!(parse(&bad).is_err(), "comma in a func name");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("tlsir 1\nbogus line here\n").expect_err("rejects");
        assert_eq!(e.line, 2);
        assert!(parse("entry 0\n").is_err(), "missing magic rejected");
    }
}
