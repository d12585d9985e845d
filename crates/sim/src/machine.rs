//! The TLS chip-multiprocessor execution engine.
//!
//! The machine interprets a module with the per-core timing model of
//! [`crate::timing`]: code outside speculative regions runs on one core;
//! reaching a region header switches to *parallel mode*, where each loop
//! iteration becomes an epoch running on one of the cores
//! (epoch *k* on core *k* mod `cores`). Epochs buffer stores speculatively,
//! track exposed loads at cache-line granularity, communicate through
//! compiler-inserted wait/signal (scalar channels and memory groups with the
//! signal address buffer of §2.2), and are squashed and restarted — together
//! with all logically-later epochs — whenever an inter-epoch dependence is
//! violated. Commits happen in epoch order via a homefree token.
//!
//! Violation detection is two-sided, mirroring invalidation-based TLS
//! coherence:
//!
//! * *eager*: a store by epoch *e* squashes any later active epoch whose
//!   read set contains the stored line (false sharing included);
//! * *commit-time*: a load that reads committed memory while an earlier
//!   active epoch holds an uncommitted store to the same line registers a
//!   pending violation that fires when that epoch commits.

use std::error::Error;
use std::fmt;

use tls_ir::{
    line_of, BinOp, BlockId, FuncId, GroupId, Instr, Module, Operand, RegionId, Sid, Terminator,
    Var,
};
use tls_profile::{Memory, OracleKey, ValueOracle};

use crate::adapt::{AdaptController, Outcome as AdaptOutcome, Policy};
use crate::cache::MemSystem;
use crate::config::{OracleSel, SimConfig, SyncLoadPolicy};
use crate::counters::{MachineCounters, OpClass};
use crate::events::{Fine, NullTracer, SignalKind, TraceEvent, Tracer, ViolationKind, WaitKind};
use crate::hwsync::{ValuePredictor, ViolationTable};
use crate::inject::{EagerFault, FaultClass, SignalFault, CORRUPT_ADDR_XOR};
use crate::spec::{MemSignal, ReadSet, SyncState, WriteBuffer};
use crate::stats::{RegionStats, SimResult, SlotBreakdown, ViolationClass};
use crate::timing::{BranchPredictor, CoreTimer};

/// Why a simulation aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The dynamic-instruction budget was exceeded.
    StepLimit(u64),
    /// The call-depth limit was exceeded.
    CallDepth(usize),
    /// A `ret` tried to leave the function containing an active speculative
    /// region (region selection must reject such loops).
    RetInRegion(String),
    /// No epoch can make progress (indicates mis-inserted synchronization).
    Deadlock {
        /// Simulated time at which progress stopped.
        time: u64,
    },
    /// The simulated-cycle budget (`SimConfig::max_cycles`) was exceeded —
    /// the typed outcome for a module whose loop never terminates.
    CycleBudgetExceeded(u64),
    /// A scripted fault plan ran out of decisions (see
    /// [`crate::inject::FaultPlan::scripted`]).
    FaultPlanExhausted {
        /// Name of the fault class whose decision was needed.
        class: &'static str,
        /// Zero-based index of the first decision past the script.
        decision: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimit(n) => write!(f, "exceeded step limit of {n} instructions"),
            SimError::CallDepth(n) => write!(f, "exceeded call depth of {n} frames"),
            SimError::RetInRegion(func) => {
                write!(f, "`{func}` returned out of an active speculative region")
            }
            SimError::Deadlock { time } => write!(f, "simulation deadlocked at cycle {time}"),
            SimError::CycleBudgetExceeded(n) => {
                write!(f, "exceeded cycle budget of {n} simulated cycles")
            }
            SimError::FaultPlanExhausted { class, decision } => write!(
                f,
                "fault plan exhausted: no scripted decision {decision} for class `{class}`"
            ),
        }
    }
}

impl Error for SimError {}

const MAX_CALL_DEPTH: usize = 256;

#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    regs: Vec<i64>,
    ready: Vec<u64>,
    block: BlockId,
    idx: usize,
    ret_to: Option<Var>,
}

impl Frame {
    fn new(module: &Module, func: FuncId, now: u64) -> Self {
        let f = module.func(func);
        Self {
            func,
            regs: vec![0; f.num_vars],
            ready: vec![now; f.num_vars],
            block: f.entry(),
            idx: 0,
            ret_to: None,
        }
    }

    /// Write `v` to `dst`, readable from cycle `ready`.
    #[inline]
    fn set(&mut self, dst: Var, v: i64, ready: u64) {
        self.regs[dst.index()] = v;
        self.ready[dst.index()] = ready;
    }
}

/// What one core runs: a call stack issuing through that core's pipeline.
/// The sequential program owns one, and every epoch embeds one.
#[derive(Debug)]
struct Thread {
    frames: Vec<Frame>,
    timer: CoreTimer,
    /// Issue time of the most recent instruction: the sequential program's
    /// time, and an epoch's scheduling key.
    clock: u64,
    core: usize,
}

impl Thread {
    /// Issue the current instruction, which writes `v` to `dst` `latency`
    /// cycles after its operands are ready at `ready`, and move past it.
    /// Returns the issue cycle.
    fn issue_write(&mut self, dst: Var, v: i64, ready: u64, latency: u64) -> u64 {
        let (issue, complete) = self.timer.issue(ready, latency);
        self.clock = issue;
        let frame = self.frames.last_mut().expect("thread has frames");
        frame.set(dst, v, complete);
        frame.idx += 1;
        issue
    }
}

/// What [`Machine::exec`] hands back: the part of a step that the
/// sequential and the speculative path do differently.
#[derive(Clone, Copy, Debug)]
enum Step<'m> {
    /// The step is complete.
    Next,
    /// `output` issued this value.
    Output(i64),
    /// An unconditional jump to this block, not yet issued.
    Jump(BlockId),
    /// A conditional branch, issued, resolved to this block.
    Branch(BlockId),
    /// A frame returned this value; the thread has no frame left when it
    /// was the bottom one.
    Return(i64),
    /// A memory or sync instruction, not executed: the frame still points
    /// at it.
    Mem(&'m Instr),
}

/// Epoch execution status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Running,
    /// Blocked on a scalar channel, a memory group or on becoming the
    /// oldest epoch, since the given cycle.
    Wait(WaitKind, u64),
    /// Finished executing; waiting for the homefree token.
    Done,
}

#[derive(Debug)]
struct Epoch {
    index: u64,
    thread: Thread,
    status: Status,
    wb: WriteBuffer,
    reads: ReadSet,
    sync: SyncState,
    outputs: Vec<i64>,
    /// (sid, addr, predicted value) to verify at commit (mode `P`).
    predicted: Vec<(Sid, i64, i64)>,
    /// Per-sid dynamic occurrence counters for oracle lookups, indexed by
    /// `Sid`.
    occ: Vec<u32>,
    /// Groups (indexed by `GroupId`) whose forwarded value this epoch has
    /// already *used* in its current attempt; a producer re-signal of such a
    /// group must restart the epoch (signal-address-buffer semantics, §2.2).
    consumed: Vec<bool>,
    attempt_start: u64,
    sync_cycles: u64,
    /// `Some((exit_target, finish_time))` once done; `None` target = back
    /// edge (ordinary epoch), `Some(block)` = the epoch left the loop.
    finish: Option<(Option<BlockId>, u64)>,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    producer: u64,
    consumer: u64,
    sid: Sid,
    /// Sid of the producer's first store into the conflicting line
    /// (dependence-edge attribution; no timing effect).
    store_sid: Option<Sid>,
    /// Word address the consumer loaded.
    addr: i64,
}

/// One squash request produced by a step.
#[derive(Clone, Copy, Debug)]
struct SquashReq {
    victim: u64,
    time: u64,
    load_sid: Option<Sid>,
    /// Offending store of the triggering dependence, if known (tracing).
    store_sid: Option<Sid>,
    /// Word address of the dependence, if known (tracing).
    addr: Option<i64>,
    /// Producer epoch of the dependence, if known (tracing).
    producer: Option<u64>,
    /// How the violation was detected (tracing).
    kind: ViolationKind,
}

/// A load an epoch is executing.
#[derive(Clone, Copy, Debug)]
struct LoadOp {
    dst: Var,
    sid: Sid,
    /// The word it reads.
    addr: i64,
    /// When its operands are ready.
    ready: u64,
    /// A compiler-synchronized load (`SyncLoad`).
    sync: bool,
}

/// One region instance in parallel mode: its epochs and what their steps,
/// commits and squashes share.
struct RegionRun {
    rid: RegionId,
    /// Dynamic ordinal of this instance among all region instances.
    ord: u64,
    header: BlockId,
    /// The frame at region entry, from which every epoch attempt starts.
    base: Frame,
    /// The committed baseline mailbox: what the oldest epoch receives.
    committed_out: SyncState,
    /// Active epochs, oldest first.
    epochs: Vec<Epoch>,
    pendings: Vec<Pending>,
    stats: RegionStats,
    /// Issue slots already charged to `stats.slots`.
    attributed: u64,
}

/// Tracks one active sequential-mode region instance (attribution only).
#[derive(Clone, Copy, Debug)]
struct SeqRegion {
    rid: RegionId,
    depth: usize,
    start: u64,
    iter: u64,
}

/// Pre-decoded program, built once per [`Machine`].
///
/// Every block of every function is flattened into one index-addressed
/// arena: the step loops resolve `(func, block)` to a flat block id with one
/// add and dispatch on a borrowed instruction (or a copied terminator)
/// without walking the nested `Module` → `Function` → `Block` vectors or
/// cloning an `Instr` per step. Region-header and global-address lookups are
/// resolved to dense tables at the same time.
struct Code<'m> {
    /// All instructions of all blocks, function by function, block by block.
    instrs: Vec<&'m Instr>,
    /// Per flat block: its terminator (validated modules terminate every
    /// reachable block; unterminated builder blocks get a placeholder `Ret`
    /// that is unreachable at run time).
    terms: Vec<Terminator>,
    /// Per flat block: start of its slice in `instrs`.
    starts: Vec<u32>,
    /// Per flat block: number of instructions.
    lens: Vec<u32>,
    /// Per function: flat id of its first block.
    func_base: Vec<u32>,
    /// Per flat block: the region this block heads, if any.
    region_at: Vec<Option<RegionId>>,
    /// Per global: its base address (`Operand::Global` evaluation).
    global_addrs: Vec<i64>,
}

impl<'m> Code<'m> {
    fn new(module: &'m Module) -> Self {
        let headers = module.region_headers();
        let nblocks: usize = module.funcs.iter().map(|f| f.blocks.len()).sum();
        let mut code = Code {
            instrs: Vec::with_capacity(
                module
                    .funcs
                    .iter()
                    .flat_map(|f| &f.blocks)
                    .map(|b| b.instrs.len())
                    .sum(),
            ),
            terms: Vec::with_capacity(nblocks),
            starts: Vec::with_capacity(nblocks),
            lens: Vec::with_capacity(nblocks),
            func_base: Vec::with_capacity(module.funcs.len()),
            region_at: Vec::with_capacity(nblocks),
            global_addrs: module.globals.iter().map(|g| g.addr).collect(),
        };
        for (fi, f) in module.funcs.iter().enumerate() {
            code.func_base.push(code.terms.len() as u32);
            for (bi, b) in f.blocks.iter().enumerate() {
                code.starts.push(code.instrs.len() as u32);
                code.lens.push(b.instrs.len() as u32);
                code.instrs.extend(b.instrs.iter());
                code.terms.push(b.term.unwrap_or(Terminator::Ret(None)));
                code.region_at.push(
                    headers
                        .get(&(FuncId(fi as u32), BlockId(bi as u32)))
                        .copied(),
                );
            }
        }
        code
    }

    /// Flat id of `block` in `func`.
    #[inline]
    fn block_at(&self, func: FuncId, block: BlockId) -> usize {
        self.func_base[func.index()] as usize + block.index()
    }
}

/// The simulator. Create with [`Machine::new`] (or
/// [`Machine::with_oracle`]) and consume with [`Machine::run`].
pub struct Machine<'m> {
    module: &'m Module,
    code: Code<'m>,
    config: SimConfig,
    oracle: Option<&'m ValueOracle>,
    mem: Memory,
    caches: MemSystem,
    branch: Vec<BranchPredictor>,
    viol_table: ViolationTable,
    predictor: ValuePredictor,
    /// Adaptive per-dependence policy controller (`SimConfig::adapt`).
    adapt: Option<AdaptController>,
    chan_regs: Vec<i64>,
    output: Vec<i64>,
    /// Per region: dense membership table indexed by `BlockId` within the
    /// region's function.
    region_blocks: Vec<Vec<bool>>,
    result: SimResult,
    steps: u64,
    region_ord: u64,
    /// Per synchronized-load sid: (wait attempts, forwarded-value uses),
    /// indexed by `Sid`. Feeds the `hybrid_filter` enhancement.
    forward_usefulness: Vec<(u32, u32)>,
    /// `SimConfig::oracle_sel` as a table indexed by `Sid`: loads the value
    /// oracle answers.
    oracle_loads: Vec<bool>,
    /// `SimConfig::stall_marked` indexed by `Sid` (all false when unset).
    stall_loads: Vec<bool>,
    /// `SimConfig::mark_compiler` indexed by `Sid`.
    marked_loads: Vec<bool>,
    /// Retired and cancelled epochs, recycled by [`Machine::spawn_epoch`]
    /// so that spawning reuses their frames, ROBs and buffers.
    spare_epochs: Vec<Epoch>,
}

/// A table indexed by `Sid` over a module with `n` static ids, true for the
/// members of `sids` (ids outside the module never match, as in the set).
fn sid_table<'a>(n: usize, sids: impl IntoIterator<Item = &'a Sid>) -> Vec<bool> {
    let mut table = vec![false; n];
    for sid in sids {
        if let Some(member) = table.get_mut(sid.index()) {
            *member = true;
        }
    }
    table
}

impl<'m> Machine<'m> {
    /// A machine ready to run `module` under `config`.
    pub fn new(module: &'m Module, config: SimConfig) -> Self {
        let region_blocks = module
            .regions
            .iter()
            .map(|r| {
                let mut in_region = vec![false; module.func(r.func).blocks.len()];
                for b in &r.blocks {
                    in_region[b.index()] = true;
                }
                in_region
            })
            .collect();
        let sids = module.next_sid as usize;
        Self {
            mem: Memory::with_globals(module),
            caches: MemSystem::new(&config),
            branch: (0..config.cores)
                .map(|_| BranchPredictor::new(config.branch_table))
                .collect(),
            viol_table: ViolationTable::new(config.hw_table_size, config.hw_reset_interval),
            predictor: ValuePredictor::new(config.predictor_entries, config.predictor_threshold),
            adapt: config.adapt.clone().map(AdaptController::new),
            chan_regs: vec![0; module.next_chan as usize],
            output: Vec::new(),
            region_blocks,
            result: SimResult::default(),
            steps: 0,
            region_ord: 0,
            forward_usefulness: vec![(0, 0); sids],
            oracle_loads: match &config.oracle_sel {
                OracleSel::None => vec![false; sids],
                OracleSel::AllLoads => vec![true; sids],
                OracleSel::Sids(set) => sid_table(sids, set),
            },
            stall_loads: sid_table(sids, config.stall_marked.iter().flatten()),
            marked_loads: sid_table(sids, &config.mark_compiler),
            spare_epochs: Vec::new(),
            oracle: None,
            code: Code::new(module),
            module,
            config,
        }
    }

    /// Like [`Machine::new`] with a value oracle for the perfect-prediction
    /// modes (`O`, `E`, Figure 6).
    pub fn with_oracle(module: &'m Module, config: SimConfig, oracle: &'m ValueOracle) -> Self {
        let mut m = Self::new(module, config);
        m.oracle = Some(oracle);
        m
    }

    #[inline]
    fn eval(&self, frame: &Frame, op: Operand) -> (i64, u64) {
        match op {
            Operand::Var(v) => (frame.regs[v.index()], frame.ready[v.index()]),
            Operand::Const(c) => (c, 0),
            Operand::Global(g) => (self.code.global_addrs[g.index()], 0),
        }
    }

    fn bin_latency(&self, op: BinOp) -> u64 {
        match op {
            BinOp::Mul => self.config.lat_mul,
            BinOp::Div | BinOp::Rem => self.config.lat_div,
            _ => self.config.lat_alu,
        }
    }

    /// Count one dynamic instruction of a thread whose clock reads `clock`
    /// against the step and cycle budgets.
    fn bump_steps(&mut self, clock: u64) -> Result<(), SimError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(SimError::StepLimit(self.config.max_steps));
        }
        if clock > self.config.max_cycles {
            return Err(SimError::CycleBudgetExceeded(self.config.max_cycles));
        }
        Ok(())
    }

    /// Run the program to completion.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run(self) -> Result<SimResult, SimError> {
        self.run_traced(&mut NullTracer)
    }

    /// Like [`Machine::run`], maintaining a [`MachineCounters`] bank that
    /// is surfaced in [`SimResult::counters`]: the bank is the run's
    /// tracer. Counting is observational only: timing, outputs and
    /// statistics are identical to [`Machine::run`].
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run_counted(self) -> Result<SimResult, SimError> {
        let mut bank = MachineCounters::default();
        let mut result = self.run_traced(&mut bank)?;
        result.counters = Some(Box::new(bank));
        Ok(result)
    }

    /// Like [`Machine::run`], streaming typed [`TraceEvent`]s to `tracer`.
    ///
    /// Tracing is statically dispatched and observational only: for any
    /// tracer the simulated timing, outputs and statistics are identical to
    /// [`Machine::run`], and with [`NullTracer`] every emission site is
    /// compiled out.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run_traced<T: Tracer>(mut self, tracer: &mut T) -> Result<SimResult, SimError> {
        let entry = self.module.func(self.module.entry);
        assert_eq!(
            entry.num_params, 0,
            "entry function must take no parameters"
        );
        let mut seq = Thread {
            frames: vec![Frame::new(self.module, self.module.entry, 0)],
            timer: CoreTimer::new(&self.config, 0),
            clock: 0,
            core: 0,
        };
        let mut seq_regions: Vec<SeqRegion> = Vec::new();
        let mut final_ret = 0i64;

        while !seq.frames.is_empty() {
            self.bump_steps(seq.clock)?;
            let epoch_id = || seq_regions.last().map_or(0, |r| r.iter as i64);
            match self.exec(&mut seq, epoch_id, tracer)? {
                Step::Next => {}
                Step::Output(v) => self.output.push(v),
                Step::Jump(to) | Step::Branch(to) => {
                    self.seq_transfer(to, &mut seq, &mut seq_regions, tracer)?;
                }
                Step::Return(v) => {
                    // Close the sequential region instances of the frame
                    // that returned.
                    while seq_regions
                        .last()
                        .is_some_and(|r| r.depth > seq.frames.len())
                    {
                        let r = seq_regions.pop().expect("nonempty");
                        self.close_seq_region(r, seq.clock);
                    }
                    final_ret = v;
                }
                Step::Mem(instr) => self.exec_seq_mem(instr, &mut seq, tracer),
            }
        }

        self.result.output = std::mem::take(&mut self.output);
        self.result.ret = final_ret;
        self.result.total_cycles = seq.clock;
        self.result.instructions = self.steps;
        let region_cycles: u64 = self.result.regions.values().map(|r| r.cycles).sum();
        self.result.sequential_cycles = seq.clock.saturating_sub(region_cycles);
        self.result.memory = std::mem::take(&mut self.mem);
        if let Some(plan) = &self.config.inject {
            self.result.faults = plan.summary();
        }
        Ok(self.result)
    }

    /// Execute the next instruction or terminator of `th`'s top frame, on
    /// either path. ALU instructions, calls, branches and returns complete
    /// here; what the paths do differently comes back as a [`Step`].
    /// `epoch_id` yields the value of `EpochId`; only that instruction
    /// calls it.
    // Inlined into both step loops: as a call per simulated instruction
    // it cost about a tenth of the simulator's throughput.
    #[inline(always)]
    fn exec<T: Tracer>(
        &mut self,
        th: &mut Thread,
        epoch_id: impl FnOnce() -> i64,
        tracer: &mut T,
    ) -> Result<Step<'m>, SimError> {
        let lat_alu = self.config.lat_alu;
        let depth = th.frames.len();
        let frame = th.frames.last_mut().expect("thread has frames");
        let cb = self.code.block_at(frame.func, frame.block);
        if frame.idx >= self.code.lens[cb] as usize {
            let term = self.code.terms[cb];
            if T::FINE {
                tracer.fine(Fine::Retire(OpClass::of_term(&term)));
            }
            return Ok(match term {
                Terminator::Jump(to) => Step::Jump(to),
                Terminator::Br { cond, t, f } => {
                    let (c, ready) = self.eval(frame, cond);
                    let (issue, complete) = th.timer.issue(ready, lat_alu);
                    th.clock = issue;
                    let key = (frame.func.0 as u64) << 32 | frame.block.0 as u64;
                    if !self.branch[th.core].update(key, c != 0) {
                        th.timer
                            .stall_until(complete + self.config.mispredict_penalty);
                    }
                    Step::Branch(if c != 0 { t } else { f })
                }
                Terminator::Ret(v) => {
                    let (rv, ready) = v.map_or((0, 0), |op| self.eval(frame, op));
                    let (issue, complete) = th.timer.issue(ready, lat_alu);
                    th.clock = issue;
                    let done = th.frames.pop().expect("nonempty");
                    if let (Some(caller), Some(dst)) = (th.frames.last_mut(), done.ret_to) {
                        caller.set(dst, rv, complete);
                    }
                    Step::Return(rv)
                }
            });
        }
        let instr = self.code.instrs[self.code.starts[cb] as usize + frame.idx];
        if T::FINE {
            tracer.fine(Fine::Retire(OpClass::of(instr)));
        }
        match instr {
            Instr::Assign { dst, src } => {
                let (v, r) = self.eval(frame, *src);
                let (issue, complete) = th.timer.issue(r, lat_alu);
                th.clock = issue;
                frame.set(*dst, v, complete);
            }
            Instr::Bin { dst, op, a, b } => {
                let (va, ra) = self.eval(frame, *a);
                let (vb, rb) = self.eval(frame, *b);
                let (issue, complete) = th.timer.issue(ra.max(rb), self.bin_latency(*op));
                th.clock = issue;
                frame.set(*dst, op.eval(va, vb), complete);
            }
            Instr::EpochId { dst } => {
                let (issue, complete) = th.timer.issue(0, lat_alu);
                th.clock = issue;
                frame.set(*dst, epoch_id(), complete);
            }
            Instr::Output { val } => {
                let (v, r) = self.eval(frame, *val);
                th.clock = th.timer.issue(r, lat_alu).0;
                frame.idx += 1;
                return Ok(Step::Output(v));
            }
            Instr::Call {
                dst, func, args, ..
            } => {
                if depth >= MAX_CALL_DEPTH {
                    return Err(SimError::CallDepth(MAX_CALL_DEPTH));
                }
                let (issue, complete) = th.timer.issue(0, lat_alu);
                th.clock = issue;
                let mut callee = Frame::new(self.module, *func, complete);
                for (i, arg) in args.iter().enumerate() {
                    let (v, r) = self.eval(frame, *arg);
                    callee.set(Var(i as u32), v, r.max(complete));
                }
                callee.ret_to = *dst;
                frame.idx += 1;
                th.frames.push(callee);
                return Ok(Step::Next);
            }
            _ => return Ok(Step::Mem(instr)),
        }
        frame.idx += 1;
        Ok(Step::Next)
    }

    /// Execute a memory or sync instruction on the sequential path, where
    /// nothing is speculative: loads and stores go to memory and channels
    /// are plain registers.
    fn exec_seq_mem<T: Tracer>(&mut self, instr: &Instr, seq: &mut Thread, tracer: &mut T) {
        let lat_alu = self.config.lat_alu;
        let frame = seq.frames.last_mut().expect("nonempty");
        frame.idx += 1;
        let (ready, latency, write) = match *instr {
            Instr::Load { dst, addr, off, .. } | Instr::SyncLoad { dst, addr, off, .. } => {
                let (a, r) = self.eval(frame, addr);
                let a = a.wrapping_add(off);
                let lat = self.caches.access(seq.core, a);
                if T::FINE {
                    tracer.fine(Fine::Access(self.caches.level_of(lat)));
                }
                (r, lat, Some((dst, self.mem.read(a))))
            }
            Instr::Store { val, addr, off, .. } => {
                let (a, ra) = self.eval(frame, addr);
                let (v, rv) = self.eval(frame, val);
                let a = a.wrapping_add(off);
                let lat = self.caches.access(seq.core, a);
                if T::FINE {
                    tracer.fine(Fine::Access(self.caches.level_of(lat)));
                }
                self.mem.write(a, v);
                (ra.max(rv), lat_alu, None)
            }
            Instr::WaitScalar { dst, chan } => {
                (0, lat_alu, Some((dst, self.chan_regs[chan.index()])))
            }
            Instr::SignalScalar { chan, val } => {
                let (v, r) = self.eval(frame, val);
                self.chan_regs[chan.index()] = v;
                (r, lat_alu, None)
            }
            Instr::SignalMem { .. } | Instr::SignalMemNull { .. } => (0, lat_alu, None),
            _ => unreachable!("`exec` executes ALU instructions and calls"),
        };
        let (issue, complete) = seq.timer.issue(ready, latency);
        seq.clock = issue;
        if let Some((dst, v)) = write {
            frame.set(dst, v, complete);
        }
    }

    fn close_seq_region(&mut self, r: SeqRegion, now: u64) {
        let stats = self.result.regions.entry(r.rid).or_default();
        let cycles = now.saturating_sub(r.start);
        stats.cycles += cycles;
        stats.instances += 1;
        stats.epochs += r.iter + 1;
        // One core busy: attribute its slots for completeness.
        stats.slots.other += cycles * self.config.issue_width * (self.config.cores as u64 - 1);
    }

    /// Sequential-mode control transfer; may enter a region (parallel mode)
    /// or maintain sequential-region bookkeeping.
    fn seq_transfer<T: Tracer>(
        &mut self,
        to: BlockId,
        seq: &mut Thread,
        seq_regions: &mut Vec<SeqRegion>,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let depth = seq.frames.len();
        let func = seq.frames.last().expect("nonempty").func;
        // Close sequential region instances whose blocks we leave.
        while seq_regions.last().is_some_and(|top| {
            top.depth == depth && !self.region_blocks[top.rid.index()][to.index()]
        }) {
            let r = seq_regions.pop().expect("nonempty");
            self.close_seq_region(r, seq.clock);
        }
        if let Some(rid) = self.code.region_at[self.code.block_at(func, to)] {
            if self.config.parallelize {
                return self.run_region(rid, to, seq, tracer);
            }
            // Sequential attribution.
            match seq_regions.last_mut() {
                Some(top) if top.depth == depth && top.rid == rid => top.iter += 1,
                _ => {
                    self.region_ord += 1;
                    seq_regions.push(SeqRegion {
                        rid,
                        depth,
                        start: seq.clock,
                        iter: 0,
                    });
                }
            }
        }
        let frame = seq.frames.last_mut().expect("nonempty");
        frame.block = to;
        frame.idx = 0;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Parallel mode
    // ------------------------------------------------------------------

    /// Mailboxes for every scalar channel and memory group of the module.
    fn empty_mailboxes(&self) -> SyncState {
        SyncState::new(
            self.module.next_chan as usize,
            self.module.next_group as usize,
        )
    }

    /// Epoch `index` on `core`, starting at `at` from the region header:
    /// a recycled epoch from the free list when there is one.
    fn spawn_epoch(
        &mut self,
        index: u64,
        core: usize,
        at: u64,
        base: &Frame,
        header: BlockId,
    ) -> Epoch {
        let mut e = self.spare_epochs.pop().unwrap_or_else(|| Epoch {
            index,
            thread: Thread {
                frames: vec![base.clone()],
                timer: CoreTimer::new(&self.config, at),
                clock: at,
                core,
            },
            status: Status::Running,
            wb: WriteBuffer::default(),
            reads: ReadSet::default(),
            sync: self.empty_mailboxes(),
            outputs: Vec::new(),
            predicted: Vec::new(),
            occ: vec![0; self.module.next_sid as usize],
            consumed: vec![false; self.module.next_group as usize],
            attempt_start: at,
            sync_cycles: 0,
            finish: None,
        });
        e.index = index;
        e.thread.core = core;
        e.sync.reset_high_water();
        Self::restart_epoch(&mut e, base, header, at);
        e
    }

    /// Reset `e` in place for a new attempt from the region header at `at`,
    /// keeping the storage of its frame, ROB and buffers. The signal-buffer
    /// high-water mark spans every attempt of an epoch, so only
    /// [`Machine::spawn_epoch`] clears it.
    fn restart_epoch(e: &mut Epoch, base: &Frame, header: BlockId, at: u64) {
        let th = &mut e.thread;
        th.frames.truncate(1);
        let frame = &mut th.frames[0];
        frame.func = base.func;
        frame.regs.clone_from(&base.regs);
        frame.ready.clear();
        frame.ready.resize(base.ready.len(), at);
        frame.block = header;
        frame.idx = 0;
        frame.ret_to = base.ret_to;
        th.timer.reset(at);
        th.clock = at;
        e.status = Status::Running;
        e.wb.clear();
        e.reads.clear();
        e.sync.clear();
        e.outputs.clear();
        e.predicted.clear();
        e.occ.fill(0);
        e.consumed.fill(false);
        e.attempt_start = at;
        e.sync_cycles = 0;
        e.finish = None;
    }

    /// Execute one region instance in parallel; on return, `seq`'s top frame
    /// has been advanced past the loop and its clock to the region's end.
    fn run_region<T: Tracer>(
        &mut self,
        rid: RegionId,
        header: BlockId,
        seq: &mut Thread,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let t0 = seq.clock;
        let ord = self.region_ord;
        self.region_ord += 1;
        if T::ENABLED {
            tracer.event(TraceEvent::RegionEnter { rid, ord, time: t0 });
        }
        let cores = self.config.cores;
        let w = self.config.issue_width;
        let mut run = RegionRun {
            rid,
            ord,
            header,
            base: seq.frames.last().expect("nonempty").clone(),
            committed_out: self.empty_mailboxes(),
            epochs: Vec::with_capacity(cores),
            pendings: Vec::new(),
            stats: RegionStats {
                instances: 1,
                ..RegionStats::default()
            },
            attributed: 0,
        };
        // Epoch 0 reads the region-entry values.
        for c in 0..self.module.next_chan {
            run.committed_out
                .send_scalar(tls_ir::ChanId(c), self.chan_regs[c as usize], t0);
        }
        for g in 0..self.module.next_group {
            run.committed_out.send_mem(GroupId(g), MemSignal::null(t0));
        }
        for k in 0..cores as u64 {
            let at = t0 + self.config.spawn_overhead * k;
            let e = self.spawn_epoch(k, (seq.core + k as usize) % cores, at, &run.base, header);
            run.epochs.push(e);
        }
        if T::ENABLED {
            for e in &run.epochs {
                tracer.event(TraceEvent::EpochSpawn {
                    rid,
                    ord,
                    epoch: e.index,
                    core: e.thread.core,
                    time: e.attempt_start,
                });
            }
        }
        let mut next_index = cores as u64;
        let mut token_time = t0;
        // Next cumulative slot-sample boundary (tracing only).
        let mut next_sample = if T::ENABLED && self.config.trace_interval > 0 {
            t0 + self.config.trace_interval
        } else {
            u64::MAX
        };

        let (exit_block, final_regs, end_time) = 'region: loop {
            // 1. Commit as many oldest-done epochs as possible.
            while run.epochs.first().is_some_and(|e| e.status == Status::Done) {
                let (exit, finish) = run.epochs[0].finish.expect("done epoch has finish");
                let start = finish.max(token_time);
                // Verify value predictions (mode P).
                let mispredict = run.epochs[0]
                    .predicted
                    .iter()
                    .find(|(_, addr, pred)| self.mem.read(*addr) != *pred)
                    .copied();
                if let Some((sid, addr, _)) = mispredict {
                    let actual = self.mem.read(addr);
                    self.predictor.mispredicted(sid, actual);
                    let victim = run.epochs[0].index;
                    self.squash(
                        &mut run,
                        SquashReq {
                            victim,
                            time: start,
                            load_sid: Some(sid),
                            store_sid: None,
                            addr: Some(addr),
                            producer: None,
                            kind: ViolationKind::Mispredict,
                        },
                        tracer,
                    );
                    continue;
                }
                let commit_done = start
                    + self.config.commit_overhead
                    + self.config.commit_per_line * run.epochs[0].wb.dirty_lines() as u64;
                let e = run.epochs.remove(0);
                if T::FINE {
                    tracer.fine(Fine::PredictionsVerified(e.predicted.len() as u64));
                }
                for (a, v) in e.wb.iter() {
                    let mut v = v;
                    if let Some(plan) = self.config.inject.as_mut() {
                        // Contract-breaking: flip the value as it drains to
                        // memory. Nothing downstream re-checks write-back
                        // equality — only the protocol model can.
                        if let Some(d) = plan.on_commit_write()? {
                            v = v.wrapping_add(d);
                            if T::ENABLED {
                                tracer.event(TraceEvent::FaultInject {
                                    class: FaultClass::CorruptCommitWrite,
                                    epoch: Some(e.index),
                                    addr: Some(a),
                                    time: commit_done,
                                });
                            }
                        }
                    }
                    if T::ENABLED {
                        tracer.event(TraceEvent::CommitWrite {
                            rid,
                            ord,
                            epoch: e.index,
                            addr: a,
                            value: v,
                            time: commit_done,
                        });
                    }
                    self.mem.write(a, v);
                    self.caches.install(e.thread.core, a);
                    self.caches.invalidate_others(e.thread.core, a);
                }
                for (chan, v) in e.sync.sent_scalars() {
                    self.chan_regs[chan.index()] = v;
                }
                run.committed_out.absorb(&e.sync);
                self.output.extend(e.outputs.iter().copied());
                self.result.max_signal_buffer = self
                    .result
                    .max_signal_buffer
                    .max(e.sync.sig_buf_high_water());
                // Attempt accounting.
                let cycles = commit_done.saturating_sub(e.attempt_start);
                let slots = cycles * w;
                let busy = e.thread.timer.graduated().min(slots);
                let sync = (e.sync_cycles * w).min(slots - busy);
                run.stats.slots.add(&SlotBreakdown {
                    busy,
                    fail: 0,
                    sync,
                    other: slots - busy - sync,
                });
                run.attributed += slots;
                run.stats.epochs += 1;
                run.stats.epoch_cycles.record(cycles);
                token_time = commit_done;
                if T::ENABLED {
                    tracer.event(TraceEvent::EpochCommit {
                        rid,
                        ord,
                        epoch: e.index,
                        core: e.thread.core,
                        start: e.attempt_start,
                        end: commit_done,
                        graduated: e.thread.timer.graduated(),
                        sync_cycles: e.sync_cycles,
                    });
                    while commit_done >= next_sample {
                        tracer.event(TraceEvent::SlotSample {
                            rid,
                            ord,
                            time: next_sample,
                            slots: run.stats.slots,
                        });
                        next_sample += self.config.trace_interval;
                    }
                }
                // Wake the new oldest epoch if it was stalling till oldest.
                if let Some(head) = run.epochs.first_mut() {
                    if let Status::Wait(WaitKind::Oldest, _) = head.status {
                        Self::end_wait(tracer, rid, ord, head, commit_done);
                    }
                }
                // Fire pending violations produced by this commit.
                let fired: Vec<Pending> = run
                    .pendings
                    .iter()
                    .copied()
                    .filter(|p| p.producer == e.index)
                    .collect();
                run.pendings.retain(|p| p.producer != e.index);
                if let Some(v) = fired
                    .iter()
                    .filter(|p| run.epochs.iter().any(|x| x.index == p.consumer))
                    .min_by_key(|p| p.consumer)
                {
                    self.squash(
                        &mut run,
                        SquashReq {
                            victim: v.consumer,
                            time: commit_done,
                            load_sid: Some(v.sid),
                            store_sid: v.store_sid,
                            addr: Some(v.addr),
                            producer: Some(v.producer),
                            kind: ViolationKind::CommitTime,
                        },
                        tracer,
                    );
                }
                if let Some(exit_block) = exit {
                    // Region ends: cancel remaining speculative epochs.
                    for cancelled in &mut run.epochs {
                        let cycles = commit_done.saturating_sub(cancelled.attempt_start);
                        run.stats.slots.fail += cycles * w;
                        run.attributed += cycles * w;
                        let end = commit_done.max(cancelled.attempt_start);
                        Self::end_wait(tracer, rid, ord, cancelled, end);
                        if T::ENABLED {
                            tracer.event(TraceEvent::EpochCancel {
                                rid,
                                ord,
                                epoch: cancelled.index,
                                core: cancelled.thread.core,
                                start: cancelled.attempt_start,
                                end,
                            });
                        }
                    }
                    let final_regs = e.thread.frames[0].regs.clone();
                    self.spare_epochs.push(e);
                    self.spare_epochs.append(&mut run.epochs);
                    break 'region (exit_block, final_regs, commit_done);
                }
                // Freed core picks up the next epoch.
                let spawn_at = commit_done + self.config.spawn_overhead;
                let core = e.thread.core;
                self.spare_epochs.push(e);
                let ep = self.spawn_epoch(next_index, core, spawn_at, &run.base, header);
                if T::ENABLED {
                    tracer.event(TraceEvent::EpochSpawn {
                        rid,
                        ord,
                        epoch: ep.index,
                        core: ep.thread.core,
                        time: spawn_at,
                    });
                }
                run.epochs.push(ep);
                next_index += 1;
            }

            // 2. Wake epochs whose signals have arrived.
            for i in 0..run.epochs.len() {
                let (older, cur) = run.epochs.split_at_mut(i);
                let pred_out = older.last().map_or(&run.committed_out, |p| &p.sync);
                let e = &mut cur[0];
                let arrived = match e.status {
                    Status::Wait(WaitKind::Scalar(chan), _) => pred_out.scalar(chan).map(|s| s.1),
                    Status::Wait(WaitKind::Mem(group), _) => {
                        pred_out.mem(group).map(|s| s.ready_at)
                    }
                    _ => None,
                };
                if let Some(at) = arrived {
                    Self::end_wait(tracer, rid, ord, e, at);
                }
            }

            // 3. Step the runnable epoch with the smallest clock.
            let Some(i) = run
                .epochs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.status == Status::Running)
                .min_by_key(|(_, e)| (e.thread.clock, e.index))
                .map(|(i, _)| i)
            else {
                if run.epochs.first().is_some_and(|e| e.status == Status::Done) {
                    continue; // commit loop will handle it
                }
                return Err(SimError::Deadlock { time: t0 });
            };
            self.bump_steps(run.epochs[i].thread.clock)?;
            if let Some(req) = self.step_epoch(&mut run, i, tracer)? {
                self.squash(&mut run, req, tracer);
            }
        };

        if T::ENABLED {
            tracer.event(TraceEvent::RegionExit {
                rid,
                ord,
                time: end_time,
            });
        }
        let RegionRun {
            mut stats,
            attributed,
            ..
        } = run;
        stats.cycles += end_time.saturating_sub(t0);
        let total_slots = (cores as u64) * w * end_time.saturating_sub(t0);
        stats.slots.other += total_slots.saturating_sub(attributed);
        let agg = self.result.regions.entry(rid).or_default();
        agg.cycles += stats.cycles;
        agg.slots.add(&stats.slots);
        agg.instances += stats.instances;
        agg.epochs += stats.epochs;
        agg.violations += stats.violations;
        for (k, v) in stats.violation_classes {
            *agg.violation_classes.entry(k).or_insert(0) += v;
        }
        for (k, v) in stats.violations_by_load {
            *agg.violations_by_load.entry(k).or_insert(0) += v;
        }
        agg.epoch_cycles.merge(&stats.epoch_cycles);
        self.result.total_violations += stats.violations;

        // Resume sequential execution.
        seq.clock = end_time;
        seq.timer.flush(end_time);
        let frame = seq.frames.last_mut().expect("nonempty");
        frame.regs = final_regs;
        frame.ready.fill(end_time);
        frame.block = exit_block;
        frame.idx = 0;
        Ok(())
    }

    /// Block `e` on `kind` from its current clock. The waiting instruction
    /// re-executes once [`Machine::end_wait`] wakes the epoch.
    fn begin_wait<T: Tracer>(
        tracer: &mut T,
        rid: RegionId,
        ord: u64,
        e: &mut Epoch,
        kind: WaitKind,
    ) {
        e.status = Status::Wait(kind, e.thread.clock);
        if T::ENABLED {
            tracer.event(TraceEvent::WaitBegin {
                rid,
                ord,
                epoch: e.index,
                core: e.thread.core,
                kind,
                time: e.thread.clock,
            });
        }
    }

    /// End `e`'s wait, if it has one, at `at` or when it began if that is
    /// later; the cycles waited count as synchronization. A squash or cancel
    /// that ends an attempt mid-wait closes the wait the same way.
    fn end_wait<T: Tracer>(tracer: &mut T, rid: RegionId, ord: u64, e: &mut Epoch, at: u64) {
        let Status::Wait(kind, since) = e.status else {
            return;
        };
        e.status = Status::Running;
        e.thread.clock = since.max(at);
        e.sync_cycles += e.thread.clock - since;
        e.thread.timer.stall_until(e.thread.clock);
        if T::ENABLED {
            tracer.event(TraceEvent::WaitEnd {
                rid,
                ord,
                epoch: e.index,
                core: e.thread.core,
                kind,
                since,
                time: e.thread.clock,
            });
        }
    }

    /// Emit the trace events for one adaptive controller consultation
    /// (policy switch and/or re-profile). The controller itself never sees
    /// the tracer: every emission stays co-located with the machine state
    /// change, like all other sites.
    #[allow(clippy::too_many_arguments)]
    fn emit_adapt<T: Tracer>(
        tracer: &mut T,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        core: usize,
        sid: Sid,
        out: &AdaptOutcome,
        time: u64,
    ) {
        if !T::ENABLED {
            return;
        }
        if out.reprofiled {
            tracer.event(TraceEvent::Reprofile { rid, ord, time });
        }
        if let Some((from, to)) = out.transition {
            tracer.event(TraceEvent::PolicyTransition {
                rid,
                ord,
                epoch,
                core,
                sid,
                from,
                to,
                time,
            });
        }
    }

    /// Squash `req.victim` and every later active epoch; restart them.
    fn squash<T: Tracer>(&mut self, run: &mut RegionRun, req: SquashReq, tracer: &mut T) {
        let (rid, ord) = (run.rid, run.ord);
        let w = self.config.issue_width;
        let victim_core = run
            .epochs
            .iter()
            .find(|e| e.index == req.victim)
            .map_or(0, |e| e.thread.core);
        if T::ENABLED {
            tracer.event(TraceEvent::Violation {
                rid,
                ord,
                kind: req.kind,
                load_sid: req.load_sid,
                store_sid: req.store_sid,
                addr: req.addr,
                producer: req.producer,
                consumer: req.victim,
                core: victim_core,
                time: req.time,
            });
        }
        if let Some(sid) = req.load_sid {
            let class = match (self.marked_loads[sid.index()], self.viol_table.probe(sid)) {
                (false, false) => ViolationClass::Neither,
                (true, false) => ViolationClass::CompilerOnly,
                (false, true) => ViolationClass::HardwareOnly,
                (true, true) => ViolationClass::Both,
            };
            *run.stats.violation_classes.entry(class).or_insert(0) += 1;
            *run.stats.violations_by_load.entry(sid).or_insert(0) += 1;
            self.viol_table.record_violation(sid, req.time);
            if let Some(ctl) = self.adapt.as_mut() {
                // The controller observes every violation attributed to a
                // load; an escalation here is what arms STALL/PREDICT for
                // the restarted attempt.
                let out = ctl.record_violation(sid, req.kind, req.time);
                Self::emit_adapt(
                    tracer,
                    rid,
                    ord,
                    req.victim,
                    victim_core,
                    sid,
                    &out,
                    req.time,
                );
            }
        }
        for e in run.epochs.iter_mut().filter(|e| e.index >= req.victim) {
            let now = req.time.max(e.attempt_start);
            let cycles = now - e.attempt_start;
            run.stats.slots.fail += cycles * w;
            run.attributed += cycles * w;
            run.stats.violations += 1;
            let restart = req.time.max(e.thread.clock) + self.config.restart_penalty;
            Self::end_wait(tracer, rid, ord, e, now);
            if T::ENABLED {
                tracer.event(TraceEvent::EpochSquash {
                    rid,
                    ord,
                    epoch: e.index,
                    core: e.thread.core,
                    start: e.attempt_start,
                    end: now,
                    restart,
                    load_sid: req.load_sid,
                    store_sid: req.store_sid,
                });
            }
            Self::restart_epoch(e, &run.base, run.header, restart);
        }
        run.pendings
            .retain(|p| p.producer < req.victim && p.consumer < req.victim);
    }

    /// Execute one instruction (or terminator) of epoch `i`; returns a
    /// squash request if the step violated a later epoch.
    fn step_epoch<T: Tracer>(
        &mut self,
        run: &mut RegionRun,
        i: usize,
        tracer: &mut T,
    ) -> Result<Option<SquashReq>, SimError> {
        let (rid, ord) = (run.rid, run.ord);
        let (older, rest) = run.epochs.split_at_mut(i);
        let (cur, younger) = rest.split_at_mut(1);
        let e = &mut cur[0];
        let index = e.index as i64;
        let step = self.exec(&mut e.thread, || index, tracer)?;
        let instr = match step {
            Step::Mem(instr) => instr,
            Step::Next => return Ok(None),
            Step::Output(v) => {
                e.outputs.push(v);
                return Ok(None);
            }
            Step::Jump(to) | Step::Branch(to) => {
                if let Step::Jump(_) = step {
                    // Inside an epoch a jump takes an issue slot; on the
                    // sequential path it is free (DESIGN.md §4).
                    e.thread.clock = e.thread.timer.issue(0, self.config.lat_alu).0;
                }
                Self::epoch_transfer(e, to, run.header, &self.region_blocks[rid.index()]);
                return Ok(None);
            }
            Step::Return(_) if e.thread.frames.is_empty() => {
                let name = self.module.func(run.base.func).name.clone();
                return Err(SimError::RetInRegion(name));
            }
            Step::Return(_) => return Ok(None),
        };
        let is_oldest = older.is_empty();
        let pred_out = older.last().map_or(&run.committed_out, |p| &p.sync);
        let lat_alu = self.config.lat_alu;
        let frame = e.thread.frames.last_mut().expect("epoch has frames");
        match instr {
            Instr::WaitScalar { dst, chan } => match pred_out.scalar(*chan) {
                None => Self::begin_wait(tracer, rid, ord, e, WaitKind::Scalar(*chan)),
                Some((v, ready)) => {
                    let issue = e.thread.issue_write(*dst, v, ready, lat_alu);
                    if T::ENABLED {
                        tracer.event(TraceEvent::SignalRecv {
                            rid,
                            ord,
                            epoch: e.index,
                            core: e.thread.core,
                            kind: SignalKind::Scalar(*chan),
                            addr: None,
                            value: v,
                            time: issue,
                        });
                    }
                }
            },
            Instr::SignalScalar { chan, val } => {
                let (v, r) = self.eval(frame, *val);
                let (issue, _) = e.thread.timer.issue(r, lat_alu);
                e.thread.clock = issue;
                let mut ready_at = issue + self.config.forward_lat;
                if let Some(plan) = self.config.inject.as_mut() {
                    // Scalar sync is non-speculative (no recovery net), so
                    // extra latency is the only survivable perturbation.
                    if let Some(d) = plan.on_scalar_signal()? {
                        ready_at += d;
                        if T::ENABLED {
                            tracer.event(TraceEvent::FaultInject {
                                class: FaultClass::DelaySignal,
                                epoch: Some(e.index),
                                addr: None,
                                time: issue,
                            });
                        }
                    }
                }
                e.sync.send_scalar(*chan, v, ready_at);
                frame.idx += 1;
                if T::ENABLED {
                    tracer.event(TraceEvent::SignalSend {
                        rid,
                        ord,
                        epoch: e.index,
                        core: e.thread.core,
                        kind: SignalKind::Scalar(*chan),
                        addr: None,
                        value: v,
                        time: issue,
                    });
                }
            }
            Instr::SignalMem {
                group,
                addr,
                off,
                val,
                ..
            } => {
                let (a, ra) = self.eval(frame, *addr);
                let (v, rv) = self.eval(frame, *val);
                let a = a.wrapping_add(*off);
                let (issue, _) = e.thread.timer.issue(ra.max(rv), lat_alu);
                e.thread.clock = issue;
                let ready_at = issue + self.config.forward_lat;
                let mut wire = MemSignal {
                    addr: Some(a),
                    value: v,
                    ready_at,
                };
                let mut duplicate = false;
                if let Some(plan) = self.config.inject.as_mut() {
                    if let Some(fault) = plan.on_mem_signal()? {
                        let class = match fault {
                            SignalFault::Corrupt { value_delta } => {
                                // Address and value garbled together: the
                                // consumer's §2.2 re-check is guaranteed to
                                // see the mismatch and fall back.
                                wire.addr = Some(a ^ CORRUPT_ADDR_XOR);
                                wire.value = v.wrapping_add(value_delta);
                                FaultClass::CorruptSignal
                            }
                            SignalFault::Drop => {
                                wire = MemSignal::null(ready_at);
                                FaultClass::DropSignal
                            }
                            SignalFault::Delay(d) => {
                                wire.ready_at = ready_at + d;
                                FaultClass::DelaySignal
                            }
                            SignalFault::Duplicate(d) => {
                                wire.ready_at = ready_at + d;
                                duplicate = true;
                                FaultClass::DuplicateSignal
                            }
                        };
                        if T::ENABLED {
                            tracer.event(TraceEvent::FaultInject {
                                class,
                                epoch: Some(e.index),
                                addr: Some(a),
                                time: issue,
                            });
                        }
                    }
                }
                e.sync.send_mem(*group, wire);
                // The producer believes it forwarded the real address: the
                // signal-address buffer keeps tracking `a` so later stores
                // still re-signal (faults live on the wire, not here).
                e.sync.push_sig_buf(*group, a);
                if duplicate {
                    e.sync.push_sig_buf(*group, a);
                }
                frame.idx += 1;
                if T::ENABLED {
                    tracer.event(TraceEvent::SignalSend {
                        rid,
                        ord,
                        epoch: e.index,
                        core: e.thread.core,
                        kind: SignalKind::Mem(*group),
                        addr: wire.addr,
                        value: wire.value,
                        time: issue,
                    });
                }
            }
            Instr::SignalMemNull { group } => {
                let (issue, _) = e.thread.timer.issue(0, lat_alu);
                e.thread.clock = issue;
                let sig = if self.config.relay_forwarding {
                    pred_out.mem(*group)
                } else {
                    None
                };
                match sig {
                    Some(relayed) if relayed.addr.is_some() => {
                        let a = relayed.addr.expect("checked");
                        // Relay only if this epoch has not overwritten it.
                        if e.wb.wrote_word(a) {
                            e.sync.send_mem(
                                *group,
                                MemSignal {
                                    addr: Some(a),
                                    value: e.wb.load(a).expect("wrote_word"),
                                    ready_at: issue + self.config.forward_lat,
                                },
                            );
                        } else {
                            e.sync.send_mem(
                                *group,
                                MemSignal {
                                    ready_at: issue + self.config.forward_lat,
                                    ..relayed
                                },
                            );
                        }
                        e.sync.push_sig_buf(*group, a);
                    }
                    _ => {
                        e.sync
                            .send_mem(*group, MemSignal::null(issue + self.config.forward_lat));
                    }
                }
                if T::ENABLED {
                    let sent = e.sync.mem(*group).expect("just sent");
                    tracer.event(TraceEvent::SignalSend {
                        rid,
                        ord,
                        epoch: e.index,
                        core: e.thread.core,
                        kind: SignalKind::MemNull(*group),
                        addr: sent.addr,
                        value: sent.value,
                        time: issue,
                    });
                }
                frame.idx += 1;
            }
            Instr::Store {
                val,
                addr,
                off,
                sid,
            } => {
                let (a, ra) = self.eval(frame, *addr);
                let (v, rv) = self.eval(frame, *val);
                let a = a.wrapping_add(*off);
                let (issue, _) = e.thread.timer.issue(ra.max(rv), lat_alu);
                e.thread.clock = issue;
                e.wb.store(a, v, *sid);
                if T::FINE {
                    tracer.fine(Fine::WbOccupancy {
                        words: e.wb.len(),
                        lines: e.wb.dirty_lines(),
                    });
                }
                if T::ENABLED {
                    tracer.event(TraceEvent::SpecStore {
                        rid,
                        ord,
                        epoch: e.index,
                        core: e.thread.core,
                        sid: *sid,
                        addr: a,
                        value: v,
                        time: issue,
                    });
                }
                frame.idx += 1;
                // Signal-address-buffer check: re-signal and violate the
                // consumer (§2.2 "p, q and y all point to the same
                // location").
                let mut victim: Option<(u64, Option<Sid>, ViolationKind)> = None;
                for g in e.sync.buffered_groups_at(a) {
                    // Re-signal the updated value; restart the consumer only
                    // if it already used the stale one (§2.2).
                    e.sync.send_mem(
                        g,
                        MemSignal {
                            addr: Some(a),
                            value: v,
                            ready_at: issue + self.config.forward_lat,
                        },
                    );
                    if T::ENABLED {
                        tracer.event(TraceEvent::SignalSend {
                            rid,
                            ord,
                            epoch: e.index,
                            core: e.thread.core,
                            kind: SignalKind::Mem(g),
                            addr: Some(a),
                            value: v,
                            time: issue,
                        });
                    }
                    if let Some(succ) = younger.first() {
                        if succ.consumed[g.index()] {
                            victim = Some((succ.index, Some(*sid), ViolationKind::Resignal));
                        }
                    }
                }
                // Eager dependence check against later epochs' read sets.
                let line = line_of(a);
                for y in younger.iter() {
                    let conflict = if self.config.word_grain {
                        y.reads.read_word(a)
                    } else {
                        y.reads.line_reader(line).is_some()
                    };
                    if conflict {
                        let lsid = y.reads.line_reader(line);
                        if victim.is_none_or(|(v0, _, _)| y.index < v0) {
                            victim = Some((y.index, lsid, ViolationKind::Eager));
                        }
                        // `younger` ascends by index, so the first conflict is
                        // the oldest victim; the squash cascades to the rest.
                        break;
                    }
                }
                if let Some((v0, lsid, kind)) = victim {
                    if kind == ViolationKind::Eager {
                        if let Some(plan) = self.config.inject.as_mut() {
                            if let Some(fault) = plan.on_eager_violation()? {
                                let class = match fault {
                                    EagerFault::Defer => FaultClass::DeferEager,
                                    EagerFault::Suppress => FaultClass::SuppressViolation,
                                };
                                if T::ENABLED {
                                    tracer.event(TraceEvent::FaultInject {
                                        class,
                                        epoch: Some(v0),
                                        addr: Some(a),
                                        time: issue,
                                    });
                                }
                                match (fault, lsid) {
                                    // Maskable deferral: the commit-time
                                    // pending check squashes the consumer
                                    // when this epoch commits, later.
                                    (EagerFault::Defer, Some(lsid)) => {
                                        run.pendings.push(Pending {
                                            producer: e.index,
                                            consumer: v0,
                                            sid: lsid,
                                            store_sid: Some(*sid),
                                            addr: a,
                                        });
                                        return Ok(None);
                                    }
                                    // No load sid to hang a pending on:
                                    // deferral degenerates to the normal
                                    // eager squash (still maskable).
                                    (EagerFault::Defer, None) => {}
                                    // Contract-breaking: swallow it.
                                    (EagerFault::Suppress, _) => return Ok(None),
                                }
                            }
                        }
                    }
                    // The squash request names the load of the edge (`lsid`,
                    // for resignal victims the store's sid stands in since
                    // the consumed forward has no plain-load sid) and this
                    // store as the producer side.
                    return Ok(Some(SquashReq {
                        victim: v0,
                        time: issue,
                        load_sid: lsid,
                        store_sid: Some(*sid),
                        addr: Some(a),
                        producer: Some(e.index),
                        kind,
                    }));
                }
            }
            Instr::Load {
                dst,
                addr,
                off,
                sid,
            } => {
                let (a, r) = self.eval(frame, *addr);
                let ld = LoadOp {
                    dst: *dst,
                    sid: *sid,
                    addr: a.wrapping_add(*off),
                    ready: r,
                    sync: false,
                };
                let occ = e.occ[sid.index()];
                'issued: {
                    // Perfect prediction (modes O and Figure 6)?
                    let oracle_hit = match self.oracle {
                        Some(o) if self.oracle_loads[sid.index()] => o.value(
                            OracleKey {
                                region_ord: ord,
                                epoch: e.index,
                                sid: *sid,
                            },
                            occ as usize,
                        ),
                        _ => None,
                    };
                    if let Some(v) = oracle_hit {
                        let lat = self.caches.access(e.thread.core, ld.addr);
                        if T::FINE {
                            tracer.fine(Fine::Access(self.caches.level_of(lat)));
                        }
                        e.thread.issue_write(ld.dst, v, r, lat);
                        break 'issued;
                    }
                    // Hardware-inserted synchronization / Figure 11 marking:
                    // stall a flagged load until this epoch is the oldest.
                    let hw_flagged =
                        self.config.hw_sync && self.viol_table.contains(*sid, e.thread.clock);
                    if !is_oldest && (hw_flagged || self.stall_loads[sid.index()]) {
                        Self::begin_wait(tracer, rid, ord, e, WaitKind::Oldest);
                        break 'issued;
                    }
                    // Hardware value prediction (mode P) for flagged loads. A
                    // load whose word this epoch already wrote must read its
                    // own buffer — prediction only replaces values that would
                    // come from (possibly stale) memory.
                    if self.config.hw_predict
                        && !is_oldest
                        && !e.wb.wrote_word(ld.addr)
                        && self.viol_table.contains(*sid, e.thread.clock)
                    {
                        let mut pred_opt = self.predictor.predict(*sid);
                        if let Some(plan) = self.config.inject.as_mut() {
                            if plan.wants(FaultClass::CorruptPrediction) {
                                // Perturb the prediction (forcing one from a
                                // below-threshold table entry if none was
                                // confident). Maskable: commit-time
                                // verification re-reads memory and squashes
                                // on mismatch.
                                if let Some(base) = pred_opt.or_else(|| self.predictor.peek(*sid)) {
                                    if let Some(d) = plan.on_prediction()? {
                                        pred_opt = Some(base.wrapping_add(d));
                                        if T::ENABLED {
                                            tracer.event(TraceEvent::FaultInject {
                                                class: FaultClass::CorruptPrediction,
                                                epoch: Some(e.index),
                                                addr: Some(ld.addr),
                                                time: e.thread.clock,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        if let Some(pred) = pred_opt {
                            self.use_prediction(tracer, rid, ord, e, ld, pred, true);
                            break 'issued;
                        }
                    }
                    if !self.adapt_load(tracer, rid, ord, e, ld, is_oldest) {
                        self.plain_load(tracer, rid, ord, e, older, &mut run.pendings, ld)?;
                    }
                }
                // A load that waits re-executes on wake; it counts once it
                // issues.
                if e.status == Status::Running {
                    e.occ[sid.index()] = occ + 1;
                }
            }
            Instr::SyncLoad {
                dst,
                addr,
                off,
                group,
                sid,
            } => {
                let (a, r) = self.eval(frame, *addr);
                let ld = LoadOp {
                    dst: *dst,
                    sid: *sid,
                    addr: a.wrapping_add(*off),
                    ready: r,
                    sync: true,
                };
                match self.config.sync_load_policy {
                    SyncLoadPolicy::Oracle => {
                        let occ = &mut e.occ[sid.index()];
                        let key = OracleKey {
                            region_ord: ord,
                            epoch: e.index,
                            sid: *sid,
                        };
                        match self.oracle.and_then(|o| o.value(key, *occ as usize)) {
                            Some(v) => {
                                *occ += 1;
                                e.thread.issue_write(ld.dst, v, r, lat_alu);
                            }
                            None => {
                                self.plain_load(tracer, rid, ord, e, older, &mut run.pendings, ld)?
                            }
                        }
                    }
                    SyncLoadPolicy::StallTillOldest if !is_oldest => {
                        Self::begin_wait(tracer, rid, ord, e, WaitKind::Oldest);
                    }
                    SyncLoadPolicy::StallTillOldest => {
                        self.plain_load(tracer, rid, ord, e, older, &mut run.pendings, ld)?;
                    }
                    SyncLoadPolicy::Forward => {
                        // Adaptive override (modes A/A-T): a compiler-
                        // synchronized load normally honors its signal
                        // (FORWARD), but the controller may decide the
                        // dependence is better served by the hardware
                        // stall or by last-value prediction — e.g. when a
                        // phase shift made the profiled placement wrong.
                        if self.adapt_load(tracer, rid, ord, e, ld, is_oldest) {
                            return Ok(None);
                        }
                        // Hybrid enhancement (iii): hardware tracks whether
                        // this load's forwarded value is actually usable.
                        // Useful → trust the compiler (no hardware stall);
                        // useless → stop waiting and hand the load to plain
                        // speculation + hardware synchronization.
                        let filtered_out = if self.config.hybrid_filter {
                            let (tries, uses) = self.forward_usefulness[sid.index()];
                            tries >= 16 && uses * 4 < tries
                        } else {
                            false
                        };
                        // Plain-hybrid mode: hardware may stall a synchronized
                        // load that keeps causing violations (its forwarded
                        // address rarely matches) until this epoch is the
                        // oldest. With the filter on, useful loads are exempt.
                        if !is_oldest
                            && self.config.hw_sync
                            && (!self.config.hybrid_filter || filtered_out)
                            && self.viol_table.contains(*sid, e.thread.clock)
                        {
                            Self::begin_wait(tracer, rid, ord, e, WaitKind::Oldest);
                            return Ok(None);
                        }
                        if filtered_out {
                            self.plain_load(tracer, rid, ord, e, older, &mut run.pendings, ld)?;
                            return Ok(None);
                        }
                        let Some(sig) = pred_out.mem(*group) else {
                            Self::begin_wait(tracer, rid, ord, e, WaitKind::Mem(*group));
                            return Ok(None);
                        };
                        // `use_forwarded_value` (§2.2): the forwarded value
                        // stands in for the load when the signal carries its
                        // address and this epoch has not overwritten the word.
                        let useful = sig.addr == Some(ld.addr) && !e.wb.wrote_word(ld.addr);
                        let usage = &mut self.forward_usefulness[sid.index()];
                        usage.0 += 1;
                        usage.1 += u32::from(useful);
                        let ready = r.max(sig.ready_at);
                        // With the test-only fault injection the value is
                        // consumed even on a mismatch, which the
                        // differential fuzzer must catch.
                        let broken = self.config.break_forwarded_recovery
                            && sig.addr.is_some()
                            && !e.wb.wrote_word(ld.addr);
                        if !(useful || broken) {
                            // Own write, NULL or mismatched address: an
                            // ordinary speculative load.
                            let ld = LoadOp { ready, ..ld };
                            self.plain_load(tracer, rid, ord, e, older, &mut run.pendings, ld)?;
                            return Ok(None);
                        }
                        // Exempt from violation tracking.
                        let (issue, complete) = e.thread.timer.issue(ready, lat_alu);
                        e.thread.clock = issue;
                        e.consumed[group.index()] = true;
                        let mut used = sig.value;
                        if let Some(plan) = self.config.inject.as_mut() {
                            // Contract-breaking: corrupt the value at the
                            // consume site, address intact. §2.2 only
                            // re-checks addresses, so no machinery below can
                            // catch this.
                            if let Some(d) = plan.on_signal_recv()? {
                                used = used.wrapping_add(d);
                                if T::ENABLED {
                                    tracer.event(TraceEvent::FaultInject {
                                        class: FaultClass::CorruptSignalValue,
                                        epoch: Some(e.index),
                                        addr: Some(ld.addr),
                                        time: issue,
                                    });
                                }
                            }
                        }
                        let frame = e.thread.frames.last_mut().expect("epoch has frames");
                        frame.set(ld.dst, used, complete);
                        frame.idx += 1;
                        if T::ENABLED {
                            tracer.event(TraceEvent::SignalRecv {
                                rid,
                                ord,
                                epoch: e.index,
                                core: e.thread.core,
                                kind: SignalKind::Mem(*group),
                                addr: sig.addr,
                                value: used,
                                time: issue,
                            });
                        }
                    }
                }
            }
            _ => unreachable!("`exec` executes ALU instructions and calls"),
        }
        Ok(None)
    }

    /// Let the adaptive controller (modes A/A-T/A-U) choose how load `ld` of
    /// a speculative epoch synchronizes: STALL waits until the epoch is the
    /// oldest, PREDICT uses a confident last-value prediction. Returns
    /// whether it handled the load; FORWARD, no controller, or the oldest
    /// epoch leave it to the caller.
    fn adapt_load<T: Tracer>(
        &mut self,
        tracer: &mut T,
        rid: RegionId,
        ord: u64,
        e: &mut Epoch,
        ld: LoadOp,
        is_oldest: bool,
    ) -> bool {
        if is_oldest || self.adapt.is_none() {
            return false;
        }
        // The predictor is consulted before the controller is borrowed
        // mutably; the fields are disjoint.
        let confident = self.predictor.predict(ld.sid).is_some();
        let ctl = self.adapt.as_mut().expect("checked above");
        let out = ctl.decide(ld.sid, e.thread.clock, confident);
        Self::emit_adapt(
            tracer,
            rid,
            ord,
            e.index,
            e.thread.core,
            ld.sid,
            &out,
            e.thread.clock,
        );
        match out.policy {
            Policy::Stall => {
                Self::begin_wait(tracer, rid, ord, e, WaitKind::Oldest);
                true
            }
            Policy::Predict if !e.wb.wrote_word(ld.addr) => match self.predictor.predict(ld.sid) {
                Some(pred) => {
                    // Test-only mutation: skip the verification entry so a
                    // wrong prediction commits silently — only the model
                    // can object.
                    let verify = !self.config.break_adaptive_forwarding;
                    self.use_prediction(tracer, rid, ord, e, ld, pred, verify);
                    true
                }
                None => false,
            },
            Policy::Forward | Policy::Predict => false,
        }
    }

    /// Use the predicted value `pred` for load `ld` (modes P and A). With
    /// `verify`, the commit re-reads memory and squashes on a mismatch.
    #[allow(clippy::too_many_arguments)]
    fn use_prediction<T: Tracer>(
        &self,
        tracer: &mut T,
        rid: RegionId,
        ord: u64,
        e: &mut Epoch,
        ld: LoadOp,
        pred: i64,
        verify: bool,
    ) {
        let issue = e
            .thread
            .issue_write(ld.dst, pred, ld.ready, self.config.lat_alu);
        if verify {
            e.predicted.push((ld.sid, ld.addr, pred));
        }
        if T::ENABLED {
            tracer.event(TraceEvent::PredictedLoad {
                rid,
                ord,
                epoch: e.index,
                core: e.thread.core,
                sid: ld.sid,
                addr: ld.addr,
                value: pred,
                time: issue,
            });
        }
    }

    /// The shared "ordinary speculative load" path: own write buffer, else
    /// committed memory with read-set tracking and pending-violation
    /// registration.
    #[allow(clippy::too_many_arguments)]
    fn plain_load<T: Tracer>(
        &mut self,
        tracer: &mut T,
        rid: RegionId,
        ord: u64,
        e: &mut Epoch,
        older: &[Epoch],
        pendings: &mut Vec<Pending>,
        ld: LoadOp,
    ) -> Result<(), SimError> {
        let LoadOp {
            dst,
            sid,
            addr: a,
            ready,
            sync,
        } = ld;
        if let Some(v) = e.wb.load(a) {
            let issue = e.thread.issue_write(dst, v, ready, self.config.l1_lat);
            if T::ENABLED {
                tracer.event(TraceEvent::SpecLoad {
                    rid,
                    ord,
                    epoch: e.index,
                    core: e.thread.core,
                    sid,
                    addr: a,
                    value: v,
                    exposed: false,
                    time: issue,
                });
            }
            return Ok(());
        }
        let v = self.mem.read(a);
        // Timing-identical to `access`; the eviction report only feeds the
        // tracer.
        let (lat, evicted) = if T::ENABLED {
            self.caches.access_evict(e.thread.core, a)
        } else {
            (self.caches.access(e.thread.core, a), None)
        };
        if T::FINE {
            tracer.fine(Fine::Access(self.caches.level_of(lat)));
        }
        if let Some(victim_line) = evicted {
            let speculative =
                e.reads.line_reader(victim_line).is_some() || e.wb.wrote_line(victim_line);
            tracer.event(TraceEvent::LineEvict {
                core: e.thread.core,
                line: victim_line,
                speculative,
                time: e.thread.clock,
            });
        }
        let issue = e.thread.issue_write(dst, v, ready, lat);
        let mut spurious_evict = false;
        if let Some(plan) = self.config.inject.as_mut() {
            spurious_evict = plan.on_spec_load()?;
        }
        if spurious_evict {
            // Maskable: knock the just-accessed line out of the local L1
            // (and L2) so the next touch misses. Timing only.
            self.caches.invalidate_local(e.thread.core, a);
            if T::ENABLED {
                tracer.event(TraceEvent::FaultInject {
                    class: FaultClass::EvictLine,
                    epoch: Some(e.index),
                    addr: Some(a),
                    time: issue,
                });
            }
        }
        if T::ENABLED {
            // Emitted even under the fault injection below: the model sees
            // the exposed read the simulator then fails to track.
            tracer.event(TraceEvent::SpecLoad {
                rid,
                ord,
                epoch: e.index,
                core: e.thread.core,
                sid,
                addr: a,
                value: v,
                exposed: true,
                time: issue,
            });
        }
        if !(self.config.break_exposed_read_marking && sync) {
            e.reads.insert(a, sid);
        }
        // Commit-time dependence: an older epoch holds an uncommitted store
        // to this line.
        let line = line_of(a);
        let producer = older.iter().rev().find(|p| {
            if self.config.word_grain {
                p.wb.wrote_word(a)
            } else {
                p.wb.wrote_line(line)
            }
        });
        if let Some(p) = producer {
            pendings.push(Pending {
                producer: p.index,
                consumer: e.index,
                sid,
                store_sid: p.wb.line_writer(line),
                addr: a,
            });
        }
        // Train the last-value table for the prediction modes; the adaptive
        // controller needs it trained so STALL can upgrade to PREDICT.
        if self.config.hw_predict || self.config.adapt.is_some() {
            self.predictor.train(sid, v);
        }
        Ok(())
    }

    /// Apply an intra-epoch control transfer; reaching the region header or
    /// leaving the region's blocks ends the epoch.
    fn epoch_transfer(e: &mut Epoch, to: BlockId, header: BlockId, region_blocks: &[bool]) {
        let bottom = e.thread.frames.len() == 1;
        if bottom && to == header {
            e.status = Status::Done;
            e.finish = Some((None, e.thread.clock));
            return;
        }
        if bottom && !region_blocks[to.index()] {
            e.status = Status::Done;
            e.finish = Some((Some(to), e.thread.clock));
            return;
        }
        let frame = e.thread.frames.last_mut().expect("nonempty");
        frame.block = to;
        frame.idx = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use tls_ir::{ModuleBuilder, RegionId, SpecRegion};

    /// Mark the loop {head, body...} of function `f` as region 0.
    fn mark_region(mb: &mut ModuleBuilder, f: FuncId, header: BlockId, blocks: Vec<BlockId>) {
        let module = mb.module_mut();
        let id = RegionId(module.regions.len() as u32);
        module.regions.push(SpecRegion {
            id,
            func: f,
            header,
            blocks,
            unroll: 1,
        });
    }

    /// Independent loop: arr[i] = i*2 for i in 0..n, induction var
    /// privatized through EpochId; outputs the checksum afterwards.
    fn independent_module(n: i64) -> Module {
        let mut mb = ModuleBuilder::new();
        let arr = mb.add_global("arr", n as u64, vec![]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, ep, c, p, v, sum, j, q) = (
            fb.var("i"),
            fb.var("ep"),
            fb.var("c"),
            fb.var("p"),
            fb.var("v"),
            fb.var("sum"),
            fb.var("j"),
            fb.var("q"),
        );
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        let chead = fb.block("chead");
        let cbody = fb.block("cbody");
        let cexit = fb.block("cexit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.assign(i, tls_ir::Operand::Var(ep));
        fb.bin(c, op_lt(), i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(p, op_add(), arr_op(arr), i);
        fb.bin(v, op_mul(), i, 2);
        // Enough independent per-epoch work to amortize spawn/commit
        // overheads (the paper unrolls small loops for the same reason).
        for _ in 0..16 {
            fb.bin(v, op_mul(), v, 3);
            fb.bin(v, op_add(), v, 1);
        }
        fb.store(v, p, 0);
        fb.jump(head);
        fb.switch_to(exit);
        fb.assign(sum, 0);
        fb.assign(j, 0);
        fb.jump(chead);
        fb.switch_to(chead);
        fb.bin(c, op_lt(), j, n);
        fb.br(c, cbody, cexit);
        fb.switch_to(cbody);
        fb.bin(q, op_add(), arr_op(arr), j);
        fb.load(v, q, 0);
        fb.bin(sum, op_add(), sum, v);
        fb.bin(j, op_add(), j, 1);
        fb.jump(chead);
        fb.switch_to(cexit);
        fb.output(sum);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        mb.build().expect("valid")
    }

    // Small helpers so the builder calls above read compactly.
    fn op_lt() -> tls_ir::BinOp {
        tls_ir::BinOp::Lt
    }
    fn op_add() -> tls_ir::BinOp {
        tls_ir::BinOp::Add
    }
    fn op_mul() -> tls_ir::BinOp {
        tls_ir::BinOp::Mul
    }
    fn arr_op(g: tls_ir::GlobalId) -> tls_ir::Operand {
        tls_ir::Operand::Global(g)
    }

    #[test]
    fn independent_loop_matches_sequential_and_speeds_up() {
        let m = independent_module(64);
        let seq_ref = tls_profile::run_sequential(&m).expect("runs");
        let par = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(par.output, seq_ref.output);
        let seq = Machine::new(&m, SimConfig::sequential())
            .run()
            .expect("simulates");
        assert_eq!(seq.output, seq_ref.output);
        let rid = RegionId(0);
        let par_cycles = par.regions[&rid].cycles;
        let seq_cycles = seq.regions[&rid].cycles;
        assert!(
            par.total_violations <= 4,
            "unexpected violations: {}",
            par.total_violations
        );
        assert!(
            (par_cycles as f64) < 0.7 * seq_cycles as f64,
            "no speedup: par {par_cycles} vs seq {seq_cycles}"
        );
        assert!(par.regions[&rid].epochs >= 64);
    }

    /// Loop with a loop-carried scalar communicated through a channel.
    fn scalar_sync_module(n: i64) -> Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let chan = mb.fresh_chan();
        let mut fb = mb.define(f);
        let (ep, i, c, sum) = (fb.var("ep"), fb.var("i"), fb.var("c"), fb.var("sum"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.signal_scalar(chan, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.assign(i, tls_ir::Operand::Var(ep));
        fb.bin(c, op_lt(), i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.wait_scalar(sum, chan);
        fb.bin(sum, op_add(), sum, i);
        fb.signal_scalar(chan, sum);
        fb.jump(head);
        fb.switch_to(exit);
        fb.wait_scalar(sum, chan);
        fb.output(sum);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        mb.build().expect("valid")
    }

    #[test]
    fn scalar_forwarding_chains_values_across_epochs() {
        let m = scalar_sync_module(20);
        let seq_ref = tls_profile::run_sequential(&m).expect("runs");
        assert_eq!(seq_ref.output, vec![190]); // 0+1+..+19
        let par = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(par.output, vec![190]);
        assert_eq!(par.total_violations, 0);
        // The wait/signal chain serializes partially: sync slots appear.
        assert!(par.regions[&RegionId(0)].slots.sync > 0);
    }

    /// Loop with a memory-resident dependence through global `acc`; when
    /// `synced` the body uses SyncLoad/SignalMem, else plain load/store.
    fn mem_dep_module(n: i64, synced: bool) -> (Module, Sid) {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let f = mb.declare("main", 0);
        let group = mb.fresh_group();
        let mut fb = mb.define(f);
        let (ep, i, c, v, w) = (
            fb.var("ep"),
            fb.var("i"),
            fb.var("c"),
            fb.var("v"),
            fb.var("w"),
        );
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.assign(i, tls_ir::Operand::Var(ep));
        fb.bin(c, op_lt(), i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        let load_sid = if synced {
            fb.sync_load(v, acc, 0, group)
        } else {
            fb.load(v, acc, 0)
        };
        fb.bin(v, op_add(), v, 1);
        fb.store(v, acc, 0);
        if synced {
            fb.signal_mem(group, acc, 0, v);
        }
        // Independent tail work *after* the value is produced: this is what
        // early forwarding overlaps and stall-till-commit serializes.
        fb.assign(w, tls_ir::Operand::Var(i));
        for _ in 0..12 {
            fb.bin(w, op_mul(), w, 3);
            fb.bin(w, op_add(), w, 1);
        }
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, acc, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        (mb.build().expect("valid"), load_sid)
    }

    #[test]
    fn unsynchronized_dependence_violates_but_stays_correct() {
        let (m, _) = mem_dep_module(40, false);
        let par = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(par.output, vec![40]);
        assert!(par.total_violations > 0, "expected violations");
        assert!(par.regions[&RegionId(0)].slots.fail > 0);
    }

    #[test]
    fn compiler_synchronization_eliminates_violations() {
        let (unsynced, _) = mem_dep_module(40, false);
        let (synced, _) = mem_dep_module(40, true);
        let u = Machine::new(&unsynced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let c = Machine::new(&synced, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(c.output, vec![40]);
        assert_eq!(c.total_violations, 0, "forwarding should avoid violations");
        assert!(c.regions[&RegionId(0)].slots.fail < u.regions[&RegionId(0)].slots.fail);
        assert!(c.max_signal_buffer >= 1);
        assert!(c.max_signal_buffer <= 10, "paper: ≤10 entries suffice");
    }

    #[test]
    fn hardware_sync_reduces_failed_speculation() {
        let (m, _) = mem_dep_module(60, false);
        let u = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let mut hcfg = SimConfig::cgo2004();
        hcfg.hw_sync = true;
        let h = Machine::new(&m, hcfg).run().expect("simulates");
        assert_eq!(h.output, vec![60]);
        assert!(
            h.total_violations < u.total_violations,
            "hw sync: {} vs unsync: {}",
            h.total_violations,
            u.total_violations
        );
    }

    #[test]
    fn stall_till_oldest_policy_serializes_sync_loads() {
        let (m, _) = mem_dep_module(40, true);
        let mut cfg = SimConfig::cgo2004();
        cfg.sync_load_policy = SyncLoadPolicy::StallTillOldest;
        let l = Machine::new(&m, cfg).run().expect("simulates");
        assert_eq!(l.output, vec![40]);
        let fwd = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        // Early forwarding must be at least as fast as stalling till commit.
        assert!(
            fwd.regions[&RegionId(0)].cycles <= l.regions[&RegionId(0)].cycles,
            "forwarding {} should beat stalling {}",
            fwd.regions[&RegionId(0)].cycles,
            l.regions[&RegionId(0)].cycles
        );
    }

    #[test]
    fn oracle_mode_eliminates_all_violations() {
        let (m, _) = mem_dep_module(40, false);
        let oracle = tls_profile::record_oracle(&m).expect("records");
        let mut cfg = SimConfig::cgo2004();
        cfg.oracle_sel = OracleSel::AllLoads;
        let o = Machine::with_oracle(&m, cfg, &oracle)
            .run()
            .expect("simulates");
        assert_eq!(o.output, vec![40]);
        assert_eq!(o.total_violations, 0);
    }

    #[test]
    fn signal_address_buffer_catches_late_stores() {
        // Producer signals, then stores again to the same address: the
        // consumer must be restarted with the re-signalled value.
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let f = mb.declare("main", 0);
        let group = mb.fresh_group();
        let mut fb = mb.define(f);
        let (ep, i, c, v, v2) = (
            fb.var("ep"),
            fb.var("i"),
            fb.var("c"),
            fb.var("v"),
            fb.var("v2"),
        );
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.assign(i, tls_ir::Operand::Var(ep));
        fb.bin(c, op_lt(), i, 12);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.sync_load(v, acc, 0, group);
        fb.bin(v, op_add(), v, 1);
        fb.store(v, acc, 0);
        fb.signal_mem(group, acc, 0, v);
        // Late store AFTER the signal: value becomes v + 2 overall.
        fb.bin(v2, op_add(), v, 1);
        fb.store(v2, acc, 0);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, acc, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        let seq_ref = tls_profile::run_sequential(&m).expect("runs");
        assert_eq!(seq_ref.output, vec![24]); // +2 per iteration
        let par = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(par.output, vec![24], "late stores must restart consumers");
    }

    #[test]
    fn sequential_mode_attributes_region_cycles() {
        let m = independent_module(32);
        let seq = Machine::new(&m, SimConfig::sequential())
            .run()
            .expect("simulates");
        let r = &seq.regions[&RegionId(0)];
        assert_eq!(r.instances, 1);
        assert!(r.cycles > 0);
        assert!(seq.total_cycles >= r.cycles);
        assert_eq!(seq.total_violations, 0);
    }

    #[test]
    fn violation_classification_tracks_marking() {
        let (m, load_sid) = mem_dep_module(60, false);
        let mut cfg = SimConfig::cgo2004();
        cfg.mark_compiler = [load_sid].into_iter().collect();
        let r = Machine::new(&m, cfg).run().expect("simulates");
        let classes = r.violation_class_totals();
        let compiler_covered = classes
            .get(&ViolationClass::CompilerOnly)
            .copied()
            .unwrap_or(0)
            + classes.get(&ViolationClass::Both).copied().unwrap_or(0);
        assert!(
            compiler_covered > 0,
            "marked load should dominate violations: {classes:?}"
        );
    }

    #[test]
    fn slot_breakdown_accounts_all_region_slots() {
        let (m, _) = mem_dep_module(40, false);
        let cfg = SimConfig::cgo2004();
        let w = cfg.issue_width;
        let cores = cfg.cores as u64;
        let r = Machine::new(&m, cfg).run().expect("simulates");
        let stats = &r.regions[&RegionId(0)];
        let total = stats.slots.total();
        let expected = stats.cycles * w * cores;
        assert_eq!(total, expected, "slots must partition cores×width×cycles");
        assert!(stats.slots.busy > 0);
    }

    #[test]
    fn counters_are_observational_and_populated() {
        let (m, _) = mem_dep_module(40, true);
        let plain = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let counted = Machine::new(&m, SimConfig::cgo2004())
            .run_counted()
            .expect("simulates");
        // Counting must not perturb the simulation.
        assert_eq!(counted.output, plain.output);
        assert_eq!(counted.total_cycles, plain.total_cycles);
        assert_eq!(counted.instructions, plain.instructions);
        assert_eq!(counted.total_violations, plain.total_violations);
        assert!(plain.counters.is_none(), "disabled runs publish no bank");
        let c = counted.counters.expect("counted run publishes a bank");
        assert!(c.total_retired() > 0);
        assert!(c.retired[OpClass::Load.index()] > 0);
        assert!(c.retired[OpClass::Store.index()] > 0);
        assert!(c.retired[OpClass::Branch.index()] > 0);
        assert!(c.total_accesses() > 0);
        assert!(c.spec_stores > 0);
        assert!(c.signal_sends_mem > 0, "synced module forwards values");
        assert!(c.signal_recvs_mem > 0);
        assert!(c.epochs_committed >= 40);
        assert!(c.wb_words_high_water >= 1);
        // Determinism: an identical run produces an identical bank.
        let again = Machine::new(&m, SimConfig::cgo2004())
            .run_counted()
            .expect("simulates");
        assert_eq!(*again.counters.expect("bank"), *c);
    }

    #[test]
    fn counters_classify_violations_like_the_result() {
        let (m, _) = mem_dep_module(40, false);
        let r = Machine::new(&m, SimConfig::cgo2004())
            .run_counted()
            .expect("simulates");
        let c = r.counters.expect("bank");
        assert!(
            c.violations_of(ViolationKind::Eager) + c.violations_of(ViolationKind::CommitTime) > 0
        );
        // Every squashed attempt is counted; squash requests may cascade
        // over several victims, so attempts ≥ requests.
        assert_eq!(c.epochs_squashed, r.total_violations);
        assert!(c.total_violations() <= c.epochs_squashed);
    }

    use crate::inject::FaultPlan;

    #[test]
    fn cycle_budget_catches_nonterminating_sequential_loop() {
        // A block of real work that jumps back to itself: time advances,
        // the program never ends. The budget must turn that into a typed
        // error instead of a spin.
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let v = fb.var("v");
        let spin = fb.block("spin");
        fb.jump(spin);
        fb.switch_to(spin);
        fb.bin(v, op_add(), v, 1);
        fb.jump(spin);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let mut cfg = SimConfig::sequential();
        cfg.max_cycles = 10_000;
        match Machine::new(&m, cfg).run() {
            Err(SimError::CycleBudgetExceeded(10_000)) => {}
            other => panic!("expected cycle-budget error, got {other:?}"),
        }
    }

    #[test]
    fn cycle_budget_catches_nonterminating_epoch() {
        // The same spin inside a speculative region: the sequential clock
        // stands still at region entry, so the budget must watch the epoch
        // clocks.
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (ep, v) = (fb.var("ep"), fb.var("v"));
        let head = fb.block("head");
        let body = fb.block("body");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.jump(body);
        fb.switch_to(body);
        fb.bin(v, op_add(), v, 1);
        fb.jump(body);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        let mut cfg = SimConfig::cgo2004();
        cfg.max_cycles = 10_000;
        match Machine::new(&m, cfg).run() {
            Err(SimError::CycleBudgetExceeded(10_000)) => {}
            other => panic!("expected cycle-budget error, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_recursion_hits_call_depth_on_the_sequential_path() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        fb.call(None, f, vec![]);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        match Machine::new(&m, SimConfig::sequential()).run() {
            Err(SimError::CallDepth(256)) => {}
            other => panic!("expected call-depth error, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_recursion_hits_call_depth_inside_an_epoch() {
        let mut mb = ModuleBuilder::new();
        let rec = mb.declare("rec", 0);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(rec);
        fb.call(None, rec, vec![]);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        let ep = fb.var("ep");
        let head = fb.block("head");
        let body = fb.block("body");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.jump(body);
        fb.switch_to(body);
        fb.call(None, rec, vec![]);
        fb.jump(head);
        fb.finish();
        mb.set_entry(main);
        mark_region(&mut mb, main, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        match Machine::new(&m, SimConfig::cgo2004()).run() {
            Err(SimError::CallDepth(256)) => {}
            other => panic!("expected call-depth error, got {other:?}"),
        }
    }

    #[test]
    fn return_out_of_a_region_is_an_error() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let ep = fb.var("ep");
        let head = fb.block("head");
        let body = fb.block("body");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.jump(body);
        fb.switch_to(body);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        match Machine::new(&m, SimConfig::cgo2004()).run() {
            Err(SimError::RetInRegion(name)) => assert_eq!(name, "main"),
            other => panic!("expected ret-in-region error, got {other:?}"),
        }
    }

    #[test]
    fn maskable_signal_faults_leave_output_intact() {
        use crate::inject::FaultClass;
        let (m, _) = mem_dep_module(40, true);
        for class in FaultClass::MASKABLE {
            let mut cfg = SimConfig::cgo2004();
            cfg.inject = Some(FaultPlan::seeded(9, &[class], 1.0, 16));
            let r = Machine::new(&m, cfg)
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", class.name()));
            assert_eq!(r.output, vec![40], "{} broke the output", class.name());
        }
    }

    #[test]
    fn corrupted_signals_fire_the_recovery_path() {
        use crate::inject::FaultClass;
        // Clean compiler sync has zero violations on this module; garbled
        // forwards must fall back and squash at least once — proof the
        // §2.2 recovery net actually fired, not that the fault was a no-op.
        let (m, _) = mem_dep_module(40, true);
        let clean = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(clean.total_violations, 0);
        let mut cfg = SimConfig::cgo2004();
        cfg.inject = Some(FaultPlan::seeded(3, &[FaultClass::CorruptSignal], 1.0, 8));
        let r = Machine::new(&m, cfg).run().expect("simulates");
        assert_eq!(r.output, vec![40]);
        assert!(
            r.faults.count(FaultClass::CorruptSignal) > 0,
            "fault never fired"
        );
        assert!(
            r.total_violations > 0,
            "corrupted forwards produced no squash: recovery path untested"
        );
        assert!(
            r.total_cycles >= clean.total_cycles,
            "faults cannot speed a run up"
        );
    }

    #[test]
    fn corrupt_commit_write_breaks_architectural_state() {
        use crate::inject::FaultClass;
        // The one place with no net below the protocol model: flipping a
        // draining commit write must corrupt the final output. Every epoch
        // rewrites `acc`, so corrupt all commits — the last one is what the
        // final architectural load observes.
        let (m, _) = mem_dep_module(40, true);
        let mut cfg = SimConfig::cgo2004();
        cfg.inject = Some(FaultPlan::seeded(
            5,
            &[FaultClass::CorruptCommitWrite],
            1.0,
            u64::MAX,
        ));
        let r = Machine::new(&m, cfg).run().expect("simulates");
        assert!(r.faults.count(FaultClass::CorruptCommitWrite) > 0);
        assert_ne!(
            r.output,
            vec![40],
            "corrupted commit write was silently masked"
        );
    }

    #[test]
    fn scripted_exhaustion_is_a_typed_error() {
        use crate::inject::FaultClass;
        let (m, _) = mem_dep_module(40, true);
        let mut cfg = SimConfig::cgo2004();
        cfg.inject = Some(FaultPlan::scripted(FaultClass::DropSignal, vec![true]));
        match Machine::new(&m, cfg).run() {
            Err(SimError::FaultPlanExhausted { class, decision }) => {
                assert_eq!(class, "drop-signal");
                assert!(decision >= 1);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod protocol_tests {
    //! Targeted tests of the TLS protocol mechanics: commit-time pending
    //! violations, cascade squashes, relay forwarding, per-word tracking,
    //! and epoch/commit ordering.

    use super::*;
    use crate::config::SimConfig;
    use tls_ir::{BinOp, ModuleBuilder, RegionId, SpecRegion};

    fn mark_region(mb: &mut ModuleBuilder, f: FuncId, header: BlockId, blocks: Vec<BlockId>) {
        let module = mb.module_mut();
        let id = RegionId(module.regions.len() as u32);
        module.regions.push(SpecRegion {
            id,
            func: f,
            header,
            blocks,
            unroll: 1,
        });
    }

    /// Producer stores LATE in the epoch, consumer loads EARLY: the load
    /// happens after the store executes but before it commits — only the
    /// commit-time pending mechanism can catch it.
    #[test]
    fn commit_time_pending_violations_fire() {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (ep, c, v, w) = (fb.var("ep"), fb.var("c"), fb.var("v"), fb.var("w"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.bin(c, BinOp::Lt, ep, 20);
        fb.br(c, body, exit);
        fb.switch_to(body);
        // Early exposed read.
        fb.load(v, acc, 0);
        // Long independent stretch, then the late store.
        fb.assign(w, tls_ir::Operand::Var(ep));
        for _ in 0..12 {
            fb.bin(w, BinOp::Mul, w, 3);
            fb.bin(w, BinOp::Add, w, 1);
        }
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, acc, 0);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, acc, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        let r = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(r.output, vec![20], "commit-time detection keeps it correct");
        assert!(r.total_violations > 0, "the early load must be caught");
    }

    /// Per-word tracking (the ablation) removes pure false-sharing
    /// violations: two epochs touch different words of one line.
    #[test]
    fn word_granularity_removes_false_sharing() {
        let mut mb = ModuleBuilder::new();
        let pair = mb.add_global("pair", 2, vec![0, 0]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (ep, c, unit, p, v, w) = (
            fb.var("ep"),
            fb.var("c"),
            fb.var("unit"),
            fb.var("p"),
            fb.var("v"),
            fb.var("w"),
        );
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.bin(c, BinOp::Lt, ep, 24);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.assign(w, tls_ir::Operand::Var(ep));
        for _ in 0..8 {
            fb.bin(w, BinOp::Mul, w, 3);
        }
        fb.bin(unit, BinOp::And, ep, 1);
        fb.bin(p, BinOp::Add, pair, unit);
        fb.load(v, p, 0);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, p, 0);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, pair, 0);
        fb.output(v);
        fb.load(v, pair, 1);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        let m = mb.build().expect("valid");
        let line = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let word = Machine::new(
            &m,
            SimConfig {
                word_grain: true,
                ..SimConfig::cgo2004()
            },
        )
        .run()
        .expect("simulates");
        assert_eq!(line.output, vec![12, 12]);
        assert_eq!(word.output, vec![12, 12]);
        assert!(
            line.total_violations > 0,
            "line tracking sees false sharing"
        );
        assert!(
            word.total_violations < line.total_violations / 2,
            "word tracking keeps only the true distance-2 violations \
             (word {} vs line {})",
            word.total_violations,
            line.total_violations
        );
    }

    /// Relay forwarding: a distance-2 dependence (only even epochs store)
    /// becomes forwardable when intermediate epochs relay instead of
    /// signalling NULL.
    #[test]
    fn relay_forwarding_extends_reach_and_stays_correct() {
        let mut mb = ModuleBuilder::new();
        let cell = mb.add_global("cell", 1, vec![100]);
        let f = mb.declare("main", 0);
        let group = mb.fresh_group();
        let mut fb = mb.define(f);
        let (ep, c, v, par) = (fb.var("ep"), fb.var("c"), fb.var("v"), fb.var("par"));
        let head = fb.block("head");
        let body = fb.block("body");
        let store_b = fb.block("store_b");
        let skip_b = fb.block("skip_b");
        let latch = fb.block("latch");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.bin(c, BinOp::Lt, ep, 16);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.sync_load(v, cell, 0, group);
        fb.bin(par, BinOp::And, ep, 1);
        fb.bin(par, BinOp::Eq, par, 0);
        fb.br(par, store_b, skip_b);
        fb.switch_to(store_b);
        fb.bin(v, BinOp::Add, v, 1);
        fb.store(v, cell, 0);
        fb.signal_mem(group, cell, 0, v);
        fb.jump(latch);
        fb.switch_to(skip_b);
        fb.signal_mem_null(group);
        fb.jump(latch);
        fb.switch_to(latch);
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, cell, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(
            &mut mb,
            f,
            BlockId(1),
            [(1..=5).map(BlockId).collect::<Vec<_>>()].concat(),
        );
        let m = mb.build().expect("valid");
        let null_mode = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        let relay = Machine::new(
            &m,
            SimConfig {
                relay_forwarding: true,
                ..SimConfig::cgo2004()
            },
        )
        .run()
        .expect("simulates");
        assert_eq!(null_mode.output, vec![108]);
        assert_eq!(relay.output, vec![108], "relay must stay correct");
        assert!(
            relay.total_violations <= null_mode.total_violations,
            "relay should not add violations (relay {} vs null {})",
            relay.total_violations,
            null_mode.total_violations
        );
    }

    /// Epochs commit strictly in order: the observable output (one value per
    /// epoch) appears in epoch order even though epochs finish out of order.
    #[test]
    fn outputs_commit_in_epoch_order() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (ep, c, w, amt) = (fb.var("ep"), fb.var("c"), fb.var("w"), fb.var("amt"));
        let head = fb.block("head");
        let body = fb.block("body");
        let spin_h = fb.block("spin_h");
        let spin_b = fb.block("spin_b");
        let done = fb.block("done");
        fb.jump(head);
        fb.switch_to(head);
        fb.epoch_id(ep);
        fb.bin(c, BinOp::Lt, ep, 12);
        fb.br(c, body, done);
        fb.switch_to(body);
        // Epochs do *varying* amounts of work: even epochs spin longer.
        fb.bin(amt, BinOp::And, ep, 1);
        fb.bin(amt, BinOp::Mul, amt, 20);
        fb.bin(amt, BinOp::Add, amt, 3);
        fb.assign(w, 0);
        fb.jump(spin_h);
        fb.switch_to(spin_h);
        fb.bin(c, BinOp::Lt, w, amt);
        fb.br(c, spin_b, head);
        fb.switch_to(spin_b);
        fb.bin(w, BinOp::Add, w, 1);
        fb.jump(spin_h);
        fb.switch_to(done);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(
            &mut mb,
            f,
            BlockId(1),
            vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
        );
        // Each epoch outputs its index.
        let m = {
            let module = mb.module_mut();
            // Insert `output ep` at the top of the body block.
            module.funcs[0].blocks[2].instrs.insert(
                3,
                Instr::Output {
                    val: Operand::Var(Var(0)),
                },
            );
            mb.build().expect("valid")
        };
        let r = Machine::new(&m, SimConfig::cgo2004())
            .run()
            .expect("simulates");
        assert_eq!(r.output, (0..12).collect::<Vec<i64>>());
    }
}
