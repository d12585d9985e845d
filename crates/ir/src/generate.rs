//! Seeded random TLS program generator for the differential fuzzer.
//!
//! [`generate`] builds a well-formed, always-terminating [`Module`] from a
//! seed: nested counted loops (the speculative-region candidates), helper
//! calls, data-dependent diamonds, and loads/stores whose aliasing density,
//! dependence distance and cross-epoch frequency are drawn from the
//! controllable distributions in [`GenConfig`]. The module uses only plain
//! instructions — the compiler pipeline (`tls-core`) is what inserts the
//! TLS intrinsics, so the fuzzer exercises the real synchronization
//! insertion, not hand-written sync.
//!
//! Termination is guaranteed by construction: every loop is a counted loop
//! whose counter register is reserved (never the target of a random
//! statement) and whose bound is a constant, and helper functions are
//! straight-line and call nothing. This holds even for *doomed* speculative
//! epochs running on wrong data, because loop control never depends on
//! loaded values.

use crate::builder::{FuncBuilder, ModuleBuilder};
use crate::ids::{FuncId, GlobalId, Var};
use crate::instr::{BinOp, Operand};
use crate::module::Module;
use crate::rng::SplitMix64;

/// Words in the `arr` global (a power of two: indices are masked into it).
const ARR_WORDS: i64 = 32;
/// Words in the `shared` global (two cache lines of hot slots).
const SHARED_WORDS: i64 = 8;
/// General-purpose registers the random statements read and write.
const POOL_VARS: usize = 6;
/// Call-chain depth of the `deep_clone` family — deeper than any baseline
/// program (whose helpers are leaf calls), so synchronization insertion
/// must clone through the whole chain.
const CLONE_DEPTH: usize = 4;

/// Scenario family: the overall shape [`generate`] emits.
///
/// `Baseline` is the original unconstrained random program. The other
/// families are adversarial shapes from the paper's failure modes:
/// mid-run dependence-pattern flips, cache-line false sharing, deep call
/// chains and mixed independent/dependent nests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GenFamily {
    /// Unconstrained random programs (the original generator).
    Baseline,
    /// One region whose dependence pattern flips mid-run: a distance-1
    /// fixed-address dependence before the (data-dependent!) boundary, a
    /// distance-2 strided dependence after it. The boundary constant comes
    /// from the *data* stream, so a train-input profile places
    /// synchronization for a different phase mix than the measurement run
    /// executes.
    PhaseShift,
    /// Epochs read a never-written word and store to rotating *other* words
    /// of the same cache line: no true dependence at word grain, a conflict
    /// every epoch at line grain.
    FalseSharing,
    /// The region's only dependence is a `shared` read-modify-write buried
    /// four calls deep (`CLONE_DEPTH`), forcing synchronization insertion to
    /// clone the entire chain.
    DeepClone,
    /// Alternating independent and dependent top-level loop nests, so one
    /// module carries regions that want speculation and regions that want
    /// synchronization side by side.
    MixedNests,
}

impl GenFamily {
    /// Every family, baseline first.
    pub const ALL: [GenFamily; 5] = [
        GenFamily::Baseline,
        GenFamily::PhaseShift,
        GenFamily::FalseSharing,
        GenFamily::DeepClone,
        GenFamily::MixedNests,
    ];

    /// Stable CLI name.
    pub fn label(&self) -> &'static str {
        match self {
            GenFamily::Baseline => "baseline",
            GenFamily::PhaseShift => "phase_shift",
            GenFamily::FalseSharing => "false_sharing",
            GenFamily::DeepClone => "deep_clone",
            GenFamily::MixedNests => "mixed_nests",
        }
    }

    /// Parse a CLI name (the inverse of [`GenFamily::label`]).
    pub fn parse(s: &str) -> Option<GenFamily> {
        GenFamily::ALL.into_iter().find(|f| f.label() == s)
    }
}

/// A [`GenConfig`] knob combination that cannot produce a meaningful
/// module (empty, or single-epoch regions that never speculate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenConfigError {
    /// A `(lo, hi)` range knob with `lo > hi`.
    EmptyRange {
        /// Knob name.
        knob: &'static str,
        /// Range low bound.
        lo: i64,
        /// Range high bound.
        hi: i64,
    },
    /// `region_loops` cannot emit a single loop: the module would have no
    /// epochs at all.
    NoRegionLoops,
    /// A trip-count knob admitting fewer than 2 iterations: regions with 0
    /// or 1 epochs never speculate, so every mode trivially agrees.
    TripTooSmall {
        /// Knob name.
        knob: &'static str,
        /// Offending low bound.
        got: i64,
    },
}

impl std::fmt::Display for GenConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenConfigError::EmptyRange { knob, lo, hi } => {
                write!(f, "{knob}: empty range ({lo}, {hi})")
            }
            GenConfigError::NoRegionLoops => {
                write!(
                    f,
                    "region_loops admits 0 loops: module would have no epochs"
                )
            }
            GenConfigError::TripTooSmall { knob, got } => {
                write!(
                    f,
                    "{knob}: trip bound {got} < 2 admits single-epoch regions"
                )
            }
        }
    }
}

impl std::error::Error for GenConfigError {}

/// Distribution knobs for the random program generator.
///
/// All `(lo, hi)` ranges are inclusive. Probabilities are clamped to
/// `0.0..=1.0` by the underlying RNG.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum number of straight-line helper functions (0 disables calls).
    pub helper_funcs: u32,
    /// Top-level candidate region loops emitted in `main`.
    pub region_loops: (u32, u32),
    /// Trip count of each top-level loop (each iteration becomes an epoch).
    pub outer_trips: (i64, i64),
    /// Trip count of nested inner loops.
    pub inner_trips: (i64, i64),
    /// Straight-line statements per generated block.
    pub body_stmts: (u32, u32),
    /// Probability that a statement is a memory access.
    pub mem_density: f64,
    /// Fraction of memory accesses that are stores.
    pub store_frac: f64,
    /// Probability that a memory access targets the hot `shared` slots
    /// (high inter-epoch aliasing) rather than the indexed `arr`.
    pub alias_density: f64,
    /// Dependence distance (in epochs) of loop-carried `arr` accesses.
    pub dep_distance: (i64, i64),
    /// Probability that an `arr` access is loop-carried (offset by
    /// ±distance from this epoch's slot) rather than private.
    pub cross_epoch: f64,
    /// Probability that a top-level loop is *memory-only*: its body defines
    /// no pool register, so no scalar is carried besides the (privatized)
    /// counter and the epochs run fully overlapped. These loops exercise
    /// violation detection and squash recovery; all others serialize on
    /// their scalar channels.
    pub mem_loop_prob: f64,
    /// Probability of a data-dependent diamond in a loop body.
    pub branch_prob: f64,
    /// Probability of a nested inner loop in a top-level loop body.
    pub inner_loop_prob: f64,
    /// Probability of a helper call in a top-level loop body.
    pub call_prob: f64,
    /// Probability that a statement emits to the observable output stream.
    pub output_prob: f64,
    /// Scenario family (program shape); the remaining knobs feed the random
    /// filler inside each shape.
    pub family: GenFamily,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            helper_funcs: 2,
            region_loops: (1, 2),
            outer_trips: (4, 12),
            inner_trips: (2, 4),
            body_stmts: (3, 8),
            mem_density: 0.45,
            store_frac: 0.45,
            alias_density: 0.3,
            dep_distance: (1, 3),
            cross_epoch: 0.5,
            mem_loop_prob: 0.35,
            branch_prob: 0.35,
            inner_loop_prob: 0.3,
            call_prob: 0.3,
            output_prob: 0.08,
            family: GenFamily::Baseline,
        }
    }
}

impl GenConfig {
    /// The tuned configuration for a scenario family.
    pub fn for_family(family: GenFamily) -> GenConfig {
        let base = GenConfig::default();
        match family {
            GenFamily::Baseline => base,
            // One long region so a single-epoch phase stays under the 5%
            // placement threshold while a dominant phase is far above it.
            GenFamily::PhaseShift => GenConfig {
                family,
                region_loops: (1, 1),
                outer_trips: (24, 48),
                ..base
            },
            GenFamily::FalseSharing => GenConfig {
                family,
                region_loops: (1, 1),
                outer_trips: (8, 20),
                ..base
            },
            GenFamily::DeepClone => GenConfig {
                family,
                region_loops: (1, 1),
                outer_trips: (6, 14),
                ..base
            },
            GenFamily::MixedNests => GenConfig {
                family,
                // Each nest draws its own trip; four nests are emitted.
                outer_trips: (4, 10),
                ..base
            },
        }
    }

    /// Reject or clamp knob combinations that produce empty or single-epoch
    /// modules: ranges must be non-empty, at least one region loop must be
    /// possible, and outer trips must admit ≥ 2 epochs (clamped up if the
    /// high bound allows it).
    ///
    /// # Errors
    /// A [`GenConfigError`] naming the first unusable knob.
    pub fn validated(&self) -> Result<GenConfig, GenConfigError> {
        let mut cfg = self.clone();
        for (knob, lo, hi) in [
            (
                "region_loops",
                cfg.region_loops.0 as i64,
                cfg.region_loops.1 as i64,
            ),
            ("outer_trips", cfg.outer_trips.0, cfg.outer_trips.1),
            ("inner_trips", cfg.inner_trips.0, cfg.inner_trips.1),
            (
                "body_stmts",
                cfg.body_stmts.0 as i64,
                cfg.body_stmts.1 as i64,
            ),
        ] {
            if lo > hi {
                return Err(GenConfigError::EmptyRange { knob, lo, hi });
            }
        }
        if cfg.region_loops.1 == 0 {
            return Err(GenConfigError::NoRegionLoops);
        }
        // A module must always contain at least one region loop.
        cfg.region_loops.0 = cfg.region_loops.0.max(1);
        if cfg.outer_trips.1 < 2 {
            return Err(GenConfigError::TripTooSmall {
                knob: "outer_trips",
                got: cfg.outer_trips.1,
            });
        }
        // Single-epoch (or empty) regions never speculate: clamp up.
        cfg.outer_trips.0 = cfg.outer_trips.0.max(2);
        if cfg.inner_trips.1 < 1 {
            return Err(GenConfigError::TripTooSmall {
                knob: "inner_trips",
                got: cfg.inner_trips.1,
            });
        }
        cfg.inner_trips.0 = cfg.inner_trips.0.max(1);
        Ok(cfg)
    }
}

/// Generate a module from `seed`.
///
/// The program *structure* depends only on `seed` and `cfg`; the initial
/// data in the globals additionally depends on `data_salt`, so
/// `generate(s, c, 0)` and `generate(s, c, 1)` are the same program on
/// different inputs — the ref/train pair the profile-on-train modes need.
///
/// The result is not validated here: the fuzzer's check (c) runs
/// [`crate::validate`] on every generated module, so a generator bug
/// surfaces as a fuzz failure instead of being masked by a panic.
pub fn generate(seed: u64, cfg: &GenConfig, data_salt: u64) -> Module {
    let mut rng = SplitMix64::seed_from_u64(seed);
    // Forking consumes one structure value regardless of the salt, so the
    // structure stream is identical across salts.
    let mut data = rng.fork(0x5EED_DA7A ^ data_salt);

    let mut mb = ModuleBuilder::new();
    let shared = mb.add_global(
        "shared",
        SHARED_WORDS as u64,
        (0..SHARED_WORDS).map(|_| data.gen_range(-64, 64)).collect(),
    );
    let arr = mb.add_global(
        "arr",
        ARR_WORDS as u64,
        (0..ARR_WORDS).map(|_| data.gen_range(-256, 256)).collect(),
    );

    // Family-specific globals come after the two baseline globals, so the
    // baseline layout (and its RNG streams) is untouched.
    let fs = (cfg.family == GenFamily::FalseSharing).then(|| {
        mb.add_global(
            "fs_line",
            crate::LINE_WORDS as u64,
            (0..crate::LINE_WORDS)
                .map(|_| data.gen_range(-64, 64))
                .collect(),
        )
    });

    let n_helpers = rng.gen_range(0, cfg.helper_funcs as i64 + 1) as usize;
    let helpers: Vec<FuncId> = (0..n_helpers)
        .map(|i| mb.declare(format!("helper{i}"), 1))
        .collect();
    // The deep-clone call chain: chain0 → chain1 → … → the leaf, which
    // carries the region's only dependence.
    let chain: Vec<FuncId> = if cfg.family == GenFamily::DeepClone {
        (0..CLONE_DEPTH)
            .map(|i| mb.declare(format!("chain{i}"), 1))
            .collect()
    } else {
        Vec::new()
    };
    let main = mb.declare("main", 0);

    let mut gen = Gen {
        rng,
        data,
        cfg,
        shared,
        arr,
        fs,
        helpers: helpers.clone(),
        pool: Vec::new(),
        inds: Vec::new(),
        addr: Var(0),
        scratch: Var(0),
    };

    for &h in &helpers {
        let mut fb = mb.define(h);
        gen.begin_func(&mut fb, true);
        let n = gen.stmt_count();
        gen.emit_stmts(&mut fb, n, false);
        let rv = gen.pool[gen.rng.pick(gen.pool.len())];
        fb.ret(Some(Operand::Var(rv)));
        fb.finish();
        gen.inds.clear();
    }

    for (k, &f) in chain.iter().enumerate() {
        let mut fb = mb.define(f);
        gen.begin_func(&mut fb, true);
        if let Some(&next) = chain.get(k + 1) {
            // Interior link: a little private work, then pass down.
            gen.emit_alu_stmts(&mut fb, 2);
            let dst = gen.pool[0];
            let arg = gen.pool[1];
            fb.call(Some(dst), next, vec![Operand::Var(arg)]);
            fb.ret(Some(Operand::Var(dst)));
        } else {
            // Leaf: the distance-1 shared RMW, CLONE_DEPTH calls deep.
            let a = gen.addr;
            fb.bin(a, BinOp::Add, Operand::Global(gen.shared), 0);
            fb.load(gen.scratch, a, 0);
            fb.bin(gen.scratch, BinOp::Add, gen.scratch, fb.param(0));
            fb.store(gen.scratch, a, 0);
            fb.ret(Some(Operand::Var(gen.scratch)));
        }
        fb.finish();
        gen.inds.clear();
    }

    let mut fb = mb.define(main);
    gen.begin_func(&mut fb, false);
    // Prologue: seed the register pool with data-dependent values.
    for v in gen.pool.clone() {
        let c = gen.data.gen_range(-100, 100);
        fb.assign(v, c);
    }
    match cfg.family {
        GenFamily::Baseline => {
            let n_loops = gen
                .rng
                .gen_range(cfg.region_loops.0 as i64, cfg.region_loops.1 as i64 + 1);
            for li in 0..n_loops {
                let trip = gen.rng.gen_range(cfg.outer_trips.0, cfg.outer_trips.1 + 1);
                gen.emit_loop(&mut fb, &format!("outer{li}"), trip, 0);
            }
        }
        GenFamily::PhaseShift => {
            let trip = gen
                .rng
                .gen_range(cfg.outer_trips.0.max(8), cfg.outer_trips.1.max(8) + 1);
            gen.emit_phase_shift(&mut fb, trip);
        }
        GenFamily::FalseSharing => {
            let trip = gen
                .rng
                .gen_range(cfg.outer_trips.0.max(4), cfg.outer_trips.1.max(4) + 1);
            gen.emit_false_sharing(&mut fb, trip);
        }
        GenFamily::DeepClone => {
            let trip = gen.rng.gen_range(cfg.outer_trips.0, cfg.outer_trips.1 + 1);
            gen.emit_deep_clone(&mut fb, trip, chain[0]);
        }
        GenFamily::MixedNests => {
            for li in 0..4 {
                let trip = gen.rng.gen_range(cfg.outer_trips.0, cfg.outer_trips.1 + 1);
                gen.emit_mixed_nest(&mut fb, li, trip);
            }
        }
    }
    gen.emit_checksum(&mut fb);
    let acc = gen.pool[0];
    fb.ret(Some(Operand::Var(acc)));
    fb.finish();

    mb.set_entry(main);
    mb.build_unchecked()
}

/// Working state threaded through the emitters.
struct Gen<'a> {
    rng: SplitMix64,
    data: SplitMix64,
    cfg: &'a GenConfig,
    shared: GlobalId,
    arr: GlobalId,
    /// The false-sharing line (`Some` only for that family).
    fs: Option<GlobalId>,
    helpers: Vec<FuncId>,
    /// General-purpose registers; random statements read and write these.
    pool: Vec<Var>,
    /// Active loop counters, innermost last. Never written by statements.
    inds: Vec<Var>,
    /// Scratch register for address computations.
    addr: Var,
    /// Scratch register for memory-only loop bodies; always defined (by a
    /// load) before it is used, so it is never live into a loop header.
    scratch: Var,
}

impl Gen<'_> {
    /// Allocate the per-function register pool (and treat a helper's
    /// parameter as an induction-like index).
    fn begin_func(&mut self, fb: &mut FuncBuilder<'_>, is_helper: bool) {
        self.pool = (0..POOL_VARS).map(|i| fb.var(format!("v{i}"))).collect();
        self.addr = fb.var("addr");
        self.scratch = fb.var("mscratch");
        self.inds.clear();
        if is_helper {
            // Helpers treat their argument as an induction-like index and
            // derive their pool from it, so their effect is input-dependent
            // even before any loads.
            self.inds.push(fb.param(0));
            for (i, v) in self.pool.clone().into_iter().enumerate() {
                fb.bin(v, BinOp::Add, fb.param(0), i as i64);
            }
        }
    }

    fn stmt_count(&mut self) -> u32 {
        self.rng.gen_range(
            self.cfg.body_stmts.0 as i64,
            self.cfg.body_stmts.1 as i64 + 1,
        ) as u32
    }

    /// A random value operand: a pool register, an induction variable, or a
    /// constant.
    fn operand(&mut self) -> Operand {
        match self.rng.pick(8) {
            0..=3 => Operand::Var(self.pool[self.rng.pick(self.pool.len())]),
            4 | 5 if !self.inds.is_empty() => {
                Operand::Var(self.inds[self.rng.pick(self.inds.len())])
            }
            6 => Operand::Const(self.rng.gen_range(-8, 9)),
            _ => Operand::Const(self.rng.gen_range(-1000, 1000)),
        }
    }

    fn rand_binop(&mut self) -> BinOp {
        use BinOp::*;
        const OPS: [BinOp; 18] = [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, Min, Max,
        ];
        OPS[self.rng.pick(OPS.len())]
    }

    /// Emit instructions computing a memory address into the scratch
    /// register and return it. Addresses are built only from induction
    /// variables and constants, so aliasing structure is controlled by the
    /// config, never by wild loaded values.
    fn addr_expr(&mut self, fb: &mut FuncBuilder<'_>) -> Var {
        let a = self.addr;
        if self.rng.chance(self.cfg.alias_density) || self.inds.is_empty() {
            // Hot shared slot: a handful of words spanning two cache lines.
            if self.inds.is_empty() || self.rng.chance(0.5) {
                let slot = self.rng.gen_range(0, SHARED_WORDS);
                fb.bin(a, BinOp::Add, Operand::Global(self.shared), slot);
            } else {
                let i = self.inds[self.rng.pick(self.inds.len())];
                fb.bin(a, BinOp::And, i, SHARED_WORDS - 1);
                fb.bin(a, BinOp::Add, Operand::Global(self.shared), a);
            }
        } else {
            let i = self.inds[self.rng.pick(self.inds.len())];
            let (stride, off) = if self.rng.chance(self.cfg.cross_epoch) {
                // Loop-carried: this epoch's slot shifted by ±distance.
                let d = self
                    .rng
                    .gen_range(self.cfg.dep_distance.0, self.cfg.dep_distance.1 + 1);
                let s = self.rng.gen_range(1, 3);
                let sign = if self.rng.chance(0.5) { -1 } else { 1 };
                (s, sign * d * s + self.rng.gen_range(0, 2))
            } else {
                // Private: stride a whole line so epochs mostly touch
                // disjoint lines.
                (crate::LINE_WORDS, self.rng.gen_range(0, crate::LINE_WORDS))
            };
            fb.bin(a, BinOp::Mul, i, stride);
            fb.bin(a, BinOp::Add, a, off);
            fb.bin(a, BinOp::And, a, ARR_WORDS - 1);
            fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        }
        a
    }

    /// Emit `n` memory accesses that define no pool register: loads land in
    /// the dedicated scratch, stores write the scratch (once loaded), a
    /// pool register or a constant. Data flows epoch-to-epoch through
    /// memory only.
    fn emit_mem_stmts(&mut self, fb: &mut FuncBuilder<'_>, n: u32) {
        let mut loaded = false;
        for _ in 0..n {
            let a = self.addr_expr(fb);
            if loaded && self.rng.chance(self.cfg.store_frac) {
                let val = if self.rng.chance(0.6) {
                    Operand::Var(self.scratch)
                } else {
                    self.operand()
                };
                fb.store(val, a, 0);
            } else {
                fb.load(self.scratch, a, 0);
                loaded = true;
            }
        }
    }

    /// Emit `n` random straight-line statements at the cursor.
    fn emit_stmts(&mut self, fb: &mut FuncBuilder<'_>, n: u32, allow_output: bool) {
        for _ in 0..n {
            if self.rng.chance(self.cfg.mem_density) {
                let a = self.addr_expr(fb);
                if self.rng.chance(self.cfg.store_frac) {
                    let val = self.operand();
                    fb.store(val, a, 0);
                } else {
                    let dst = self.pool[self.rng.pick(self.pool.len())];
                    fb.load(dst, a, 0);
                }
            } else if allow_output && self.rng.chance(self.cfg.output_prob) {
                let val = self.operand();
                fb.output(val);
            } else {
                let dst = self.pool[self.rng.pick(self.pool.len())];
                let op = self.rand_binop();
                let (x, y) = (self.operand(), self.operand());
                fb.bin(dst, op, x, y);
            }
        }
    }

    /// Epoch-private ALU filler: re-initializes the scratch register from
    /// the induction and then only reads and writes scratch, so it adds
    /// work without creating loop-carried scalar dependences. Carried
    /// scalars get a wait at the epoch header, which serializes the whole
    /// body and would mask the memory races the race-sensitive families
    /// (`phase_shift`, `false_sharing`) exist to provoke.
    fn emit_private_filler(&mut self, fb: &mut FuncBuilder<'_>, n: u32, i: Var) {
        let s = self.scratch;
        fb.bin(s, BinOp::Mul, i, 7);
        for _ in 0..n {
            let op = self.rand_binop();
            let c = 1 + self.rng.gen_range(0, 63);
            fb.bin(s, op, s, c);
        }
    }

    /// Emit `n` pure-ALU statements (no memory, no output) — filler for the
    /// family emitters, which control their memory traffic exactly.
    fn emit_alu_stmts(&mut self, fb: &mut FuncBuilder<'_>, n: u32) {
        for _ in 0..n {
            let dst = self.pool[self.rng.pick(self.pool.len())];
            let op = self.rand_binop();
            let (x, y) = (self.operand(), self.operand());
            fb.bin(dst, op, x, y);
        }
    }

    /// Emit the counted-loop skeleton shared by the family emitters and
    /// leave the cursor at the body; returns `(i, latch, exit)`.
    fn family_loop(
        &mut self,
        fb: &mut FuncBuilder<'_>,
        name: &str,
        trip: i64,
    ) -> (Var, crate::BlockId, crate::BlockId) {
        let i = fb.var(format!("{name}_i"));
        let c = fb.var(format!("{name}_c"));
        fb.assign(i, 0);
        let head = fb.block(format!("{name}_head"));
        let body = fb.block(format!("{name}_body"));
        let latch = fb.block(format!("{name}_latch"));
        let exit = fb.block(format!("{name}_exit"));
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, trip);
        fb.br(c, body, exit);
        fb.switch_to(latch);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(body);
        self.inds.push(i);
        (i, latch, exit)
    }

    /// `phase_shift`: one region whose dependence regime flips at a
    /// boundary drawn from the *data* stream — either late (phase B is the
    /// final iteration only) or early (phase B dominates). Before the
    /// boundary each epoch does a distance-1 RMW on `shared[0]` and seeds
    /// `arr[i]`; after it, a distance-2 read through `arr` plus a
    /// distance-1 RMW on the *second* line of `shared`, which no other
    /// code touches. A profile gathered on a late-boundary input never
    /// sees that phase-B recurrence (its one epoch has no prior writer, so
    /// its distance-1 frequency is zero), so profile-driven placement
    /// leaves it unsynchronized; an early-boundary run then violates on
    /// most epochs while runtime schemes adapt — the adversary for
    /// train/ref signal placement. Control depends only on the counter
    /// and a prologue constant, never on loaded values, so termination is
    /// preserved.
    fn emit_phase_shift(&mut self, fb: &mut FuncBuilder<'_>, trip: i64) {
        let boundary = fb.var("ps_boundary");
        // Bimodal: the data salt decides which phase dominates, flipping
        // the recurrence's profiled frequency between ~0 and ~75%.
        let late = self.data.gen_range(0, 2) == 1;
        let b = if late { trip - 1 } else { trip / 4 };
        fb.assign(boundary, b);
        let (i, latch, exit) = self.family_loop(fb, "phase", trip);
        let pc = fb.var("ps_pc");
        let a_blk = fb.block("ps_a");
        let b_blk = fb.block("ps_b");
        let join = fb.block("ps_j");
        fb.bin(pc, BinOp::Lt, i, boundary);
        fb.br(pc, a_blk, b_blk);
        // Phase A: frequent distance-1 dependence at a fixed address, plus
        // the store that seeds phase B's distance-2 chain.
        fb.switch_to(a_blk);
        let a = self.addr;
        fb.bin(a, BinOp::Add, Operand::Global(self.shared), 0);
        fb.load(self.scratch, a, 0);
        fb.bin(self.scratch, BinOp::Add, self.scratch, i);
        fb.store(self.scratch, a, 0);
        fb.bin(a, BinOp::And, i, ARR_WORDS - 1);
        fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        fb.store(Operand::Var(i), a, 0);
        fb.jump(join);
        // Phase B: the distance-2 read of `arr` (kept below the placement
        // threshold by `epochs_d1` filtering) and the phase-B-only
        // distance-1 recurrence on the second shared line.
        fb.switch_to(b_blk);
        fb.bin(a, BinOp::Sub, i, 2);
        fb.bin(a, BinOp::And, a, ARR_WORDS - 1);
        fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        fb.load(self.scratch, a, 0);
        fb.bin(self.scratch, BinOp::Mul, self.scratch, 3);
        fb.bin(a, BinOp::And, i, ARR_WORDS - 1);
        fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        fb.store(Operand::Var(self.scratch), a, 0);
        fb.bin(
            a,
            BinOp::Add,
            Operand::Global(self.shared),
            crate::LINE_WORDS,
        );
        fb.load(self.scratch, a, 0);
        fb.bin(self.scratch, BinOp::Add, self.scratch, i);
        fb.store(self.scratch, a, 0);
        fb.jump(join);
        fb.switch_to(join);
        let n = self.stmt_count();
        self.emit_private_filler(fb, n, i);
        self.inds.pop();
        fb.jump(latch);
        fb.switch_to(exit);
    }

    /// `false_sharing`: epoch `k` reads the never-stored word 0 of a
    /// dedicated line and stores to word `1 + (k mod (LINE_WORDS-1))` — no
    /// true dependence at word grain, a conflict every epoch at line grain.
    fn emit_false_sharing(&mut self, fb: &mut FuncBuilder<'_>, trip: i64) {
        let fs = self.fs.expect("false_sharing family allocates fs_line");
        let (i, latch, exit) = self.family_loop(fb, "fsl", trip);
        let a = self.addr;
        // Read the read-only mode word: at line grain this puts the whole
        // line into the epoch's read set.
        fb.bin(a, BinOp::Add, Operand::Global(fs), 0);
        fb.load(self.scratch, a, 0);
        // Store to a rotating *other* word of the same line.
        let slot = fb.var("fsl_slot");
        fb.bin(slot, BinOp::Rem, i, crate::LINE_WORDS - 1);
        fb.bin(slot, BinOp::Add, slot, 1);
        fb.bin(a, BinOp::Add, Operand::Global(fs), slot);
        fb.bin(self.scratch, BinOp::Add, self.scratch, i);
        fb.store(Operand::Var(self.scratch), a, 0);
        // Private epoch work.
        fb.bin(a, BinOp::Mul, i, crate::LINE_WORDS);
        fb.bin(a, BinOp::And, a, ARR_WORDS - 1);
        fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        fb.store(Operand::Var(i), a, 0);
        let n = self.stmt_count();
        self.emit_private_filler(fb, n, i);
        self.inds.pop();
        fb.jump(latch);
        fb.switch_to(exit);
    }

    /// `deep_clone`: the region's only dependence is the shared RMW at the
    /// bottom of the `chain0 → …` call chain.
    fn emit_deep_clone(&mut self, fb: &mut FuncBuilder<'_>, trip: i64, chain0: FuncId) {
        let (i, latch, exit) = self.family_loop(fb, "deep", trip);
        let dst = self.pool[3];
        fb.call(Some(dst), chain0, vec![Operand::Var(i)]);
        // Independent tail work the forwarded value should overlap.
        let a = self.addr;
        fb.bin(a, BinOp::Mul, i, crate::LINE_WORDS);
        fb.bin(a, BinOp::And, a, ARR_WORDS - 1);
        fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
        fb.store(Operand::Var(dst), a, 0);
        let n = self.stmt_count();
        self.emit_alu_stmts(fb, n);
        self.inds.pop();
        fb.jump(latch);
        fb.switch_to(exit);
    }

    /// `mixed_nests`: even nests are fully independent (line-strided
    /// private stores), odd nests carry a distance-1 shared RMW every
    /// epoch.
    fn emit_mixed_nest(&mut self, fb: &mut FuncBuilder<'_>, li: usize, trip: i64) {
        let (i, latch, exit) = self.family_loop(fb, &format!("nest{li}"), trip);
        let a = self.addr;
        if li.is_multiple_of(2) {
            // Independent: each epoch owns its line of `arr`.
            fb.bin(a, BinOp::Mul, i, crate::LINE_WORDS);
            fb.bin(a, BinOp::And, a, ARR_WORDS - 1);
            fb.bin(a, BinOp::Add, Operand::Global(self.arr), a);
            fb.load(self.scratch, a, 0);
            fb.bin(self.scratch, BinOp::Add, self.scratch, i);
            fb.store(Operand::Var(self.scratch), a, 0);
        } else {
            // Dependent: serialize on a hot shared slot.
            let slot = (li / 2) % SHARED_WORDS as usize;
            fb.bin(a, BinOp::Add, Operand::Global(self.shared), slot as i64);
            fb.load(self.scratch, a, 0);
            fb.bin(self.scratch, BinOp::Add, self.scratch, i);
            fb.store(Operand::Var(self.scratch), a, 0);
        }
        let n = self.stmt_count();
        self.emit_alu_stmts(fb, n);
        self.inds.pop();
        fb.jump(latch);
        fb.switch_to(exit);
    }

    /// Emit a data-dependent diamond: both arms rejoin, so control always
    /// converges regardless of (possibly speculatively wrong) data.
    fn emit_diamond(&mut self, fb: &mut FuncBuilder<'_>, name: &str) {
        let c = self.pool[self.rng.pick(self.pool.len())];
        let src = self.operand();
        fb.bin(c, BinOp::And, src, 1);
        let t = fb.block(format!("{name}_t"));
        let f = fb.block(format!("{name}_f"));
        let j = fb.block(format!("{name}_j"));
        fb.br(c, t, f);
        fb.switch_to(t);
        let n = 1 + self.rng.pick(3) as u32;
        self.emit_stmts(fb, n, true);
        fb.jump(j);
        fb.switch_to(f);
        let n = self.rng.pick(3) as u32;
        self.emit_stmts(fb, n, true);
        fb.jump(j);
        fb.switch_to(j);
    }

    /// Emit a counted loop with a random body; `depth` 0 is a top-level
    /// region candidate, deeper loops are plain nested loops.
    fn emit_loop(&mut self, fb: &mut FuncBuilder<'_>, name: &str, trip: i64, depth: u32) {
        let i = fb.var(format!("{name}_i"));
        let c = fb.var(format!("{name}_c"));
        fb.assign(i, 0);
        let head = fb.block(format!("{name}_head"));
        let body = fb.block(format!("{name}_body"));
        let latch = fb.block(format!("{name}_latch"));
        let exit = fb.block(format!("{name}_exit"));
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, trip);
        fb.br(c, body, exit);
        fb.switch_to(latch);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(body);

        self.inds.push(i);
        let mem_only = depth == 0 && self.rng.chance(self.cfg.mem_loop_prob);
        if mem_only {
            // No pool register is defined, so the counter (privatized by
            // the compiler) is the only carried scalar: the epochs overlap
            // freely and conflict through memory alone.
            let n = self.stmt_count() + self.stmt_count() / 2;
            self.emit_mem_stmts(fb, n);
        } else {
            let n = self.stmt_count();
            self.emit_stmts(fb, n, true);
            if depth == 0 {
                if self.rng.chance(self.cfg.inner_loop_prob) {
                    let trip = self
                        .rng
                        .gen_range(self.cfg.inner_trips.0, self.cfg.inner_trips.1 + 1);
                    self.emit_loop(fb, &format!("{name}_in"), trip, depth + 1);
                }
                if !self.helpers.is_empty() && self.rng.chance(self.cfg.call_prob) {
                    let h = self.helpers[self.rng.pick(self.helpers.len())];
                    let dst = self.pool[self.rng.pick(self.pool.len())];
                    let arg = self.operand();
                    fb.call(Some(dst), h, vec![arg]);
                }
            }
            if self.rng.chance(self.cfg.branch_prob) {
                self.emit_diamond(fb, &format!("{name}_d"));
            }
            let n = self.stmt_count() / 2;
            self.emit_stmts(fb, n, true);
        }
        self.inds.pop();

        fb.jump(latch);
        fb.switch_to(exit);
    }

    /// Emit the epilogue checksum: fold every word of both globals into the
    /// accumulator and emit it, so the final memory state is observable
    /// through the output stream as well as through the memory comparison.
    fn emit_checksum(&mut self, fb: &mut FuncBuilder<'_>) {
        let acc = self.pool[0];
        let tmp = self.pool[1];
        let mut targets = vec![
            (self.arr, ARR_WORDS, "ck_arr"),
            (self.shared, SHARED_WORDS, "ck_sh"),
        ];
        if let Some(fs) = self.fs {
            targets.push((fs, crate::LINE_WORDS, "ck_fs"));
        }
        for (base, words, name) in targets {
            let i = fb.var(format!("{name}_i"));
            let c = fb.var(format!("{name}_c"));
            fb.assign(i, 0);
            let head = fb.block(format!("{name}_head"));
            let body = fb.block(format!("{name}_body"));
            let exit = fb.block(format!("{name}_exit"));
            fb.jump(head);
            fb.switch_to(head);
            fb.bin(c, BinOp::Lt, i, words);
            fb.br(c, body, exit);
            fb.switch_to(body);
            fb.bin(self.addr, BinOp::Add, Operand::Global(base), i);
            fb.load(tmp, self.addr, 0);
            fb.bin(acc, BinOp::Mul, acc, 31);
            fb.bin(acc, BinOp::Xor, acc, tmp);
            fb.bin(i, BinOp::Add, i, 1);
            fb.jump(head);
            fb.switch_to(exit);
        }
        for &v in &self.pool {
            fb.output(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(123, &cfg, 0);
        let b = generate(123, &cfg, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn data_salt_changes_data_not_structure() {
        let cfg = GenConfig::default();
        let a = generate(7, &cfg, 0);
        let b = generate(7, &cfg, 1);
        // The CFG shape and every id must match (the profile-on-train modes
        // transfer profiles between the pair by loop header and sid); only
        // the input data — global initializers and prologue constants — may
        // differ.
        assert_eq!(a.funcs.len(), b.funcs.len());
        assert_eq!(a.next_sid, b.next_sid);
        for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
            assert_eq!(fa.blocks.len(), fb.blocks.len(), "{}", fa.name);
            for (ba, bb) in fa.blocks.iter().zip(&fb.blocks) {
                assert_eq!(ba.instrs.len(), bb.instrs.len());
                assert_eq!(ba.term, bb.term);
            }
        }
        assert_ne!(
            a.globals[0].init, b.globals[0].init,
            "data must depend on the salt"
        );
    }

    #[test]
    fn first_hundred_seeds_validate() {
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let m = generate(seed, &cfg, 0);
            validate(&m).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!m.funcs.is_empty() && m.static_instr_count() > 20);
        }
    }

    #[test]
    fn family_field_does_not_perturb_baseline() {
        // Adding the family knob must leave every baseline program
        // byte-identical: existing fuzz seeds and journals stay valid.
        let cfg = GenConfig {
            family: GenFamily::Baseline,
            ..GenConfig::default()
        };
        for seed in [0, 7, 123] {
            assert_eq!(
                generate(seed, &cfg, 0),
                generate(seed, &GenConfig::default(), 0)
            );
        }
    }

    #[test]
    fn all_families_generate_valid_epochful_modules() {
        for family in GenFamily::ALL {
            let cfg = GenConfig::for_family(family);
            for seed in 0..25 {
                let m = generate(seed, &cfg, 0);
                validate(&m).unwrap_or_else(|e| panic!("{}/{seed}: {e}", family.label()));
                crate::validate_epochs(&m)
                    .unwrap_or_else(|e| panic!("{}/{seed}: {e}", family.label()));
            }
        }
    }

    #[test]
    fn families_keep_structure_across_data_salts() {
        for family in GenFamily::ALL {
            let cfg = GenConfig::for_family(family);
            let a = generate(11, &cfg, 0);
            let b = generate(11, &cfg, 1);
            assert_eq!(a.next_sid, b.next_sid, "{}", family.label());
            assert_eq!(a.funcs.len(), b.funcs.len(), "{}", family.label());
            for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
                assert_eq!(fa.blocks.len(), fb.blocks.len(), "{}", fa.name);
                for (ba, bb) in fa.blocks.iter().zip(&fb.blocks) {
                    assert_eq!(ba.instrs.len(), bb.instrs.len());
                    assert_eq!(ba.term, bb.term);
                }
            }
        }
    }

    #[test]
    fn family_labels_round_trip() {
        for family in GenFamily::ALL {
            assert_eq!(GenFamily::parse(family.label()), Some(family));
        }
        assert_eq!(GenFamily::parse("nope"), None);
    }

    #[test]
    fn deep_clone_has_a_full_call_chain() {
        let cfg = GenConfig::for_family(GenFamily::DeepClone);
        let m = generate(0, &cfg, 0);
        let names: Vec<&str> = m.funcs.iter().map(|f| f.name.as_str()).collect();
        for k in 0..CLONE_DEPTH {
            assert!(
                names.contains(&format!("chain{k}").as_str()),
                "chain{k} missing from {names:?}"
            );
        }
    }

    #[test]
    fn validated_clamps_and_rejects() {
        let ok = GenConfig::default().validated().expect("default is fine");
        assert_eq!(ok.outer_trips, GenConfig::default().outer_trips);

        let clamped = GenConfig {
            outer_trips: (0, 12),
            region_loops: (0, 2),
            ..GenConfig::default()
        }
        .validated()
        .expect("clampable");
        assert_eq!(clamped.outer_trips.0, 2, "single-epoch floor");
        assert_eq!(clamped.region_loops.0, 1, "at least one loop");

        let e = GenConfig {
            outer_trips: (0, 1),
            ..GenConfig::default()
        }
        .validated()
        .unwrap_err();
        assert!(matches!(e, GenConfigError::TripTooSmall { .. }), "{e}");

        let e = GenConfig {
            region_loops: (0, 0),
            ..GenConfig::default()
        }
        .validated()
        .unwrap_err();
        assert_eq!(e, GenConfigError::NoRegionLoops);

        let e = GenConfig {
            outer_trips: (9, 3),
            ..GenConfig::default()
        }
        .validated()
        .unwrap_err();
        assert!(
            matches!(
                e,
                GenConfigError::EmptyRange {
                    knob: "outer_trips",
                    ..
                }
            ),
            "{e}"
        );
    }
}
