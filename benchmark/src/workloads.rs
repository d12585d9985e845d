//! The four workloads: what each sets up, and what one round of it runs.
//!
//! Every round goes through the repository's public API exactly as its
//! users do, checks its outputs, and folds them into a digest that must be
//! identical across rounds, thread counts and runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tls_experiments::fuzz::{self, Failure, FuzzConfig, SeedStats};
use tls_experiments::journal::{fnv64, fnv64_extend};
use tls_experiments::orchestrate::{self, CampaignSpec};
use tls_experiments::proto::{JobSpec, ShardStats};
use tls_experiments::{figures, metrics, par, Harness, Mode, Scale};
use tls_ir::{GenConfig, GenFamily, Module};
use tls_profile::{ArchOutcome, Interp, InterpConfig, NullObserver};
use tls_workloads::{InputSet, Workload};

use crate::stats::geomean;
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `repro all`: every figure over the 16 programs at the paper's scale.
    PaperRef,
    /// Long simulations of four programs at 16× iterations and 4× data.
    SimLong,
    /// Differential fuzzing of 1000 generated programs in-process.
    FuzzDiff,
    /// The same seeds through the multi-process campaign orchestrator.
    CampaignFuzz,
}

/// All workloads, in the order a full run measures them.
pub const KINDS: [Kind; 4] = [
    Kind::PaperRef,
    Kind::SimLong,
    Kind::FuzzDiff,
    Kind::CampaignFuzz,
];

impl Kind {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRef => "paper-ref",
            Kind::SimLong => "sim-long",
            Kind::FuzzDiff => "fuzz-diff",
            Kind::CampaignFuzz => "campaign-fuzz",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == s)
    }

    /// Process id of the workload's track in an exported trace.
    pub fn pid(self) -> u32 {
        KINDS.iter().position(|&k| k == self).expect("listed") as u32 + 1
    }
}

/// The programs sim-long simulates: the longest-running memory-bound ones.
const SIM_LONG_PROGRAMS: [&str; 4] = ["go", "gzip_decomp", "mcf", "parser"];
/// sim-long's modes: the baseline, the paper's compiler, hardware and
/// hybrid synchronization, and the adaptive controller.
const SIM_LONG_MODES: [Mode; 5] = [
    Mode::Unsync,
    Mode::CompilerRef,
    Mode::HwSync,
    Mode::Hybrid,
    Mode::Adaptive,
];
/// Modes whose region speedup is an end-to-end metric: the paper's
/// baseline, compiler (train and ref profiles), hardware and hybrid
/// synchronization, and the adaptive controller.
const SPEEDUP_MODES: [Mode; 6] = [
    Mode::Unsync,
    Mode::CompilerTrain,
    Mode::CompilerRef,
    Mode::HwSync,
    Mode::Hybrid,
    Mode::Adaptive,
];
/// Seeds per fuzz round, and seeds per campaign shard.
const FUZZ_SEEDS: u64 = 1000;
const SHARD: u64 = 25;
/// Seeds are `S·10⁶ + 1 ..`; the campaign protocol carries them as JSON
/// doubles, so they must stay below 2^53.
const SEED_STRIDE: u64 = 1_000_000;

/// Run-wide settings shared by every workload.
pub struct Params {
    /// Quick inputs, four paper programs, 20 seeds, shards of 5, no
    /// warm-up: a configuration that runs in seconds, for tests.
    pub smoke: bool,
    /// The workload seed.
    pub seed: u64,
    /// Threads and campaign workers: `min(2, nproc)`.
    pub jobs: usize,
    /// Scratch directory for campaign journals, inside the checkout.
    pub tmp: PathBuf,
    /// This benchmark's own executable (campaign worker, reference task).
    pub exe: String,
}

impl Params {
    /// Command that starts a campaign worker.
    pub fn worker_cmd(&self) -> Vec<String> {
        vec![self.exe.clone(), "worker".into()]
    }

    /// The fuzz seeds this run checks.
    pub fn seeds(&self) -> Result<Vec<u64>, String> {
        let n = if self.smoke { 20 } else { FUZZ_SEEDS };
        let base = self
            .seed
            .checked_mul(SEED_STRIDE)
            .filter(|b| b + n < 1 << 53)
            .ok_or_else(|| {
                format!(
                    "--seed {} is too large (seeds must stay below 2^53)",
                    self.seed
                )
            })?;
        Ok((1..=n).map(|i| base + i).collect())
    }

    /// Seeds per campaign shard.
    pub fn shard_size(&self) -> u64 {
        if self.smoke {
            5
        } else {
            SHARD
        }
    }

    /// Scale of paper-ref's programs.
    pub fn paper_scale(&self) -> Scale {
        if self.smoke {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scale of sim-long's programs.
    pub fn long_scale(&self) -> Scale {
        if self.smoke {
            Scale::Quick
        } else {
            Scale::Scaled(tls_workloads::Scale::new(16, 4).expect("nonzero multipliers"))
        }
    }
}

/// The generator and checker settings of both fuzz workloads; campaign
/// workers build the same from `JobSpec::Fuzz { Baseline, false }`.
pub fn fuzz_config() -> FuzzConfig {
    FuzzConfig {
        gen: GenConfig::for_family(GenFamily::Baseline),
        ..FuzzConfig::default()
    }
}

/// The module a harness measures at `scale` and the one it profiles for
/// `T` (`None`: the measured one), mirroring `Harness::new`.
pub fn harness_inputs(w: &Workload, scale: Scale) -> (Module, Option<Module>) {
    match scale {
        Scale::Quick => (w.module(InputSet::Train), None),
        Scale::ScaledQuick(ws) => (w.module_scaled(InputSet::Train, ws), None),
        Scale::Full => (w.module(InputSet::Ref), Some(w.module(InputSet::Train))),
        Scale::Scaled(ws) => (
            w.module_scaled(InputSet::Ref, ws),
            Some(w.module(InputSet::Train)),
        ),
    }
}

/// The named programs of paper-ref and sim-long (the smoke configuration
/// keeps paper-ref to the first four, so a debug build gets through it in
/// seconds).
pub fn programs(kind: Kind, p: &Params) -> Vec<Workload> {
    match kind {
        Kind::SimLong => SIM_LONG_PROGRAMS
            .iter()
            .map(|n| tls_workloads::by_name(n).expect("registered workload"))
            .collect(),
        _ if p.smoke => tls_workloads::all().into_iter().take(4).collect(),
        _ => tls_workloads::all(),
    }
}

/// What set-up produced: inputs plus reference results from the
/// sequential interpreter, which is independent of the simulator.
pub enum State {
    /// paper-ref: the programs and each one's sequential outcome.
    Paper {
        /// Programs in registry order.
        programs: Vec<Workload>,
        /// Interpreter outcome of each program's measured input.
        reference: Vec<ArchOutcome>,
    },
    /// sim-long: compiled harnesses, already checked against the
    /// interpreter.
    Long {
        /// One harness per program.
        harnesses: Vec<Harness>,
    },
    /// Both fuzz workloads: the seeds and the interpreter's total dynamic
    /// instruction count over their measured programs.
    Fuzz {
        /// Seeds, in order.
        seeds: Vec<u64>,
        /// Sum of the interpreter's step counts.
        oracle_steps: u64,
    },
}

/// Build a workload's inputs and reference results.
///
/// # Errors
/// Any input that cannot be built, compiled or interpreted, or a
/// simulated sequential baseline that differs from the interpreter.
pub fn setup(kind: Kind, p: &Params) -> Result<State, String> {
    match kind {
        Kind::PaperRef => {
            let programs = programs(kind, p);
            let reference = programs
                .iter()
                .map(|w| {
                    let (measure, _) = harness_inputs(w, p.paper_scale());
                    ArchOutcome::of(&measure, InterpConfig::default())
                        .map_err(|e| format!("{}: interpreter: {e}", w.name))
                })
                .collect::<Result<_, _>>()?;
            Ok(State::Paper {
                programs,
                reference,
            })
        }
        Kind::SimLong => {
            let mut harnesses = Vec::new();
            for w in programs(kind, p) {
                let (measure, _) = harness_inputs(&w, p.long_scale());
                let reference = ArchOutcome::of(&measure, InterpConfig::default())
                    .map_err(|e| format!("{}: interpreter: {e}", w.name))?;
                let h = Harness::new(w, p.long_scale()).map_err(|e| e.to_string())?;
                if let Some(d) = baseline_diff(&h, &reference) {
                    return Err(d);
                }
                harnesses.push(h);
            }
            Ok(State::Long { harnesses })
        }
        Kind::FuzzDiff | Kind::CampaignFuzz => {
            let cfg = fuzz_config();
            let seeds = p.seeds()?;
            let mut oracle_steps = 0;
            for &s in &seeds {
                let m = tls_ir::generate(s, &cfg.gen, 0);
                tls_ir::validate_epochs(&m).map_err(|e| format!("seed {s}: {e}"))?;
                let interp = InterpConfig {
                    max_steps: cfg.max_interp_steps,
                    ..InterpConfig::default()
                };
                oracle_steps += Interp::new(&m, interp)
                    .run(&mut NullObserver)
                    .map_err(|e| format!("seed {s}: interpreter: {e}"))?
                    .steps;
            }
            Ok(State::Fuzz {
                seeds,
                oracle_steps,
            })
        }
    }
}

/// How a harness's simulated sequential baseline differs from the
/// interpreter's outcome, if it does.
pub fn baseline_diff(h: &Harness, reference: &ArchOutcome) -> Option<String> {
    reference
        .diff_outside(&h.seq.output, h.seq.ret, &h.seq.memory, &h.scratch)
        .map(|d| {
            format!(
                "{}: simulated sequential baseline differs from the interpreter: {d}",
                h.name
            )
        })
}

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted: mode runs, or seeds.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of every simulated result of the round.
    pub digest: u64,
    /// Failures and check violations, for the report.
    pub problems: Vec<String>,
}

impl Round {
    fn problem(&mut self, failed_ops: u64, what: String) {
        self.failed += failed_ops;
        self.problems.push(what);
    }
}

/// Run one round of `kind` on `jobs` threads (campaign: workers). With a
/// recording tracer the round is serial and spans every call into a layer.
pub fn round(kind: Kind, st: &State, p: &Params, tr: &mut Tracer, jobs: usize) -> Round {
    par::set_jobs(jobs);
    match st {
        State::Paper {
            programs,
            reference,
        } => paper_round(programs, reference, p.paper_scale(), tr),
        State::Long { harnesses } => long_round(harnesses, tr),
        State::Fuzz {
            seeds,
            oracle_steps,
        } if kind == Kind::CampaignFuzz => campaign_round(seeds, *oracle_steps, p, tr, jobs),
        State::Fuzz {
            seeds,
            oracle_steps,
        } => fuzz_round(seeds, *oracle_steps, tr),
    }
}

/// Count and total seconds of registry spans whose last path component is
/// `leaf`.
pub fn registry_spans(leaf: &str) -> (u64, f64) {
    metrics::snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .fold((0, 0.0), |(n, s), (_, st)| {
            (n + st.count, s + st.total_ms / 1e3)
        })
}

/// Registry counter value (0 if never incremented).
pub fn registry_counter(name: &str) -> u64 {
    metrics::snapshot().counters.get(name).copied().unwrap_or(0)
}

fn paper_round(
    programs: &[Workload],
    reference: &[ArchOutcome],
    scale: Scale,
    tr: &mut Tracer,
) -> Round {
    let mut r = Round::default();
    // `Harness` records one `sim` registry span per mode run, whichever
    // figure issued it.
    let runs_before = registry_spans("sim").0;
    let prepared = if tr.is_on() {
        programs
            .iter()
            .map(|w| tr.span("harness.new", w.name, |_| Harness::new(*w, scale)))
            .collect()
    } else {
        Harness::prepare_all(programs, scale)
    };
    let mut digest = fnv64(b"paper-ref");
    match prepared {
        Err(e) => r.problem(1, format!("prepare: {e}")),
        Ok(hs) => {
            for (h, reference) in hs.iter().zip(reference) {
                if let Some(d) = baseline_diff(h, reference) {
                    r.problem(1, d);
                }
                digest = fnv64_extend(
                    digest,
                    format!("{} {}\n", h.name, h.seq.total_cycles).as_bytes(),
                );
            }
            for target in figures::TARGETS {
                let table = tr.span(&format!("figures.{target}"), "", |_| {
                    figures::by_name(target, &hs)
                });
                match table.expect("TARGETS lists known targets") {
                    Ok(t) => digest = fnv64_extend(digest, t.to_string().as_bytes()),
                    Err(e) => r.problem(1, format!("{target}: {e}")),
                }
            }
        }
    }
    r.ops = (registry_spans("sim").0 - runs_before).max(r.failed);
    r.digest = digest;
    r
}

fn long_round(harnesses: &[Harness], tr: &mut Tracer) -> Round {
    let mut r = Round {
        digest: fnv64(b"sim-long"),
        ..Round::default()
    };
    for h in harnesses {
        for mode in SIM_LONG_MODES {
            r.ops += 1;
            let detail = format!("{}/{}", h.name, mode.label());
            match tr.span("harness.run", detail.as_str(), |_| h.run(mode)) {
                Ok(res) => {
                    let line = format!("{detail} {} {}\n", res.total_cycles, res.total_violations);
                    r.digest = fnv64_extend(r.digest, line.as_bytes());
                }
                Err(e) => r.problem(1, e.to_string()),
            }
        }
    }
    r
}

/// Fold one seed's verdict into shard stats exactly as a campaign worker
/// does, so in-process and orchestrated results compare equal.
pub fn fold_seed(stats: &mut ShardStats, seed: u64, outcome: &Result<SeedStats, Failure>) {
    match outcome {
        Ok(st) => {
            stats.regions += u64::from(st.regions > 0);
            stats.sync_loads += u64::from(st.sync_loads > 0);
            stats.violations += st.violations;
            stats.oracle_steps += st.oracle_steps;
        }
        Err(_) => stats.failed.push(seed),
    }
    stats.seeds += 1;
}

fn check_fuzz_stats(r: &mut Round, stats: &ShardStats, seeds: &[u64], oracle_steps: u64) {
    r.ops = seeds.len() as u64;
    r.digest = fnv64(stats.to_json().as_bytes());
    if stats.failed.is_empty() && stats.errored.is_empty() && stats.oracle_steps != oracle_steps {
        r.problems.push(format!(
            "checked programs ran {} oracle steps, the set-up interpreter {oracle_steps}",
            stats.oracle_steps
        ));
    }
}

fn fuzz_round(seeds: &[u64], oracle_steps: u64, tr: &mut Tracer) -> Round {
    let cfg = fuzz_config();
    let outcomes: Vec<Result<SeedStats, Failure>> = if tr.is_on() {
        seeds
            .iter()
            .map(|&s| {
                tr.span("fuzz.check_seed", s.to_string(), |_| {
                    fuzz::check_seed(s, &cfg)
                })
            })
            .collect()
    } else {
        par::par_map(seeds.to_vec(), |_, s| fuzz::check_seed(s, &cfg))
    };
    let mut r = Round::default();
    let mut stats = ShardStats::default();
    for (&s, o) in seeds.iter().zip(&outcomes) {
        fold_seed(&mut stats, s, o);
        if let Err(f) = o {
            r.problem(1, format!("seed {s}: {f}"));
        }
    }
    check_fuzz_stats(&mut r, &stats, seeds, oracle_steps);
    r
}

/// Campaign directories are fresh every round, so no round resumes
/// another's journal.
static CAMPAIGN_ID: AtomicU64 = AtomicU64::new(0);

fn campaign_round(
    seeds: &[u64],
    oracle_steps: u64,
    p: &Params,
    tr: &mut Tracer,
    workers: usize,
) -> Round {
    let dir = p.tmp.join(format!(
        "campaign-{}",
        CAMPAIGN_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let spec = CampaignSpec {
        kind: JobSpec::Fuzz {
            family: GenFamily::Baseline,
            break_forwarding: false,
        },
        seed0: seeds[0],
        total: seeds.len() as u64,
        shard_size: p.shard_size(),
        workers,
        max_attempts: 3,
        worker_failure_budget: 2,
        job_deadline: Duration::from_secs(600),
        heartbeat_timeout: Duration::from_secs(120),
        backoff_base: Duration::from_millis(200),
        backoff_cap: Duration::from_millis(5000),
        artifacts: dir.clone(),
        resume: false,
        worker_cmd: p.worker_cmd(),
        crash_shard: None,
        crash_every_attempt: false,
        die_after_checkpoints: None,
    };
    let trouble_before =
        registry_counter("campaign.retries") + registry_counter("campaign.worker_deaths");
    let report = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| {
            tr.span("orchestrate.run_campaign", "", |_| {
                orchestrate::run_campaign(&spec)
            })
        });
    let _ = std::fs::remove_dir_all(&dir);
    let mut r = Round::default();
    match report {
        Err(e) => r.problem(seeds.len() as u64, format!("campaign: {e}")),
        Ok(rep) => {
            let lost = seeds.len() as u64 - rep.merged.seeds;
            let bad = rep.merged.failed.len() + rep.merged.errored.len();
            if rep.failed() || rep.partial() {
                r.problem(bad as u64 + lost, rep.summary());
            }
            let trouble = registry_counter("campaign.retries")
                + registry_counter("campaign.worker_deaths")
                - trouble_before;
            if trouble > 0 {
                r.problems
                    .push(format!("{trouble} shard retries or worker deaths"));
            }
            check_fuzz_stats(&mut r, &rep.merged, seeds, oracle_steps);
        }
    }
    r.ops = seeds.len() as u64;
    r
}

/// The modelled machine's region speedup under each of [`SPEEDUP_MODES`]:
/// the geometric mean over the workload's programs of sequential region
/// cycles over the mode's region cycles, as `(metric name, value)`. It
/// depends on the programs only, so it repeats exactly for a seed.
///
/// # Errors
/// The first program that fails to prepare or run.
pub fn region_speedups(st: &State, p: &Params) -> Result<Vec<(String, f64)>, String> {
    par::set_jobs(p.jobs);
    let rows: Vec<Result<Vec<f64>, String>> = match st {
        State::Paper { programs, .. } => par::par_map(programs.clone(), |_, w| {
            speedups(&Harness::new(w, p.paper_scale()).map_err(|e| e.to_string())?)
        }),
        State::Long { harnesses } => par::par_map(harnesses.iter().collect(), |_, h| speedups(h)),
        State::Fuzz { seeds, .. } => {
            let cfg = fuzz_config();
            par::par_map(seeds.clone(), |_, s| {
                let measure = tls_ir::generate(s, &cfg.gen, 0);
                let train = tls_ir::generate(s, &cfg.gen, 1);
                let mut h = Harness::from_modules(
                    s.to_string(),
                    &measure,
                    Some(&train),
                    &cfg.compile_options(),
                )
                .map_err(|e| format!("seed {s}: {e}"))?;
                h.base.max_steps = cfg.max_sim_steps;
                speedups(&h)
            })
        }
    };
    let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SPEEDUP_MODES
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let per_program: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            (
                format!("region_speedup.{}", m.label()),
                geomean(&per_program),
            )
        })
        .collect())
}

fn speedups(h: &Harness) -> Result<Vec<f64>, String> {
    SPEEDUP_MODES
        .iter()
        .map(|&m| {
            h.run(m)
                .map(|r| h.program_stats(m, &r).region_speedup)
                .map_err(|e| e.to_string())
        })
        .collect()
}
