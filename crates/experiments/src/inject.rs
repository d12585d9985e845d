//! Seeded fault-injection campaigns against the TLS correctness contract.
//!
//! A campaign takes a prepared [`Harness`], one [`Mode`], and a block of
//! consecutive plan seeds. Each plan perturbs exactly one
//! [`tls_sim::FaultClass`] (classes cycle through the chosen [`Partition`]
//! so every class gets equal coverage), and the class's partition decides
//! how the run is judged:
//!
//! * **maskable** classes are perturbations the §2.2 recovery machinery
//!   must absorb: the run is checked against the sequential baseline and
//!   only cycles may degrade ([`PlanOutcome::Masked`]);
//! * **contract-breaking** classes corrupt state the protocol has no net
//!   under: the run is *not* checked architecturally, but its recorded
//!   event stream must be rejected by [`Harness::check_conformance`]
//!   ([`PlanOutcome::Rejected`]) — proving the checker is not vacuous.
//!
//! Workers run under [`par::par_map_isolated`], so a panicking plan (or the
//! deliberate [`InjectConfig::panic_on_plan`] mutation used by CI to prove
//! isolation) becomes one structured [`par::RunError`] while the rest of
//! the campaign completes. The aggregate [`DegradationReport`] carries the
//! per-class squashes-added / cycles-lost breakdown and a [soundness
//! verdict](DegradationReport::sound).

use tls_sim::{json, FaultClass, FaultPlan, NullTracer, RecordingTracer};

use crate::par::{self, RunError};
use crate::report::Table;
use crate::{ExperimentError, Harness, Mode};

/// Which fault classes a campaign draws from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partition {
    /// The seven maskable classes ([`FaultClass::MASKABLE`]).
    Maskable,
    /// The three contract-breaking classes ([`FaultClass::CONTRACT`]).
    Contract,
    /// Every class, maskable first.
    Both,
    /// An explicit class list (`--faults drop-signal,evict-line`).
    Classes(Vec<FaultClass>),
}

impl Partition {
    /// The classes the campaign cycles through, in a fixed order.
    pub fn classes(&self) -> Vec<FaultClass> {
        match self {
            Partition::Maskable => FaultClass::MASKABLE.to_vec(),
            Partition::Contract => FaultClass::CONTRACT.to_vec(),
            Partition::Both => FaultClass::ALL.to_vec(),
            Partition::Classes(cs) => cs.clone(),
        }
    }

    /// Parse a `--faults` argument: `maskable`, `contract`, `both`, or a
    /// comma-separated list of class names ([`FaultClass::from_name`]).
    ///
    /// # Errors
    /// A usage message naming the unknown class.
    pub fn parse(s: &str) -> Result<Partition, String> {
        match s {
            "maskable" => Ok(Partition::Maskable),
            "contract" => Ok(Partition::Contract),
            "both" => Ok(Partition::Both),
            list => {
                let mut classes = Vec::new();
                for name in list.split(',') {
                    classes.push(FaultClass::from_name(name).ok_or_else(|| {
                        format!(
                            "unknown fault class `{name}` (expected maskable, contract, both, \
                             or a comma-separated list of class names)"
                        )
                    })?);
                }
                if classes.is_empty() {
                    return Err("empty fault class list".into());
                }
                Ok(Partition::Classes(classes))
            }
        }
    }
}

/// Knobs of one campaign besides the harness, mode and seed block.
#[derive(Clone, Debug)]
pub struct InjectConfig {
    /// Per-decision injection probability of each plan.
    pub rate: f64,
    /// Maximum injections per plan.
    pub budget: u64,
    /// The fault classes to draw from.
    pub partition: Partition,
    /// Deliberately panic the worker of this plan *index* (not seed) — the
    /// CI mutation proving panic isolation: the campaign must complete
    /// with exactly one [`RunError`].
    pub panic_on_plan: Option<u64>,
}

impl Default for InjectConfig {
    fn default() -> Self {
        Self {
            // A handful of injections per run keeps each plan's blast
            // radius attributable while still exercising recovery.
            rate: 0.05,
            budget: 8,
            partition: Partition::Both,
            panic_on_plan: None,
        }
    }
}

/// How one fault plan's run was judged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanOutcome {
    /// The plan never fired (no protocol point of its class was reached).
    Dormant,
    /// Maskable plan fired and the run still matched the sequential
    /// baseline byte-for-byte — the recovery machinery absorbed it.
    Masked,
    /// Maskable plan corrupted architectural state: **unsound**.
    Diverged(String),
    /// Maskable plan killed the simulation with a typed error: **unsound**
    /// (absorbing means finishing).
    Faulted(String),
    /// Contract-breaking plan was caught — by the protocol model rejecting
    /// the event stream, or by the simulator failing with a typed error.
    Rejected(String),
    /// Contract-breaking plan fired yet the conformance checker accepted
    /// the stream: **unsound** (the checker would be vacuous).
    Undetected,
}

/// One fault plan's result within a campaign.
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The plan's seed ([`FaultPlan::seeded`]).
    pub plan_seed: u64,
    /// The single class this plan perturbs.
    pub class: FaultClass,
    /// Injections that actually fired.
    pub injected: u64,
    /// Total simulated cycles (0 when the run died before finishing).
    pub cycles: u64,
    /// Squashed epochs during the run.
    pub squashes: u64,
    /// The judgement.
    pub outcome: PlanOutcome,
}

/// Aggregate campaign outcome: baseline, per-plan results, and the
/// structured failures of workers that died.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Workload name.
    pub bench: String,
    /// Mode label.
    pub mode: String,
    /// Fault-free cycles of the same (bench, mode) run.
    pub baseline_cycles: u64,
    /// Fault-free squash count of the same run.
    pub baseline_squashes: u64,
    /// Per-plan judgements, in seed order (panicked plans are absent here
    /// and present in [`DegradationReport::errors`] instead).
    pub results: Vec<PlanResult>,
    /// Workers that panicked, one entry each; the rest of the campaign
    /// still completed.
    pub errors: Vec<RunError>,
}

/// Per-class aggregation row of a [`DegradationReport`].
#[derive(Clone, Debug, Default)]
struct ClassAgg {
    plans: u64,
    fired: u64,
    injected: u64,
    masked: u64,
    rejected: u64,
    dormant: u64,
    unsound: u64,
    cycles_lost: u64,
    squashes_added: u64,
}

impl DegradationReport {
    /// Campaign soundness: every maskable plan absorbed, every fired
    /// contract-breaking plan caught, and at least one plan fired at all
    /// (a campaign where nothing fires proves nothing).
    ///
    /// # Errors
    /// A description of the first soundness violation.
    pub fn sound(&self) -> Result<(), String> {
        for r in &self.results {
            match &r.outcome {
                PlanOutcome::Dormant | PlanOutcome::Masked | PlanOutcome::Rejected(_) => {}
                PlanOutcome::Diverged(d) => {
                    return Err(format!(
                        "maskable plan {} ({}) corrupted architectural state: {d}",
                        r.plan_seed,
                        r.class.name()
                    ));
                }
                PlanOutcome::Faulted(d) => {
                    return Err(format!(
                        "maskable plan {} ({}) killed the simulation: {d}",
                        r.plan_seed,
                        r.class.name()
                    ));
                }
                PlanOutcome::Undetected => {
                    return Err(format!(
                        "contract-breaking plan {} ({}) fired {} time(s) but the \
                         conformance checker accepted the stream",
                        r.plan_seed,
                        r.class.name(),
                        r.injected
                    ));
                }
            }
        }
        if !self.results.is_empty() && self.results.iter().all(|r| r.injected == 0) {
            return Err("vacuous campaign: no plan fired a single fault".into());
        }
        Ok(())
    }

    fn aggregate(&self) -> Vec<(FaultClass, ClassAgg)> {
        let mut by_class: Vec<(FaultClass, ClassAgg)> = Vec::new();
        for r in &self.results {
            let agg = match by_class.iter_mut().find(|(c, _)| *c == r.class) {
                Some((_, a)) => a,
                None => {
                    by_class.push((r.class, ClassAgg::default()));
                    &mut by_class.last_mut().expect("just pushed").1
                }
            };
            agg.plans += 1;
            agg.fired += u64::from(r.injected > 0);
            agg.injected += r.injected;
            match &r.outcome {
                PlanOutcome::Dormant => agg.dormant += 1,
                PlanOutcome::Masked => agg.masked += 1,
                PlanOutcome::Rejected(_) => agg.rejected += 1,
                PlanOutcome::Diverged(_) | PlanOutcome::Faulted(_) | PlanOutcome::Undetected => {
                    agg.unsound += 1;
                }
            }
            agg.cycles_lost += r.cycles.saturating_sub(self.baseline_cycles);
            agg.squashes_added += r.squashes.saturating_sub(self.baseline_squashes);
        }
        by_class
    }

    /// The per-fault-class degradation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("fault injection: {}/{}", self.bench, self.mode),
            &[
                "class",
                "plans",
                "fired",
                "injected",
                "masked",
                "rejected",
                "unsound",
                "squashes+",
                "cycles+",
            ],
        );
        for (class, a) in self.aggregate() {
            t.row(vec![
                class.name().into(),
                a.plans.to_string(),
                a.fired.to_string(),
                a.injected.to_string(),
                a.masked.to_string(),
                a.rejected.to_string(),
                a.unsound.to_string(),
                a.squashes_added.to_string(),
                a.cycles_lost.to_string(),
            ]);
        }
        t
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let fired: u64 = self.results.iter().map(|r| r.injected).sum();
        format!(
            "{} plan(s) on {}/{}: {} injection(s), {} masked, {} rejected, {} dormant, \
             {} worker error(s); {}",
            self.results.len() + self.errors.len(),
            self.bench,
            self.mode,
            fired,
            self.results
                .iter()
                .filter(|r| r.outcome == PlanOutcome::Masked)
                .count(),
            self.results
                .iter()
                .filter(|r| matches!(r.outcome, PlanOutcome::Rejected(_)))
                .count(),
            self.results
                .iter()
                .filter(|r| r.outcome == PlanOutcome::Dormant)
                .count(),
            self.errors.len(),
            match self.sound() {
                Ok(()) => "campaign sound".into(),
                Err(e) => format!("UNSOUND: {e}"),
            }
        )
    }

    /// JSON rendering: identity, soundness, per-class aggregates and worker
    /// errors.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("bench", &self.bench)
                .str("mode", &self.mode)
                .raw("baseline_cycles", self.baseline_cycles)
                .raw("baseline_squashes", self.baseline_squashes)
                .raw("sound", self.sound().is_ok())
                .arr("classes", |w| {
                    for (class, a) in self.aggregate() {
                        w.item_obj(|w| {
                            w.str("class", class.name())
                                .raw("plans", a.plans)
                                .raw("fired", a.fired)
                                .raw("injected", a.injected)
                                .raw("masked", a.masked)
                                .raw("rejected", a.rejected)
                                .raw("dormant", a.dormant)
                                .raw("unsound", a.unsound)
                                .raw("squashes_added", a.squashes_added)
                                .raw("cycles_lost", a.cycles_lost);
                        });
                    }
                })
                .arr("errors", |w| {
                    for e in &self.errors {
                        w.item_obj(|w| {
                            w.raw("index", e.index)
                                .str("label", &e.label)
                                .str("detail", &e.detail);
                        });
                    }
                });
        })
    }
}

/// Run one plan and judge it by its class's partition. Crate-visible so the
/// campaign worker ([`crate::worker`]) can run shard-sized plan ranges with
/// exactly the judging a single-process campaign applies.
pub(crate) fn run_plan(
    h: &Harness,
    mode: Mode,
    seed: u64,
    class: FaultClass,
    cfg: &InjectConfig,
) -> PlanResult {
    let plan = FaultPlan::seeded(seed, &[class], cfg.rate, cfg.budget);
    let mut out = PlanResult {
        plan_seed: seed,
        class,
        injected: 0,
        cycles: 0,
        squashes: 0,
        outcome: PlanOutcome::Dormant,
    };
    if class.is_maskable() {
        match h.run_faulted(mode, plan, true, &mut NullTracer) {
            Ok(r) => {
                out.injected = r.faults.count(class);
                out.cycles = r.total_cycles;
                out.squashes = r.total_violations;
                out.outcome = if out.injected > 0 {
                    PlanOutcome::Masked
                } else {
                    PlanOutcome::Dormant
                };
            }
            Err(ExperimentError::WrongOutput { detail, .. }) => {
                out.outcome = PlanOutcome::Diverged(detail);
            }
            Err(e) => out.outcome = PlanOutcome::Faulted(e.to_string()),
        }
    } else {
        let mut rec = RecordingTracer::default();
        match h.run_faulted(mode, plan, false, &mut rec) {
            Ok(r) => {
                out.injected = r.faults.count(class);
                out.cycles = r.total_cycles;
                out.squashes = r.total_violations;
                out.outcome = if out.injected == 0 {
                    PlanOutcome::Dormant
                } else {
                    match h.check_conformance(mode, &rec.events) {
                        Err(e) => PlanOutcome::Rejected(e.to_string()),
                        Ok(_) => PlanOutcome::Undetected,
                    }
                };
            }
            // A typed simulation failure is a *detection*: the corrupted
            // protocol state surfaced as an error instead of silently
            // committing wrong results.
            Err(e) => out.outcome = PlanOutcome::Rejected(format!("typed failure: {e}")),
        }
    }
    out
}

/// Run `plans` seeded fault plans (seeds `seed0..seed0+plans`) against one
/// (harness, mode) pair, fanning out over the isolated worker pool.
///
/// # Errors
/// Only the fault-free baseline run can fail the campaign as a whole;
/// per-plan failures are recorded in the report and judged by
/// [`DegradationReport::sound`].
pub fn run_campaign(
    h: &Harness,
    mode: Mode,
    seed0: u64,
    plans: u64,
    cfg: &InjectConfig,
) -> Result<DegradationReport, ExperimentError> {
    let campaign = std::time::Instant::now();
    let baseline = h.run_traced(mode, &mut NullTracer)?;
    let classes = cfg.partition.classes();
    let items: Vec<(u64, FaultClass)> = (0..plans)
        .map(|k| (seed0.wrapping_add(k), classes[(k as usize) % classes.len()]))
        .collect();
    let outcomes = par::par_map_isolated(
        items,
        |_, (seed, class)| {
            format!(
                "{}/{} plan {} ({})",
                h.name,
                mode.label(),
                seed,
                class.name()
            )
        },
        |k, (seed, class)| {
            if cfg.panic_on_plan == Some(k as u64) {
                panic!("deliberate worker panic on plan {k} (panic_on_plan)");
            }
            run_plan(h, mode, seed, class, cfg)
        },
    );
    let mut report = DegradationReport {
        bench: h.name.clone(),
        mode: mode.label(),
        baseline_cycles: baseline.total_cycles,
        baseline_squashes: baseline.total_violations,
        results: Vec::new(),
        errors: Vec::new(),
    };
    for o in outcomes {
        match o {
            Ok(r) => report.results.push(r),
            Err(e) => report.errors.push(e),
        }
    }
    crate::metrics::set_gauge(
        "inject.plans_per_sec",
        plans as f64 / campaign.elapsed().as_secs_f64().max(1e-9),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_parsing_round_trips() {
        assert_eq!(Partition::parse("maskable"), Ok(Partition::Maskable));
        assert_eq!(Partition::parse("contract"), Ok(Partition::Contract));
        assert_eq!(Partition::parse("both"), Ok(Partition::Both));
        assert_eq!(
            Partition::parse("drop-signal,evict-line"),
            Ok(Partition::Classes(vec![
                FaultClass::DropSignal,
                FaultClass::EvictLine
            ]))
        );
        assert!(Partition::parse("no-such-class").is_err());
        assert_eq!(
            Partition::Maskable.classes().len(),
            FaultClass::MASKABLE.len()
        );
        assert_eq!(Partition::Both.classes().len(), FaultClass::ALL.len());
    }

    fn plan(class: FaultClass, injected: u64, outcome: PlanOutcome) -> PlanResult {
        PlanResult {
            plan_seed: 1,
            class,
            injected,
            cycles: 1_000,
            squashes: 2,
            outcome,
        }
    }

    fn report(results: Vec<PlanResult>) -> DegradationReport {
        DegradationReport {
            bench: "synthetic".into(),
            mode: "C".into(),
            baseline_cycles: 900,
            baseline_squashes: 1,
            results,
            errors: Vec::new(),
        }
    }

    #[test]
    fn soundness_verdicts() {
        let ok = report(vec![
            plan(FaultClass::DropSignal, 3, PlanOutcome::Masked),
            plan(FaultClass::EvictLine, 0, PlanOutcome::Dormant),
            plan(
                FaultClass::SuppressViolation,
                1,
                PlanOutcome::Rejected("missed".into()),
            ),
        ]);
        assert!(ok.sound().is_ok(), "{:?}", ok.sound());

        let diverged = report(vec![plan(
            FaultClass::DropSignal,
            1,
            PlanOutcome::Diverged("memory".into()),
        )]);
        assert!(diverged.sound().is_err());

        let undetected = report(vec![plan(
            FaultClass::SuppressViolation,
            2,
            PlanOutcome::Undetected,
        )]);
        assert!(undetected.sound().is_err());

        let vacuous = report(vec![plan(FaultClass::DropSignal, 0, PlanOutcome::Dormant)]);
        assert!(vacuous.sound().unwrap_err().contains("vacuous"));
    }

    #[test]
    fn report_json_is_byte_stable() {
        let mut r = report(vec![
            plan(FaultClass::DropSignal, 3, PlanOutcome::Masked),
            plan(FaultClass::DropSignal, 0, PlanOutcome::Dormant),
            plan(
                FaultClass::CorruptCommitWrite,
                1,
                PlanOutcome::Rejected("wb".into()),
            ),
        ]);
        r.errors.push(RunError {
            index: 4,
            label: "synthetic/C plan 5 (\"x\")".into(),
            detail: "deliberate\tpanic\n".into(),
        });
        assert_eq!(
            r.to_json(),
            r#"{"bench":"synthetic","mode":"C","baseline_cycles":900,"baseline_squashes":1,"sound":true,"classes":[{"class":"drop-signal","plans":2,"fired":1,"injected":3,"masked":1,"rejected":0,"dormant":1,"unsound":0,"squashes_added":2,"cycles_lost":200},{"class":"corrupt-commit-write","plans":1,"fired":1,"injected":1,"masked":0,"rejected":1,"dormant":0,"unsound":0,"squashes_added":1,"cycles_lost":100}],"errors":[{"index":4,"label":"synthetic/C plan 5 (\"x\")","detail":"deliberate\tpanic\n"}]}"#
        );
        assert_eq!(
            report(Vec::new()).to_json(),
            r#"{"bench":"synthetic","mode":"C","baseline_cycles":900,"baseline_squashes":1,"sound":true,"classes":[],"errors":[]}"#
        );
    }

    #[test]
    fn report_renders_table_and_json() {
        let r = report(vec![
            plan(FaultClass::DropSignal, 3, PlanOutcome::Masked),
            plan(FaultClass::DropSignal, 2, PlanOutcome::Masked),
            plan(
                FaultClass::CorruptCommitWrite,
                1,
                PlanOutcome::Rejected("wb".into()),
            ),
        ]);
        let t = r.table().to_string();
        assert!(t.contains("drop-signal"), "{t}");
        assert!(t.contains("corrupt-commit-write"), "{t}");
        let j = r.to_json();
        assert!(j.contains("\"class\":\"drop-signal\""), "{j}");
        assert!(j.contains("\"plans\":2"), "{j}");
        assert!(j.contains("\"sound\":true"), "{j}");
        assert!(r.summary().contains("campaign sound"), "{}", r.summary());
    }
}
