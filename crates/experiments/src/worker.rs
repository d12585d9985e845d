//! Campaign worker: the subprocess side of the orchestrator protocol.
//!
//! `repro worker` reads [`ToWorker`] lines from stdin and answers with
//! [`FromWorker`] lines on stdout (see [`crate::proto`]). Workers are
//! crash-only: they hold no campaign state worth saving, so the
//! orchestrator may kill one at any moment and re-dispatch its shard to a
//! fresh process. Each seed runs under `catch_unwind`, so a panicking seed
//! lands in the shard's `errored` list instead of taking the whole shard
//! down with it.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tls_sim::FaultClass;

use crate::conform::conform_seed;
use crate::fuzz::{check_seed, FuzzConfig};
use crate::inject::{run_plan, InjectConfig, Partition};
use crate::proto::{FromWorker, Job, JobSpec, ShardStats, ToWorker};
use crate::{Harness, Mode, Scale};

/// Exit code a worker uses when a job's `crash_at` knob fires (distinct
/// from panics and signals so campaign self-tests can tell them apart).
pub const CRASH_EXIT: i32 = 113;

/// Minimum quiet period between heartbeats while a shard runs.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// Compiled state an inject worker keeps between jobs: every shard of one
/// campaign shares the same spec, so the worker compiles its workload
/// once and reuses the harness until a job brings a different spec.
struct InjectState {
    spec: JobSpec,
    harness: Harness,
    mode: Mode,
    cfg: InjectConfig,
    classes: Vec<FaultClass>,
}

/// Serve the worker protocol until `Shutdown` or EOF on `input`.
///
/// Generic over the streams so tests can drive a worker in-process with
/// [`std::io::Cursor`]; `repro worker` passes locked stdin/stdout.
///
/// # Errors
/// Unparseable orchestrator input or a broken output pipe — both mean the
/// orchestrator side is gone or insane, so the worker gives up rather
/// than retry.
pub fn serve<R: BufRead, W: Write>(input: R, mut output: W) -> Result<(), String> {
    let pid = u64::from(std::process::id());
    send(&mut output, &FromWorker::Hello { pid })?;
    let mut inject: Option<InjectState> = None;
    for line in input.lines() {
        let line = line.map_err(|e| format!("worker stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match ToWorker::parse(&line)? {
            ToWorker::Shutdown => {
                send(&mut output, &FromWorker::Bye)?;
                return Ok(());
            }
            ToWorker::Job(job) => run_job(&job, &mut inject, &mut output)?,
        }
    }
    Ok(())
}

fn run_job<W: Write>(
    job: &Job,
    inject: &mut Option<InjectState>,
    output: &mut W,
) -> Result<(), String> {
    // Preparation failures (bad spec, unknown workload, compile error) are
    // the shard's problem, not the worker's: report and await the next job.
    let state = match prepare(job, inject) {
        Ok(state) => state,
        Err(detail) => {
            return send(
                output,
                &FromWorker::Error {
                    shard: job.shard,
                    detail,
                },
            );
        }
    };

    let mut stats = ShardStats::default();
    send(
        output,
        &FromWorker::Heartbeat {
            shard: job.shard,
            done: 0,
        },
    )?;
    let mut last_beat = Instant::now();
    for i in 0..job.count {
        let seed = job.seed0.wrapping_add(i);
        if job.crash_at == Some(seed) {
            // Self-crash knob for campaign fault-tolerance tests: die the
            // way a wedged or OOM-killed worker would, mid-shard, without
            // reporting a result.
            let _ = output.flush();
            std::process::exit(CRASH_EXIT);
        }
        match &state {
            Prepared::Fuzz(cfg) => match catch_unwind(AssertUnwindSafe(|| check_seed(seed, cfg))) {
                Ok(Ok(st)) => {
                    stats.regions += u64::from(st.regions > 0);
                    stats.sync_loads += u64::from(st.sync_loads > 0);
                    stats.violations += st.violations;
                    stats.oracle_steps += st.oracle_steps;
                }
                Ok(Err(_failure)) => stats.failed.push(seed),
                Err(_) => stats.errored.push(seed),
            },
            Prepared::Conform(cfg) => {
                match catch_unwind(AssertUnwindSafe(|| conform_seed(seed, cfg))) {
                    Ok(Ok(r)) => {
                        stats.runs += r.runs;
                        stats.regions += u64::from(r.stats.instances > 0);
                    }
                    Ok(Err(_divergence)) => stats.failed.push(seed),
                    Err(_) => stats.errored.push(seed),
                }
            }
            Prepared::Inject(()) => {
                let s = inject.as_ref().expect("inject state prepared");
                // Fault classes cycle by *global* plan index so a sharded
                // campaign assigns each seed the same class a
                // single-process run would.
                let class = s.classes[((job.index0 + i) as usize) % s.classes.len()];
                match catch_unwind(AssertUnwindSafe(|| {
                    run_plan(&s.harness, s.mode, seed, class, &s.cfg)
                })) {
                    Ok(r) => {
                        stats.injected += r.injected;
                        match &r.outcome {
                            crate::inject::PlanOutcome::Dormant => stats.dormant += 1,
                            crate::inject::PlanOutcome::Masked => stats.masked += 1,
                            crate::inject::PlanOutcome::Rejected(_) => stats.rejected += 1,
                            crate::inject::PlanOutcome::Diverged(_)
                            | crate::inject::PlanOutcome::Faulted(_)
                            | crate::inject::PlanOutcome::Undetected => {
                                stats.unsound += 1;
                                stats.failed.push(seed);
                            }
                        }
                    }
                    Err(_) => stats.errored.push(seed),
                }
            }
        }
        stats.seeds += 1;
        if last_beat.elapsed() >= HEARTBEAT_EVERY {
            send(
                output,
                &FromWorker::Heartbeat {
                    shard: job.shard,
                    done: i + 1,
                },
            )?;
            last_beat = Instant::now();
        }
    }

    send(
        output,
        &FromWorker::Result {
            shard: job.shard,
            stats,
        },
    )
}

/// Per-job prepared state. Fuzz/conform configs are cheap to rebuild;
/// inject's harness lives in the memo (`Prepared::Inject` is a marker).
enum Prepared {
    Fuzz(FuzzConfig),
    Conform(FuzzConfig),
    Inject(()),
}

fn prepare(job: &Job, inject: &mut Option<InjectState>) -> Result<Prepared, String> {
    match &job.spec {
        JobSpec::Fuzz {
            family,
            break_forwarding,
        } => Ok(Prepared::Fuzz(FuzzConfig {
            gen: tls_ir::GenConfig::for_family(*family),
            break_forwarded_recovery: *break_forwarding,
            ..FuzzConfig::default()
        })),
        JobSpec::Conform { family } => Ok(Prepared::Conform(FuzzConfig {
            gen: tls_ir::GenConfig::for_family(*family),
            ..FuzzConfig::default()
        })),
        JobSpec::Inject {
            bench,
            mode,
            scale,
            faults,
            rate,
            budget,
        } => {
            if inject.as_ref().map(|s| &s.spec) != Some(&job.spec) {
                let workload = tls_workloads::by_name(bench)
                    .ok_or_else(|| format!("prepare: unknown workload `{bench}`"))?;
                let mode = Mode::from_label(mode)
                    .ok_or_else(|| format!("prepare: unknown mode `{mode}`"))?;
                let scale = Scale::parse(scale)
                    .ok_or_else(|| format!("prepare: unknown scale `{scale}`"))?;
                let partition = Partition::parse(faults).map_err(|e| format!("prepare: {e}"))?;
                let classes = partition.classes();
                if classes.is_empty() {
                    return Err("prepare: empty fault partition".into());
                }
                let harness = Harness::new(workload, scale).map_err(|e| format!("prepare: {e}"))?;
                *inject = Some(InjectState {
                    spec: job.spec.clone(),
                    harness,
                    mode,
                    cfg: InjectConfig {
                        rate: *rate,
                        budget: *budget,
                        partition,
                        ..InjectConfig::default()
                    },
                    classes,
                });
            }
            Ok(Prepared::Inject(()))
        }
    }
}

fn send<W: Write>(output: &mut W, msg: &FromWorker) -> Result<(), String> {
    writeln!(output, "{}", msg.encode())
        .and_then(|()| output.flush())
        .map_err(|e| format!("worker stdout: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tls_ir::GenFamily;

    fn drive(script: &str) -> Vec<FromWorker> {
        let mut out = Vec::new();
        serve(Cursor::new(script.to_string()), &mut out).expect("serve succeeds");
        String::from_utf8(out)
            .expect("utf8 output")
            .lines()
            .map(|l| FromWorker::parse(l).expect("valid worker message"))
            .collect()
    }

    #[test]
    fn a_fuzz_shard_round_trips_through_the_stdio_protocol() {
        let job = ToWorker::Job(Job {
            shard: 0,
            attempt: 0,
            seed0: 1,
            count: 2,
            index0: 0,
            crash_at: None,
            spec: JobSpec::Fuzz {
                family: GenFamily::Baseline,
                break_forwarding: false,
            },
        });
        let script = format!("{}\n{}\n", job.encode(), ToWorker::Shutdown.encode());
        let msgs = drive(&script);
        assert!(matches!(msgs.first(), Some(FromWorker::Hello { .. })));
        assert_eq!(msgs.last(), Some(&FromWorker::Bye));
        let result = msgs
            .iter()
            .find_map(|m| match m {
                FromWorker::Result { shard, stats, .. } => Some((*shard, stats.clone())),
                _ => None,
            })
            .expect("shard result");
        assert_eq!(result.0, 0);
        assert_eq!(result.1.seeds, 2);
        assert!(
            result.1.failed.is_empty(),
            "seeds 1..=2 pass: {:?}",
            result.1
        );
        assert!(result.1.errored.is_empty());

        // The shard's aggregate matches running the same seeds in-process.
        let cfg = FuzzConfig::default();
        let mut oracle_steps = 0;
        for seed in [1u64, 2] {
            oracle_steps += check_seed(seed, &cfg).expect("seed passes").oracle_steps;
        }
        assert_eq!(result.1.oracle_steps, oracle_steps);
    }

    #[test]
    fn a_bad_spec_yields_a_typed_error_and_the_worker_survives() {
        let job = ToWorker::Job(Job {
            shard: 7,
            attempt: 0,
            seed0: 1,
            count: 1,
            index0: 0,
            crash_at: None,
            spec: JobSpec::Inject {
                bench: "no-such-workload".into(),
                mode: "C".into(),
                scale: "quick".into(),
                faults: "maskable".into(),
                rate: 0.05,
                budget: 8,
            },
        });
        let script = format!("{}\n{}\n", job.encode(), ToWorker::Shutdown.encode());
        let msgs = drive(&script);
        let err = msgs
            .iter()
            .find_map(|m| match m {
                FromWorker::Error { shard, detail } => Some((*shard, detail.clone())),
                _ => None,
            })
            .expect("typed error");
        assert_eq!(err.0, 7);
        assert!(err.1.contains("unknown workload"), "{}", err.1);
        assert_eq!(msgs.last(), Some(&FromWorker::Bye), "worker kept serving");
    }
}
