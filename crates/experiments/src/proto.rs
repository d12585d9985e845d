//! Line-delimited JSON protocol between the campaign orchestrator and its
//! `repro worker` subprocesses.
//!
//! One message per line in each direction over the worker's stdio, encoded
//! with the repo's hand-rolled JSON (no external crates): the orchestrator
//! writes [`ToWorker`] messages to the worker's stdin, the worker answers
//! with [`FromWorker`] messages on stdout. Workers send a
//! [`Hello`](FromWorker::Hello) on startup, a
//! [`Heartbeat`](FromWorker::Heartbeat) while a shard runs (the
//! orchestrator's liveness watchdog feeds on these), and exactly one
//! [`Result`](FromWorker::Result) or [`Error`](FromWorker::Error) per job.
//!
//! Numbers ride JSON doubles; every value here (seeds, counters) stays
//! under 2^53, which the campaign seed scheme guarantees.

use tls_ir::GenFamily;
use tls_sim::{parse_json, Json};

use crate::report::json_string;

/// What a shard of seeds should run.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Differential fuzzing ([`crate::fuzz::check_seed`]) per seed.
    Fuzz {
        /// Generator scenario family.
        family: GenFamily,
        /// Inject the forwarded-recovery mutation (shrinker self-test).
        break_forwarding: bool,
    },
    /// Protocol conformance ([`crate::conform::conform_seed`]) per seed.
    Conform {
        /// Generator scenario family.
        family: GenFamily,
    },
    /// Fault-injection plans ([`crate::inject`]) per seed.
    Inject {
        /// Workload name.
        bench: String,
        /// Mode label ([`crate::Mode::from_label`]).
        mode: String,
        /// Scale label ([`crate::Scale::parse`]).
        scale: String,
        /// Fault partition ([`crate::inject::Partition::parse`]).
        faults: String,
        /// Per-decision injection probability.
        rate: f64,
        /// Maximum injections per plan.
        budget: u64,
        /// Compile-cache directory, if caching is enabled.
        cache: Option<String>,
    },
}

impl JobSpec {
    /// Stable campaign-kind label (`fuzz`/`conform`/`inject`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Fuzz { .. } => "fuzz",
            JobSpec::Conform { .. } => "conform",
            JobSpec::Inject { .. } => "inject",
        }
    }

    /// Encode as a JSON object (also the canonical form the orchestrator
    /// hashes into the campaign journal's config fingerprint).
    pub fn encode(&self) -> String {
        match self {
            JobSpec::Fuzz {
                family,
                break_forwarding,
            } => format!(
                "{{\"kind\":\"fuzz\",\"family\":{},\"break_forwarding\":{break_forwarding}}}",
                json_string(family.label())
            ),
            JobSpec::Conform { family } => format!(
                "{{\"kind\":\"conform\",\"family\":{}}}",
                json_string(family.label())
            ),
            JobSpec::Inject {
                bench,
                mode,
                scale,
                faults,
                rate,
                budget,
                cache,
            } => {
                let cache = match cache {
                    Some(dir) => json_string(dir),
                    None => "null".into(),
                };
                format!(
                    "{{\"kind\":\"inject\",\"bench\":{},\"mode\":{},\"scale\":{},\"faults\":{},\
                     \"rate\":{rate},\"budget\":{budget},\"cache\":{cache}}}",
                    json_string(bench),
                    json_string(mode),
                    json_string(scale),
                    json_string(faults),
                )
            }
        }
    }

    fn decode(j: &Json) -> Result<JobSpec, String> {
        let kind = str_field(j, "kind")?;
        match kind.as_str() {
            "fuzz" => Ok(JobSpec::Fuzz {
                family: family_field(j)?,
                break_forwarding: bool_field(j, "break_forwarding")?,
            }),
            "conform" => Ok(JobSpec::Conform {
                family: family_field(j)?,
            }),
            "inject" => Ok(JobSpec::Inject {
                bench: str_field(j, "bench")?,
                mode: str_field(j, "mode")?,
                scale: str_field(j, "scale")?,
                faults: str_field(j, "faults")?,
                rate: f64_field(j, "rate")?,
                budget: u64_field(j, "budget")?,
                cache: match j.get("cache") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(other) => return Err(format!("bad `cache` field: {other:?}")),
                },
            }),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// One unit of campaign work: a contiguous seed range of a shard.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Shard index within the campaign.
    pub shard: u64,
    /// Attempt number (0 = first try) — for logs and retry accounting.
    pub attempt: u64,
    /// First seed of the shard.
    pub seed0: u64,
    /// Number of seeds in the shard.
    pub count: u64,
    /// Global campaign index of `seed0` (inject fault classes cycle by
    /// global plan index, so shards must know their offset to reproduce a
    /// single-process campaign's class assignment exactly).
    pub index0: u64,
    /// Crash-injection knob: the worker calls `process::exit` mid-shard
    /// when it reaches this seed (campaign self-tests only).
    pub crash_at: Option<u64>,
    /// What to run per seed.
    pub spec: JobSpec,
}

/// Orchestrator → worker messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ToWorker {
    /// Run a shard.
    Job(Job),
    /// Finish up and exit cleanly.
    Shutdown,
}

impl ToWorker {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ToWorker::Shutdown => "{\"type\":\"shutdown\"}".into(),
            ToWorker::Job(job) => {
                let crash = match job.crash_at {
                    Some(s) => s.to_string(),
                    None => "null".into(),
                };
                format!(
                    "{{\"type\":\"job\",\"shard\":{},\"attempt\":{},\"seed0\":{},\"count\":{},\
                     \"index0\":{},\"crash_at\":{crash},\"spec\":{}}}",
                    job.shard,
                    job.attempt,
                    job.seed0,
                    job.count,
                    job.index0,
                    job.spec.encode()
                )
            }
        }
    }

    /// Parse one line.
    ///
    /// # Errors
    /// A description of the malformed message.
    pub fn parse(line: &str) -> Result<ToWorker, String> {
        let j = parse_json(line)?;
        match str_field(&j, "type")?.as_str() {
            "shutdown" => Ok(ToWorker::Shutdown),
            "job" => Ok(ToWorker::Job(Job {
                shard: u64_field(&j, "shard")?,
                attempt: u64_field(&j, "attempt")?,
                seed0: u64_field(&j, "seed0")?,
                count: u64_field(&j, "count")?,
                index0: u64_field(&j, "index0")?,
                crash_at: match j.get("crash_at") {
                    None | Some(Json::Null) => None,
                    Some(Json::Num(n)) => Some(*n as u64),
                    Some(other) => return Err(format!("bad `crash_at` field: {other:?}")),
                },
                spec: JobSpec::decode(
                    j.get("spec").ok_or_else(|| "job without `spec`".to_string())?,
                )?,
            })),
            other => Err(format!("unknown orchestrator message type `{other}`")),
        }
    }
}

/// Aggregated outcome of one shard — the unit persisted in the campaign
/// journal and merged into the campaign report. Only deterministic run
/// results live here (cache and retry accounting travel separately), so a
/// resumed campaign's merged report is byte-identical to an uninterrupted
/// one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Seeds processed.
    pub seeds: u64,
    /// Fuzz/conform: seeds whose compilation selected ≥ 1 region.
    pub regions: u64,
    /// Fuzz: seeds with ≥ 1 compiler-synchronized load.
    pub sync_loads: u64,
    /// Fuzz: violations summed over every seed and mode (unlike
    /// [`crate::fuzz::FuzzReport::seeds_with_violations`], which counts
    /// seeds).
    pub violations: u64,
    /// Fuzz: total dynamic oracle instructions.
    pub oracle_steps: u64,
    /// Conform: (program, mode) runs checked.
    pub runs: u64,
    /// Inject: faults that actually fired.
    pub injected: u64,
    /// Inject: maskable plans absorbed.
    pub masked: u64,
    /// Inject: contract-breaking plans caught.
    pub rejected: u64,
    /// Inject: plans that never fired.
    pub dormant: u64,
    /// Inject: unsound judgements (any is a campaign failure).
    pub unsound: u64,
    /// Seeds that failed a property check, in seed order.
    pub failed: Vec<u64>,
    /// Seeds whose in-worker check panicked, in seed order.
    pub errored: Vec<u64>,
}

impl ShardStats {
    /// Fold another shard's stats into this one (list fields concatenate;
    /// callers merge in shard order for determinism).
    pub fn merge(&mut self, other: &ShardStats) {
        self.seeds += other.seeds;
        self.regions += other.regions;
        self.sync_loads += other.sync_loads;
        self.violations += other.violations;
        self.oracle_steps += other.oracle_steps;
        self.runs += other.runs;
        self.injected += other.injected;
        self.masked += other.masked;
        self.rejected += other.rejected;
        self.dormant += other.dormant;
        self.unsound += other.unsound;
        self.failed.extend_from_slice(&other.failed);
        self.errored.extend_from_slice(&other.errored);
    }

    /// Encode as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seeds\":{},\"regions\":{},\"sync_loads\":{},\"violations\":{},\
             \"oracle_steps\":{},\"runs\":{},\"injected\":{},\"masked\":{},\"rejected\":{},\
             \"dormant\":{},\"unsound\":{},\"failed\":{},\"errored\":{}}}",
            self.seeds,
            self.regions,
            self.sync_loads,
            self.violations,
            self.oracle_steps,
            self.runs,
            self.injected,
            self.masked,
            self.rejected,
            self.dormant,
            self.unsound,
            u64_list(&self.failed),
            u64_list(&self.errored)
        )
    }

    /// Parse from a JSON object.
    ///
    /// # Errors
    /// A description of the malformed field.
    pub fn from_json(j: &Json) -> Result<ShardStats, String> {
        Ok(ShardStats {
            seeds: u64_field(j, "seeds")?,
            regions: u64_field(j, "regions")?,
            sync_loads: u64_field(j, "sync_loads")?,
            violations: u64_field(j, "violations")?,
            oracle_steps: u64_field(j, "oracle_steps")?,
            runs: u64_field(j, "runs")?,
            injected: u64_field(j, "injected")?,
            masked: u64_field(j, "masked")?,
            rejected: u64_field(j, "rejected")?,
            dormant: u64_field(j, "dormant")?,
            unsound: u64_field(j, "unsound")?,
            failed: u64_list_field(j, "failed")?,
            errored: u64_list_field(j, "errored")?,
        })
    }
}

/// Per-job compile-cache counter delta a worker reports with its result.
/// Kept outside [`ShardStats`] on purpose: cache behaviour varies across
/// retries and resumes, so it feeds the orchestrator's metrics registry,
/// never the merged (byte-stable) report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Verified entries served from disk during the job.
    pub hits: u64,
    /// Keys that had no entry.
    pub misses: u64,
    /// Entries rejected by integrity verification.
    pub corrupt: u64,
}

/// Worker → orchestrator messages.
#[derive(Clone, Debug, PartialEq)]
pub enum FromWorker {
    /// Sent once on startup.
    Hello {
        /// The worker's OS process id (for kill and logs).
        pid: u64,
    },
    /// Liveness signal while a shard runs.
    Heartbeat {
        /// Shard being processed.
        shard: u64,
        /// Seeds finished so far.
        done: u64,
    },
    /// A shard completed.
    Result {
        /// Shard index.
        shard: u64,
        /// Deterministic aggregated outcome.
        stats: ShardStats,
        /// Cache counters accumulated during the job.
        cache: CacheDelta,
    },
    /// A shard could not run at all (preparation failure, bad spec).
    Error {
        /// Shard index.
        shard: u64,
        /// What went wrong.
        detail: String,
    },
    /// Clean shutdown acknowledgement.
    Bye,
}

impl FromWorker {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            FromWorker::Hello { pid } => format!("{{\"type\":\"hello\",\"pid\":{pid}}}"),
            FromWorker::Heartbeat { shard, done } => {
                format!("{{\"type\":\"heartbeat\",\"shard\":{shard},\"done\":{done}}}")
            }
            FromWorker::Result {
                shard,
                stats,
                cache,
            } => format!(
                "{{\"type\":\"result\",\"shard\":{shard},\"stats\":{},\"cache\":{{\"hits\":{},\
                 \"misses\":{},\"corrupt\":{}}}}}",
                stats.to_json(),
                cache.hits,
                cache.misses,
                cache.corrupt
            ),
            FromWorker::Error { shard, detail } => format!(
                "{{\"type\":\"error\",\"shard\":{shard},\"detail\":{}}}",
                json_string(detail)
            ),
            FromWorker::Bye => "{\"type\":\"bye\"}".into(),
        }
    }

    /// Parse one line.
    ///
    /// # Errors
    /// A description of the malformed message.
    pub fn parse(line: &str) -> Result<FromWorker, String> {
        let j = parse_json(line)?;
        match str_field(&j, "type")?.as_str() {
            "hello" => Ok(FromWorker::Hello {
                pid: u64_field(&j, "pid")?,
            }),
            "heartbeat" => Ok(FromWorker::Heartbeat {
                shard: u64_field(&j, "shard")?,
                done: u64_field(&j, "done")?,
            }),
            "result" => {
                let stats = ShardStats::from_json(
                    j.get("stats").ok_or_else(|| "result without `stats`".to_string())?,
                )?;
                let c = j.get("cache").ok_or_else(|| "result without `cache`".to_string())?;
                Ok(FromWorker::Result {
                    shard: u64_field(&j, "shard")?,
                    stats,
                    cache: CacheDelta {
                        hits: u64_field(c, "hits")?,
                        misses: u64_field(c, "misses")?,
                        corrupt: u64_field(c, "corrupt")?,
                    },
                })
            }
            "error" => Ok(FromWorker::Error {
                shard: u64_field(&j, "shard")?,
                detail: str_field(&j, "detail")?,
            }),
            "bye" => Ok(FromWorker::Bye),
            other => Err(format!("unknown worker message type `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean `{key}`")),
    }
}

fn family_field(j: &Json) -> Result<GenFamily, String> {
    let label = str_field(j, "family")?;
    GenFamily::parse(&label).ok_or_else(|| format!("unknown generator family `{label}`"))
}

fn u64_list(list: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in list.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push(']');
    s
}

fn u64_list_field(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    match j.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_num()
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("non-numeric entry in `{key}`"))
            })
            .collect(),
        _ => Err(format!("missing or non-array `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_round_trip_for_every_spec_kind() {
        let specs = [
            JobSpec::Fuzz {
                family: GenFamily::PhaseShift,
                break_forwarding: true,
            },
            JobSpec::Conform {
                family: GenFamily::Baseline,
            },
            JobSpec::Inject {
                bench: "go".into(),
                mode: "C".into(),
                scale: "quick".into(),
                faults: "maskable".into(),
                rate: 0.05,
                budget: 8,
                cache: Some("results/cache".into()),
            },
            JobSpec::Inject {
                bench: "mcf".into(),
                mode: "T".into(),
                scale: "ref".into(),
                faults: "both".into(),
                rate: 0.25,
                budget: 2,
                cache: None,
            },
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let msg = ToWorker::Job(Job {
                shard: i as u64,
                attempt: 1,
                seed0: 20_260_101_000_000,
                count: 64,
                index0: i as u64 * 64,
                crash_at: (i == 0).then_some(20_260_101_000_003),
                spec,
            });
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(ToWorker::parse(&line).expect("parses"), msg);
        }
        let line = ToWorker::Shutdown.encode();
        assert_eq!(ToWorker::parse(&line).expect("parses"), ToWorker::Shutdown);
    }

    #[test]
    fn worker_messages_round_trip() {
        let stats = ShardStats {
            seeds: 64,
            regions: 60,
            sync_loads: 41,
            violations: 17,
            oracle_steps: 123_456,
            runs: 0,
            injected: 9,
            masked: 4,
            rejected: 3,
            dormant: 2,
            unsound: 0,
            failed: vec![7, 12],
            errored: vec![20],
        };
        let msgs = [
            FromWorker::Hello { pid: 4242 },
            FromWorker::Heartbeat { shard: 3, done: 17 },
            FromWorker::Result {
                shard: 3,
                stats: stats.clone(),
                cache: CacheDelta {
                    hits: 1,
                    misses: 1,
                    corrupt: 0,
                },
            },
            FromWorker::Error {
                shard: 9,
                detail: "prepare: unknown workload `nope` — \"quoted\"".into(),
            },
            FromWorker::Bye,
        ];
        for msg in msgs {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message per line: {line}");
            assert_eq!(FromWorker::parse(&line).expect("parses"), msg);
        }
        // Stats round-trip through their standalone codec too (the journal
        // stores them outside a message envelope).
        let j = parse_json(&stats.to_json()).expect("valid json");
        assert_eq!(ShardStats::from_json(&j).expect("decodes"), stats);
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        assert!(ToWorker::parse("{\"type\":\"job\"}").is_err());
        assert!(ToWorker::parse("not json").is_err());
        assert!(FromWorker::parse("{\"type\":\"result\",\"shard\":1}").is_err());
        assert!(FromWorker::parse("{\"type\":\"wat\"}").is_err());
    }
}
