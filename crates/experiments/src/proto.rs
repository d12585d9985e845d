//! Line-delimited JSON protocol between the campaign orchestrator and its
//! `repro worker` subprocesses.
//!
//! One message per line in each direction over the worker's stdio, encoded
//! with [`tls_sim::json`]: the orchestrator
//! writes [`ToWorker`] messages to the worker's stdin, the worker answers
//! with [`FromWorker`] messages on stdout. Workers send a
//! [`Hello`](FromWorker::Hello) on startup, a
//! [`Heartbeat`](FromWorker::Heartbeat) while a shard runs (the
//! orchestrator's liveness watchdog feeds on these), and exactly one
//! [`Result`](FromWorker::Result) or [`Error`](FromWorker::Error) per job.
//!
//! Integers ride JSON numbers, which the readers accept only as exact
//! unsigned integers below 2^53; anything else is a parse error, never a
//! cast. [`crate::orchestrate::run_campaign`] refuses seed ranges that
//! reach 2^53 and specs that do not read back as sent, and the CLI takes
//! only a finite `--rate` in [0, 1], so every message a campaign sends can
//! be read back.

use tls_ir::GenFamily;
use tls_sim::json::{self, parse_json, Json, Writer};

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
        json::object(|w| {
            w.str("kind", self.kind());
            match self {
                JobSpec::Fuzz {
                    family,
                    break_forwarding,
                } => {
                    w.str("family", family.label())
                        .raw("break_forwarding", break_forwarding);
                }
                JobSpec::Conform { family } => {
                    w.str("family", family.label());
                }
                JobSpec::Inject {
                    bench,
                    mode,
                    scale,
                    faults,
                    rate,
                    budget,
                } => {
                    w.str("bench", bench)
                        .str("mode", mode)
                        .str("scale", scale)
                        .str("faults", faults)
                        .raw("rate", rate)
                        .raw("budget", budget);
                }
            }
        })
    }

    fn decode(j: &Json) -> Result<JobSpec, String> {
        let family = || {
            let label = j.str("family")?;
            GenFamily::parse(label).ok_or_else(|| format!("unknown generator family `{label}`"))
        };
        match j.str("kind")? {
            "fuzz" => Ok(JobSpec::Fuzz {
                family: family()?,
                break_forwarding: j.bool("break_forwarding")?,
            }),
            "conform" => Ok(JobSpec::Conform { family: family()? }),
            "inject" => Ok(JobSpec::Inject {
                bench: j.str("bench")?.to_string(),
                mode: j.str("mode")?.to_string(),
                scale: j.str("scale")?.to_string(),
                faults: j.str("faults")?.to_string(),
                rate: j.f64("rate")?,
                budget: j.uint("budget")?,
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
        json::object(|w| match self {
            ToWorker::Shutdown => {
                w.str("type", "shutdown");
            }
            ToWorker::Job(job) => {
                w.str("type", "job")
                    .raw("shard", job.shard)
                    .raw("attempt", job.attempt)
                    .raw("seed0", job.seed0)
                    .raw("count", job.count)
                    .raw("index0", job.index0)
                    .opt("crash_at", job.crash_at, Writer::raw)
                    .raw("spec", job.spec.encode());
            }
        })
    }

    /// Parse one line.
    ///
    /// # Errors
    /// A description of the malformed message.
    pub fn parse(line: &str) -> Result<ToWorker, String> {
        let j = parse_json(line)?;
        match j.str("type")? {
            "shutdown" => Ok(ToWorker::Shutdown),
            "job" => Ok(ToWorker::Job(Job {
                shard: j.uint("shard")?,
                attempt: j.uint("attempt")?,
                seed0: j.uint("seed0")?,
                count: j.uint("count")?,
                index0: j.uint("index0")?,
                crash_at: j.opt("crash_at", Json::uint)?,
                spec: JobSpec::decode(j.get("spec").ok_or("job without `spec`")?)?,
            })),
            other => Err(format!("unknown orchestrator message type `{other}`")),
        }
    }
}

/// Aggregated outcome of one shard — the unit persisted in the campaign
/// journal and merged into the campaign report. Only deterministic run
/// results live here (retry accounting goes to the metrics registry), so
/// a resumed campaign's merged report is byte-identical to an
/// uninterrupted one.
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
        json::object(|w| {
            w.raw("seeds", self.seeds)
                .raw("regions", self.regions)
                .raw("sync_loads", self.sync_loads)
                .raw("violations", self.violations)
                .raw("oracle_steps", self.oracle_steps)
                .raw("runs", self.runs)
                .raw("injected", self.injected)
                .raw("masked", self.masked)
                .raw("rejected", self.rejected)
                .raw("dormant", self.dormant)
                .raw("unsound", self.unsound)
                .raws("failed", &self.failed)
                .raws("errored", &self.errored);
        })
    }

    /// Parse from a JSON object.
    ///
    /// # Errors
    /// A description of the malformed field.
    pub fn from_json(j: &Json) -> Result<ShardStats, String> {
        Ok(ShardStats {
            seeds: j.uint("seeds")?,
            regions: j.uint("regions")?,
            sync_loads: j.uint("sync_loads")?,
            violations: j.uint("violations")?,
            oracle_steps: j.uint("oracle_steps")?,
            runs: j.uint("runs")?,
            injected: j.uint("injected")?,
            masked: j.uint("masked")?,
            rejected: j.uint("rejected")?,
            dormant: j.uint("dormant")?,
            unsound: j.uint("unsound")?,
            failed: j.uints("failed")?,
            errored: j.uints("errored")?,
        })
    }
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
        json::object(|w| match self {
            FromWorker::Hello { pid } => {
                w.str("type", "hello").raw("pid", pid);
            }
            FromWorker::Heartbeat { shard, done } => {
                w.str("type", "heartbeat")
                    .raw("shard", shard)
                    .raw("done", done);
            }
            FromWorker::Result { shard, stats } => {
                w.str("type", "result")
                    .raw("shard", shard)
                    .raw("stats", stats.to_json());
            }
            FromWorker::Error { shard, detail } => {
                w.str("type", "error")
                    .raw("shard", shard)
                    .str("detail", detail);
            }
            FromWorker::Bye => {
                w.str("type", "bye");
            }
        })
    }

    /// Parse one line.
    ///
    /// # Errors
    /// A description of the malformed message.
    pub fn parse(line: &str) -> Result<FromWorker, String> {
        let j = parse_json(line)?;
        match j.str("type")? {
            "hello" => Ok(FromWorker::Hello {
                pid: j.uint("pid")?,
            }),
            "heartbeat" => Ok(FromWorker::Heartbeat {
                shard: j.uint("shard")?,
                done: j.uint("done")?,
            }),
            "result" => Ok(FromWorker::Result {
                shard: j.uint("shard")?,
                stats: ShardStats::from_json(j.get("stats").ok_or("result without `stats`")?)?,
            }),
            "error" => Ok(FromWorker::Error {
                shard: j.uint("shard")?,
                detail: j.str("detail")?.to_string(),
            }),
            "bye" => Ok(FromWorker::Bye),
            other => Err(format!("unknown worker message type `{other}`")),
        }
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
            },
            JobSpec::Inject {
                bench: "mcf".into(),
                mode: "T".into(),
                scale: "ref".into(),
                faults: "both".into(),
                rate: 0.25,
                budget: 2,
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

    /// The exact bytes on the wire and in the journal. `JobSpec::encode`'s
    /// fnv64 is the campaign journal's config fingerprint, so one changed
    /// byte breaks `--resume` of every existing journal; the benchmark
    /// hashes `ShardStats::to_json` into its fuzz `sim_digest`.
    #[test]
    fn encodings_are_byte_stable() {
        let fuzz = JobSpec::Fuzz {
            family: GenFamily::PhaseShift,
            break_forwarding: true,
        };
        let conform = JobSpec::Conform {
            family: GenFamily::Baseline,
        };
        let inject = JobSpec::Inject {
            bench: "dir \"q\"\\x".into(),
            mode: "C".into(),
            scale: "quick".into(),
            faults: "drop-signal,evict-line".into(),
            rate: 0.05,
            budget: 8,
        };
        let inject_whole_rate = JobSpec::Inject {
            bench: "mcf".into(),
            mode: "A-T".into(),
            scale: "ref".into(),
            faults: "both".into(),
            rate: 1.0,
            budget: 2,
        };
        assert_eq!(
            fuzz.encode(),
            r#"{"kind":"fuzz","family":"phase_shift","break_forwarding":true}"#
        );
        assert_eq!(
            conform.encode(),
            r#"{"kind":"conform","family":"baseline"}"#
        );
        assert_eq!(
            inject.encode(),
            r#"{"kind":"inject","bench":"dir \"q\"\\x","mode":"C","scale":"quick","faults":"drop-signal,evict-line","rate":0.05,"budget":8}"#
        );
        assert_eq!(
            inject_whole_rate.encode(),
            r#"{"kind":"inject","bench":"mcf","mode":"A-T","scale":"ref","faults":"both","rate":1,"budget":2}"#
        );
        let job = |crash_at, spec| {
            ToWorker::Job(Job {
                shard: 3,
                attempt: 1,
                seed0: 9_007_199_254_740_000,
                count: 64,
                index0: 192,
                crash_at,
                spec,
            })
        };
        assert_eq!(
            job(Some(9_007_199_254_740_005), fuzz).encode(),
            r#"{"type":"job","shard":3,"attempt":1,"seed0":9007199254740000,"count":64,"index0":192,"crash_at":9007199254740005,"spec":{"kind":"fuzz","family":"phase_shift","break_forwarding":true}}"#
        );
        assert_eq!(
            job(None, inject).encode(),
            r#"{"type":"job","shard":3,"attempt":1,"seed0":9007199254740000,"count":64,"index0":192,"crash_at":null,"spec":{"kind":"inject","bench":"dir \"q\"\\x","mode":"C","scale":"quick","faults":"drop-signal,evict-line","rate":0.05,"budget":8}}"#
        );
        assert_eq!(ToWorker::Shutdown.encode(), r#"{"type":"shutdown"}"#);
        let stats = ShardStats {
            seeds: 64,
            regions: 60,
            sync_loads: 41,
            violations: 17,
            oracle_steps: 123_456,
            runs: 5,
            injected: 9,
            masked: 4,
            rejected: 3,
            dormant: 2,
            unsound: 1,
            failed: vec![7, 12],
            errored: vec![],
        };
        let stats_json = r#"{"seeds":64,"regions":60,"sync_loads":41,"violations":17,"oracle_steps":123456,"runs":5,"injected":9,"masked":4,"rejected":3,"dormant":2,"unsound":1,"failed":[7,12],"errored":[]}"#;
        assert_eq!(stats.to_json(), stats_json);
        let msgs = [
            FromWorker::Hello { pid: 4242 },
            FromWorker::Heartbeat { shard: 3, done: 17 },
            FromWorker::Result { shard: 3, stats },
            FromWorker::Error {
                shard: 9,
                detail: "unknown workload `nope` — \"q\"\\\n\t\r\u{1}".into(),
            },
            FromWorker::Bye,
        ];
        let lines: Vec<String> = msgs.iter().map(FromWorker::encode).collect();
        assert_eq!(
            lines,
            [
                r#"{"type":"hello","pid":4242}"#.to_string(),
                r#"{"type":"heartbeat","shard":3,"done":17}"#.to_string(),
                format!(r#"{{"type":"result","shard":3,"stats":{stats_json}}}"#),
                r#"{"type":"error","shard":9,"detail":"unknown workload `nope` — \"q\"\\\n\t\r\u0001"}"#.to_string(),
                r#"{"type":"bye"}"#.to_string(),
            ]
        );
    }

    /// Numbers a field cannot hold exactly are errors, not casts.
    #[test]
    fn inexact_numbers_are_rejected() {
        let line = ToWorker::Job(Job {
            shard: 1,
            attempt: 0,
            seed0: 5,
            count: 2,
            index0: 0,
            crash_at: Some(6),
            spec: JobSpec::Inject {
                bench: "go".into(),
                mode: "C".into(),
                scale: "quick".into(),
                faults: "both".into(),
                rate: 0.5,
                budget: 8,
            },
        })
        .encode();
        assert!(ToWorker::parse(&line).is_ok());
        for (from, to) in [
            ("\"count\":2", "\"count\":2.9"),
            ("\"crash_at\":6", "\"crash_at\":-1"),
            ("\"rate\":0.5", "\"rate\":1e400"),
            ("\"seed0\":5", "\"seed0\":-3"),
            ("\"seed0\":5", "\"seed0\":9007199254740993"),
            ("\"seed0\":5", "\"seed0\":9007199254740992"),
            ("\"budget\":8", "\"budget\":\"8\""),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line);
            assert!(ToWorker::parse(&bad).is_err(), "{bad}");
        }
        let stats = ShardStats {
            failed: vec![3],
            ..ShardStats::default()
        }
        .to_json();
        for bad in [
            stats.replace("\"failed\":[3]", "\"failed\":[-3]"),
            stats.replace("\"failed\":[3]", "\"failed\":[3.5]"),
            stats.replace("\"seeds\":0", "\"seeds\":1e300"),
        ] {
            let j = parse_json(&bad).expect("still JSON");
            assert!(ShardStats::from_json(&j).is_err(), "{bad}");
        }
        assert!(FromWorker::parse("{\"type\":\"hello\",\"pid\":-1}").is_err());
        assert!(FromWorker::parse("{\"type\":\"heartbeat\",\"shard\":1,\"done\":0.5}").is_err());
    }

    #[test]
    fn malformed_messages_are_typed_errors() {
        assert!(ToWorker::parse("{\"type\":\"job\"}").is_err());
        assert!(ToWorker::parse("not json").is_err());
        assert!(FromWorker::parse("{\"type\":\"result\",\"shard\":1}").is_err());
        assert!(FromWorker::parse("{\"type\":\"wat\"}").is_err());
    }
}
