//! Fault-tolerant campaign orchestrator: shards a fuzz/conform/inject
//! campaign by seed range across a pool of respawnable `repro worker`
//! subprocesses (protocol in [`crate::proto`]).
//!
//! Design notes:
//!
//! * **Crash-only.** The only durable state is an append-only journal of
//!   sealed records ([`crate::journal`]): one header plus one `done` line
//!   per completed shard, each fsynced before the shard counts. Kill the
//!   orchestrator at any instant (`kill -9` included) and
//!   `repro campaign --resume` replays the journal, drops a torn tail,
//!   and re-runs exactly the missing shards — the merged report is
//!   byte-identical to an uninterrupted run because per-shard stats are
//!   deterministic and retry accounting never enters the report.
//! * **Watchdog.** Workers heartbeat between seeds; a worker that misses
//!   the heartbeat window or blows the per-job deadline is killed and its
//!   shard retried elsewhere.
//! * **Bounded retry.** Each shard gets `max_attempts` tries with
//!   exponential backoff plus deterministic jitter
//!   ([`tls_ir::SplitMix64`] seeded from shard and attempt, so reruns
//!   wait the same way).
//! * **Graceful degradation.** A worker slot that keeps dying past its
//!   failure budget is retired and the pool shrinks; if the pool (or a
//!   shard's retry budget) runs out, the campaign still completes and
//!   reports a partial-coverage verdict instead of hanging or crashing.
//! * **Draining.** SIGINT/SIGTERM (or [`request_stop`]) stops dispatch,
//!   lets in-flight shards finish under the watchdog, flushes the
//!   journal, and returns the partial report.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use tls_ir::SplitMix64;
use tls_sim::json;

use crate::journal;
use crate::metrics;
use crate::proto::{FromWorker, Job, JobSpec, ShardStats, ToWorker};

/// Everything one campaign run needs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// What each seed runs (shared by all shards).
    pub kind: JobSpec,
    /// First seed of the campaign.
    pub seed0: u64,
    /// Total number of seeds.
    pub total: u64,
    /// Seeds per shard (the retry/checkpoint granularity).
    pub shard_size: u64,
    /// Worker subprocesses to keep alive.
    pub workers: usize,
    /// Attempts per shard before it is abandoned as incomplete.
    pub max_attempts: u64,
    /// Unexpected deaths a single worker slot may suffer before the slot
    /// is retired and the pool shrinks.
    pub worker_failure_budget: u64,
    /// Wall-clock budget per dispatched job.
    pub job_deadline: Duration,
    /// Silence window after which a worker counts as wedged. Workers
    /// heartbeat between seeds, so this must exceed the slowest single
    /// seed.
    pub heartbeat_timeout: Duration,
    /// Base backoff delay (attempt `n` waits ~`base * 2^n` plus jitter).
    pub backoff_base: Duration,
    /// Upper bound on the exponential part of the backoff.
    pub backoff_cap: Duration,
    /// Directory for the campaign journal.
    pub artifacts: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Command line used to spawn workers (defaults to
    /// `current_exe worker` in the CLI).
    pub worker_cmd: Vec<String>,
    /// Self-test knob: inject a mid-shard worker crash into this shard.
    pub crash_shard: Option<u64>,
    /// Self-test knob: crash `crash_shard` on every attempt (otherwise
    /// only the first, so the retry succeeds).
    pub crash_every_attempt: bool,
    /// Self-test knob: abort the orchestrator process (as `kill -9`
    /// would) after this many journal checkpoints.
    pub die_after_checkpoints: Option<u64>,
}

/// Merged outcome of a campaign run.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Campaign kind label (`fuzz`/`conform`/`inject`).
    pub kind: String,
    /// First seed.
    pub seed0: u64,
    /// Total seeds requested.
    pub total: u64,
    /// Seeds per shard.
    pub shard_size: u64,
    /// Per-shard stats for every completed shard, keyed by shard index.
    pub completed: BTreeMap<u64, ShardStats>,
    /// Shards that did not complete (retry budget or pool exhausted, or a
    /// drain was requested), in ascending order.
    pub incomplete: Vec<u64>,
    /// All completed shards merged in shard order.
    pub merged: ShardStats,
}

impl CampaignReport {
    /// Whether coverage is partial (any shard incomplete).
    pub fn partial(&self) -> bool {
        !self.incomplete.is_empty()
    }

    /// Whether any completed seed failed a property check or was judged
    /// unsound (the campaign-level red verdict).
    pub fn failed(&self) -> bool {
        self.merged.unsound > 0 || !self.merged.failed.is_empty()
    }

    /// Deterministic JSON rendering. Deliberately excludes retry and
    /// backoff accounting (those live in the metrics snapshot): a resumed
    /// campaign must render byte-identically to an uninterrupted one.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.str("kind", &self.kind)
                .raw("seed0", self.seed0)
                .raw("total", self.total)
                .raw("shard_size", self.shard_size)
                .raw("shards", shard_count(self.total, self.shard_size))
                .raw("completed", self.completed.len())
                .raws("incomplete", &self.incomplete)
                .raw("merged", self.merged.to_json())
                .arr("shards_detail", |w| {
                    for (k, st) in &self.completed {
                        w.item_obj(|w| {
                            w.raw("shard", k).raw("stats", st.to_json());
                        });
                    }
                });
        })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "campaign {}: {}/{} shard(s) done, {} seed(s), {} failed, {} errored, {} unsound{}",
            self.kind,
            self.completed.len(),
            shard_count(self.total, self.shard_size),
            self.merged.seeds,
            self.merged.failed.len(),
            self.merged.errored.len(),
            self.merged.unsound,
            if self.partial() {
                " [PARTIAL COVERAGE]"
            } else {
                ""
            }
        )
    }
}

fn shard_count(total: u64, shard_size: u64) -> u64 {
    total.div_ceil(shard_size.max(1))
}

// ---------------------------------------------------------------------------
// Stop flag (SIGINT/SIGTERM draining)
// ---------------------------------------------------------------------------

static STOP: AtomicBool = AtomicBool::new(false);

/// Ask the running campaign to drain: finish in-flight shards, flush the
/// journal, and return a partial report. Signal-safe (only flips an
/// atomic); also callable directly from tests.
pub fn request_stop() {
    STOP.store(true, Ordering::SeqCst);
}

/// Whether a drain has been requested.
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}

/// Clear the drain flag (test support: the flag is process-global).
pub fn clear_stop() {
    STOP.store(false, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to [`request_stop`] so an interrupted
/// campaign drains instead of leaving work half-dispatched. No-op off
/// Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The campaign journal's file name under the artifacts directory.
pub const JOURNAL_FILE: &str = "campaign.journal";

fn header_payload(spec: &CampaignSpec) -> String {
    let config = journal::fnv64(spec.kind.encode().as_bytes());
    format!(
        "campaign kind={} config={config:016x} seed0={} total={} shard={}",
        spec.kind.kind(),
        spec.seed0,
        spec.total,
        spec.shard_size
    )
}

fn done_payload(shard: u64, stats: &ShardStats) -> String {
    format!("done shard={shard} {}", stats.to_json())
}

fn parse_done(payload: &str) -> Result<(u64, ShardStats), String> {
    let rest = payload
        .strip_prefix("done shard=")
        .ok_or_else(|| format!("unexpected journal record `{payload}`"))?;
    let (shard, json) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed journal record `{payload}`"))?;
    let shard = shard
        .parse::<u64>()
        .map_err(|_| format!("bad shard index in journal record `{payload}`"))?;
    let j = tls_sim::parse_json(json).map_err(|e| format!("journal record json: {e}"))?;
    Ok((shard, ShardStats::from_json(&j)?))
}

/// Load completed shards from an existing journal, verifying it belongs
/// to this campaign and repairing a torn tail in place.
fn recover(spec: &CampaignSpec) -> Result<BTreeMap<u64, ShardStats>, String> {
    let path = spec.artifacts.join(JOURNAL_FILE);
    let log = journal::read_sealed(&path)?;
    let Some(header) = log.records.first() else {
        return Err(format!("{}: empty campaign journal", path.display()));
    };
    let expected = header_payload(spec);
    if header != &expected {
        return Err(format!(
            "{}: journal belongs to a different campaign\n  found:    {header}\n  expected: {expected}",
            path.display()
        ));
    }
    let nshards = shard_count(spec.total, spec.shard_size);
    let mut completed = BTreeMap::new();
    for record in &log.records[1..] {
        let (shard, stats) = parse_done(record)?;
        if shard >= nshards {
            return Err(format!(
                "{}: journal has shard {shard} but the campaign only has {nshards}",
                path.display()
            ));
        }
        completed.insert(shard, stats);
    }
    if log.truncated {
        // Rewrite without the torn tail so later appends don't splice
        // into a half-written line.
        let mut text = String::new();
        for record in &log.records {
            text.push_str(&journal::seal_line(record));
            text.push('\n');
        }
        journal::write_atomic(&path, &text).map_err(|e| format!("repair journal: {e}"))?;
        eprintln!(
            "[campaign] {}: dropped a torn trailing record (crash mid-append); \
             resuming from {} completed shard(s)",
            path.display(),
            completed.len()
        );
    }
    Ok(completed)
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

enum Event {
    Msg(usize, u64, FromWorker),
    Gone(usize, u64),
}

struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Spawn generation; events tagged with an older generation are from
    /// a previous (killed) worker of this slot and are ignored.
    gen: u64,
    /// In-flight (shard, attempt), if any.
    job: Option<(u64, u64)>,
    last_beat: Instant,
    started: Instant,
    failures: u64,
    retired: bool,
    /// The watchdog already killed this worker and is waiting for its
    /// `Gone` event (guards double-kill accounting).
    killing: bool,
}

impl Slot {
    fn idle(&self) -> bool {
        !self.retired && self.child.is_some() && self.job.is_none() && !self.killing
    }
}

fn spawn_worker(
    spec: &CampaignSpec,
    idx: usize,
    gen: u64,
    tx: &Sender<Event>,
) -> Result<(Child, ChildStdin), String> {
    let (exe, rest) = spec
        .worker_cmd
        .split_first()
        .ok_or_else(|| "empty worker command".to_string())?;
    let mut child = Command::new(exe)
        .args(rest)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker `{exe}`: {e}"))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let tx = tx.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match FromWorker::parse(&line) {
                Ok(msg) => {
                    if tx.send(Event::Msg(idx, gen, msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    eprintln!("[campaign] worker {idx}: unparseable message ({e}): {line}");
                    break;
                }
            }
        }
        let _ = tx.send(Event::Gone(idx, gen));
    });
    Ok((child, stdin))
}

fn backoff_delay(spec: &CampaignSpec, shard: u64, attempt: u64) -> Duration {
    let base = spec.backoff_base.as_millis() as u64;
    let cap = spec.backoff_cap.as_millis() as u64;
    let exp = base
        .saturating_mul(1u64 << attempt.min(16))
        .min(cap.max(base));
    // Deterministic jitter: the same (shard, attempt) always waits the
    // same, so a replayed campaign schedules identically.
    let jitter = SplitMix64::seed_from_u64(shard.wrapping_mul(1009).wrapping_add(attempt))
        .next_u64()
        % (base / 2).max(1);
    Duration::from_millis(exp + jitter)
}

fn schedule_retry(
    spec: &CampaignSpec,
    shard: u64,
    failed_attempt: u64,
    delayed: &mut Vec<(Instant, u64, u64)>,
    exhausted: &mut BTreeSet<u64>,
) {
    let next = failed_attempt + 1;
    if next >= spec.max_attempts {
        eprintln!(
            "[campaign] shard {shard}: giving up after {next} attempt(s) — marked incomplete"
        );
        exhausted.insert(shard);
    } else {
        let delay = backoff_delay(spec, shard, next);
        metrics::add_counter("campaign.retries", 1);
        metrics::add_counter("campaign.backoff_ms_total", delay.as_millis() as u64);
        eprintln!(
            "[campaign] shard {shard}: retrying (attempt {next}) in {} ms",
            delay.as_millis()
        );
        delayed.push((Instant::now() + delay, shard, next));
    }
}

// ---------------------------------------------------------------------------
// The orchestrator
// ---------------------------------------------------------------------------

/// Run a sharded campaign to completion (or to drained/degraded partial
/// coverage) and return the merged report.
///
/// # Errors
/// Unusable configuration or journal: zero seeds/workers, seeds or a
/// spec the worker protocol cannot carry exactly (integers from 2^53 up),
/// a resume journal from a different campaign, an unwritable artifacts directory,
/// or a wholly unspawnable worker pool. Worker failures during the run
/// are *not* errors — they surface as retries, incomplete shards, and
/// the partial verdict.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport, String> {
    if spec.total == 0 {
        return Err("campaign has zero seeds".into());
    }
    // Workers must read every job back as it was sent: seeds and the
    // spec's integers ride JSON numbers, exact only below 2^53.
    let end = spec.seed0.checked_add(spec.total);
    if end.is_none_or(|end| end > json::MAX_EXACT_UINT) {
        return Err(format!(
            "campaign seeds {}..{} reach 2^53, past what the worker protocol carries exactly",
            spec.seed0,
            u128::from(spec.seed0) + u128::from(spec.total)
        ));
    }
    let probe = ToWorker::Job(Job {
        shard: 0,
        attempt: 0,
        seed0: spec.seed0,
        count: spec.total,
        index0: 0,
        crash_at: None,
        spec: spec.kind.clone(),
    });
    if ToWorker::parse(&probe.encode()).as_ref() != Ok(&probe) {
        return Err(format!(
            "campaign spec {} does not survive the worker protocol",
            spec.kind.encode()
        ));
    }
    if spec.workers == 0 {
        return Err("campaign has zero workers".into());
    }
    let nshards = shard_count(spec.total, spec.shard_size);
    let journal_path = spec.artifacts.join(JOURNAL_FILE);

    let mut completed: BTreeMap<u64, ShardStats> = if spec.resume && journal_path.exists() {
        recover(spec)?
    } else {
        let header = format!("{}\n", journal::seal_line(&header_payload(spec)));
        journal::write_atomic(&journal_path, &header)
            .map_err(|e| format!("write campaign journal: {e}"))?;
        BTreeMap::new()
    };

    metrics::set_gauge("campaign.shards_total", nshards as f64);
    metrics::set_gauge("campaign.shards_done", completed.len() as f64);

    let mut pending: VecDeque<(u64, u64)> = (0..nshards)
        .filter(|k| !completed.contains_key(k))
        .map(|k| (k, 0))
        .collect();
    let mut delayed: Vec<(Instant, u64, u64)> = Vec::new();
    let mut exhausted: BTreeSet<u64> = BTreeSet::new();
    let mut checkpoints_this_run: u64 = 0;
    let mut drain_logged = false;

    let (tx, rx) = channel::<Event>();
    let mut next_gen: u64 = 0;
    let mut slots: Vec<Slot> = Vec::with_capacity(spec.workers);
    for idx in 0..spec.workers {
        let gen = next_gen;
        next_gen += 1;
        let (child, stdin, retired) = match spawn_worker(spec, idx, gen, &tx) {
            Ok((child, stdin)) => (Some(child), Some(stdin), false),
            Err(e) => {
                eprintln!("[campaign] {e}");
                (None, None, true)
            }
        };
        slots.push(Slot {
            child,
            stdin,
            gen,
            job: None,
            last_beat: Instant::now(),
            started: Instant::now(),
            failures: u64::from(retired),
            retired,
            killing: false,
        });
    }
    let live = slots.iter().filter(|s| !s.retired).count();
    metrics::set_gauge("campaign.pool", live as f64);
    if live == 0 {
        return Err("could not spawn any campaign worker".into());
    }

    loop {
        // Promote retries whose backoff elapsed.
        let now = Instant::now();
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].0 <= now {
                let (_, shard, attempt) = delayed.swap_remove(i);
                pending.push_back((shard, attempt));
            } else {
                i += 1;
            }
        }

        // Dispatch to idle workers (unless draining).
        if stop_requested() {
            if !drain_logged {
                drain_logged = true;
                eprintln!(
                    "[campaign] drain requested: finishing in-flight shard(s), \
                     no new work will be dispatched"
                );
            }
        } else {
            while let Some(&(shard, attempt)) = pending.front() {
                let Some(idx) = slots.iter().position(Slot::idle) else {
                    break;
                };
                pending.pop_front();
                let index0 = shard * spec.shard_size;
                let count = spec.shard_size.min(spec.total - index0);
                let crash_at = (spec.crash_shard == Some(shard)
                    && (attempt == 0 || spec.crash_every_attempt))
                    .then(|| spec.seed0.wrapping_add(index0).wrapping_add(count / 2));
                let job = ToWorker::Job(Job {
                    shard,
                    attempt,
                    seed0: spec.seed0.wrapping_add(index0),
                    count,
                    index0,
                    crash_at,
                    spec: spec.kind.clone(),
                });
                let slot = &mut slots[idx];
                let sent = slot
                    .stdin
                    .as_mut()
                    .map(|w| writeln!(w, "{}", job.encode()).and_then(|()| w.flush()));
                match sent {
                    Some(Ok(())) => {
                        slot.job = Some((shard, attempt));
                        slot.started = Instant::now();
                        slot.last_beat = Instant::now();
                    }
                    _ => {
                        // Dead pipe: put the job back and kill the child
                        // so its Gone event retires or respawns the slot.
                        pending.push_front((shard, attempt));
                        slot.killing = true;
                        if let Some(c) = slot.child.as_mut() {
                            let _ = c.kill();
                        }
                        break;
                    }
                }
            }
        }

        // Termination checks.
        let in_flight = slots.iter().filter(|s| s.job.is_some()).count();
        let settled = completed.len() as u64 + exhausted.len() as u64;
        let pool_live = slots.iter().any(|s| !s.retired);
        if in_flight == 0 && (settled == nshards || stop_requested() || !pool_live) {
            break;
        }

        // Handle one event (or tick).
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Event::Msg(idx, gen, msg)) => {
                if slots[idx].gen != gen {
                    continue;
                }
                match msg {
                    FromWorker::Hello { .. } | FromWorker::Bye => {
                        slots[idx].last_beat = Instant::now();
                    }
                    FromWorker::Heartbeat { .. } => {
                        slots[idx].last_beat = Instant::now();
                    }
                    FromWorker::Error { shard, detail } => {
                        eprintln!("[campaign] shard {shard}: worker error: {detail}");
                        slots[idx].last_beat = Instant::now();
                        if let Some((s, attempt)) = slots[idx].job.take() {
                            debug_assert_eq!(s, shard);
                            schedule_retry(spec, s, attempt, &mut delayed, &mut exhausted);
                        }
                    }
                    FromWorker::Result { shard, stats } => {
                        slots[idx].last_beat = Instant::now();
                        if slots[idx].job.map(|(s, _)| s) == Some(shard) {
                            slots[idx].job = None;
                        }
                        if let std::collections::btree_map::Entry::Vacant(slot) =
                            completed.entry(shard)
                        {
                            journal::append_line(
                                &journal_path,
                                &journal::seal_line(&done_payload(shard, &stats)),
                            )
                            .map_err(|e| format!("append campaign journal: {e}"))?;
                            slot.insert(stats);
                            // A late duplicate result (re-dispatched after
                            // a watchdog kill that the first worker
                            // survived) must not run again.
                            pending.retain(|&(s, _)| s != shard);
                            delayed.retain(|&(_, s, _)| s != shard);
                            exhausted.remove(&shard);
                            metrics::add_counter("campaign.shards_completed", 1);
                            metrics::set_gauge("campaign.shards_done", completed.len() as f64);
                            checkpoints_this_run += 1;
                            if spec.die_after_checkpoints == Some(checkpoints_this_run) {
                                // Simulate kill -9 for crash-recovery
                                // tests: no cleanup, no draining.
                                std::process::abort();
                            }
                        }
                    }
                }
            }
            Ok(Event::Gone(idx, gen)) => {
                if slots[idx].gen != gen {
                    continue;
                }
                let slot = &mut slots[idx];
                if let Some(mut child) = slot.child.take() {
                    let _ = child.wait();
                }
                slot.stdin = None;
                slot.killing = false;
                slot.failures += 1;
                metrics::add_counter("campaign.worker_deaths", 1);
                if let Some((shard, attempt)) = slot.job.take() {
                    eprintln!(
                        "[campaign] worker {idx} died while running shard {shard} \
                         (attempt {attempt})"
                    );
                    if !completed.contains_key(&shard) {
                        schedule_retry(spec, shard, attempt, &mut delayed, &mut exhausted);
                    }
                }
                if slot.failures > spec.worker_failure_budget {
                    slot.retired = true;
                    let live = slots.iter().filter(|s| !s.retired).count();
                    metrics::set_gauge("campaign.pool", live as f64);
                    eprintln!(
                        "[campaign] worker {idx} exceeded its failure budget — retired \
                         (pool now {live})"
                    );
                } else {
                    let gen = next_gen;
                    next_gen += 1;
                    slots[idx].gen = gen;
                    match spawn_worker(spec, idx, gen, &tx) {
                        Ok((child, stdin)) => {
                            slots[idx].child = Some(child);
                            slots[idx].stdin = Some(stdin);
                            slots[idx].last_beat = Instant::now();
                        }
                        Err(e) => {
                            eprintln!("[campaign] {e} — retiring worker {idx}");
                            slots[idx].retired = true;
                            let live = slots.iter().filter(|s| !s.retired).count();
                            metrics::set_gauge("campaign.pool", live as f64);
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Watchdog sweep: kill wedged or overdue workers; their Gone
        // event does the retry accounting.
        for (idx, slot) in slots.iter_mut().enumerate() {
            if slot.job.is_none() || slot.child.is_none() || slot.killing {
                continue;
            }
            let silent = slot.last_beat.elapsed() > spec.heartbeat_timeout;
            let overdue = slot.started.elapsed() > spec.job_deadline;
            if silent || overdue {
                let (shard, attempt) = slot.job.expect("checked above");
                eprintln!(
                    "[campaign] worker {idx} {} on shard {shard} (attempt {attempt}) — killing",
                    if silent {
                        "missed its heartbeat window"
                    } else {
                        "exceeded the job deadline"
                    }
                );
                metrics::add_counter("campaign.kills", 1);
                slot.killing = true;
                if let Some(c) = slot.child.as_mut() {
                    let _ = c.kill();
                }
            }
        }
    }

    // Shut the pool down: ask nicely, close stdin (EOF fallback), then
    // reap with a bound so a wedged worker cannot hang the shutdown.
    for slot in &mut slots {
        if let Some(stdin) = slot.stdin.as_mut() {
            let _ = writeln!(stdin, "{}", ToWorker::Shutdown.encode());
            let _ = stdin.flush();
        }
        slot.stdin = None;
    }
    for slot in &mut slots {
        if let Some(mut child) = slot.child.take() {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
    drop(rx);

    let mut merged = ShardStats::default();
    for stats in completed.values() {
        merged.merge(stats);
    }
    let incomplete: Vec<u64> = (0..nshards)
        .filter(|k| !completed.contains_key(k))
        .collect();
    metrics::set_gauge("campaign.shards_done", completed.len() as f64);
    Ok(CampaignReport {
        kind: spec.kind.kind().to_string(),
        seed0: spec.seed0,
        total: spec.total,
        shard_size: spec.shard_size,
        completed,
        incomplete,
        merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::GenFamily;

    fn spec(dir: &std::path::Path) -> CampaignSpec {
        CampaignSpec {
            kind: JobSpec::Fuzz {
                family: GenFamily::Baseline,
                break_forwarding: false,
            },
            seed0: 1,
            total: 10,
            shard_size: 4,
            workers: 2,
            max_attempts: 3,
            worker_failure_budget: 2,
            job_deadline: Duration::from_secs(600),
            heartbeat_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(400),
            artifacts: dir.to_path_buf(),
            resume: false,
            worker_cmd: vec!["unused-in-these-tests".into()],
            crash_shard: None,
            crash_every_attempt: false,
            die_after_checkpoints: None,
        }
    }

    #[test]
    fn journal_records_round_trip_and_reject_foreign_headers() {
        let dir = std::env::temp_dir().join(format!("tls_orch_j_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec(&dir);
        let stats = ShardStats {
            seeds: 4,
            violations: 2,
            failed: vec![3],
            ..ShardStats::default()
        };
        let payload = done_payload(1, &stats);
        let parsed = parse_done(&payload).expect("parses");
        assert_eq!(parsed, (1, stats.clone()));

        // A journal written by one campaign refuses to resume another.
        let path = s.artifacts.join(JOURNAL_FILE);
        let mut text = format!("{}\n", journal::seal_line(&header_payload(&s)));
        text.push_str(&format!("{}\n", journal::seal_line(&payload)));
        journal::write_atomic(&path, &text).expect("writes");
        let recovered = recover(&s).expect("recovers own journal");
        assert_eq!(recovered.get(&1), Some(&stats));
        let mut other = s.clone();
        other.seed0 = 999;
        let err = recover(&other).expect_err("foreign journal rejected");
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The report is the campaign's verdict file; resumed and
    /// uninterrupted runs are compared byte for byte.
    #[test]
    fn report_json_is_byte_stable() {
        let shard = |seeds, failed: Vec<u64>| ShardStats {
            seeds,
            regions: seeds - 1,
            oracle_steps: 1000 * seeds,
            failed,
            ..ShardStats::default()
        };
        let mut completed = BTreeMap::new();
        completed.insert(0, shard(4, vec![2]));
        completed.insert(2, shard(2, vec![]));
        let mut merged = ShardStats::default();
        for st in completed.values() {
            merged.merge(st);
        }
        let report = CampaignReport {
            kind: "fuzz".into(),
            seed0: 1,
            total: 10,
            shard_size: 4,
            completed,
            incomplete: vec![1],
            merged,
        };
        assert_eq!(
            report.to_json(),
            r#"{"kind":"fuzz","seed0":1,"total":10,"shard_size":4,"shards":3,"completed":2,"incomplete":[1],"merged":{"seeds":6,"regions":4,"sync_loads":0,"violations":0,"oracle_steps":6000,"runs":0,"injected":0,"masked":0,"rejected":0,"dormant":0,"unsound":0,"failed":[2],"errored":[]},"shards_detail":[{"shard":0,"stats":{"seeds":4,"regions":3,"sync_loads":0,"violations":0,"oracle_steps":4000,"runs":0,"injected":0,"masked":0,"rejected":0,"dormant":0,"unsound":0,"failed":[2],"errored":[]}},{"shard":2,"stats":{"seeds":2,"regions":1,"sync_loads":0,"violations":0,"oracle_steps":2000,"runs":0,"injected":0,"masked":0,"rejected":0,"dormant":0,"unsound":0,"failed":[],"errored":[]}}]}"#
        );
        let empty = CampaignReport {
            kind: "inject".into(),
            seed0: 7,
            total: 3,
            shard_size: 4,
            completed: BTreeMap::new(),
            incomplete: vec![0],
            merged: ShardStats::default(),
        };
        assert_eq!(
            empty.to_json(),
            r#"{"kind":"inject","seed0":7,"total":3,"shard_size":4,"shards":1,"completed":0,"incomplete":[0],"merged":{"seeds":0,"regions":0,"sync_loads":0,"violations":0,"oracle_steps":0,"runs":0,"injected":0,"masked":0,"rejected":0,"dormant":0,"unsound":0,"failed":[],"errored":[]},"shards_detail":[]}"#
        );
    }

    /// Jobs the workers could not read back are refused before any worker
    /// spawns or any journal is written.
    #[test]
    fn specs_the_wire_cannot_carry_are_refused() {
        let dir = std::env::temp_dir().join(format!("tls_orch_wire_{}", std::process::id()));
        let mut s = spec(&dir);
        s.seed0 = json::MAX_EXACT_UINT - s.total + 1;
        let err = run_campaign(&s).expect_err("seeds past 2^53");
        assert!(err.contains("reach 2^53"), "{err}");
        s.seed0 = 1;
        s.kind = JobSpec::Inject {
            bench: "go".into(),
            mode: "C".into(),
            scale: "quick".into(),
            faults: "both".into(),
            rate: 0.05,
            budget: u64::MAX,
        };
        let err = run_campaign(&s).expect_err("budget past 2^53");
        assert!(err.contains("worker protocol"), "{err}");
        assert!(!dir.exists(), "nothing written");
    }

    #[test]
    fn backoff_grows_exponentially_and_deterministically() {
        let dir = std::env::temp_dir();
        let s = spec(&dir);
        let d1 = backoff_delay(&s, 3, 1);
        let d2 = backoff_delay(&s, 3, 2);
        let d3 = backoff_delay(&s, 3, 3);
        assert_eq!(d1, backoff_delay(&s, 3, 1), "jitter is deterministic");
        assert!(d2 > d1 && d3 > d2, "{d1:?} {d2:?} {d3:?}");
        // The exponential part is capped.
        let big = backoff_delay(&s, 3, 60);
        assert!(big <= s.backoff_cap + s.backoff_base, "{big:?}");
    }

    #[test]
    fn shard_arithmetic_covers_the_tail() {
        assert_eq!(shard_count(10, 4), 3);
        assert_eq!(shard_count(8, 4), 2);
        assert_eq!(shard_count(1, 4), 1);
    }
}
