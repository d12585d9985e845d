//! Consumers of the event stream: recording, replay, invariant checking,
//! and timeline export.
//!
//! [`RecordingTracer`] captures the full typed stream of a
//! [`crate::Machine::run_traced`] run. On top of it this module provides:
//!
//! * [`replay_slots`] — reconstructs each region's busy/fail/sync/other
//!   graduation-slot breakdown *from events alone*, mirroring the
//!   machine's commit/squash/cancel arithmetic exactly. Agreement with
//!   [`crate::SimResult`] proves the event stream is complete.
//! * [`check_event_stream`] — structural invariants: every spawn is closed
//!   by exactly one commit or cancel (squashes close an attempt and reopen
//!   the next), wait begin/end pairs nest, memory-signal receives match a
//!   prior send, events stay inside an entered region instance.
//! * [`perfetto_json`] — a Chrome-trace/Perfetto JSON timeline (one track
//!   per core, slices per epoch attempt colored by outcome, instants for
//!   violations and signals) and [`validate_perfetto`], a dependency-free
//!   well-formedness/monotonicity checker for it.
//! * [`ascii_timeline`] — a compact terminal rendering of the same
//!   timeline.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use tls_ir::RegionId;

use crate::events::{SignalKind, TraceEvent, Tracer, WaitKind};
use crate::inject::FaultClass;
use crate::json::{self, parse_json, Json, Writer};
use crate::stats::SlotBreakdown;

/// Captures every event in order.
#[derive(Clone, Debug, Default)]
pub struct RecordingTracer {
    /// The recorded stream, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Tracer for RecordingTracer {
    fn event(&mut self, e: TraceEvent) {
        self.events.push(e);
    }
}

/// Counts events without storing them — the cheapest *enabled* tracer,
/// used to measure the overhead of the tracing hooks themselves.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingTracer {
    /// Total events received.
    pub count: u64,
}

impl Tracer for CountingTracer {
    #[inline]
    fn event(&mut self, _e: TraceEvent) {
        self.count += 1;
    }
}

/// Per-region aggregates reconstructed by [`replay_slots`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayedRegion {
    /// Graduation-slot breakdown summed over the region's instances.
    pub slots: SlotBreakdown,
    /// Cycles inside the region's instances.
    pub cycles: u64,
    /// Squashed epoch attempts.
    pub violations: u64,
    /// Committed epochs.
    pub epochs: u64,
    /// Dynamic instances.
    pub instances: u64,
}

/// Rebuild each region's slot breakdown from the event stream, using the
/// same arithmetic as the simulator's commit/squash/cancel accounting.
/// `w` is the issue width and `cores` the core count of the run's
/// [`crate::SimConfig`].
///
/// Matching the run's [`crate::RegionStats`] exactly is the event-stream
/// completeness invariant the test suite enforces.
pub fn replay_slots(
    events: &[TraceEvent],
    w: u64,
    cores: u64,
) -> BTreeMap<RegionId, ReplayedRegion> {
    struct Instance {
        t0: u64,
        attributed: u64,
        acc: ReplayedRegion,
    }
    let mut open: HashMap<(RegionId, u64), Instance> = HashMap::new();
    let mut out: BTreeMap<RegionId, ReplayedRegion> = BTreeMap::new();
    for ev in events {
        match *ev {
            TraceEvent::RegionEnter { rid, ord, time } => {
                open.insert(
                    (rid, ord),
                    Instance {
                        t0: time,
                        attributed: 0,
                        acc: ReplayedRegion {
                            instances: 1,
                            ..ReplayedRegion::default()
                        },
                    },
                );
            }
            TraceEvent::EpochCommit {
                rid,
                ord,
                start,
                end,
                graduated,
                sync_cycles,
                ..
            } => {
                if let Some(inst) = open.get_mut(&(rid, ord)) {
                    let cycles = end.saturating_sub(start);
                    let slots = cycles * w;
                    let busy = graduated.min(slots);
                    let sync = (sync_cycles * w).min(slots - busy);
                    inst.acc.slots.add(&SlotBreakdown {
                        busy,
                        fail: 0,
                        sync,
                        other: slots - busy - sync,
                    });
                    inst.attributed += slots;
                    inst.acc.epochs += 1;
                }
            }
            TraceEvent::EpochSquash {
                rid,
                ord,
                start,
                end,
                ..
            } => {
                if let Some(inst) = open.get_mut(&(rid, ord)) {
                    let cycles = end.saturating_sub(start) * w;
                    inst.acc.slots.fail += cycles;
                    inst.attributed += cycles;
                    inst.acc.violations += 1;
                }
            }
            TraceEvent::EpochCancel {
                rid,
                ord,
                start,
                end,
                ..
            } => {
                if let Some(inst) = open.get_mut(&(rid, ord)) {
                    let cycles = end.saturating_sub(start) * w;
                    inst.acc.slots.fail += cycles;
                    inst.attributed += cycles;
                }
            }
            TraceEvent::RegionExit { rid, ord, time } => {
                if let Some(mut inst) = open.remove(&(rid, ord)) {
                    let cycles = time.saturating_sub(inst.t0);
                    inst.acc.cycles = cycles;
                    let total_slots = cores * w * cycles;
                    inst.acc.slots.other += total_slots.saturating_sub(inst.attributed);
                    let agg = out.entry(rid).or_default();
                    agg.slots.add(&inst.acc.slots);
                    agg.cycles += inst.acc.cycles;
                    agg.violations += inst.acc.violations;
                    agg.epochs += inst.acc.epochs;
                    agg.instances += inst.acc.instances;
                }
            }
            _ => {}
        }
    }
    out
}

/// Counts returned by a successful [`check_event_stream`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStreamStats {
    /// Region instances entered (and exited).
    pub instances: u64,
    /// Epochs spawned.
    pub spawns: u64,
    /// Committed epoch attempts.
    pub commits: u64,
    /// Squashed epoch attempts.
    pub squashes: u64,
    /// Cancelled epoch attempts (region exited first).
    pub cancels: u64,
    /// Violations detected.
    pub violations: u64,
}

#[derive(Default)]
struct EpochLedger {
    /// `None` once the epoch saw its terminal commit/cancel.
    open: bool,
    closed: bool,
    wait: Option<(WaitKind, u64)>,
}

/// Verify the structural invariants of an event stream.
///
/// * every event of a region instance falls between its `RegionEnter` and
///   `RegionExit`, and every entered instance exits;
/// * every `EpochSpawn` is closed by exactly one `EpochCommit` or
///   `EpochCancel`; an `EpochSquash` closes the current attempt and opens
///   the restarted one;
/// * `WaitBegin`/`WaitEnd` pairs nest (at most one open wait per epoch,
///   ended with the matching kind and begin cycle, and no attempt
///   terminates with a wait open);
/// * a memory `SignalRecv` carrying a forwarded `(addr, value)` matches a
///   prior `SignalSend` of the same group, address and value (scalar
///   receives may also come from the region-entry baseline, which
///   `RegionEnter` seeds for every channel, so their values are not
///   checked).
///
/// # Errors
/// A description of the first violated invariant.
pub fn check_event_stream(events: &[TraceEvent]) -> Result<EventStreamStats, String> {
    struct Instance {
        epochs: HashMap<u64, EpochLedger>,
        /// Memory-signal sends seen so far: (group, addr, value).
        mem_sends: HashSet<(u32, i64, i64)>,
    }
    let mut stats = EventStreamStats::default();
    let mut open: HashMap<(RegionId, u64), Instance> = HashMap::new();

    fn get<'a>(
        open: &'a mut HashMap<(RegionId, u64), Instance>,
        rid: RegionId,
        ord: u64,
        what: &str,
    ) -> Result<&'a mut Instance, String> {
        open.get_mut(&(rid, ord))
            .ok_or_else(|| format!("{what} outside an active instance of region {rid:?} ord {ord}"))
    }
    fn live<'a>(
        inst: &'a mut Instance,
        epoch: u64,
        what: &str,
    ) -> Result<&'a mut EpochLedger, String> {
        let l = inst
            .epochs
            .get_mut(&epoch)
            .ok_or_else(|| format!("{what} for never-spawned epoch {epoch}"))?;
        if !l.open {
            return Err(format!("{what} for epoch {epoch} with no open attempt"));
        }
        Ok(l)
    }

    for (i, ev) in events.iter().enumerate() {
        let step = (|| -> Result<(), String> {
            match *ev {
                TraceEvent::RegionEnter { rid, ord, .. } => {
                    if open
                        .insert(
                            (rid, ord),
                            Instance {
                                epochs: HashMap::new(),
                                mem_sends: HashSet::new(),
                            },
                        )
                        .is_some()
                    {
                        return Err(format!("instance ({rid:?}, {ord}) entered twice"));
                    }
                    stats.instances += 1;
                }
                TraceEvent::RegionExit { rid, ord, .. } => {
                    let inst = open
                        .remove(&(rid, ord))
                        .ok_or("exit of a never-entered instance")?;
                    for (epoch, l) in &inst.epochs {
                        if l.open || !l.closed {
                            return Err(format!("region exited with epoch {epoch} still open"));
                        }
                    }
                }
                TraceEvent::EpochSpawn {
                    rid, ord, epoch, ..
                } => {
                    let inst = get(&mut open, rid, ord, "spawn")?;
                    if inst
                        .epochs
                        .insert(
                            epoch,
                            EpochLedger {
                                open: true,
                                ..EpochLedger::default()
                            },
                        )
                        .is_some()
                    {
                        return Err(format!("epoch {epoch} spawned twice"));
                    }
                    stats.spawns += 1;
                }
                TraceEvent::EpochCommit {
                    rid,
                    ord,
                    epoch,
                    start,
                    end,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "commit")?;
                    let l = live(inst, epoch, "commit")?;
                    if l.wait.is_some() {
                        return Err(format!("epoch {epoch} committed with an open wait"));
                    }
                    if end < start {
                        return Err("commit ends before its attempt starts".into());
                    }
                    l.open = false;
                    l.closed = true;
                    stats.commits += 1;
                }
                TraceEvent::EpochCancel {
                    rid,
                    ord,
                    epoch,
                    start,
                    end,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "cancel")?;
                    let l = live(inst, epoch, "cancel")?;
                    if l.wait.is_some() {
                        return Err(format!("epoch {epoch} cancelled with an open wait"));
                    }
                    if end < start {
                        return Err("cancel ends before its attempt starts".into());
                    }
                    l.open = false;
                    l.closed = true;
                    stats.cancels += 1;
                }
                TraceEvent::EpochSquash {
                    rid,
                    ord,
                    epoch,
                    start,
                    end,
                    restart,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "squash")?;
                    let l = live(inst, epoch, "squash")?;
                    if l.wait.is_some() {
                        return Err(format!("epoch {epoch} squashed with an open wait"));
                    }
                    if end < start || restart < end {
                        return Err("squash attempt span or restart out of order".into());
                    }
                    // The attempt closes and the restarted one opens: the
                    // ledger stays open.
                    stats.squashes += 1;
                }
                TraceEvent::Violation {
                    rid, ord, consumer, ..
                } => {
                    let inst = get(&mut open, rid, ord, "violation")?;
                    live(inst, consumer, "violation")?;
                    stats.violations += 1;
                }
                TraceEvent::WaitBegin {
                    rid,
                    ord,
                    epoch,
                    kind,
                    time,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "wait-begin")?;
                    let l = live(inst, epoch, "wait-begin")?;
                    if let Some((k, _)) = l.wait {
                        return Err(format!(
                            "epoch {epoch} began waiting on {kind:?} while waiting on {k:?}"
                        ));
                    }
                    l.wait = Some((kind, time));
                }
                TraceEvent::WaitEnd {
                    rid,
                    ord,
                    epoch,
                    kind,
                    since,
                    time,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "wait-end")?;
                    let l = live(inst, epoch, "wait-end")?;
                    match l.wait.take() {
                        Some((k, s)) if k == kind && s == since => {
                            if time < since {
                                return Err("wait ends before it began".into());
                            }
                        }
                        Some((k, s)) => {
                            return Err(format!(
                                "wait-end {kind:?}@{since} does not match open wait {k:?}@{s}"
                            ));
                        }
                        None => return Err(format!("epoch {epoch} ended a wait it never began")),
                    }
                }
                TraceEvent::SignalSend {
                    rid,
                    ord,
                    epoch,
                    kind,
                    addr,
                    value,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "send")?;
                    live(inst, epoch, "send")?;
                    if let (SignalKind::Mem(g) | SignalKind::MemNull(g), Some(a)) = (kind, addr) {
                        inst.mem_sends.insert((g.0, a, value));
                    }
                }
                TraceEvent::SignalRecv {
                    rid,
                    ord,
                    epoch,
                    kind,
                    addr,
                    value,
                    ..
                } => {
                    let inst = get(&mut open, rid, ord, "recv")?;
                    live(inst, epoch, "recv")?;
                    if let SignalKind::Mem(g) | SignalKind::MemNull(g) = kind {
                        let a = addr.ok_or("memory recv without a forwarded address")?;
                        if !inst.mem_sends.contains(&(g.0, a, value)) {
                            return Err(format!(
                                "recv of ({a}, {value}) on group {} without a matching send",
                                g.0
                            ));
                        }
                    }
                }
                TraceEvent::SpecStore {
                    rid, ord, epoch, ..
                } => {
                    let inst = get(&mut open, rid, ord, "spec-store")?;
                    live(inst, epoch, "spec-store")?;
                }
                TraceEvent::SpecLoad {
                    rid, ord, epoch, ..
                } => {
                    let inst = get(&mut open, rid, ord, "spec-load")?;
                    live(inst, epoch, "spec-load")?;
                }
                TraceEvent::PredictedLoad {
                    rid, ord, epoch, ..
                } => {
                    let inst = get(&mut open, rid, ord, "predicted-load")?;
                    live(inst, epoch, "predicted-load")?;
                }
                TraceEvent::CommitWrite {
                    rid, ord, epoch, ..
                } => {
                    // Emitted while the committing attempt is still open
                    // (just before its EpochCommit).
                    let inst = get(&mut open, rid, ord, "commit-write")?;
                    live(inst, epoch, "commit-write")?;
                }
                TraceEvent::PolicyTransition {
                    rid,
                    ord,
                    epoch,
                    from,
                    to,
                    ..
                } => {
                    // A policy switch is always driven by a live epoch's
                    // load (or its violation) inside an open instance, and
                    // never switches a dependence to the policy it already
                    // has.
                    let inst = get(&mut open, rid, ord, "policy-transition")?;
                    live(inst, epoch, "policy-transition")?;
                    if from == to {
                        return Err(format!("policy transition {from:?} -> {to:?} is a no-op"));
                    }
                }
                TraceEvent::Reprofile { rid, ord, .. } => {
                    get(&mut open, rid, ord, "reprofile")?;
                }
                TraceEvent::LineEvict { .. }
                | TraceEvent::SlotSample { .. }
                | TraceEvent::FaultInject { .. } => {}
            }
            Ok(())
        })();
        if let Err(msg) = step {
            return Err(format!("event {i}: {msg} ({ev:?})"));
        }
    }
    if let Some(((rid, ord), _)) = open.iter().next() {
        return Err(format!("instance ({rid:?}, {ord}) never exited"));
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// Perfetto / Chrome-trace export
// ---------------------------------------------------------------------

fn signal_name(kind: SignalKind) -> String {
    match kind {
        SignalKind::Scalar(c) => format!("chan {}", c.0),
        SignalKind::Mem(g) => format!("group {}", g.0),
        SignalKind::MemNull(g) => format!("group {} (null)", g.0),
    }
}

/// Render the event stream as Chrome-trace/Perfetto JSON.
///
/// One process per region (`pid` = region id), one track per core
/// (`tid` = core). Epoch attempts become complete (`"X"`) slices named by
/// epoch and colored by outcome (`good` commit / `terrible` squash /
/// `grey` cancel); violations and signal sends/receives become instant
/// (`"i"`) events. Timestamps are simulated cycles written as
/// microseconds. Events are sorted by timestamp, so the output passes
/// [`validate_perfetto`]. Open the file at <https://ui.perfetto.dev>.
pub fn perfetto_json(events: &[TraceEvent]) -> String {
    // Track-naming metadata first, then (ts, event) rows sorted by ts.
    let mut meta: Vec<String> = Vec::new();
    let mut rows: Vec<(u64, String)> = Vec::new();
    let mut procs: HashSet<u32> = HashSet::new();
    let mut threads: HashSet<(u32, usize)> = HashSet::new();
    let mut track = |rid: RegionId, core: usize| {
        let mut name = |what: &str, tid: usize, label: String| {
            meta.push(json::object(|w| {
                w.str("ph", "M")
                    .str("name", what)
                    .raw("pid", rid.0)
                    .raw("tid", tid)
                    .raw("ts", 0)
                    .obj("args", |w| {
                        w.str("name", &label);
                    });
            }));
        };
        if procs.insert(rid.0) {
            name("process_name", 0, format!("region {}", rid.0));
        }
        if threads.insert((rid.0, core)) {
            name("thread_name", core, format!("core {core}"));
        }
    };
    let slice = |rid: RegionId,
                 ord: u64,
                 epoch: u64,
                 core: usize,
                 (start, end): (u64, u64),
                 (outcome, cname): (&str, &str),
                 extra: &dyn Fn(&mut Writer)| {
        let row = json::object(|w| {
            w.str("ph", "X")
                .str("name", &format!("epoch {epoch}"))
                .str("cat", outcome)
                .raw("pid", rid.0)
                .raw("tid", core)
                .raw("ts", start)
                .raw("dur", end.saturating_sub(start))
                .str("cname", cname)
                .obj("args", |w| {
                    w.raw("ord", ord)
                        .raw("epoch", epoch)
                        .str("outcome", outcome);
                    extra(w);
                });
        });
        (start, row)
    };
    let instant =
        |name: &str, rid: RegionId, core: usize, time: u64, args: &dyn Fn(&mut Writer)| {
            let row = json::object(|w| {
                w.str("ph", "i")
                    .str("name", name)
                    .str("s", "t")
                    .raw("pid", rid.0)
                    .raw("tid", core)
                    .raw("ts", time)
                    .obj("args", args);
            });
            (time, row)
        };
    // Unknown sids and addresses are left out rather than written as null.
    let sids = |w: &mut Writer, load: Option<tls_ir::Sid>, store: Option<tls_ir::Sid>| {
        if let Some(l) = load {
            w.raw("load_sid", l.0);
        }
        if let Some(s) = store {
            w.raw("store_sid", s.0);
        }
    };

    for ev in events {
        match *ev {
            TraceEvent::EpochSpawn { rid, core, .. } => track(rid, core),
            TraceEvent::EpochCommit {
                rid,
                ord,
                epoch,
                core,
                start,
                end,
                graduated,
                sync_cycles,
            } => {
                track(rid, core);
                rows.push(slice(
                    rid,
                    ord,
                    epoch,
                    core,
                    (start, end),
                    ("commit", "good"),
                    &|w| {
                        w.raw("graduated", graduated)
                            .raw("sync_cycles", sync_cycles);
                    },
                ));
            }
            TraceEvent::EpochSquash {
                rid,
                ord,
                epoch,
                core,
                start,
                end,
                load_sid,
                store_sid,
                ..
            } => {
                track(rid, core);
                rows.push(slice(
                    rid,
                    ord,
                    epoch,
                    core,
                    (start, end),
                    ("squash", "terrible"),
                    &|w| {
                        sids(w, load_sid, store_sid);
                    },
                ));
            }
            TraceEvent::EpochCancel {
                rid,
                ord,
                epoch,
                core,
                start,
                end,
            } => {
                track(rid, core);
                rows.push(slice(
                    rid,
                    ord,
                    epoch,
                    core,
                    (start, end),
                    ("cancel", "grey"),
                    &|_| {},
                ));
            }
            TraceEvent::Violation {
                rid,
                ord,
                kind,
                load_sid,
                store_sid,
                addr,
                producer,
                consumer,
                core,
                time,
            } => {
                rows.push(instant("violation", rid, core, time, &|w| {
                    w.str("kind", kind.name())
                        .raw("ord", ord)
                        .raw("consumer", consumer);
                    sids(w, load_sid, store_sid);
                    if let Some(a) = addr {
                        w.raw("addr", a);
                    }
                    if let Some(p) = producer {
                        w.raw("producer", p);
                    }
                }));
            }
            TraceEvent::SignalSend {
                rid,
                ord,
                epoch,
                core,
                kind,
                addr,
                value,
                time,
            }
            | TraceEvent::SignalRecv {
                rid,
                ord,
                epoch,
                core,
                kind,
                addr,
                value,
                time,
            } => {
                let name = if matches!(ev, TraceEvent::SignalSend { .. }) {
                    "send"
                } else {
                    "recv"
                };
                rows.push(instant(name, rid, core, time, &|w| {
                    w.str("on", &signal_name(kind))
                        .raw("value", value)
                        .raw("ord", ord)
                        .raw("epoch", epoch);
                    if let Some(a) = addr {
                        w.raw("addr", a);
                    }
                }));
            }
            _ => {}
        }
    }
    // Attempts still open at the end of the stream (there are none after a
    // completed run) are dropped: slices need an end.
    rows.sort_by_key(|(ts, _)| *ts);
    json::object(|w| {
        w.arr("traceEvents", |w| {
            for row in meta.iter().chain(rows.iter().map(|(_, row)| row)) {
                w.item_raw(row);
            }
        })
        .str("displayTimeUnit", "ns");
    })
}

/// Validate a Chrome-trace/Perfetto JSON document: well-formed JSON, a
/// `traceEvents` array whose entries all carry `ph`/`ts`/`pid`/`tid`,
/// complete (`"X"`) events carry a non-negative `dur`, and timestamps are
/// monotonically non-decreasing. Returns the number of trace events.
///
/// # Errors
/// A description of the first schema violation.
pub fn validate_perfetto(json: &str) -> Result<usize, String> {
    let doc = parse_json(json)?;
    let events = doc.get("traceEvents").ok_or("missing `traceEvents`")?;
    let Json::Arr(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric `{key}`"))?;
        }
        if ph == "X" {
            let dur = ev
                .get("dur")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: complete event missing `dur`"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative `dur`"));
            }
        }
        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamp {ts} goes backwards (previous {last_ts})"
            ));
        }
        last_ts = ts;
    }
    Ok(events.len())
}

// ---------------------------------------------------------------------
// Lossless event-stream JSON (round-trippable, unlike the Perfetto export)
// ---------------------------------------------------------------------

fn wait_kind_str(k: WaitKind) -> String {
    match k {
        WaitKind::Scalar(c) => format!("scalar:{}", c.0),
        WaitKind::Mem(g) => format!("mem:{}", g.0),
        WaitKind::Oldest => "oldest".into(),
    }
}

fn parse_wait_kind(s: &str) -> Result<WaitKind, String> {
    if s == "oldest" {
        return Ok(WaitKind::Oldest);
    }
    let (tag, id) = s
        .split_once(':')
        .ok_or_else(|| format!("bad wait kind `{s}`"))?;
    let id: u32 = id.parse().map_err(|_| format!("bad wait kind id `{s}`"))?;
    match tag {
        "scalar" => Ok(WaitKind::Scalar(tls_ir::ChanId(id))),
        "mem" => Ok(WaitKind::Mem(tls_ir::GroupId(id))),
        _ => Err(format!("bad wait kind `{s}`")),
    }
}

fn signal_kind_str(k: SignalKind) -> String {
    match k {
        SignalKind::Scalar(c) => format!("scalar:{}", c.0),
        SignalKind::Mem(g) => format!("mem:{}", g.0),
        SignalKind::MemNull(g) => format!("memnull:{}", g.0),
    }
}

fn parse_signal_kind(s: &str) -> Result<SignalKind, String> {
    let (tag, id) = s
        .split_once(':')
        .ok_or_else(|| format!("bad signal kind `{s}`"))?;
    let id: u32 = id
        .parse()
        .map_err(|_| format!("bad signal kind id `{s}`"))?;
    match tag {
        "scalar" => Ok(SignalKind::Scalar(tls_ir::ChanId(id))),
        "mem" => Ok(SignalKind::Mem(tls_ir::GroupId(id))),
        "memnull" => Ok(SignalKind::MemNull(tls_ir::GroupId(id))),
        _ => Err(format!("bad signal kind `{s}`")),
    }
}

fn parse_policy(s: &str) -> Result<crate::adapt::Policy, String> {
    crate::adapt::Policy::parse(s).ok_or_else(|| format!("bad policy `{s}`"))
}

fn parse_violation_kind(s: &str) -> Result<crate::events::ViolationKind, String> {
    use crate::events::ViolationKind as V;
    match s {
        "eager" => Ok(V::Eager),
        "commit_time" => Ok(V::CommitTime),
        "resignal" => Ok(V::Resignal),
        "mispredict" => Ok(V::Mispredict),
        _ => Err(format!("bad violation kind `{s}`")),
    }
}

/// Serialize the typed event stream to JSON, one object per event, with
/// every field preserved exactly (`i64` addresses and values as strings,
/// see [`Writer::i64`]). The inverse of [`events_from_json`]:
/// `events_from_json(&events_to_json(evs)) == Ok(evs)` for every stream
/// the simulator can emit (the round-trip test in `tests/` enforces this
/// over a fuzz corpus).
pub fn events_to_json(events: &[TraceEvent]) -> String {
    json::object(|w| {
        w.arr("traceEventsV1", |w| {
            for ev in events {
                w.item_obj(|w| write_event(w, ev));
            }
        });
    })
}

/// The members of one event object: `ev`, then the variant's fields.
fn write_event(w: &mut Writer, ev: &TraceEvent) {
    let w = w.str("ev", event_name(ev));
    match *ev {
        TraceEvent::RegionEnter { rid, ord, time }
        | TraceEvent::RegionExit { rid, ord, time }
        | TraceEvent::Reprofile { rid, ord, time } => {
            w.raw("rid", rid.0).raw("ord", ord).raw("time", time);
        }
        TraceEvent::EpochSpawn {
            rid,
            ord,
            epoch,
            core,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core)
                .raw("time", time);
        }
        TraceEvent::EpochCommit {
            rid,
            ord,
            epoch,
            core,
            start,
            end,
            graduated,
            sync_cycles,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("start", start).raw("end", end);
            w.raw("graduated", graduated)
                .raw("sync_cycles", sync_cycles);
        }
        TraceEvent::EpochSquash {
            rid,
            ord,
            epoch,
            core,
            start,
            end,
            restart,
            load_sid,
            store_sid,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("start", start)
                .raw("end", end)
                .raw("restart", restart);
            w.opt("load_sid", load_sid.map(|s| s.0), Writer::raw);
            w.opt("store_sid", store_sid.map(|s| s.0), Writer::raw);
        }
        TraceEvent::EpochCancel {
            rid,
            ord,
            epoch,
            core,
            start,
            end,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("start", start).raw("end", end);
        }
        TraceEvent::Violation {
            rid,
            ord,
            kind,
            load_sid,
            store_sid,
            addr,
            producer,
            consumer,
            core,
            time,
        } => {
            w.raw("rid", rid.0).raw("ord", ord).str("kind", kind.name());
            w.raw("consumer", consumer)
                .raw("core", core)
                .raw("time", time);
            w.opt("load_sid", load_sid.map(|s| s.0), Writer::raw);
            w.opt("store_sid", store_sid.map(|s| s.0), Writer::raw);
            w.opt("addr", addr, Writer::i64)
                .opt("producer", producer, Writer::raw);
        }
        TraceEvent::WaitBegin {
            rid,
            ord,
            epoch,
            core,
            kind,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.str("kind", &wait_kind_str(kind)).raw("time", time);
        }
        TraceEvent::WaitEnd {
            rid,
            ord,
            epoch,
            core,
            kind,
            since,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.str("kind", &wait_kind_str(kind))
                .raw("since", since)
                .raw("time", time);
        }
        TraceEvent::SignalSend {
            rid,
            ord,
            epoch,
            core,
            kind,
            addr,
            value,
            time,
        }
        | TraceEvent::SignalRecv {
            rid,
            ord,
            epoch,
            core,
            kind,
            addr,
            value,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.str("kind", &signal_kind_str(kind)).raw("time", time);
            w.opt("addr", addr, Writer::i64).i64("value", value);
        }
        TraceEvent::LineEvict {
            core,
            line,
            speculative,
            time,
        } => {
            w.raw("core", core)
                .raw("speculative", speculative)
                .raw("time", time)
                .i64("line", line);
        }
        TraceEvent::SlotSample {
            rid,
            ord,
            time,
            slots,
        } => {
            w.raw("rid", rid.0).raw("ord", ord).raw("time", time);
            w.raw("busy", slots.busy).raw("fail", slots.fail);
            w.raw("sync", slots.sync).raw("other", slots.other);
        }
        TraceEvent::SpecStore {
            rid,
            ord,
            epoch,
            core,
            sid,
            addr,
            value,
            time,
        }
        | TraceEvent::PredictedLoad {
            rid,
            ord,
            epoch,
            core,
            sid,
            addr,
            value,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("sid", sid.0)
                .raw("time", time)
                .i64("addr", addr)
                .i64("value", value);
        }
        TraceEvent::SpecLoad {
            rid,
            ord,
            epoch,
            core,
            sid,
            addr,
            value,
            exposed,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("sid", sid.0)
                .raw("exposed", exposed)
                .raw("time", time);
            w.i64("addr", addr).i64("value", value);
        }
        TraceEvent::PolicyTransition {
            rid,
            ord,
            epoch,
            core,
            sid,
            from,
            to,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("core", core);
            w.raw("sid", sid.0)
                .str("from", from.name())
                .str("to", to.name())
                .raw("time", time);
        }
        TraceEvent::CommitWrite {
            rid,
            ord,
            epoch,
            addr,
            value,
            time,
        } => {
            w.raw("rid", rid.0)
                .raw("ord", ord)
                .raw("epoch", epoch)
                .raw("time", time);
            w.i64("addr", addr).i64("value", value);
        }
        TraceEvent::FaultInject {
            class,
            epoch,
            addr,
            time,
        } => {
            w.str("class", class.name()).raw("time", time);
            w.opt("epoch", epoch, Writer::raw)
                .opt("addr", addr, Writer::i64);
        }
    }
}

fn event_name(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::RegionEnter { .. } => "region_enter",
        TraceEvent::RegionExit { .. } => "region_exit",
        TraceEvent::EpochSpawn { .. } => "spawn",
        TraceEvent::EpochCommit { .. } => "commit",
        TraceEvent::EpochSquash { .. } => "squash",
        TraceEvent::EpochCancel { .. } => "cancel",
        TraceEvent::Violation { .. } => "violation",
        TraceEvent::WaitBegin { .. } => "wait_begin",
        TraceEvent::WaitEnd { .. } => "wait_end",
        TraceEvent::SignalSend { .. } => "signal_send",
        TraceEvent::SignalRecv { .. } => "signal_recv",
        TraceEvent::LineEvict { .. } => "line_evict",
        TraceEvent::SlotSample { .. } => "slot_sample",
        TraceEvent::SpecStore { .. } => "spec_store",
        TraceEvent::SpecLoad { .. } => "spec_load",
        TraceEvent::PredictedLoad { .. } => "predicted_load",
        TraceEvent::PolicyTransition { .. } => "policy_transition",
        TraceEvent::Reprofile { .. } => "reprofile",
        TraceEvent::CommitWrite { .. } => "commit_write",
        TraceEvent::FaultInject { .. } => "fault_inject",
    }
}

/// Parse a document produced by [`events_to_json`] back into the exact
/// typed event stream.
///
/// # Errors
/// A description of the first syntax or schema error.
pub fn events_from_json(s: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = parse_json(s)?;
    let events = doc.get("traceEventsV1").ok_or("missing `traceEventsV1`")?;
    let Json::Arr(events) = events else {
        return Err("`traceEventsV1` is not an array".into());
    };
    events
        .iter()
        .enumerate()
        .map(|(i, o)| read_event(o).map_err(|e| format!("event {i}: {e}")))
        .collect()
}

fn read_event(o: &Json) -> Result<TraceEvent, String> {
    use tls_ir::Sid;
    Ok(match o.str("ev")? {
        "region_enter" => TraceEvent::RegionEnter {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            time: o.uint("time")?,
        },
        "region_exit" => TraceEvent::RegionExit {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            time: o.uint("time")?,
        },
        "spawn" => TraceEvent::EpochSpawn {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            time: o.uint("time")?,
        },
        "commit" => TraceEvent::EpochCommit {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            start: o.uint("start")?,
            end: o.uint("end")?,
            graduated: o.uint("graduated")?,
            sync_cycles: o.uint("sync_cycles")?,
        },
        "squash" => TraceEvent::EpochSquash {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            start: o.uint("start")?,
            end: o.uint("end")?,
            restart: o.uint("restart")?,
            load_sid: o.opt("load_sid", Json::uint)?.map(Sid),
            store_sid: o.opt("store_sid", Json::uint)?.map(Sid),
        },
        "cancel" => TraceEvent::EpochCancel {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            start: o.uint("start")?,
            end: o.uint("end")?,
        },
        "violation" => TraceEvent::Violation {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            kind: parse_violation_kind(o.str("kind")?)?,
            load_sid: o.opt("load_sid", Json::uint)?.map(Sid),
            store_sid: o.opt("store_sid", Json::uint)?.map(Sid),
            addr: o.opt("addr", Json::i64)?,
            producer: o.opt("producer", Json::uint)?,
            consumer: o.uint("consumer")?,
            core: o.uint("core")?,
            time: o.uint("time")?,
        },
        "wait_begin" => TraceEvent::WaitBegin {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            kind: parse_wait_kind(o.str("kind")?)?,
            time: o.uint("time")?,
        },
        "wait_end" => TraceEvent::WaitEnd {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            kind: parse_wait_kind(o.str("kind")?)?,
            since: o.uint("since")?,
            time: o.uint("time")?,
        },
        name @ ("signal_send" | "signal_recv") => {
            let (rid, ord) = (RegionId(o.uint("rid")?), o.uint("ord")?);
            let (epoch, core) = (o.uint("epoch")?, o.uint("core")?);
            let kind = parse_signal_kind(o.str("kind")?)?;
            let (addr, value) = (o.opt("addr", Json::i64)?, o.i64("value")?);
            let time = o.uint("time")?;
            if name == "signal_send" {
                TraceEvent::SignalSend {
                    rid,
                    ord,
                    epoch,
                    core,
                    kind,
                    addr,
                    value,
                    time,
                }
            } else {
                TraceEvent::SignalRecv {
                    rid,
                    ord,
                    epoch,
                    core,
                    kind,
                    addr,
                    value,
                    time,
                }
            }
        }
        "line_evict" => TraceEvent::LineEvict {
            core: o.uint("core")?,
            line: o.i64("line")?,
            speculative: o.bool("speculative")?,
            time: o.uint("time")?,
        },
        "slot_sample" => TraceEvent::SlotSample {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            time: o.uint("time")?,
            slots: SlotBreakdown {
                busy: o.uint("busy")?,
                fail: o.uint("fail")?,
                sync: o.uint("sync")?,
                other: o.uint("other")?,
            },
        },
        "spec_store" => TraceEvent::SpecStore {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            sid: Sid(o.uint("sid")?),
            addr: o.i64("addr")?,
            value: o.i64("value")?,
            time: o.uint("time")?,
        },
        "spec_load" => TraceEvent::SpecLoad {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            sid: Sid(o.uint("sid")?),
            addr: o.i64("addr")?,
            value: o.i64("value")?,
            exposed: o.bool("exposed")?,
            time: o.uint("time")?,
        },
        "predicted_load" => TraceEvent::PredictedLoad {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            sid: Sid(o.uint("sid")?),
            addr: o.i64("addr")?,
            value: o.i64("value")?,
            time: o.uint("time")?,
        },
        "policy_transition" => TraceEvent::PolicyTransition {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            core: o.uint("core")?,
            sid: Sid(o.uint("sid")?),
            from: parse_policy(o.str("from")?)?,
            to: parse_policy(o.str("to")?)?,
            time: o.uint("time")?,
        },
        "reprofile" => TraceEvent::Reprofile {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            time: o.uint("time")?,
        },
        "commit_write" => TraceEvent::CommitWrite {
            rid: RegionId(o.uint("rid")?),
            ord: o.uint("ord")?,
            epoch: o.uint("epoch")?,
            addr: o.i64("addr")?,
            value: o.i64("value")?,
            time: o.uint("time")?,
        },
        "fault_inject" => TraceEvent::FaultInject {
            class: {
                let name = o.str("class")?;
                FaultClass::from_name(name)
                    .ok_or_else(|| format!("unknown fault class `{name}`"))?
            },
            epoch: o.opt("epoch", Json::uint)?,
            addr: o.opt("addr", Json::i64)?,
            time: o.uint("time")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

// ---------------------------------------------------------------------
// ASCII timeline
// ---------------------------------------------------------------------

/// Render the `max_instances` longest region instances as per-core ASCII
/// timelines, `width` buckets wide. Committed attempt spans draw as `#`,
/// squashed as `x`, cancelled as `o`, violations overlay `!`.
pub fn ascii_timeline(events: &[TraceEvent], width: usize, max_instances: usize) -> String {
    #[derive(Default)]
    struct Inst {
        t0: u64,
        end: u64,
        /// (core, start, end, glyph)
        spans: Vec<(usize, u64, u64, u8)>,
        /// (core, time)
        bangs: Vec<(usize, u64)>,
    }
    let width = width.max(10);
    let mut insts: BTreeMap<(RegionId, u64), Inst> = BTreeMap::new();
    for ev in events {
        match *ev {
            TraceEvent::RegionEnter { rid, ord, time } => {
                let inst = insts.entry((rid, ord)).or_default();
                inst.t0 = time;
                inst.end = time;
            }
            TraceEvent::RegionExit { rid, ord, time } => {
                if let Some(inst) = insts.get_mut(&(rid, ord)) {
                    inst.end = time;
                }
            }
            TraceEvent::EpochCommit {
                rid,
                ord,
                core,
                start,
                end,
                ..
            } => {
                if let Some(inst) = insts.get_mut(&(rid, ord)) {
                    inst.spans.push((core, start, end, b'#'));
                }
            }
            TraceEvent::EpochSquash {
                rid,
                ord,
                core,
                start,
                end,
                ..
            } => {
                if let Some(inst) = insts.get_mut(&(rid, ord)) {
                    inst.spans.push((core, start, end, b'x'));
                }
            }
            TraceEvent::EpochCancel {
                rid,
                ord,
                core,
                start,
                end,
                ..
            } => {
                if let Some(inst) = insts.get_mut(&(rid, ord)) {
                    inst.spans.push((core, start, end, b'o'));
                }
            }
            TraceEvent::Violation {
                rid,
                ord,
                core,
                time,
                ..
            } => {
                if let Some(inst) = insts.get_mut(&(rid, ord)) {
                    inst.bangs.push((core, time));
                }
            }
            _ => {}
        }
    }
    let mut order: Vec<(&(RegionId, u64), &Inst)> = insts.iter().collect();
    order.sort_by_key(|((rid, ord), inst)| {
        (
            std::cmp::Reverse(inst.end.saturating_sub(inst.t0)),
            rid.0,
            *ord,
        )
    });
    let shown = order.len().min(max_instances);
    let mut out = String::new();
    for ((rid, ord), inst) in order.iter().take(max_instances) {
        let span = inst.end.saturating_sub(inst.t0).max(1);
        let bucket = |t: u64| -> usize {
            let t = t.clamp(inst.t0, inst.end) - inst.t0;
            (((t as u128) * (width as u128 - 1)) / span as u128) as usize
        };
        let cores = inst
            .spans
            .iter()
            .map(|(c, ..)| *c)
            .chain(inst.bangs.iter().map(|(c, _)| *c))
            .max()
            .map_or(1, |c| c + 1);
        let _ = writeln!(
            out,
            "region {} instance {}: cycles {}..{} ({} cycles, # commit / x squash / o cancel / ! violation)",
            rid.0,
            ord,
            inst.t0,
            inst.end,
            span
        );
        let mut rows = vec![vec![b'.'; width]; cores];
        for (core, start, end, glyph) in &inst.spans {
            for cell in &mut rows[*core][bucket(*start)..=bucket(*end)] {
                *cell = *glyph;
            }
        }
        for (core, time) in &inst.bangs {
            rows[*core][bucket(*time)] = b'!';
        }
        for (core, row) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "  core {core} |{}|",
                std::str::from_utf8(row).expect("ascii")
            );
        }
    }
    if shown < order.len() {
        let _ = writeln!(out, "({} more instance(s) not shown)", order.len() - shown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::events::NullTracer;
    use crate::machine::Machine;
    use tls_ir::{BlockId, FuncId, Module, ModuleBuilder, RegionId, SpecRegion};

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

    /// Loop with a memory dependence (plain loads: violations occur) and,
    /// when `synced`, compiler forwarding (SyncLoad/SignalMem).
    fn mem_dep_module(n: i64, synced: bool) -> Module {
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
        fb.bin(c, tls_ir::BinOp::Lt, i, n);
        fb.br(c, body, exit);
        fb.switch_to(body);
        if synced {
            fb.sync_load(v, acc, 0, group);
        } else {
            fb.load(v, acc, 0);
        }
        fb.bin(v, tls_ir::BinOp::Add, v, 1);
        fb.store(v, acc, 0);
        if synced {
            fb.signal_mem(group, acc, 0, v);
        }
        fb.assign(w, tls_ir::Operand::Var(i));
        for _ in 0..12 {
            fb.bin(w, tls_ir::BinOp::Mul, w, 3);
            fb.bin(w, tls_ir::BinOp::Add, w, 1);
        }
        fb.jump(head);
        fb.switch_to(exit);
        fb.load(v, acc, 0);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        mark_region(&mut mb, f, BlockId(1), vec![BlockId(1), BlockId(2)]);
        mb.build().expect("valid")
    }

    fn traced(m: &Module, cfg: SimConfig) -> (crate::SimResult, Vec<TraceEvent>) {
        let mut rec = RecordingTracer::default();
        let r = Machine::new(m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        (r, rec.events)
    }

    #[test]
    fn tracing_does_not_change_results() {
        for synced in [false, true] {
            let m = mem_dep_module(40, synced);
            let plain = Machine::new(&m, SimConfig::cgo2004())
                .run()
                .expect("simulates");
            let (rec, _) = traced(&m, SimConfig::cgo2004());
            assert_eq!(plain.output, rec.output);
            assert_eq!(plain.total_cycles, rec.total_cycles);
            assert_eq!(plain.total_violations, rec.total_violations);
            assert_eq!(
                plain.regions[&RegionId(0)].slots,
                rec.regions[&RegionId(0)].slots
            );
            let mut null = NullTracer;
            let viaconst = Machine::new(&m, SimConfig::cgo2004())
                .run_traced(&mut null)
                .expect("simulates");
            assert_eq!(viaconst.total_cycles, plain.total_cycles);
        }
    }

    #[test]
    fn replay_reproduces_slot_breakdown_and_violations() {
        for synced in [false, true] {
            let m = mem_dep_module(40, synced);
            let cfg = SimConfig::cgo2004();
            let (w, cores) = (cfg.issue_width, cfg.cores as u64);
            let (result, events) = traced(&m, cfg);
            let replayed = replay_slots(&events, w, cores);
            let rid = RegionId(0);
            assert_eq!(
                replayed[&rid].slots, result.regions[&rid].slots,
                "synced={synced}"
            );
            assert_eq!(replayed[&rid].cycles, result.regions[&rid].cycles);
            assert_eq!(replayed[&rid].violations, result.total_violations);
            assert_eq!(replayed[&rid].epochs, result.regions[&rid].epochs);
            assert_eq!(replayed[&rid].instances, result.regions[&rid].instances);
        }
    }

    #[test]
    fn event_stream_invariants_hold() {
        for synced in [false, true] {
            let m = mem_dep_module(40, synced);
            let (result, events) = traced(&m, SimConfig::cgo2004());
            let stats = check_event_stream(&events).expect("stream is well-formed");
            assert_eq!(stats.squashes, result.total_violations);
            assert!(stats.commits >= 40);
            if synced {
                assert!(
                    events
                        .iter()
                        .any(|e| matches!(e, TraceEvent::SignalRecv { .. })),
                    "forwarded values must be consumed"
                );
            }
        }
    }

    #[test]
    fn checker_rejects_corrupted_streams() {
        let m = mem_dep_module(12, false);
        let (_, events) = traced(&m, SimConfig::cgo2004());
        // Drop the final RegionExit: instance never exits.
        let mut truncated = events.clone();
        let exit_at = truncated
            .iter()
            .rposition(|e| matches!(e, TraceEvent::RegionExit { .. }))
            .expect("has exit");
        truncated.remove(exit_at);
        assert!(check_event_stream(&truncated).is_err());
        // Duplicate a spawn: epoch spawned twice.
        let spawn_at = events
            .iter()
            .position(|e| matches!(e, TraceEvent::EpochSpawn { .. }))
            .expect("has spawn");
        let mut dup = events.clone();
        dup.insert(spawn_at, events[spawn_at]);
        assert!(check_event_stream(&dup).is_err());
    }

    #[test]
    fn slot_samples_respect_interval() {
        let m = mem_dep_module(40, false);
        let mut cfg = SimConfig::cgo2004();
        cfg.trace_interval = 100;
        let (_, events) = traced(&m, cfg);
        let samples: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SlotSample { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        assert!(!samples.is_empty(), "a 100-cycle interval must sample");
        assert!(samples.windows(2).all(|s| s[1] > s[0]));
        // Samples are cumulative: totals never shrink.
        let totals: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SlotSample { slots, .. } => Some(slots.total()),
                _ => None,
            })
            .collect();
        assert!(totals.windows(2).all(|s| s[1] >= s[0]));
    }

    #[test]
    fn perfetto_export_is_valid_and_ascii_renders() {
        let m = mem_dep_module(40, true);
        let (_, events) = traced(&m, SimConfig::cgo2004());
        let json = perfetto_json(&events);
        let n = validate_perfetto(&json).expect("valid Chrome trace");
        assert!(n > 10, "expected a real timeline, got {n} events");
        let art = ascii_timeline(&events, 72, 2);
        assert!(art.contains("core 0"));
        assert!(art.contains('#'), "committed spans must render");
    }

    #[test]
    fn validate_perfetto_rejects_bad_documents() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto("{}").is_err());
        assert!(validate_perfetto("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Backwards timestamps.
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":0},\
            {\"ph\":\"i\",\"ts\":4,\"pid\":0,\"tid\":0}]}";
        assert!(validate_perfetto(bad).unwrap_err().contains("backwards"));
        let ok = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"ts\":1,\"dur\":3,\"pid\":0,\"tid\":0},\
            {\"ph\":\"i\",\"ts\":4,\"pid\":0,\"tid\":1}]}";
        assert_eq!(validate_perfetto(ok), Ok(2));
    }
}
