//! Timing-free operational model of the paper's TLS protocol, checked in
//! lockstep against the simulator's event stream.
//!
//! The cycle-level machine in [`crate::Machine`] implements the §2.2
//! protocol contract tangled with timing — ROB scheduling, caches,
//! crossbar latencies. This module re-states the *protocol alone* as an
//! obviously-correct small-step semantics over the typed
//! [`TraceEvent`] stream:
//!
//! * epoch states: running / waiting / squashing / committed / cancelled,
//!   spawned and committed strictly in epoch order;
//! * per-epoch speculative state: a private write buffer
//!   ([`TraceEvent::SpecStore`]) and an exposed-read set at cache-line
//!   granularity ([`TraceEvent::SpecLoad`] with `exposed`), per-word under
//!   the `word_grain` ablation;
//! * the violation rule: a store that reaches a word (line) a later
//!   epoch's exposed load already read *dooms* that epoch — it must be
//!   squashed before it can commit. Dooms also arise from the §2.2 signal
//!   address buffer (a store to an already-forwarded address whose
//!   consumer used the stale value) and from commit-time pending edges
//!   (a load that read committed memory while an older epoch held an
//!   uncommitted store to the same line);
//! * `wait`/`signal` forwarding: scalar channels and memory groups with
//!   NULL signals, relay forwarding, and the committed baseline mailbox
//!   seeded at region entry.
//!
//! [`check_conformance`] drives the model over a recorded stream and
//! reports the first divergence: a squash with no justifying dependence
//! edge, a *missed* violation (an epoch committing while doomed), a
//! commit whose drained write buffer differs from the model's, out-of-order
//! commits, or a forwarded value that does not match what the model says
//! the producer sent. Because the model is timing-free, any timing
//! refactor of the machine that preserves the protocol passes unchanged.

use std::collections::{BTreeMap, HashMap, HashSet};

use tls_ir::{line_of, ChanId, GroupId, RegionId};

use crate::config::SimConfig;
use crate::events::{SignalKind, TraceEvent, ViolationKind, WaitKind};

/// The protocol-relevant knobs of a [`SimConfig`] (everything else in the
/// config is timing, which the model ignores).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelConfig {
    /// Track dependences per word instead of per cache line.
    pub word_grain: bool,
    /// Epochs relay incoming forwarded values on paths that produce none.
    pub relay_forwarding: bool,
}

impl ModelConfig {
    /// Extract the protocol knobs from a full simulator configuration.
    pub fn from_sim(cfg: &SimConfig) -> Self {
        Self {
            word_grain: cfg.word_grain,
            relay_forwarding: cfg.relay_forwarding,
        }
    }
}

/// Non-vacuity counters of a conformance pass: a green run with zero
/// commits or zero checked receives proves nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConformanceStats {
    /// Region instances entered and exited.
    pub instances: u64,
    /// Epochs committed (in order, with verified write buffers).
    pub commits: u64,
    /// Write-buffer words drained at commits (each compared to the model).
    pub commit_words: u64,
    /// Speculative stores applied to model write buffers.
    pub stores: u64,
    /// Exposed loads (read-set insertions checked against model memory).
    pub exposed_loads: u64,
    /// Loads satisfied from the epoch's own write buffer (value checked).
    pub local_loads: u64,
    /// Hardware value predictions tracked to commit-time verification.
    pub predicted_loads: u64,
    /// Forwarded-value receives checked against the model's sent value.
    pub recvs_checked: u64,
    /// Baseline scalar receives whose value had to be learned (region-entry
    /// channel state is invisible to the stream, so the first read of a
    /// channel per instance calibrates the model instead of checking it).
    pub recvs_learned: u64,
    /// Violations matched to a justifying model dependence edge.
    pub justified_squashes: u64,
}

impl ConformanceStats {
    /// Accumulate another pass's counters (for campaign-level summaries).
    pub fn merge(&mut self, other: &ConformanceStats) {
        self.instances += other.instances;
        self.commits += other.commits;
        self.commit_words += other.commit_words;
        self.stores += other.stores;
        self.exposed_loads += other.exposed_loads;
        self.local_loads += other.local_loads;
        self.predicted_loads += other.predicted_loads;
        self.recvs_checked += other.recvs_checked;
        self.recvs_learned += other.recvs_learned;
        self.justified_squashes += other.justified_squashes;
    }

    /// One-line human summary of what the pass actually exercised.
    pub fn summary(&self) -> String {
        format!(
            "{} instance(s), {} commit(s) ({} word(s) drained), {} store(s), \
             {} exposed / {} local / {} predicted load(s), {} recv(s) checked \
             ({} learned), {} justified squash(es)",
            self.instances,
            self.commits,
            self.commit_words,
            self.stores,
            self.exposed_loads,
            self.local_loads,
            self.predicted_loads,
            self.recvs_checked,
            self.recvs_learned,
            self.justified_squashes
        )
    }
}

/// A reason an epoch must be squashed before it may commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DoomEdge {
    kind: ViolationKind,
    addr: i64,
    producer: u64,
}

/// A commit-time dependence registered at an exposed load: fires when the
/// producing epoch commits its buffered store.
#[derive(Clone, Copy, Debug)]
struct PendingEdge {
    producer: u64,
    consumer: u64,
    addr: i64,
}

#[derive(Clone, Debug, Default)]
struct EpochModel {
    /// Buffered speculative stores: word → value.
    wb: BTreeMap<i64, i64>,
    /// Lines the write buffer touches (commit-time edge granularity).
    wb_lines: HashSet<i64>,
    /// Exposed-read set, line granularity.
    read_lines: HashSet<i64>,
    /// Exposed-read set, word granularity (the `word_grain` ablation).
    read_words: HashSet<i64>,
    /// Scalar signals this attempt has sent.
    out_scalars: HashMap<ChanId, i64>,
    /// Memory signals this attempt has sent (`None` = NULL).
    out_mems: HashMap<GroupId, (Option<i64>, i64)>,
    /// §2.2 signal address buffer: (group, forwarded addr) pairs.
    sig_buf: HashSet<(GroupId, i64)>,
    /// Groups whose forwarded value this attempt has consumed.
    consumed: HashSet<GroupId>,
    /// Value predictions awaiting commit-time verification: (addr, value).
    predicted: Vec<(i64, i64)>,
    /// Outstanding reasons this attempt must squash before committing.
    doom: Vec<DoomEdge>,
    /// Between a `Violation` covering this epoch and its `EpochSquash`.
    squashing: bool,
    /// An unjustified wait-end was observed; only a cancel may follow.
    kill_pending: bool,
    /// Open wait, mirrored for justification checks.
    wait: Option<WaitKind>,
    /// `CommitWrite` words staged before this epoch's `EpochCommit`.
    staged: BTreeMap<i64, i64>,
}

impl EpochModel {
    fn reset(&mut self) {
        *self = EpochModel::default();
    }
}

#[derive(Debug, Default)]
struct InstanceModel {
    /// Active epochs by index. Always a contiguous range: commits remove
    /// from the front, spawns append, squashes restart in place.
    epochs: BTreeMap<u64, EpochModel>,
    /// Next epoch index the instance may spawn.
    next_spawn: u64,
    /// Committed baseline memory signals (region entry seeds every group
    /// with NULL; commits absorb the committing epoch's sends).
    baseline_mems: HashMap<GroupId, (Option<i64>, i64)>,
    /// Committed baseline scalar channels. Region-entry values come from
    /// machine state the stream does not carry, so entries are learned on
    /// first use and thereafter checked; commits absorb sends.
    baseline_scalars: HashMap<ChanId, i64>,
    /// Committed memory as far as this instance has observed it: seeded by
    /// exposed loads, updated by commit writes. Within an instance nothing
    /// else can change committed state.
    memory: HashMap<i64, i64>,
    /// Commit-time dependence edges not yet fired.
    pendings: Vec<PendingEdge>,
}

impl InstanceModel {
    fn min_active(&self) -> Option<u64> {
        self.epochs.keys().next().copied()
    }
}

struct Model {
    cfg: ModelConfig,
    instances: HashMap<(RegionId, u64), InstanceModel>,
    stats: ConformanceStats,
}

impl Model {
    fn inst(&mut self, rid: RegionId, ord: u64, what: &str) -> Result<&mut InstanceModel, String> {
        self.instances
            .get_mut(&(rid, ord))
            .ok_or_else(|| format!("{what} outside an active instance ({rid:?}, {ord})"))
    }

    fn step(&mut self, ev: &TraceEvent) -> Result<(), String> {
        match *ev {
            TraceEvent::RegionEnter { rid, ord, .. } => {
                if self
                    .instances
                    .insert((rid, ord), InstanceModel::default())
                    .is_some()
                {
                    return Err(format!("instance ({rid:?}, {ord}) entered twice"));
                }
                self.stats.instances += 1;
            }
            TraceEvent::RegionExit { rid, ord, .. } => {
                let inst = self
                    .instances
                    .remove(&(rid, ord))
                    .ok_or("exit of a never-entered instance")?;
                if let Some(e) = inst.epochs.keys().next() {
                    return Err(format!("region exited with epoch {e} still active"));
                }
            }
            TraceEvent::EpochSpawn {
                rid, ord, epoch, ..
            } => {
                let inst = self.inst(rid, ord, "spawn")?;
                if epoch != inst.next_spawn {
                    return Err(format!(
                        "epoch {epoch} spawned out of order (expected {})",
                        inst.next_spawn
                    ));
                }
                inst.next_spawn += 1;
                inst.epochs.insert(epoch, EpochModel::default());
            }
            TraceEvent::EpochCancel {
                rid, ord, epoch, ..
            } => {
                let inst = self.inst(rid, ord, "cancel")?;
                inst.epochs
                    .remove(&epoch)
                    .ok_or_else(|| format!("cancel of inactive epoch {epoch}"))?;
            }
            TraceEvent::EpochSquash {
                rid, ord, epoch, ..
            } => {
                let inst = self.inst(rid, ord, "squash")?;
                let e = inst
                    .epochs
                    .get_mut(&epoch)
                    .ok_or_else(|| format!("squash of inactive epoch {epoch}"))?;
                if !e.squashing {
                    return Err(format!(
                        "epoch {epoch} squashed without a covering violation"
                    ));
                }
                // The attempt restarts from scratch: all speculative state,
                // dooms and staging are discarded.
                e.reset();
            }
            TraceEvent::Violation {
                rid,
                ord,
                kind,
                addr,
                producer,
                consumer,
                ..
            } => {
                self.violation(rid, ord, kind, addr, producer, consumer)?;
            }
            TraceEvent::SpecStore {
                rid,
                ord,
                epoch,
                addr,
                value,
                ..
            } => {
                self.spec_store(rid, ord, epoch, addr, value)?;
            }
            TraceEvent::SpecLoad {
                rid,
                ord,
                epoch,
                addr,
                value,
                exposed,
                ..
            } => {
                self.spec_load(rid, ord, epoch, addr, value, exposed)?;
            }
            TraceEvent::PredictedLoad {
                rid,
                ord,
                epoch,
                addr,
                value,
                ..
            } => {
                let inst = self.inst(rid, ord, "predicted load")?;
                let e = running(inst, epoch, "predicted load")?;
                e.predicted.push((addr, value));
                self.stats.predicted_loads += 1;
            }
            TraceEvent::CommitWrite {
                rid,
                ord,
                epoch,
                addr,
                value,
                ..
            } => {
                let inst = self.inst(rid, ord, "commit write")?;
                let e = running(inst, epoch, "commit write")?;
                if e.staged.insert(addr, value).is_some() {
                    return Err(format!("epoch {epoch} drained word {addr} twice at commit"));
                }
            }
            TraceEvent::EpochCommit {
                rid, ord, epoch, ..
            } => {
                self.commit(rid, ord, epoch)?;
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
                self.signal_send(rid, ord, epoch, kind, addr, value)?;
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
                self.signal_recv(rid, ord, epoch, kind, addr, value)?;
            }
            TraceEvent::WaitBegin {
                rid,
                ord,
                epoch,
                kind,
                ..
            } => {
                let inst = self.inst(rid, ord, "wait begin")?;
                let e = running(inst, epoch, "wait begin")?;
                e.wait = Some(kind);
            }
            TraceEvent::WaitEnd {
                rid,
                ord,
                epoch,
                kind,
                ..
            } => {
                self.wait_end(rid, ord, epoch, kind)?;
            }
            // Fault-injection markers are observational: the model judges
            // the protocol events themselves, not the perturbation notes.
            // Adaptive policy decisions likewise change timing and
            // forwarding provenance only — the loads they steer arrive as
            // ordinary SpecLoad/PredictedLoad/WaitBegin events and are
            // judged by the same rules as the static modes.
            TraceEvent::LineEvict { .. }
            | TraceEvent::SlotSample { .. }
            | TraceEvent::PolicyTransition { .. }
            | TraceEvent::Reprofile { .. }
            | TraceEvent::FaultInject { .. } => {}
        }
        Ok(())
    }

    fn spec_store(
        &mut self,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        addr: i64,
        value: i64,
    ) -> Result<(), String> {
        let word_grain = self.cfg.word_grain;
        let inst = self.inst(rid, ord, "store")?;
        let line = line_of(addr);

        // Buffer the store privately; it must not reach memory until commit.
        let e = running(inst, epoch, "store")?;
        e.wb.insert(addr, value);
        e.wb_lines.insert(line);
        // §2.2 signal address buffer: a store to an address this epoch has
        // already forwarded re-signals the updated value; if the successor
        // already consumed the stale one, it is doomed.
        let resignal_groups: Vec<GroupId> = e
            .sig_buf
            .iter()
            .filter(|(_, a)| *a == addr)
            .map(|(g, _)| *g)
            .collect();
        for g in &resignal_groups {
            e.out_mems.insert(*g, (Some(addr), value));
        }
        for g in resignal_groups {
            if let Some(succ) = inst.epochs.get_mut(&(epoch + 1)) {
                if succ.consumed.contains(&g) {
                    succ.doom.push(DoomEdge {
                        kind: ViolationKind::Resignal,
                        addr,
                        producer: epoch,
                    });
                }
            }
        }
        // The eager violation rule: this store dooms every later epoch
        // whose exposed-read set already covers the word (line).
        let doomed: Vec<u64> = inst
            .epochs
            .range(epoch + 1..)
            .filter(|(_, y)| {
                if word_grain {
                    y.read_words.contains(&addr)
                } else {
                    y.read_lines.contains(&line)
                }
            })
            .map(|(i, _)| *i)
            .collect();
        for i in doomed {
            inst.epochs
                .get_mut(&i)
                .expect("collected from the map")
                .doom
                .push(DoomEdge {
                    kind: ViolationKind::Eager,
                    addr,
                    producer: epoch,
                });
        }
        self.stats.stores += 1;
        Ok(())
    }

    fn spec_load(
        &mut self,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        addr: i64,
        value: i64,
        exposed: bool,
    ) -> Result<(), String> {
        let word_grain = self.cfg.word_grain;
        let inst = self.inst(rid, ord, "load")?;
        if !exposed {
            // Satisfied from the epoch's own write buffer: the value must
            // be the one the model buffered, and the violation rule does
            // not apply.
            let e = running(inst, epoch, "local load")?;
            match e.wb.get(&addr) {
                Some(&v) if v == value => {}
                Some(&v) => {
                    return Err(format!(
                        "epoch {epoch} local load of {addr} returned {value}, \
                         but its write buffer holds {v}"
                    ));
                }
                None => {
                    return Err(format!(
                        "epoch {epoch} local load of {addr} but its write \
                         buffer never stored there"
                    ));
                }
            }
            self.stats.local_loads += 1;
            return Ok(());
        }
        // Exposed: read committed memory and join the read set.
        match inst.memory.get(&addr) {
            Some(&m) if m != value => {
                return Err(format!(
                    "epoch {epoch} exposed load of {addr} returned {value}, \
                     but committed memory holds {m}"
                ));
            }
            Some(_) => {}
            None => {
                inst.memory.insert(addr, value);
            }
        }
        let line = line_of(addr);
        // Commit-time dependence: the nearest older epoch holding an
        // uncommitted store to the word (line) will fire a violation when
        // it commits.
        let producer = inst
            .epochs
            .range(..epoch)
            .rev()
            .find(|(_, p)| {
                if word_grain {
                    p.wb.contains_key(&addr)
                } else {
                    p.wb_lines.contains(&line)
                }
            })
            .map(|(i, _)| *i);
        if let Some(p) = producer {
            inst.pendings.push(PendingEdge {
                producer: p,
                consumer: epoch,
                addr,
            });
        }
        let e = running(inst, epoch, "exposed load")?;
        e.read_lines.insert(line);
        e.read_words.insert(addr);
        self.stats.exposed_loads += 1;
        Ok(())
    }

    fn commit(&mut self, rid: RegionId, ord: u64, epoch: u64) -> Result<(), String> {
        let inst = self.inst(rid, ord, "commit")?;
        if inst.min_active() != Some(epoch) {
            return Err(format!(
                "epoch {epoch} committed out of order (oldest active is {:?})",
                inst.min_active()
            ));
        }
        let e = inst.epochs.get_mut(&epoch).expect("min_active");
        if e.squashing || e.kill_pending {
            return Err(format!(
                "epoch {epoch} committed while marked for squash/cancel"
            ));
        }
        if let Some(k) = e.wait {
            return Err(format!("epoch {epoch} committed while waiting on {k:?}"));
        }
        if let Some(d) = e.doom.first() {
            return Err(format!(
                "missed violation: epoch {epoch} committed despite a {} \
                 dependence on word {} from epoch {}",
                d.kind.name(),
                d.addr,
                d.producer
            ));
        }
        // Commit-time verification of value predictions happens against
        // committed memory *before* this epoch's write buffer drains.
        for &(addr, pred) in &e.predicted {
            match inst.memory.get(&addr) {
                Some(&m) if m != pred => {
                    return Err(format!(
                        "missed mispredict: epoch {epoch} committed a \
                         predicted load of {addr} = {pred}, but committed \
                         memory holds {m}"
                    ));
                }
                Some(_) => {}
                // The commit succeeding proves memory held the predicted
                // value; the model learns it.
                None => {
                    inst.memory.insert(addr, pred);
                }
            }
        }
        let e = inst.epochs.get_mut(&epoch).expect("min_active");
        // The drained write buffer must equal the model's, word for word.
        if e.staged != e.wb {
            let only_sim: Vec<i64> = e
                .staged
                .keys()
                .filter(|a| !e.wb.contains_key(a))
                .copied()
                .collect();
            let only_model: Vec<i64> =
                e.wb.keys()
                    .filter(|a| !e.staged.contains_key(a))
                    .copied()
                    .collect();
            let diff_val: Vec<i64> =
                e.wb.iter()
                    .filter(|(a, v)| e.staged.get(a).is_some_and(|s| s != *v))
                    .map(|(a, _)| *a)
                    .collect();
            return Err(format!(
                "epoch {epoch} commit drained a write buffer that differs \
                 from the model's (simulator-only words {only_sim:?}, \
                 model-only {only_model:?}, differing values at {diff_val:?})"
            ));
        }
        let e = inst.epochs.remove(&epoch).expect("min_active");
        for (a, v) in &e.wb {
            inst.memory.insert(*a, *v);
        }
        for (c, v) in &e.out_scalars {
            inst.baseline_scalars.insert(*c, *v);
        }
        for (g, s) in &e.out_mems {
            inst.baseline_mems.insert(*g, *s);
        }
        let drained = e.wb.len() as u64;
        // Fire commit-time dependences this epoch produced: every active
        // consumer is doomed and must squash before its own commit.
        let mut fired: Vec<PendingEdge> = Vec::new();
        inst.pendings.retain(|p| {
            if p.producer == epoch {
                fired.push(*p);
                false
            } else {
                true
            }
        });
        for p in fired {
            if let Some(c) = inst.epochs.get_mut(&p.consumer) {
                c.doom.push(DoomEdge {
                    kind: ViolationKind::CommitTime,
                    addr: p.addr,
                    producer: epoch,
                });
            }
        }
        self.stats.commits += 1;
        self.stats.commit_words += drained;
        Ok(())
    }

    fn violation(
        &mut self,
        rid: RegionId,
        ord: u64,
        kind: ViolationKind,
        addr: Option<i64>,
        producer: Option<u64>,
        consumer: u64,
    ) -> Result<(), String> {
        let inst = self.inst(rid, ord, "violation")?;
        let min = inst.min_active();
        let e = inst
            .epochs
            .get_mut(&consumer)
            .ok_or_else(|| format!("violation names inactive consumer {consumer}"))?;
        if e.squashing {
            return Err(format!(
                "epoch {consumer} violated twice without an intervening squash"
            ));
        }
        match kind {
            ViolationKind::Mispredict => {
                // Only the oldest epoch verifies predictions (at its commit
                // attempt), and the squash is justified only if some
                // predicted value disagrees with committed memory.
                if min != Some(consumer) {
                    return Err(format!("mispredict squash of non-oldest epoch {consumer}"));
                }
                let a = addr.ok_or("mispredict violation without an address")?;
                let Some(&(_, pred)) = e.predicted.iter().find(|(pa, _)| *pa == a) else {
                    return Err(format!(
                        "mispredict squash at {a}, but epoch {consumer} \
                         predicted no load there"
                    ));
                };
                if inst.memory.get(&a).is_some_and(|&m| m == pred) {
                    return Err(format!(
                        "unjustified mispredict squash: epoch {consumer} \
                         predicted {pred} at {a} and committed memory agrees"
                    ));
                }
            }
            ViolationKind::Eager | ViolationKind::CommitTime | ViolationKind::Resignal => {
                let justified = e.doom.iter().any(|d| {
                    d.kind == kind
                        && addr.is_none_or(|a| a == d.addr)
                        && producer.is_none_or(|p| p == d.producer)
                });
                if !justified {
                    return Err(format!(
                        "unjustified {} squash of epoch {consumer} \
                         (addr {addr:?}, producer {producer:?}): the model \
                         has no such dependence edge",
                        kind.name()
                    ));
                }
            }
        }
        // One violation squashes the consumer and, cascading, every later
        // epoch; each will see its own EpochSquash next.
        for (_, y) in inst.epochs.range_mut(consumer..) {
            y.squashing = true;
        }
        inst.pendings
            .retain(|p| p.producer < consumer && p.consumer < consumer);
        self.stats.justified_squashes += 1;
        Ok(())
    }

    fn signal_send(
        &mut self,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        kind: SignalKind,
        addr: Option<i64>,
        value: i64,
    ) -> Result<(), String> {
        let relay = self.cfg.relay_forwarding;
        let inst = self.inst(rid, ord, "send")?;
        let min = inst.min_active();
        // Split the borrow: the relay check below reads the predecessor.
        let pred_sig = |inst: &InstanceModel, g: GroupId| -> Option<(Option<i64>, i64)> {
            if min == Some(epoch) {
                Some(*inst.baseline_mems.get(&g).unwrap_or(&(None, 0)))
            } else {
                inst.epochs
                    .get(&(epoch.wrapping_sub(1)))
                    .and_then(|p| p.out_mems.get(&g).copied())
            }
        };
        match kind {
            SignalKind::Scalar(c) => {
                let e = running(inst, epoch, "scalar send")?;
                e.out_scalars.insert(c, value);
            }
            SignalKind::Mem(g) => {
                let a = addr.ok_or("memory signal without an address")?;
                let e = running(inst, epoch, "memory send")?;
                e.out_mems.insert(g, (Some(a), value));
                e.sig_buf.insert((g, a));
            }
            SignalKind::MemNull(g) => {
                match addr {
                    None => {
                        let e = running(inst, epoch, "null send")?;
                        e.out_mems.insert(g, (None, value));
                    }
                    Some(a) => {
                        // A NULL signal carrying a value is a relay: legal
                        // only under relay_forwarding, and the value must be
                        // the predecessor's (or this epoch's own buffered
                        // overwrite of that address).
                        if !relay {
                            return Err(format!(
                                "epoch {epoch} relayed a value on group {} \
                                 with relay forwarding disabled",
                                g.0
                            ));
                        }
                        let from_pred = pred_sig(inst, g);
                        let e = running(inst, epoch, "relay send")?;
                        let expected = match e.wb.get(&a) {
                            Some(&own) => Some(own),
                            None => match from_pred {
                                Some((Some(pa), pv)) if pa == a => Some(pv),
                                _ => None,
                            },
                        };
                        // The relayed address always originates from the
                        // predecessor's signal.
                        if !matches!(from_pred, Some((Some(pa), _)) if pa == a) {
                            return Err(format!(
                                "epoch {epoch} relayed address {a} on group \
                                 {} which its predecessor never forwarded",
                                g.0
                            ));
                        }
                        match expected {
                            Some(exp) if exp == value => {}
                            _ => {
                                return Err(format!(
                                    "epoch {epoch} relayed {value} for {a} on \
                                     group {}, expected {expected:?}",
                                    g.0
                                ));
                            }
                        }
                        e.out_mems.insert(g, (Some(a), value));
                        e.sig_buf.insert((g, a));
                    }
                }
            }
        }
        Ok(())
    }

    fn signal_recv(
        &mut self,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        kind: SignalKind,
        addr: Option<i64>,
        value: i64,
    ) -> Result<(), String> {
        let inst = self.inst(rid, ord, "recv")?;
        let min = inst.min_active();
        let (mut checked, mut learned) = (0u64, 0u64);
        match kind {
            SignalKind::Scalar(c) => {
                if min == Some(epoch) {
                    // Baseline read: region-entry channel state is not in
                    // the stream, so the first read calibrates the model.
                    match inst.baseline_scalars.get(&c) {
                        Some(&v) if v == value => checked += 1,
                        Some(&v) => {
                            return Err(format!(
                                "epoch {epoch} received {value} on channel {} \
                                 but the committed baseline holds {v}",
                                c.0
                            ));
                        }
                        None => {
                            inst.baseline_scalars.insert(c, value);
                            learned += 1;
                        }
                    }
                } else {
                    let p = inst
                        .epochs
                        .get(&(epoch - 1))
                        .ok_or_else(|| format!("epoch {epoch} has no active predecessor"))?;
                    match p.out_scalars.get(&c) {
                        Some(&v) if v == value => checked += 1,
                        Some(&v) => {
                            return Err(format!(
                                "epoch {epoch} received {value} on channel {} \
                                 but epoch {} sent {v}",
                                c.0,
                                epoch - 1
                            ));
                        }
                        None => {
                            return Err(format!(
                                "epoch {epoch} received on channel {} which \
                                 epoch {} never signalled",
                                c.0,
                                epoch - 1
                            ));
                        }
                    }
                }
                running(inst, epoch, "scalar recv")?;
            }
            SignalKind::Mem(g) | SignalKind::MemNull(g) => {
                let a = addr.ok_or("memory recv without a forwarded address")?;
                let sig = if min == Some(epoch) {
                    *inst.baseline_mems.get(&g).unwrap_or(&(None, 0))
                } else {
                    inst.epochs
                        .get(&(epoch - 1))
                        .and_then(|p| p.out_mems.get(&g).copied())
                        .ok_or_else(|| {
                            format!(
                                "epoch {epoch} consumed group {} which epoch \
                                 {} never signalled",
                                g.0,
                                epoch - 1
                            )
                        })?
                };
                if sig != (Some(a), value) {
                    return Err(format!(
                        "epoch {epoch} consumed ({a}, {value}) on group {} \
                         but the forwarded signal is {sig:?}",
                        g.0
                    ));
                }
                checked += 1;
                let e = running(inst, epoch, "memory recv")?;
                e.consumed.insert(g);
            }
        }
        self.stats.recvs_checked += checked;
        self.stats.recvs_learned += learned;
        Ok(())
    }

    fn wait_end(
        &mut self,
        rid: RegionId,
        ord: u64,
        epoch: u64,
        kind: WaitKind,
    ) -> Result<(), String> {
        let inst = self.inst(rid, ord, "wait end")?;
        let min = inst.min_active();
        let justified = {
            let e = inst
                .epochs
                .get(&epoch)
                .ok_or_else(|| format!("wait end for inactive epoch {epoch}"))?;
            if e.squashing {
                // Squash cascades close open waits unconditionally.
                true
            } else if min == Some(epoch) {
                // The oldest epoch never blocks: `Oldest` is satisfied by
                // definition and the committed baseline carries every
                // channel and group.
                true
            } else {
                let pred = inst.epochs.get(&(epoch - 1));
                match kind {
                    WaitKind::Oldest => false,
                    WaitKind::Scalar(c) => pred.is_some_and(|p| p.out_scalars.contains_key(&c)),
                    WaitKind::Mem(g) => pred.is_some_and(|p| p.out_mems.contains_key(&g)),
                }
            }
        };
        let e = inst.epochs.get_mut(&epoch).expect("checked above");
        e.wait = None;
        if !justified {
            // The only legitimate remaining reason is a region-exit cancel,
            // which must follow immediately.
            e.kill_pending = true;
        }
        Ok(())
    }
}

/// Fetch `epoch` as a normally-running attempt: active, not between a
/// violation and its squash, and not pending a cancel.
fn running<'a>(
    inst: &'a mut InstanceModel,
    epoch: u64,
    what: &str,
) -> Result<&'a mut EpochModel, String> {
    let e = inst
        .epochs
        .get_mut(&epoch)
        .ok_or_else(|| format!("{what} for inactive epoch {epoch}"))?;
    if e.squashing {
        return Err(format!("{what} for epoch {epoch} awaiting its squash"));
    }
    if e.kill_pending {
        return Err(format!(
            "{what} for epoch {epoch} after an unjustified wait end \
             (only a cancel may follow)"
        ));
    }
    Ok(e)
}

/// Drive the reference model over a recorded event stream and verify the
/// simulator's protocol decisions in lockstep.
///
/// What is checked, event by event:
///
/// * **squash justification** — every [`TraceEvent::Violation`] names a
///   consumer the model independently doomed (matching kind, address and
///   producer), and every [`TraceEvent::EpochSquash`] is covered by a
///   violation;
/// * **no missed violations** — an epoch committing while the model holds
///   a dependence edge against it is an error, as is a predicted load
///   whose committed-memory value disagrees at commit;
/// * **in-order commit with exact write buffers** — commits happen oldest
///   first and the drained [`TraceEvent::CommitWrite`] words equal the
///   model's buffered stores exactly;
/// * **forwarding** — every consumed `signal` value (scalar or memory
///   group) equals what the model says the predecessor sent (or the
///   committed baseline), and relayed NULL signals are legal and carry the
///   predecessor's value;
/// * **speculative data** — exposed loads agree with the model's committed
///   memory, write-buffer hits agree with the model's buffered value.
///
/// # Errors
/// A description of the first protocol divergence.
pub fn check_conformance(
    events: &[TraceEvent],
    cfg: &ModelConfig,
) -> Result<ConformanceStats, String> {
    let mut m = Model {
        cfg: *cfg,
        instances: HashMap::new(),
        stats: ConformanceStats::default(),
    };
    for (i, ev) in events.iter().enumerate() {
        m.step(ev)
            .map_err(|msg| format!("event {i}: {msg} ({ev:?})"))?;
    }
    if let Some(((rid, ord), _)) = m.instances.iter().next() {
        return Err(format!("instance ({rid:?}, {ord}) never exited"));
    }
    Ok(m.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::events::NullTracer;
    use crate::machine::Machine;
    use crate::trace::RecordingTracer;
    use tls_ir::{BlockId, FuncId, Module, ModuleBuilder, Sid, SpecRegion};

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

    /// Loop with a cross-epoch memory dependence; `synced` adds compiler
    /// forwarding (SyncLoad/SignalMem).
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

    fn conform(m: &Module, cfg: SimConfig) -> Result<ConformanceStats, String> {
        let model_cfg = ModelConfig::from_sim(&cfg);
        let mut rec = RecordingTracer::default();
        Machine::new(m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        check_conformance(&rec.events, &model_cfg)
    }

    #[test]
    fn unsynced_run_with_violations_conforms() {
        let stats = conform(&mem_dep_module(40, false), SimConfig::cgo2004()).expect("conforms");
        assert!(stats.commits >= 40, "all epochs commit");
        assert!(stats.justified_squashes > 0, "the dependence must violate");
        assert!(stats.exposed_loads > 0 && stats.stores > 0);
    }

    #[test]
    fn forwarded_run_conforms_and_checks_recvs() {
        let stats = conform(&mem_dep_module(40, true), SimConfig::cgo2004()).expect("conforms");
        assert!(stats.recvs_checked > 0, "forwarded values must be consumed");
        assert!(stats.commit_words > 0);
    }

    #[test]
    fn word_grain_and_relay_configs_conform() {
        for (word_grain, relay) in [(true, false), (false, true), (true, true)] {
            let mut cfg = SimConfig::cgo2004();
            cfg.word_grain = word_grain;
            cfg.relay_forwarding = relay;
            conform(&mem_dep_module(40, true), cfg).expect("conforms");
        }
    }

    #[test]
    fn checker_rejects_a_forged_commit_order() {
        let m = mem_dep_module(12, false);
        let cfg = SimConfig::cgo2004();
        let model_cfg = ModelConfig::from_sim(&cfg);
        let mut rec = RecordingTracer::default();
        Machine::new(&m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        // Swap the first two commits: out-of-epoch-order commit.
        let commits: Vec<usize> = rec
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, TraceEvent::EpochCommit { .. }))
            .map(|(i, _)| i)
            .take(2)
            .collect();
        let mut forged = rec.events.clone();
        forged.swap(commits[0], commits[1]);
        let err = check_conformance(&forged, &model_cfg).unwrap_err();
        assert!(err.contains("out of order"), "got: {err}");
    }

    #[test]
    fn checker_rejects_an_uncovered_squash() {
        let m = mem_dep_module(40, false);
        let cfg = SimConfig::cgo2004();
        let model_cfg = ModelConfig::from_sim(&cfg);
        let mut rec = RecordingTracer::default();
        Machine::new(&m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        // Drop the first Violation: its squashes become uncovered.
        let at = rec
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Violation { .. }))
            .expect("dependence loop violates");
        let mut forged = rec.events.clone();
        forged.remove(at);
        let err = check_conformance(&forged, &model_cfg).unwrap_err();
        assert!(err.contains("without a covering violation"), "got: {err}");
    }

    #[test]
    fn checker_rejects_a_forged_commit_write() {
        let m = mem_dep_module(12, false);
        let cfg = SimConfig::cgo2004();
        let model_cfg = ModelConfig::from_sim(&cfg);
        let mut rec = RecordingTracer::default();
        Machine::new(&m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        let at = rec
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::CommitWrite { .. }))
            .expect("loop stores commit");
        let mut forged = rec.events.clone();
        if let TraceEvent::CommitWrite { value, .. } = &mut forged[at] {
            *value = value.wrapping_add(1);
        }
        let err = check_conformance(&forged, &model_cfg).unwrap_err();
        assert!(err.contains("differs"), "got: {err}");
    }

    /// Loop whose epochs signal a *decoy* address early and store the real
    /// dependence late: every non-oldest `SyncLoad` sees a mismatched
    /// forwarded address and falls back to a plain (exposed) load of stale
    /// memory, which the late store must then eager-squash.
    fn mismatch_sync_module(n: i64) -> Module {
        let mut mb = ModuleBuilder::new();
        let acc = mb.add_global("acc", 1, vec![0]);
        let decoy = mb.add_global("decoy", 1, vec![0]);
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
        fb.signal_mem(group, decoy, 0, i);
        fb.sync_load(v, acc, 0, group);
        fb.assign(w, tls_ir::Operand::Var(i));
        for _ in 0..12 {
            fb.bin(w, tls_ir::BinOp::Mul, w, 3);
            fb.bin(w, tls_ir::BinOp::Add, w, 1);
        }
        fb.bin(v, tls_ir::BinOp::Add, v, 1);
        fb.store(v, acc, 0);
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

    #[test]
    fn mismatched_forwarding_conforms_without_the_fault() {
        let stats = conform(&mismatch_sync_module(40), SimConfig::cgo2004()).expect("conforms");
        assert!(
            stats.justified_squashes > 0,
            "the decoy module must violate: {stats:?}"
        );
    }

    #[test]
    fn checker_catches_skipped_read_marking_fault() {
        // The seeded protocol mutation: forwarded loads that fall back to a
        // plain memory read skip the exposed-read-set insertion, so the
        // simulator misses the eager violations the model still sees and
        // commits epochs that read stale memory.
        let mut cfg = SimConfig::cgo2004();
        cfg.break_exposed_read_marking = true;
        let mut rec = RecordingTracer::default();
        let m = mismatch_sync_module(40);
        Machine::new(&m, cfg)
            .run_traced(&mut rec)
            .expect("simulates");
        let err = check_conformance(&rec.events, &ModelConfig::from_sim(&SimConfig::cgo2004()))
            .expect_err("the fault must be detected");
        assert!(
            err.contains("missed violation") || err.contains("exposed load"),
            "got: {err}"
        );
    }

    #[test]
    fn model_config_extracts_protocol_knobs() {
        let mut cfg = SimConfig::cgo2004();
        cfg.word_grain = true;
        cfg.relay_forwarding = true;
        assert_eq!(
            ModelConfig::from_sim(&cfg),
            ModelConfig {
                word_grain: true,
                relay_forwarding: true
            }
        );
        let _ = Sid(0); // keep the import used when asserts compile out
        let _ = NullTracer;
    }
}
