//! Dependence attribution: turn a recorded event stream into reports on
//! *which* inter-epoch dependences cost the run its speculation failures
//! and synchronization stalls.
//!
//! Built from a [`tls_sim::TraceEvent`] stream (see
//! [`crate::Harness::run_traced`]):
//!
//! * per dependence edge `(load sid, store sid)`: triggering violations,
//!   squashed attempts (cascade victims included) and the estimated cycles
//!   of work those attempts lost — the paper's "which load should the
//!   compiler synchronize" question, answered from one traced run;
//! * per offending load: the same, aggregated over all edges it appears in;
//! * per logical epoch position: spawns, commits, squashes and stall
//!   cycles, separating pipeline-position effects from dependence effects;
//! * per synchronization object (scalar channel, memory group, oldest-wait):
//!   wait counts and cycles.
//!
//! The JSON rendering ([`tls_sim::json`]) is deterministic: everything
//! lives in `BTreeMap`s.

use std::collections::BTreeMap;

use tls_ir::Sid;
use tls_sim::json::{self, Writer};
use tls_sim::{TraceEvent, WaitKind};

use crate::report::Table;

/// One dependence edge: the consumer load and producer store sids, either
/// of which may be unknown (`None`) for hardware-detected or
/// mispredict-triggered squashes.
pub type Edge = (Option<Sid>, Option<Sid>);

/// Aggregates for one dependence edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Squashed epoch attempts attributed to this edge (cascade victims
    /// included). Summed over all edges this equals the run's
    /// `total_violations`.
    pub squashes: u64,
    /// Violation *detections* on this edge (one per cascade, at the
    /// consumer).
    pub violations: u64,
    /// Cycles of speculative work discarded by this edge's squashes.
    pub cycles_lost: u64,
    /// Detections by violation kind name (`eager`, `commit_time`, …).
    pub kinds: BTreeMap<&'static str, u64>,
    /// First few distinct conflicting addresses observed.
    pub addrs: Vec<i64>,
}

/// Aggregates for one logical epoch position within its region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs spawned at this position.
    pub spawns: u64,
    /// Committed attempts.
    pub commits: u64,
    /// Squashed attempts.
    pub squashes: u64,
    /// Instructions graduated by committed attempts.
    pub graduated: u64,
    /// Cycles of committed attempts (spawn-to-commit critical path).
    pub commit_cycles: u64,
    /// Cycles discarded in squashed attempts.
    pub squash_cycles: u64,
    /// Cycles spent stalled in waits (any kind).
    pub wait_cycles: u64,
}

/// Aggregates for one synchronization object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Completed waits.
    pub count: u64,
    /// Total cycles from wait begin to wake.
    pub cycles: u64,
}

/// Everything [`attribute`] extracts from one event stream.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Per dependence edge, keyed `(load sid, store sid)`.
    pub edges: BTreeMap<Edge, EdgeStats>,
    /// Per logical epoch position.
    pub epochs: BTreeMap<u64, EpochStats>,
    /// Per synchronization object, keyed by [`WaitKind`]'s sort order.
    pub waits: BTreeMap<WaitKey, WaitStats>,
    /// Total squashed attempts (== the run's `total_violations`).
    pub total_squashes: u64,
    /// Total cycles discarded in squashed attempts.
    pub total_cycles_lost: u64,
}

/// A sortable, displayable key for a [`WaitKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitKey {
    /// Scalar forwarding channel.
    Scalar(u32),
    /// Memory-resident forwarding group.
    Mem(u32),
    /// Waiting to become the oldest epoch.
    Oldest,
}

impl WaitKey {
    fn of(kind: WaitKind) -> Self {
        match kind {
            WaitKind::Scalar(c) => WaitKey::Scalar(c.0),
            WaitKind::Mem(g) => WaitKey::Mem(g.0),
            WaitKind::Oldest => WaitKey::Oldest,
        }
    }

    fn label(&self) -> String {
        match self {
            WaitKey::Scalar(c) => format!("scalar chan {c}"),
            WaitKey::Mem(g) => format!("mem group {g}"),
            WaitKey::Oldest => "oldest".into(),
        }
    }
}

/// How many distinct conflict addresses to keep per edge.
const MAX_EDGE_ADDRS: usize = 4;

/// Fold an event stream into dependence-attribution aggregates.
pub fn attribute(events: &[TraceEvent]) -> Attribution {
    let mut a = Attribution::default();
    for ev in events {
        match *ev {
            TraceEvent::EpochSpawn { epoch, .. } => {
                a.epochs.entry(epoch).or_default().spawns += 1;
            }
            TraceEvent::EpochCommit {
                epoch,
                start,
                end,
                graduated,
                ..
            } => {
                let e = a.epochs.entry(epoch).or_default();
                e.commits += 1;
                e.graduated += graduated;
                e.commit_cycles += end.saturating_sub(start);
            }
            TraceEvent::EpochSquash {
                epoch,
                start,
                end,
                load_sid,
                store_sid,
                ..
            } => {
                let cycles = end.saturating_sub(start);
                let e = a.edges.entry((load_sid, store_sid)).or_default();
                e.squashes += 1;
                e.cycles_lost += cycles;
                let ep = a.epochs.entry(epoch).or_default();
                ep.squashes += 1;
                ep.squash_cycles += cycles;
                a.total_squashes += 1;
                a.total_cycles_lost += cycles;
            }
            TraceEvent::Violation {
                kind,
                load_sid,
                store_sid,
                addr,
                ..
            } => {
                let e = a.edges.entry((load_sid, store_sid)).or_default();
                e.violations += 1;
                *e.kinds.entry(kind.name()).or_default() += 1;
                if let Some(addr) = addr {
                    if !e.addrs.contains(&addr) && e.addrs.len() < MAX_EDGE_ADDRS {
                        e.addrs.push(addr);
                    }
                }
            }
            TraceEvent::WaitEnd {
                epoch,
                kind,
                since,
                time,
                ..
            } => {
                let cycles = time.saturating_sub(since);
                let w = a.waits.entry(WaitKey::of(kind)).or_default();
                w.count += 1;
                w.cycles += cycles;
                a.epochs.entry(epoch).or_default().wait_cycles += cycles;
            }
            _ => {}
        }
    }
    a
}

fn sid_label(s: Option<Sid>) -> String {
    match s {
        Some(s) => format!("sid {}", s.0),
        None => "?".into(),
    }
}

impl Attribution {
    /// Edges ordered most-damaging first (by squashes, then cycles lost,
    /// then key for determinism).
    pub fn ranked_edges(&self) -> Vec<(&Edge, &EdgeStats)> {
        let mut v: Vec<_> = self.edges.iter().collect();
        v.sort_by(|(ka, a), (kb, b)| {
            b.squashes
                .cmp(&a.squashes)
                .then(b.cycles_lost.cmp(&a.cycles_lost))
                .then(ka.cmp(kb))
        });
        v
    }

    /// Offending loads ordered most-damaging first: per-load totals over
    /// every edge the load appears in.
    pub fn ranked_loads(&self) -> Vec<(Option<Sid>, EdgeStats)> {
        let mut by_load: BTreeMap<Option<Sid>, EdgeStats> = BTreeMap::new();
        for ((load, _), e) in &self.edges {
            let t = by_load.entry(*load).or_default();
            t.squashes += e.squashes;
            t.violations += e.violations;
            t.cycles_lost += e.cycles_lost;
            for (k, n) in &e.kinds {
                *t.kinds.entry(k).or_default() += n;
            }
        }
        let mut v: Vec<_> = by_load.into_iter().collect();
        v.sort_by(|(ka, a), (kb, b)| {
            b.squashes
                .cmp(&a.squashes)
                .then(b.cycles_lost.cmp(&a.cycles_lost))
                .then(ka.cmp(kb))
        });
        v
    }

    /// Deterministic JSON report. `bench` and `mode` identify the run;
    /// `total_violations` comes from the run's [`tls_sim::SimResult`] so
    /// consumers can check the per-edge sum against it.
    pub fn to_json(&self, bench: &str, mode: &str, total_violations: u64) -> String {
        json::object(|w| {
            w.str("bench", bench)
                .str("mode", mode)
                .raw("total_violations", total_violations)
                .raw("total_squashes", self.total_squashes)
                .raw("total_cycles_lost", self.total_cycles_lost)
                .arr("edges", |w| {
                    for ((load, store), e) in self.ranked_edges() {
                        w.item_obj(|w| {
                            w.opt("load_sid", load.map(|s| s.0), Writer::raw)
                                .opt("store_sid", store.map(|s| s.0), Writer::raw)
                                .raw("squashes", e.squashes)
                                .raw("violations", e.violations)
                                .raw("cycles_lost", e.cycles_lost)
                                .obj("kinds", |w| {
                                    for (k, n) in &e.kinds {
                                        w.raw(k, n);
                                    }
                                })
                                .raws("addrs", &e.addrs);
                        });
                    }
                })
                .arr("top_loads", |w| {
                    for (load, e) in self.ranked_loads() {
                        w.item_obj(|w| {
                            w.opt("load_sid", load.map(|s| s.0), Writer::raw)
                                .raw("squashes", e.squashes)
                                .raw("violations", e.violations)
                                .raw("cycles_lost", e.cycles_lost);
                        });
                    }
                })
                .arr("epochs", |w| {
                    for (epoch, e) in &self.epochs {
                        w.item_obj(|w| {
                            w.raw("epoch", epoch)
                                .raw("spawns", e.spawns)
                                .raw("commits", e.commits)
                                .raw("squashes", e.squashes)
                                .raw("graduated", e.graduated)
                                .raw("commit_cycles", e.commit_cycles)
                                .raw("squash_cycles", e.squash_cycles)
                                .raw("wait_cycles", e.wait_cycles);
                        });
                    }
                })
                .arr("waits", |w| {
                    for (key, st) in &self.waits {
                        w.item_obj(|w| {
                            w.str("on", &key.label())
                                .raw("count", st.count)
                                .raw("cycles", st.cycles);
                        });
                    }
                });
        })
    }

    /// Human-readable summary: the `top` most damaging edges.
    pub fn edge_table(&self, top: usize) -> Table {
        let mut t = Table::new(
            "dependence edges (most damaging first)",
            &[
                "load",
                "store",
                "squashes",
                "violations",
                "cycles lost",
                "kinds",
            ],
        );
        for ((load, store), e) in self.ranked_edges().into_iter().take(top) {
            let kinds = e
                .kinds
                .iter()
                .map(|(k, n)| format!("{k}:{n}"))
                .collect::<Vec<_>>()
                .join(" ");
            t.row(vec![
                sid_label(*load),
                sid_label(*store),
                e.squashes.to_string(),
                e.violations.to_string(),
                e.cycles_lost.to_string(),
                kinds,
            ]);
        }
        t
    }

    /// Human-readable per-epoch-position summary.
    pub fn epoch_table(&self) -> Table {
        let mut t = Table::new(
            "per-epoch-position summary",
            &[
                "epoch",
                "spawns",
                "commits",
                "squashes",
                "graduated",
                "commit cyc",
                "squash cyc",
                "wait cyc",
            ],
        );
        for (epoch, e) in &self.epochs {
            t.row(vec![
                epoch.to_string(),
                e.spawns.to_string(),
                e.commits.to_string(),
                e.squashes.to_string(),
                e.graduated.to_string(),
                e.commit_cycles.to_string(),
                e.squash_cycles.to_string(),
                e.wait_cycles.to_string(),
            ]);
        }
        t
    }

    /// Human-readable wait summary.
    pub fn wait_table(&self) -> Table {
        let mut t = Table::new("synchronization waits", &["on", "count", "cycles"]);
        for (key, w) in &self.waits {
            t.row(vec![key.label(), w.count.to_string(), w.cycles.to_string()]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{ChanId, RegionId};
    use tls_sim::{parse_json, ViolationKind};

    fn squash(epoch: u64, start: u64, end: u64, load: u32, store: u32) -> TraceEvent {
        TraceEvent::EpochSquash {
            rid: RegionId(0),
            ord: 0,
            epoch,
            core: 0,
            start,
            end,
            restart: end + 10,
            load_sid: Some(Sid(load)),
            store_sid: Some(Sid(store)),
        }
    }

    #[test]
    fn edges_accumulate_and_rank() {
        let events = vec![
            TraceEvent::Violation {
                rid: RegionId(0),
                ord: 0,
                kind: ViolationKind::Eager,
                load_sid: Some(Sid(7)),
                store_sid: Some(Sid(3)),
                addr: Some(100),
                producer: Some(0),
                consumer: 1,
                core: 1,
                time: 50,
            },
            squash(1, 10, 50, 7, 3),
            squash(2, 20, 50, 7, 3),
            squash(4, 90, 100, 9, 3),
        ];
        let a = attribute(&events);
        assert_eq!(a.total_squashes, 3);
        assert_eq!(a.total_cycles_lost, 40 + 30 + 10);
        let ranked = a.ranked_edges();
        assert_eq!(ranked[0].0, &(Some(Sid(7)), Some(Sid(3))));
        assert_eq!(ranked[0].1.squashes, 2);
        assert_eq!(ranked[0].1.violations, 1);
        assert_eq!(ranked[0].1.kinds["eager"], 1);
        assert_eq!(ranked[0].1.addrs, vec![100]);
        let loads = a.ranked_loads();
        assert_eq!(loads[0].0, Some(Sid(7)));
        assert_eq!(loads[1].0, Some(Sid(9)));
        // Edge squashes sum to the total.
        let sum: u64 = a.edges.values().map(|e| e.squashes).sum();
        assert_eq!(sum, a.total_squashes);
    }

    #[test]
    fn waits_and_epochs_aggregate() {
        let events = vec![
            TraceEvent::EpochSpawn {
                rid: RegionId(0),
                ord: 0,
                epoch: 1,
                core: 1,
                time: 5,
            },
            TraceEvent::WaitEnd {
                rid: RegionId(0),
                ord: 0,
                epoch: 1,
                core: 1,
                kind: WaitKind::Scalar(ChanId(2)),
                since: 10,
                time: 35,
            },
            TraceEvent::EpochCommit {
                rid: RegionId(0),
                ord: 0,
                epoch: 1,
                core: 1,
                start: 5,
                end: 60,
                graduated: 120,
                sync_cycles: 25,
            },
        ];
        let a = attribute(&events);
        assert_eq!(
            a.waits[&WaitKey::Scalar(2)],
            WaitStats {
                count: 1,
                cycles: 25
            }
        );
        let e = a.epochs[&1];
        assert_eq!(e.spawns, 1);
        assert_eq!(e.commits, 1);
        assert_eq!(e.graduated, 120);
        assert_eq!(e.commit_cycles, 55);
        assert_eq!(e.wait_cycles, 25);
    }

    #[test]
    fn json_report_is_byte_stable() {
        let events = vec![
            TraceEvent::Violation {
                rid: RegionId(0),
                ord: 0,
                kind: ViolationKind::Eager,
                load_sid: Some(Sid(7)),
                store_sid: Some(Sid(3)),
                addr: Some(-100),
                producer: Some(0),
                consumer: 1,
                core: 1,
                time: 50,
            },
            squash(1, 10, 50, 7, 3),
            TraceEvent::EpochSquash {
                rid: RegionId(0),
                ord: 0,
                epoch: 2,
                core: 2,
                start: 20,
                end: 50,
                restart: 60,
                load_sid: None,
                store_sid: None,
            },
            TraceEvent::WaitEnd {
                rid: RegionId(0),
                ord: 0,
                epoch: 1,
                core: 1,
                kind: WaitKind::Mem(tls_ir::GroupId(4)),
                since: 60,
                time: 75,
            },
            TraceEvent::WaitEnd {
                rid: RegionId(0),
                ord: 0,
                epoch: 3,
                core: 3,
                kind: WaitKind::Oldest,
                since: 80,
                time: 81,
            },
        ];
        let a = attribute(&events);
        assert_eq!(
            a.to_json("demo \"q\"", "U", 2),
            r#"{"bench":"demo \"q\"","mode":"U","total_violations":2,"total_squashes":2,"total_cycles_lost":70,"edges":[{"load_sid":7,"store_sid":3,"squashes":1,"violations":1,"cycles_lost":40,"kinds":{"eager":1},"addrs":[-100]},{"load_sid":null,"store_sid":null,"squashes":1,"violations":0,"cycles_lost":30,"kinds":{},"addrs":[]}],"top_loads":[{"load_sid":7,"squashes":1,"violations":1,"cycles_lost":40},{"load_sid":null,"squashes":1,"violations":0,"cycles_lost":30}],"epochs":[{"epoch":1,"spawns":0,"commits":0,"squashes":1,"graduated":0,"commit_cycles":0,"squash_cycles":40,"wait_cycles":15},{"epoch":2,"spawns":0,"commits":0,"squashes":1,"graduated":0,"commit_cycles":0,"squash_cycles":30,"wait_cycles":0},{"epoch":3,"spawns":0,"commits":0,"squashes":0,"graduated":0,"commit_cycles":0,"squash_cycles":0,"wait_cycles":1}],"waits":[{"on":"mem group 4","count":1,"cycles":15},{"on":"oldest","count":1,"cycles":1}]}"#
        );
        assert_eq!(
            attribute(&[]).to_json("empty", "C", 0),
            r#"{"bench":"empty","mode":"C","total_violations":0,"total_squashes":0,"total_cycles_lost":0,"edges":[],"top_loads":[],"epochs":[],"waits":[]}"#
        );
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let events = vec![squash(1, 10, 50, 7, 3), squash(2, 20, 50, 7, 3)];
        let a = attribute(&events);
        let json = a.to_json("demo", "U", 2);
        let doc = parse_json(&json).expect("valid JSON");
        assert_eq!(
            doc.get("total_violations").and_then(|v| v.as_num()),
            Some(2.0)
        );
        assert_eq!(
            doc.get("total_squashes").and_then(|v| v.as_num()),
            Some(2.0)
        );
        let edges = doc.get("edges").expect("has edges");
        let tls_sim::Json::Arr(edges) = edges else {
            panic!("edges not an array")
        };
        let sum: f64 = edges
            .iter()
            .map(|e| e.get("squashes").and_then(|v| v.as_num()).expect("num"))
            .sum();
        assert_eq!(sum, 2.0);
        // Tables render.
        assert!(a.edge_table(5).to_string().contains("sid 7"));
        assert!(a.epoch_table().to_string().contains("epoch"));
        assert!(a.wait_table().to_string().contains("on"));
    }
}
