//! Host-side metrics: hierarchical phase timers, campaign gauges, and the
//! stable exports behind `repro metrics` / `--metrics`.
//!
//! Two different kinds of measurement meet here and must not be confused:
//!
//! * **Machine counters** ([`tls_sim::MachineCounters`]) are *simulated*
//!   hardware events — deterministic for a given program and
//!   configuration, independent of the host, the wall clock and `--jobs`.
//!   Their export helpers ([`counters_json`], [`counters_prometheus`]) are
//!   byte-deterministic.
//! * **Host metrics** (this module's spans, gauges and counters) are
//!   *wall-clock* observations of the repro pipeline itself — phase
//!   durations, campaign throughput, worker liveness. Their export
//!   ([`MetricsSnapshot`]) has deterministic *keys* (sorted maps) but
//!   host-dependent values.
//!
//! Phase timers nest: [`span`] pushes onto a thread-local path stack, so a
//! `"compile"` span opened while a `"prep"` span is live records under
//! `prep/compile`. On drop, the elapsed time folds into a process-global
//! registry — worker threads of a [`crate::par`] fan-out each start at the
//! stack root and merge into the same registry, so campaign-wide totals
//! come out of one [`snapshot`] regardless of `--jobs`.
//!
//! Everything is hand-rolled on `std` (the workspace builds offline): the
//! registry is three `Mutex<BTreeMap>`s, and the machine-counter
//! Prometheus export is the plain text exposition format.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use tls_sim::json;

/// Aggregated timings of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans recorded under this path.
    pub count: u64,
    /// Total wall time across those spans, milliseconds.
    pub total_ms: f64,
    /// Longest single span, milliseconds.
    pub max_ms: f64,
}

impl SpanStat {
    fn record(&mut self, ms: f64) {
        self.count += 1;
        self.total_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Fold another path's aggregate into this one (snapshot merging).
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ms += other.total_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

/// Process-global span registry: full path → aggregate.
static SPANS: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());
/// Process-global gauges: last-written value wins.
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());
/// Process-global monotonic counters.
static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The open-span path of *this* thread ([`span`] nesting).
    static PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// A live phase timer. Records into the global registry on drop; read
/// [`Span::elapsed_ms`] before then for in-band reporting (the `repro`
/// per-target resource lines).
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    start: Instant,
    /// Full path, captured at open so an unbalanced child cannot corrupt it.
    path: String,
}

/// Open a phase span named `name`, nested under any span already open on
/// this thread (`prep` → `prep/compile` → …).
pub fn span(name: &str) -> Span {
    let path = PATH.with(|p| {
        let mut p = p.borrow_mut();
        p.push(name.to_string());
        p.join("/")
    });
    Span {
        start: Instant::now(),
        path,
    }
}

impl Span {
    /// Wall time since the span opened, milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// The full `a/b/c` path this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let ms = self.elapsed_ms();
        PATH.with(|p| {
            p.borrow_mut().pop();
        });
        SPANS
            .lock()
            .expect("span registry lock")
            .entry(std::mem::take(&mut self.path))
            .or_default()
            .record(ms);
    }
}

/// Set gauge `name` to `value` (campaign throughput, worker liveness…).
pub fn set_gauge(name: &str, value: f64) {
    GAUGES
        .lock()
        .expect("gauge registry lock")
        .insert(name.to_string(), value);
}

/// Add `delta` to monotonic counter `name`.
pub fn add_counter(name: &str, delta: u64) {
    *COUNTERS
        .lock()
        .expect("counter registry lock")
        .entry(name.to_string())
        .or_insert(0) += delta;
}

/// Clear every registry (test isolation; never called by the CLI).
pub fn reset() {
    SPANS.lock().expect("span registry lock").clear();
    GAUGES.lock().expect("gauge registry lock").clear();
    COUNTERS.lock().expect("counter registry lock").clear();
}

/// A point-in-time copy of the three registries plus the process peak RSS.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Span path → aggregate timings.
    pub spans: BTreeMap<String, SpanStat>,
    /// Gauge name → last value.
    pub gauges: BTreeMap<String, f64>,
    /// Counter name → total.
    pub counters: BTreeMap<String, u64>,
    /// `VmHWM` at snapshot time, kB (0 where procfs is unavailable).
    pub peak_rss_kb: u64,
}

/// Snapshot the global registries.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        spans: SPANS.lock().expect("span registry lock").clone(),
        gauges: GAUGES.lock().expect("gauge registry lock").clone(),
        counters: COUNTERS.lock().expect("counter registry lock").clone(),
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
    }
}

impl MetricsSnapshot {
    /// Serialize as one JSON object. Keys are sorted (`BTreeMap`), so the
    /// *schema* is stable; span and gauge values are wall-clock readings.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.obj("spans", |w| {
                for (path, st) in &self.spans {
                    w.obj(path, |w| {
                        w.raw("count", st.count)
                            .raw("total_ms", format_args!("{:.3}", st.total_ms))
                            .raw("max_ms", format_args!("{:.3}", st.max_ms));
                    });
                }
            })
            .obj("gauges", |w| {
                for (name, v) in &self.gauges {
                    w.raw(name, format_args!("{v:.6}"));
                }
            })
            .obj("counters", |w| {
                for (name, v) in &self.counters {
                    w.raw(name, v);
                }
            })
            .raw("peak_rss_kb", self.peak_rss_kb);
        })
    }
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable. The single
/// shared probe behind every subcommand's resource report.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Byte-deterministic JSON export of one counted run's machine counters
/// (`repro metrics <bench>` schema): identity, the raw counter bank in row
/// order, and the derived rates.
pub fn counters_json(
    bench: &str,
    mode: &str,
    scale: &str,
    c: &tls_sim::MachineCounters,
) -> String {
    json::object(|w| {
        w.str("bench", bench)
            .str("mode", mode)
            .str("scale", scale)
            .obj("counters", |w| {
                for (name, v) in c.rows() {
                    w.raw(&name, v);
                }
            })
            .obj("derived", |w| {
                w.raw("l1_hit_rate", format_args!("{:.6}", c.l1_hit_rate()))
                    .raw(
                        "prediction_hit_rate",
                        format_args!("{:.6}", c.prediction_hit_rate()),
                    )
                    .raw("total_retired", c.total_retired())
                    .raw("total_accesses", c.total_accesses())
                    .raw("total_violations", c.total_violations());
            });
    })
}

/// Byte-deterministic Prometheus text export of one counted run's machine
/// counters, labelled by bench and mode.
pub fn counters_prometheus(bench: &str, mode: &str, c: &tls_sim::MachineCounters) -> String {
    let mut s = String::from("# TYPE tls_machine_counter counter\n");
    for (name, v) in c.rows() {
        s.push_str(&format!(
            "tls_machine_counter{{bench=\"{bench}\",mode=\"{mode}\",name=\"{name}\"}} {v}\n"
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge_into_the_registry() {
        // Unique names: the registry is process-global and tests share it.
        {
            let _outer = span("mtest_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let inner = span("mtest_inner");
                assert_eq!(inner.path(), "mtest_outer/mtest_inner");
            }
            {
                let _inner = span("mtest_inner");
            }
        }
        let snap = snapshot();
        let outer = snap.spans.get("mtest_outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        assert!(outer.total_ms >= 2.0, "{}", outer.total_ms);
        let inner = snap.spans.get("mtest_outer/mtest_inner").expect("inner nests");
        assert_eq!(inner.count, 2);
        assert!(inner.max_ms <= outer.max_ms);
    }

    #[test]
    fn worker_threads_record_into_the_same_registry() {
        crate::par::par_map((0..8).collect::<Vec<u32>>(), |_, _| {
            let _s = span("mtest_worker_phase");
        });
        let snap = snapshot();
        assert_eq!(snap.spans.get("mtest_worker_phase").expect("merged").count, 8);
    }

    #[test]
    fn gauges_and_counters_round_trip() {
        set_gauge("mtest.gauge", 1.5);
        set_gauge("mtest.gauge", 2.5); // last write wins
        add_counter("mtest.counter", 3);
        add_counter("mtest.counter", 4);
        let snap = snapshot();
        assert_eq!(snap.gauges.get("mtest.gauge"), Some(&2.5));
        assert_eq!(snap.counters.get("mtest.counter"), Some(&7));
    }

    #[test]
    fn snapshot_exports_parse_and_are_ordered() {
        let mut snap = MetricsSnapshot::default();
        snap.spans.insert("b/x".into(), SpanStat { count: 2, total_ms: 3.5, max_ms: 2.0 });
        snap.spans.insert("a".into(), SpanStat { count: 1, total_ms: 1.0, max_ms: 1.0 });
        snap.gauges.insert("z.g".into(), 0.25);
        snap.counters.insert("c.n".into(), 9);
        snap.peak_rss_kb = 1024;
        let json = snap.to_json();
        tls_sim::parse_json(&json).expect("snapshot JSON parses");
        // BTreeMap keys: "a" renders before "b/x" regardless of insertion.
        assert!(json.find("\"a\"").expect("a") < json.find("\"b/x\"").expect("b/x"), "{json}");
        assert_eq!(json, snap.to_json(), "same snapshot, same bytes");
        assert_eq!(
            json,
            r#"{"spans":{"a":{"count":1,"total_ms":1.000,"max_ms":1.000},"b/x":{"count":2,"total_ms":3.500,"max_ms":2.000}},"gauges":{"z.g":0.250000},"counters":{"c.n":9},"peak_rss_kb":1024}"#
        );
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            r#"{"spans":{},"gauges":{},"counters":{},"peak_rss_kb":0}"#
        );
    }

    #[test]
    fn machine_counter_exports_are_deterministic() {
        let c = tls_sim::MachineCounters {
            l1_hits: 10,
            mem_fetches: 2,
            ..Default::default()
        };
        let a = counters_json("go", "C", "quick", &c);
        assert_eq!(a, counters_json("go", "C", "quick", &c));
        let parsed = tls_sim::parse_json(&a).expect("parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|o| o.get("cache.l1_hits"))
                .and_then(tls_sim::Json::as_num),
            Some(10.0)
        );
        let prom = counters_prometheus("go", "C", &c);
        assert!(
            prom.contains("tls_machine_counter{bench=\"go\",mode=\"C\",name=\"cache.l1_hits\"} 10"),
            "{prom}"
        );
    }

    #[test]
    fn rss_probe_reads_procfs() {
        // Linux CI always has procfs; the probe must find a plausible value.
        let kb = peak_rss_kb().expect("procfs available");
        assert!(kb > 100, "{kb}");
    }
}
