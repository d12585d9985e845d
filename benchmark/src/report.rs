//! The metrics this benchmark reports, and its one-line JSON result.
//!
//! Every workload emits every metric, so one table serves all four; the
//! tests check it against `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::string as json_string;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, losses).
    Lower,
    /// Larger is better (throughput, speedups).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and declared.
    pub name: &'static str,
    /// Unit as printed and declared.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression; `None` per layer.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_s", "s", Lower, 0.24),
    e2e("ops_per_s", "1/s", Higher, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("region_speedup.U", "x", Higher, 0.05),
    e2e("region_speedup.T", "x", Higher, 0.05),
    e2e("region_speedup.C", "x", Higher, 0.05),
    e2e("region_speedup.H", "x", Higher, 0.05),
    e2e("region_speedup.B", "x", Higher, 0.05),
    e2e("region_speedup.A", "x", Higher, 0.05),
];

/// Per-layer metrics, from the traced round and the standalone layer
/// probes that follow it.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("input.build_s", "s", Lower),
    layer("profile.interp_s", "s", Lower),
    layer("profile.depprof_s", "s", Lower),
    layer("profile.depprof_mips", "Minstr/s", Higher),
    layer("profile.oracle_s", "s", Lower),
    layer("core.compile_s", "s", Lower),
    layer("harness.prep_s", "s", Lower),
    layer("harness.check_s", "s", Lower),
    layer("sim.seq_s", "s", Lower),
    layer("sim.new_us", "us", Lower),
    layer("sim.run_us", "us", Lower),
    layer("sim.mips", "Minstr/s", Higher),
    layer("sim.mips.U", "Minstr/s", Higher),
    layer("sim.mips.C", "Minstr/s", Higher),
    layer("sim.mips.H", "Minstr/s", Higher),
    layer("sim.mips.B", "Minstr/s", Higher),
    layer("sim.mips.A", "Minstr/s", Higher),
    layer("worker.spawn_ms", "ms", Lower),
    layer("worker.shard_ms", "ms", Lower),
    layer("orchestrate.overhead_frac", "fraction", Lower),
    layer("journal.append_ms", "ms", Lower),
    layer("par.speedup", "x", Higher),
    layer("bench.trace_overhead_frac", "fraction", Lower),
    layer("bench.span_coverage", "fraction", Higher),
    layer("sim.squash_frac.U", "fraction", Lower),
    layer("sim.squash_frac.C", "fraction", Lower),
    layer("sim.squash_frac.B", "fraction", Lower),
    layer("sim.squash_frac.A", "fraction", Lower),
    layer("sim.fail_frac.U", "fraction", Lower),
    layer("sim.fail_frac.C", "fraction", Lower),
    layer("sim.fail_frac.B", "fraction", Lower),
    layer("sim.fail_frac.A", "fraction", Lower),
    layer("sim.sync_frac.C", "fraction", Lower),
    layer("sim.sync_frac.B", "fraction", Lower),
    layer("sim.sync_frac.A", "fraction", Lower),
    layer("sim.forwards.C", "count", Higher),
    layer("sim.forwards.B", "count", Higher),
    layer("sim.forwards.A", "count", Higher),
    layer("sim.minstr", "Minstr", Lower),
    layer("sim.l1_hit_rate", "fraction", Higher),
    layer("core.sync_loads", "count", Higher),
    layer("core.clones", "count", Lower),
    layer("core.code_growth", "x", Lower),
    layer("input.with_regions_frac", "fraction", Higher),
    layer("input.with_sync_loads_frac", "fraction", Higher),
    layer("input.with_violations_frac", "fraction", Higher),
    layer("bench.traced_round_s", "s", Lower),
    layer("bench.round_wall_s", "s", Lower),
    layer("bench.host_factor", "x", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The result line the benchmark prints last: `correct`, `attempted`,
/// `failed` and one `{value, unit}` entry per metric of `defs`, in
/// declaration order. A metric missing from `values`, or not a finite
/// number, is an error: the run must not report a result it did not
/// measure.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric `{}` is not a finite number: {v}", d.name));
        }
        metrics.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_string(d.name),
            json_string(d.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

/// One human-readable line per metric: name, value, unit, direction and
/// bound.
pub fn describe(defs: &[MetricDef], values: &Values) -> Vec<String> {
    defs.iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(f64::NAN);
            let bound = d
                .bound
                .map(|b| format!(", bound {:.0}%", b * 100.0))
                .unwrap_or_default();
            format!(
                "  {:<28} {:>16.6} {:<9} ({} is better{bound})",
                d.name,
                v,
                d.unit,
                d.better.label()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_sim::{parse_json, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("`{key}` is not an array");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_num),
                )
            })
            .collect()
    }

    fn ours(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    d.better.label().into(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_parses_and_carries_every_declared_metric() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.to_string(), 1.0 + i as f64 / 3.0))
            .collect();
        let line = result_line(true, 1000, 0, &END_TO_END, &values).expect("complete");
        let j = parse_json(&line).expect("result line parses");
        let Some(Json::Obj(members)) = j.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<(String, String, String, Option<f64>)> =
            declared(&benchmark_json(), "end_to_end");
        assert_eq!(
            names,
            declared.iter().map(|d| d.0.as_str()).collect::<Vec<_>>()
        );
        let round = j
            .get("metrics")
            .and_then(|m| m.get("round_s"))
            .expect("round_s");
        assert_eq!(
            round.get("value").and_then(Json::as_num),
            Some(1.0 + 1.0 / 3.0)
        );
        assert_eq!(round.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(j.get("attempted").and_then(Json::as_num), Some(1000.0));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));

        let mut partial = values.clone();
        partial.remove("round_s");
        assert!(result_line(true, 1, 0, &END_TO_END, &partial).is_err());
        partial.insert("round_s".into(), f64::NAN);
        assert!(result_line(true, 1, 0, &END_TO_END, &partial).is_err());
    }
}
