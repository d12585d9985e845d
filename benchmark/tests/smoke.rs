//! The `--smoke` configuration (quick inputs, 20 seeds, one round) through
//! the real binary: every workload, untraced and traced, must check out and
//! report exactly the metrics `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

use tls_sim::{parse_json, validate_perfetto, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("`{key}` is not an array");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

struct Run {
    result: Json,
    digest: String,
}

fn run(workload: &str, trace: bool, trace_out: Option<&PathBuf>) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args(["run", "--smoke", "--workload", workload, "--seed", "3"])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd.output().expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {}\n{stdout}", out.status);
    let result = parse_json(stdout.lines().last().expect("a result line")).expect("result parses");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .expect("digest line")
        .to_string();
    Run { result, digest }
}

/// Run `workload` untraced and traced: both must check out, report exactly
/// the declared metrics, and agree on the digest; the traced run's export
/// must be a valid trace.
fn check_workload(workload: &str) {
    let doc = benchmark_json();
    assert!(names(&doc, "workloads").iter().any(|w| w == workload));
    let trace_out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}.trace.json"));
    let mut digests = Vec::new();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let r = run(workload, trace, trace.then_some(&trace_out));
        assert_eq!(
            r.result.get("correct"),
            Some(&Json::Bool(true)),
            "{workload}"
        );
        assert_eq!(r.result.get("failed").and_then(Json::as_num), Some(0.0));
        assert!(r.result.get("attempted").and_then(Json::as_num) >= Some(1.0));
        let Some(Json::Obj(metrics)) = r.result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names(&doc, key), "{workload} --trace {trace}");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_num);
            assert!(v.is_some_and(f64::is_finite), "{workload} {name}: {m:?}");
        }
        digests.push(r.digest);
    }
    assert_eq!(digests[0], digests[1], "{workload}: traced digest differs");
    let text = std::fs::read_to_string(&trace_out).expect("trace written");
    assert!(validate_perfetto(&text).expect("valid trace") > 1);
}

#[test]
fn paper_ref_smoke() {
    check_workload("paper-ref");
}

#[test]
fn sim_long_smoke() {
    check_workload("sim-long");
}

#[test]
fn fuzz_diff_smoke() {
    check_workload("fuzz-diff");
}

#[test]
fn campaign_fuzz_smoke() {
    check_workload("campaign-fuzz");
}

#[test]
fn fuzz_and_campaign_agree_on_the_same_seeds() {
    assert_eq!(
        run("fuzz-diff", false, None).digest,
        run("campaign-fuzz", false, None).digest
    );
}

#[test]
fn malformed_arguments_are_usage_errors() {
    for args in [
        &["run", "--trace", "2"][..],
        &["run", "--workload", "no-such-workload"],
        &["run", "--seconds", "0"],
        &["bogus"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
