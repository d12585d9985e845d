//! End-to-end fault-tolerance guarantees of the campaign orchestrator.
//!
//! These tests drive the real `repro` binary: `repro campaign` spawns
//! `repro worker` subprocesses over the stdio protocol, so everything
//! here — worker crashes, orchestrator `kill -9` (simulated by
//! `--die-after-checkpoints`, which calls `abort()`), journal resume —
//! exercises the exact production path. The anchor
//! invariant throughout: a campaign that suffered crashes and resumed
//! must produce a report **byte-identical** to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tls_campaign_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Pull one counter's value out of a `--metrics` snapshot (counters render
/// as `"name":value` in the flat JSON the registry writes).
fn counter(metrics_json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let Some(at) = metrics_json.find(&key) else {
        return 0;
    };
    metrics_json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Fuzz-campaign flags: 6 seeds in shards of 2 keeps the wall clock down
/// while still crossing shard boundaries.
const FUZZ: &[&str] = &[
    "fuzz",
    "--seed",
    "1",
    "--iters",
    "6",
    "--shard",
    "2",
    "--workers",
    "2",
    "--backoff-ms",
    "20",
    "--backoff-cap-ms",
    "100",
];

/// Inject-campaign flags: 12 maskable plans against go at quick scale in
/// 3-plan shards.
const INJECT: &[&str] = &[
    "inject",
    "--bench",
    "go",
    "--mode",
    "C",
    "--quick",
    "--faults",
    "maskable",
    "--seed",
    "1",
    "--iters",
    "12",
    "--shard",
    "3",
    "--workers",
    "2",
];

/// `repro campaign` with `flags`, its artifacts under `dir`, then `extra`.
fn campaign_args(flags: &[&str], dir: &Path, extra: &[&str]) -> Vec<String> {
    let dir = dir.display().to_string();
    let tail = ["--artifacts", dir.as_str()];
    ["campaign"]
        .iter()
        .chain(flags)
        .chain(&tail)
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
}

#[test]
fn crashed_and_resumed_campaign_report_is_byte_identical_to_uninterrupted() {
    // Reference: an uninterrupted run.
    let clean_dir = tmp("clean");
    let clean_out = clean_dir.join("report.json");
    let status = repro()
        .args(campaign_args(
            FUZZ,
            &clean_dir,
            &["--out", &clean_out.display().to_string()],
        ))
        .status()
        .expect("spawn repro");
    assert!(status.success(), "uninterrupted campaign failed: {status}");
    let clean_report = read(&clean_out);

    // Crash run: shard 1's worker exits mid-shard on its first attempt
    // (the retry succeeds), and the orchestrator abort()s — kill -9 —
    // after its second journal checkpoint.
    let crash_dir = tmp("crash");
    let crash_out = crash_dir.join("report.json");
    let metrics_path = crash_dir.join("metrics.json");
    let status = repro()
        .args(campaign_args(
            FUZZ,
            &crash_dir,
            &["--crash-shard", "1", "--die-after-checkpoints", "2"],
        ))
        .status()
        .expect("spawn repro");
    assert!(
        !status.success(),
        "orchestrator was told to abort after 2 checkpoints"
    );
    let journal = crash_dir.join("campaign.journal");
    assert!(journal.exists(), "journal survives the crash");

    // Resume: merges the journaled shards with the missing ones.
    let output = repro()
        .args(campaign_args(
            FUZZ,
            &crash_dir,
            &[
                "--resume",
                "--out",
                &crash_out.display().to_string(),
                "--metrics",
                &metrics_path.display().to_string(),
            ],
        ))
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        read(&crash_out),
        clean_report,
        "crash + kill -9 + resume must merge to a byte-identical report"
    );

    // The worker crash forced at least one retry, visible in metrics (the
    // counter may land in either the crashed or the resumed process; the
    // journal test below pins the resumed run's own accounting).
    let metrics = read(&metrics_path);
    assert!(
        metrics.contains("campaign.shards_completed"),
        "campaign counters exported: {metrics}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn worker_crash_is_retried_with_backoff_and_counted() {
    let dir = tmp("retry");
    let metrics_path = dir.join("metrics.json");
    let output = repro()
        .args(campaign_args(
            FUZZ,
            &dir,
            &[
                "--crash-shard",
                "2",
                "--metrics",
                &metrics_path.display().to_string(),
            ],
        ))
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "one crash within the retry budget must not fail the campaign: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let metrics = read(&metrics_path);
    assert_eq!(counter(&metrics, "campaign.retries"), 1, "{metrics}");
    assert_eq!(counter(&metrics, "campaign.worker_deaths"), 1, "{metrics}");
    assert!(
        counter(&metrics, "campaign.backoff_ms_total") > 0,
        "{metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retry_budget_degrades_to_partial_coverage_exit_6() {
    let dir = tmp("partial");
    let out = dir.join("report.json");
    let status = repro()
        .args(campaign_args(
            FUZZ,
            &dir,
            &[
                "--crash-shard",
                "1",
                "--crash-every-attempt",
                "--max-attempts",
                "2",
                "--worker-failures",
                "10",
                "--out",
                &out.display().to_string(),
            ],
        ))
        .status()
        .expect("spawn repro");
    assert_eq!(
        status.code(),
        Some(6),
        "partial coverage has its own exit code"
    );
    let report = read(&out);
    assert!(
        report.contains("\"incomplete\":[1]"),
        "exactly the crashing shard is incomplete: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The inject path end to end: a crashed and resumed campaign through the
/// worker pool reports the bytes of an uninterrupted one, and its merged
/// counts are the per-class sums of the same plans run in-process.
#[test]
fn crashed_and_resumed_inject_campaign_matches_the_in_process_campaign() {
    use tls_experiments::inject::{run_campaign, InjectConfig, Partition, PlanOutcome};
    use tls_experiments::proto::ShardStats;
    use tls_experiments::{Harness, Mode, Scale};

    let clean_dir = tmp("inject_clean");
    let clean_out = clean_dir.join("report.json");
    let status = repro()
        .args(campaign_args(
            INJECT,
            &clean_dir,
            &["--out", &clean_out.display().to_string()],
        ))
        .status()
        .expect("spawn repro");
    assert!(
        status.success(),
        "uninterrupted inject campaign failed: {status}"
    );
    let clean_report = read(&clean_out);

    let crash_dir = tmp("inject_crash");
    let crash_out = crash_dir.join("report.json");
    let status = repro()
        .args(campaign_args(
            INJECT,
            &crash_dir,
            &["--crash-shard", "1", "--die-after-checkpoints", "2"],
        ))
        .status()
        .expect("spawn repro");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(status.signal(), Some(6), "orchestrator aborts: {status}");
    }
    assert!(
        !status.success(),
        "orchestrator was told to abort after 2 checkpoints"
    );
    assert!(
        crash_dir.join("campaign.journal").exists(),
        "journal survives the crash"
    );
    let output = repro()
        .args(campaign_args(
            INJECT,
            &crash_dir,
            &["--resume", "--out", &crash_out.display().to_string()],
        ))
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        read(&crash_out),
        clean_report,
        "crash + kill -9 + resume must merge to a byte-identical report"
    );

    let report = tls_sim::parse_json(&clean_report).expect("report is JSON");
    let merged =
        ShardStats::from_json(report.get("merged").expect("merged stats")).expect("decodes");
    let workload = tls_workloads::by_name("go").expect("go exists");
    let h = Harness::new(workload, Scale::Quick).expect("go prepares");
    let cfg = InjectConfig {
        partition: Partition::Maskable,
        ..InjectConfig::default()
    };
    let mode = Mode::from_label("C").expect("mode C");
    let local = run_campaign(&h, mode, 1, 12, &cfg).expect("in-process campaign");
    assert!(local.errors.is_empty(), "{:?}", local.errors);
    let count =
        |f: fn(&PlanOutcome) -> bool| local.results.iter().filter(|r| f(&r.outcome)).count() as u64;
    assert_eq!(
        (
            merged.seeds,
            merged.injected,
            merged.masked,
            merged.rejected,
            merged.dormant,
            merged.unsound,
        ),
        (
            local.results.len() as u64,
            local.results.iter().map(|r| r.injected).sum(),
            count(|o| matches!(o, PlanOutcome::Masked)),
            count(|o| matches!(o, PlanOutcome::Rejected(_))),
            count(|o| matches!(o, PlanOutcome::Dormant)),
            count(|o| {
                matches!(
                    o,
                    PlanOutcome::Diverged(_) | PlanOutcome::Faulted(_) | PlanOutcome::Undetected
                )
            }),
        ),
        "merged campaign counts equal the in-process campaign's"
    );
    assert!(
        merged.masked > 0,
        "some plan fired and was absorbed: {merged:?}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn requested_stop_drains_immediately_to_a_partial_report() {
    // In-process: the stop flag is process-global, so this test runs the
    // orchestrator directly rather than through the binary (the other
    // tests' subprocesses each have their own flag).
    let dir = tmp("drain");
    let spec = tls_experiments::orchestrate::CampaignSpec {
        kind: tls_experiments::proto::JobSpec::Fuzz {
            family: tls_ir::GenFamily::Baseline,
            break_forwarding: false,
        },
        seed0: 1,
        total: 6,
        shard_size: 2,
        workers: 1,
        max_attempts: 3,
        worker_failure_budget: 2,
        job_deadline: std::time::Duration::from_secs(600),
        heartbeat_timeout: std::time::Duration::from_secs(120),
        backoff_base: std::time::Duration::from_millis(20),
        backoff_cap: std::time::Duration::from_millis(100),
        artifacts: dir.clone(),
        resume: false,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_repro").to_string(),
            "worker".to_string(),
        ],
        crash_shard: None,
        crash_every_attempt: false,
        die_after_checkpoints: None,
    };
    tls_experiments::orchestrate::request_stop();
    let report = tls_experiments::orchestrate::run_campaign(&spec).expect("drained campaign");
    tls_experiments::orchestrate::clear_stop();
    assert!(report.partial(), "a drained campaign has partial coverage");
    assert_eq!(report.completed.len(), 0, "nothing was dispatched");
    assert_eq!(report.incomplete, vec![0, 1, 2]);
    assert!(
        dir.join("campaign.journal").exists(),
        "the journal exists even for a fully drained campaign"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
