//! The `repro` exit-code contract: 0 ok, 2 usage, 3 simulation, internal
//! or I/O error, 4 correctness-check failure, 6 partial campaign coverage.
//! Exits 0 and 6 are covered by the campaign suite; this pins 2, 3 and 4
//! on the real binary.

use std::process::Command;

/// Run `repro` with `args`, asserting its exit code; stderr goes into the
/// failure message.
fn assert_exit(args: &[&str], code: i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(code),
        "repro {}: stderr:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_command_lines_exit_2() {
    assert_exit(&["bench"], 2);
    assert_exit(&["fig2", "--jobs", "abc"], 2);
    assert_exit(&["fuzz", "--resume"], 2);
}

#[test]
fn simulation_and_io_errors_exit_3() {
    assert_exit(&["run", "nosuch", "--quick"], 3);
    assert_exit(
        &[
            "fig2",
            "--quick",
            "--workloads",
            "mcf",
            "--out",
            "/nonexistent/dir/x.json",
        ],
        3,
    );
    assert_exit(&["conform", "parser", "--quick", "--mode", "SEQ"], 3);
}

#[test]
fn failed_correctness_checks_exit_4() {
    let dir = std::env::temp_dir().join(format!("tls_cli_{}_fuzz", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifacts = dir.display().to_string();
    assert_exit(
        &[
            "fuzz",
            "--seed",
            "1",
            "--iters",
            "3",
            "--jobs",
            "1",
            "--break-forwarding",
            "--artifacts",
            &artifacts,
        ],
        4,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
