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
    // Inject campaigns have no on-disk compile cache to point at or opt
    // out of.
    let inject = ["campaign", "inject", "--bench", "go", "--quick"];
    assert_exit(&[&inject[..], &["--cache", "dir"]].concat(), 2);
    assert_exit(&[&inject[..], &["--no-cache"]].concat(), 2);
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
    // Not JSON: a signed, a bare-fraction, a trailing-dot and a
    // zero-padded number, and a `\u` escape with a sign among its digits.
    let trace = std::env::temp_dir().join(format!("tls_cli_{}_trace.json", std::process::id()));
    std::fs::write(
        &trace,
        r#"{"traceEvents":[{"ph":"i","ts":+1,"pid":.5,"tid":1.},{"ph":"i\u+04a","ts":01,"pid":0,"tid":0}]}"#,
    )
    .expect("write trace");
    assert_exit(&["trace-check", &trace.display().to_string()], 4);
    let _ = std::fs::remove_file(&trace);
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

/// `repro run --out` bytes, with the host-dependent `peak_rss_kb` value
/// zeroed the way nightly's scale soak `sed`s it out.
#[test]
fn run_out_document_is_byte_stable() {
    let path = std::env::temp_dir().join(format!("tls_cli_{}_run.json", std::process::id()));
    let out = path.display().to_string();
    assert_exit(
        &[
            "run", "go", "--mode", "all", "--quick", "--quiet", "--out", &out,
        ],
        0,
    );
    let doc = std::fs::read_to_string(&path).expect("run --out written");
    let _ = std::fs::remove_file(&path);
    let (head, tail) = doc.split_once("\"peak_rss_kb\":").expect("has peak_rss_kb");
    let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
    assert!(digits > 0, "peak_rss_kb is an integer: {doc}");
    let doc = format!("{head}\"peak_rss_kb\":0{}", &tail[digits..]);
    assert!(
        doc.starts_with(r#"{"bench":"go","scale":"quick","seq_cycles":"#),
        "{doc}"
    );
    assert_eq!(
        (
            doc.len(),
            format!("{:016x}", tls_experiments::journal::fnv64(doc.as_bytes()))
        ),
        (4144, "9069886b271532d8".to_string()),
        "{doc}"
    );
}

/// Values the worker protocol cannot carry exactly are refused up front:
/// a campaign seed range or `--budget` reaching 2^53 like a zero-seed
/// campaign (exit 3), and a `--rate` that is not a probability as a usage
/// error (exit 2).
#[test]
fn values_the_wire_cannot_carry_are_refused() {
    let dir = std::env::temp_dir().join(format!("tls_cli_{}_wire", std::process::id()));
    let artifacts = dir.display().to_string();
    let campaign = |args: &[&str], code| {
        let tail = ["--artifacts", artifacts.as_str()];
        assert_exit(&[&["campaign"][..], args, &tail].concat(), code);
    };
    for seed in [
        "9007199254740993",
        "9007199254740991",
        "18446744073709551615",
    ] {
        campaign(&["fuzz", "--seed", seed, "--iters", "2"], 3);
    }
    campaign(&["fuzz", "--iters", "0"], 3);
    let budget = "18446744073709551615";
    campaign(
        &["inject", "--bench", "go", "--quick", "--budget", budget],
        3,
    );
    for rate in ["inf", "NaN", "-0.5", "1.5", "1e400"] {
        assert_exit(
            &["inject", "go", "--quick", "--campaign", "1", "--rate", rate],
            2,
        );
        campaign(&["inject", "--bench", "go", "--quick", "--rate", rate], 2);
    }
    assert!(!dir.exists(), "refused campaigns write no journal");
}
