//! Smoke tests for the `quest-cli` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_quest-cli"))
}

#[test]
fn table2_prints_all_four_designs() {
    let out = cli().arg("table2").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["Steane", "Shor", "SC-17", "SC-13"] {
        assert!(text.contains(name), "missing {name}");
    }
    assert!(text.contains("170048"));
}

#[test]
fn report_covers_the_suite() {
    let out = cli().arg("report").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["BWT", "BF", "GSE", "FeMoCo", "QLS", "SHOR", "TFP"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn shor_reports_millions_of_qubits() {
    let out = cli().args(["shor", "1024"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("physical qubits"));
    assert!(text.contains("TB/s"));
}

#[test]
fn asm_reads_stdin() {
    let mut child = cli()
        .args(["asm", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"lh L0\nlt L0\nlcnot L0 L1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("assembled 3 instructions"));
    assert!(text.contains("T gates      : 1"));
}

#[test]
fn asm_reports_line_errors() {
    let mut child = cli()
        .args(["asm", "-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"lh L0\nbogus L1\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cli().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage"));
}

#[test]
fn invalid_spec_exits_with_one_line_diagnostic() {
    // An invalid workload spec must produce a single-line typed
    // diagnostic on stderr and a failure exit code — never a panic
    // backtrace.
    let cases: [&[&str]; 5] = [
        &["run", "--distance", "2"],
        &["run", "--tiles", "0"],
        &["run", "--error-rate", "1.5"],
        &["run", "--tiles", "2", "--shards", "3"],
        &["simulate", "2", "1e-3", "10"],
    ];
    for args in cases {
        let out = cli().args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{args:?}: {err}");
        assert!(
            !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
            "{args:?} panicked: {err}"
        );
    }
}

#[test]
fn run_executes_bell_workload_sharded() {
    let out = cli()
        .args([
            "run",
            "--workload",
            "bell",
            "--tiles",
            "4",
            "--shards",
            "2",
            "--cycles",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("bus bytes"), "{text}");
    assert!(text.contains("4 tiles read out"), "{text}");
}

#[test]
fn simulate_runs_all_three_modes() {
    let out = cli()
        .args(["simulate", "3", "1e-3", "30"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SoftwareBaseline"));
    assert!(text.contains("QuestMce"));
    assert!(text.contains("QuestMceCache"));
    assert!(text.contains("logical OK"));
}

#[test]
fn supervised_run_retries_and_resumes_from_a_checkpoint() {
    // Shard 1 panics at cycle 10; the supervisor resumes attempt 2 from
    // the cycle-8 checkpoint and the run completes normally.
    let out = cli()
        .args([
            "run",
            "--shards",
            "2",
            "--cycles",
            "30",
            "--checkpoint-every",
            "4",
            "--retries",
            "2",
            "--fault-shard-panic",
            "1:10",
        ])
        .output()
        .expect("binary runs");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("supervision: 2 attempt(s), 8 cycle(s) resumed from checkpoints"),
        "{text}"
    );
    assert!(text.contains("8 tiles read out"), "{text}");
}

#[test]
fn deadline_cycles_ends_the_run_with_a_one_line_error() {
    let out = cli()
        .args(["run", "--cycles", "50000", "--deadline-cycles", "20"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error: deadline exceeded: "), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}
