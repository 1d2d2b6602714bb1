//! The `puffer` binary rejects malformed or out-of-range flag values with
//! exit code 2 and the usage text — never a panic, and never by silently
//! falling back to a default.

use std::process::{Command, Output};

fn puffer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_puffer")).args(args).output().expect("puffer runs")
}

fn assert_rejected(args: &[&str]) {
    let out = puffer(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} exit code; stderr: {stderr}");
    assert!(stderr.contains("usage: puffer"), "{args:?} prints no usage: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn run_rct_rejects_bad_values() {
    for args in [
        &["run-rct", "--days", "0"][..],
        &["run-rct", "--sessions", "0"],
        &["run-rct", "--sessions", "abc"],
        &["run-rct", "--days", "-1"],
        &["run-rct", "--seed", "x"],
        &["run-rct", "--fault-rate", "NaN"],
        &["run-rct", "--fault-rate", "1.5"],
        &["run-rct", "--fault-rate", "-0.1"],
        &["run-rct", "--fault-rate", "lots"],
    ] {
        assert_rejected(args);
    }
}

#[test]
fn other_commands_reject_bad_values() {
    let out = std::env::temp_dir().join(format!("puffer_cli_{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    for args in [
        &["simulate", "--seconds", "abc"][..],
        &["collect", "--out", out, "--days", "0"],
        &["collect", "--out", out, "--sessions", "1e3"],
        &["archive", "--out", out, "--sessions", "many"],
        &["power-analysis", "--out", out, "--cuts", "100,x"],
        &["power-analysis", "--out", out, "--sessions", "0"],
        &["power-analysis", "--out", out, "--boot", "0"],
        &["power-analysis", "--out", out, "--improvement", "1.5"],
        &["power-analysis", "--out", out, "--cuts", "2000,100"],
    ] {
        assert_rejected(args);
    }
}
