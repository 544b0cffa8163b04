//! The `tables` binary rejects what it does not know before running
//! anything: a typo must not turn into a silent no-op or a multi-minute
//! full-profile run.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("tables binary runs")
}

#[test]
fn unknown_experiment_id_is_a_usage_error() {
    let out = tables(&["e999"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "printed before validating: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id `e999`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error_before_any_experiment_runs() {
    let out = tables(&["--quik", "e3"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "ran e3 despite the typo: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--quik`"), "{stderr}");
    assert!(!stderr.contains("done in"), "an experiment ran: {stderr}");
}
