//! End-to-end tests of the `dinefd` binary's flag surface: the
//! `--queue wheel|heap` backend selector, stdout closed early by the
//! reader, and the `live` subcommand's soak + bench-report path.

use std::process::{Command, Output, Stdio};

fn dinefd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dinefd")).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Stdout minus the first summary line, which echoes the selected backend
/// (`queue=wheel` vs `queue=heap`) and so differs by construction; every
/// simulation-derived line below it must be byte-identical.
fn body(out: &Output) -> String {
    let s = stdout(out);
    s.split_once('\n').map(|(_, rest)| rest.to_owned()).unwrap_or(s)
}

const EXTRACT_BASE: [&str; 6] = ["extract", "--n", "4", "--horizon", "400", "--seed"];

#[test]
fn queue_heap_reproduces_the_wheel_byte_for_byte() {
    let wheel = dinefd(&[&EXTRACT_BASE[..], &["7", "--queue", "wheel"]].concat());
    let heap = dinefd(&[&EXTRACT_BASE[..], &["7", "--queue", "heap"]].concat());
    assert!(wheel.status.success(), "wheel run failed: {}", stderr(&wheel));
    assert!(heap.status.success(), "heap run failed: {}", stderr(&heap));
    assert_eq!(body(&wheel), body(&heap), "queue backends must not diverge");
    assert!(stdout(&wheel).contains("queue=wheel"));
    assert!(stdout(&heap).contains("queue=heap"));
}

#[test]
fn a_reader_closing_stdout_early_ends_the_output_quietly() {
    // `dinefd extract … | head -1`: the pipe's read end is gone before the
    // metric block is written.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dinefd"))
        .args(&EXTRACT_BASE[..5])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    assert!(!stderr(&out).contains("panicked"), "closed stdout panicked: {}", stderr(&out));
    assert_eq!(out.status.code(), Some(0), "a closed stdout is a successful end of output");
}

#[test]
fn unknown_queue_backend_is_a_usage_error() {
    let out = dinefd(&["extract", "--queue", "splay"]);
    assert_eq!(out.status.code(), Some(64));
    assert!(stderr(&out).contains("unknown queue backend"));

    let missing = dinefd(&["extract", "--queue"]);
    assert_eq!(missing.status.code(), Some(64));

    // The deprecated `--heap` alias is gone: `--queue heap` is the spelling.
    let alias = dinefd(&["extract", "--heap"]);
    assert_eq!(alias.status.code(), Some(64));
    assert!(stderr(&alias).contains("unknown flag `--heap`"));
}

#[test]
fn live_soak_runs_and_writes_the_bench_report() {
    let path = std::env::temp_dir().join(format!("dinefd_cli_bench_{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf-8 temp path");
    let out = dinefd(&[
        "live",
        "--skip-matrix",
        "--n",
        "3",
        "--trials",
        "2",
        "--horizon-ms",
        "300",
        "--crash-at-ms",
        "100",
        "--bench-out",
        path_s,
    ]);
    assert!(out.status.success(), "live run failed: {} {}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("msgs/sec"), "summary line missing: {text}");
    assert!(text.contains("gate OK"), "gate line missing: {text}");
    let json = std::fs::read_to_string(&path).expect("bench report written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"dinefd-bench/v1\""));
    assert!(json.contains("soak.p99_detection_ms"));
    assert!(json.contains("soak.msgs_per_sec"));
    assert!(json.contains("\"soak.gate_ok\": 1"));
}

#[test]
fn live_rejects_a_crash_outside_the_trial() {
    let out = dinefd(&["live", "--horizon-ms", "100", "--crash-at-ms", "100"]);
    assert_eq!(out.status.code(), Some(64));
    assert!(stderr(&out).contains("--crash-at-ms must be below --horizon-ms"));
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["analyze", "--help"][..], &["-h"][..]] {
        let out = dinefd(args);
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        assert!(stdout(&out).contains("usage: dinefd"), "{args:?}: usage on stdout");
        assert!(stdout(&out).contains("--engine"), "{args:?}: analyze flags documented");
        assert!(stderr(&out).is_empty(), "{args:?}: stderr must stay empty");
    }
}

#[test]
fn analyze_rejects_bad_engine_and_cap_combinations() {
    for (args, needle) in [
        (&["analyze", "--wire-cap", "9"][..], "out of range"),
        (&["analyze", "--wire-cap", "1"][..], "out of range"),
        (&["analyze", "--engine", "splay"][..], "unknown engine"),
        (&["analyze", "--engine", "explicit", "--wire-cap", "8"][..], "impractical"),
        (&["analyze", "--engine", "both", "--wire-cap", "4"][..], "--wire-cap 2 only"),
        (&["analyze", "--engine", "explicit", "--max-k", "2"][..], "--max-k applies"),
        (&["analyze", "--max-k", "9"][..], "out of range"),
        (&["analyze", "--emit-tla"][..], "needs a file path"),
    ] {
        let out = dinefd(args);
        assert_eq!(out.status.code(), Some(64), "{args:?} must be a usage error");
        assert!(stderr(&out).contains(needle), "{args:?}: want `{needle}` in {}", stderr(&out));
        assert!(stderr(&out).contains("usage: dinefd"), "{args:?}: usage echoed on stderr");
    }
}

#[test]
fn analyze_symbolic_proves_the_faithful_model_beyond_the_enumerable_cap() {
    let out = dinefd(&["analyze", "--skip-lints", "--engine", "symbolic", "--wire-cap", "6"]);
    assert_eq!(out.status.code(), Some(0), "faithful symbolic run: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PROVED k=1"), "lemma verdicts missing: {text}");
    assert!(text.contains("closure") && text.contains("PROVED"), "closure line missing: {text}");
    assert!(!text.contains("FAILS"), "nothing may fail on the faithful model: {text}");
}

#[test]
fn analyze_symbolic_reports_real_ctis_for_a_seeded_bug() {
    let out = dinefd(&[
        "analyze",
        "--skip-lints",
        "--engine",
        "symbolic",
        "--subject-mutation",
        "ignore-trigger-guard",
    ]);
    assert_eq!(out.status.code(), Some(2), "seeded bug must fail the run");
    let text = stdout(&out);
    assert!(text.contains("FAILS"), "mutated lemma must fail: {text}");
    assert!(text.contains("REAL"), "CTIs must be replay-confirmed REAL: {text}");
}

#[test]
fn analyze_engines_agree_when_asked_to_cross_check() {
    let out = dinefd(&["analyze", "--skip-lints", "--engine", "both", "--no-classify"]);
    assert_eq!(out.status.code(), Some(0), "both-engine run: {}", stderr(&out));
    assert!(
        stdout(&out).contains("analyze: engines agree"),
        "agreement line missing: {}",
        stdout(&out)
    );
}

#[test]
fn analyze_emit_tla_matches_the_committed_golden_byte_for_byte() {
    let path = std::env::temp_dir().join(format!("dinefd_cli_tla_{}.tla", std::process::id()));
    let path_s = path.to_str().expect("utf-8 temp path");
    let out = dinefd(&["analyze", "--skip-lints", "--skip-induction", "--emit-tla", path_s]);
    assert_eq!(out.status.code(), Some(0), "emit-tla run: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote TLA+ module"), "confirmation line missing");
    let written = std::fs::read_to_string(&path).expect("module written");
    std::fs::remove_file(&path).ok();
    let golden = include_str!("../../analyze/golden/DineFD.tla");
    assert_eq!(written, golden, "CLI export must match the committed golden");
}
