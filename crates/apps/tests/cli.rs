//! End-to-end tests of the `dinefd` binary's flag surface: the
//! `--threads T` split, stdout closed early by the reader, and the `live`
//! subcommand's soak + bench-report path.

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

const EXTRACT_BASE: [&str; 6] = ["extract", "--n", "4", "--horizon", "400", "--seed"];

/// `--threads T` runs T shards on the worker pool, and stdout is the same
/// bytes for every T: the summary, the counters and the metric export.
#[test]
fn thread_count_never_changes_the_run() {
    let one = dinefd(&[&EXTRACT_BASE[..], &["7", "--threads", "1"]].concat());
    assert!(one.status.success(), "one-thread run failed: {}", stderr(&one));
    assert!(stdout(&one).contains("steps"), "no run summary: {}", stdout(&one));
    for threads in ["2", "3"] {
        let many = dinefd(&[&EXTRACT_BASE[..], &["7", "--threads", threads]].concat());
        assert!(many.status.success(), "--threads {threads} failed: {}", stderr(&many));
        assert_eq!(stdout(&one), stdout(&many), "--threads {threads} diverged");
        let workers = stderr(&many).lines().filter(|l| l.starts_with("worker ")).count();
        assert_eq!(workers.to_string(), threads, "one worker per shard");
    }
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

/// The shard count follows `--threads`; `--shards` is not a flag.
#[test]
fn the_shards_flag_is_unknown() {
    let out = dinefd(&["extract", "--n", "4", "--shards", "4"]);
    assert_eq!(out.status.code(), Some(64));
    assert!(stdout(&out).is_empty(), "no run summary for a refused flag");
    assert_eq!(stderr(&out).lines().next(), Some("error: unknown flag `--shards`"));
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

/// A scenario file's removed section and unknown keys are usage errors
/// that name their line.
#[test]
fn fuzz_scenario_rejects_the_sim_section_and_unknown_keys() {
    for (text, want) in [
        ("[sim]\nthreads = 2\n", ": scenario line 1: unknown section `[sim]`"),
        ("[model]\nthreads = 2\n", ": scenario line 2: unknown [model] key `threads`"),
    ] {
        let path =
            std::env::temp_dir().join(format!("dinefd_cli_threads_{}.scn", std::process::id()));
        std::fs::write(&path, text).expect("write scenario");
        let out = dinefd(&["fuzz", "--scenario", path.to_str().expect("utf-8 temp path")]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(out.status.code(), Some(64), "{text:?} must be a usage error");
        let first = stderr(&out).lines().next().unwrap_or_default().to_owned();
        assert!(first.ends_with(want), "{text:?}: unexpected error line: {first}");
        assert!(stdout(&out).is_empty(), "no campaign runs on a refused scenario");
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["analyze", "--help"][..], &["-h"][..]] {
        let out = dinefd(args);
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        assert!(stdout(&out).contains("usage: dinefd"), "{args:?}: usage on stdout");
        assert!(stdout(&out).contains("--max-k"), "{args:?}: analyze flags documented");
        assert!(!stdout(&out).contains("--engine"), "{args:?}: one invariant engine, no choice");
        assert!(stderr(&out).is_empty(), "{args:?}: stderr must stay empty");
    }
}

#[test]
fn analyze_rejects_bad_values_and_the_removed_engine_flag() {
    for (args, needle) in [
        (&["analyze", "--wire-cap", "9"][..], "out of range"),
        (&["analyze", "--wire-cap", "1"][..], "out of range"),
        (&["analyze", "--engine", "symbolic"][..], "unknown flag `--engine`"),
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
    let out = dinefd(&["analyze", "--skip-lints", "--wire-cap", "6"]);
    assert_eq!(out.status.code(), Some(0), "faithful symbolic run: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PROVED k=1"), "lemma verdicts missing: {text}");
    assert!(text.contains("closure") && text.contains("PROVED"), "closure line missing: {text}");
    assert!(!text.contains("FAILS"), "nothing may fail on the faithful model: {text}");
}

#[test]
fn analyze_symbolic_reports_real_ctis_for_a_seeded_bug() {
    let out = dinefd(&["analyze", "--skip-lints", "--subject-mutation", "ignore-trigger-guard"]);
    assert_eq!(out.status.code(), Some(2), "seeded bug must fail the run");
    let text = stdout(&out);
    assert!(text.contains("FAILS"), "mutated lemma must fail: {text}");
    assert!(text.contains("REAL"), "CTIs must be replay-confirmed REAL: {text}");
}

#[test]
fn analyze_runs_k_induction_at_the_default_cap() {
    let out = dinefd(&["analyze"]);
    assert_eq!(out.status.code(), Some(0), "faithful run: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("k-induction at wire cap 2"), "engine header missing: {text}");
    assert!(!text.contains("FAILS"), "nothing may fail on the faithful model: {text}");
}

#[test]
fn analyze_proves_every_lemma_at_cap_8_and_depth_8() {
    let out = dinefd(&["analyze", "--skip-lints", "--wire-cap", "8", "--max-k", "8"]);
    assert_eq!(out.status.code(), Some(0), "cap-8 depth-8 run: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.matches("PROVED k=1").count(), 5, "five lemmas, each 1-inductive: {text}");
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

/// Pins the flag surface's error side: every bad invocation below is exit
/// 64 with exactly this first stderr line (the usage text follows it).
#[test]
fn bad_invocations_keep_their_error_lines() {
    for (args, line) in [
        // Missing values.
        (&["extract", "--n"][..], "--n needs a value"),
        (&["extract", "--crash"][..], "--crash needs PID@TICK"),
        (&["fuzz", "--scenario"][..], "--scenario needs a file path"),
        (&["fuzz", "--subject-mutation"][..], "--subject-mutation needs a value"),
        (&["analyze", "--model-mutation"][..], "--model-mutation needs a value"),
        (&["analyze", "--max-k"][..], "--max-k needs a value"),
        (&["live", "--bench-out"][..], "--bench-out needs a file path"),
        // Non-integers.
        (&["extract", "--n", "eight"][..], "--n: `eight` is not an integer"),
        (&["extract", "--seed", "-1"][..], "--seed: `-1` is not an integer"),
        (&["fuzz", "--time-budget-secs", "1.5"][..], "--time-budget-secs: `1.5` is not an integer"),
        (&["live", "--trials", ""][..], "--trials: `` is not an integer"),
        (&["analyze", "--wire-cap", "two"][..], "--wire-cap `two` out of range [2, 8]"),
        (&["analyze", "--max-k", "x"][..], "--max-k `x` out of range [1, 8]"),
        // Below and above range.
        (&["extract", "--n", "1"][..], "--n 1 out of range [2, 4096]"),
        (&["extract", "--n", "4097"][..], "--n 4097 out of range [2, 4096]"),
        (&["extract", "--threads", "0"][..], "--threads 0 out of range [1, 64]"),
        (&["extract", "--threads", "65"][..], "--threads 65 out of range [1, 64]"),
        (&["extract", "--horizon", "0"][..], "--horizon must be at least 1"),
        (&["fuzz", "--max-steps", "0"][..], "--max-steps 0 out of range [1, 100000]"),
        (&["fuzz", "--max-steps", "100001"][..], "--max-steps 100001 out of range [1, 100000]"),
        (&["fuzz", "--iterations", "0"][..], "--iterations must be at least 1"),
        (&["fuzz", "--corpus-seeds", "1000001"][..], "--corpus-seeds 1000001 out of range"),
        (&["analyze", "--wire-cap", "1"][..], "--wire-cap `1` out of range [2, 8]"),
        (&["analyze", "--wire-cap", "9"][..], "--wire-cap `9` out of range [2, 8]"),
        (&["analyze", "--wire-cap", "256"][..], "--wire-cap `256` out of range [2, 8]"),
        (&["analyze", "--max-k", "0"][..], "--max-k `0` out of range [1, 8]"),
        (&["analyze", "--max-k", "9"][..], "--max-k `9` out of range [1, 8]"),
        (&["live", "--n", "1"][..], "--n 1 out of range [2, 16]"),
        (&["live", "--n", "17"][..], "--n 17 out of range [2, 16]"),
        (&["live", "--trials", "101"][..], "--trials 101 out of range [1, 100]"),
        (&["live", "--period-ms", "0"][..], "--period-ms 0 out of range [1, 1000]"),
        (&["live", "--period-ms", "1001"][..], "--period-ms 1001 out of range [1, 1000]"),
        (&["live", "--horizon-ms", "0"][..], "--horizon-ms must be at least 1"),
        // Unknown names, flags and subcommands.
        (&["analyze", "--subject-mutation", "bogus"][..], "unknown subject mutation `bogus`"),
        (&["analyze", "--subject-mutation", "none"][..], "unknown subject mutation `none`"),
        (&["analyze", "--model-mutation", "bogus"][..], "unknown model mutation `bogus`"),
        (&["fuzz", "--subject-mutation", "bogus"][..], "unknown subject mutation `bogus`"),
        (&["fuzz", "--model-mutation", "none"][..], "unknown model mutation `none`"),
        (&["analyze", "--engine", "both"][..], "unknown flag `--engine`"),
        (&["extract", "--crash", "3"][..], "--crash `3`: expected PID@TICK"),
        (&["extract", "--crash", "x@y"][..], "--crash `x@y`: expected PID@TICK"),
        (&["extract", "--crash", "9@5"][..], "--crash PID must be below --n"),
        (&["analyze", "--bogus"][..], "unknown flag `--bogus`"),
        (&["fuzz", "--bogus"][..], "unknown flag `--bogus`"),
        (&["extract", "--bogus"][..], "unknown flag `--bogus`"),
        (&["extract", "--queue", "heap"][..], "unknown flag `--queue`"),
        (&["extract", "--shards", "2"][..], "unknown flag `--shards`"),
        (&["extract", "--streaming"][..], "unknown flag `--streaming`"),
        (&["live", "--bogus"][..], "unknown flag `--bogus`"),
        (&["frobnicate"][..], "unknown subcommand `frobnicate`"),
        (&[][..], "missing subcommand"),
    ] {
        let out = dinefd(args);
        assert_eq!(out.status.code(), Some(64), "{args:?} must be a usage error");
        let err = stderr(&out);
        assert_eq!(err.lines().next(), Some(&*format!("error: {line}")), "{args:?}");
        assert!(err.lines().nth(1).is_some_and(|l| l.starts_with("usage: dinefd")), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}: a usage error prints nothing on stdout");
    }
}
