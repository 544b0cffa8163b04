//! The `dinefd` command-line tool.
//!
//! ```text
//! dinefd analyze [FLAGS]      static analysis: lints + inductive checking
//! dinefd fuzz [FLAGS]         coverage-guided schedule fuzzing
//! dinefd extract [FLAGS]      one ◇P-extraction run over n processes
//! dinefd live [FLAGS]         live loopback-TCP runtime: differential + soak
//! ```
//!
//! `dinefd analyze` runs the `dinefd-analyze` pipeline on one model
//! configuration: the five IR lint passes, then symbolic k-induction (SAT
//! over the bit-blasted IR) on the five lemmas and the closure check,
//! classifying any counterexamples-to-induction against the concrete
//! explorer. One engine serves every wire cap. `--emit-tla` additionally
//! writes the configuration's transition system as a TLA+ module.
//!
//! Exit status: `0` when every checked obligation holds and every lint is
//! clean, `2` when any lemma fails or any lint is red, `64` for bad usage
//! (unknown flag, out-of-range value). So the faithful configuration
//! doubles as a CI gate, and a mutated configuration's exit 2 is the
//! expected demonstration.
//!
//! Flags (all optional):
//!
//! ```text
//! --wire-cap N              wire-counter saturation cap, 2..=8 (default 2)
//! --max-k N                 induction depth, 1..=8 (default 1)
//! --emit-tla FILE           write the TLA+ module for this configuration
//! --strict                  sequence-checked acks (hardened subject)
//! --no-crash                forbid the subject crash transition
//! --subject-mutation NAME   skip-ping-disable | ignore-trigger-guard |
//!                           skip-trigger-update
//! --model-mutation NAME     drop-ping-send | stale-ack-replay
//! --no-classify             skip concrete CTI classification (faster)
//! --skip-lints              induction only
//! --skip-induction          lints only
//! --help, -h                print usage on stdout and exit 0
//! ```
//!
//! `dinefd fuzz` runs the `dinefd-fuzz` coverage-guided schedule fuzzer
//! against one model configuration — from a scenario-DSL file, from
//! flags, or both (flags override the file). Findings are printed with
//! their ddmin-minimized replayable prefixes, and the `fuzz.*` metric
//! block is emitted for perf tooling; elapsed time and executions per
//! second go to stderr, so stdout is a function of the flags alone. Exit
//! status is `0` for a clean run, `2` when any lemma violation was found,
//! `64` for bad usage (including scenario parse errors, which carry their
//! line number).
//!
//! ```text
//! --scenario FILE           load a scenario-DSL document
//! --seed N                  fuzzer seed             (default 1)
//! --iterations N            mutation iterations     (default 2000)
//! --max-steps N             schedule length cap     (default 40)
//! --corpus-seeds N          initial random corpus   (default 16)
//! --time-budget-secs N      wall-clock cap; truncation only, never
//!                           extension (omit for fully deterministic runs)
//! --strict | --no-crash | --subject-mutation | --model-mutation
//!                           as for `analyze`
//! ```
//!
//! `dinefd extract` runs one simulator-backed ◇P-extraction over the full
//! ordered-pair matrix of `n` processes (the E8 harness's hot path, exposed
//! directly). It prints a one-line run summary followed by the
//! deterministic metric block, and exits `0` on success — the run itself
//! asserts internal invariants (routing, horizon saturation, cross-shard
//! merge order) and aborts loudly if any fail. `--shards K` splits the
//! simulator into K shards, which never changes the run for a fixed seed
//! and matters only with `--threads` (on one thread the simulator holds
//! one shard; the summary line's `shards=K` echoes the count asked for,
//! not the count held); `--threads T` runs the shards on the simulator's worker
//! pool behind its
//! deterministic barrier merge — *everything printed to stdout is
//! byte-identical for every shard and thread count* (per-worker
//! busy/barrier-wait wall-clock, which is inherently nondeterministic, goes
//! to stderr), so `diff <(dinefd extract --shards 4 --threads 4) <(dinefd
//! extract)` is a direct determinism check.
//!
//! ```text
//! --n N                     system size             (default 8, min 2)
//! --seed N                  run seed                (default 42)
//! --horizon N               ticks to simulate       (default 5000)
//! --shards K                simulator shards for --threads, 1..=256
//!                           (default 1; one thread runs one shard)
//! --threads T               worker threads for sharded runs (default 1;
//!                           needs --shards >= 2 to engage)
//! --crash PID@TICK          crash PID at TICK (repeatable)
//! --streaming               extract through the streaming sink
//! --batch                   one delay draw per destination of a step
//! --strict                  sequence-checked acks (hardened subject)
//! ```
//!
//! `dinefd live` runs the identical heartbeat-◇P logic core on the live
//! loopback-TCP runtime (`dinefd-live`: one event loop per process over
//! one connection per pair of processes): first the sim-vs-live
//! differential matrix (crash × delay × GST; every cell must reach the
//! same timing-free verdict on both substrates), then the sustained-load
//! soak, which measures msgs/sec and the p99 crash-detection latency and
//! gates on zero false suspicions surviving past GST and zero missed
//! detections. Exit status is `0` when every matrix cell converges and the
//! soak gate holds, `2` otherwise. With `--bench-out FILE` the soak
//! numbers are written as a `dinefd-bench/v1` document whose measured
//! values live in the `nondet`/`wall` sections — wall-clock figures,
//! excluded from determinism diffs by construction — and whose `metrics`
//! section carries the gates and the transport's topology
//! (`soak.listeners` and `soak.worker_threads`, both n).
//!
//! ```text
//! --n N                     system size per trial   (default 4, min 2)
//! --trials N                soak trials             (default 6, min 1)
//! --seed N                  base seed               (default 0x50AB)
//! --period-ms N             heartbeat period in ms  (default 8)
//! --crash-at-ms N           crash instant per trial (default 150)
//! --horizon-ms N            trial length in ms      (default 500)
//! --skip-matrix             soak only, no differential matrix
//! --bench-out FILE          write BENCH_live.json-style report to FILE
//! ```

use dinefd_analyze::induct::InductOptions;
use dinefd_analyze::ir::{IrConfig, MAX_WIRE_CAP, MIN_WIRE_CAP};
use dinefd_analyze::kinduct::{render_kinduct_summary, run_kinduction, KinductOptions};
use dinefd_analyze::lints::{render_lints, run_lints};
use dinefd_explore::{ExploreConfig, ModelMutation, SubjectMutation};
use dinefd_fuzz::scenario_dsl::Scenario;
use dinefd_fuzz::Fuzzer;
use std::fmt::Display;
use std::io::Write as _;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// The full usage text, shared by `--help` (stdout, exit 0) and usage
/// errors (stderr, exit 64) so the two can never drift apart.
const USAGE: &str = "usage: dinefd analyze [--wire-cap N] [--max-k N] [--emit-tla FILE] \
     [--strict] [--no-crash] [--subject-mutation NAME] [--model-mutation NAME] \
     [--no-classify] [--skip-lints] [--skip-induction]\n\
     \x20      dinefd fuzz [--scenario FILE] [--seed N] [--iterations N] \
     [--max-steps N] [--corpus-seeds N] [--time-budget-secs N] \
     [--strict] [--no-crash] [--subject-mutation NAME] [--model-mutation NAME]\n\
     \x20      dinefd extract [--n N] [--seed N] [--horizon N] [--shards K] \
     [--threads T] [--crash PID@TICK] [--streaming] [--batch] [--strict]\n\
     \x20      dinefd live [--n N] [--trials N] [--seed N] [--period-ms N] \
     [--crash-at-ms N] [--horizon-ms N] [--skip-matrix] [--bench-out FILE]";

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(64)
}

/// Every subcommand's stdout: one locked handle on which a closed pipe
/// (`dinefd extract … | head -1`) is a quiet, successful end of output
/// rather than `println!`'s panic. Once the reader is gone the remaining
/// output is dropped; any other write error still aborts loudly.
struct Out {
    pipe: Option<std::io::StdoutLock<'static>>,
}

impl Out {
    fn write(&mut self, text: std::fmt::Arguments<'_>) {
        let Some(pipe) = &mut self.pipe else { return };
        match pipe.write_fmt(text) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => self.pipe = None,
            Err(e) => panic!("failed printing to stdout: {e}"),
        }
    }
}

/// `println!` onto an [`Out`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let out = &mut Out { pipe: Some(std::io::stdout().lock()) };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        outln!(out, "{USAGE}");
        return ExitCode::SUCCESS;
    }
    let run = match args.first().map(String::as_str) {
        Some("analyze") => analyze,
        Some("fuzz") => fuzz,
        Some("extract") => extract,
        Some("live") => live,
        Some(other) => return usage(&format!("unknown subcommand `{other}`")),
        None => return usage("missing subcommand"),
    };
    // A subcommand returns its exit status, or the usage error to report.
    run(Flags { rest: args[1..].iter() }, out).unwrap_or_else(|e| usage(&e))
}

/// Every `u64`, for integer flags without a range.
const ANY: RangeInclusive<u64> = 0..=u64::MAX;

/// The cursor every subcommand reads its arguments through, so that a
/// missing value, a non-integer and an out-of-range integer are each
/// worded once.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The value of flag `name`; `what` names it in the error for its absence.
    fn value(&mut self, name: &str, what: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{name} needs {what}"))
    }

    fn int_in(&mut self, name: &str, range: RangeInclusive<u64>) -> Result<u64, String> {
        let v = self.value(name, "a value")?;
        let n = v.parse::<u64>().map_err(|_| format!("{name}: `{v}` is not an integer"))?;
        let (lo, hi) = (*range.start(), *range.end());
        match n {
            n if range.contains(&n) => Ok(n),
            _ if hi == u64::MAX => Err(format!("{name} must be at least {lo}")),
            n => Err(format!("{name} {n} out of range [{lo}, {hi}]")),
        }
    }

    /// `analyze`'s integer flags: every bad value, a non-integer too, is
    /// reported as out of range, quoted.
    fn quoted_in<T: FromStr + PartialOrd + Display>(
        &mut self,
        name: &str,
        range: RangeInclusive<T>,
    ) -> Result<T, String> {
        let v = self.value(name, "a value")?;
        let n = v.parse().ok().filter(|n| range.contains(n));
        n.ok_or_else(|| format!("{name} `{v}` out of range [{}, {}]", range.start(), range.end()))
    }

    /// The value of flag `name` (`what`, in the error for its absence) as
    /// the entry of `table` spelled that way; `noun` names the kind of
    /// thing in the error for a spelling the table does not have.
    fn one_of<T: Copy>(
        &mut self,
        name: &str,
        what: &str,
        noun: &str,
        table: &[(&'static str, T)],
    ) -> Result<(&'static str, T), String> {
        let v = self.value(name, what)?;
        let found = table.iter().copied().find(|(spelled, _)| *spelled == v);
        found.ok_or_else(|| format!("unknown {noun} `{v}`"))
    }
}

/// The model flags `analyze` and `fuzz` share, written into the explorer's
/// config. The mutation spellings are the enums' own, as in the scenario
/// DSL; `none` (each table's first entry) is the absence of the flag, not a
/// value of it. `Ok(false)`: not one of them.
fn model_flag(
    flag: &str,
    flags: &mut Flags<'_>,
    model: &mut ExploreConfig,
) -> Result<bool, String> {
    match flag {
        "--strict" => model.strict_seq = true,
        "--no-crash" => model.allow_crash = false,
        "--subject-mutation" => {
            let table = &SubjectMutation::SPELLINGS[1..];
            model.subject_mutation = flags.one_of(flag, "a value", "subject mutation", table)?.1;
        }
        "--model-mutation" => {
            let table = &ModelMutation::SPELLINGS[1..];
            model.model_mutation = flags.one_of(flag, "a value", "model mutation", table)?.1;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn fuzz(mut flags: Flags<'_>, out: &mut Out) -> Result<ExitCode, String> {
    let mut doc = Scenario::default();
    let mut time_budget: Option<u64> = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--scenario" => {
                let path = flags.value(flag, "a file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                doc = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            }
            "--seed" => doc.fuzz.seed = flags.int_in(flag, ANY)?,
            "--iterations" => doc.fuzz.iterations = flags.int_in(flag, 1..=u64::MAX)?,
            "--max-steps" => doc.fuzz.max_steps = flags.int_in(flag, 1..=100_000)? as u32,
            "--corpus-seeds" => match flags.int_in(flag, ANY)? {
                v @ 0..=1_000_000 => doc.fuzz.corpus_seeds = v as u32,
                v => return Err(format!("--corpus-seeds {v} out of range")),
            },
            "--time-budget-secs" => time_budget = Some(flags.int_in(flag, ANY)?),
            _ if model_flag(flag, &mut flags, &mut doc.fuzz.explore)? => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    let mut fuzzer = Fuzzer::new(doc.fuzz);
    if let Some(secs) = time_budget {
        fuzzer = fuzzer.with_time_budget(Duration::from_secs(secs));
    }
    let started = std::time::Instant::now();
    let report = fuzzer.run();
    let elapsed = started.elapsed().as_secs_f64();

    outln!(
        out,
        "fuzz: {} executions, {} iterations, {} states covered, {} corpus entries{}",
        report.executions,
        report.iterations_run,
        report.coverage_states,
        report.corpus_entries,
        if report.timed_out { " (time budget expired)" } else { "" },
    );
    // Speed is the host's, not the seed's: stdout stays rerun-identical.
    eprintln!(
        "fuzz: {elapsed:.3} s elapsed, {:.0} executions/s",
        report.executions as f64 / elapsed.max(f64::EPSILON),
    );
    for f in &report.findings {
        outln!(out, "FINDING [{}] at iteration {}: {}", f.lemma, f.iteration, f.message);
        outln!(
            out,
            "  minimized prefix ({} of {} steps): {}",
            f.minimized.len(),
            f.path.len(),
            dinefd_explore::fmt_path(&f.minimized, None),
        );
    }
    for (k, v) in report.metrics() {
        outln!(out, "{k} = {v}");
    }
    if report.findings.is_empty() {
        outln!(out, "fuzz: no lemma violations found");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}

fn extract(mut flags: Flags<'_>, out: &mut Out) -> Result<ExitCode, String> {
    use dinefd_core::{run_extraction, BlackBox, MAX_N};
    use dinefd_sim::{ProcessId, Time};

    // No pair list: the run monitors every ordered pair of the final `--n`.
    let defaults = dinefd_core::Scenario::pair(BlackBox::WfDx, 42);
    let mut sc =
        dinefd_core::Scenario { n: 8, pairs: Vec::new(), horizon: Time(5_000), ..defaults };
    while let Some(flag) = flags.next() {
        match flag {
            "--n" => sc.n = flags.int_in(flag, 2..=MAX_N as u64)? as usize,
            "--seed" => sc.seed = flags.int_in(flag, ANY)?,
            "--horizon" => sc.horizon = Time(flags.int_in(flag, 1..=u64::MAX)?),
            "--shards" => sc.shards = flags.int_in(flag, 1..=256)? as usize,
            "--threads" => sc.threads = flags.int_in(flag, 1..=64)? as usize,
            "--crash" => {
                let spec = flags.value(flag, "PID@TICK")?;
                let parsed = spec.split_once('@').and_then(|(pid, at)| {
                    Some((ProcessId(pid.parse().ok()?), Time(at.parse().ok()?)))
                });
                let (pid, at) =
                    parsed.ok_or_else(|| format!("--crash `{spec}`: expected PID@TICK"))?;
                sc.crashes.add(pid, at);
            }
            "--streaming" => sc.streaming = true,
            "--batch" => sc.batch_envelopes = true,
            "--strict" => sc.strict_seq = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let (n, horizon, shards, streaming) = (sc.n, sc.horizon.0, sc.shards, sc.streaming);
    if sc.crashes.crashes().iter().any(|&(p, _)| p.index() >= n) {
        return Err("--crash PID must be below --n".into());
    }
    if sc.threads > 1 && shards < 2 {
        return Err("--threads needs --shards >= 2 (one shard runs on one thread)".into());
    }
    let res = run_extraction(sc);

    outln!(
        out,
        "extract: n={n} pairs={} horizon={horizon} shards={shards} \
         streaming={streaming}",
        n * (n - 1),
    );
    outln!(
        out,
        "extract: {} steps, {} messages, {} history changes, {} node-resident bytes",
        res.steps,
        res.messages_sent,
        res.history_changes,
        res.node_resident_bytes,
    );
    for (k, v) in &res.metrics {
        outln!(out, "{k} = {v}");
    }
    // Wall-clock per-worker accounting is nondeterministic by nature, so it
    // goes to stderr: stdout stays byte-identical across thread counts.
    for (w, stats) in res.worker_stats.iter().enumerate() {
        eprintln!(
            "worker {w}: {} instants, busy {}us, barrier-wait {}us",
            stats.instants.get(),
            stats.busy_micros.sum(),
            stats.barrier_wait_micros.sum(),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `BENCH_live.json` document: same shape as `dinefd-bench/v1` so tooling
/// can ingest it, but everything measured is wall-clock — the soak numbers
/// live in `nondet`/`wall` and are never baseline-diffed. Only structural
/// facts (sizes, listener and thread counts, and the gates that must
/// always hold) go in `metrics`.
#[derive(Debug, serde::Serialize)]
struct LiveBenchDoc {
    schema: String,
    profile: String,
    metrics: dinefd_sim::MetricMap,
    wall: std::collections::BTreeMap<String, String>,
    nondet: dinefd_sim::MetricMap,
}

fn live(mut flags: Flags<'_>, out: &mut Out) -> Result<ExitCode, String> {
    use dinefd_live::{run_differential, run_soak, DiffScenario, SoakConfig};
    use dinefd_sim::ProcessId;

    let mut cfg = SoakConfig::quick();
    let mut matrix = true;
    let mut bench_out: Option<&str> = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--n" => cfg.n = flags.int_in(flag, 2..=16)? as usize,
            "--trials" => cfg.trials = flags.int_in(flag, 1..=100)? as usize,
            "--seed" => cfg.seed = flags.int_in(flag, ANY)?,
            "--period-ms" => cfg.period_ms = flags.int_in(flag, 1..=1_000)?,
            "--crash-at-ms" => cfg.crash_at_ms = flags.int_in(flag, ANY)?,
            "--horizon-ms" => cfg.horizon_ms = flags.int_in(flag, 1..=u64::MAX)?,
            "--skip-matrix" => matrix = false,
            "--bench-out" => bench_out = Some(flags.value(flag, "a file path")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.crash_at_ms >= cfg.horizon_ms {
        return Err("--crash-at-ms must be below --horizon-ms".into());
    }

    let mut clean = true;
    let mut cells = 0u64;
    if matrix {
        // Crash × delay × GST: the same cells the differential test suite
        // asserts, driven here so a live box failure is reproducible from
        // the command line.
        let delay_cells: [(u64, u64, bool); 3] = [(0, 0, false), (150, 40, false), (150, 40, true)];
        for (i, &(gst, delay, ramping)) in delay_cells.iter().enumerate() {
            for crash in [None, Some((ProcessId::from_index(cfg.n - 1), 250))] {
                let scenario = DiffScenario {
                    crash,
                    gst,
                    delay,
                    ramping,
                    seed: cfg.seed.wrapping_add(i as u64),
                    horizon: 700,
                    ..DiffScenario::new(cfg.n, 0)
                };
                let report = run_differential(&scenario);
                cells += 1;
                let ok = report.converged() && report.sim.verdict.eventually_perfect;
                outln!(
                    out,
                    "live: matrix cell gst={gst} delay={delay} ramping={ramping} crash={} -> {}",
                    crash.map_or("none".to_string(), |(p, at)| format!("{p}@{at}ms")),
                    if ok { "converged" } else { "DIVERGED" },
                );
                if !ok {
                    eprintln!("  sim:  {:?}", report.sim.verdict);
                    eprintln!("  live: {:?}", report.live.verdict);
                    clean = false;
                }
            }
        }
    }

    let report = run_soak(&cfg);
    outln!(
        out,
        "live: soak {} trials of n={} ({}ms each, crash at {}ms): \
         {:.0} msgs/sec, p99 detection {}ms (max {}ms over {} samples)",
        report.trials,
        cfg.n,
        cfg.horizon_ms,
        cfg.crash_at_ms,
        report.msgs_per_sec,
        report.p99_detection_ms,
        report.max_detection_ms,
        report.detection_samples,
    );
    outln!(
        out,
        "live: gate {}: {} surviving false suspicions, {} missed detections, \
         {} transient mistakes (allowed)",
        if report.gate_ok() { "OK" } else { "FAILED" },
        report.surviving_false_suspicions,
        report.missed_detections,
        report.transient_mistakes,
    );
    clean &= report.gate_ok();

    if let Some(path) = bench_out {
        let mut doc = LiveBenchDoc {
            schema: "dinefd-bench/v1".to_string(),
            profile: "live".to_string(),
            metrics: dinefd_sim::MetricMap::new(),
            wall: std::collections::BTreeMap::new(),
            nondet: dinefd_sim::MetricMap::new(),
        };
        doc.metrics.insert("soak.n".into(), cfg.n as u64);
        doc.metrics.insert("soak.trials".into(), report.trials as u64);
        doc.metrics.insert("soak.listeners".into(), report.listeners as u64);
        doc.metrics.insert("soak.worker_threads".into(), report.worker_threads as u64);
        doc.metrics.insert("soak.gate_ok".into(), report.gate_ok() as u64);
        doc.metrics.insert(
            "soak.surviving_false_suspicions".into(),
            report.surviving_false_suspicions as u64,
        );
        doc.metrics.insert("soak.missed_detections".into(), report.missed_detections as u64);
        doc.metrics.insert("matrix.cells".into(), cells);
        doc.metrics.insert("matrix.converged".into(), clean as u64);
        doc.nondet.insert("soak.p99_detection_ms".into(), report.p99_detection_ms);
        doc.nondet.insert("soak.max_detection_ms".into(), report.max_detection_ms);
        doc.nondet.insert("soak.detection_samples".into(), report.detection_samples as u64);
        doc.nondet.insert("soak.transient_mistakes".into(), report.transient_mistakes as u64);
        doc.nondet.insert("soak.frames_delivered".into(), report.frames_delivered);
        doc.nondet.insert("soak.wall_ms".into(), report.wall_ms);
        doc.wall.insert("soak.msgs_per_sec".into(), format!("{:.6}", report.msgs_per_sec));
        doc.wall.insert("soak.secs".into(), format!("{:.6}", report.wall_ms as f64 / 1_000.0));
        let mut json = match serde_json::to_string_pretty(&doc) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot serialize bench report: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        outln!(out, "live: wrote {path}");
    }

    Ok(ExitCode::from(if clean { 0 } else { 2 }))
}

fn analyze(mut flags: Flags<'_>, out: &mut Out) -> Result<ExitCode, String> {
    let mut model = ExploreConfig::default();
    let mut cfg = IrConfig::faithful();
    let mut classify = true;
    let mut do_lints = true;
    let mut do_induction = true;
    let mut max_k: u32 = 1;
    let mut emit_tla: Option<&str> = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--no-classify" => classify = false,
            "--skip-lints" => do_lints = false,
            "--skip-induction" => do_induction = false,
            "--wire-cap" => cfg.wire_cap = flags.quoted_in(flag, MIN_WIRE_CAP..=MAX_WIRE_CAP)?,
            "--max-k" => max_k = flags.quoted_in(flag, 1..=8)?,
            "--emit-tla" => emit_tla = Some(flags.value(flag, "a file path")?),
            _ if model_flag(flag, &mut flags, &mut model)? => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    (cfg.strict_seq, cfg.allow_crash) = (model.strict_seq, model.allow_crash);
    (cfg.subject_mutation, cfg.model_mutation) = (model.subject_mutation, model.model_mutation);

    if let Some(path) = emit_tla {
        let module = dinefd_analyze::tla::render_tla(&cfg);
        if let Err(e) = std::fs::write(path, module) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        outln!(out, "analyze: wrote TLA+ module to {path}");
    }

    let mut clean = true;
    if do_lints {
        let report = run_lints(&cfg);
        out.write(format_args!("{}", render_lints(&report)));
        clean &= report.clean();
    }
    if do_induction {
        let replay =
            InductOptions { classify: if classify { 2 } else { 0 }, ..InductOptions::default() };
        let opts = KinductOptions { max_k, classify: replay, ..KinductOptions::default() };
        let run = run_kinduction(&cfg, &opts);
        out.write(format_args!("{}", render_kinduct_summary(&run)));
        clean &= run.all_proved();
    }
    Ok(ExitCode::from(if clean { 0 } else { 2 }))
}
