//! Command line of the benchmark. See `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use dinefd_benchmark::host::{self, Fingerprint};
use dinefd_benchmark::measure::{self, RunConfig};
use dinefd_benchmark::results::{ResultsFile, WorkloadResult, SCHEMA};
use dinefd_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dinefd_benchmark::stats::{median, Summary};
use dinefd_benchmark::workloads::Size;

const USAGE: &str = "\
usage: dinefd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--agree] [--smoke] [--out DIR]

  (no --workload)   run every workload, each in a fresh child process, print
                    every metric by name and write DIR/results.json
  --workload NAME   run one workload in this process; the last line printed is
                    {\"correct\":..,\"attempted\":..,\"failed\":..,\"metrics\":{..}}
  --seed N          seed of the generated inputs (default 42)
  --seconds S       measuring time per workload (default: run_seconds of
                    BENCHMARK.json)
  --trace 1         the separate traced run: per-layer metrics and
                    DIR/trace-<workload>.json instead of end-to-end metrics
                    (--trace 0, the default, is the plain run)
  --agree           run the full set twice back to back, three runs per set,
                    and compare the medians of every end-to-end metric with
                    its bound
  --smoke           tiny inputs, for tests; results are labelled non-comparable
  --out DIR         where files go (default benchmark/out)
exit status: 0 all checks passed, 1 a check failed or a bound was breached,
             2 usage";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    agree: bool,
    size: Size,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        agree: false,
        size: Size::Full,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}` (known: {})", known.join(", ")));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--agree" => args.agree = true,
            "--smoke" => args.size = Size::Smoke,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.agree && (args.workload.is_some() || args.traced) {
        return Err("--agree runs the whole plain set; it takes no --workload or --trace 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(&args, name, process_start),
        None => {
            // The host's load is judged once, before the first child: later
            // children would only see the load their predecessors made.
            let host = Fingerprint::read();
            let warning = host::load_warning(host.load1, host::nproc());
            if let Some(w) = &warning {
                eprintln!("{w}");
            }
            if args.agree {
                agree(&args, &host, &warning)
            } else {
                run_set(&args, &host, &warning).map(|file| file_correct(&file))
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("run-{workload}{}.json", if traced { "-traced" } else { "" }))
}

fn file_correct(file: &ResultsFile) -> bool {
    file.end_to_end.iter().chain(&file.per_layer).all(|r| r.correct)
}

/// `--workload`: measure in this process; the contract line goes last.
fn run_one(args: &Args, name: &str, process_start: Instant) -> Result<bool, String> {
    let load1 = host::load1();
    let cfg = RunConfig {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        size: args.size,
        traced: args.traced,
    };
    let (result, trace) = measure::run(&cfg, process_start)?;
    if let Some(trace) = &trace {
        write_json(&args.out.join(format!("trace-{name}.json")), trace)?;
    }
    print_result(&result);
    let (contract_line, correct) = (result.contract_line(), result.correct);
    // Read after measuring (it spawns `git` and `rustc`, which set-up must
    // not pay for), with the load as it was before.
    let host = Fingerprint { load1, ..Fingerprint::read() };
    let (end_to_end, per_layer) =
        if args.traced { (vec![], vec![result]) } else { (vec![result], vec![]) };
    let file =
        ResultsFile { schema: SCHEMA.to_string(), host, warnings: vec![], end_to_end, per_layer };
    write_json(&run_file(&args.out, name, args.traced), &file)?;
    println!("{contract_line}");
    Ok(correct)
}

/// Runs workload `name` in a fresh child process (so peak memory and
/// allocator state do not leak between workloads) and reads its result.
///
/// The result is taken from the file the child writes, so nothing may pass
/// for it that this child did not write: an older file is removed first, a
/// child that ends any other way than "all checks passed" (0) or "a check
/// failed" (1) is an error, and so is a file that answers another request
/// or disagrees with the exit status.
fn run_child(args: &Args, name: &str) -> Result<WorkloadResult, String> {
    let path = run_file(&args.out, name, args.traced);
    match std::fs::remove_file(&path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("removing the previous {}: {e}", path.display()));
        }
        _ => {}
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child.
    let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
    let passed = match status.code() {
        Some(0) => true,
        Some(1) => false,
        _ => return Err(format!("{name}: the child ended with {status} and no result")),
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name} exited with {status} and left no {}: {e}", path.display()))?;
    let file: ResultsFile =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut results = if args.traced { file.per_layer } else { file.end_to_end };
    let result = match results.pop() {
        Some(r) if results.is_empty() => r,
        _ => return Err(format!("{}: expected exactly one result", path.display())),
    };
    let asked = (name, args.seed, args.traced, args.size.as_str());
    let got = (result.workload.as_str(), result.seed, result.traced, result.size.as_str());
    if asked != got {
        return Err(format!("{}: asked for {asked:?}, the file holds {got:?}", path.display()));
    }
    if result.correct != passed {
        return Err(format!(
            "{name}: the child ended with {status} but its result says correct = {}",
            result.correct
        ));
    }
    Ok(result)
}

/// The full set: every workload's plain run, or traced run with `--trace 1`.
fn run_set(
    args: &Args,
    host: &Fingerprint,
    warning: &Option<String>,
) -> Result<ResultsFile, String> {
    let mut results = Vec::new();
    for w in &WORKLOADS {
        println!(
            "== {} ({}, op = {}) ==",
            w.name,
            if args.traced { "traced" } else { "plain" },
            w.op
        );
        results.push(run_child(args, w.name)?);
    }
    let failed = results.iter().filter(|r| !r.correct).count();
    let (end_to_end, per_layer) = if args.traced { (vec![], results) } else { (results, vec![]) };
    let file = ResultsFile {
        schema: SCHEMA.to_string(),
        host: host.clone(),
        warnings: warning.iter().cloned().collect(),
        end_to_end,
        per_layer,
    };
    let name = if args.traced { "results-traced.json" } else { "results.json" };
    write_json(&args.out.join(name), &file)?;
    println!(
        "wrote {} ({} workload runs, {failed} with failed checks)",
        args.out.join(name).display(),
        WORKLOADS.len()
    );
    Ok(file)
}

fn fmt_summary(s: &Summary) -> String {
    format!("median {:.6} [q1 {:.6}, q3 {:.6}] min {:.6} n={}", s.median, s.q1, s.q3, s.min, s.n)
}

/// Prints every metric of one run by name, with unit and (end-to-end) bound.
fn print_result(r: &WorkloadResult) {
    let seed = if r.seed_used {
        format!("seed {}", r.seed)
    } else {
        format!("seed {} ignored: exhaustive", r.seed)
    };
    println!(
        "{} [{}; {seed}; {} set-up passes, {} repetitions, {} ops; size {}{}]",
        r.workload,
        if r.traced { "traced" } else { "plain" },
        r.setup_passes,
        r.repetitions,
        r.attempted,
        r.size,
        if r.size == "smoke" { " — NOT comparable" } else { "" },
    );
    for m in &END_TO_END {
        if let Some(v) = r.metrics.get(m.name) {
            println!(
                "  {:<20} {:>16.6} {:<6} ({} is better, bound {:.0}%)",
                m.name,
                v.value,
                v.unit,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    for m in PER_LAYER.iter().filter(|m| m.workloads.contains(&r.workload.as_str())) {
        if let Some(v) = r.metrics.get(m.name) {
            println!("  {:<42} {:>18.4} {:<6} -> {}", m.name, v.value, v.unit, m.moves);
        }
    }
    println!(
        "  ops_failed_share     {:>16.6} ratio  ({} failed / {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for (name, s) in &r.timings {
        println!("  timing {name}: {}", fmt_summary(s));
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
}

/// Runs of the whole set behind each side of an `--agree` comparison; the
/// medians over them are what is compared. One run a side is not enough: a
/// single `setup_s` of a quarter-second workload moves by its whole bound.
const AGREE_RUNS: usize = 3;

/// `--agree`: two complete sets back to back, every end-to-end metric of
/// every workload compared with its own bound.
fn agree(args: &Args, host: &Fingerprint, warning: &Option<String>) -> Result<bool, String> {
    let mut sets: Vec<Vec<ResultsFile>> = Vec::new();
    for set in 1..=2 {
        let mut runs = Vec::new();
        for run in 1..=AGREE_RUNS {
            println!("#### set {set}, run {run} of {AGREE_RUNS} ####");
            runs.push(run_set(args, host, warning)?);
        }
        sets.push(runs);
    }
    let value_of = |runs: &[ResultsFile], workload: &str, metric: &str| -> Option<f64> {
        let values: Vec<f64> = runs
            .iter()
            .flat_map(|f| &f.end_to_end)
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
            .collect();
        median(&values)
    };
    let mut ok = sets.iter().flatten().all(file_correct);
    println!(
        "\n{:<18} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(a), Some(b)) =
                (value_of(&sets[0], w.name, m.name), value_of(&sets[1], w.name, m.name))
            else {
                return Err(format!("{}: {} was not reported", w.name, m.name));
            };
            let worse = m.better.worsening(a, b);
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "{:<18} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                a,
                b,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "BREACH" }
            );
        }
    }
    // Deterministic counters must be byte-identical between the sets.
    for w in &WORKLOADS {
        let counters = |runs: &[ResultsFile]| -> Vec<_> {
            runs.iter()
                .flat_map(|f| &f.end_to_end)
                .filter(|r| r.workload == w.name)
                .map(|r| r.counters.clone())
                .collect()
        };
        let all: Vec<_> = counters(&sets[0]).into_iter().chain(counters(&sets[1])).collect();
        let same = all.windows(2).all(|p| p[0] == p[1]);
        ok &= same;
        println!(
            "{:<18} deterministic counters ({}) {}",
            w.name,
            all[0].len(),
            if same { "identical" } else { "DIFFER" }
        );
    }
    println!(
        "{}",
        if ok { "agreement: every metric within its bound" } else { "agreement: FAILED" }
    );
    Ok(ok)
}
