//! Regenerates every experiment table in `EXPERIMENTS.md`.
//!
//! Usage: `tables [--quick] [--json] [--bench-json] [e1 e2 …]` — no ids =
//! run everything; `--json` emits one JSON document with every report
//! instead of markdown; `--bench-json` additionally writes the
//! deterministic golden `BENCH_experiments.json` to the current directory,
//! folded from the reports of this run (schema in `EXPERIMENTS.md`). An
//! unknown flag or experiment id is a usage error (exit 2) before anything
//! runs.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dinefd_bench::experiments::{by_id, ALL};
use dinefd_bench::{perfdump, timed, ExperimentConfig};

const USAGE: &str = "usage: tables [--quick] [--json] [--bench-json] [e1 … e13]";

fn main() -> ExitCode {
    let (mut quick, mut json, mut bench_json) = (false, false, false);
    let mut runs = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--bench-json" => bench_json = true,
            id => match by_id(id) {
                Some(run) => runs.push((id.to_string(), run)),
                None => {
                    let what = if id.starts_with('-') { "flag" } else { "experiment id" };
                    eprintln!("tables: unknown {what} `{id}`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if runs.is_empty() {
        runs = ALL.iter().filter_map(|&id| Some((id.to_string(), by_id(id)?))).collect();
    }
    let cfg = if quick { ExperimentConfig::quick() } else { ExperimentConfig::full() };
    if !json {
        println!(
            "# dinefd experiment tables ({} profile, {} seeds/config)\n",
            if quick { "quick" } else { "full" },
            cfg.seeds
        );
    }
    let mut reports = Vec::new();
    for (id, run) in runs {
        let (report, secs) = timed(|| run(&cfg));
        if !json {
            println!("{report}");
        }
        eprintln!("[{id} done in {secs:.1}s]");
        reports.push((id, report));
    }
    if json {
        let doc: BTreeMap<&str, _> = reports.iter().map(|(id, r)| (id.as_str(), r)).collect();
        println!("{}", serde_json::to_string_pretty(&doc).expect("serializable"));
    }
    if bench_json {
        let doc = perfdump::experiments_bench(
            quick,
            reports.iter().map(|(id, r)| (id.as_str(), &r.metrics)),
        );
        if let Err(e) = std::fs::write(perfdump::BENCH_FILE, doc.to_json()) {
            eprintln!("failed to write {}: {e}", perfdump::BENCH_FILE);
            return ExitCode::FAILURE;
        }
        eprintln!("[wrote {}]", perfdump::BENCH_FILE);
    }
    ExitCode::SUCCESS
}
