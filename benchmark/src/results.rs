//! The results documents: one [`WorkloadResult`] per workload run, gathered
//! into a [`ResultsFile`] with the host fingerprint.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::host::Fingerprint;
use crate::stats::Summary;

/// Schema tag of the results documents; bump when a key changes meaning.
pub const SCHEMA: &str = "dinefd-benchmark/v1";

/// One reported metric.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The number as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// What one operation is.
    pub op: String,
    /// `full`, or `smoke` — smoke sizes exist for the package's tests and
    /// their numbers are NOT comparable with anything.
    pub size: String,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Whether the workload's inputs depend on the seed (the exhaustive
    /// workloads ignore it).
    pub seed_used: bool,
    /// Whether this was the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub traced: bool,
    /// Requested measuring time.
    pub seconds: f64,
    /// Set-up passes made.
    pub setup_passes: u64,
    /// Timed repetitions made.
    pub repetitions: u64,
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Failed checks (each counts as one failed operation).
    pub failed: u64,
    /// `failed == 0` and every output check passed.
    pub correct: bool,
    /// What failed, if anything.
    pub failures: Vec<String>,
    /// The metrics of this run, by catalog name.
    pub metrics: BTreeMap<String, Metric>,
    /// Median, quartiles and sample count of every timing behind them.
    pub timings: BTreeMap<String, Summary>,
    /// Deterministic work counters of one repetition: byte-identical across
    /// repetitions, runs, thread counts, and between traced and plain runs.
    pub counters: BTreeMap<String, u64>,
}

impl WorkloadResult {
    /// The one-line result object the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), self.metrics.serialize()),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

/// A set of workload runs on one host.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultsFile {
    /// [`SCHEMA`].
    pub schema: String,
    /// Where and on what the numbers were measured.
    pub host: Fingerprint,
    /// Warnings raised while measuring (busy host, …).
    pub warnings: Vec<String>,
    /// The plain runs, one per workload.
    pub end_to_end: Vec<WorkloadResult>,
    /// The traced runs, one per workload (empty unless `--trace 1`).
    pub per_layer: Vec<WorkloadResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            workload: "extract_dense".into(),
            op: "simulator step".into(),
            size: "smoke".into(),
            seed: u64::MAX,
            seed_used: true,
            traced: false,
            seconds: 0.5,
            setup_passes: 3,
            repetitions: 7,
            attempted: 1_101_410,
            failed: 0,
            correct: true,
            failures: vec![],
            metrics: BTreeMap::from([(
                "throughput_ops_s".to_string(),
                Metric { value: 812_345.678_901_2, unit: "ops/s".into() },
            )]),
            timings: BTreeMap::from([(
                "rep_wall_s".to_string(),
                summarize(&[1.25, 1.5, 1.375]).unwrap(),
            )]),
            counters: BTreeMap::from([("steps".to_string(), 1_101_410)]),
        }
    }

    #[test]
    fn results_file_round_trips_through_vendored_serde_json() {
        let file = ResultsFile {
            schema: SCHEMA.into(),
            host: Fingerprint {
                git_commit: "c553d0f-dirty".into(),
                rustc: "rustc 1.0.0".into(),
                nproc: 2,
                cpu_model: "Some \"quoted\" CPU @ 2.10GHz".into(),
                kernel: "6.18.44".into(),
                load1: 0.07,
            },
            warnings: vec!["WARNING: busy".into()],
            end_to_end: vec![sample()],
            per_layer: vec![WorkloadResult { traced: true, ..sample() }],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultsFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
        let compact = serde_json::to_string(&file).unwrap();
        assert_eq!(serde_json::from_str::<ResultsFile>(&compact).unwrap(), file);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &v else { panic!("not an object: {line}") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.field("metrics").unwrap().field("throughput_ops_s").unwrap();
        assert_eq!(m.field("value").unwrap(), &Value::Float(812_345.678_901_2));
        assert_eq!(m.field("unit").unwrap(), &Value::Str("ops/s".into()));
    }
}
