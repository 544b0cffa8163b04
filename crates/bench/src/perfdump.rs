//! The machine-readable golden: `BENCH_experiments.json`.
//!
//! One document ([`BenchDoc`]) folded from the reports the experiment suite
//! has already produced: each experiment's seed-deterministic counters
//! under an `eN.` prefix. Nothing here runs a scenario, so every figure in
//! the document comes from the run that printed it in a table. The whole
//! document is deterministic: a rerun of the same profile on any machine
//! writes the same bytes, and CI diffs it key by key against the committed
//! copy. Wall-clock figures live only in the tables' timing cells and on
//! stderr.

use dinefd_sim::MetricMap;
use serde::Serialize;

/// Schema tag stamped into the document; bump when keys change meaning.
pub const BENCH_SCHEMA: &str = "dinefd-bench/v1";

/// File name of the golden, written to the current directory by
/// `tables --bench-json`.
pub const BENCH_FILE: &str = "BENCH_experiments.json";

/// The golden document: three keys, all of them deterministic.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDoc {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Which knob profile produced it (`quick` or `full`).
    pub profile: String,
    /// Seed-deterministic counters: byte-identical across reruns.
    pub metrics: MetricMap,
}

impl BenchDoc {
    /// Serializes to pretty JSON with a trailing newline. Key order is the
    /// `BTreeMap` sort order, so equal content means equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("BenchDoc serializes");
        s.push('\n');
        s
    }
}

/// Folds finished experiment reports' metrics into one document: each
/// experiment's counters under an `eN.` prefix, plus `eN.metric_keys`.
pub fn experiments_bench<'a>(
    quick: bool,
    entries: impl IntoIterator<Item = (&'a str, &'a MetricMap)>,
) -> BenchDoc {
    let mut metrics = MetricMap::new();
    for (id, counters) in entries {
        metrics.insert(format!("{id}.metric_keys"), counters.len() as u64);
        for (k, v) in counters {
            metrics.insert(format!("{id}.{k}"), *v);
        }
    }
    BenchDoc {
        schema: BENCH_SCHEMA.to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn experiments_bench_prefixes_sorts_and_round_trips() {
        let mut m = MetricMap::new();
        m.insert("runs".into(), 7);
        m.insert("a.first".into(), 2);
        let doc = experiments_bench(true, [("e1", &m)]);
        assert_eq!(doc.metrics["e1.runs"], 7);
        assert_eq!(doc.metrics["e1.metric_keys"], 2);
        let v: Value = serde_json::from_str(&doc.to_json()).expect("valid JSON");
        assert_eq!(v.field("schema").unwrap(), &Value::Str(BENCH_SCHEMA.into()));
        let Value::Object(fields) = v.field("metrics").unwrap() else {
            panic!("metrics must be an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["e1.a.first", "e1.metric_keys", "e1.runs"], "keys serialize sorted");
        // Round-trip through the vendored serde: the metric map must come
        // back exactly.
        let back: MetricMap = serde::Deserialize::deserialize(v.field("metrics").unwrap())
            .expect("metrics deserialize");
        assert_eq!(back, doc.metrics);
    }
}
