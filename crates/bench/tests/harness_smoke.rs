//! End-to-end smoke test of the experiment harness: every experiment id in
//! `ALL` must run in the quick profile, produce at least one non-empty
//! table, and render to markdown; the golden folded from those very
//! reports has the committed shape.

use dinefd_bench::experiments::{by_id, ALL};
use dinefd_bench::perfdump::experiments_bench;
use dinefd_bench::table::Report;
use dinefd_bench::ExperimentConfig;
use serde::Value;

#[test]
fn every_experiment_runs_and_renders() {
    let cfg = ExperimentConfig { seeds: 2 };
    let mut reports: Vec<(&str, Report)> = Vec::new();
    for &id in ALL {
        let report = by_id(id).unwrap_or_else(|| panic!("unknown id {id}"))(&cfg);
        assert!(!report.tables.is_empty(), "{id}: no tables");
        for t in &report.tables {
            assert!(!t.is_empty(), "{id}: empty table '{}'", t.title);
            let rendered = t.to_string();
            assert!(rendered.starts_with("### "), "{id}: bad rendering");
        }
        let md = report.to_string();
        assert!(md.contains(&report.title), "{id}: report rendering lost its title");
        reports.push((id, report));
    }
    golden_has_the_committed_shape(&reports);
}

/// The golden holds exactly `schema`, `profile` and `metrics`, and E8's
/// part of it comes from the runs its tables printed.
fn golden_has_the_committed_shape(reports: &[(&str, Report)]) {
    let doc = experiments_bench(true, reports.iter().map(|(id, r)| (*id, &r.metrics)));
    let v: Value = serde_json::from_str(&doc.to_json()).expect("valid JSON");
    let Value::Object(fields) = &v else { panic!("golden is not an object: {v:?}") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "profile", "metrics"]);

    let e8 = &reports.iter().find(|(id, _)| *id == "e8").expect("e8 ran").1;
    let (frontier, parallel) = (&e8.tables[1], &e8.tables[2]);
    assert!(!frontier.rows.is_empty());
    for row in &frontier.rows {
        let key = format!("e8.n{}.sim.steps", row[0]);
        assert_eq!(doc.metrics.get(&key).map(u64::to_string).as_ref(), Some(&row[3]), "{key}");
    }
    let t1_rows: Vec<_> = parallel.rows.iter().filter(|r| r[1] == "1").collect();
    assert!(!t1_rows.is_empty(), "parallel table has no threads = 1 row");
    for row in t1_rows {
        let same_n = frontier.rows.iter().find(|f| f[0] == row[0]).expect("frontier row");
        // steps and ksteps/s: one run, so equal cells.
        assert_eq!((&row[2], &row[3]), (&same_n[3], &same_n[5]), "{row:?} vs {same_n:?}");
    }
}

#[test]
fn unknown_experiment_id_is_rejected() {
    assert!(by_id("e999").is_none());
    assert!(by_id("").is_none());
}

#[test]
fn reports_serialize_to_json() {
    let cfg = ExperimentConfig { seeds: 2 };
    let report = by_id("e3").unwrap()(&cfg);
    let json = serde_json::to_string(&report).expect("serializable");
    assert!(json.contains("\"title\""));
    assert!(json.contains("Fig. 1"));
}
