//! The paper's equivalence, end to end:
//!
//! 1. partial synchrony ⇒ a *real* heartbeat ◇P (no injected oracle);
//! 2. that ◇P ⇒ wait-free dining under ◇WX (the sufficiency direction);
//! 3. any such dining black box ⇒ ◇P again via the reduction (necessity).
//!
//! ```sh
//! cargo run --example full_stack
//! ```

use dinefd::dining::driver::{run_full_stack, Workload};
use dinefd::dining::wfdx::WfDxDining;
use dinefd::prelude::*;

fn main() {
    // ---- Stages 1+2: heartbeat ◇P feeding dining, under a GST network ----
    let graph = ConflictGraph::ring(4);
    let crashes = CrashPlan::one(ProcessId(2), Time(8_000));
    println!("stage 1+2: heartbeat ◇P (GST at t=3000) driving WF-◇WX dining on ring(4),");
    println!("           p2's battery dies at t=8000 …");
    let res = run_full_stack(
        &graph,
        |p, nbrs| Box::new(WfDxDining::new(p, nbrs)),
        31,
        Time(3_000),
        crashes.clone(),
        Time(80_000),
        Workload::relaxed(),
    );
    let fd_classes = res.fd.classify(&crashes);
    println!(
        "  heartbeat layer classified as: {}",
        fd_classes.iter().map(|c| c.symbol()).collect::<Vec<_>>().join(", ")
    );
    assert!(fd_classes.contains(&OracleClass::EventuallyPerfect));
    assert!(res.dining.wait_freedom(&crashes, 15_000).is_ok());
    let conv = res.dining.wx_converged_from(&graph, &crashes);
    println!("  dining layer: wait-free ✓, exclusion violations end by t={conv}");

    // ---- Stage 3: the reduction extracts ◇P back out of such a box ----
    println!("\nstage 3: the necessity reduction over the same dining algorithm as a");
    println!("         black box (its internal oracle now scripted), p1 crashes at t=8000 …");
    let mut sc = Scenario::pair(BlackBox::WfDx, 31);
    sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
    let plan = sc.crashes.clone();
    let ext = run_extraction(sc);
    let classes = ext.history.classify(&plan);
    println!(
        "  extracted detector classified as: {}",
        classes.iter().map(|c| c.symbol()).collect::<Vec<_>>().join(", ")
    );
    assert!(classes.contains(&OracleClass::EventuallyPerfect));
    println!("\n⇒ ◇P ⇒ WF-◇WX ⇒ ◇P: the two problems encapsulate the same synchrony —");
    println!("  ◇P is the weakest failure detector for wait-free dining under ◇WX.");
}
