//! Reproduces the paper's Fig. 1: witness and subject threads in the
//! exclusive suffix, with the subjects' eating sessions overlapping and each
//! witness throttled by its subject.
//!
//! ```sh
//! cargo run --example handoff_timeline
//! ```

use dinefd::prelude::*;

fn main() {
    let mut sc = Scenario::pair(BlackBox::WfDx, 3_000);
    sc.oracle =
        OracleSpec::DiamondP { lag: 20, convergence: Time(2_000), max_mistakes: 3, max_len: 150 };
    sc.horizon = Time(40_000);
    let (res, trace) = record_extraction(sc);
    let tl = PairTimelines::collect(&trace, ProcessId(0), ProcessId(1), res.horizon);

    let (t0, t1) = (Time(20_000), Time(21_600));
    println!("Fig. 1 — witness and subject threads in the exclusive suffix");
    println!("(window [{t0}, {t1}), t=thinking h=hungry E=eating x=exiting)\n");
    print!("{}", tl.ascii(t0, t1, 96));
    println!();

    let w = tl.witness_session_count();
    let s = tl.subject_session_count();
    println!("eating sessions over the whole run: w0={} w1={} s0={} s1={}", w[0], w[1], s[0], s[1]);

    // The two structural properties of the figure, checked programmatically
    // on the suffix (after oracle convergence + settling):
    let violations = tl.handoff_violations(Time(6_000));
    if violations.is_empty() {
        println!("hand-off structure verified on the suffix:");
        println!("  • the gray regions exist: consecutive subject sessions overlap");
        println!("  • no witness ate twice in DX_i without s_i eating in between");
    } else {
        println!("HAND-OFF VIOLATIONS: {violations:#?}");
        std::process::exit(1);
    }
}
