//! The composed search's deterministic figures, pinned: distinct states,
//! transitions, interned arena bytes, byte-confirmed tag hits (one per probe
//! that finds a seen state) and 64-bit fingerprint collisions. The
//! expansion order, the visited store's probe and the state codec all feed
//! these numbers, so a change to any of them that alters what the search
//! does, rather than how fast it does it, fails here.

use dinefd_explore::{explore_composed, ComposedConfig};

#[test]
fn composed_figures_at_depth_12_are_pinned() {
    for (por, confirms) in [(false, 54_551), (true, 55_919)] {
        let r = explore_composed(&ComposedConfig { max_depth: 12, por, ..Default::default() });
        let ctx = format!("por={por}");
        assert!(r.clean() && !r.truncated, "{ctx}: {:?}", r.violations);
        assert_eq!((r.states_visited, r.transitions), (34_985, 89_281), "{ctx}");
        assert_eq!(r.stats.arena_bytes, 961_742, "{ctx}");
        assert_eq!(r.stats.fp_collisions.get(), 0, "{ctx}");
        assert_eq!(r.stats.fp_confirms.get(), confirms, "{ctx}");
    }
}

#[test]
#[ignore = "the benchmark's depth-18 search; run with --release -- --ignored"]
fn composed_figures_at_the_benchmark_depth_are_pinned() {
    let r = explore_composed(&ComposedConfig {
        max_depth: 18,
        max_states: 20_000_000,
        ..Default::default()
    });
    assert!(r.clean() && !r.truncated);
    assert_eq!((r.states_visited, r.transitions), (596_688, 1_709_247));
    assert_eq!(r.stats.fp_confirms.get(), 1_127_484);
    assert_eq!(r.stats.arena_bytes, 16_990_764);
    assert_eq!(r.stats.fp_collisions.get(), 0);
}
