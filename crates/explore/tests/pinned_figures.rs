//! The composed search's deterministic figures, pinned: distinct states,
//! transitions, interned arena bytes, byte-confirmed tag hits (one per
//! probed edge that finds a seen state) and 64-bit fingerprint collisions.
//! The expansion order, the visited store's probe and the state codec all
//! feed these numbers, so a change to any of them that alters what the
//! search does, rather than how fast it does it, fails here.
//!
//! Each state is expanded once, and each of its edges probes the store once,
//! so an untruncated search confirms every edge but the `states - 1` that
//! interned a state: `fp_confirms == transitions + 1 - states`.

use dinefd_explore::{explore_composed, ComposedConfig, ComposedReport};

/// Asserts the confirm identity of an untruncated, clean search.
fn assert_one_probe_per_edge(r: &ComposedReport) {
    assert!(r.clean() && !r.truncated, "{:?}", r.violations);
    assert_eq!(r.stats.fp_confirms.get(), r.transitions + 1 - r.states_visited as u64);
}

#[test]
fn composed_figures_at_depth_12_are_pinned() {
    let r = explore_composed(&ComposedConfig { max_depth: 12, ..Default::default() });
    assert_one_probe_per_edge(&r);
    assert_eq!((r.states_visited, r.transitions), (34_985, 89_281));
    assert_eq!(r.stats.arena_bytes, 961_742);
    assert_eq!(r.stats.fp_collisions.get(), 0);
    assert_eq!(r.stats.fp_confirms.get(), 54_297);
}

#[test]
#[ignore = "the benchmark's depth-18 search; run with --release -- --ignored"]
fn composed_figures_at_the_benchmark_depth_are_pinned() {
    let r = explore_composed(&ComposedConfig {
        max_depth: 18,
        max_states: 20_000_000,
        ..Default::default()
    });
    assert_one_probe_per_edge(&r);
    assert_eq!((r.states_visited, r.transitions), (596_688, 1_709_247));
    assert_eq!(r.stats.fp_confirms.get(), 1_112_560);
    assert_eq!(r.stats.arena_bytes, 16_990_764);
    assert_eq!(r.stats.fp_collisions.get(), 0);
}
