//! # `dinefd-bench` — the experiment harness
//!
//! One module per experiment in `EXPERIMENTS.md` (E1–E13), each producing a
//! [`table::Report`] that the `tables` binary prints. Experiments sweep
//! seeds/parameters in parallel across OS threads (each run builds its own
//! single-threaded deterministic world, so parallelism never affects
//! results — only wall-clock).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perfdump;
pub mod table;

use std::time::Instant;

use dinefd_sim::pool::{self, WorkerFn};

/// Knobs shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Seeds (= independent runs) per configuration point.
    pub seeds: u64,
}

impl ExperimentConfig {
    /// Quick profile for CI / smoke runs.
    pub fn quick() -> Self {
        ExperimentConfig { seeds: 3 }
    }

    /// Full profile for the published tables.
    pub fn full() -> Self {
        ExperimentConfig { seeds: 10 }
    }
}

/// Runs `f`, returning its value and its wall-clock seconds. The libraries
/// read no clock; an experiment that reports a throughput times its own
/// call with this.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Maps `f` over `items` in parallel (bounded by the machine's parallelism),
/// preserving order. Each invocation is independent and owns its inputs, so
/// determinism is untouched — parallelism only buys wall-clock.
///
/// Workers take items in index order (a shared FIFO iterator), so the first
/// configurations of a sweep finish first and long tail items don't pin the
/// whole sweep behind one late-started worker; results land in their
/// original slots regardless of completion order.
pub fn parallel_map<I, T, F>(items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    if items.is_empty() {
        return Vec::new();
    }
    let workers = pool::recommended_workers(items.len());
    let results: Vec<std::sync::Mutex<Option<T>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let work: std::sync::Mutex<std::vec::IntoIter<(usize, I::Item)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>().into_iter());
    let tasks: Vec<WorkerFn<'_, ()>> = (0..workers)
        .map(|_| {
            Box::new(|| loop {
                let next = work.lock().expect("work queue").next();
                match next {
                    Some((i, item)) => {
                        let value = f(item);
                        *results[i].lock().expect("result slot") = Some(value);
                    }
                    None => break,
                }
            }) as WorkerFn<'_, ()>
        })
        .collect();
    pool::run_each(tasks);
    results
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned").expect("missing result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(0..32u64, |x| x * x);
        assert_eq!(out, (0..32u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty() {
        let out: Vec<u64> = parallel_map(std::iter::empty::<u64>(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_single_item() {
        assert_eq!(parallel_map([7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_hands_out_items_in_index_order() {
        // Record the order items are *taken* by workers. With one worker the
        // pick-up order is fully deterministic and must be FIFO (the old
        // `Vec::pop` hand-out was LIFO); with many workers it must still be
        // a permutation where pick-up order is monotone per worker.
        let picked = std::sync::Mutex::new(Vec::new());
        let out = parallel_map(0..64u64, |x| {
            picked.lock().unwrap().push(x);
            x
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let picked = picked.into_inner().unwrap();
        // Item 0 is handed out before item 63 ever is: index order, not LIFO.
        let pos = |v: u64| picked.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(63), "hand-out went LIFO: {picked:?}");
    }

    #[test]
    fn parallel_map_order_independent_of_completion_order() {
        // Early items sleep longer, so later items complete first; the
        // result vector must still be in input order.
        let out = parallel_map(0..16u64, |x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x * 10
        });
        assert_eq!(out, (0..16u64).map(|x| x * 10).collect::<Vec<_>>());
    }
}
