//! Shared scoped-thread runner: one place for worker-count policy and
//! panic propagation.
//!
//! Three subsystems fan work out over OS threads — the lemma explorer's
//! search workers (`dinefd-explore`), the experiment harness's
//! `parallel_map` sweep driver (`dinefd-bench`), and the parallel
//! shard-worker loop of [`crate::shard::ShardedWorld`]. They used to spawn
//! threads three different ways with three panic-handling policies; this
//! module is the single spawning site they all go through.
//!
//! The model is deliberately minimal: every call spawns *scoped* threads
//! (std [`std::thread::scope`]), so workers may borrow the caller's stack
//! state, and every call **joins all workers before returning** — there is
//! no detached global pool, no shutdown protocol, and no work queue. A
//! worker panic is re-raised on the calling thread with its original
//! payload once every other worker has been joined, so `should_panic`
//! tests and caller-side `catch_unwind` observe the worker's own message.

use std::thread;

/// A boxed per-worker closure: the unit [`run_each`] and
/// [`run_with_coordinator`] spawn. Boxing (rather than a shared `Fn`)
/// lets each worker *move-capture* its own state — a search's root state,
/// a channel receiver — which a uniform `Fn(usize)` cannot express.
pub type WorkerFn<'env, R> = Box<dyn FnOnce() -> R + Send + 'env>;

/// How many workers to spawn for `jobs` independent jobs: the machine's
/// available parallelism (falling back to 4 when unknown), capped by the
/// job count, and always at least 1.
pub fn recommended_workers(jobs: usize) -> usize {
    thread::available_parallelism().map_or(4, |p| p.get()).min(jobs.max(1)).max(1)
}

/// Runs every closure on its own scoped thread and joins them all,
/// returning their results in input order.
///
/// # Panics
///
/// If a worker panics, the first panic (in input order) is re-raised on
/// the calling thread after all workers have been joined.
pub fn run_each<'env, R: Send + 'env>(workers: Vec<WorkerFn<'env, R>>) -> Vec<R> {
    run_with_coordinator(workers, || ()).0
}

/// Spawns the workers, runs `coordinator` on the *calling* thread while
/// they execute, then joins every worker. Returns the worker results (in
/// input order) and the coordinator's result.
///
/// This is the shape a barrier-stepped protocol needs: the coordinator
/// owns the channel endpoints and loops on the current thread; workers
/// run until their inbound channel closes. If a worker panics, its
/// channel endpoints drop, so a coordinator blocked on `recv` observes a
/// disconnect and can return normally — the worker's panic is then
/// re-raised here, after the join.
///
/// # Panics
///
/// Re-raises the first worker panic (in input order) after all workers
/// and the coordinator have finished. A coordinator panic unwinds
/// through the scope, which joins (and thereby waits for) all workers.
pub fn run_with_coordinator<'env, R, T>(
    workers: Vec<WorkerFn<'env, R>>,
    coordinator: impl FnOnce() -> T,
) -> (Vec<R>, T)
where
    R: Send + 'env,
{
    thread::scope(|scope| {
        let handles: Vec<_> = workers.into_iter().map(|w| scope.spawn(w)).collect();
        let out = coordinator();
        let results = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        (results, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn recommended_workers_is_capped_and_positive() {
        assert_eq!(recommended_workers(0), 1);
        assert_eq!(recommended_workers(1), 1);
        let w = recommended_workers(1_000_000);
        assert!(w >= 1);
        assert!(w <= 1_000_000);
    }

    #[test]
    fn run_each_returns_results_in_input_order() {
        let tasks: Vec<WorkerFn<'_, usize>> =
            (0..8usize).map(|i| Box::new(move || i * i) as WorkerFn<'_, usize>).collect();
        assert_eq!(run_each(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn workers_may_borrow_caller_state() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<WorkerFn<'_, ()>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as WorkerFn<'_, ()>
            })
            .collect();
        run_each(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_each_with_zero_tasks_returns_empty() {
        let tasks: Vec<WorkerFn<'_, u32>> = Vec::new();
        assert_eq!(run_each(tasks), Vec::<u32>::new());
    }

    #[test]
    fn run_with_coordinator_runs_with_zero_workers() {
        let tasks: Vec<WorkerFn<'_, ()>> = Vec::new();
        let (results, out) = run_with_coordinator(tasks, || 41 + 1);
        assert!(results.is_empty());
        assert_eq!(out, 42);
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate_with_their_payload() {
        let tasks: Vec<WorkerFn<'_, ()>> =
            vec![Box::new(|| ()), Box::new(|| panic!("worker exploded"))];
        run_each(tasks);
    }

    #[test]
    #[should_panic(expected = "first boom")]
    fn first_worker_panic_in_input_order_is_the_one_reraised() {
        // Both workers panic; the join loop walks handles in input order,
        // so the caller observes worker 0's payload deterministically even
        // if worker 1 panicked first on the wall clock.
        let tasks: Vec<WorkerFn<'_, ()>> = vec![
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("first boom");
            }),
            Box::new(|| panic!("second boom")),
        ];
        run_each(tasks);
    }

    #[test]
    fn worker_panic_payload_survives_as_owned_string() {
        // Panics raised with format arguments carry a `String` payload, not
        // a `&'static str`; re-raising must preserve that too.
        let code = 7;
        let tasks: Vec<WorkerFn<'_, ()>> = vec![Box::new(move || panic!("code {code}"))];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_each(tasks)));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert_eq!(msg, "code 7");
    }

    #[test]
    fn coordinator_drives_workers_over_channels() {
        // The shard-runner shape in miniature: the coordinator feeds each
        // worker jobs over a private channel and collects replies on a
        // shared one; dropping the senders shuts the workers down.
        let (reply_tx, reply_rx) = mpsc::channel::<u64>();
        let mut job_txs = Vec::new();
        let mut tasks: Vec<WorkerFn<'_, u64>> = Vec::new();
        for _ in 0..3 {
            let (job_tx, job_rx) = mpsc::channel::<u64>();
            job_txs.push(job_tx);
            let reply_tx = reply_tx.clone();
            tasks.push(Box::new(move || {
                let mut handled = 0;
                while let Ok(job) = job_rx.recv() {
                    if reply_tx.send(job * 2).is_err() {
                        break;
                    }
                    handled += 1;
                }
                handled
            }));
        }
        drop(reply_tx);
        let (handled, sum) = run_with_coordinator(tasks, move || {
            let mut sum = 0;
            for round in 0..5u64 {
                for tx in &job_txs {
                    tx.send(round).expect("worker alive");
                }
                for _ in 0..job_txs.len() {
                    sum += reply_rx.recv().expect("reply");
                }
            }
            drop(job_txs);
            sum
        });
        assert_eq!(handled, vec![5, 5, 5]);
        assert_eq!(sum, 2 * 3 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn coordinator_survives_worker_death_via_disconnect() {
        // A worker that dies mid-protocol must not deadlock the
        // coordinator: the dropped channel surfaces as a recv error, the
        // coordinator bails, and the panic is re-raised afterwards.
        let (reply_tx, reply_rx) = mpsc::channel::<u64>();
        let tasks: Vec<WorkerFn<'_, ()>> = vec![Box::new(move || {
            let _keep = reply_tx;
            panic!("mid-protocol death");
        })];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_with_coordinator(tasks, || {
                // Blocks until the worker's panic drops `reply_tx`.
                reply_rx.recv().expect_err("disconnect, not a value")
            })
        }));
        let payload = caught.expect_err("worker panic must re-raise");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "mid-protocol death");
    }
}
