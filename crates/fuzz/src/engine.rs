//! The fuzzing loop: seed, mutate, execute, keep what's novel.
//!
//! The engine is deliberately boring — every interesting decision lives in
//! [`crate::schedule`] (what a schedule is), [`crate::corpus`] (what to
//! keep), and [`crate::minimize`](mod@crate::minimize) (what to report).
//! What the engine guarantees is **determinism**: the entire run is a pure
//! function of the [`FuzzConfig`], so CI can assert equality of corpus
//! digests and `fuzz.*` metrics across reruns, and any finding can be
//! re-derived from the scenario file alone. The optional wall-clock budget
//! (used by `dinefd fuzz` and the CI job) only ever *truncates* the
//! iteration space — a run that completes its iteration budget inside the
//! time budget is unaffected by it.

use std::sync::Arc;
use std::time::Duration;

use dinefd_explore::{ExploreConfig, TransitionLabel};
use dinefd_sim::{Clock, MetricMap, MonotonicClock, SplitMix64};

use crate::corpus::Corpus;
use crate::minimize::{lemma_key, shrink};
use crate::schedule::{execute, Schedule};

/// Everything one fuzzing run depends on: the `[model]` and `[fuzz]`
/// sections of a scenario document ([`crate::scenario_dsl::parse`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzConfig {
    /// The pair-model configuration (mutations, depth knobs…).
    pub explore: ExploreConfig,
    /// Root seed; the run is a pure function of this config.
    pub seed: u64,
    /// Mutation iterations (after initial corpus seeding).
    pub iterations: u64,
    /// Maximum schedule length in decision words.
    pub max_steps: u32,
    /// Random schedules used to seed the corpus.
    pub corpus_seeds: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            explore: ExploreConfig::default(),
            seed: 1,
            iterations: 2_000,
            max_steps: 40,
            corpus_seeds: 16,
        }
    }
}

/// One distinct lemma violation the fuzzer found, with its minimized
/// replayable counterexample.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Lemma key shared by the raw and minimized violations.
    pub lemma: String,
    /// The violation message at the end of the minimized replay.
    pub message: String,
    /// Iteration that first hit this lemma (0 = during corpus seeding).
    pub iteration: u64,
    /// The raw violating label path, as executed.
    pub path: Vec<TransitionLabel>,
    /// The ddmin-minimized replayable prefix.
    pub minimized: Vec<TransitionLabel>,
}

/// The outcome of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Schedule executions performed (seeding + mutation iterations).
    pub executions: u64,
    /// Iterations actually run (< `iterations` iff the time budget cut in).
    pub iterations_run: u64,
    /// Distinct state fingerprints covered.
    pub coverage_states: u64,
    /// Corpus size at exit.
    pub corpus_entries: u64,
    /// Order-sensitive digest of the corpus (rerun-identity gate).
    pub corpus_digest: u64,
    /// Iteration of the first violation, if any.
    pub first_find_iter: Option<u64>,
    /// One finding per distinct lemma key, in discovery order.
    pub findings: Vec<Finding>,
    /// Candidate replays spent inside the minimizer.
    pub minimize_tests: u64,
    /// Whether the wall-clock budget expired before the iteration budget.
    pub timed_out: bool,
}

impl FuzzReport {
    /// Exports the run's counters as `fuzz.*` keys in a [`MetricMap`] —
    /// the same shape every other subsystem feeds into the golden. All
    /// values are deterministic for a fixed [`FuzzConfig`] when no time
    /// budget interferes (`timed_out == false`).
    pub fn metrics(&self) -> MetricMap {
        let mut m = MetricMap::new();
        m.insert("fuzz.executions".into(), self.executions);
        m.insert("fuzz.iterations_run".into(), self.iterations_run);
        m.insert("fuzz.coverage_states".into(), self.coverage_states);
        m.insert("fuzz.corpus_entries".into(), self.corpus_entries);
        m.insert("fuzz.corpus_digest".into(), self.corpus_digest);
        m.insert("fuzz.findings".into(), self.findings.len() as u64);
        m.insert("fuzz.first_find_iter".into(), self.first_find_iter.unwrap_or(0));
        m.insert("fuzz.found".into(), u64::from(!self.findings.is_empty()));
        m.insert("fuzz.minimize_tests".into(), self.minimize_tests);
        m.insert(
            "fuzz.minimized_len_total".into(),
            self.findings.iter().map(|f| f.minimized.len() as u64).sum(),
        );
        m
    }
}

/// The coverage-guided fuzzer. Construct with [`Fuzzer::new`], run with
/// [`Fuzzer::run`].
#[derive(Debug)]
pub struct Fuzzer {
    cfg: FuzzConfig,
    budget: Option<Duration>,
    clock: Arc<dyn Clock>,
}

impl Fuzzer {
    /// A fuzzer with no wall-clock budget (fully deterministic output).
    pub fn new(cfg: FuzzConfig) -> Self {
        Fuzzer { cfg, budget: None, clock: Arc::new(MonotonicClock::new()) }
    }

    /// Caps the run's wall clock, measured from the moment [`Fuzzer::run`]
    /// starts. The budget is checked between schedule executions, so a run
    /// is over budget by at most one execution. With a budget set, *which
    /// prefix* of the iteration space runs depends on the host — use
    /// iteration budgets alone where determinism matters.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Replaces the wall-clock source the time budget reads. Production
    /// uses the default [`MonotonicClock`]; tests hand-crank a
    /// [`dinefd_sim::ManualClock`] so the timeout path is exercised
    /// without sleeping.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    fn out_of_time(&self, deadline: Option<Duration>) -> bool {
        deadline.is_some_and(|d| self.clock.elapsed() >= d)
    }

    /// Runs the configured fuzzing campaign.
    pub fn run(&self) -> FuzzReport {
        let cfg = &self.cfg;
        let deadline = self.budget.map(|b| self.clock.elapsed().saturating_add(b));
        let mut rng = SplitMix64::new(cfg.seed);
        let mut corpus = Corpus::new();
        let mut report = FuzzReport::default();

        let handle_execution =
            |schedule: Schedule, iteration: u64, corpus: &mut Corpus, report: &mut FuzzReport| {
                let out = execute(&cfg.explore, &schedule);
                report.executions += 1;
                let novelty = corpus.absorb_coverage(&out.fingerprints);
                let violating = out.violation.is_some();
                // Novelty is the sole admission ticket: under a busted model
                // almost *every* schedule violates, and admitting them all
                // would drown the corpus in redundant counterexamples.
                if novelty > 0 {
                    corpus.admit(schedule, novelty, iteration, violating);
                }
                if let Some(msg) = out.violation {
                    report.first_find_iter.get_or_insert(iteration);
                    let lemma = lemma_key(&msg).to_string();
                    if !report.findings.iter().any(|f| f.lemma == lemma) {
                        let min = shrink(&cfg.explore, &out.path, msg);
                        report.minimize_tests += min.tests_run;
                        report.findings.push(Finding {
                            lemma,
                            message: min.message,
                            iteration,
                            path: out.path,
                            minimized: min.path,
                        });
                    }
                }
            };

        // Phase 1: seed the corpus with purely random schedules.
        for _ in 0..cfg.corpus_seeds {
            if self.out_of_time(deadline) {
                report.timed_out = true;
                break;
            }
            let s = Schedule::random(&mut rng, cfg.max_steps);
            handle_execution(s, 0, &mut corpus, &mut report);
        }

        // Phase 2: coverage-guided mutation.
        for iter in 1..=cfg.iterations {
            if self.out_of_time(deadline) {
                report.timed_out = true;
                break;
            }
            let child = match corpus.pick(rng.next_u64()) {
                Some(parent) => {
                    let donor =
                        corpus.pick(rng.next_u64()).map_or(&[][..], |e| &e.schedule.words[..]);
                    parent.schedule.mutate(&mut rng, donor, cfg.max_steps)
                }
                // Corpus can be empty only with `corpus_seeds = 0`.
                None => Schedule::random(&mut rng, cfg.max_steps),
            };
            handle_execution(child, iter, &mut corpus, &mut report);
            report.iterations_run = iter;
        }

        report.coverage_states = corpus.coverage_states();
        report.corpus_entries = corpus.len() as u64;
        report.corpus_digest = corpus.digest();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_explore::SubjectMutation;

    #[test]
    fn same_seed_same_everything() {
        let cfg =
            FuzzConfig { iterations: 300, max_steps: 25, corpus_seeds: 8, ..Default::default() };
        let a = Fuzzer::new(cfg.clone()).run();
        let b = Fuzzer::new(cfg).run();
        assert_eq!(a.corpus_digest, b.corpus_digest);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn different_seeds_diverge() {
        let base = FuzzConfig { iterations: 200, corpus_seeds: 8, ..Default::default() };
        let a = Fuzzer::new(FuzzConfig { seed: 1, ..base.clone() }).run();
        let b = Fuzzer::new(FuzzConfig { seed: 2, ..base }).run();
        assert_ne!(a.corpus_digest, b.corpus_digest);
    }

    #[test]
    fn faithful_model_yields_no_findings_but_real_coverage() {
        let r = Fuzzer::new(FuzzConfig { iterations: 300, corpus_seeds: 8, ..Default::default() })
            .run();
        assert!(r.findings.is_empty());
        assert_eq!(r.first_find_iter, None);
        assert!(r.coverage_states > 100, "coverage barely moved: {}", r.coverage_states);
        assert!(r.corpus_entries > 0);
        assert_eq!(r.metrics()["fuzz.found"], 0);
    }

    #[test]
    fn seeded_bug_is_found_and_minimized() {
        let r = Fuzzer::new(FuzzConfig {
            explore: ExploreConfig {
                subject_mutation: SubjectMutation::IgnoreTriggerGuard,
                ..Default::default()
            },
            iterations: 500,
            ..Default::default()
        })
        .run();
        assert_eq!(r.findings.len(), 1, "exactly one lemma key expected");
        let f = &r.findings[0];
        assert_eq!(f.lemma, "Lemma 4 violated");
        assert!(f.minimized.len() <= f.path.len());
        assert!(r.metrics()["fuzz.found"] == 1);
    }

    #[test]
    fn stale_ack_replay_is_attributed_to_its_first_tripped_check() {
        // First-tripped-check semantics (see the crate docs): the explorer
        // headlines StaleAckReplay as a Lemma-4 bug, but along any fuzzed
        // execution the duplicate ack violates Lemma 3 (a DX message in
        // transit while the subject is not eating with its ping raised)
        // strictly before the stale ack can flip the trigger, so the
        // fuzzer's one-finding-per-key report must carry Lemma 3.
        // Budget mirrors the `seeded_bug_gate` suite: under seed 1 the
        // slowest stale-ack find lands around iteration 525.
        let r = Fuzzer::new(FuzzConfig {
            explore: ExploreConfig {
                model_mutation: dinefd_explore::ModelMutation::StaleAckReplay,
                ..Default::default()
            },
            seed: 1,
            iterations: 2_000,
            max_steps: 40,
            corpus_seeds: 16,
        })
        .run();
        assert!(!r.findings.is_empty(), "seeded StaleAckReplay bug never found");
        assert_eq!(r.findings[0].lemma, "Lemma 3 violated", "first-tripped check must win");
        // The minimized prefix replays to the same key — attribution is a
        // property of the trajectory, not of which schedule found it.
        for f in &r.findings {
            assert_eq!(
                crate::minimize::lemma_key(&f.message),
                f.lemma,
                "finding message and key disagree"
            );
        }
    }

    #[test]
    fn time_budget_truncates_but_never_extends() {
        let cfg = FuzzConfig { iterations: 50, corpus_seeds: 4, ..Default::default() };
        let untimed = Fuzzer::new(cfg.clone()).run();
        // A generous budget must not change the outcome.
        let timed = Fuzzer::new(cfg.clone()).with_time_budget(Duration::from_secs(600)).run();
        assert_eq!(untimed.corpus_digest, timed.corpus_digest);
        assert!(!timed.timed_out);
        // A zero budget stops almost immediately.
        let starved = Fuzzer::new(cfg).with_time_budget(Duration::ZERO).run();
        assert!(starved.timed_out);
        assert!(starved.executions <= 1);
    }

    #[test]
    fn frozen_fake_clock_never_times_out() {
        // With an injected clock that never advances, even a 1 ns budget
        // leaves infinite room: the full iteration budget runs and the
        // output matches the untimed run exactly.
        let cfg = FuzzConfig { iterations: 50, corpus_seeds: 4, ..Default::default() };
        let untimed = Fuzzer::new(cfg.clone()).run();
        let frozen = Fuzzer::new(cfg)
            .with_clock(Arc::new(dinefd_sim::ManualClock::new()))
            .with_time_budget(Duration::from_nanos(1))
            .run();
        assert!(!frozen.timed_out);
        assert_eq!(frozen.iterations_run, 50);
        assert_eq!(frozen.corpus_digest, untimed.corpus_digest);
    }

    #[test]
    fn budget_is_anchored_at_run_start_not_construction() {
        // Time spent between constructing the fuzzer and calling `run`
        // must not eat into the budget.
        let cfg = FuzzConfig { iterations: 50, corpus_seeds: 4, ..Default::default() };
        let clock = dinefd_sim::ManualClock::new();
        let fuzzer = Fuzzer::new(cfg)
            .with_clock(Arc::new(clock.clone()))
            .with_time_budget(Duration::from_secs(30));
        clock.advance(Duration::from_secs(3_600));
        let report = fuzzer.run();
        assert!(!report.timed_out);
        assert_eq!(report.iterations_run, 50);
    }

    #[test]
    fn fake_clock_timeout_fires_without_sleeping() {
        // A self-ticking clock advances one second per read: the deadline
        // anchors at t=0s+2s, the first budget check reads 1s (under), the
        // second reads 2s (expired) — the CI timeout path, exercised
        // deterministically and instantly.
        #[derive(Debug, Default)]
        struct TickingClock(std::sync::atomic::AtomicU64);
        impl dinefd_sim::Clock for TickingClock {
            fn elapsed(&self) -> Duration {
                Duration::from_secs(self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            }
        }
        let cfg = FuzzConfig { iterations: 50, corpus_seeds: 4, ..Default::default() };
        let report = Fuzzer::new(cfg)
            .with_clock(Arc::new(TickingClock::default()))
            .with_time_budget(Duration::from_secs(2))
            .run();
        assert!(report.timed_out);
        assert_eq!(report.executions, 1, "exactly one execution fits a 2-tick budget");
    }
}
