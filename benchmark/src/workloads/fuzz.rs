//! `fuzz_pair`: the coverage-guided schedule fuzzer over six pair-model
//! configurations — pair-model successors and fingerprinting without a
//! visited store, with the corpus as the bottleneck on one configuration
//! and idle on another.

use std::time::Duration;

use dinefd_explore::{ExploreConfig, ModelMutation, PairState, SubjectMutation};
use dinefd_fuzz::{execute, FuzzConfig, FuzzReport, Fuzzer, Schedule};
use dinefd_sim::SplitMix64;

use super::{Layers, Rep, Size, Traced, Workload};
use crate::trace::{ratio, LayerAcc, Recorder};

/// Schedule length bound and corpus seeding of every campaign (E12's).
const MAX_STEPS: u32 = 40;
const CORPUS_SEEDS: u32 = 16;

/// One fuzzed configuration: `(stable key, a finding is expected, config)`.
type Config = (&'static str, bool, ExploreConfig);

/// The six configurations: the faithful and hardened models and a
/// safety-silent control must stay silent, the three safety mutants must
/// each yield a finding. Corpus pressure differs by two orders of magnitude
/// between `skip_ping_disable` and `drop_ping_send`.
pub fn configs() -> [Config; 6] {
    let base = ExploreConfig::default();
    [
        ("faithful", false, base),
        ("hardened", false, ExploreConfig { strict_seq: true, ..base }),
        (
            "skip_ping_disable",
            true,
            ExploreConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..base },
        ),
        (
            "ignore_trigger_guard",
            true,
            ExploreConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..base },
        ),
        (
            "stale_ack_replay",
            true,
            ExploreConfig { model_mutation: ModelMutation::StaleAckReplay, ..base },
        ),
        (
            "drop_ping_send",
            false,
            ExploreConfig { model_mutation: ModelMutation::DropPingSend, ..base },
        ),
    ]
}

/// Campaigns per configuration. How fast a corpus grows depends on the
/// campaign's seed (±13% entries on `skip_ping_disable`), and with it both
/// the time and the memory of a repetition; many short campaigns with seeds
/// of their own average that out, so `--seed` picks a sample of the same
/// distribution rather than a different amount of work. (With eight
/// campaigns of 5,000 iterations the process's peak memory — whichever
/// campaign's corpus grew largest — still spread 7–8% over ten seeds; with
/// sixteen of 2,500 it spreads 3–4%.)
const CAMPAIGNS: usize = 16;

/// The fuzzing workload with its seeds and budget fixed.
#[derive(Debug)]
pub struct FuzzPair {
    seed: u64,
    campaign_seeds: [u64; CAMPAIGNS],
    iterations: u64,
}

impl FuzzPair {
    /// Sixteen campaigns of 2,500 mutation iterations per configuration.
    pub fn new(seed: u64, size: Size) -> Self {
        let iterations = match size {
            Size::Full => 2_500,
            Size::Smoke => 200,
        };
        let mut rng = SplitMix64::new(seed);
        FuzzPair { seed, campaign_seeds: std::array::from_fn(|_| rng.next_u64()), iterations }
    }

    /// The campaigns of one configuration, one per campaign seed.
    fn campaigns(&self, explore: ExploreConfig) -> impl Iterator<Item = FuzzConfig> + '_ {
        self.campaign_seeds.iter().map(move |&seed| FuzzConfig {
            explore,
            seed,
            iterations: self.iterations,
            max_steps: MAX_STEPS,
            corpus_seeds: CORPUS_SEEDS,
        })
    }

    /// Runs every campaign of every configuration through `run` (which may
    /// wrap the call in a span) and folds the reports into a [`Rep`]:
    /// operations, the counters that must repeat exactly, and the
    /// expectation per configuration — a safety mutant must be caught by at
    /// least one of its campaigns, a silent configuration by none.
    fn sweep(&self, mut run: impl FnMut(&str, FuzzConfig) -> FuzzReport) -> (Rep, Vec<FuzzReport>) {
        let mut rep = Rep::default();
        let mut reports = Vec::new();
        for (key, expect_finding, explore) in configs() {
            let mut found = false;
            for (i, cfg) in self.campaigns(explore).enumerate() {
                let tag = format!("{key}.{i}");
                let report = run(&tag, cfg);
                rep.ops += report.executions;
                found |= !report.findings.is_empty();
                rep.check(!report.timed_out, || format!("{tag}: campaign timed out"));
                rep.count(&format!("{tag}.executions"), report.executions);
                rep.count(&format!("{tag}.corpus_digest"), report.corpus_digest);
                rep.count(&format!("{tag}.corpus_entries"), report.corpus_entries);
                rep.count(&format!("{tag}.coverage_states"), report.coverage_states);
                rep.count(&format!("{tag}.first_find_iter"), report.first_find_iter.unwrap_or(0));
                rep.count(&format!("{tag}.minimize_tests"), report.minimize_tests);
                reports.push(report);
            }
            rep.check(found == expect_finding, || {
                format!("{key}: finding expected = {expect_finding}, found = {found}")
            });
        }
        (rep, reports)
    }
}

/// Schedules executed per configuration by the standalone `execute` replay.
const EXECUTE_SAMPLE: u64 = 4_000;

/// Mean nanoseconds of the public [`execute`] over random schedules of the
/// campaign's length bound — what one execution costs with no mutation,
/// corpus admission or parent pick around it.
fn execute_ns(cfg: &ExploreConfig, seed: u64, acc: &LayerAcc) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..EXECUTE_SAMPLE {
        let schedule = Schedule::random(&mut rng, MAX_STEPS);
        acc.time(|| std::hint::black_box(execute(cfg, &schedule)));
    }
}

/// Mean nanoseconds of `PairState::successors_into` along random walks of
/// the faithful pair model (restarting at the walk-length bound).
fn pair_successors_ns(seed: u64) -> f64 {
    let cfg = ExploreConfig::default();
    let mut rng = SplitMix64::new(seed);
    let acc = LayerAcc::default();
    let mut succ = Vec::new();
    for _ in 0..EXECUTE_SAMPLE {
        let mut state = PairState::initial(&cfg);
        for _ in 0..MAX_STEPS {
            succ.clear();
            acc.time(|| state.successors_into(&cfg, &mut succ));
            if succ.is_empty() {
                break;
            }
            let pick = rng.below(succ.len() as u64) as usize;
            state = succ.swap_remove(pick).1;
        }
    }
    acc.ns_per_call()
}

impl Workload for FuzzPair {
    fn seed_used(&self) -> bool {
        true
    }

    fn rep(&mut self) -> Rep {
        self.sweep(|_, cfg| Fuzzer::new(cfg).run()).0
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> Traced {
        let mut layers = Layers::new();
        let mut run_ns = 0u64;
        let (rep, reports) = self.sweep(|tag, cfg| {
            let (report, ns) = rec.span(tag, |_| Fuzzer::new(cfg).run());
            run_ns += ns;
            report
        });
        let execute_acc = LayerAcc::default();
        for (_, _, explore) in configs() {
            rec.span("replay.execute", |_| execute_ns(&explore, self.seed, &execute_acc));
        }
        let sum = |f: fn(&FuzzReport) -> u64| reports.iter().map(f).sum::<u64>();
        let execs = sum(|r| r.executions);
        let entries_max = reports.iter().map(|r| r.corpus_entries).max().unwrap_or(0);
        let (coverage, minimize_tests) = (sum(|r| r.coverage_states), sum(|r| r.minimize_tests));
        let first_finds = sum(|r| r.first_find_iter.unwrap_or(0));
        // The engine's own share: what a campaign costs per execution beyond
        // executing schedules — mutation, corpus admission, parent pick.
        let per_exec = execute_acc.ns_per_call();
        layers.insert("fuzz.engine.execs", execs as f64);
        layers.insert("fuzz.schedule.execute_ns_per_exec", per_exec);
        layers.insert(
            "fuzz.engine.self_ns_per_exec",
            (ratio(run_ns as f64, execs as f64) - per_exec).max(0.0),
        );
        layers.insert("fuzz.corpus.entries_max", entries_max as f64);
        layers.insert("fuzz.engine.coverage_states", coverage as f64);
        layers.insert("fuzz.engine.first_find_iter_sum", first_finds as f64);
        layers.insert("fuzz.minimize.tests", minimize_tests as f64);
        let calls = vec![
            ("fuzz.engine", "rep", execs, run_ns),
            ("fuzz.schedule.execute", "replay.execute", execute_acc.count(), execute_acc.ns()),
        ];
        Traced { rep, layers, calls }
    }

    fn beside(
        &mut self,
        rec: &mut Recorder,
        _reference: &Rep,
        _budget: Duration,
        layers: &mut Layers,
    ) -> Vec<String> {
        rec.span("replay.pair_successors", |_| {
            layers.insert("explore.pair.successors_ns_per_state", pair_successors_ns(self.seed));
        });
        Vec::new()
    }
}
