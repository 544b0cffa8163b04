//! Golden campaign counters: the executor, the corpus and the minimizer may
//! get cheaper, but a campaign must keep doing the *same work*. The rows
//! below were recorded from the enumerate-then-index executor (every
//! successor state built per step, `succ[word % len]` kept) before it was
//! replaced by the label walk; any change to label order, pick weights,
//! admission, coverage or the minimizer's test count moves at least one of
//! them.

use dinefd_explore::{ExploreConfig, ModelMutation, SubjectMutation};
use dinefd_fuzz::{FuzzConfig, Fuzzer};

/// `(corpus_digest, coverage_states, first_find_iter, minimize_tests)`.
type Golden = (u64, u64, Option<u64>, u64);

fn campaign(explore: ExploreConfig) -> Golden {
    let r = Fuzzer::new(FuzzConfig {
        explore,
        seed: 1,
        iterations: 1_500,
        max_steps: 40,
        corpus_seeds: 16,
    })
    .run();
    (r.corpus_digest, r.coverage_states, r.first_find_iter, r.minimize_tests)
}

#[test]
fn six_configs_reproduce_the_recorded_campaigns() {
    let base = ExploreConfig::default();
    let subject = |m| ExploreConfig { subject_mutation: m, ..base };
    let wire = |m| ExploreConfig { model_mutation: m, ..base };
    let rows: [(&str, ExploreConfig, Golden); 6] = [
        ("faithful", base, (0x7cc5_3677_bec6_09a8, 317, None, 0)),
        (
            "hardened",
            ExploreConfig { strict_seq: true, ..base },
            (0x7cc5_3677_bec6_09a8, 317, None, 0),
        ),
        (
            "skip_ping_disable",
            subject(SubjectMutation::SkipPingDisable),
            (0x4e87_9c1c_924a_7e7f, 1497, Some(335), 70),
        ),
        (
            "ignore_trigger_guard",
            subject(SubjectMutation::IgnoreTriggerGuard),
            (0xbbad_c91b_d4fa_fc43, 306, Some(0), 1),
        ),
        (
            "stale_ack_replay",
            wire(ModelMutation::StaleAckReplay),
            (0xb199_e5b7_5bbb_7cec, 392, Some(525), 83),
        ),
        ("drop_ping_send", wire(ModelMutation::DropPingSend), (0x754c_e96c_bc8e_7a7d, 94, None, 0)),
    ];
    for (name, explore, golden) in rows {
        assert_eq!(campaign(explore), golden, "{name}: campaign counters moved");
    }
}
