//! Property tests for the unified scenario DSL, plus the cross-engine
//! agreement checks: one scenario document must mean the same thing to
//! the simulator, the bounded explorer, and the fuzzer.

use dinefd_explore::{explore, ExploreConfig, ModelMutation, SubjectMutation};
use dinefd_fuzz::scenario_dsl::{DelaySpec, Scenario, SimSection};
use dinefd_fuzz::{lemma_key, FuzzConfig, Fuzzer};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

fn flat_delay_spec() -> BoxedStrategy<DelaySpec> {
    prop_oneof![
        (1u64..100).prop_map(DelaySpec::Fixed),
        (1u64..50, 0u64..50).prop_map(|(lo, extra)| DelaySpec::Uniform { lo, hi: lo + extra }),
        (1u64..20, 0u64..20, 1u64..10, 0u64..200).prop_map(|(lo, extra, num, spike_extra)| {
            DelaySpec::HeavyTail {
                lo,
                hi: lo + extra,
                spike_num: num,
                spike_den: num + 9,
                spike_hi: lo + extra + spike_extra,
            }
        }),
        (0u64..5_000, 1u64..64).prop_map(|(gst, bound)| DelaySpec::PartialSync { gst, bound }),
    ]
    .boxed()
}

fn delay_spec() -> BoxedStrategy<DelaySpec> {
    prop_oneof![
        flat_delay_spec(),
        flat_delay_spec().prop_map(|inner| DelaySpec::Fifo(Box::new(inner))),
    ]
    .boxed()
}

fn explore_config() -> BoxedStrategy<ExploreConfig> {
    (
        (1u32..40, 1usize..5_000_000, any::<bool>(), any::<bool>(), any::<bool>()),
        pick(&SubjectMutation::SPELLINGS).prop_map(|(_, m)| m),
        pick(&ModelMutation::SPELLINGS).prop_map(|(_, m)| m),
    )
        .prop_map(
            |(
                (max_depth, max_states, strict_seq, allow_crash, start_converged),
                subject_mutation,
                model_mutation,
            )| ExploreConfig {
                max_depth,
                max_states,
                strict_seq,
                allow_crash,
                start_converged,
                por: false,
                subject_mutation,
                model_mutation,
            },
        )
        .boxed()
}

fn sim_section() -> BoxedStrategy<SimSection> {
    (
        2u32..8,
        any::<u64>(),
        1u64..100_000,
        delay_spec(),
        proptest::collection::vec(0u64..9_999, 0..4),
    )
        .prop_map(|(n, seed, horizon, delay, crash_ticks)| {
            // Distinct pids below n: pid i crashes at crash_ticks[i].
            let crashes = crash_ticks
                .into_iter()
                .enumerate()
                .map(|(i, at)| (i as u32 % n, at))
                .filter({
                    let mut seen = std::collections::HashSet::new();
                    move |&(pid, _)| seen.insert(pid)
                })
                .collect();
            SimSection { n, seed, horizon, delay, crashes }
        })
        .boxed()
}

fn scenario() -> BoxedStrategy<Scenario> {
    (explore_config(), sim_section(), (any::<u64>(), 1u64..100_000, 1u32..200, 0u32..64))
        .prop_map(|(explore, sim, (seed, iterations, max_steps, corpus_seeds))| Scenario {
            fuzz: FuzzConfig { explore, seed, iterations, max_steps, corpus_seeds },
            sim,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ render = id on every valid scenario.
    #[test]
    fn render_parse_round_trips(s in scenario()) {
        let text = s.render();
        let back = Scenario::parse(&text);
        prop_assert_eq!(back.as_ref().ok(), Some(&s), "no round trip for:\n{}", text);
        // Canonical form is a fixpoint: render ∘ parse ∘ render = render.
        prop_assert_eq!(back.unwrap().render(), text);
    }

    /// Corrupting any single line of a canonical document is rejected with
    /// exactly that line's number.
    #[test]
    fn corruption_is_rejected_with_the_right_line(s in scenario(), at in 0usize..100) {
        let text = s.render();
        let mut lines: Vec<&str> = text.lines().collect();
        let at = at % (lines.len() + 1);
        lines.insert(at, "?? this is not a scenario line");
        let corrupted = lines.join("\n");
        let e = Scenario::parse(&corrupted).expect_err("corrupted doc must be rejected");
        prop_assert_eq!(e.line, at + 1, "wrong line in `{}`", e);
    }

    /// Unknown keys are rejected wherever they appear, with their line.
    #[test]
    fn unknown_keys_carry_their_line(section in prop_oneof![Just("model"), Just("sim"), Just("fuzz")]) {
        let text = format!("[{section}]\n\nbogus_key = 1\n");
        let e = Scenario::parse(&text).expect_err("unknown key must be rejected");
        prop_assert_eq!(e.line, 3);
        prop_assert!(e.message.contains("bogus_key"), "message lost the key: {}", e);
    }
}

/// Malformed-input corpus: each document and the line its error names.
const MALFORMED: &[(&str, usize)] = &[
    ("[model]\nmax_depth = -3\n", 2),
    ("[model]\nsubject_mutation = drop-ping-send\n", 2), // wire bug in the wrong slot
    ("[model]\nmodel_mutation = skip-ping-disable\n", 2),
    ("[sim]\ndelay = uniform 1\n", 2),
    ("[sim]\ndelay = heavy_tail 1 4 2/0 100\n", 2),
    ("[sim]\ndelay = heavy_tail 4 1 1/10 100\n", 2),
    ("[sim]\ncrash = one@100\n", 2),
    ("[fuzz]\nmax_steps = 0\n", 2),
    ("[fuzz]\nmax_steps = 9999999999999\n", 2),
    ("# comment\n[model]\n[sim\n", 3),
    ("[sim]\nn = 4097\n", 2),
];

/// Malformed-input corpus with exact line attribution (the non-random
/// complement of the proptest corruption case).
#[test]
fn malformed_scenarios_are_rejected_with_lines() {
    for (text, want_line) in MALFORMED {
        let e = Scenario::parse(text).expect_err(text);
        assert_eq!(e.line, *want_line, "wrong line for {text:?}: {e}");
        assert!(e.to_string().starts_with(&format!("scenario line {want_line}")), "{e}");
    }
}

/// Value tokens at the parser's edges: integers at and past every width
/// it checks, signs, delay-model words and whole specs (`fifo` chains
/// among them), `a/b` fractions, `@`, `#`, mutation spellings and empty
/// text.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "4096",
    "4097",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "-1",
    "+3",
    "fixed",
    "uniform",
    "heavy_tail",
    "partial_sync",
    "fifo",
    "fifo fifo",
    "fixed 3",
    "uniform 1 16",
    "heavy_tail 1 4 1/10 100",
    "partial_sync 100 4",
    "fifo fixed 2",
    "1/10",
    "0/0",
    "5/3",
    "/",
    "1/",
    "@",
    "3@100",
    "0@0",
    "1@7",
    "@@",
    "1@2@3",
    "#",
    "# x",
    "true",
    "false",
    "none",
    "skip-ping-disable",
    "stale-ack-replay",
    "drop-ping-send",
    "=",
    "[",
    "]",
    "",
    " ",
    "\t",
    "\u{e9}",
];

/// Every key the parser knows under its section's header, and two keys it
/// does not know.
const KEYS: &[(&str, &str)] = &[
    ("[model]", "max_depth"),
    ("[model]", "max_states"),
    ("[model]", "strict_seq"),
    ("[model]", "allow_crash"),
    ("[model]", "start_converged"),
    ("[model]", "subject_mutation"),
    ("[model]", "model_mutation"),
    ("[sim]", "n"),
    ("[sim]", "seed"),
    ("[sim]", "horizon"),
    ("[sim]", "delay"),
    ("[sim]", "crash"),
    ("[sim]", "threads"),
    ("[fuzz]", "seed"),
    ("[fuzz]", "iterations"),
    ("[fuzz]", "max_steps"),
    ("[fuzz]", "corpus_seeds"),
    ("[fuzz]", "bogus"),
];

const HEADERS: &[&str] = &["[model]", "[sim]", "[fuzz]", "[ sim ]", "[model", "[]", "[nope]"];

/// Any entry of `table`.
fn pick<T: Copy + 'static>(table: &'static [T]) -> BoxedStrategy<T> {
    (0..table.len()).prop_map(move |i| table[i]).boxed()
}

/// `key = ` and the value tokens, space-separated.
fn key_value(key: &str, value: Vec<&str>) -> String {
    format!("{key} = {}", value.join(" "))
}

/// One line: a header, a known key with random value tokens, or raw text.
fn fuzz_line() -> BoxedStrategy<String> {
    prop_oneof![
        pick(HEADERS).prop_map(str::to_owned),
        (pick(KEYS), collection::vec(pick(TOKENS), 0..4))
            .prop_map(|((_, key), value)| key_value(key, value)),
        collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
            codes.into_iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect()
        }),
    ]
    .boxed()
}

/// A document: random lines alone, random lines spliced into a
/// malformed-corpus document, keys each under their own header, or a
/// valid document with one value swapped for random tokens (the last two
/// are accepted often enough to test the round trip).
fn fuzz_document() -> BoxedStrategy<String> {
    let headered = (pick(KEYS), collection::vec(pick(TOKENS), 1..3))
        .prop_map(|((header, key), value)| format!("{header}\n{}", key_value(key, value)));
    prop_oneof![
        collection::vec(fuzz_line(), 0..14).prop_map(|lines| lines.join("\n")),
        ((0..MALFORMED.len()), collection::vec(fuzz_line(), 0..6), 0usize..8).prop_map(
            |(doc, extra, at)| {
                let mut lines: Vec<String> = MALFORMED[doc].0.lines().map(str::to_owned).collect();
                let at = at % (lines.len() + 1);
                lines.splice(at..at, extra);
                lines.join("\n")
            }
        ),
        collection::vec(headered, 1..3).prop_map(|lines| lines.join("\n")),
        (scenario(), 0usize..32, collection::vec(pick(TOKENS), 1..2)).prop_map(|(s, at, value)| {
            let text = s.render();
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let at = at % lines.len();
            if let Some((key, _)) = lines[at].split_once(" = ") {
                lines[at] = key_value(key, value);
            }
            lines.join("\n")
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The parser never panics: every input is `Ok` or `Err`, and every
    /// `Ok` is a scenario whose canonical form parses back to it.
    #[test]
    fn parse_never_panics_and_what_it_accepts_round_trips(text in fuzz_document()) {
        let parsed = std::panic::catch_unwind(|| Scenario::parse(&text));
        prop_assert!(parsed.is_ok(), "parse panicked on {:?}", text);
        if let Ok(Ok(s)) = parsed {
            prop_assert_eq!(Scenario::parse(&s.render()), Ok(s), "no round trip for {:?}", text);
        }
    }
}

/// Sim-vs-explorer agreement: for scenarios whose `[model]` section seeds a
/// bug, every lemma the *fuzzer* reports must also be reported by the
/// bounded explorer running the same document — and on the faithful
/// document both engines (and the simulator's own checkers) are clean.
#[test]
fn engines_agree_on_the_same_scenario_file() {
    let docs = [
        "[model]\nsubject_mutation = ignore-trigger-guard\nmax_depth = 8\n\
         \n[fuzz]\nseed = 1\niterations = 1500\nmax_steps = 30\ncorpus_seeds = 8\n",
        "[model]\nmodel_mutation = stale-ack-replay\nmax_depth = 16\n\
         \n[fuzz]\nseed = 1\niterations = 4000\nmax_steps = 40\ncorpus_seeds = 16\n",
        "[model]\n\n[fuzz]\nseed = 1\niterations = 500\nmax_steps = 30\ncorpus_seeds = 8\n",
    ];
    for text in docs {
        let doc = Scenario::parse(text).expect("agreement scenario parses");
        let explore_report = explore(&doc.fuzz.explore);
        let fuzz_report = Fuzzer::new(doc.fuzz.clone()).run();
        for f in &fuzz_report.findings {
            assert!(
                explore_report.violations.iter().any(|v| lemma_key(v) == f.lemma),
                "fuzzer found `{}` but the explorer (same scenario) reports only {:?}",
                f.lemma,
                explore_report.violations,
            );
        }
        let model = doc.fuzz.explore;
        if model.subject_mutation == SubjectMutation::None
            && model.model_mutation == ModelMutation::None
        {
            assert!(fuzz_report.findings.is_empty(), "fuzzer flagged the faithful scenario");
            assert!(explore_report.clean(), "explorer flagged the faithful scenario");
        } else {
            assert!(!fuzz_report.findings.is_empty(), "fuzzer missed the seeded bug in {text}");
        }
    }
}

/// The `[sim]` section drives the actual discrete-event engine: the same
/// document yields byte-identical extraction metrics across reruns, and
/// the delay/crash knobs demonstrably reach the world.
#[test]
fn scenario_file_drives_the_simulator_deterministically() {
    let doc = Scenario::parse(
        "[sim]\nn = 3\nseed = 7\nhorizon = 6000\ndelay = partial_sync 1500 8\ncrash = 2@3000\n",
    )
    .unwrap();
    let run =
        |doc: &Scenario| dinefd_core::run_extraction(doc.extraction(dinefd_core::BlackBox::WfDx));
    let a = run(&doc);
    let b = run(&doc);
    assert_eq!(a.metrics, b.metrics, "same scenario, same seed, different run");
    assert_eq!(a.metrics["crash_events"], 1, "the DSL crash line must reach the world");
    assert!(a.metrics["messages_delivered"] > 0);

    // Changing only the DSL seed changes the run (the knob is live).
    let mut reseeded = doc.clone();
    reseeded.sim.seed = 8;
    let c = run(&reseeded);
    assert_ne!(
        a.metrics["messages_delivered"], c.metrics["messages_delivered"],
        "sim seed knob appears dead"
    );
}
