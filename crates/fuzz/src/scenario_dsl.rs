//! The scenario DSL: one text document for the fuzzer, the explorer and
//! the simulator.
//!
//! Every engine has its own adversary knobs: the simulator takes a
//! [`DelayModel`] and a [`CrashPlan`], the explorer an
//! [`dinefd_explore::ExploreConfig`], the fuzzer a [`FuzzConfig`]. A
//! [`Scenario`] writes all of them as one diffable file, and parsing fills
//! the engines' own types:
//!
//! * `[model]` is [`FuzzConfig::explore`], the pair model that
//!   [`dinefd_explore::explore`] searches and the fuzzer walks;
//! * `[fuzz]` is the rest of the [`FuzzConfig`], the fuzzer's budgets;
//! * `[sim]` is a [`SimSection`], whose [`Scenario::extraction`] is the
//!   simulator's all-pairs extraction run.
//!
//! The format is deliberately small: `#` comments, `[section]` headers, and
//! `key = value` lines. [`Scenario::parse`] validates everything it reads
//! and reports failures as [`ScenarioError`]s carrying the **1-based line
//! number**; [`Scenario::render`] writes the canonical form (every key,
//! fixed order), so `parse(render(s)) == s` holds exactly for every valid
//! scenario (property-tested in `crates/fuzz/tests/proptest_dsl.rs`). The
//! explorer's `por` is how to search, not what, so no key sets it and a
//! parsed document leaves it off.
//!
//! ```
//! use dinefd_fuzz::scenario_dsl::Scenario;
//!
//! let s = Scenario::default();
//! let text = s.render();
//! assert_eq!(Scenario::parse(&text).unwrap(), s);
//! assert!(Scenario::parse("[model]\nmax_depth = zero\n").is_err());
//! ```

use std::fmt;

use dinefd_core::machines::SubjectMutation;
use dinefd_core::{BlackBox, MAX_N};
use dinefd_explore::ModelMutation;
use dinefd_sim::{CrashPlan, DelayModel, ProcessId, Time};

use crate::engine::FuzzConfig;

/// A parse/validation failure, anchored to its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What went wrong there.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { line, message: message.into() })
}

/// The variant of `table` spelled `value`; `noun` names the kind of thing
/// in the error for a spelling the table does not have.
fn spelled<T: Copy>(
    table: &[(&str, T)],
    value: &str,
    line: usize,
    noun: &str,
) -> Result<T, ScenarioError> {
    match table.iter().find(|(s, _)| *s == value) {
        Some(&(_, v)) => Ok(v),
        None => err(line, format!("unknown {noun} `{value}`")),
    }
}

/// A serializable [`DelayModel`] description (everything except fully
/// scripted adversaries, which are code, not data).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelaySpec {
    /// `fixed D` — every message takes exactly `D` ticks.
    Fixed(u64),
    /// `uniform LO HI` — uniform over the inclusive range.
    Uniform {
        /// Minimum delay.
        lo: u64,
        /// Maximum delay.
        hi: u64,
    },
    /// `heavy_tail LO HI NUM/DEN SPIKE_HI` — mostly uniform with spikes.
    HeavyTail {
        /// Common-case minimum.
        lo: u64,
        /// Common-case maximum.
        hi: u64,
        /// Spike probability numerator.
        spike_num: u64,
        /// Spike probability denominator.
        spike_den: u64,
        /// Spiked maximum.
        spike_hi: u64,
    },
    /// `partial_sync GST BOUND` — harsh until GST, bounded after. This is
    /// where a scenario places the global stabilization time.
    PartialSync {
        /// The global stabilization time, in ticks.
        gst: u64,
        /// Post-GST delay bound.
        bound: u64,
    },
    /// `fifo <inner…>` — per-channel FIFO discipline over any inner spec.
    Fifo(Box<DelaySpec>),
}

impl DelaySpec {
    /// Renders the canonical token form (`uniform 1 16`, `fifo fixed 3`…).
    pub fn render(&self) -> String {
        match self {
            DelaySpec::Fixed(d) => format!("fixed {d}"),
            DelaySpec::Uniform { lo, hi } => format!("uniform {lo} {hi}"),
            DelaySpec::HeavyTail { lo, hi, spike_num, spike_den, spike_hi } => {
                format!("heavy_tail {lo} {hi} {spike_num}/{spike_den} {spike_hi}")
            }
            DelaySpec::PartialSync { gst, bound } => format!("partial_sync {gst} {bound}"),
            DelaySpec::Fifo(inner) => format!("fifo {}", inner.render()),
        }
    }

    fn parse_tokens(tokens: &[&str], line: usize) -> Result<Self, ScenarioError> {
        let int = |tok: &str, what: &str| -> Result<u64, ScenarioError> {
            tok.parse::<u64>().map_err(|_| ScenarioError {
                line,
                message: format!("{what}: expected an integer, got `{tok}`"),
            })
        };
        let expect_arity = |n: usize, shape: &str| -> Result<(), ScenarioError> {
            if tokens.len() == n + 1 {
                Ok(())
            } else {
                err(line, format!("`{}` takes the form `{shape}`", tokens[0]))
            }
        };
        match tokens.first().copied() {
            Some("fixed") => {
                expect_arity(1, "fixed D")?;
                Ok(DelaySpec::Fixed(int(tokens[1], "fixed delay")?))
            }
            Some("uniform") => {
                expect_arity(2, "uniform LO HI")?;
                let (lo, hi) = (int(tokens[1], "lo")?, int(tokens[2], "hi")?);
                if lo > hi {
                    return err(line, format!("uniform range is empty: lo {lo} > hi {hi}"));
                }
                Ok(DelaySpec::Uniform { lo, hi })
            }
            Some("heavy_tail") => {
                expect_arity(4, "heavy_tail LO HI NUM/DEN SPIKE_HI")?;
                let (lo, hi) = (int(tokens[1], "lo")?, int(tokens[2], "hi")?);
                let Some((num, den)) = tokens[3].split_once('/') else {
                    return err(line, format!("spike probability `{}` is not NUM/DEN", tokens[3]));
                };
                let (spike_num, spike_den) =
                    (int(num, "spike numerator")?, int(den, "spike denominator")?);
                let spike_hi = int(tokens[4], "spike_hi")?;
                if lo > hi {
                    return err(line, format!("heavy_tail range is empty: lo {lo} > hi {hi}"));
                }
                if spike_den == 0 || spike_num > spike_den {
                    return err(
                        line,
                        format!("spike probability {spike_num}/{spike_den} is not in [0, 1]"),
                    );
                }
                if spike_hi < hi {
                    return err(line, format!("spike_hi {spike_hi} below common-case hi {hi}"));
                }
                Ok(DelaySpec::HeavyTail { lo, hi, spike_num, spike_den, spike_hi })
            }
            Some("partial_sync") => {
                expect_arity(2, "partial_sync GST BOUND")?;
                let (gst, bound) = (int(tokens[1], "gst")?, int(tokens[2], "bound")?);
                if bound == 0 {
                    return err(line, "partial_sync bound must be at least 1");
                }
                Ok(DelaySpec::PartialSync { gst, bound })
            }
            Some("fifo") => {
                if tokens.len() < 2 {
                    return err(line, "`fifo` wraps an inner delay spec: `fifo uniform 1 16`");
                }
                if tokens[1] == "fifo" {
                    return err(line, "`fifo fifo …` is redundant; wrap once");
                }
                Ok(DelaySpec::Fifo(Box::new(DelaySpec::parse_tokens(&tokens[1..], line)?)))
            }
            Some(other) => err(line, format!("unknown delay model `{other}`")),
            None => err(line, "empty delay spec"),
        }
    }

    /// Materializes the [`DelayModel`] this spec describes. `PartialSync`
    /// uses [`DelayModel::harsh`] as its pre-GST regime (the canonical
    /// worst case; a scenario that needs a different prefix can nest specs).
    pub fn build(&self) -> DelayModel {
        match self {
            DelaySpec::Fixed(d) => DelayModel::Fixed(*d),
            DelaySpec::Uniform { lo, hi } => DelayModel::Uniform { lo: *lo, hi: *hi },
            DelaySpec::HeavyTail { lo, hi, spike_num, spike_den, spike_hi } => {
                DelayModel::HeavyTail {
                    lo: *lo,
                    hi: *hi,
                    spike_num: *spike_num,
                    spike_den: *spike_den,
                    spike_hi: *spike_hi,
                }
            }
            DelaySpec::PartialSync { gst, bound } => {
                DelayModel::partially_synchronous(Time(*gst), *bound)
            }
            DelaySpec::Fifo(inner) => DelayModel::fifo(inner.build()),
        }
    }
}

/// `[sim]` — the discrete-event simulator's environment knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimSection {
    /// System size.
    pub n: u32,
    /// Root seed.
    pub seed: u64,
    /// Run length in ticks.
    pub horizon: u64,
    /// Channel delay behaviour (GST placement lives here).
    pub delay: DelaySpec,
    /// Crash schedule: `(process, tick)` pairs, one `crash =` line each.
    pub crashes: Vec<(u32, u64)>,
}

impl Default for SimSection {
    fn default() -> Self {
        SimSection {
            n: 4,
            seed: 42,
            horizon: 20_000,
            delay: DelaySpec::Uniform { lo: 1, hi: 16 },
            crashes: Vec::new(),
        }
    }
}

impl SimSection {
    /// The [`DelayModel`] this section describes (fresh internal state).
    pub fn delay_model(&self) -> DelayModel {
        self.delay.build()
    }

    /// The [`CrashPlan`] this section describes.
    pub fn crash_plan(&self) -> CrashPlan {
        let mut plan = CrashPlan::none();
        for &(pid, at) in &self.crashes {
            plan.add(ProcessId(pid), Time(at));
        }
        plan
    }
}

/// One complete scenario: the unified adversary description.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scenario {
    /// `[model]` (its `explore`) and `[fuzz]` (its budgets).
    pub fuzz: FuzzConfig,
    /// `[sim]`: the simulator's environment.
    pub sim: SimSection,
}

impl Scenario {
    /// Parses the DSL text. Sections and keys may appear in any order and
    /// may be omitted (defaults apply); unknown sections, unknown keys,
    /// malformed values, and inconsistent combinations are rejected with
    /// the offending line number.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Section {
            Preamble,
            Model,
            Sim,
            Fuzz,
        }
        let mut sc = Scenario::default();
        let mut section = Section::Preamble;
        let mut crash_lines: Vec<usize> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            if let Some(name) = content.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return err(line, format!("unterminated section header `{content}`"));
                };
                section = match name.trim() {
                    "model" => Section::Model,
                    "sim" => Section::Sim,
                    "fuzz" => Section::Fuzz,
                    other => return err(line, format!("unknown section `[{other}]`")),
                };
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return err(line, format!("expected `key = value`, got `{content}`"));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return err(line, format!("`{key}` has no value"));
            }
            let int = |what: &str| -> Result<u64, ScenarioError> {
                value.parse::<u64>().map_err(|_| ScenarioError {
                    line,
                    message: format!("{what}: expected an integer, got `{value}`"),
                })
            };
            let small = |what: &str| -> Result<u32, ScenarioError> {
                u32::try_from(int(what)?).map_err(|_| ScenarioError {
                    line,
                    message: format!("{what} {value} does not fit in 32 bits"),
                })
            };
            let at_least_1 = |what: &str, v: u64| match v {
                0 => err(line, format!("{what} must be at least 1")),
                _ => Ok(()),
            };
            let boolean = |what: &str| -> Result<bool, ScenarioError> {
                match value {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => err(line, format!("{what}: expected true/false, got `{other}`")),
                }
            };
            let model = &mut sc.fuzz.explore;
            match (section, key) {
                (Section::Preamble, _) => {
                    return err(line, format!("`{key}` appears before any [section] header"));
                }
                (Section::Model, "max_depth") => {
                    model.max_depth = small(key)?;
                    at_least_1(key, model.max_depth.into())?;
                }
                (Section::Model, "max_states") => {
                    let max_states = int(key)?;
                    at_least_1(key, max_states)?;
                    model.max_states = usize::try_from(max_states).unwrap_or(usize::MAX);
                }
                (Section::Model, "strict_seq") => model.strict_seq = boolean(key)?,
                (Section::Model, "allow_crash") => model.allow_crash = boolean(key)?,
                (Section::Model, "start_converged") => model.start_converged = boolean(key)?,
                (Section::Model, "subject_mutation") => {
                    model.subject_mutation =
                        spelled(&SubjectMutation::SPELLINGS, value, line, "subject mutation")?;
                }
                (Section::Model, "model_mutation") => {
                    model.model_mutation =
                        spelled(&ModelMutation::SPELLINGS, value, line, "model mutation")?;
                }
                (Section::Sim, "n") => {
                    let n = int(key)?;
                    if n < 2 {
                        return err(line, "n must be at least 2 (a witness and a subject)");
                    }
                    if n > MAX_N as u64 {
                        return err(line, format!("n {n} is above {MAX_N}, the extraction's cap"));
                    }
                    sc.sim.n = n as u32;
                }
                (Section::Sim, "seed") => sc.sim.seed = int(key)?,
                (Section::Sim, "horizon") => {
                    sc.sim.horizon = int(key)?;
                    if sc.sim.horizon == 0 {
                        return err(line, "horizon must be at least 1 tick");
                    }
                }
                (Section::Sim, "delay") => {
                    let tokens: Vec<&str> = value.split_whitespace().collect();
                    sc.sim.delay = DelaySpec::parse_tokens(&tokens, line)?;
                }
                (Section::Sim, "crash") => {
                    let Some((pid, at)) = value.split_once('@') else {
                        return err(line, format!("crash `{value}` is not PID@TICK"));
                    };
                    let pid = pid.trim().parse::<u32>().map_err(|_| ScenarioError {
                        line,
                        message: format!("crash pid: expected an integer, got `{pid}`"),
                    })?;
                    let at = at.trim().parse::<u64>().map_err(|_| ScenarioError {
                        line,
                        message: format!("crash tick: expected an integer, got `{at}`"),
                    })?;
                    if sc.sim.crashes.iter().any(|&(p, _)| p == pid) {
                        return err(line, format!("process {pid} already has a crash scheduled"));
                    }
                    sc.sim.crashes.push((pid, at));
                    crash_lines.push(line);
                }
                (Section::Fuzz, "seed") => sc.fuzz.seed = int(key)?,
                (Section::Fuzz, "iterations") => {
                    sc.fuzz.iterations = int(key)?;
                    at_least_1(key, sc.fuzz.iterations)?;
                }
                (Section::Fuzz, "max_steps") => {
                    sc.fuzz.max_steps = small(key)?;
                    at_least_1(key, sc.fuzz.max_steps.into())?;
                }
                (Section::Fuzz, "corpus_seeds") => sc.fuzz.corpus_seeds = small(key)?,
                (Section::Model, other) => {
                    return err(line, format!("unknown [model] key `{other}`"));
                }
                (Section::Sim, other) => return err(line, format!("unknown [sim] key `{other}`")),
                (Section::Fuzz, other) => {
                    return err(line, format!("unknown [fuzz] key `{other}`"));
                }
            }
        }
        // Cross-field validation: crashes must name real processes.
        for (i, &(pid, _)) in sc.sim.crashes.iter().enumerate() {
            if pid >= sc.sim.n {
                return err(
                    crash_lines[i],
                    format!("crash names process {pid}, but n = {}", sc.sim.n),
                );
            }
        }
        Ok(sc)
    }

    /// Renders the canonical text form: every key, fixed order, so that
    /// `parse(render(s)) == s` and equal scenarios render byte-identically.
    pub fn render(&self) -> String {
        let (model, fuzz) = (&self.fuzz.explore, &self.fuzz);
        let mut out = String::with_capacity(512);
        out.push_str("# dinefd scenario (see crates/fuzz/src/scenario_dsl.rs)\n");
        out.push_str("[model]\n");
        out.push_str(&format!("max_depth = {}\n", model.max_depth));
        out.push_str(&format!("max_states = {}\n", model.max_states));
        out.push_str(&format!("strict_seq = {}\n", model.strict_seq));
        out.push_str(&format!("allow_crash = {}\n", model.allow_crash));
        out.push_str(&format!("start_converged = {}\n", model.start_converged));
        out.push_str(&format!("subject_mutation = {}\n", model.subject_mutation.name()));
        out.push_str(&format!("model_mutation = {}\n", model.model_mutation.name()));
        out.push_str("\n[sim]\n");
        out.push_str(&format!("n = {}\n", self.sim.n));
        out.push_str(&format!("seed = {}\n", self.sim.seed));
        out.push_str(&format!("horizon = {}\n", self.sim.horizon));
        out.push_str(&format!("delay = {}\n", self.sim.delay.render()));
        for &(pid, at) in &self.sim.crashes {
            out.push_str(&format!("crash = {pid}@{at}\n"));
        }
        out.push_str("\n[fuzz]\n");
        out.push_str(&format!("seed = {}\n", fuzz.seed));
        out.push_str(&format!("iterations = {}\n", fuzz.iterations));
        out.push_str(&format!("max_steps = {}\n", fuzz.max_steps));
        out.push_str(&format!("corpus_seeds = {}\n", fuzz.corpus_seeds));
        out
    }

    /// The all-pairs extraction run this document describes: `[sim]`
    /// supplies size, seed, horizon, delay model and crash plan, and
    /// `[model]` its `strict_seq` hardening of the subject.
    pub fn extraction(&self, black_box: BlackBox) -> dinefd_core::Scenario {
        let sim = &self.sim;
        let mut sc = dinefd_core::Scenario::all_pairs(sim.n as usize, black_box, sim.seed);
        sc.delays = sim.delay_model();
        sc.crashes = sim.crash_plan();
        sc.horizon = Time(sim.horizon);
        sc.strict_seq = self.fuzz.explore.strict_seq;
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_explore::ExploreConfig;

    #[test]
    fn default_round_trips() {
        let s = Scenario::default();
        let text = s.render();
        assert_eq!(Scenario::parse(&text).expect("canonical form parses"), s);
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let s = Scenario {
            fuzz: FuzzConfig {
                explore: ExploreConfig {
                    max_depth: 22,
                    max_states: 77,
                    strict_seq: true,
                    allow_crash: false,
                    start_converged: true,
                    por: false,
                    subject_mutation: SubjectMutation::SkipPingDisable,
                    model_mutation: ModelMutation::StaleAckReplay,
                },
                seed: 3,
                iterations: 10,
                max_steps: 7,
                corpus_seeds: 0,
            },
            sim: SimSection {
                n: 6,
                seed: 9,
                horizon: 1_234,
                delay: DelaySpec::Fifo(Box::new(DelaySpec::HeavyTail {
                    lo: 1,
                    hi: 8,
                    spike_num: 1,
                    spike_den: 10,
                    spike_hi: 200,
                })),
                crashes: vec![(5, 600), (0, 100)],
            },
        };
        assert_eq!(Scenario::parse(&s.render()).unwrap(), s);
    }

    #[test]
    fn comments_blank_lines_and_reordering_parse() {
        let text = "\n# leading comment\n[fuzz]\nseed = 5\n\n[model]\n\
                    max_depth = 9 # trailing comment\n[sim]\ndelay = fixed 3\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.fuzz.seed, 5);
        assert_eq!(s.fuzz.explore.max_depth, 9);
        assert_eq!(s.sim.delay, DelaySpec::Fixed(3));
        // Unset keys keep their defaults.
        assert_eq!(s.fuzz.explore.max_states, ExploreConfig::default().max_states);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("[model]\nmax_depth = zero\n", 2, "expected an integer"),
            ("[model]\nstrict_seq = yes\n", 2, "true/false"),
            ("[nope]\n", 1, "unknown section"),
            ("[model]\nwat = 1\n", 2, "unknown [model] key"),
            ("max_depth = 1\n", 1, "before any [section]"),
            ("[sim]\ndelay = warp 9\n", 2, "unknown delay model"),
            ("[sim]\ndelay = uniform 9 3\n", 2, "range is empty"),
            ("[sim]\ndelay = heavy_tail 1 4 2 100\n", 2, "not NUM/DEN"),
            ("[sim]\ndelay = partial_sync 100 0\n", 2, "at least 1"),
            ("[sim]\ndelay = fifo\n", 2, "wraps an inner"),
            ("[sim]\ndelay = fifo fifo fixed 1\n", 2, "redundant"),
            ("[sim]\ncrash = 1-200\n", 2, "not PID@TICK"),
            ("[sim]\ncrash = 1@5\ncrash = 1@9\n", 3, "already has a crash"),
            ("[sim]\nn = 4\n\ncrash = 7@5\n", 4, "but n = 4"),
            ("[sim]\nn = 1\n", 2, "at least 2"),
            ("[model]\nmax_depth =\n", 2, "no value"),
            ("[model\n", 1, "unterminated section"),
            ("[fuzz]\niterations = 0\n", 2, "at least 1"),
        ];
        for (text, want_line, want_msg) in cases {
            let e = Scenario::parse(text).expect_err(text);
            assert_eq!(e.line, *want_line, "wrong line for {text:?}: {e}");
            assert!(e.message.contains(want_msg), "missing `{want_msg}` in `{e}` for {text:?}");
        }
    }

    #[test]
    fn sim_section_builds_world_inputs() {
        let s = Scenario::parse(
            "[sim]\nn = 3\ndelay = partial_sync 500 4\ncrash = 2@900\ncrash = 0@100\n",
        )
        .unwrap();
        let plan = s.sim.crash_plan();
        assert_eq!(plan.crash_time(ProcessId(2)), Some(Time(900)));
        assert_eq!(plan.crash_time(ProcessId(0)), Some(Time(100)));
        assert_eq!(plan.correct(3), vec![ProcessId(1)]);
        let model = s.sim.delay_model();
        assert_eq!(model.kind(), "partial_sync");
        assert_eq!(model.post_gst_bound(Time(500)), Some(4));
        assert_eq!(s.sim.delay_model().kind(), "partial_sync", "builder is reusable");
    }
}
