//! The scenario DSL: one text document for the fuzzer and the explorer.
//!
//! A document writes a [`FuzzConfig`] as one diffable file, and parsing
//! fills it directly:
//!
//! * `[model]` is [`FuzzConfig::explore`], the pair model that
//!   [`dinefd_explore::explore`] searches and the fuzzer walks;
//! * `[fuzz]` is the rest of the [`FuzzConfig`], the fuzzer's budgets.
//!
//! The format is deliberately small: `#` comments, `[section]` headers, and
//! `key = value` lines. [`parse`] validates everything it reads and reports
//! failures as [`ScenarioError`]s carrying the **1-based line number**;
//! [`render`] writes the canonical form (every key, fixed order), so
//! `parse(render(c)) == c` holds exactly for every valid configuration
//! (property-tested in `crates/fuzz/tests/proptest_dsl.rs`).
//!
//! ```
//! use dinefd_fuzz::{scenario_dsl, FuzzConfig};
//!
//! let cfg = FuzzConfig::default();
//! let text = scenario_dsl::render(&cfg);
//! assert_eq!(scenario_dsl::parse(&text).unwrap(), cfg);
//! assert!(scenario_dsl::parse("[model]\nmax_depth = zero\n").is_err());
//! assert!(scenario_dsl::parse("[sim]\n").is_err());
//! ```

use std::fmt;

use dinefd_core::machines::SubjectMutation;
use dinefd_explore::ModelMutation;

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

/// Parses the DSL text into a [`FuzzConfig`]. Sections and keys may appear
/// in any order and may be omitted (defaults apply); unknown sections,
/// unknown keys and malformed values are rejected with the offending line
/// number.
pub fn parse(text: &str) -> Result<FuzzConfig, ScenarioError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        Preamble,
        Model,
        Fuzz,
    }
    let mut cfg = FuzzConfig::default();
    let mut section = Section::Preamble;
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
        let model = &mut cfg.explore;
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
            (Section::Fuzz, "seed") => cfg.seed = int(key)?,
            (Section::Fuzz, "iterations") => {
                cfg.iterations = int(key)?;
                at_least_1(key, cfg.iterations)?;
            }
            (Section::Fuzz, "max_steps") => {
                cfg.max_steps = small(key)?;
                at_least_1(key, cfg.max_steps.into())?;
            }
            (Section::Fuzz, "corpus_seeds") => cfg.corpus_seeds = small(key)?,
            (Section::Model, other) => {
                return err(line, format!("unknown [model] key `{other}`"));
            }
            (Section::Fuzz, other) => {
                return err(line, format!("unknown [fuzz] key `{other}`"));
            }
        }
    }
    Ok(cfg)
}

/// Renders the canonical text form: every key, fixed order, so that
/// `parse(render(c)) == c` and equal configurations render byte-identically.
pub fn render(cfg: &FuzzConfig) -> String {
    let model = &cfg.explore;
    let mut out = String::with_capacity(384);
    out.push_str("# dinefd scenario (see crates/fuzz/src/scenario_dsl.rs)\n");
    out.push_str("[model]\n");
    out.push_str(&format!("max_depth = {}\n", model.max_depth));
    out.push_str(&format!("max_states = {}\n", model.max_states));
    out.push_str(&format!("strict_seq = {}\n", model.strict_seq));
    out.push_str(&format!("allow_crash = {}\n", model.allow_crash));
    out.push_str(&format!("start_converged = {}\n", model.start_converged));
    out.push_str(&format!("subject_mutation = {}\n", model.subject_mutation.name()));
    out.push_str(&format!("model_mutation = {}\n", model.model_mutation.name()));
    out.push_str("\n[fuzz]\n");
    out.push_str(&format!("seed = {}\n", cfg.seed));
    out.push_str(&format!("iterations = {}\n", cfg.iterations));
    out.push_str(&format!("max_steps = {}\n", cfg.max_steps));
    out.push_str(&format!("corpus_seeds = {}\n", cfg.corpus_seeds));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_explore::ExploreConfig;

    #[test]
    fn default_round_trips() {
        let cfg = FuzzConfig::default();
        assert_eq!(parse(&render(&cfg)).expect("canonical form parses"), cfg);
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let cfg = FuzzConfig {
            explore: ExploreConfig {
                max_depth: 22,
                max_states: 77,
                strict_seq: true,
                allow_crash: false,
                start_converged: true,
                subject_mutation: SubjectMutation::SkipPingDisable,
                model_mutation: ModelMutation::StaleAckReplay,
            },
            seed: 3,
            iterations: 10,
            max_steps: 7,
            corpus_seeds: 0,
        };
        assert_eq!(parse(&render(&cfg)).unwrap(), cfg);
    }

    #[test]
    fn comments_blank_lines_and_reordering_parse() {
        let text = "\n# leading comment\n[fuzz]\nseed = 5\n\n[model]\n\
                    max_depth = 9 # trailing comment\n";
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.explore.max_depth, 9);
        // Unset keys keep their defaults.
        assert_eq!(cfg.explore.max_states, ExploreConfig::default().max_states);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("[model]\nmax_depth = zero\n", 2, "expected an integer"),
            ("[model]\nstrict_seq = yes\n", 2, "true/false"),
            ("[nope]\n", 1, "unknown section"),
            ("[model]\n\n[sim]\ndelay = fixed 3\n", 3, "unknown section `[sim]`"),
            ("[model]\nwat = 1\n", 2, "unknown [model] key"),
            ("max_depth = 1\n", 1, "before any [section]"),
            ("[model]\nmax_depth =\n", 2, "no value"),
            ("[model\n", 1, "unterminated section"),
            ("[fuzz]\niterations = 0\n", 2, "at least 1"),
        ];
        for (text, want_line, want_msg) in cases {
            let e = parse(text).expect_err(text);
            assert_eq!(e.line, *want_line, "wrong line for {text:?}: {e}");
            assert!(e.message.contains(want_msg), "missing `{want_msg}` in `{e}` for {text:?}");
        }
    }
}
