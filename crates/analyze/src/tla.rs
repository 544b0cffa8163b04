//! TLA+ export of the guarded-command IR.
//!
//! [`render_tla`] pretty-prints the action system of one [`IrConfig`] as a
//! self-contained TLA+ module (`DineFD`), in the style of the classic
//! failure-detector specs: flat `VARIABLES`, one definition per guarded
//! action with an explicit `UNCHANGED` frame, a disjunctive `Next`, and the
//! strengthened lemma conjunction as a checkable invariant `Inv`. The
//! guards, the primed updates, the frames and the clauses are **derived**:
//! a printer implements the value [`Algebra`] the protocol is written over
//! ([`crate::protocol`]), so the very definitions the enumerator executes
//! and the SAT encoding bit-blasts come out as TLA+ text; `Next` lists
//! [`Ir::actions`] one to one. Only the module scaffolding (header,
//! `TypeOK`, `Init`, the saturating-arithmetic operators) is literal text.
//! Feeding the module to TLC therefore cross-validates the one definition
//! against an independent engine: `TLC -invariant Inv DineFD` explores
//! exactly the typed abstract reachable set at `WireCap`.
//!
//! The rendering is **deterministic** — a pure function of the
//! configuration, no timestamps, no hash-ordered iteration — and the
//! faithful-configuration output is committed as a golden file
//! (`golden/DineFD.tla`); `dinefd analyze --emit-tla` must reproduce it
//! byte-for-byte (checked in the test below and in CI).
//!
//! Abstraction nondeterminism carries over: a delivery out of a saturated
//! counter draws its post-count from `SatDecs`, the set-valued spelling of
//! the `choice` input the other two interpretations resolve it with.

use crate::induct::ALL_CLAUSES;
use crate::ir::{AbsState, ActionId, Ir, IrConfig};
use crate::protocol::{self, Algebra, StateOf};
use dinefd_dining::DinerPhase;
use std::fmt::{self, Write as _};

/// Variable names in declaration order (the order is part of the golden
/// surface: `vars`, every primed conjunct, every `UNCHANGED` frame and
/// `TypeOK` all follow it).
const VARS: [&str; 11] = [
    "wPhase",
    "sPhase",
    "switch",
    "haveping",
    "suspect",
    "trigger",
    "pingEnabled",
    "converged",
    "crashed",
    "pings",
    "acks",
];

/// How the two dining instances are spelled: the protocol is uniform in the
/// instance, so rendering instance 0 as the parameter `i` (and instance 1
/// as `1 - i`) turns one instance's guard and update into the parametric
/// TLA+ definition, and a quantifier body into its bound form.
const INSTANCE: [&str; 2] = ["i", "1 - i"];

/// The name a saturated decrement's nondeterministic result is bound to.
const DRAWN: &str = "d";

/// A TLA+ expression, with just enough structure to negate and
/// parenthesize idiomatically.
#[derive(Clone, Debug, PartialEq)]
enum Tla {
    Const(bool),
    /// Binds tighter than every connective: a variable, literal or
    /// operator application.
    Atom(String),
    /// `lhs op rhs` for a relational operator (`=` negates to `#`).
    Rel(String, &'static str, String),
    Not(Box<Tla>),
    And(Vec<Tla>),
    Or(Vec<Tla>),
    /// `\A` / `\E` over the instance parameter.
    Quant(&'static str, Box<Tla>),
}

impl Tla {
    fn rel(lhs: &Tla, op: &'static str, rhs: &Tla) -> Tla {
        Tla::Rel(lhs.to_string(), op, rhs.to_string())
    }

    /// The n-ary connective whose unit is `unit` (`true`: conjunction):
    /// units vanish, the absorbing constant wins, a single operand stands
    /// for itself.
    fn connect(xs: &[&Tla], unit: bool) -> Tla {
        let mut kept = Vec::with_capacity(xs.len());
        for &x in xs {
            match x {
                Tla::Const(c) if *c == unit => {}
                Tla::Const(_) => return Tla::Const(!unit),
                _ => kept.push(x.clone()),
            }
        }
        match kept.len() {
            0 => Tla::Const(unit),
            1 => kept.remove(0),
            _ if unit => Tla::And(kept),
            _ => Tla::Or(kept),
        }
    }

    /// The top-level conjuncts, for a bulleted `/\` list.
    fn conjuncts(&self) -> &[Tla] {
        match self {
            Tla::And(xs) => xs,
            Tla::Const(true) => &[],
            x => std::slice::from_ref(x),
        }
    }
}

impl fmt::Display for Tla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `/\` and `\/` do not mix unparenthesized, and a quantifier
        // extends as far right as it can.
        let operands = |xs: &[Tla], op: &str| {
            let shown: Vec<String> = xs
                .iter()
                .map(|x| match x {
                    Tla::And(_) | Tla::Or(_) | Tla::Quant(..) => format!("({x})"),
                    _ => x.to_string(),
                })
                .collect();
            shown.join(op)
        };
        match self {
            Tla::Const(true) => f.write_str("TRUE"),
            Tla::Const(false) => f.write_str("FALSE"),
            Tla::Atom(text) => f.write_str(text),
            Tla::Rel(lhs, op, rhs) => write!(f, "{lhs} {op} {rhs}"),
            Tla::Not(x) if matches!(**x, Tla::Atom(_)) => write!(f, "~{x}"),
            Tla::Not(x) => write!(f, "~({x})"),
            Tla::And(xs) => f.write_str(&operands(xs, " /\\ ")),
            Tla::Or(xs) => f.write_str(&operands(xs, " \\/ ")),
            Tla::Quant(q, body) => write!(f, "{q} i \\in I : {body}"),
        }
    }
}

/// The printer interpretation of the protocol's value algebra: every
/// operation builds TLA+ text.
#[derive(Debug, Default)]
struct Printer {
    /// The binder of [`DRAWN`], once the action has performed its saturated
    /// decrement.
    binder: String,
}

impl Algebra for Printer {
    type Bool = Tla;
    type Phase = Tla;
    type Sel = Tla;
    type Count = Tla;

    fn constant(&mut self, v: bool) -> Tla {
        Tla::Const(v)
    }
    fn not(&mut self, x: &Tla) -> Tla {
        match x {
            Tla::Const(c) => Tla::Const(!c),
            Tla::Rel(lhs, "=", rhs) => Tla::Rel(lhs.clone(), "#", rhs.clone()),
            _ => Tla::Not(Box::new(x.clone())),
        }
    }
    fn all(&mut self, xs: &[&Tla]) -> Tla {
        Tla::connect(xs, true)
    }
    fn any(&mut self, xs: &[&Tla]) -> Tla {
        Tla::connect(xs, false)
    }
    fn for_all(&mut self, mut f: impl FnMut(&mut Self, usize) -> Tla) -> Tla {
        Tla::Quant("\\A", Box::new(f(self, 0)))
    }
    fn exists(&mut self, mut f: impl FnMut(&mut Self, usize) -> Tla) -> Tla {
        Tla::Quant("\\E", Box::new(f(self, 0)))
    }
    fn phase(&mut self, p: DinerPhase) -> Tla {
        Tla::Atom(format!("\"{p}\""))
    }
    fn phase_is(&mut self, x: &Tla, p: DinerPhase) -> Tla {
        Tla::rel(x, "=", &self.phase(p))
    }
    fn side(&mut self, i: usize) -> Tla {
        Tla::Atom(INSTANCE[i].to_string())
    }
    fn sel_is(&mut self, x: &Tla, i: usize) -> Tla {
        Tla::rel(x, "=", &self.side(i))
    }
    fn zero(&mut self, _cap: u8) -> Tla {
        Tla::Atom("0".to_string())
    }
    fn nonzero(&mut self, c: &Tla) -> Tla {
        Tla::Rel(c.to_string(), ">", "0".to_string())
    }
    fn sum_le(&mut self, a: &Tla, b: &Tla, k: u8) -> Tla {
        Tla::Rel(format!("{a} + {b}"), "<=", k.to_string())
    }
    fn sat_inc(&mut self, c: &Tla, _cap: u8) -> Tla {
        Tla::Atom(format!("SatInc({c})"))
    }
    /// TLA+ says "either" with a set, not a choice bit: the result is
    /// [`DRAWN`] from `SatDecs(c)`, bound where the update is printed.
    fn sat_dec(&mut self, c: &Tla, _cap: u8, _choice: &Tla) -> Tla {
        self.binder = format!("\\E {DRAWN} \\in SatDecs({c}) : ");
        Tla::Atom(DRAWN.to_string())
    }
    fn select(&mut self, cond: &Tla, then_c: &Tla, else_c: &Tla) -> Tla {
        Tla::Atom(format!("IF {cond} THEN {then_c} ELSE {else_c}"))
    }
}

/// The state the printer reads: every variable by name, arrays cell by
/// cell under the [`INSTANCE`] spelling.
fn variables() -> StateOf<Printer> {
    let scalar = |v: &str| Tla::Atom(v.to_string());
    let cells = |v: &str| INSTANCE.map(|i| Tla::Atom(format!("{v}[{i}]")));
    let [w_phase, s_phase, switch, haveping, suspect, trigger, ping, converged, crashed, pings, acks] =
        VARS;
    AbsState {
        w_phase: cells(w_phase),
        s_phase: cells(s_phase),
        switch: scalar(switch),
        haveping: cells(haveping),
        suspect: scalar(suspect),
        trigger: scalar(trigger),
        ping_enabled: cells(ping),
        converged: scalar(converged),
        crashed: scalar(crashed),
        pings: cells(pings),
        acks: cells(acks),
    }
}

/// The cells of every variable of `s`, in [`VARS`] order.
fn cells(s: &StateOf<Printer>) -> [&[Tla]; 11] {
    use std::slice::from_ref;
    [
        &s.w_phase,
        &s.s_phase,
        from_ref(&s.switch),
        &s.haveping,
        from_ref(&s.suspect),
        from_ref(&s.trigger),
        &s.ping_enabled,
        from_ref(&s.converged),
        from_ref(&s.crashed),
        &s.pings,
        &s.acks,
    ]
}

/// Appends the definition of `id`'s action: the guard's conjuncts, one
/// primed conjunct per variable whose post-state cells differ from the
/// pre-state's, and everything else in the `UNCHANGED` frame.
fn push_action(out: &mut String, cfg: &IrConfig, id: ActionId) {
    let mut printer = Printer::default();
    let pre = variables();
    let guard = protocol::guard(&mut printer, cfg, &pre, id);
    // The printer resolves a saturated decrement with `SatDecs`, not with
    // the choice input, so any value will do for it.
    let post = protocol::update(&mut printer, cfg, &pre, id, &Tla::Const(false));
    let _ = writeln!(out, "{} ==", format!("{id:?}").replace("(0)", "(i)"));
    for conjunct in guard.conjuncts() {
        let _ = writeln!(out, "    /\\ {conjunct}");
    }
    let mut unchanged = Vec::new();
    for ((var, before), after) in VARS.iter().zip(cells(&pre)).zip(cells(&post)) {
        let changed: Vec<usize> = (0..before.len()).filter(|&k| before[k] != after[k]).collect();
        if changed.is_empty() {
            unchanged.push(*var);
            continue;
        }
        let value = if before.len() == 1 {
            after[0].to_string()
        } else if changed.len() == 2 && after[0] == after[1] {
            format!("[i \\in I |-> {}]", after[0])
        } else {
            let edits: Vec<String> =
                changed.iter().map(|&k| format!("![{}] = {}", INSTANCE[k], after[k])).collect();
            format!("[{var} EXCEPT {}]", edits.join(", "))
        };
        let drawn = changed.iter().any(|&k| after[k] == Tla::Atom(DRAWN.to_string()));
        let binder = if drawn { printer.binder.as_str() } else { "" };
        let _ = writeln!(out, "    /\\ {binder}{var}' = {value}");
    }
    let _ = writeln!(out, "    /\\ UNCHANGED << {} >>", unchanged.join(", "));
    let _ = writeln!(out);
}

/// Renders `cfg`'s action system as the TLA+ module `DineFD`. Pure and
/// deterministic: identical configurations render identical bytes.
pub fn render_tla(cfg: &IrConfig) -> String {
    let ir = Ir::new(*cfg);
    let mut out = String::new();
    let _ =
        writeln!(out, "---------------------------- MODULE DineFD ----------------------------");
    let _ = writeln!(out, "(* Generated by dinefd-analyze from the guarded-command IR.");
    let _ = writeln!(
        out,
        "   Configuration: strict_seq={} allow_crash={} subject_mutation={:?}",
        cfg.strict_seq, cfg.allow_crash, cfg.subject_mutation
    );
    let _ = writeln!(
        out,
        "                  model_mutation={:?} wire_cap={}",
        cfg.model_mutation, cfg.wire_cap
    );
    let _ =
        writeln!(out, "   The abstract closed pair model of the corrigendum: witness p (Alg. 1)");
    let _ =
        writeln!(out, "   and subject q (Alg. 2) over two dining instances DX_0, DX_1, with the");
    let _ =
        writeln!(out, "   in-flight DX_i pings/acks abstracted to counters saturating at WireCap.");
    let _ = writeln!(out, "   Check with:  TLC -invariant Inv DineFD  *)");
    let _ = writeln!(out);
    let _ = writeln!(out, "EXTENDS Integers, FiniteSets");
    let _ = writeln!(out);
    let _ = writeln!(out, "I == 0..1");
    let _ = writeln!(out, "WireCap == {}", cfg.wire_cap);
    let _ = writeln!(out, "Phase == {{ \"thinking\", \"hungry\", \"eating\" }}");
    let _ = writeln!(out);
    let _ = writeln!(out, "VARIABLES {}", VARS.join(", "));
    let _ = writeln!(out);
    let _ = writeln!(out, "vars == << {} >>", VARS.join(", "));
    let _ = writeln!(out);
    let _ = writeln!(out, "(* Saturating wire arithmetic: WireCap means \"at least WireCap in");
    let _ = writeln!(out, "   flight\", so a delivery out of a saturated counter may leave it");
    let _ = writeln!(out, "   saturated -- the abstraction's only nondeterminism. *)");
    let _ = writeln!(out, "SatInc(c) == IF c < WireCap THEN c + 1 ELSE WireCap");
    let _ = writeln!(
        out,
        "SatDecs(c) == IF c = WireCap THEN {{ WireCap - 1, WireCap }} ELSE {{ c - 1 }}"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "TypeOK ==");
    let _ = writeln!(out, "    /\\ wPhase \\in [I -> Phase]");
    let _ = writeln!(out, "    /\\ sPhase \\in [I -> Phase]");
    let _ = writeln!(out, "    /\\ switch \\in I");
    let _ = writeln!(out, "    /\\ haveping \\in [I -> BOOLEAN]");
    let _ = writeln!(out, "    /\\ suspect \\in BOOLEAN");
    let _ = writeln!(out, "    /\\ trigger \\in I");
    let _ = writeln!(out, "    /\\ pingEnabled \\in [I -> BOOLEAN]");
    let _ = writeln!(out, "    /\\ converged \\in BOOLEAN");
    let _ = writeln!(out, "    /\\ crashed \\in BOOLEAN");
    let _ = writeln!(out, "    /\\ pings \\in [I -> 0..WireCap]");
    let _ = writeln!(out, "    /\\ acks \\in [I -> 0..WireCap]");
    let _ = writeln!(out);
    let _ = writeln!(out, "Init ==");
    let _ = writeln!(out, "    /\\ wPhase = [i \\in I |-> \"thinking\"]");
    let _ = writeln!(out, "    /\\ sPhase = [i \\in I |-> \"thinking\"]");
    let _ = writeln!(out, "    /\\ switch = 0");
    let _ = writeln!(out, "    /\\ haveping = [i \\in I |-> FALSE]");
    let _ = writeln!(out, "    /\\ suspect = TRUE");
    let _ = writeln!(out, "    /\\ trigger = 0");
    let _ = writeln!(out, "    /\\ pingEnabled = [i \\in I |-> TRUE]");
    let _ = writeln!(out, "    /\\ converged = FALSE");
    let _ = writeln!(out, "    /\\ crashed = FALSE");
    let _ = writeln!(out, "    /\\ pings = [i \\in I |-> 0]");
    let _ = writeln!(out, "    /\\ acks = [i \\in I |-> 0]");
    let _ = writeln!(out);
    for a in ir.actions() {
        // Instance 1 of a family shares instance 0's parametric definition.
        if !format!("{:?}", a.id).ends_with("(1)") {
            push_action(&mut out, cfg, a.id);
        }
    }
    let _ = writeln!(out, "Next ==");
    for a in ir.actions() {
        let _ = writeln!(out, "    \\/ {:?}", a.id);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "(* The paper's safety lemmas (Lemmas 2-4, 9, exclusion soundness) and");
    let _ = writeln!(out, "   the strengthening clauses that make them inductive -- the same");
    let _ = writeln!(out, "   conjunction crates/analyze proves by enumeration and by SAT. *)");
    let (mut printer, state) = (Printer::default(), variables());
    for c in ALL_CLAUSES {
        let _ = writeln!(out, "{c:?} == {}", protocol::clause(&mut printer, &state, c));
    }
    let _ = writeln!(out);
    let names: Vec<String> = ALL_CLAUSES.iter().map(|c| format!("{c:?}")).collect();
    let _ = writeln!(out, "Inv == TypeOK /\\ {}", names.join(" /\\ "));
    let _ = writeln!(out);
    let _ = writeln!(out, "Spec == Init /\\ [][Next]_vars");
    let _ = writeln!(out);
    let _ = writeln!(out, "THEOREM Spec => []Inv");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "============================================================================="
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed golden module for the faithful configuration: the CLI's
    /// `--emit-tla` output and CI both diff against it byte-for-byte.
    const GOLDEN: &str = include_str!("../golden/DineFD.tla");

    #[test]
    fn faithful_module_matches_the_committed_golden() {
        let rendered = render_tla(&IrConfig::faithful());
        if std::env::var_os("DINEFD_REGEN_GOLDEN").is_some() {
            // Regeneration hook: write the new module, then re-run without
            // the variable so the compiled-in copy is compared fresh.
            std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/DineFD.tla"), &rendered)
                .expect("write golden");
        }
        assert_eq!(rendered, GOLDEN, "golden drift: rerun with DINEFD_REGEN_GOLDEN=1");
    }

    /// Every configuration of the test matrix at the smallest and largest
    /// wire cap.
    fn matrix() -> impl Iterator<Item = IrConfig> {
        [2, 8].into_iter().flat_map(|wire_cap| {
            crate::ir::config_matrix().into_iter().map(move |cfg| IrConfig { wire_cap, ..cfg })
        })
    }

    #[test]
    fn rendering_is_deterministic() {
        for cfg in matrix() {
            assert_eq!(render_tla(&cfg), render_tla(&cfg), "{cfg:?}");
        }
    }

    #[test]
    fn next_lists_exactly_the_actions_of_the_ir() {
        for cfg in matrix() {
            let module = render_tla(&cfg);
            let (_, after) = module.split_once("Next ==\n").expect("Next definition");
            let disjuncts: Vec<&str> =
                after.lines().map_while(|l| l.strip_prefix("    \\/ ")).collect();
            let ir = Ir::new(cfg);
            let actions: Vec<String> = ir.actions().iter().map(|a| format!("{:?}", a.id)).collect();
            assert_eq!(disjuncts, actions, "{cfg:?}");
            for name in &actions {
                let head = name.replace("(0)", "(i)").replace("(1)", "(i)");
                assert!(module.contains(&format!("\n{head} ==\n")), "{cfg:?}: {head} undefined");
            }
        }
    }

    #[test]
    fn config_knobs_change_the_module() {
        use dinefd_core::machines::SubjectMutation;
        let faithful = render_tla(&IrConfig::faithful());
        let strict = render_tla(&IrConfig { strict_seq: true, ..IrConfig::faithful() });
        assert!(strict.contains("DeliverStaleAck"));
        assert!(!faithful.contains("DeliverStaleAck"));
        let mutated = render_tla(&IrConfig {
            subject_mutation: SubjectMutation::SkipTriggerUpdate,
            ..IrConfig::faithful()
        });
        assert!(!mutated.contains("trigger' = 1 - i"));
        assert!(faithful.contains("trigger' = 1 - i"));
        let cap4 = render_tla(&IrConfig { wire_cap: 4, ..IrConfig::faithful() });
        assert!(cap4.contains("WireCap == 4"));
    }

    #[test]
    fn every_variable_is_framed_in_every_action() {
        // Each action definition must mention every variable exactly once as
        // either primed or UNCHANGED (a malformed frame is how TLA+ specs rot).
        for cfg in matrix() {
            let module = render_tla(&cfg);
            for block in module.split("\n\n").filter(|b| b.contains("UNCHANGED")) {
                for v in super::VARS {
                    let primed = block.contains(&format!("{v}' ="));
                    let frame_line =
                        block.lines().find(|l| l.contains("UNCHANGED")).expect("frame line");
                    let framed = frame_line.contains(v);
                    assert!(primed ^ framed, "{v} must be primed XOR framed in:\n{block}");
                }
            }
        }
    }
}
