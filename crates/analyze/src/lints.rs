//! Static lint passes over the guarded-command IR and the machines' codecs.
//!
//! Five independent checks, each a semantic property the correctness
//! argument quietly assumes but nothing else in the repo verifies:
//!
//! 1. **Guard disjointness** — within each *machine-local* action family
//!    (`W_h`, `W_x`, `S_h`, `S_p`, `S_x`), the two instances' guards must be
//!    mutually exclusive on every state satisfying the strengthened
//!    invariant. The paper's regime argument assumes one instance is "in
//!    charge" at a time; an overlap means two competing local steps are
//!    simultaneously enabled (e.g. `IgnoreTriggerGuard` makes both `S_h`
//!    guards true at once). Wire/service families legitimately overlap and
//!    are exempt.
//! 2. **Dead guards** — every action in the IR's table must be enabled in
//!    at least one invariant-satisfying typed state. A dead guard is a
//!    transcription bug: the IR claims to model a rule that can never fire.
//! 3. **Duplicate-delivery idempotence** — the machine-state effect of the
//!    ping handler (`W_p`) and the ack handler (`S_a`) must be idempotent:
//!    delivering the same message twice must leave the machine bits where
//!    one delivery left them. The corrigendum's whole point is surviving
//!    message anomalies; the handlers are the line of defense.
//! 4. **Codec codomain completeness** — `WitnessMachine::unpack` accepts
//!    exactly the 16 packed bytes `pack` can produce, the subject's flag
//!    byte exactly the 64 valid patterns, and both round-trip.
//! 5. **Guard completeness** — the dual of disjointness: on every
//!    invariant-satisfying typed state, (a) an in-flight ping has its
//!    delivery action enabled (the witness is always live to receive), (b)
//!    an in-flight ack has *some* consumer enabled — a live subject accepts
//!    or (strict mode) rejects it, and a crashed subject is the documented
//!    drop rule — and (c) **crashed progress**: once `q` has crashed, some
//!    action is still enabled — the witness side must never wedge, because
//!    its continued cycling is what drives eventual suspicion (Theorem 1's
//!    completeness direction). (The unrestricted no-deadlock claim is
//!    deliberately *not* checked: the typed invariant set over-approximates
//!    reachability and contains wedged-modulo-crash states no concrete run
//!    visits.) A completeness hole means the transition relation
//!    under-approximates the wire, which would let the inductive checker
//!    "prove" lemmas the real system can still break.
//!
//! Lints are *warnings with evidence*: each finding carries a concrete
//! witness state, so a red lint is directly debuggable.

use crate::induct::clause_mask;
use crate::induct::ALL_CLAUSES;
use crate::ir::{family, AbsState, ActionId, Ir, IrConfig};
use dinefd_core::machines::{SubjectMachine, WitnessMachine};

/// A guard-overlap finding: both instances of one family enabled at once.
#[derive(Clone, Debug)]
pub struct OverlapFinding {
    /// The action family (e.g. `"S_h"`).
    pub family: &'static str,
    /// A witness state satisfying the strengthened invariant with both
    /// instances' guards true.
    pub witness: AbsState,
}

/// A dead-guard finding: the action is never enabled on the invariant.
#[derive(Clone, Debug)]
pub struct DeadGuardFinding {
    /// The dead action.
    pub action: ActionId,
    /// Its display name.
    pub name: &'static str,
}

/// A non-idempotent handler finding.
#[derive(Clone, Debug)]
pub struct IdempotenceFinding {
    /// `"W_p"` or `"S_a"`.
    pub handler: &'static str,
    /// The instance index.
    pub instance: usize,
    /// Debug rendering of the state the double delivery diverged from.
    pub witness: String,
}

/// Codec codomain findings (counts; zero everywhere = green).
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecFindings {
    /// Bytes `WitnessMachine::unpack` accepted outside `pack`'s image.
    pub witness_extra: u32,
    /// Bytes in `pack`'s image that `unpack` rejected or mis-round-tripped.
    pub witness_missing: u32,
    /// Flag bytes `SubjectMachine::unpack` accepted outside the valid set.
    pub subject_extra: u32,
    /// Valid subject flag bytes rejected or mis-round-tripped.
    pub subject_missing: u32,
}

impl CodecFindings {
    /// Whether the codecs are exactly onto their documented codomains.
    pub fn clean(&self) -> bool {
        self.witness_extra == 0
            && self.witness_missing == 0
            && self.subject_extra == 0
            && self.subject_missing == 0
    }
}

/// A guard-completeness finding: an obligation the transition relation
/// fails to discharge on an invariant-satisfying state.
#[derive(Clone, Debug)]
pub struct CompletenessFinding {
    /// Which completeness rule broke (`"ping-without-handler"`,
    /// `"ack-without-consumer"`, or `"crashed-deadlock"`).
    pub rule: &'static str,
    /// The instance index, where the rule is per-instance.
    pub instance: Option<usize>,
    /// The first witness state in enumeration order.
    pub witness: AbsState,
}

/// The combined outcome of all five lint passes.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Guard overlaps within machine-local families.
    pub overlaps: Vec<OverlapFinding>,
    /// Actions with unsatisfiable guards.
    pub dead_guards: Vec<DeadGuardFinding>,
    /// Non-idempotent duplicate deliveries.
    pub idempotence: Vec<IdempotenceFinding>,
    /// Codec codomain audit.
    pub codec: CodecFindings,
    /// Guard-completeness holes (undeliverable messages, deadlocks).
    pub completeness: Vec<CompletenessFinding>,
}

impl LintReport {
    /// Whether every pass is green.
    pub fn clean(&self) -> bool {
        self.overlaps.is_empty()
            && self.dead_guards.is_empty()
            && self.idempotence.is_empty()
            && self.codec.clean()
            && self.completeness.is_empty()
    }

    /// Total finding count (the metric the bench table reports).
    pub fn finding_count(&self) -> u64 {
        self.overlaps.len() as u64
            + self.dead_guards.len() as u64
            + self.idempotence.len() as u64
            + u64::from(self.codec.witness_extra)
            + u64::from(self.codec.witness_missing)
            + u64::from(self.codec.subject_extra)
            + u64::from(self.codec.subject_missing)
            + self.completeness.len() as u64
    }
}

/// The machine-local families whose two instance guards must be disjoint.
const EXCLUSIVE_FAMILIES: [&str; 5] = ["W_h", "W_x", "S_h", "S_p", "S_x"];

/// Runs all five lint passes for `cfg`.
pub fn run_lints(cfg: &IrConfig) -> LintReport {
    let ir = Ir::new(*cfg);
    let (overlaps, dead_guards, completeness) = guard_lints(&ir);
    LintReport {
        overlaps,
        dead_guards,
        idempotence: idempotence_lint(cfg),
        codec: codec_lint(),
        completeness,
    }
}

/// One sweep of the typed domain computing the guard lints: for each
/// exclusive family, the first invariant state with both instances enabled;
/// for each action, whether any invariant state enables it; and for each
/// completeness rule, the first invariant state violating it. (The first
/// two resolve early; completeness is a universal claim, so a clean run
/// necessarily visits the whole invariant set.)
fn guard_lints(ir: &Ir) -> (Vec<OverlapFinding>, Vec<DeadGuardFinding>, Vec<CompletenessFinding>) {
    let all: u16 = (1 << ALL_CLAUSES.len()) - 1;
    let mut overlap: Vec<Option<AbsState>> = vec![None; EXCLUSIVE_FAMILIES.len()];
    let mut alive: Vec<bool> = vec![false; ir.actions().len()];
    let mut outstanding = EXCLUSIVE_FAMILIES.len() + ir.actions().len();
    // Completeness witnesses: ping-without-handler per instance,
    // ack-without-consumer per instance, crashed-state deadlock.
    let mut no_ping_handler: [Option<AbsState>; 2] = [None, None];
    let mut no_ack_consumer: [Option<AbsState>; 2] = [None, None];
    let mut deadlock: Option<AbsState> = None;
    crate::induct::for_each_typed_state_cap(ir.cfg.wire_cap, |s| {
        if clause_mask(s) != all {
            return;
        }
        if outstanding > 0 {
            for (k, a) in ir.actions().iter().enumerate() {
                if !alive[k] && ir.enabled(s, a.id) {
                    alive[k] = true;
                    outstanding -= 1;
                }
            }
            for (k, fam) in EXCLUSIVE_FAMILIES.iter().enumerate() {
                if overlap[k].is_some() {
                    continue;
                }
                let both = ir
                    .actions()
                    .iter()
                    .filter(|a| family(a.id) == *fam && ir.enabled(s, a.id))
                    .count();
                if both >= 2 {
                    overlap[k] = Some(*s);
                    outstanding -= 1;
                }
            }
        }
        if s.crashed && deadlock.is_none() {
            let mut any_enabled = false;
            for a in ir.actions() {
                if ir.enabled(s, a.id) {
                    any_enabled = true;
                    break;
                }
            }
            if !any_enabled {
                deadlock = Some(*s);
            }
        }
        for i in 0..2usize {
            if s.pings[i] > 0
                && no_ping_handler[i].is_none()
                && !ir.enabled(s, ActionId::DeliverPing(i))
            {
                no_ping_handler[i] = Some(*s);
            }
            if s.acks[i] > 0 && no_ack_consumer[i].is_none() && !s.crashed {
                let consumed = ir.enabled(s, ActionId::DeliverAck(i))
                    || ir.enabled(s, ActionId::DeliverStaleAck(i))
                    || ir.enabled(s, ActionId::DuplicateAck(i));
                if !consumed {
                    no_ack_consumer[i] = Some(*s);
                }
            }
        }
    });
    let overlaps = EXCLUSIVE_FAMILIES
        .iter()
        .zip(&overlap)
        .filter_map(|(fam, w)| w.map(|witness| OverlapFinding { family: fam, witness }))
        .collect();
    let dead = ir
        .actions()
        .iter()
        .zip(&alive)
        .filter(|&(_, &ok)| !ok)
        .map(|(a, _)| DeadGuardFinding { action: a.id, name: a.name })
        .collect();
    let mut completeness = Vec::new();
    for (i, w) in no_ping_handler.iter().enumerate() {
        if let Some(witness) = w {
            completeness.push(CompletenessFinding {
                rule: "ping-without-handler",
                instance: Some(i),
                witness: *witness,
            });
        }
    }
    for (i, w) in no_ack_consumer.iter().enumerate() {
        if let Some(witness) = w {
            completeness.push(CompletenessFinding {
                rule: "ack-without-consumer",
                instance: Some(i),
                witness: *witness,
            });
        }
    }
    if let Some(witness) = deadlock {
        completeness.push(CompletenessFinding {
            rule: "crashed-deadlock",
            instance: None,
            witness,
        });
    }
    (overlaps, dead, completeness)
}

/// Double-delivery idempotence of the machine handlers, swept over the
/// machines' full packed domains (16 witness states × 2 instances for
/// `W_p`; 64 subject flag states × 2 instances for `S_a`).
fn idempotence_lint(cfg: &IrConfig) -> Vec<IdempotenceFinding> {
    let mut findings = Vec::new();
    // W_p(i): haveping_i ← true. Ack emission is a wire effect, out of
    // scope here (the wire is audited by the inductive checker instead).
    for b in 0u8..16 {
        let w = WitnessMachine::unpack(b).expect("4-bit codomain");
        for i in 0..2usize {
            let mut once = w.clone();
            let _ = once.on_ping(i, 1);
            let mut twice = once.clone();
            let _ = twice.on_ping(i, 1);
            if once != twice {
                findings.push(IdempotenceFinding {
                    handler: "W_p",
                    instance: i,
                    witness: format!("{w:?}"),
                });
            }
        }
    }
    // S_a(i): trigger ← 1-i (or nothing, under SkipTriggerUpdate / a stale
    // sequence number). Replaying the same ack must change nothing more.
    for trigger in 0..2usize {
        for pe0 in [false, true] {
            for pe1 in [false, true] {
                for i in 0..2usize {
                    let mk = || {
                        SubjectMachine::from_parts(
                            trigger,
                            [pe0, pe1],
                            [1, 1],
                            cfg.strict_seq,
                            cfg.subject_mutation,
                        )
                    };
                    let mut once = mk();
                    once.on_ack(i, 1);
                    let mut twice = mk();
                    twice.on_ack(i, 1);
                    twice.on_ack(i, 1);
                    if once.flag_bits() != twice.flag_bits() {
                        findings.push(IdempotenceFinding {
                            handler: "S_a",
                            instance: i,
                            witness: format!("trigger={trigger} pe=[{pe0},{pe1}]"),
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Pack/unpack codomain audit of both machine codecs.
fn codec_lint() -> CodecFindings {
    let mut f = CodecFindings::default();
    // Witness: the image of `pack` is exactly the 16 bytes with the high
    // nibble clear; `unpack` must accept exactly those and round-trip.
    for b in 0u16..=255 {
        let b = b as u8;
        let in_image = b & 0xF0 == 0;
        match WitnessMachine::unpack(b) {
            Some(w) => {
                if !in_image || w.pack() != b {
                    if in_image {
                        f.witness_missing += 1;
                    } else {
                        f.witness_extra += 1;
                    }
                }
            }
            None => {
                if in_image {
                    f.witness_missing += 1;
                }
            }
        }
    }
    // Subject: the flag byte's valid patterns are exactly the 64 with the
    // top two bits clear (trigger, two ping flags, strict bit, 2-bit
    // mutation tag — every combination is constructible).
    for b in 0u16..=255 {
        let b = b as u8;
        let valid = b & 0b1100_0000 == 0;
        let buf = [b, 0, 0]; // flag byte + two zero varint seqs
        let mut input: &[u8] = &buf;
        match SubjectMachine::unpack(&mut input) {
            Some(m) => {
                if !valid || m.flag_bits() != b {
                    if valid {
                        f.subject_missing += 1;
                    } else {
                        f.subject_extra += 1;
                    }
                }
            }
            None => {
                if valid {
                    f.subject_missing += 1;
                }
            }
        }
    }
    f
}

/// Renders `report` as a deterministic human-readable summary.
pub fn render_lints(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("lints: {} finding(s)\n", report.finding_count()));
    for o in &report.overlaps {
        out.push_str(&format!(
            "  overlap: family {} has both instances enabled at {:?}\n",
            o.family, o.witness
        ));
    }
    for d in &report.dead_guards {
        out.push_str(&format!("  dead guard: {} ({:?}) never enabled\n", d.name, d.action));
    }
    for i in &report.idempotence {
        out.push_str(&format!(
            "  non-idempotent: {}({}) double delivery diverges from {}\n",
            i.handler, i.instance, i.witness
        ));
    }
    if !report.codec.clean() {
        out.push_str(&format!("  codec: {:?}\n", report.codec));
    }
    for c in &report.completeness {
        let inst = c.instance.map_or(String::new(), |i| format!("({i})"));
        out.push_str(&format!("  incomplete: {}{} at {:?}\n", c.rule, inst, c.witness));
    }
    if report.clean() {
        out.push_str("  all clean\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_core::machines::SubjectMutation;

    #[test]
    fn codec_codomains_are_exact() {
        let f = codec_lint();
        assert!(f.clean(), "{f:?}");
    }

    #[test]
    fn guard_completeness_is_clean_across_the_config_matrix() {
        for cfg in crate::ir::config_matrix() {
            let ir = Ir::new(cfg);
            let (_, _, completeness) = guard_lints(&ir);
            assert!(completeness.is_empty(), "{cfg:?}: {completeness:?}");
        }
    }

    #[test]
    fn handlers_are_idempotent_in_every_variant() {
        for mutation in [
            SubjectMutation::None,
            SubjectMutation::SkipPingDisable,
            SubjectMutation::IgnoreTriggerGuard,
            SubjectMutation::SkipTriggerUpdate,
        ] {
            for strict_seq in [false, true] {
                let cfg =
                    IrConfig { strict_seq, subject_mutation: mutation, ..IrConfig::faithful() };
                let f = idempotence_lint(&cfg);
                assert!(f.is_empty(), "{mutation:?} strict={strict_seq}: {f:?}");
            }
        }
    }
}
