//! Bit-blasting the guarded-command IR into CNF.
//!
//! This module compiles [`AbsState`]s, the lemma/strengthening clauses of
//! [`crate::induct`], and one IR transition step into propositional logic
//! over the solver of [`crate::sat`], via hash-consed Tseitin AND gates
//! ([`CnfBuilder::and`]) with constant folding. The encoding is the
//! symbolic twin of the explicit enumerator:
//!
//! * **State** ([`SymState`]): each boolean field is one literal; each
//!   dining phase is a 2-bit vector (`Thinking = 00`, `Hungry = 01`,
//!   `Eating = 10`, `11` excluded by a typed-domain clause); each wire
//!   counter is a little-endian bit-vector of `⌈log₂(cap+1)⌉` bits with a
//!   `≤ cap` typed-domain clause. The typed models of one `SymState` are
//!   therefore exactly the states `for_each_typed_state_cap` enumerates.
//! * **Guards, updates and clauses**: not transcribed — `CnfBuilder`
//!   implements the value [`Algebra`] the protocol is written over
//!   ([`crate::protocol`]), so the generic definitions, read with bits for
//!   booleans and bit-vectors for phases and counters, *are* the circuit.
//!   The agreement suite still checks the circuit against the concrete
//!   reading byte-for-byte over the whole cap-2 domain. Saturated-decrement
//!   nondeterminism becomes one fresh *choice* literal per action:
//!   `post = (at_cap ∧ χ) ? cap : count − 1`.
//! * **Step relation** ([`encode_step`]): one *selector* literal per IR
//!   action, an exactly-one constraint over the selectors, `sel ⇒ guard`,
//!   and `sel ⇒ (post-field = fired-field)` for every field — so a model
//!   of the step formula decodes to exactly one `(pre, action, post)`
//!   triple of [`Ir::successors_into`].
//!
//! [`wire_sum`], [`busy_count`] and [`deviation_count`] expose the three
//! numeric components of the enumerator's CTI `simplicity_key` as adder
//! circuits, which is how [`crate::kinduct`] enumerates counterexamples in
//! exactly the explicit checker's "simplest first" order.

use crate::ir::{AbsState, ActionId, Ir};
use crate::protocol::{self, Algebra};
use crate::sat::{Lit, Solver};
use dinefd_dining::DinerPhase;
use std::collections::HashMap;

/// A propositional value: a constant or a solver literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bit {
    /// A compile-time constant (folded away, never reaches the solver).
    Const(bool),
    /// The value of a solver literal.
    Is(Lit),
}

/// Shorthand for the constant true.
pub const TRUE: Bit = Bit::Const(true);
/// Shorthand for the constant false.
pub const FALSE: Bit = Bit::Const(false);

/// A little-endian bit-vector (used for phases, counters, and sums).
pub type Bv = Vec<Bit>;

/// The Tseitin circuit builder over a [`Solver`].
#[derive(Debug)]
pub struct CnfBuilder {
    /// The underlying solver (exposed so callers can solve/enumerate).
    pub solver: Solver,
    /// Hash-consing cache for AND gates, keyed on normalized inputs.
    and_cache: HashMap<(Lit, Lit), Lit>,
}

impl CnfBuilder {
    /// An empty builder over a fresh solver.
    pub fn new() -> Self {
        CnfBuilder { solver: Solver::new(), and_cache: HashMap::new() }
    }

    /// A fresh unconstrained bit.
    pub fn fresh(&mut self) -> Bit {
        Bit::Is(Lit::pos(self.solver.new_var()))
    }

    /// Negation (free: flips the sign or the constant).
    pub fn not(&mut self, a: Bit) -> Bit {
        match a {
            Bit::Const(c) => Bit::Const(!c),
            Bit::Is(l) => Bit::Is(l.negate()),
        }
    }

    /// Conjunction, with constant folding and hash-consing.
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(false), _) | (_, Bit::Const(false)) => FALSE,
            (Bit::Const(true), x) | (x, Bit::Const(true)) => x,
            (Bit::Is(la), Bit::Is(lb)) => {
                if la == lb {
                    return a;
                }
                if la == lb.negate() {
                    return FALSE;
                }
                let key = (la.min(lb), la.max(lb));
                if let Some(&o) = self.and_cache.get(&key) {
                    return Bit::Is(o);
                }
                let o = Lit::pos(self.solver.new_var());
                self.solver.add_clause(&[o.negate(), key.0]);
                self.solver.add_clause(&[o.negate(), key.1]);
                self.solver.add_clause(&[key.0.negate(), key.1.negate(), o]);
                self.and_cache.insert(key, o);
                Bit::Is(o)
            }
        }
    }

    /// Disjunction (De Morgan over [`CnfBuilder::and`]).
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        let na = self.not(a);
        let nb = self.not(b);
        let c = self.and(na, nb);
        self.not(c)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        let nb = self.not(b);
        let na = self.not(a);
        let t = self.and(a, nb);
        let u = self.and(na, b);
        self.or(t, u)
    }

    /// Equivalence.
    pub fn iff(&mut self, a: Bit, b: Bit) -> Bit {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// Multiplexer: `cond ? then_b : else_b`.
    pub fn mux(&mut self, cond: Bit, then_b: Bit, else_b: Bit) -> Bit {
        match cond {
            Bit::Const(true) => then_b,
            Bit::Const(false) => else_b,
            _ => {
                if then_b == else_b {
                    return then_b;
                }
                let nc = self.not(cond);
                let t = self.and(cond, then_b);
                let e = self.and(nc, else_b);
                self.or(t, e)
            }
        }
    }

    /// Conjunction of many bits.
    pub fn and_many(&mut self, bits: &[Bit]) -> Bit {
        bits.iter().fold(TRUE, |acc, &b| self.and(acc, b))
    }

    /// Disjunction of many bits.
    pub fn or_many(&mut self, bits: &[Bit]) -> Bit {
        bits.iter().fold(FALSE, |acc, &b| self.or(acc, b))
    }

    /// Asserts `b` as a hard unit constraint. Panics on constant false —
    /// that is always an encoding bug, not a solver verdict.
    pub fn assert_true(&mut self, b: Bit) {
        match b {
            Bit::Const(true) => {}
            Bit::Const(false) => panic!("asserting constant false"),
            Bit::Is(l) => {
                self.solver.add_clause(&[l]);
            }
        }
    }

    /// Asserts `guard ⇒ b` as clauses (no gate variable needed).
    pub fn assert_implies(&mut self, guard: Lit, b: Bit) {
        match b {
            Bit::Const(true) => {}
            Bit::Const(false) => {
                self.solver.add_clause(&[guard.negate()]);
            }
            Bit::Is(l) => {
                self.solver.add_clause(&[guard.negate(), l]);
            }
        }
    }

    /// Asserts `guard ⇒ (a = b)`.
    pub fn assert_eq_under(&mut self, guard: Lit, a: Bit, b: Bit) {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => {
                if x != y {
                    self.solver.add_clause(&[guard.negate()]);
                }
            }
            (Bit::Const(c), Bit::Is(l)) | (Bit::Is(l), Bit::Const(c)) => {
                let want = if c { l } else { l.negate() };
                self.solver.add_clause(&[guard.negate(), want]);
            }
            (Bit::Is(la), Bit::Is(lb)) => {
                if la == lb {
                    return;
                }
                self.solver.add_clause(&[guard.negate(), la.negate(), lb]);
                self.solver.add_clause(&[guard.negate(), la, lb.negate()]);
            }
        }
    }

    // ---- bit-vector circuits -------------------------------------------

    /// The constant bit-vector of `value` over `width` bits.
    pub fn bv_const(&self, value: u64, width: usize) -> Bv {
        (0..width).map(|k| Bit::Const(value >> k & 1 == 1)).collect()
    }

    /// A fresh unconstrained bit-vector.
    pub fn bv_fresh(&mut self, width: usize) -> Bv {
        (0..width).map(|_| self.fresh()).collect()
    }

    /// `a = k` as a single bit.
    pub fn bv_eq_const(&mut self, a: &Bv, k: u64) -> Bit {
        let mut acc = TRUE;
        for (i, &bit) in a.iter().enumerate() {
            let want = k >> i & 1 == 1;
            let matched = if want { bit } else { self.not(bit) };
            acc = self.and(acc, matched);
        }
        if k >> a.len() != 0 {
            return FALSE; // k does not fit in the width
        }
        acc
    }

    /// `a ≠ 0`.
    pub fn bv_nonzero(&mut self, a: &Bv) -> Bit {
        let bits: Vec<Bit> = a.clone();
        self.or_many(&bits)
    }

    /// `a ≤ k` (small-width disjunction of equalities — counters are ≤ 4
    /// bits wide, so this stays tiny).
    pub fn bv_le_const(&mut self, a: &Bv, k: u64) -> Bit {
        let mut terms = Vec::with_capacity(k as usize + 1);
        for v in 0..=k {
            terms.push(self.bv_eq_const(a, v));
        }
        self.or_many(&terms)
    }

    /// `a + 1` over the same width (wraps; callers guard against it).
    pub fn bv_inc(&mut self, a: &Bv) -> Bv {
        let mut carry = TRUE;
        let mut out = Vec::with_capacity(a.len());
        for &bit in a {
            out.push(self.xor(bit, carry));
            carry = self.and(bit, carry);
        }
        out
    }

    /// `a − 1` over the same width (wraps at 0; callers guard).
    pub fn bv_dec(&mut self, a: &Bv) -> Bv {
        let mut borrow = TRUE;
        let mut out = Vec::with_capacity(a.len());
        for &bit in a {
            out.push(self.xor(bit, borrow));
            let nb = self.not(bit);
            borrow = self.and(nb, borrow);
        }
        out
    }

    /// Ripple-carry addition, widened to hold the exact sum.
    pub fn bv_add(&mut self, a: &Bv, b: &Bv) -> Bv {
        let width = a.len().max(b.len()) + 1;
        let get = |v: &Bv, k: usize| v.get(k).copied().unwrap_or(FALSE);
        let mut carry = FALSE;
        let mut out = Vec::with_capacity(width);
        for k in 0..width {
            let x = get(a, k);
            let y = get(b, k);
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let t = self.and(x, y);
            let u = self.and(xy, carry);
            carry = self.or(t, u);
        }
        out
    }

    /// Per-bit multiplexer over equal-width vectors.
    pub fn bv_mux(&mut self, cond: Bit, then_v: &Bv, else_v: &Bv) -> Bv {
        assert_eq!(then_v.len(), else_v.len());
        then_v.iter().zip(else_v).map(|(&t, &e)| self.mux(cond, t, e)).collect()
    }

    /// Population count of `bits` as an exact-width sum.
    pub fn popcount(&mut self, bits: &[Bit]) -> Bv {
        let mut acc = self.bv_const(0, 1);
        for &b in bits {
            acc = self.bv_add(&acc, &vec![b]);
        }
        acc
    }
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Bits needed for a counter saturating at `cap` (`⌈log₂(cap+1)⌉`).
pub fn counter_width(cap: u8) -> usize {
    (32 - (cap as u32).leading_zeros()) as usize
}

/// One symbolic [`AbsState`]: every field of the explicit struct as bits
/// (phases and counters little-endian, `switch`/`trigger` one bit each,
/// `true` = instance 1). A newtype so the circuit-side constructor and
/// readers below can be its methods; it dereferences to the record the
/// protocol's definitions take.
#[derive(Clone, Debug)]
pub struct SymState(pub AbsState<Bit, Bv, Bit, Bv>);

impl std::ops::Deref for SymState {
    type Target = AbsState<Bit, Bv, Bit, Bv>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl SymState {
    /// Allocates a fresh symbolic state and asserts its typed-domain
    /// constraints: phases ∈ {thinking, hungry, eating} (no `11` code, and
    /// `Exiting` is excluded exactly as in `for_each_typed_state_cap`),
    /// counters ≤ `cap`.
    pub fn fresh(b: &mut CnfBuilder, cap: u8) -> SymState {
        let phase = |b: &mut CnfBuilder| -> Bv {
            let v = b.bv_fresh(2);
            let both = b.and(v[0], v[1]);
            let neither = b.not(both);
            b.assert_true(neither);
            v
        };
        let w_phase = [phase(b), phase(b)];
        let s_phase = [phase(b), phase(b)];
        let counter = |b: &mut CnfBuilder| -> Bv {
            let v = b.bv_fresh(counter_width(cap));
            let le = b.bv_le_const(&v, cap as u64);
            b.assert_true(le);
            v
        };
        let pings = [counter(b), counter(b)];
        let acks = [counter(b), counter(b)];
        SymState(AbsState {
            w_phase,
            s_phase,
            switch: b.fresh(),
            haveping: [b.fresh(), b.fresh()],
            suspect: b.fresh(),
            trigger: b.fresh(),
            ping_enabled: [b.fresh(), b.fresh()],
            converged: b.fresh(),
            crashed: b.fresh(),
            pings,
            acks,
        })
    }

    /// Reads the concrete state out of a satisfying assignment.
    pub fn decode(&self, solver: &Solver) -> AbsState {
        let bit = |x: Bit| match x {
            Bit::Const(c) => c,
            Bit::Is(l) => solver.lit_value(l),
        };
        let bv = |v: &Bv| -> u8 {
            v.iter().enumerate().fold(0u8, |acc, (k, &x)| acc | (u8::from(bit(x)) << k))
        };
        let phase = |v: &Bv| match bv(v) {
            0 => DinerPhase::Thinking,
            1 => DinerPhase::Hungry,
            2 => DinerPhase::Eating,
            other => unreachable!("excluded phase code {other}"),
        };
        AbsState {
            w_phase: [phase(&self.w_phase[0]), phase(&self.w_phase[1])],
            s_phase: [phase(&self.s_phase[0]), phase(&self.s_phase[1])],
            switch: u8::from(bit(self.switch)),
            haveping: [bit(self.haveping[0]), bit(self.haveping[1])],
            suspect: bit(self.suspect),
            trigger: u8::from(bit(self.trigger)),
            ping_enabled: [bit(self.ping_enabled[0]), bit(self.ping_enabled[1])],
            converged: bit(self.converged),
            crashed: bit(self.crashed),
            pings: [bv(&self.pings[0]), bv(&self.pings[1])],
            acks: [bv(&self.acks[0]), bv(&self.acks[1])],
        }
    }

    /// Every solver literal of the state (pre/post blocking clauses range
    /// over exactly these).
    pub fn literals(&self) -> Vec<Lit> {
        let mut out = Vec::with_capacity(32);
        let mut push = |b: Bit| {
            if let Bit::Is(l) = b {
                out.push(l);
            }
        };
        for i in 0..2 {
            self.w_phase[i].iter().for_each(|&b| push(b));
            self.s_phase[i].iter().for_each(|&b| push(b));
        }
        push(self.switch);
        push(self.haveping[0]);
        push(self.haveping[1]);
        push(self.suspect);
        push(self.trigger);
        push(self.ping_enabled[0]);
        push(self.ping_enabled[1]);
        push(self.converged);
        push(self.crashed);
        for i in 0..2 {
            self.pings[i].iter().for_each(|&b| push(b));
            self.acks[i].iter().for_each(|&b| push(b));
        }
        out
    }

    /// Assumption literals pinning this symbolic state to the concrete `s`.
    pub fn assumptions_for(&self, s: &AbsState, out: &mut Vec<Lit>) {
        fn pin(out: &mut Vec<Lit>, b: Bit, want: bool) {
            match b {
                Bit::Const(c) => debug_assert_eq!(c, want, "constant bit mismatch"),
                Bit::Is(l) => out.push(if want { l } else { l.negate() }),
            }
        }
        fn pin_bv(out: &mut Vec<Lit>, v: &Bv, want: u64) {
            for (k, &b) in v.iter().enumerate() {
                pin(out, b, want >> k & 1 == 1);
            }
        }
        for i in 0..2 {
            pin_bv(out, &self.w_phase[i], s.w_phase[i] as u64);
            pin_bv(out, &self.s_phase[i], s.s_phase[i] as u64);
        }
        pin(out, self.switch, s.switch == 1);
        pin(out, self.haveping[0], s.haveping[0]);
        pin(out, self.haveping[1], s.haveping[1]);
        pin(out, self.suspect, s.suspect);
        pin(out, self.trigger, s.trigger == 1);
        pin(out, self.ping_enabled[0], s.ping_enabled[0]);
        pin(out, self.ping_enabled[1], s.ping_enabled[1]);
        pin(out, self.converged, s.converged);
        pin(out, self.crashed, s.crashed);
        for i in 0..2 {
            pin_bv(out, &self.pings[i], u64::from(s.pings[i]));
            pin_bv(out, &self.acks[i], u64::from(s.acks[i]));
        }
    }
}

/// The circuit interpretation of the protocol's value algebra: every
/// operation builds (hash-consed, constant-folded) gates in `self`.
impl Algebra for CnfBuilder {
    type Bool = Bit;
    type Phase = Bv;
    type Sel = Bit;
    type Count = Bv;

    fn constant(&mut self, v: bool) -> Bit {
        Bit::Const(v)
    }
    fn not(&mut self, x: &Bit) -> Bit {
        CnfBuilder::not(self, *x)
    }
    fn all(&mut self, xs: &[&Bit]) -> Bit {
        xs.iter().fold(TRUE, |acc, &&x| self.and(acc, x))
    }
    fn any(&mut self, xs: &[&Bit]) -> Bit {
        xs.iter().fold(FALSE, |acc, &&x| self.or(acc, x))
    }
    fn for_all(&mut self, mut f: impl FnMut(&mut Self, usize) -> Bit) -> Bit {
        let (x, y) = (f(self, 0), f(self, 1));
        self.and(x, y)
    }
    fn exists(&mut self, mut f: impl FnMut(&mut Self, usize) -> Bit) -> Bit {
        let (x, y) = (f(self, 0), f(self, 1));
        self.or(x, y)
    }
    fn phase(&mut self, p: DinerPhase) -> Bv {
        self.bv_const(p as u64, 2)
    }
    fn phase_is(&mut self, x: &Bv, p: DinerPhase) -> Bit {
        self.bv_eq_const(x, p as u64)
    }
    fn side(&mut self, i: usize) -> Bit {
        Bit::Const(i == 1)
    }
    fn sel_is(&mut self, x: &Bit, i: usize) -> Bit {
        if i == 1 {
            *x
        } else {
            CnfBuilder::not(self, *x)
        }
    }
    fn zero(&mut self, cap: u8) -> Bv {
        self.bv_const(0, counter_width(cap))
    }
    fn nonzero(&mut self, c: &Bv) -> Bit {
        self.bv_nonzero(c)
    }
    fn sum_le(&mut self, a: &Bv, b: &Bv, k: u8) -> Bit {
        let sum = self.bv_add(a, b);
        self.bv_le_const(&sum, u64::from(k))
    }
    /// `c = cap ? cap : c + 1`.
    fn sat_inc(&mut self, c: &Bv, cap: u8) -> Bv {
        let at_cap = self.bv_eq_const(c, cap as u64);
        let inc = self.bv_inc(c);
        let cap_v = self.bv_const(cap as u64, c.len());
        self.bv_mux(at_cap, &cap_v, &inc)
    }
    /// `(c = cap ∧ χ) ? cap : c − 1`, `χ` the step's choice literal.
    fn sat_dec(&mut self, c: &Bv, cap: u8, choice: &Bit) -> Bv {
        let at_cap = self.bv_eq_const(c, cap as u64);
        let stay = self.and(at_cap, *choice);
        let dec = self.bv_dec(c);
        let cap_v = self.bv_const(cap as u64, c.len());
        self.bv_mux(stay, &cap_v, &dec)
    }
    fn select(&mut self, cond: &Bit, then_c: &Bv, else_c: &Bv) -> Bv {
        self.bv_mux(*cond, then_c, else_c)
    }
}

/// One encoded action of a step: its selector and choice literals.
#[derive(Clone, Copy, Debug)]
pub struct SymAction {
    /// The action.
    pub id: ActionId,
    /// True in a model iff this action is the one fired.
    pub select: Lit,
    /// Resolves the saturated-decrement nondeterminism when fired.
    pub choice: Lit,
}

/// The encoded transition relation between two symbolic states.
#[derive(Clone, Debug)]
pub struct SymStep {
    /// One entry per action of the IR's table, same order.
    pub actions: Vec<SymAction>,
}

impl SymStep {
    /// The action selected in the current model.
    pub fn selected(&self, solver: &Solver) -> ActionId {
        self.actions
            .iter()
            .find(|a| solver.lit_value(a.select))
            .map(|a| a.id)
            .expect("exactly-one selector constraint")
    }
}

/// Encodes `post = fire(pre, a)` for exactly one action `a` of `ir`:
/// per-action selector literals with an exactly-one constraint,
/// `sel ⇒ guard`, and `sel ⇒` field-wise equality of `post` with the fired
/// expression.
pub fn encode_step(b: &mut CnfBuilder, ir: &Ir, pre: &SymState, post: &SymState) -> SymStep {
    let cfg = ir.cfg;
    let mut actions = Vec::with_capacity(ir.actions().len());
    for a in ir.actions() {
        let select = Lit::pos(b.solver.new_var());
        let choice = Lit::pos(b.solver.new_var());
        let guard = protocol::guard(b, &cfg, pre, a.id);
        b.assert_implies(select, guard);
        let fired = protocol::update(b, &cfg, pre, a.id, &Bit::Is(choice));
        for i in 0..2 {
            for k in 0..2 {
                b.assert_eq_under(select, post.w_phase[i][k], fired.w_phase[i][k]);
                b.assert_eq_under(select, post.s_phase[i][k], fired.s_phase[i][k]);
            }
            for k in 0..pre.pings[i].len() {
                b.assert_eq_under(select, post.pings[i][k], fired.pings[i][k]);
                b.assert_eq_under(select, post.acks[i][k], fired.acks[i][k]);
            }
        }
        b.assert_eq_under(select, post.switch, fired.switch);
        b.assert_eq_under(select, post.haveping[0], fired.haveping[0]);
        b.assert_eq_under(select, post.haveping[1], fired.haveping[1]);
        b.assert_eq_under(select, post.suspect, fired.suspect);
        b.assert_eq_under(select, post.trigger, fired.trigger);
        b.assert_eq_under(select, post.ping_enabled[0], fired.ping_enabled[0]);
        b.assert_eq_under(select, post.ping_enabled[1], fired.ping_enabled[1]);
        b.assert_eq_under(select, post.converged, fired.converged);
        b.assert_eq_under(select, post.crashed, fired.crashed);
        actions.push(SymAction { id: a.id, select, choice });
    }
    // Exactly one action fires: at-least-one + pairwise at-most-one.
    let alo: Vec<Lit> = actions.iter().map(|a| a.select).collect();
    b.solver.add_clause(&alo);
    for i in 0..actions.len() {
        for j in i + 1..actions.len() {
            b.solver.add_clause(&[actions[i].select.negate(), actions[j].select.negate()]);
        }
    }
    SymStep { actions }
}

/// Total messages in flight (`pings[0] + pings[1] + acks[0] + acks[1]`) —
/// the first component of the enumerator's CTI simplicity key.
pub fn wire_sum(b: &mut CnfBuilder, s: &SymState) -> Bv {
    let p = b.bv_add(&s.pings[0].clone(), &s.pings[1].clone());
    let a = b.bv_add(&s.acks[0].clone(), &s.acks[1].clone());
    b.bv_add(&p, &a)
}

/// Count of non-thinking threads — the key's second component.
pub fn busy_count(b: &mut CnfBuilder, s: &SymState) -> Bv {
    let mut bits = Vec::with_capacity(4);
    for phase in s.w_phase.iter().chain(&s.s_phase) {
        let thinking = b.phase_is(phase, DinerPhase::Thinking);
        bits.push(b.not(thinking));
    }
    b.popcount(&bits)
}

/// Count of scalar fields deviating from the initial state (`suspect` and
/// the ping flags start *true*) — the key's third component.
pub fn deviation_count(b: &mut CnfBuilder, s: &SymState) -> Bv {
    let nsusp = b.not(s.suspect);
    let npe0 = b.not(s.ping_enabled[0]);
    let npe1 = b.not(s.ping_enabled[1]);
    let bits = [
        s.haveping[0],
        s.haveping[1],
        nsusp,
        s.converged,
        s.crashed,
        npe0,
        npe1,
        s.trigger,
        s.switch,
    ];
    b.popcount(&bits)
}

/// Assumption literals pinning bit-vector `v` to the constant `value`.
/// Returns `false` when a constant bit contradicts `value` (the stratum is
/// structurally empty).
pub fn pin_bv(v: &Bv, value: u64, out: &mut Vec<Lit>) -> bool {
    for (k, &b) in v.iter().enumerate() {
        let want = value >> k & 1 == 1;
        match b {
            Bit::Const(c) => {
                if c != want {
                    return false;
                }
            }
            Bit::Is(l) => out.push(if want { l } else { l.negate() }),
        }
    }
    value >> v.len() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induct::{clause_mask, Clause, ALL_CLAUSES};
    use crate::ir::{config_matrix, IrConfig};
    use crate::sat::SolveOutcome;

    #[test]
    fn counter_widths_cover_the_cap_range() {
        assert_eq!(counter_width(2), 2);
        assert_eq!(counter_width(3), 2);
        assert_eq!(counter_width(4), 3);
        assert_eq!(counter_width(7), 3);
        assert_eq!(counter_width(8), 4);
    }

    #[test]
    fn fresh_state_round_trips_through_assumptions() {
        let mut b = CnfBuilder::new();
        let sym = SymState::fresh(&mut b, 2);
        let mut s = AbsState::initial();
        s.pings[0] = 2;
        s.s_phase[1] = DinerPhase::Eating;
        s.trigger = 1;
        let mut assumptions = Vec::new();
        sym.assumptions_for(&s, &mut assumptions);
        assert_eq!(b.solver.solve(&assumptions), SolveOutcome::Sat);
        assert_eq!(sym.decode(&b.solver), s);
    }

    #[test]
    fn typed_constraints_exclude_invalid_phase_and_overflow() {
        let mut b = CnfBuilder::new();
        let sym = SymState::fresh(&mut b, 2);
        // Pin w_phase[0] to the excluded code 3.
        let mut bad = Vec::new();
        assert!(pin_bv(&sym.w_phase[0], 3, &mut bad));
        assert_eq!(b.solver.solve(&bad), SolveOutcome::Unsat);
        // Pin pings[0] to 3 > cap.
        let mut bad = Vec::new();
        assert!(pin_bv(&sym.pings[0], 3, &mut bad));
        assert_eq!(b.solver.solve(&bad), SolveOutcome::Unsat);
    }

    /// A deterministic scatter of one in `every` states across the typed
    /// domain at `cap`.
    fn scatter(cap: u8, every: u64) -> Vec<AbsState> {
        let mut k = 0u64;
        let mut out = Vec::new();
        crate::induct::for_each_typed_state_cap(cap, |s| {
            k = k.wrapping_add(0x9e37_79b9_7f4a_7c15);
            if k.is_multiple_of(every) {
                out.push(*s);
            }
        });
        out
    }

    #[test]
    fn symbolic_clauses_agree_with_explicit_on_sampled_states() {
        // Clauses do not depend on the configuration, only on the cap.
        for (cap, every) in [(2, 1 << 12), (8, 1 << 19)] {
            let mut b = CnfBuilder::new();
            let sym = SymState::fresh(&mut b, cap);
            let clause_bits: Vec<(Clause, Bit)> =
                ALL_CLAUSES.iter().map(|&c| (c, protocol::clause(&mut b, &sym, c))).collect();
            let states = scatter(cap, every);
            assert!(states.len() > 500, "cap {cap}: sample too small: {}", states.len());
            for s in &states {
                let mut assumptions = Vec::new();
                sym.assumptions_for(s, &mut assumptions);
                assert_eq!(b.solver.solve(&assumptions), SolveOutcome::Sat);
                let mask = clause_mask(s);
                for (j, &(c, bit)) in clause_bits.iter().enumerate() {
                    let sym_val = match bit {
                        Bit::Const(v) => v,
                        Bit::Is(l) => b.solver.lit_value(l),
                    };
                    assert_eq!(sym_val, mask >> j & 1 == 1, "clause {c:?} on {s:?}");
                }
            }
        }
    }

    #[test]
    fn encoded_step_agrees_with_successors_on_sampled_states() {
        for (cap, every) in [(2, 1 << 15), (8, 1 << 21)] {
            let states = scatter(cap, every);
            assert!(states.len() > 50, "cap {cap}: sample too small: {}", states.len());
            for cfg in config_matrix() {
                step_agrees_with_successors(IrConfig { wire_cap: cap, ..cfg }, &states);
            }
        }
    }

    fn step_agrees_with_successors(cfg: IrConfig, states: &[AbsState]) {
        let ir = Ir::new(cfg);
        let mut b = CnfBuilder::new();
        let pre = SymState::fresh(&mut b, cfg.wire_cap);
        let post = SymState::fresh(&mut b, cfg.wire_cap);
        let step = encode_step(&mut b, &ir, &pre, &post);
        let mut succ = Vec::new();
        for s in states {
            succ.clear();
            ir.successors_into(s, &mut succ);
            let expected: std::collections::BTreeSet<String> =
                succ.iter().map(|(id, t)| format!("{id:?}|{t:?}")).collect();
            // Enumerate all models of the step with this pre-state pinned.
            let mut assumptions = Vec::new();
            pre.assumptions_for(s, &mut assumptions);
            let mut got = std::collections::BTreeSet::new();
            while b.solver.solve(&assumptions) == SolveOutcome::Sat {
                let id = step.selected(&b.solver);
                let t = post.decode(&b.solver);
                got.insert(format!("{id:?}|{t:?}"));
                // Block this (pre, selector, post) triple. Including the
                // pre-state literals keeps the clause sample-local (it is
                // auto-satisfied under any other pre-state); leaving the
                // choice literals out collapses the don't-care choice
                // assignments into one model per triple.
                let mut block: Vec<Lit> = Vec::new();
                for l in pre.literals().into_iter().chain(post.literals()) {
                    block.push(if b.solver.lit_value(l) { l.negate() } else { l });
                }
                for a in &step.actions {
                    if b.solver.lit_value(a.select) {
                        block.push(a.select.negate());
                    }
                }
                b.solver.add_clause(&block);
                assert!(got.len() <= 64, "runaway enumeration");
            }
            assert_eq!(got, expected, "{cfg:?}: successor mismatch out of {s:?}");
        }
    }
}
