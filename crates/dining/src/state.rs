//! Diner phases and legal transitions.

use std::fmt;

/// The four phases of a diner (the paper's Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DinerPhase {
    /// Executing independently; may stay here forever.
    Thinking,
    /// Requesting the shared resources.
    Hungry,
    /// In the critical section. Correct diners eat for finite time
    /// (the reduction's subject threads deliberately stretch this — see
    /// the paper's Section 8 discussion).
    Eating,
    /// Relinquishing the resources; always finite for correct diners.
    Exiting,
}

impl DinerPhase {
    /// Whether `self → next` is a legal phase transition.
    ///
    /// The legal cycle is thinking → hungry → eating → exiting → thinking.
    pub fn can_transition_to(self, next: DinerPhase) -> bool {
        use DinerPhase::*;
        matches!(
            (self, next),
            (Thinking, Hungry) | (Hungry, Eating) | (Eating, Exiting) | (Exiting, Thinking)
        )
    }

    /// The phase after this one on the legal cycle.
    pub fn next(self) -> DinerPhase {
        match self {
            DinerPhase::Thinking => DinerPhase::Hungry,
            DinerPhase::Hungry => DinerPhase::Eating,
            DinerPhase::Eating => DinerPhase::Exiting,
            DinerPhase::Exiting => DinerPhase::Thinking,
        }
    }

    /// Compact single-letter code (used by timeline renderers).
    pub fn code(self) -> char {
        match self {
            DinerPhase::Thinking => 't',
            DinerPhase::Hungry => 'h',
            DinerPhase::Eating => 'E',
            DinerPhase::Exiting => 'x',
        }
    }
}

impl fmt::Display for DinerPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DinerPhase::Thinking => "thinking",
            DinerPhase::Hungry => "hungry",
            DinerPhase::Eating => "eating",
            DinerPhase::Exiting => "exiting",
        };
        f.write_str(s)
    }
}

/// Observation recorded whenever a diner changes phase in some dining
/// instance. `instance` distinguishes the many concurrent dining instances a
/// single physical process participates in (the reduction runs two per
/// ordered monitoring pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiningObs {
    /// Which dining instance.
    pub instance: u32,
    /// The new phase.
    pub phase: DinerPhase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use DinerPhase::*;

    #[test]
    fn legal_cycle() {
        assert!(Thinking.can_transition_to(Hungry));
        assert!(Hungry.can_transition_to(Eating));
        assert!(Eating.can_transition_to(Exiting));
        assert!(Exiting.can_transition_to(Thinking));
        for p in [Thinking, Hungry, Eating, Exiting] {
            assert!(p.can_transition_to(p.next()), "{p} -> {}", p.next());
        }
    }

    #[test]
    fn illegal_jumps_rejected() {
        assert!(!Thinking.can_transition_to(Eating));
        assert!(!Hungry.can_transition_to(Thinking));
        assert!(!Eating.can_transition_to(Hungry));
        assert!(!Exiting.can_transition_to(Eating));
        assert!(!Thinking.can_transition_to(Thinking));
    }

    #[test]
    fn codes_are_distinct() {
        let codes = [Thinking.code(), Hungry.code(), Eating.code(), Exiting.code()];
        let mut dedup = codes.to_vec();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(Eating.to_string(), "eating");
        assert_eq!(Thinking.to_string(), "thinking");
    }
}
