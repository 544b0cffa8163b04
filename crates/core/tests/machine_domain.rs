//! A pin of the witness and subject machines over their whole input domain.
//!
//! Every machine state the packed codecs can hold is swept against every
//! pair of dining phases — `Exiting` included, which the hosts do hand the
//! machines between an exit call and the black box's release. For each
//! input the sweep records the ordered list of enabled actions, and the
//! host command and packed post-state of every `fire`, `on_ping` and
//! `on_ack` (with the outstanding sequence number and with a stale one).
//! The records are folded into one FNV-1a digest, so any change to a
//! guard, an update, a command or the evaluation order shows here.

use dinefd_core::machines::{Step, SubjectAction, SubjectMachine, WitnessAction, WitnessMachine};
use dinefd_dining::DinerPhase::{self, Eating, Exiting, Hungry, Thinking};

/// The digest of the sweep below.
const PINNED: u64 = 0xab85_c773_fe76_59b5;

const PHASES: [DinerPhase; 4] = [Thinking, Hungry, Eating, Exiting];

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn all_phase_pairs() -> impl Iterator<Item = [DinerPhase; 2]> {
    PHASES.into_iter().flat_map(|a| PHASES.into_iter().map(move |b| [a, b]))
}

/// A host command as bytes: a tag, the thread, and a sent sequence number.
fn put_command(h: &mut Fnv, cmd: Step) {
    match cmd {
        Step::Hungry(i) => h.put(&[0x10, i as u8]),
        Step::Exit(i) => h.put(&[0x11, i as u8]),
        Step::Send(i, seq) => {
            h.put(&[0x12, i as u8]);
            h.put(&seq.to_le_bytes());
        }
    }
}

fn put_subject_state(h: &mut Fnv, s: &SubjectMachine) {
    let mut buf = Vec::new();
    s.pack_into(&mut buf);
    h.put(&buf);
}

fn sweep() -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for b in 0u8..16 {
        let w = WitnessMachine::unpack(b).expect("4-bit byte");
        for phases in all_phase_pairs() {
            h.put(&[0xA0, b, phases[0] as u8, phases[1] as u8]);
            let mut enabled = Vec::new();
            w.for_each_enabled(phases, |a| enabled.push(a));
            for &a in &enabled {
                match a {
                    WitnessAction::Hungry(i) => h.put(&[0, i as u8]),
                    WitnessAction::ExitCheck(i) => h.put(&[1, i as u8]),
                }
            }
            h.put(&[0xFF]);
            for &a in &enabled {
                let mut m = w.clone();
                put_command(&mut h, m.fire(a, phases));
                h.put(&[m.pack()]);
            }
            for i in 0..2 {
                let mut m = w.clone();
                put_command(&mut h, m.on_ping(i, 7));
                h.put(&[m.pack()]);
            }
        }
    }
    for b in 0u8..64 {
        let buf = [b, 3, 5];
        let s = SubjectMachine::unpack(&mut &buf[..]).expect("flag byte in codomain");
        for phases in all_phase_pairs() {
            h.put(&[0xB0, b, phases[0] as u8, phases[1] as u8]);
            let mut enabled = Vec::new();
            s.for_each_enabled(phases, |a| enabled.push(a));
            for &a in &enabled {
                match a {
                    SubjectAction::Hungry(i) => h.put(&[0, i as u8]),
                    SubjectAction::Ping(i) => h.put(&[1, i as u8]),
                    SubjectAction::Exit(i) => h.put(&[2, i as u8]),
                }
            }
            h.put(&[0xFF]);
            for &a in &enabled {
                let mut m = s.clone();
                put_command(&mut h, m.fire(a, phases));
                put_subject_state(&mut h, &m);
            }
            for i in 0..2 {
                for seq in [s.seq(i), s.seq(i) + 1] {
                    let mut m = s.clone();
                    m.on_ack(i, seq);
                    put_subject_state(&mut h, &m);
                }
            }
        }
    }
    h.0
}

#[test]
fn machines_over_their_full_domain_match_the_pinned_digest() {
    let digest = sweep();
    assert_eq!(digest, PINNED, "digest {digest:#018x}");
}
