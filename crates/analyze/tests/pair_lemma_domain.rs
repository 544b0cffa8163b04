//! A pin of the pair model's lemma verdicts over the whole typed domain.
//!
//! Every typed abstract state at wire cap 2 is concretized under the
//! faithful configuration, and the sweep records the violation messages of
//! its `check_invariants` — their texts and their order — and, when it lies
//! in the Theorem-1 completeness closure, the `check_closure_step` verdict
//! of every successor. The records are folded into one FNV-1a digest, so a
//! change to any lemma clause, to the message table or to the order it
//! reports in shows here, as `core/tests/machine_domain.rs` does for the
//! machines.

use dinefd_analyze::induct::for_each_typed_state_cap;
use dinefd_analyze::ir::{concretize, explore_config, IrConfig, WIRE_CAP};

/// The digest of the sweep below.
const PINNED: u64 = 0xb9e4_d083_d4ed_4265;

/// 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn sweep() -> u64 {
    let cfg = IrConfig::faithful();
    let ecfg = explore_config(&cfg, 0, 0);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for_each_typed_state_cap(WIRE_CAP, |abs| {
        let s = concretize(abs, &cfg);
        h.put(&abs.pack_key().to_le_bytes());
        for msg in s.check_invariants() {
            h.put(msg.as_bytes());
            h.put(&[0xFE]);
        }
        h.put(&[0xFF]);
        if s.in_completeness_closure() {
            s.for_each_label(&ecfg, |l| {
                let msg = s.check_closure_step(&s.apply(l, &ecfg));
                h.put(msg.as_deref().unwrap_or("-").as_bytes());
                h.put(&[0xFE]);
            });
            h.put(&[0xFD]);
        }
    });
    h.0
}

#[test]
fn pair_lemma_verdicts_over_the_typed_domain_match_the_pinned_digest() {
    let digest = sweep();
    assert_eq!(digest, PINNED, "digest {digest:#018x}");
}
