//! Robustness of the live transport's frame decoders: `Wire::from_bytes`
//! for `RedMsg` (the reduction's frames, which nest all four `DiningMsg`
//! codecs) and for the heartbeat detector's `Alive`. Whatever bytes come
//! in, the decoder returns `Err` or a value that re-encodes to exactly those
//! bytes — never a panic, never a value the bytes do not spell. The inputs
//! are arbitrary byte strings, and every truncation, one-byte extension and
//! one-byte substitution of real encodings.

use dinefd_core::RedMsg;
use dinefd_dining::coord::CoordMsg;
use dinefd_dining::fair::FairMsg;
use dinefd_dining::hygienic::HyMsg;
use dinefd_dining::wfdx::{Ts, WxMsg};
use dinefd_dining::DiningMsg;
use dinefd_fd::heartbeat::Alive;
use dinefd_sim::{ProcessId, Wire};
use proptest::prelude::*;

/// Decodes `bytes` as `T`: `Ok(true)` for a value that re-encodes to
/// `bytes`, `Ok(false)` for an error, and the evidence otherwise.
fn verdict<T: Wire + std::fmt::Debug>(bytes: &[u8]) -> Result<bool, String> {
    match T::from_bytes(bytes) {
        Err(_) => Ok(false),
        Ok(v) if v.to_bytes() == bytes => Ok(true),
        Ok(v) => Err(format!("{bytes:?} decodes to {v:?}, which encodes to {:?}", v.to_bytes())),
    }
}

/// Every truncation, one-byte extension and one-byte substitution of `v`'s
/// encoding, decoded and checked. Returns how many were accepted.
fn mangle<T: Wire + std::fmt::Debug>(v: &T) -> Result<usize, String> {
    let bytes = v.to_bytes();
    let mut accepted = 0;
    let mut check = |b: &[u8]| -> Result<(), String> {
        accepted += usize::from(verdict::<T>(b)?);
        Ok(())
    };
    check(&bytes)?;
    for cut in 0..bytes.len() {
        check(&bytes[..cut])?;
    }
    for b in 0..=255u8 {
        check(&[&bytes[..], &[b]].concat())?;
    }
    let mut mutant = bytes.clone();
    for pos in 0..bytes.len() {
        let flips = (0..8).map(|bit| bytes[pos] ^ 1 << bit);
        for b in flips.chain([0, 1, 2, 3, 4, 0x7f, 0x80, 0xa1, 0xff]) {
            mutant[pos] = b;
            check(&mutant)?;
        }
        mutant[pos] = bytes[pos];
    }
    Ok(accepted)
}

/// The `k`-th message kind of the four dining protocols (10 kinds), with
/// `clock` and `id` in the fields that carry them.
fn dining(k: u8, clock: u64, id: u32) -> DiningMsg {
    match k % 10 {
        0 => DiningMsg::Hygienic(HyMsg::ForkRequest),
        1 => DiningMsg::Hygienic(HyMsg::Fork),
        2 => DiningMsg::WfDx(WxMsg::Request(Ts { clock, id })),
        3 => DiningMsg::WfDx(WxMsg::Fork { clock }),
        4 => DiningMsg::WfDx(WxMsg::TokenReturn { clock }),
        5 => DiningMsg::Coord(CoordMsg::Request),
        6 => DiningMsg::Coord(CoordMsg::Grant),
        7 => DiningMsg::Coord(CoordMsg::Release),
        8 => DiningMsg::Fair(FairMsg::Hungry),
        _ => DiningMsg::Fair(FairMsg::Done),
    }
}

/// The `k`-th frame kind (`Ping`, `Ack`, then one `Dx` per dining kind).
fn red(k: u8, watcher: u32, subject: u32, instance: u8, n: u64) -> RedMsg {
    let (watcher, subject) = (ProcessId(watcher), ProcessId(subject));
    match k % 12 {
        0 => RedMsg::Ping { watcher, subject, instance, seq: n },
        1 => RedMsg::Ack { watcher, subject, instance, seq: n },
        d => RedMsg::Dx { watcher, subject, instance, inner: dining(d - 2, n, watcher.0) },
    }
}

#[test]
fn mangled_frames_of_every_kind_decode_to_errors_or_to_themselves() {
    let mut accepted = 0;
    for k in 0..12 {
        for (ids, n) in [((0, 1), 0), ((3, 0), 1), ((7, 9), 0x80), ((u32::MAX, 5), u64::MAX)] {
            let msg = red(k, ids.0, ids.1, k % 2, n);
            accepted += mangle(&msg).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
        }
    }
    // Every fixed-width field takes any byte, so most substitutions are
    // other frames: the check has decodes to compare, not only refusals.
    assert!(accepted > 12 * 4 * 10, "only {accepted} accepted");
    // Only [0xa1] decodes: the frame itself, and its byte substituted by
    // 0xa1 again.
    assert_eq!(mangle(&Alive), Ok(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_decode_to_errors_or_to_themselves(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let red = verdict::<RedMsg>(&bytes);
        prop_assert!(red.is_ok(), "{}", red.unwrap_err());
        let alive = verdict::<Alive>(&bytes);
        prop_assert!(alive.is_ok(), "{}", alive.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mangled_arbitrary_frames_decode_to_errors_or_to_themselves(
        k in 0u8..12,
        watcher in any::<u32>(),
        subject in any::<u32>(),
        instance in any::<u8>(),
        n in any::<u64>(),
    ) {
        let msg = red(k, watcher, subject, instance, n);
        prop_assert_eq!(RedMsg::from_bytes(&msg.to_bytes()), Ok(msg.clone()));
        let mangled = mangle(&msg);
        prop_assert!(mangled.is_ok(), "{:?}: {}", msg, mangled.unwrap_err());
    }
}
