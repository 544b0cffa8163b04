//! Byte-level codec primitives shared by the state-space tooling.
//!
//! The lemma explorer (`dinefd-explore`) stores millions of model states;
//! keeping each one as a handful of bytes instead of a full struct clone is
//! what makes deep frontiers affordable. This module provides the three
//! primitives every packed encoding needs:
//!
//! * LEB128-style **varints** ([`put_varint`] / [`take_varint`]) for the
//!   unbounded counters (Lamport clocks, ping sequence numbers) that are
//!   almost always tiny;
//! * raw **byte** access ([`put_u8`] / [`take_u8`]) for bit-packed flag
//!   fields;
//! * a fast 64-bit **fingerprint** ([`hash64`]) over encoded bytes, used as
//!   the open-addressing key of the explorer's visited store.
//!
//! Decoders consume from a `&mut &[u8]` cursor and return `Option` so a
//! truncated or corrupt buffer fails loudly (as `None`) instead of producing
//! a plausible-looking state.

/// Appends one raw byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, b: u8) {
    out.push(b);
}

/// Consumes one raw byte from the cursor.
#[inline]
pub fn take_u8(input: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = input.split_first()?;
    *input = rest;
    Some(b)
}

/// Appends `v` as an LEB128 varint (7 value bits per byte, little-endian,
/// high bit = continuation). Values below 128 — the common case for clocks
/// and queue lengths — take a single byte.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Consumes one LEB128 varint from the cursor. `None` on truncation, on a
/// varint longer than a `u64` can hold, and on a non-minimal one (a zero
/// last group after the first byte) that [`put_varint`] never writes: a
/// varint this accepts re-encodes to exactly the bytes it was read from.
#[inline]
pub fn take_varint(input: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let b = take_u8(input)?;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            let minimal = b != 0 || shift == 0;
            let fits = shift < 63 || b <= 1;
            return (minimal && fits).then_some(v);
        }
    }
    None
}

/// Fingerprints a byte string into 64 bits.
///
/// SplitMix64-style: each 8-byte chunk is absorbed through the full
/// finalizer, and the length is folded into the seed so prefixes of each
/// other hash differently. Quality is what an open-addressing table needs
/// (all 64 bits avalanche); collisions are still *possible*, which is why
/// the explorer's visited store confirms every fingerprint hit against the
/// interned bytes before trusting it.
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ (bytes.len() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let (chunks, rem) = bytes.as_chunks::<8>();
    for &c in chunks {
        h = mix64(h ^ u64::from_le_bytes(c));
    }
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(tail));
    }
    mix64(h)
}

/// The SplitMix64 finalizer: a full-avalanche 64-bit permutation.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_across_widths() {
        let samples = [0u64, 1, 127, 128, 129, 255, 256, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &samples {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cursor = buf.as_slice();
            assert_eq!(take_varint(&mut cursor), Some(v), "value {v}");
            assert!(cursor.is_empty(), "value {v} left {} bytes", cursor.len());
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        for v in 0u64..128 {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn take_varint_rejects_truncation() {
        let mut cursor: &[u8] = &[0x80]; // continuation bit with no next byte
        assert_eq!(take_varint(&mut cursor), None);
        let mut empty: &[u8] = &[];
        assert_eq!(take_u8(&mut empty), None);
    }

    #[test]
    fn take_varint_accepts_only_what_put_varint_writes() {
        // A zero last group pads 0 and 1 to two bytes; a tenth byte above 1
        // carries bits past 64.
        let mut padded = [0x80, 0x00].as_slice();
        assert_eq!(take_varint(&mut padded), None);
        let mut padded = [0x81, 0x80, 0x00].as_slice();
        assert_eq!(take_varint(&mut padded), None);
        let mut wide = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02].as_slice();
        assert_eq!(take_varint(&mut wide), None);
        // Every two-byte string either fails or re-encodes to itself.
        for hi in 0..=255u8 {
            for lo in 0..=255u8 {
                let bytes = [lo, hi];
                let mut cursor = bytes.as_slice();
                if let Some(v) = take_varint(&mut cursor) {
                    let mut again = Vec::new();
                    put_varint(&mut again, v);
                    assert_eq!(again, bytes[..2 - cursor.len()], "{bytes:?}");
                }
            }
        }
    }

    #[test]
    fn hash64_separates_length_and_content() {
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"\0"), hash64(b"\0\0"));
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        // Prefix-extension must not be a fixpoint.
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgh\0"));
        // Deterministic.
        assert_eq!(hash64(b"dinefd"), hash64(b"dinefd"));
    }

    /// The explorer's visited store and the fuzz corpus digests are keyed by
    /// these fingerprints, so a rewrite of the chunk loop must leave every
    /// value where it is.
    #[test]
    fn hash64_values_are_pinned() {
        let long: Vec<u8> = (0u8..=40).collect();
        let pins: [(&[u8], u64); 7] = [
            (b"", 0x6e78_9e6a_a1b9_65f4),
            (b"\0", 0x8b3f_3b8e_38ca_4444),
            (b"dinefd", 0x17af_5112_904c_9419),
            (b"abcdefgh", 0x1501_b283_fca5_90c6),
            (b"abcdefgh\0", 0x425f_955f_d03c_270e),
            (b"dining philosophers", 0x3483_44dc_19eb_ea49),
            (&long, 0x8bed_389b_58e2_2cb1),
        ];
        for (bytes, pin) in pins {
            assert_eq!(hash64(bytes), pin, "{bytes:?}");
        }
    }

    #[test]
    fn hash64_spreads_low_and_high_bits() {
        // The visited store homes and tags index slots by the top
        // fingerprint bits, and a table keyed by the low ones must spread
        // as well; a counter-like input family must not collapse onto few
        // patterns at either end.
        use std::collections::HashSet;
        let (mut low, mut high): (HashSet<u64>, HashSet<u64>) = Default::default();
        for i in 0u64..1024 {
            let mut buf = Vec::new();
            put_varint(&mut buf, i);
            low.insert(hash64(&buf) & 1023);
            high.insert(hash64(&buf) >> 54);
        }
        assert!(low.len() > 600, "only {} distinct low-bit patterns", low.len());
        assert!(high.len() > 600, "only {} distinct high-bit patterns", high.len());
    }
}
