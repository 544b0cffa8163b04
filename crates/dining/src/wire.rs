//! [`Wire`] codecs for the dining message family.
//!
//! The live transport (crate `dinefd-live`) carries messages as
//! length-prefixed byte frames, so every message type that may cross a
//! socket needs a canonical byte form. The vendored serde stub cannot
//! derive fielded enums, hence these hand-written codecs: one tag byte per
//! variant, fixed-width little-endian fields, no padding. Every codec is
//! exact-roundtrip and canonical (one byte string per value) — the
//! differential sim-vs-live harness depends on that.

use dinefd_sim::{Wire, WireError, WireReader, WireWriter};

use crate::coord::CoordMsg;
use crate::fair::FairMsg;
use crate::hygienic::HyMsg;
use crate::participant::DiningMsg;
use crate::wfdx::{Ts, WxMsg};

impl Wire for WxMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            WxMsg::Request(ts) => {
                w.u8(0);
                w.u64(ts.clock);
                w.u32(ts.id);
            }
            WxMsg::Fork { clock } => {
                w.u8(1);
                w.u64(*clock);
            }
            WxMsg::TokenReturn { clock } => {
                w.u8(2);
                w.u64(*clock);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WxMsg::Request(Ts { clock: r.u64()?, id: r.u32()? })),
            1 => Ok(WxMsg::Fork { clock: r.u64()? }),
            2 => Ok(WxMsg::TokenReturn { clock: r.u64()? }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for HyMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            HyMsg::ForkRequest => 0,
            HyMsg::Fork => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(HyMsg::ForkRequest),
            1 => Ok(HyMsg::Fork),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for CoordMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            CoordMsg::Request => 0,
            CoordMsg::Grant => 1,
            CoordMsg::Release => 2,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CoordMsg::Request),
            1 => Ok(CoordMsg::Grant),
            2 => Ok(CoordMsg::Release),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for FairMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.u8(match self {
            FairMsg::Hungry => 0,
            FairMsg::Done => 1,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FairMsg::Hungry),
            1 => Ok(FairMsg::Done),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// One tag byte per protocol, then that protocol's codec. Tags 0/1/2 are
/// the ones the hygienic, ◇P-fork and coordinator traffic always carried.
impl Wire for DiningMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DiningMsg::Hygienic(m) => {
                w.u8(0);
                m.encode(w);
            }
            DiningMsg::WfDx(m) => {
                w.u8(1);
                m.encode(w);
            }
            DiningMsg::Coord(m) => {
                w.u8(2);
                m.encode(w);
            }
            DiningMsg::Fair(m) => {
                w.u8(3);
                m.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DiningMsg::Hygienic(HyMsg::decode(r)?)),
            1 => Ok(DiningMsg::WfDx(WxMsg::decode(r)?)),
            2 => Ok(DiningMsg::Coord(CoordMsg::decode(r)?)),
            3 => Ok(DiningMsg::Fair(FairMsg::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: DiningMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(DiningMsg::from_bytes(&bytes).unwrap(), msg, "roundtrip of {msg:?}");
    }

    #[test]
    fn every_dining_variant_roundtrips() {
        let ts = Ts { clock: u64::MAX - 1, id: 3 };
        for msg in [
            DiningMsg::Hygienic(HyMsg::ForkRequest),
            DiningMsg::Hygienic(HyMsg::Fork),
            DiningMsg::WfDx(WxMsg::Request(ts)),
            DiningMsg::WfDx(WxMsg::Fork { clock: 0 }),
            DiningMsg::WfDx(WxMsg::TokenReturn { clock: 9 }),
            DiningMsg::Coord(CoordMsg::Request),
            DiningMsg::Coord(CoordMsg::Grant),
            DiningMsg::Coord(CoordMsg::Release),
            DiningMsg::Fair(FairMsg::Hungry),
            DiningMsg::Fair(FairMsg::Done),
        ] {
            roundtrip(msg);
        }
    }

    /// The live transport's tag numbering, stated: one frame per protocol.
    #[test]
    fn each_protocol_has_its_golden_frame() {
        let golden: [(DiningMsg, &[u8]); 4] = [
            (DiningMsg::Hygienic(HyMsg::Fork), &[0, 1]),
            (
                DiningMsg::WfDx(WxMsg::Request(Ts { clock: 0x0102, id: 7 })),
                &[1, 0, 0x02, 0x01, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0],
            ),
            (DiningMsg::Coord(CoordMsg::Release), &[2, 2]),
            (DiningMsg::Fair(FairMsg::Done), &[3, 1]),
        ];
        for (msg, bytes) in golden {
            assert_eq!(msg.to_bytes(), bytes, "frame of {msg:?}");
            assert_eq!(DiningMsg::from_bytes(bytes).unwrap(), msg);
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(DiningMsg::from_bytes(&[4]).is_err());
        assert!(DiningMsg::from_bytes(&[0, 2]).is_err());
        assert!(DiningMsg::from_bytes(&[3, 2]).is_err());
        assert!(DiningMsg::from_bytes(&[]).is_err());
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = DiningMsg::WfDx(WxMsg::Request(Ts { clock: 5, id: 6 })).to_bytes();
        for cut in 0..bytes.len() {
            assert!(DiningMsg::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }
}
