//! [`Wire`] codec for [`RedMsg`] — the reduction's cross-socket frames.
//!
//! One tag byte per variant, then fixed-width fields; the nested
//! [`DiningMsg`](dinefd_dining::DiningMsg) reuses its own codec from
//! `dinefd-dining`. Canonical and exact-roundtrip, like every codec the
//! live transport carries.

use dinefd_sim::{ProcessId, Wire, WireError, WireReader, WireWriter};

use crate::host::RedMsg;

impl Wire for RedMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RedMsg::Dx { watcher, subject, instance, inner } => {
                w.u8(0);
                watcher.encode(w);
                subject.encode(w);
                w.u8(*instance);
                inner.encode(w);
            }
            RedMsg::Ping { watcher, subject, instance, seq } => {
                w.u8(1);
                watcher.encode(w);
                subject.encode(w);
                w.u8(*instance);
                w.u64(*seq);
            }
            RedMsg::Ack { watcher, subject, instance, seq } => {
                w.u8(2);
                watcher.encode(w);
                subject.encode(w);
                w.u8(*instance);
                w.u64(*seq);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RedMsg::Dx {
                watcher: ProcessId::decode(r)?,
                subject: ProcessId::decode(r)?,
                instance: r.u8()?,
                inner: Wire::decode(r)?,
            }),
            1 => Ok(RedMsg::Ping {
                watcher: ProcessId::decode(r)?,
                subject: ProcessId::decode(r)?,
                instance: r.u8()?,
                seq: r.u64()?,
            }),
            2 => Ok(RedMsg::Ack {
                watcher: ProcessId::decode(r)?,
                subject: ProcessId::decode(r)?,
                instance: r.u8()?,
                seq: r.u64()?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_dining::wfdx::{Ts, WxMsg};
    use dinefd_dining::DiningMsg;

    #[test]
    fn red_msgs_roundtrip() {
        let w = ProcessId(0);
        let s = ProcessId(3);
        for msg in [
            RedMsg::Dx {
                watcher: w,
                subject: s,
                instance: 1,
                inner: DiningMsg::WfDx(WxMsg::Request(Ts { clock: 44, id: 3 })),
            },
            RedMsg::Ping { watcher: w, subject: s, instance: 0, seq: u64::MAX },
            RedMsg::Ack { watcher: s, subject: w, instance: 1, seq: 0 },
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(RedMsg::from_bytes(&bytes).unwrap(), msg);
        }
    }

    /// Every queued event of a reduction run carries one: the 24-byte
    /// `DiningMsg` plus the pair tag.
    #[test]
    fn a_red_msg_is_40_bytes() {
        assert_eq!(std::mem::size_of::<RedMsg>(), 40);
    }

    /// A recorded run keeps one trace event per observation, so the
    /// event's width is most of a recording's memory.
    #[test]
    fn a_reduction_trace_event_is_32_bytes() {
        use crate::host::RedObs;
        use dinefd_sim::TraceEvent;
        assert_eq!(std::mem::size_of::<TraceEvent<RedObs>>(), 32);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(RedMsg::from_bytes(&[]).is_err());
        assert!(RedMsg::from_bytes(&[9]).is_err());
        let bytes =
            RedMsg::Ping { watcher: ProcessId(0), subject: ProcessId(1), instance: 0, seq: 5 }
                .to_bytes();
        assert!(RedMsg::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
