//! Length-prefixed framing over a byte stream.
//!
//! Every message on the live transport travels as one frame: a `u32`
//! little-endian payload length followed by that many payload bytes (the
//! [`Wire`] encoding of the message). The first frame on every connection
//! is a *hello* carrying the connecting process's [`ProcessId`], so the
//! accepting side learns who is on the other end of an otherwise anonymous
//! loopback connection.
//!
//! The cluster's event loops read whatever a socket holds and cut frames out
//! of their buffer with [`split_frame`]; [`read_frame`] reads one frame from
//! a blocking reader.

use std::io::{self, Read, Write};

use dinefd_runtime::{ProcessId, Wire};

/// Frames larger than this are treated as stream corruption. The largest
/// legitimate payload (a reduction `Dx` frame) is a few dozen bytes; a
/// million is comfortably past anything this workspace encodes while still
/// rejecting garbage length prefixes before a doomed allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Appends one length-prefixed frame to `buf`, so a sender can put several
/// frames for one destination on the wire with a single write.
pub fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Writes one length-prefixed frame. Header and payload leave in a single
/// `write`: on an unbuffered `TCP_NODELAY` socket every `write` is a
/// syscall and a segment.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    push_frame(&mut buf, payload)?;
    w.write_all(&buf)?;
    w.flush()
}

/// The payload length a frame header claims, checked against
/// [`MAX_FRAME_LEN`] before anything is allocated for it.
fn payload_len(header: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length out of range"));
    }
    Ok(len as usize)
}

/// Reads one length-prefixed frame. Returns `None` on clean end-of-stream
/// (the peer closed between frames — its crash or horizon exit).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut payload = vec![0u8; payload_len(header)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Cuts the first frame off the front of `buf`: its payload and the bytes
/// after it. `Ok(None)` while the header or the payload is still short of
/// bytes; an error for a length past [`MAX_FRAME_LEN`].
pub fn split_frame(buf: &[u8]) -> io::Result<Option<(&[u8], &[u8])>> {
    let Some((header, rest)) = buf.split_first_chunk::<4>() else { return Ok(None) };
    let len = payload_len(*header)?;
    Ok((rest.len() >= len).then(|| rest.split_at(len)))
}

/// Writes the link-opening hello frame identifying `who`.
pub fn write_hello<W: Write>(w: &mut W, who: ProcessId) -> io::Result<()> {
    write_frame(w, &who.to_bytes())
}

/// Reads the link-opening hello frame.
pub fn read_hello<R: Read>(r: &mut R) -> io::Result<ProcessId> {
    let payload = read_frame(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "eof before hello"))?;
    ProcessId::from_bytes(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"omega").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"omega"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn hello_identifies_the_peer() {
        let mut buf = Vec::new();
        write_hello(&mut buf, ProcessId(7)).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_hello(&mut r).unwrap(), ProcessId(7));
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut r = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        let mut r = io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err(), "one past the limit is already out of range");
    }

    #[test]
    fn hello_that_is_not_a_process_id_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"not-a-pid").unwrap();
        assert!(read_hello(&mut io::Cursor::new(buf)).is_err());
        assert!(read_hello(&mut io::Cursor::new(Vec::new())).is_err(), "eof before hello");
    }

    /// A link's byte stream cut anywhere short of its end never yields the
    /// whole conversation: the reader hits `Err` (cut inside a payload) or
    /// `Ok(None)` (cut at or inside a header) first, and never panics.
    #[test]
    fn every_strict_prefix_of_a_link_ends_early() {
        let mut link = Vec::new();
        write_hello(&mut link, ProcessId(3)).unwrap();
        for payload in [&b"one"[..], b"", b"three"] {
            write_frame(&mut link, payload).unwrap();
        }
        // How many of the link's four frames a reader gets out of `bytes`.
        let frames_read = |bytes: &[u8]| {
            let mut r = io::Cursor::new(bytes);
            if read_hello(&mut r).is_err() {
                return 0;
            }
            1 + (0..3).take_while(|_| matches!(read_frame(&mut r), Ok(Some(_)))).count()
        };
        assert_eq!(frames_read(&link), 4);
        for cut in 0..link.len() {
            assert!(frames_read(&link[..cut]) < 4, "prefix of {cut} bytes read as a whole link");
        }
    }

    /// Every frame `split_frame` cuts out of `buf`, and the bytes left over.
    fn split_all(mut buf: &[u8]) -> io::Result<(Vec<Vec<u8>>, usize)> {
        let mut frames = Vec::new();
        while let Some((payload, rest)) = split_frame(buf)? {
            frames.push(payload.to_vec());
            buf = rest;
        }
        Ok((frames, buf.len()))
    }

    #[test]
    fn split_frame_agrees_on_any_feed() {
        let mut link = Vec::new();
        for payload in [&b"alpha"[..], b"", b"omega", b"\x00\x01"] {
            push_frame(&mut link, payload).unwrap();
        }
        let (whole, left) = split_all(&link).unwrap();
        assert_eq!(whole, [&b"alpha"[..], b"", b"omega", b"\x00\x01"]);
        assert_eq!(left, 0);
        // Byte at a time, cutting frames out whenever one is complete, as an
        // event loop does with whatever a read returned.
        let (mut buf, mut fed) = (Vec::new(), Vec::new());
        for &b in &link {
            buf.push(b);
            let (frames, left) = split_all(&buf).unwrap();
            fed.extend(frames);
            buf.drain(..buf.len() - left);
        }
        assert_eq!(fed, whole);
        assert!(buf.is_empty());
    }

    #[test]
    fn split_frame_waits_for_a_short_header_or_payload() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"abcdef").unwrap();
        for cut in 0..buf.len() {
            assert!(split_frame(&buf[..cut]).unwrap().is_none(), "{cut} bytes made a frame");
        }
        let (payload, rest) = split_frame(&buf).unwrap().unwrap();
        assert_eq!((payload, rest), (&b"abcdef"[..], &b""[..]));
    }

    #[test]
    fn split_frame_rejects_a_length_past_the_limit_without_its_bytes() {
        // Only the header is there: the claimed length is checked, never
        // waited for or allocated.
        assert!(split_frame(&(MAX_FRAME_LEN + 1).to_le_bytes()).is_err());
        assert!(split_frame(&u32::MAX.to_le_bytes()).is_err());
        let at_limit = MAX_FRAME_LEN.to_le_bytes();
        assert!(split_frame(&at_limit).unwrap().is_none(), "the limit itself is legal");
    }

    #[test]
    fn split_frame_takes_a_zero_length_payload() {
        let (payload, rest) = split_frame(&[0, 0, 0, 0, 9]).unwrap().unwrap();
        assert!(payload.is_empty());
        assert_eq!(rest, [9]);
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Counts `write` calls; takes every byte offered.
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0);
        write_frame(&mut w, b"payload").unwrap();
        write_hello(&mut w, ProcessId(1)).unwrap();
        assert_eq!(w.0, 2, "one write per frame, header included");
    }
}
