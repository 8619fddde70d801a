//! Link-layer frames: the control vocabulary that makes a stream
//! transport resilient to connection loss.
//!
//! A resilient link (see `TcpTransport`) retains every data frame it
//! sends until the peer acknowledges it, so a broken connection can be
//! re-established and the unacknowledged tail replayed. That protocol
//! needs a second vocabulary *under* the session [`Envelope`]: a
//! per-link sequence number stamped on every data frame (the
//! retransmission index), cumulative acknowledgements flowing the other
//! way, heartbeat probes to detect half-dead connections, and a resume
//! marker exchanged on reconnect. This module is that vocabulary's wire
//! format:
//!
//! ```text
//! +-----+================================+
//! | tag |        tag-specific body       |
//! +-----+================================+
//!
//! tag 0  DATA    link_seq (u64 LE), then one Envelope
//! tag 1  ACK     next (u64 LE)  — every link_seq < next was received
//! tag 2  PING    nonce (u64 LE)
//! tag 3  PONG    nonce (u64 LE), next (u64 LE)
//! tag 4  RESUME  next (u64 LE)  — receiver's cursor, sent on (re)connect
//! ```
//!
//! Like the envelope itself, every integer is little-endian and a frame
//! is always exactly one of these bodies: decoding reports
//! [`WireError::UnexpectedEof`] on truncation and
//! [`WireError::TrailingBytes`] on excess, so a framing bug can never
//! be silently absorbed.

use crate::{Envelope, WireError};

/// Frame tag: a data frame (link sequence number + envelope).
pub const LINK_DATA: u8 = 0;
/// Frame tag: a cumulative acknowledgement.
pub const LINK_ACK: u8 = 1;
/// Frame tag: a heartbeat probe.
pub const LINK_PING: u8 = 2;
/// Frame tag: a heartbeat reply, with a piggybacked acknowledgement.
pub const LINK_PONG: u8 = 3;
/// Frame tag: the receiver's resume cursor, sent after the handshake.
pub const LINK_RESUME: u8 = 4;

/// Byte length of the fixed data-frame prefix (tag + link sequence).
pub const DATA_HEADER_LEN: usize = 1 + 8;

/// The longest control frame: a pong's tag, nonce and cursor.
pub const CONTROL_MAX_LEN: usize = 1 + 8 + 8;

/// Bytes a data frame adds around its payload when it travels
/// `u32`-length-prefixed on a stream: the outer length, the data
/// header, and the envelope header. A *batch* of data frames is plain
/// concatenation of such frames — there is no batch-level framing, so
/// batched senders stay wire-compatible with frame-at-a-time receivers
/// (and vice versa).
pub const DATA_FRAME_OVERHEAD: usize = 4 + DATA_HEADER_LEN + crate::ENVELOPE_HEADER_LEN;

/// Total wire footprint of one length-prefixed data frame carrying
/// `envelope` — the unit batched senders account retention watermarks
/// and flush decisions in.
pub fn data_frame_wire_len(envelope: &Envelope) -> usize {
    DATA_FRAME_OVERHEAD + envelope.payload.len()
}

/// The fixed prefix of a data frame: tag byte plus link sequence
/// number, for senders that assemble frames in a reused buffer and put
/// the envelope on the wire without an intermediate allocation.
pub fn data_header(link_seq: u64) -> [u8; DATA_HEADER_LEN] {
    let mut header = [0u8; DATA_HEADER_LEN];
    header[0] = LINK_DATA;
    header[1..9].copy_from_slice(&link_seq.to_le_bytes());
    header
}

/// A non-data link frame: acknowledgement, heartbeat, or resume marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFrame {
    /// Every data frame with `link_seq < next` has been received.
    Ack {
        /// The receiver's cursor: the next link sequence it expects.
        next: u64,
    },
    /// A liveness probe; the peer answers with a [`ControlFrame::Pong`]
    /// carrying the same nonce.
    Ping {
        /// Correlates the probe with its reply.
        nonce: u64,
    },
    /// The reply to a [`ControlFrame::Ping`], with the receive cursor
    /// piggybacked so an idle link still drains its peer's retention
    /// queue.
    Pong {
        /// The nonce of the probe being answered.
        nonce: u64,
        /// The receiver's cursor, exactly as in [`ControlFrame::Ack`].
        next: u64,
    },
    /// Sent by the accepting side right after the handshake: the link
    /// sequence it expects next, so a reconnecting sender replays
    /// exactly the unacknowledged tail.
    Resume {
        /// The receiver's cursor.
        next: u64,
    },
}

/// Any frame a resilient link puts on the wire: a data frame carrying
/// one session [`Envelope`], or a [`ControlFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFrame {
    /// One session envelope, stamped with its per-link retransmission
    /// index.
    Data {
        /// Position of this frame in the link's transmit stream.
        link_seq: u64,
        /// The session frame being carried.
        envelope: Envelope,
    },
    /// An acknowledgement, heartbeat, or resume marker.
    Control(ControlFrame),
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, WireError> {
    let end = at + 8;
    if bytes.len() < end {
        return Err(WireError::UnexpectedEof);
    }
    Ok(u64::from_le_bytes(bytes[at..end].try_into().expect("8 bytes")))
}

/// Rejects bodies longer than `expected` — a link frame is always
/// exactly one body.
fn exact_len(bytes: &[u8], expected: usize) -> Result<(), WireError> {
    match bytes.len() {
        n if n < expected => Err(WireError::UnexpectedEof),
        n if n > expected => Err(WireError::TrailingBytes(n - expected)),
        _ => Ok(()),
    }
}

impl ControlFrame {
    /// Encodes the control frame into the front of `out`, which
    /// [`CONTROL_MAX_LEN`] bytes always fit, and returns its length: a
    /// link writes control frames from a stack buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out` is too short for the frame.
    pub fn encode_into(&self, out: &mut [u8]) -> usize {
        let (tag, words, count) = match *self {
            ControlFrame::Ack { next } => (LINK_ACK, [next, 0], 1),
            ControlFrame::Ping { nonce } => (LINK_PING, [nonce, 0], 1),
            ControlFrame::Pong { nonce, next } => (LINK_PONG, [nonce, next], 2),
            ControlFrame::Resume { next } => (LINK_RESUME, [next, 0], 1),
        };
        out[0] = tag;
        for (word, at) in words[..count].iter().zip((1..).step_by(8)) {
            out[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        1 + 8 * count
    }

    /// Encodes the control frame into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = [0u8; CONTROL_MAX_LEN];
        let len = self.encode_into(&mut out);
        out[..len].to_vec()
    }
}

impl LinkFrame {
    /// Encodes the frame into a fresh byte vector.
    ///
    /// Hot paths write the [`data_header`] prefix and the envelope into
    /// a reused buffer instead; this allocating form exists for control
    /// frames, tests, and the format pin between the two.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            LinkFrame::Data { link_seq, envelope } => {
                let mut out = Vec::with_capacity(DATA_HEADER_LEN + envelope.encoded_len());
                out.extend_from_slice(&data_header(*link_seq));
                out.extend_from_slice(&envelope.encode());
                out
            }
            LinkFrame::Control(control) => control.encode(),
        }
    }

    /// Decodes one link frame from exactly one frame body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the body is truncated,
    /// [`WireError::TrailingBytes`] if bytes remain after the frame, and
    /// [`WireError::Message`] for an unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let Some((&tag, body)) = bytes.split_first() else {
            return Err(WireError::UnexpectedEof);
        };
        match tag {
            LINK_DATA => {
                let link_seq = read_u64(body, 0)?;
                let envelope = Envelope::decode(&body[8..])?;
                Ok(LinkFrame::Data { link_seq, envelope })
            }
            LINK_ACK => {
                exact_len(body, 8)?;
                Ok(LinkFrame::Control(ControlFrame::Ack { next: read_u64(body, 0)? }))
            }
            LINK_PING => {
                exact_len(body, 8)?;
                Ok(LinkFrame::Control(ControlFrame::Ping { nonce: read_u64(body, 0)? }))
            }
            LINK_PONG => {
                exact_len(body, 16)?;
                Ok(LinkFrame::Control(ControlFrame::Pong {
                    nonce: read_u64(body, 0)?,
                    next: read_u64(body, 8)?,
                }))
            }
            LINK_RESUME => {
                exact_len(body, 8)?;
                Ok(LinkFrame::Control(ControlFrame::Resume { next: read_u64(body, 0)? }))
            }
            other => Err(WireError::Message(format!("unknown link frame tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_header_matches_the_encoded_prefix() {
        let frame =
            LinkFrame::Data { link_seq: 0x0102_0304, envelope: Envelope::new(7, 3, b"x".to_vec()) };
        let bytes = frame.encode();
        assert_eq!(&bytes[..DATA_HEADER_LEN], &data_header(0x0102_0304));
        assert_eq!(LinkFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn data_frame_wire_len_matches_the_length_prefixed_encoding() {
        for payload in [&b""[..], b"x", &[7u8; 4096]] {
            let envelope = Envelope::new(3, 9, payload.to_vec());
            let encoded = LinkFrame::Data { link_seq: 5, envelope: envelope.clone() }.encode();
            assert_eq!(data_frame_wire_len(&envelope), 4 + encoded.len());
        }
    }

    #[test]
    fn control_frames_round_trip() {
        for frame in [
            ControlFrame::Ack { next: 0 },
            ControlFrame::Ack { next: u64::MAX },
            ControlFrame::Ping { nonce: 9 },
            ControlFrame::Pong { nonce: 9, next: 17 },
            ControlFrame::Resume { next: 42 },
        ] {
            let decoded = LinkFrame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, LinkFrame::Control(frame));
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let err = LinkFrame::decode(&[200, 0, 0]).unwrap_err();
        assert!(matches!(err, WireError::Message(_)), "got {err:?}");
    }

    #[test]
    fn empty_input_is_truncation() {
        assert!(matches!(LinkFrame::decode(&[]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ControlFrame::Ack { next: 1 }.encode();
        bytes.push(0);
        assert!(matches!(LinkFrame::decode(&bytes), Err(WireError::TrailingBytes(1))));
    }
}
