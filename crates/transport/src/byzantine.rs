//! Byzantine *sender* behaviors, modeled as transport adapters.
//!
//! The simulated network ([`SimTransport`](crate::SimTransport)) can
//! corrupt or silence links, but some Byzantine faults are properties
//! of a *participant*, not a link — chief among them **equivocation**:
//! one logical send that delivers different payloads to different
//! receivers. A network cannot produce that fault (it never invents
//! bytes per-destination); a lying process can, by simply encoding a
//! different value for each peer.
//!
//! [`Equivocator`] wraps any [`SessionTransport`] and tampers with the
//! frames a chosen set of victim receivers see, deterministically from
//! a seed. Wrapping the transport (rather than patching the protocol)
//! means the *entire* stack above — sessions, layers, choreographies —
//! runs unmodified, exactly as it would under a genuinely compromised
//! participant, and the same seed replays the same equivocation
//! bit-for-bit.

use chorus_core::{ChoreographyLocation, LocationSet, SessionId, SessionTransport, TransportError};
use chorus_wire::{Bytes, Envelope};
use std::task::{Context, Poll};
use std::time::Instant;

/// A transport adapter that makes its owner equivocate: frames sent to
/// a *victim* receiver have one payload bit flipped (chosen
/// deterministically from `seed`, the destination, and the frame's
/// session/seq identity), while every other receiver sees the honest
/// payload. From the receivers' point of view the sender has told two
/// different stories about the same logical value.
///
/// All receive-side methods delegate untouched: an equivocator hears
/// perfectly well, it just lies when it speaks.
pub struct Equivocator<T> {
    inner: T,
    seed: u64,
    victims: Vec<&'static str>,
}

impl<T> Equivocator<T> {
    /// Wraps `inner` so that every frame sent to a location in
    /// `victims` is deterministically tampered with under `seed`.
    pub fn new(inner: T, seed: u64, victims: Vec<&'static str>) -> Self {
        Equivocator { inner, seed, victims }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The deterministic tamper position for a frame to `to`:
    /// `(byte, bit)` of the payload to flip. Stateless in everything
    /// but the frame's identity, so replays agree.
    fn tamper_position(&self, to: &str, session: SessionId, seq: u64, len: usize) -> (usize, u8) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed.rotate_left(29);
        for &b in to.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h ^= session;
        h = h.wrapping_mul(PRIME);
        h ^= seq;
        h = h.wrapping_mul(PRIME);
        ((h % len as u64) as usize, (h >> 32) as u8 & 7)
    }
}

impl<L, Target, T> SessionTransport<L, Target> for Equivocator<T>
where
    L: LocationSet,
    Target: ChoreographyLocation,
    T: SessionTransport<L, Target>,
{
    fn send_frame(&self, to: &str, mut frame: Envelope) -> Result<(), TransportError> {
        if !frame.payload.is_empty() && self.victims.contains(&to) {
            let (byte, bit) =
                self.tamper_position(to, frame.session, frame.seq, frame.payload.len());
            // Copy before flipping: the payload `Bytes` may be shared
            // with the honest copies a multicast sends elsewhere.
            let mut tampered = frame.payload.to_vec();
            tampered[byte] ^= 1 << bit;
            frame.payload = Bytes::from(tampered);
        }
        self.inner.send_frame(to, frame)
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        self.inner.poll_receive_frame(session, from, cx)
    }

    fn poll_receive_blocking(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
        deadline: Instant,
    ) -> Poll<Result<Envelope, TransportError>> {
        self.inner.poll_receive_blocking(session, from, cx, deadline)
    }

    fn close_session(&self, session: SessionId) {
        self.inner.close_session(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, SimNet, SimTransport};

    chorus_core::locations! { Mallory, Victim, Honest }
    type System = chorus_core::LocationSet!(Mallory, Victim, Honest);

    fn net() -> SimNet<System> {
        SimNet::<System>::new(FaultPlan::ideal())
    }

    #[test]
    fn equivocator_lies_to_victims_only() {
        let fabric = net();
        let mallory =
            Equivocator::new(SimTransport::new(Mallory, fabric.clone()), 7, vec!["Victim"]);
        let victim = SimTransport::new(Victim, fabric.clone());
        let honest = SimTransport::new(Honest, fabric.clone());

        let payload = b"the-agreed-value".to_vec();
        mallory.send_frame("Victim", Envelope::new(1, 0, payload.clone())).unwrap();
        mallory.send_frame("Honest", Envelope::new(1, 0, payload.clone())).unwrap();

        let lied = victim.receive_frame(1, "Mallory").unwrap();
        let told = honest.receive_frame(1, "Mallory").unwrap();
        assert_eq!(told.payload.as_ref(), payload.as_slice(), "non-victims hear the truth");
        assert_ne!(lied.payload.as_ref(), payload.as_slice(), "victims hear a different story");
        let flipped: u32 =
            lied.payload.iter().zip(payload.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit of difference");
    }

    #[test]
    fn equivocation_is_seed_deterministic() {
        let run = |seed| {
            let fabric = net();
            let mallory =
                Equivocator::new(SimTransport::new(Mallory, fabric.clone()), seed, vec!["Victim"]);
            let victim = SimTransport::new(Victim, fabric.clone());
            mallory.send_frame("Victim", Envelope::new(1, 0, b"same-input".to_vec())).unwrap();
            victim.receive_frame(1, "Mallory").unwrap().payload.to_vec()
        };
        assert_eq!(run(9), run(9), "same seed, same lie");
        assert_ne!(run(9), run(10), "different seeds lie differently");
    }
}
