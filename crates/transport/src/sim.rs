//! Deterministic simulation transport: virtual time, seeded faults,
//! reproducible delivery schedules.
//!
//! [`SimTransport`] is a [`SessionTransport`] whose links run over a
//! discrete-event model of a hostile network instead of queues or
//! sockets. Every frame a sender offers is assigned a delivery schedule
//! — latency, drops (with retransmission), duplication, partition
//! holds — computed *statelessly* from the [`FaultPlan`] seed, the link
//! identity, and the frame's index on that link. Two runs with the same
//! seed and the same per-link send order therefore produce bit-for-bit
//! identical schedules, no matter how the OS schedules the participant
//! threads: the randomness is keyed by *what* is sent, never by *when*
//! a thread happens to run.
//!
//! The model in one paragraph: time is virtual and per-link — offering
//! the `k`-th frame on a link happens at tick `k`, and the frame's
//! arrival tick is `k + latency + drops·rto`, pushed past any partition
//! window that covers tick `k`. The whole schedule is computed and
//! logged at the send site: the sender validates the frame against its
//! per-(session, sender) stream, logs one send record (its arrival, and
//! whether a duplicate, which is discarded, arrives later), advances the
//! link's virtual time to the largest arrival tick scheduled, and queues
//! the frame on its session's mailbox. Jitter and drops therefore
//! reorder the *logged arrival ticks*, never delivery: a mailbox holds
//! the FIFO order the [`SessionTransport`] contract promises (what TCP
//! re-establishes over a lossy, reordering packet layer) because frames
//! enter it in offer order. Receivers only pop, through the
//! workspace's one blocking receive ([`chorus_core::park`]): a blocked
//! receiver yields a bounded number of times, then parks until a
//! sender's deposit fires its waker, so delivery never waits on a wall
//! clock, and the one receive watchdog turns a genuinely stuck schedule
//! into an error instead of a hung CI run.
//!
//! Failure modes are injected, never emergent: a sender-side sequence
//! violation kills the link for every session behind it (mirroring
//! [`LocalTransport`](crate::LocalTransport)), and a
//! [`Poison`] plan withholds every frame from step `N` on, so tests can
//! pin down how choreographies observe a dead link.
//!
//! Beyond the *fail-stop* faults above, the plan also carries
//! **adversarial** modes that model a Byzantine participant rather than
//! a bad network: [`Corruption`] flips payload bits that survive
//! framing (caught only by the receiver's decode/validation), and
//! [`Silence`] drops every frame on a link forever (surfaced eagerly as
//! a protocol error naming the edge). Both derive statelessly from the
//! seed, exactly like the fail-stop faults, and neither perturbs the
//! delivery schedule the same seed produces with the modes off.
//! Equivocation — one logical send, different payloads per receiver —
//! is a *sender* behavior, so it lives in the
//! [`Equivocator`](crate::Equivocator) adapter, not the plan.
//!
//! The log is bounded: each link keeps its last `LOG_CAP` (1024) send
//! records (one per frame, two for a corrupted one), plus a running
//! digest of every record it ever logged. On failure,
//! [`SimNet::schedule_dump`] renders each link's recent history — sends
//! with their computed arrivals, then the deliveries they imply in
//! virtual-time order — under one digest line for the frames it no
//! longer holds, as text; CI jobs attach it as an artifact so a failing
//! seed replays locally with nothing but the seed. Equal dumps still
//! mean equal whole schedules, because the digest covers the evicted
//! frames.

use crate::mailboxes::Mailboxes;
use chorus_core::sync::{Mutex, MutexGuard};
use chorus_core::{
    locate, park, ChoreographyLocation, LocationSet, SessionId, SessionTransport, Transport,
    TransportError, RAW_SESSION,
};
use chorus_wire::Envelope;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// A frame is retransmitted at most this many times; past that the
/// "network" relents and delivers. Keeps arrival ticks finite even with
/// extreme drop probabilities.
const MAX_RETRANSMITS: u64 = 12;

/// Send records a link keeps: its log holds its last frames' records,
/// and its digest stands in for the ones it evicted.
const LOG_CAP: usize = 1024;

/// Whether a fault rule's optional endpoints select the directed link
/// `from → to`; `None` matches every location on that side.
fn edge_matches(rule_from: Option<&str>, rule_to: Option<&str>, from: &str, to: &str) -> bool {
    rule_from.is_none_or(|f| f == from) && rule_to.is_none_or(|t| t == to)
}

/// One partition window: frames offered on a matching link while
/// `start <= tick < heal` are held and arrive only after the partition
/// heals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Sender the window applies to; `None` matches every sender.
    pub from: Option<&'static str>,
    /// Receiver the window applies to; `None` matches every receiver.
    pub to: Option<&'static str>,
    /// First link tick the partition covers.
    pub start: u64,
    /// First link tick after the heal; must be `> start` for the window
    /// to have any effect.
    pub heal: u64,
}

impl Partition {
    /// A window cutting every link.
    pub fn everywhere(start: u64, heal: u64) -> Self {
        Partition { from: None, to: None, start, heal }
    }

    /// A window cutting one directed link.
    pub fn link(from: &'static str, to: &'static str, start: u64, heal: u64) -> Self {
        Partition { from: Some(from), to: Some(to), start, heal }
    }
}

/// Kills a link after `after` frames: every frame from step `after` on
/// is withheld, and receivers of the link observe a protocol error once
/// the earlier frames are drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poison {
    /// Sender the poison applies to; `None` matches every sender.
    pub from: Option<&'static str>,
    /// Receiver the poison applies to; `None` matches every receiver.
    pub to: Option<&'static str>,
    /// Frame index at which the link dies.
    pub after: u64,
}

impl Poison {
    /// Poisons one directed link after `after` frames.
    pub fn link(from: &'static str, to: &'static str, after: u64) -> Self {
        Poison { from: Some(from), to: Some(to), after }
    }
}

/// Adversarial payload corruption on matching links: each frame's
/// payload has one bit flipped with `probability`, chosen statelessly
/// from the plan seed. The frame still *frames* correctly (header,
/// session, seq untouched), so the corruption survives the transport
/// layer and must be caught by the receiver's decode or validation
/// step — exactly the failure a Byzantine sender (or a tampering
/// network) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Corruption {
    /// Sender the corruption applies to; `None` matches every sender.
    pub from: Option<&'static str>,
    /// Receiver the corruption applies to; `None` matches every receiver.
    pub to: Option<&'static str>,
    /// Per-frame probability of a bit-flip, in `[0, 1]`.
    pub probability: f64,
}

impl Corruption {
    /// Corrupts one directed link with the given per-frame probability.
    pub fn link(from: &'static str, to: &'static str, probability: f64) -> Self {
        Corruption { from: Some(from), to: Some(to), probability }
    }

    /// Corrupts every link with the given per-frame probability.
    pub fn everywhere(probability: f64) -> Self {
        Corruption { from: None, to: None, probability }
    }
}

/// Selective silence: every frame offered on a matching link is dropped
/// forever — the Byzantine "I'll just never talk to *you*" fault, as
/// opposed to a [`Partition`] (which heals) or a [`Poison`] (which
/// fires after N frames). Receivers observe an immediate
/// [`TransportError::Protocol`] naming the silenced edge instead of
/// burning a wall-clock watchdog, because the silence is a plan-level
/// fact the sim knows from tick zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Silence {
    /// Sender the silence applies to; `None` matches every sender.
    pub from: Option<&'static str>,
    /// Receiver the silence applies to; `None` matches every receiver.
    pub to: Option<&'static str>,
}

impl Silence {
    /// Silences one directed link forever.
    pub fn link(from: &'static str, to: &'static str) -> Self {
        Silence { from: Some(from), to: Some(to) }
    }
}

/// The seeded description of how the simulated network misbehaves.
///
/// All probabilities are per *transmission attempt*; a dropped frame is
/// retransmitted after [`rto`](FaultPlan::rto) ticks until it gets
/// through (the sim is a reliable transport over a lossy network, like
/// TCP over IP), so drops delay but never lose messages — the paper's
/// guarantees assume reliable communication (§4.1), and the point of
/// the sim is to stress *schedules*, not to break the contract the
/// choreography was compiled against.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed every per-frame decision derives from.
    pub seed: u64,
    /// Minimum per-hop latency in ticks (clamped to ≥ 1).
    pub base_latency: u64,
    /// Extra uniform latency in `[0, jitter]` ticks; nonzero jitter is
    /// what reorders frames relative to each other.
    pub jitter: u64,
    /// Per-attempt drop probability in `[0, 1]`.
    pub drop: f64,
    /// Probability a delivered frame arrives a second time.
    pub duplicate: f64,
    /// Retransmission timeout in ticks charged per drop.
    pub rto: u64,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Optional link kill-switch.
    pub poison: Option<Poison>,
    /// Adversarial payload corruption rules.
    pub corruption: Vec<Corruption>,
    /// Links silenced forever.
    pub silence: Vec<Silence>,
}

impl FaultPlan {
    /// A perfectly behaved network: unit latency, no faults.
    pub fn ideal() -> Self {
        FaultPlan {
            seed: 0,
            base_latency: 1,
            jitter: 0,
            drop: 0.0,
            duplicate: 0.0,
            rto: 4,
            partitions: Vec::new(),
            poison: None,
            corruption: Vec::new(),
            silence: Vec::new(),
        }
    }

    /// A hostile network whose parameters (latency spread, drop and
    /// duplication rates, an optional early partition) are themselves
    /// derived from `seed`, so a seed *matrix* sweeps qualitatively
    /// different schedules, not just different dice rolls of one
    /// schedule shape.
    pub fn chaos(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        let partitions = if rng.gen_bool(0.5) {
            let start = rng.gen_range(0u64..32);
            let len = 1 + rng.gen_range(0u64..32);
            vec![Partition::everywhere(start, start + len)]
        } else {
            Vec::new()
        };
        FaultPlan {
            seed,
            base_latency: 1 + rng.gen_range(0u64..3),
            jitter: rng.gen_range(0u64..12),
            drop: rng.gen_range(0u64..30) as f64 / 100.0,
            duplicate: rng.gen_range(0u64..20) as f64 / 100.0,
            rto: 2 + rng.gen_range(0u64..8),
            partitions,
            poison: None,
            // Adversarial modes are opt-in (with_corruption /
            // with_silence / the byzantine matrix), never drawn by
            // chaos itself: chaos seeds stress *schedules* of an
            // honest network, and keeping these off preserves every
            // existing seed's schedule bit-for-bit.
            corruption: Vec::new(),
            silence: Vec::new(),
        }
    }

    /// Replaces the seed, keeping the other knobs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt drop probability.
    pub fn with_drop(mut self, drop: f64) -> Self {
        self.drop = drop;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, duplicate: f64) -> Self {
        self.duplicate = duplicate;
        self
    }

    /// Sets the latency jitter in ticks.
    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Adds a partition window.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// Installs a link kill-switch.
    pub fn with_poison(mut self, poison: Poison) -> Self {
        self.poison = Some(poison);
        self
    }

    /// Adds an adversarial corruption rule.
    pub fn with_corruption(mut self, corruption: Corruption) -> Self {
        self.corruption.push(corruption);
        self
    }

    /// Silences a link forever.
    pub fn with_silence(mut self, silence: Silence) -> Self {
        self.silence.push(silence);
        self
    }

    /// The deterministic schedule for frame `k` on `from → to`:
    /// `(arrival tick, drops, held by a partition, duplicate arrival)`.
    ///
    /// Pure in everything but the plan: repeated calls agree, and no
    /// call depends on any other frame's schedule.
    fn schedule(&self, from: &'static str, to: &'static str, k: u64) -> FrameSchedule {
        let mut rng = StdRng::seed_from_u64(frame_seed(self.seed, from, to, k));
        let mut drops = 0u64;
        while drops < MAX_RETRANSMITS && self.drop > 0.0 && rng.gen_bool(self.drop) {
            drops += 1;
        }
        let jit = if self.jitter > 0 { rng.gen_range(0..=self.jitter) } else { 0 };
        let mut arrival = k + self.base_latency.max(1) + jit + drops * self.rto.max(1);
        let mut held = false;
        for partition in &self.partitions {
            if edge_matches(partition.from, partition.to, from, to)
                && partition.start <= k
                && k < partition.heal
            {
                held = true;
                arrival = arrival.max(partition.heal + self.base_latency.max(1));
            }
        }
        let duplicate = if self.duplicate > 0.0 && rng.gen_bool(self.duplicate) {
            let extra = if self.jitter > 0 { rng.gen_range(0..=self.jitter) } else { 0 };
            Some(arrival + 1 + extra)
        } else {
            None
        };
        FrameSchedule { arrival, drops, held, duplicate }
    }

    /// Whether the plan silences `from → to` forever.
    fn silenced(&self, from: &'static str, to: &'static str) -> bool {
        self.silence.iter().any(|s| edge_matches(s.from, s.to, from, to))
    }

    /// The deterministic corruption decision for frame `k` on
    /// `from → to`: `Some((byte, bit))` to flip, `None` to pass clean.
    ///
    /// Drawn from a *separate* stateless generator (the frame seed,
    /// rotated and re-salted), never from [`schedule`](Self::schedule)'s
    /// — so installing a corruption rule cannot perturb the delivery
    /// schedule an existing seed produces.
    fn corrupt_bit(
        &self,
        from: &'static str,
        to: &'static str,
        k: u64,
        payload_len: usize,
    ) -> Option<(usize, u8)> {
        if payload_len == 0 {
            return None;
        }
        let probability = self
            .corruption
            .iter()
            .filter(|c| edge_matches(c.from, c.to, from, to))
            .map(|c| c.probability)
            .fold(0.0f64, f64::max);
        if probability <= 0.0 {
            return None;
        }
        let mut rng =
            StdRng::seed_from_u64(frame_seed(self.seed, from, to, k).rotate_left(17) ^ 0xC0FF);
        if !rng.gen_bool(probability.min(1.0)) {
            return None;
        }
        let byte = rng.gen_range(0..payload_len as u64) as usize;
        let bit = rng.gen_range(0..8u64) as u8;
        Some((byte, bit))
    }
}

struct FrameSchedule {
    arrival: u64,
    drops: u64,
    held: bool,
    duplicate: Option<u64>,
}

/// FNV-1a over the link identity and frame index, folded with the plan
/// seed: the stateless key all per-frame randomness derives from.
fn frame_seed(seed: u64, from: &str, to: &str, k: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = eat(OFFSET, &seed.to_le_bytes());
    h = eat(h, from.as_bytes());
    h = eat(h, &[0xFF]);
    h = eat(h, to.as_bytes());
    h = eat(h, &[0xFF]);
    eat(h, &k.to_le_bytes())
}

/// What happened to one frame, as recorded in the schedule log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// The frame was offered and scheduled.
    Sent {
        /// Transmission attempts lost before the one that arrived.
        drops: u64,
        /// Whether a partition window held the frame.
        held: bool,
        /// Whether a duplicate arrival was scheduled.
        duplicated: bool,
    },
    /// The frame was withheld (dead or poisoned link) and will never
    /// arrive.
    Withheld,
    /// The frame was released to its session mailbox, in FIFO order
    /// (derived from its `Sent` record, never logged).
    Delivered,
    /// A duplicate arrival was discarded (derived from its `Sent`
    /// record, never logged).
    DuplicateDropped,
    /// An adversarial [`Corruption`] rule flipped one payload bit
    /// before the frame was scheduled (logged in addition to `Sent`).
    Corrupted {
        /// Payload byte index that was flipped.
        byte: u64,
        /// Bit within that byte.
        bit: u8,
    },
    /// A [`Silence`] rule dropped the frame forever; it was never
    /// scheduled.
    Silenced,
}

impl SimEventKind {
    /// The kind as two words of a link's digest: a tag with the small
    /// fields, then the wide one.
    fn words(self) -> [u64; 2] {
        match self {
            SimEventKind::Sent { drops, held, duplicated } => {
                [1 | (held as u64) << 8 | (duplicated as u64) << 9, drops]
            }
            SimEventKind::Withheld => [2, 0],
            SimEventKind::Delivered => [3, 0],
            SimEventKind::DuplicateDropped => [4, 0],
            SimEventKind::Corrupted { byte, bit } => [5 | (bit as u64) << 8, byte],
            SimEventKind::Silenced => [6, 0],
        }
    }
}

/// One entry of a link's schedule log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimEvent {
    /// Sending location.
    pub from: &'static str,
    /// Receiving location.
    pub to: &'static str,
    /// The frame's index on its link (also its send tick).
    pub frame: u64,
    /// Session the frame belongs to.
    pub session: SessionId,
    /// Per-(session, sender) sequence number.
    pub seq: u64,
    /// Scheduled arrival tick (0 for withheld frames).
    pub arrival: u64,
    /// Payload length in bytes, as offered.
    pub bytes: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// One send-side record of a link's log: a `Sent`, `Withheld`,
/// `Silenced` or `Corrupted` event without its link, which the link's
/// key already names.
#[derive(Clone, Copy)]
struct SendRecord {
    frame: u64,
    session: SessionId,
    seq: u64,
    arrival: u64,
    bytes: usize,
    kind: SimEventKind,
}

/// One step of a link's running digest, a word at a time (FxHash's
/// rotate-xor-multiply): O(1) state, no allocation.
fn mix(digest: u64, word: u64) -> u64 {
    (digest.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// One directed link's whole state.
#[derive(Default)]
struct SimLink {
    /// Frames offered so far; the next frame's index and send tick.
    sent: u64,
    /// Link-local virtual time: the latest arrival tick scheduled.
    now: u64,
    /// The receive side, filled in offer order at the send site. A
    /// sequence violation or the poison plan fails it.
    boxes: Mailboxes,
    /// The send records of the link's last frames, in frame order, at
    /// most [`LOG_CAP`] of them. A frame's records leave together.
    log: VecDeque<SendRecord>,
    /// Running digest of every record ever logged, evicted ones
    /// included.
    digest: u64,
}

impl SimLink {
    /// Appends `record` to the log and the digest, first evicting the
    /// oldest frame's records if the log is full.
    fn log(&mut self, record: SendRecord) {
        let [tag, field] = record.kind.words();
        self.digest = [record.frame, record.session, record.seq, record.arrival, tag, field]
            .into_iter()
            .fold(self.digest, mix);
        if self.log.len() == LOG_CAP {
            let oldest = self.log.pop_front().map(|r| r.frame);
            while self.log.front().map(|r| r.frame) == oldest {
                self.log.pop_front();
            }
        }
        self.log.push_back(record);
    }

    /// Frames the log no longer holds. Every frame logs at least one
    /// record, so they are the frames before the oldest one retained.
    fn elided(&self) -> u64 {
        self.log.front().map_or(0, |r| r.frame)
    }
}

/// Fails the link with `message`, then releases the lock and wakes
/// every stored waker (outside the lock — a waker re-enqueues into a
/// scheduler queue).
fn fail_link(mut link: MutexGuard<'_, SimLink>, message: String) {
    let fired = link.boxes.fail(message);
    drop(link);
    fired.into_iter().for_each(Waker::wake);
}

struct SimShared {
    plan: FaultPlan,
    links: HashMap<(&'static str, &'static str), Mutex<SimLink>>,
    /// Frames handed to receivers, across all links. Relaxed: a reader
    /// that must see a session's frames has already synchronized with
    /// its receivers (joined them, or heard back from them).
    received: AtomicU64,
}

/// The shared simulated network connecting every ordered pair of
/// locations in `L`. Clone it into each participant and wrap each clone
/// in a [`SimTransport`], exactly like
/// [`LocalTransportChannel`](crate::LocalTransportChannel).
pub struct SimNet<L: LocationSet> {
    shared: Arc<SimShared>,
    system: PhantomData<L>,
}

impl<L: LocationSet> Clone for SimNet<L> {
    fn clone(&self) -> Self {
        SimNet { shared: Arc::clone(&self.shared), system: PhantomData }
    }
}

impl<L: LocationSet> SimNet<L> {
    /// Creates the simulated fabric for census `L` under `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let names = L::names();
        let mut links = HashMap::new();
        for from in &names {
            for to in &names {
                if from != to {
                    links.insert((*from, *to), Mutex::new(SimLink::default()));
                }
            }
        }
        SimNet {
            shared: Arc::new(SimShared { plan, links, received: AtomicU64::new(0) }),
            system: PhantomData,
        }
    }

    /// The plan this net runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.shared.plan
    }

    /// The current virtual time: the largest arrival tick any link has
    /// logged.
    pub fn virtual_now(&self) -> u64 {
        self.sorted_links().map(|(_, link)| link.lock().now).max().unwrap_or(0)
    }

    /// Frames handed to receivers so far, across all links.
    pub fn messages_received(&self) -> u64 {
        self.shared.received.load(Ordering::Relaxed)
    }

    /// The retained schedule log, link by link in name order: each
    /// link's last `LOG_CAP` (1024) send records in frame order, then
    /// the deliveries they imply in **virtual-time order** `(arrival,
    /// frame)`. Records are written at the send site from the
    /// (deterministic) per-frame schedule, so every entry is bit-for-bit
    /// reproducible for a fixed seed and per-link send order, wherever
    /// receivers happened to stop.
    pub fn events(&self) -> Vec<SimEvent> {
        let mut out = Vec::new();
        for (&(from, to), link) in self.sorted_links() {
            out.extend(self.link_events(from, to, &link.lock()));
        }
        out
    }

    /// One link's retained log as events: its send records, then a
    /// `Delivered` for each `Sent` record and a `DuplicateDropped` for
    /// each duplicated one. The schedule is a pure function of the
    /// plan, the link and the frame index, so the duplicate's tick is
    /// recomputed rather than stored.
    fn link_events(&self, from: &'static str, to: &'static str, link: &SimLink) -> Vec<SimEvent> {
        let event = |r: &SendRecord, arrival, kind| SimEvent {
            from,
            to,
            frame: r.frame,
            session: r.session,
            seq: r.seq,
            arrival,
            bytes: r.bytes,
            kind,
        };
        let mut deliveries = Vec::new();
        for r in &link.log {
            if let SimEventKind::Sent { duplicated, .. } = r.kind {
                deliveries.push(event(r, r.arrival, SimEventKind::Delivered));
                if duplicated {
                    let schedule = self.shared.plan.schedule(from, to, r.frame);
                    let tick = schedule.duplicate.expect("a duplicated frame's schedule has one");
                    deliveries.push(event(r, tick, SimEventKind::DuplicateDropped));
                }
            }
        }
        // A frame's Delivered always precedes its DuplicateDropped (the
        // duplicate is scheduled strictly later), so (arrival, frame)
        // is a total order over a link's deliveries.
        deliveries.sort_by_key(|e| (e.arrival, e.frame));
        let mut out: Vec<_> = link.log.iter().map(|r| event(r, r.arrival, r.kind)).collect();
        out.extend(deliveries);
        out
    }

    /// Renders [`events`](Self::events) as replayable text — the
    /// artifact a failing CI seed dumps so each link's recent history
    /// can be eyeballed and diffed locally. A link that has evicted
    /// frames gets one `# N earlier frames elided, digest 0x…` line
    /// under its header; the digest covers every record the link ever
    /// logged, so equal dumps mean equal whole schedules.
    pub fn schedule_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# sim schedule (seed {})", self.shared.plan.seed);
        for (&(from, to), link) in self.sorted_links() {
            let link = link.lock();
            if link.log.is_empty() {
                continue;
            }
            let _ = writeln!(out, "== {from} -> {to}");
            let elided = link.elided();
            if elided > 0 {
                let _ =
                    writeln!(out, "# {elided} earlier frames elided, digest {:#018x}", link.digest);
            }
            for e in self.link_events(from, to, &link) {
                let kind = match e.kind {
                    SimEventKind::Sent { drops, held, duplicated } => format!(
                        "sent     arrival={} drops={drops} held={held} dup={duplicated}",
                        e.arrival
                    ),
                    SimEventKind::Withheld => "withheld".to_string(),
                    SimEventKind::Delivered => format!("deliver  arrival={}", e.arrival),
                    SimEventKind::DuplicateDropped => format!("dupdrop  arrival={}", e.arrival),
                    SimEventKind::Corrupted { byte, bit } => {
                        format!("corrupt  byte={byte} bit={bit}")
                    }
                    SimEventKind::Silenced => "silenced".to_string(),
                };
                let _ = writeln!(
                    out,
                    "frame={:<5} session={:<4} seq={:<5} {kind}",
                    e.frame, e.session, e.seq
                );
            }
        }
        out
    }

    /// The retained log's sends and deliveries as
    /// [`TraceEvent`](crate::TraceEvent)s (sends as `Direction::Send`,
    /// deliveries as `Direction::Receive`, each with its payload
    /// length), so the sim's recent schedule plugs into the same
    /// assertions the [`Trace`](crate::Trace) layer supports.
    pub fn trace_events(&self) -> Vec<crate::TraceEvent> {
        self.events()
            .into_iter()
            .filter_map(|e| {
                let direction = match e.kind {
                    SimEventKind::Sent { .. } => crate::Direction::Send,
                    SimEventKind::Delivered => crate::Direction::Receive,
                    SimEventKind::Withheld
                    | SimEventKind::DuplicateDropped
                    | SimEventKind::Corrupted { .. }
                    | SimEventKind::Silenced => return None,
                };
                Some(crate::TraceEvent {
                    direction,
                    session: e.session,
                    seq: e.seq,
                    from: e.from.to_string(),
                    to: e.to.to_string(),
                    bytes: e.bytes,
                })
            })
            .collect()
    }

    fn sorted_links(
        &self,
    ) -> impl Iterator<Item = (&(&'static str, &'static str), &Mutex<SimLink>)> + '_ {
        let mut keys: Vec<_> = self.shared.links.iter().collect();
        keys.sort_by_key(|(k, _)| **k);
        keys.into_iter()
    }
}

/// One participant's endpoint of a [`SimNet`].
pub struct SimTransport<L: LocationSet, Target: ChoreographyLocation> {
    net: SimNet<L>,
    /// Sequence counters for the raw (sessionless) compatibility path.
    raw_seqs: Mutex<HashMap<&'static str, u64>>,
    target: PhantomData<Target>,
}

impl<L: LocationSet, Target: ChoreographyLocation> SimTransport<L, Target> {
    /// Creates `target`'s endpoint over the simulated fabric.
    pub fn new(target: Target, net: SimNet<L>) -> Self {
        let _ = target;
        SimTransport { net, raw_seqs: Mutex::new(HashMap::new()), target: PhantomData }
    }

    /// The shared net, for schedule inspection.
    pub fn net(&self) -> &SimNet<L> {
        &self.net
    }

    fn link(
        &self,
        from: &'static str,
        to: &'static str,
    ) -> Result<&Mutex<SimLink>, TransportError> {
        self.net.shared.links.get(&(from, to)).ok_or_else(|| {
            TransportError::UnknownLocation(if from == Target::NAME {
                to.to_string()
            } else {
                from.to_string()
            })
        })
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> SessionTransport<L, Target>
    for SimTransport<L, Target>
{
    fn send_frame(&self, to: &str, mut frame: Envelope) -> Result<(), TransportError> {
        let (_, to) = locate::<L>(to)?;
        let from = Target::NAME;
        let plan = &self.net.shared.plan;
        let mut link = self.link(from, to)?.lock();
        let k = link.sent;
        link.sent += 1;
        let (session, seq, bytes) = (frame.session, frame.seq, frame.payload.len());
        let record = |arrival, kind| SendRecord { frame: k, session, seq, arrival, bytes, kind };

        // A link that already failed (sequence violation or poison)
        // withholds everything; as with `LocalTransport`, the send
        // itself reports `Ok` and the error surfaces at the receivers.
        if link.boxes.failed() {
            link.log(record(0, SimEventKind::Withheld));
            return Ok(());
        }
        let admitted = match link.boxes.admit(from, session, seq) {
            Ok(admitted) => admitted,
            Err(reason) => {
                link.log(record(0, SimEventKind::Withheld));
                fail_link(link, reason);
                return Ok(());
            }
        };
        if let Some(poison) = &plan.poison {
            if edge_matches(poison.from, poison.to, from, to) && k >= poison.after {
                link.log(record(0, SimEventKind::Withheld));
                let step = poison.after;
                let message = format!(
                    "link from {from} poisoned at frame {step}: subsequent frames withheld"
                );
                fail_link(link, message);
                return Ok(());
            }
        }
        // Selective silence: the frame is logged and dropped forever.
        // Receivers learn of the silence from the plan itself, so no
        // receive on this link ever blocks or stores a waker, and there
        // is nobody to wake.
        if plan.silenced(from, to) {
            link.log(record(0, SimEventKind::Silenced));
            return Ok(());
        }
        // Adversarial corruption: flip one payload bit, in a fresh
        // buffer (the payload `Bytes` may be shared with other
        // destinations of a multicast — those must stay clean).
        if let Some((byte, bit)) = plan.corrupt_bit(from, to, k, frame.payload.len()) {
            let mut tampered = frame.payload.to_vec();
            tampered[byte] ^= 1 << bit;
            frame.payload = chorus_wire::Bytes::from(tampered);
            link.log(record(0, SimEventKind::Corrupted { byte: byte as u64, bit }));
        }

        let schedule = plan.schedule(from, to, k);
        link.log(record(
            schedule.arrival,
            SimEventKind::Sent {
                drops: schedule.drops,
                held: schedule.held,
                duplicated: schedule.duplicate.is_some(),
            },
        ));
        // Admission. `boxes.admit` above accepted the frame as the next
        // of its stream (or a restart at zero), so it joins its
        // session's mailbox in offer order whatever its arrival tick:
        // the schedule orders the *log*, never delivery. A duplicate is
        // scheduled strictly after its original and discarded. A late
        // frame, for a session the receiver has closed, is logged the
        // same way and then dropped by the table. Virtual time reaches
        // the frame's last arrival, its duplicate's if it has one.
        link.now = link.now.max(schedule.duplicate.unwrap_or(schedule.arrival));
        // Only this session's mailbox gained a frame, so only its waker
        // fires — outside the lock, like every waker.
        let fired = if admitted { link.boxes.queue(frame) } else { None };
        drop(link);
        fired.into_iter().for_each(Waker::wake);
        Ok(())
    }

    fn poll_receive_frame(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Envelope, TransportError>> {
        let (_, from) = locate::<L>(from)?;
        let to = Target::NAME;
        let mut link = self.link(from, to)?.lock();
        // A silenced link never queues a frame. Its receivers read the
        // link's failure if it has one (a failure outranks silence),
        // else the silence, a plan-level fact: no frame will ever
        // arrive, so fail now instead of storing a waker and burning
        // the watchdog.
        if self.net.shared.plan.silenced(from, to) && !link.boxes.failed() {
            return Poll::Ready(Err(TransportError::Protocol(format!(
                "link {from} -> {to} silenced: every frame dropped (selective silence)"
            ))));
        }
        let polled = link.boxes.poll(session, cx.waker());
        if let Poll::Ready(Ok(_)) = polled {
            self.net.shared.received.fetch_add(1, Ordering::Relaxed);
        }
        polled
    }

    /// Every simulated peer is a thread of this process, and virtual
    /// time moves only on sends, so yielding to it before parking
    /// changes no schedule.
    fn poll_receive_blocking(
        &self,
        session: SessionId,
        from: &str,
        cx: &mut Context<'_>,
        _deadline: Instant,
    ) -> Poll<Result<Envelope, TransportError>> {
        let noop = &mut Context::from_waker(Waker::noop());
        if let ready @ Poll::Ready(_) =
            park::poll_before_park(|| self.poll_receive_frame(session, from, noop))
        {
            return ready;
        }
        self.poll_receive_frame(session, from, cx)
    }

    fn close_session(&self, session: SessionId) {
        for from in (0..L::LENGTH).filter_map(L::name_at) {
            if let Some(link) = self.net.shared.links.get(&(from, Target::NAME)) {
                link.lock().boxes.close(session);
            }
        }
    }
}

impl<L: LocationSet, Target: ChoreographyLocation> Transport<L, Target>
    for SimTransport<L, Target>
{
    fn send(&self, to: &str, data: &[u8]) -> Result<(), TransportError> {
        let seq = {
            let (_, to_static) = locate::<L>(to)?;
            let mut seqs = self.raw_seqs.lock();
            let counter = seqs.entry(to_static).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        self.send_frame(to, Envelope::new(RAW_SESSION, seq, data))
    }

    fn receive(&self, from: &str) -> Result<Vec<u8>, TransportError> {
        self.receive_frame(RAW_SESSION, from).map(|envelope| envelope.payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    chorus_core::locations! { Alice, Bob }
    type System = chorus_core::LocationSet!(Alice, Bob);

    fn pair(
        plan: FaultPlan,
    ) -> (SimTransport<System, Alice>, SimTransport<System, Bob>, SimNet<System>) {
        let net = SimNet::<System>::new(plan);
        (SimTransport::new(Alice, net.clone()), SimTransport::new(Bob, net.clone()), net)
    }

    #[test]
    fn ideal_network_preserves_fifo() {
        let (alice, bob, _) = pair(FaultPlan::ideal());
        alice.send("Bob", b"one").unwrap();
        alice.send("Bob", b"two").unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"one");
        assert_eq!(bob.receive("Alice").unwrap(), b"two");
    }

    #[test]
    fn chaos_reorders_packets_but_not_the_stream() {
        // High jitter, drops, and duplicates: the stream the receiver
        // observes must still be the exact FIFO the sender offered.
        let plan =
            FaultPlan::ideal().with_seed(42).with_jitter(20).with_drop(0.3).with_duplicate(0.3);
        let (alice, bob, net) = pair(plan);
        for i in 0..50u32 {
            alice.send("Bob", &i.to_le_bytes()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(bob.receive("Alice").unwrap(), i.to_le_bytes());
        }
        assert!(net.virtual_now() > 0, "virtual time advanced");
        assert_eq!(net.messages_received(), 50);
    }

    /// 32 frames each way under a seed-7 chaos plan: the run behind
    /// `tests/golden/sim_seed7_chaos.txt`.
    fn seed7_chaos_dump() -> String {
        let plan =
            FaultPlan::ideal().with_seed(7).with_jitter(9).with_drop(0.25).with_duplicate(0.25);
        let (alice, bob, net) = pair(plan);
        for i in 0..32u32 {
            alice.send("Bob", &i.to_le_bytes()).unwrap();
            bob.send("Alice", &i.to_le_bytes()).unwrap();
        }
        for i in 0..32u32 {
            assert_eq!(bob.receive("Alice").unwrap(), i.to_le_bytes());
            assert_eq!(alice.receive("Bob").unwrap(), i.to_le_bytes());
        }
        net.schedule_dump()
    }

    #[test]
    fn same_seed_same_schedule() {
        let first = seed7_chaos_dump();
        let second = seed7_chaos_dump();
        assert_eq!(first, second, "one seed, one schedule — bit for bit");
        assert!(first.contains("== Alice -> Bob"));
        // Not only against a second run of this code: the golden file
        // is the dump of an earlier, independent implementation of the
        // same model (CHANGES.md, PR 19).
        assert_eq!(first, include_str!("../tests/golden/sim_seed7_chaos.txt"));
    }

    #[test]
    fn partition_poison_and_session_reuse_match_the_golden_schedule() {
        assert_eq!(
            partition_poison_reuse_dump(),
            include_str!("../tests/golden/sim_partition_poison_reuse.txt")
        );
    }

    /// A partition window over one session run twice, then a poisoned
    /// reverse link: the run behind
    /// `tests/golden/sim_partition_poison_reuse.txt`.
    fn partition_poison_reuse_dump() -> String {
        let plan = FaultPlan::ideal()
            .with_seed(19)
            .with_jitter(5)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_partition(Partition::link("Alice", "Bob", 4, 12))
            .with_poison(Poison::link("Bob", "Alice", 10));
        let (alice, bob, net) = pair(plan);
        // Session 5 runs twice in sequence across the partition window;
        // the second run's sequence restarts at zero.
        for run in 0..2u8 {
            for seq in 0..8u64 {
                alice.send_frame("Bob", Envelope::new(5, seq, vec![run, seq as u8])).unwrap();
            }
            for seq in 0..8u64 {
                assert_eq!(bob.receive_frame(5, "Alice").unwrap().payload, [run, seq as u8]);
            }
        }
        // The reverse link dies at its tenth frame.
        for seq in 0..12u64 {
            bob.send_frame("Alice", Envelope::new(6, seq, vec![seq as u8])).unwrap();
        }
        for seq in 0..10u64 {
            assert_eq!(alice.receive_frame(6, "Bob").unwrap().payload, [seq as u8]);
        }
        let err = alice.receive_frame(6, "Bob").unwrap_err();
        assert!(err.to_string().contains("poisoned at frame 10"), "got: {err}");
        net.schedule_dump()
    }

    #[test]
    fn a_long_link_keeps_its_last_frames_and_a_digest_of_the_rest() {
        // 10 × LOG_CAP frames on one link: frame 0 alone in session
        // `first`, then sessions of 256 frames each.
        let run = |first: SessionId| {
            let plan =
                FaultPlan::ideal().with_seed(31).with_jitter(7).with_drop(0.2).with_duplicate(0.2);
            let (alice, _bob, net) = pair(plan);
            alice.send_frame("Bob", Envelope::new(first, 0, b"first".to_vec())).unwrap();
            for k in 0..10 * LOG_CAP as u64 - 1 {
                let frame = Envelope::new(1 + k / 256, k % 256, k.to_le_bytes().to_vec());
                alice.send_frame("Bob", frame).unwrap();
            }
            net
        };
        let net = run(1_000);
        let retained =
            net.events().iter().filter(|e| matches!(e.kind, SimEventKind::Sent { .. })).count();
        assert!(retained <= LOG_CAP, "{retained} sends retained");
        let dump = net.schedule_dump();
        assert_eq!(dump, run(1_000).schedule_dump(), "one seed, one dump");
        // A different session id in frame 0, long evicted: the retained
        // frames agree line for line, and the digest tells the runs
        // apart.
        let other = run(2_000).schedule_dump();
        let frames = |d: &str| {
            d.lines().filter(|l| l.starts_with("frame=")).map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(frames(&dump), frames(&other), "the retained tails agree");
        assert_ne!(dump, other, "the digest covers the evicted frames");
        let digest =
            |d: &str| d.lines().find(|l| l.contains("earlier frames elided")).map(String::from);
        assert!(digest(&dump).is_some(), "{}", &dump[..200]);
        assert_ne!(digest(&dump), digest(&other));
        // Short runs never reach the bound, so their dumps are unchanged.
        assert_eq!(seed7_chaos_dump(), include_str!("../tests/golden/sim_seed7_chaos.txt"));
        assert_eq!(
            partition_poison_reuse_dump(),
            include_str!("../tests/golden/sim_partition_poison_reuse.txt")
        );
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let (alice, bob, net) =
                pair(FaultPlan::ideal().with_seed(seed).with_jitter(16).with_drop(0.3));
            for i in 0..16u32 {
                alice.send("Bob", &i.to_le_bytes()).unwrap();
            }
            for i in 0..16u32 {
                assert_eq!(bob.receive("Alice").unwrap(), i.to_le_bytes());
            }
            net.schedule_dump()
        };
        assert_ne!(run(1), run(2), "distinct seeds should explore distinct schedules");
    }

    #[test]
    fn partition_holds_frames_until_heal() {
        let plan = FaultPlan::ideal().with_partition(Partition::everywhere(0, 100));
        let (alice, bob, net) = pair(plan);
        alice.send("Bob", b"through-the-partition").unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"through-the-partition");
        assert!(net.virtual_now() > 100, "delivery waited for the heal, got {}", net.virtual_now());
    }

    #[test]
    fn poisoned_link_withholds_later_frames() {
        let plan = FaultPlan::ideal().with_poison(Poison::link("Alice", "Bob", 2));
        let (alice, bob, _) = pair(plan);
        alice.send("Bob", b"zero").unwrap();
        alice.send("Bob", b"one").unwrap();
        alice.send("Bob", b"two-withheld").unwrap();
        assert_eq!(bob.receive("Alice").unwrap(), b"zero");
        assert_eq!(bob.receive("Alice").unwrap(), b"one");
        let err = bob.receive("Alice").unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)));
        assert!(err.to_string().contains("poisoned at frame 2"), "got: {err}");
    }

    #[test]
    fn sequence_gaps_kill_the_link_for_every_session() {
        let (alice, bob, _) = pair(FaultPlan::ideal());
        alice.send_frame("Bob", Envelope::new(1, 0, b"ok".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 2, b"gap".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(2, 0, b"other-session".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"ok");
        assert!(matches!(bob.receive_frame(2, "Alice"), Err(TransportError::Protocol(_))));
    }

    #[test]
    fn unknown_locations_are_rejected() {
        let (alice, _, _) = pair(FaultPlan::ideal());
        assert!(matches!(alice.send("Nobody", b"x"), Err(TransportError::UnknownLocation(_))));
        assert!(matches!(alice.receive("Nobody"), Err(TransportError::UnknownLocation(_))));
    }

    #[test]
    fn sessions_demultiplex_on_one_link() {
        let (alice, bob, _) = pair(FaultPlan::ideal().with_seed(3).with_jitter(6));
        alice.send_frame("Bob", Envelope::new(1, 0, b"s1-first".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(2, 0, b"s2-first".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(1, 1, b"s1-second".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"s2-first");
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"s1-first");
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"s1-second");
    }

    #[test]
    fn sequential_session_reuse_restarts_the_stream() {
        let (alice, bob, _) = pair(FaultPlan::ideal());
        // Run 1 of session 5.
        alice.send_frame("Bob", Envelope::new(5, 0, b"r1-a".to_vec())).unwrap();
        alice.send_frame("Bob", Envelope::new(5, 1, b"r1-b".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(5, "Alice").unwrap().payload, b"r1-a");
        assert_eq!(bob.receive_frame(5, "Alice").unwrap().payload, b"r1-b");
        // Run 2 reuses the id; its seq restarts at zero.
        alice.send_frame("Bob", Envelope::new(5, 0, b"r2-a".to_vec())).unwrap();
        assert_eq!(bob.receive_frame(5, "Alice").unwrap().payload, b"r2-a");
    }

    #[test]
    fn corruption_flips_exactly_one_bit_deterministically() {
        let run = || {
            let plan =
                FaultPlan::ideal().with_seed(11).with_corruption(Corruption::everywhere(1.0));
            let (alice, bob, net) = pair(plan);
            alice.send("Bob", b"payload-under-attack").unwrap();
            let got = bob.receive("Alice").unwrap();
            (got, net.schedule_dump())
        };
        let (first, dump1) = run();
        let (second, dump2) = run();
        assert_eq!(first, second, "corruption must be seed-deterministic");
        assert_eq!(dump1, dump2);
        assert_ne!(first, b"payload-under-attack".to_vec(), "a bit must have flipped");
        let differing: u32 = first
            .iter()
            .zip(b"payload-under-attack".iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1, "exactly one flipped bit");
        assert!(dump1.contains("corrupt  byte="), "dump records the corruption: {dump1}");
    }

    #[test]
    fn corruption_off_leaves_schedules_untouched() {
        // Installing a corruption rule must not perturb the delivery
        // schedule: the corruption rng is separate from schedule()'s.
        let dump = |plan: FaultPlan| {
            let (alice, bob, net) = pair(plan);
            for i in 0..16u32 {
                alice.send("Bob", &i.to_le_bytes()).unwrap();
            }
            for _ in 0..16u32 {
                bob.receive("Alice").unwrap();
            }
            net.schedule_dump()
        };
        let base = FaultPlan::ideal().with_seed(23).with_jitter(9).with_drop(0.2);
        let clean = dump(base.clone());
        let attacked = dump(base.with_corruption(Corruption::everywhere(1.0)));
        let strip =
            |d: &str| d.lines().filter(|l| !l.contains("corrupt")).collect::<Vec<_>>().join("\n");
        assert_eq!(strip(&clean), strip(&attacked), "same arrivals, drops, and order");
    }

    #[test]
    fn silenced_link_errors_eagerly_and_names_the_edge() {
        let plan = FaultPlan::ideal().with_silence(Silence::link("Alice", "Bob"));
        let (alice, bob, net) = pair(plan);
        alice.send("Bob", b"never-arrives").unwrap();
        let before = Instant::now();
        let err = bob.receive("Alice").unwrap_err();
        assert!(before.elapsed() < Duration::from_secs(5), "silence resolves eagerly");
        assert!(matches!(err, TransportError::Protocol(_)));
        let msg = err.to_string();
        assert!(msg.contains("Alice") && msg.contains("Bob") && msg.contains("silenced"), "{msg}");
        // A poll surfaces the same verdict, and the reverse link still
        // works.
        assert!(matches!(poll(&bob, RAW_SESSION, Waker::noop()), Poll::Ready(Err(_))));
        bob.send("Alice", b"reverse-ok").unwrap();
        assert_eq!(alice.receive("Bob").unwrap(), b"reverse-ok");
        assert!(net.schedule_dump().contains("silenced"));
    }

    /// Polls `bob`'s mailbox of `session` from Alice once.
    fn poll(
        bob: &SimTransport<System, Bob>,
        session: SessionId,
        waker: &Waker,
    ) -> Poll<Result<Envelope, TransportError>> {
        bob.poll_receive_frame(session, "Alice", &mut Context::from_waker(waker))
    }

    /// Counts its wakes.
    #[derive(Default)]
    struct Count(std::sync::atomic::AtomicUsize);

    impl Count {
        fn get(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    impl std::task::Wake for Count {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn silenced_link_reports_ready_to_wakers() {
        let plan = FaultPlan::ideal().with_silence(Silence::link("Alice", "Bob"));
        let (_alice, bob, _) = pair(plan);
        let count = Arc::new(Count::default());
        let polled = poll(&bob, RAW_SESSION, &Waker::from(Arc::clone(&count)));
        assert!(polled.is_ready(), "a silenced link must not park a session forever");
        assert_eq!(Arc::strong_count(&count), 1, "and must store no waker");
    }

    #[test]
    fn deposits_wake_only_the_mailboxes_that_gained_frames() {
        let (alice, bob, _) = pair(FaultPlan::ideal());
        let (one, two) = (Arc::new(Count::default()), Arc::new(Count::default()));
        assert!(poll(&bob, 1, &Waker::from(Arc::clone(&one))).is_pending());
        assert!(poll(&bob, 2, &Waker::from(Arc::clone(&two))).is_pending());
        // A frame for session 1 must not cost session 2 a spurious wake.
        alice.send_frame("Bob", Envelope::new(1, 0, b"for-one".to_vec())).unwrap();
        assert_eq!(one.get(), 1);
        assert_eq!(two.get(), 0, "session 2 gained no frame");
        // Session 2's waker is still stored and fires on its own deposit.
        alice.send_frame("Bob", Envelope::new(2, 0, b"for-two".to_vec())).unwrap();
        assert_eq!(two.get(), 1);
        assert_eq!(one.get(), 1, "consumed on its first fire");
        assert_eq!(bob.receive_frame(1, "Alice").unwrap().payload, b"for-one");
        assert_eq!(bob.receive_frame(2, "Alice").unwrap().payload, b"for-two");
    }

    #[test]
    fn eager_draining_leaves_chaos_schedules_bit_identical() {
        // The whole schedule is computed and logged at the send site,
        // so the dump must not care *when* receivers consume: a run
        // that consumes after every send and a run that consumes only
        // at the end see one schedule.
        let plan = || {
            FaultPlan::ideal().with_seed(77).with_jitter(14).with_drop(0.25).with_duplicate(0.25)
        };
        let interleaved = {
            let (alice, bob, net) = pair(plan());
            for i in 0..24u32 {
                alice.send("Bob", &i.to_le_bytes()).unwrap();
                assert_eq!(bob.receive("Alice").unwrap(), i.to_le_bytes());
            }
            net.schedule_dump()
        };
        let batched = {
            let (alice, bob, net) = pair(plan());
            for i in 0..24u32 {
                alice.send("Bob", &i.to_le_bytes()).unwrap();
            }
            for i in 0..24u32 {
                assert_eq!(bob.receive("Alice").unwrap(), i.to_le_bytes());
            }
            net.schedule_dump()
        };
        assert_eq!(interleaved, batched, "drain timing must never change the schedule");
    }

    #[test]
    fn trace_events_mirror_the_delivery_log() {
        let (alice, bob, net) = pair(FaultPlan::ideal());
        alice.send("Bob", b"x").unwrap();
        bob.receive("Alice").unwrap();
        let events = net.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].direction, crate::Direction::Send);
        assert_eq!(events[1].direction, crate::Direction::Receive);
        assert_eq!(events[0].from, "Alice");
        assert_eq!(events[0].to, "Bob");
    }
}
