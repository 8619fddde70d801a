//! Transports for choreographic programs.
//!
//! The paper's libraries execute one choreography over interchangeable
//! transports (§2.1): threads in one process, or sockets between
//! machines. This crate provides the session-native transports and the
//! layers that observe them:
//!
//! * [`LocalTransport`] — in-process, queue-based; each participant runs
//!   on its own thread. One shared fabric carries any number of
//!   concurrent sessions.
//! * [`TcpTransport`] — length-prefixed envelope frames over TCP
//!   sockets, for multi-process execution on one or more hosts, with
//!   per-(session, sender) demultiplexing and a resilient link layer
//!   (retention + cumulative acks + replay, heartbeat supervision,
//!   jittered reconnect backoff with a bounded budget) so connections
//!   can die and return without sessions observing more than latency.
//! * [`FaultyTcp`] — a seeded in-process fault injector for *real*
//!   sockets: a per-edge proxy that kills established connections,
//!   delays accepts, and blackholes one direction on a reproducible
//!   schedule, powering the tcp-chaos suite.
//! * [`SimTransport`] — a deterministic discrete-event simulation of a
//!   hostile network (seeded latency, drops, duplication, reordering,
//!   partitions, link poison, adversarial corruption and selective
//!   silence) with virtual time and reproducible, dumpable delivery
//!   schedules.
//! * [`Equivocator`] — a Byzantine *sender* adapter over any session
//!   transport: delivers deterministically different payloads to chosen
//!   victim receivers for the same logical send.
//! * [`TransportMetrics`] — a [`chorus_core::Layer`] counting messages
//!   and bytes per edge; every communication-efficiency experiment in
//!   the benchmark harness uses it.
//! * [`Trace`] — a layer recording an ordered, session-tagged log of
//!   every send and receive.
//! * [`Cohort`] — runs one role per location over any of these, on one
//!   long-lived thread and endpoint per location: how tests, tables and
//!   examples run a census.

mod byzantine;
mod cohort;
mod faulty;
mod link;
mod local;
mod mailboxes;
mod metrics;
mod sim;
mod tcp;
mod trace;

pub use byzantine::Equivocator;
pub use cohort::{Cohort, CohortEndpoint, MakeTransport, Role};
pub use faulty::{FaultyPlan, FaultyTcp};
pub use link::{LinkTuning, TcpLinkStats};
pub use local::{LocalTransport, LocalTransportChannel};
pub use metrics::{EdgeMetrics, MetricsSnapshot, TransportMetrics};
pub use sim::{
    Corruption, FaultPlan, Partition, Poison, Silence, SimEvent, SimEventKind, SimNet, SimTransport,
};
pub use tcp::{free_local_addrs, TcpConfig, TcpConfigBuilder, TcpTransport};
pub use trace::{Direction, Trace, TraceEvent};
