//! Facade crate for the PLDI 2025 reproduction of *Efficient, Portable,
//! Census-Polymorphic Choreographic Programming*.
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`core`] — the choreographic programming library (conclaves, MLVs,
//!   census polymorphism, EPP-as-DI).
//! * [`wire`] — the binary serde wire format.
//! * [`transport`] — in-process, TCP, and instrumented transports.
//! * [`lambda`] — the executable λC/λL/λN formal model.
//! * [`mpc`] — fields, secret sharing, SHA-256, oblivious transfer.
//! * [`patterns`] — Byzantine-robust building blocks (broadcast-gather,
//!   commit-reveal verification, propose-and-acknowledge).
//! * [`protocols`] — the paper's case studies.
//! * [`kvs`] — the sharded, replicated KVS with dynamic census
//!   (join/leave, live resharding, replica recovery).
//! * [`baseline`] — the HasChor-style broadcast-KoC baseline.
//!
//! See `README.md` for a guided tour (its "The benchmark" section names
//! the four table binaries that reproduce the paper's message-count
//! tables, and `chorus_e2e`), and `DESIGN.md` for the system inventory.

pub use chorus_baseline as baseline;
pub use chorus_core as core;
pub use chorus_kvs as kvs;
pub use chorus_lambda as lambda;
pub use chorus_mpc as mpc;
pub use chorus_patterns as patterns;
pub use chorus_protocols as protocols;
pub use chorus_transport as transport;
pub use chorus_wire as wire;
