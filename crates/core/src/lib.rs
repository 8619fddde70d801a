//! Census-polymorphic choreographic programming with conclaves and
//! multiply-located values.
//!
//! This crate is a from-scratch Rust implementation of the design presented
//! in *Efficient, Portable, Census-Polymorphic Choreographic Programming*
//! (PLDI 2025): library-level choreographic programming in which
//!
//! * endpoint projection happens at run time via **dependency injection**
//!   (§5.2) — a [`Choreography`] is a struct whose `run` method receives
//!   its operators through the [`ChoreoOp`] trait, and a [`Session`]
//!   injects endpoint-specific implementations of those operators;
//! * knowledge of choice is managed with **conclaves** and
//!   **multiply-located values** (§3.2–3.3) — [`ChoreoOp::conclave`] runs a
//!   sub-choreography among a sub-census (everyone else skips it), and a
//!   [`ChoreoOp::broadcast`] inside the conclave reaches only the conclave,
//!   so no redundant knowledge-of-choice messages are ever sent;
//! * choreographies are **census-polymorphic** (§3.4) — generic over the
//!   number (not just the identity) of participants, via type-level
//!   location sets, [`ChoreoOp::fanout`] / [`ChoreoOp::fanin`] loops,
//!   [`Faceted`] values, and [`Quire`]s;
//! * membership constraints are **indexed traits** (§5.3) — [`Member`] and
//!   [`Subset`] carry a type-level index that makes the proofs inferable.
//!
//! # Quickstart
//!
//! ```
//! use chorus_core::{ChoreoOp, Choreography, Located, Runner};
//!
//! chorus_core::locations! { Client, Server }
//! type Census = chorus_core::LocationSet!(Client, Server);
//!
//! struct Greet {
//!     name: Located<String, Client>,
//! }
//!
//! impl Choreography<Located<String, Client>> for Greet {
//!     type L = Census;
//!     fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<String, Client> {
//!         // client ~> server
//!         let name = op.comm(Client, Server, &self.name);
//!         // the server computes a reply
//!         let reply = op.locally(Server, |un| format!("hello, {}", un.unwrap_ref(&name)));
//!         // server ~> client
//!         op.comm(Server, Client, &reply)
//!     }
//! }
//!
//! let runner = Runner::new();
//! let result = runner.run(Greet { name: runner.local("world".to_string()) });
//! assert_eq!(runner.unwrap_located(result), "hello, world");
//! ```
//!
//! To execute the same choreography as a real distributed system, give
//! each process an [`Endpoint`] over a transport from the
//! `chorus-transport` crate, open a [`Session`], and call
//! [`Session::epp_and_run`]. One endpoint multiplexes any number of
//! concurrent sessions over shared links, and [`Layer`] middleware
//! (metrics, tracing) installed at build time observes every message.

mod choreography;
mod endpoint;
mod faceted;
mod fold;
mod located;
mod location;
mod member;
pub mod ops;
pub mod park;
mod quire;
mod runner;
mod runtime;
mod session;
pub mod sync;
mod transport;

#[cfg(doctest)]
#[doc = include_str!("../tests/static_rules.md")]
mod static_rules {}

pub use choreography::{
    ChoreoOp, Choreography, CommFailure, CommFailureKind, FanInChoreography, FanOutChoreography,
    Portable,
};
pub use endpoint::{Endpoint, EndpointBuilder, EndpointBuilderWithTransport, Layer, MessageCtx};
pub use faceted::Faceted;
pub use fold::{FoldNil, FoldStep, LocationSetFoldable, LocationSetFolder};
pub use located::{Located, MultiplyLocated, Unwrapper};
pub use location::{ChoreographyLocation, HCons, HNil, LocationSet};
pub use member::{Here, Member, Subset, SubsetCons, SubsetNil, There};
pub use quire::Quire;
pub use runner::Runner;
pub use runtime::{RoleProgram, SessionCx, SessionHandle, SessionRuntime, Step};
pub use session::Session;
pub use transport::{locate, SessionId, SessionTransport, Transport, TransportError, RAW_SESSION};

/// The text of a caught panic's payload: the `&str` or `String` that
/// `panic!` carries, or a placeholder for any other payload. Pass the
/// payload itself (`&*boxed`), not the `Box` around it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
