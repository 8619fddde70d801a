//! The address book and its builder: where each location listens, and
//! the link tuning every endpoint of the system shares.

use crate::link::LinkTuning;
use chorus_core::{ChoreographyLocation, LocationSet};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Address book for a TCP system: one socket address per location in
/// `L`, plus the link-layer policy every endpoint of the system shares.
#[derive(Debug, Clone)]
pub struct TcpConfig<L: LocationSet> {
    pub(super) addrs: HashMap<&'static str, SocketAddr>,
    pub(super) tuning: LinkTuning,
    pub(super) system: PhantomData<L>,
}

/// Builder for [`TcpConfig`]: the address book and the four
/// [`LinkTuning`] values, each at its default unless set here.
#[derive(Debug, Default)]
pub struct TcpConfigBuilder {
    addrs: HashMap<&'static str, SocketAddr>,
    tuning: LinkTuning,
}

impl TcpConfigBuilder {
    /// Starts an empty address book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `addr` to `location`.
    pub fn location<P: ChoreographyLocation>(mut self, location: P, addr: SocketAddr) -> Self {
        let _ = location;
        self.addrs.insert(P::NAME, addr);
        self
    }

    /// Sets [`LinkTuning::retry_limit`] (at least one attempt).
    pub fn retry_limit(mut self, attempts: u32) -> Self {
        self.tuning.retry_limit = attempts.max(1);
        self
    }

    /// Sets [`LinkTuning::retry_base`].
    pub fn retry_base(mut self, base: Duration) -> Self {
        self.tuning.retry_base = base;
        self
    }

    /// Sets [`LinkTuning::heartbeat`].
    pub fn heartbeat(mut self, heartbeat: Duration) -> Self {
        self.tuning.heartbeat = heartbeat;
        self
    }

    /// Sets [`LinkTuning::retain_max`].
    pub fn retain_max(mut self, bytes: usize) -> Self {
        self.tuning.retain_max = bytes;
        self
    }

    /// Finalizes the address book for the system census `L`.
    ///
    /// # Errors
    ///
    /// Returns the set of missing names if any location in `L` has no
    /// address.
    pub fn build<L: LocationSet>(self) -> Result<TcpConfig<L>, Vec<&'static str>> {
        let missing: Vec<&'static str> =
            L::names().into_iter().filter(|n| !self.addrs.contains_key(n)).collect();
        if missing.is_empty() {
            Ok(TcpConfig { addrs: self.addrs, tuning: self.tuning, system: PhantomData })
        } else {
            Err(missing)
        }
    }
}

/// Loopback listener ports are handed out from `PORT_BASE..PORT_END`,
/// below the kernel's ephemeral window, so neither a `:0` bind nor an
/// outbound connect can ever be assigned one.
const PORT_BASE: u16 = 21000;
const PORT_END: u16 = 32768;

/// Hands out `n` loopback addresses, for tests, examples and benchmarks
/// that must know every endpoint's address before the first bind.
///
/// Ports come from a process-wide counter over `PORT_BASE..PORT_END`,
/// so no two calls share an address until the range has been walked,
/// however many threads call at once (reserving `:0` ports and
/// releasing them would let a parallel test's bind be assigned one
/// before its owner rebinds it). A probe bind skips ports another
/// process owns, and the process id offsets the walk so test binaries
/// running side by side start apart.
///
/// # Errors
///
/// Any bind failure other than "address in use", or "address in use"
/// for every port of the range.
pub fn free_local_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let span = u32::from(PORT_END - PORT_BASE);
    let start = (std::process::id() % 400) * 20;
    let mut out = Vec::with_capacity(n);
    let mut skipped = 0;
    while out.len() < n {
        let step = NEXT.fetch_add(1, Ordering::Relaxed);
        let port = PORT_BASE + (start.wrapping_add(step) % span) as u16;
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        match TcpListener::bind(addr) {
            Ok(_) => out.push(addr),
            Err(e) if e.kind() == ErrorKind::AddrInUse && skipped < span => skipped += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}
