//! The address book and its builder: where each location listens, and
//! the link tuning every endpoint of the system shares.

use crate::link::LinkTuning;
use chorus_core::{ChoreographyLocation, LocationSet};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Address book for a TCP system: one socket address per location in
/// `L`, plus the link-layer policy every endpoint of the system shares.
#[derive(Debug, Clone)]
pub struct TcpConfig<L: LocationSet> {
    pub(super) addrs: HashMap<&'static str, SocketAddr>,
    pub(super) tuning: LinkTuning,
    pub(super) system: PhantomData<L>,
}

/// Builder for [`TcpConfig`]: the address book and the five
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

    /// Sets [`LinkTuning::flush_delay`].
    pub fn flush_delay(mut self, window: Duration) -> Self {
        self.tuning.flush_delay = window;
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

/// Reserves `n` distinct loopback addresses with OS-assigned free ports.
///
/// Test/bench helper: binds ephemeral listeners, records their addresses,
/// and releases them. (The usual caveat applies: the ports could in
/// principle be reused between this call and the transport's bind.)
pub fn free_local_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}
