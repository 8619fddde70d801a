//! The paper's central case study (Fig. 2): a key-value store replicated
//! across a primary and a *census-polymorphic* set of backup servers.
//!
//! The protocol demonstrates every headline feature at once:
//!
//! * **Census polymorphism** — the choreography is generic over the
//!   type-level list `Backups`; the same code runs with one backup or
//!   eight.
//! * **Conclaves** — after the primary forwards the request, the servers
//!   do all their work (replication, acknowledgement, hash comparison,
//!   resynch) in conclaves the client never hears about.
//! * **MLV reuse of knowledge of choice** — the request is multicast to
//!   the servers *once*; both conclaves branch on the same
//!   multiply-located value with no further communication (§3.3: "No
//!   additional communication is needed for KoC in the second
//!   conditional!").
//! * **Faceted values** — each server's store is its private facet;
//!   replica divergence (injected corruption) is detected by comparing
//!   content hashes gathered at the primary and repaired by an expensive
//!   resynch that runs only when needed, *after* the client has its
//!   response.

use crate::roles::{Client, Primary};
use crate::store::{Request, Response, SharedStore};
use chorus_core::{
    ChoreoOp, Choreography, Faceted, HCons, Located, LocationSet, LocationSetFoldable,
    MultiplyLocated, Quire, Subset,
};
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// The servers: the primary plus the backups.
pub type Servers<Backups> = HCons<Primary, Backups>;

/// The full census: the client plus the servers.
pub type KvsCensus<Backups> = HCons<Client, Servers<Backups>>;

/// What the replicated KVS hands back: the client's response plus a
/// server-side flag recording whether the expensive resynch ran.
pub struct KvsOutcome<Backups: LocationSet> {
    /// The response, located at the client.
    pub response: Located<Response, Client>,
    /// Whether the servers had to resynchronize (owned by the servers;
    /// the client never learns this).
    pub resynched: MultiplyLocated<bool, Servers<Backups>>,
}

/// The Fig. 2 choreography. Generic over the backup set and the inferred
/// proof indices (`SrvSubsetCensus`: servers ⊆ census; `SrvRefl`:
/// servers ⊆ servers, for conclave-internal operators; `SrvFold`: the
/// fold witness for census-polymorphic loops over the servers).
pub struct ReplicatedKvs<Backups: LocationSet, SrvSubsetCensus, SrvRefl, SrvFold> {
    /// The client's request.
    pub request: Located<Request, Client>,
    /// Every server's private copy of the store.
    pub states: Faceted<SharedStore, Servers<Backups>>,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(SrvSubsetCensus, SrvRefl, SrvFold)>,
}

impl<Backups: LocationSet, SrvSubsetCensus, SrvRefl, SrvFold> Choreography<KvsOutcome<Backups>>
    for ReplicatedKvs<Backups, SrvSubsetCensus, SrvRefl, SrvFold>
where
    Servers<Backups>: Subset<KvsCensus<Backups>, SrvSubsetCensus>,
    Servers<Backups>: Subset<Servers<Backups>, SrvRefl>,
    Servers<Backups>: LocationSetFoldable<Servers<Backups>, Servers<Backups>, SrvFold>,
{
    type L = KvsCensus<Backups>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> KvsOutcome<Backups> {
        // Fig. 2 line 20: the client sends the request to the primary.
        let at_primary = op.comm(Client, Primary, &self.request);
        // Line 21: the primary forwards it to all servers — the one and
        // only knowledge-of-choice message for the entire protocol.
        let request_shared: MultiplyLocated<Request, Servers<Backups>> =
            op.multicast(Primary, <Servers<Backups>>::new(), &at_primary);

        // Lines 22–35: the servers handle the request without the client.
        let response_at_primary: Located<Response, Primary> = op
            .conclave(HandleRequest::<'_, Backups, SrvRefl, SrvFold> {
                request: request_shared.clone(),
                states: &self.states,
                phantom: PhantomData,
            })
            .flatten();

        // Line 36: the client gets its answer immediately...
        let response = op.comm(Primary, Client, &response_at_primary);

        // Lines 39–51: ...while the servers check replica integrity and,
        // if needed, resynchronize. The client is not involved: no
        // messages reach it from this conclave, and the branch decision
        // reuses `request_shared` with no new communication.
        let resynched = op.conclave(SyncCheck::<'_, Backups, SrvRefl, SrvFold> {
            request: request_shared,
            states: &self.states,
            phantom: PhantomData,
        });

        KvsOutcome { response, resynched }
    }
}

/// First conclave (Fig. 2 lines 22–35): all servers examine the request;
/// `Put`s are applied everywhere and acknowledged to the primary; `Get`s
/// are answered by the primary alone.
struct HandleRequest<'a, Backups: LocationSet, SrvRefl, SrvFold> {
    request: MultiplyLocated<Request, Servers<Backups>>,
    states: &'a Faceted<SharedStore, Servers<Backups>>,
    phantom: PhantomData<(SrvRefl, SrvFold)>,
}

impl<Backups: LocationSet, SrvRefl, SrvFold> Choreography<Located<Response, Primary>>
    for HandleRequest<'_, Backups, SrvRefl, SrvFold>
where
    Servers<Backups>: Subset<Servers<Backups>, SrvRefl>,
    Servers<Backups>: LocationSetFoldable<Servers<Backups>, Servers<Backups>, SrvFold>,
{
    type L = Servers<Backups>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Response, Primary> {
        let servers = <Servers<Backups>>::new();
        match op.naked(self.request) {
            Request::Put(key, value) => {
                // Every server applies the update to its own replica.
                let responses: Faceted<Response, Servers<Backups>> =
                    op.map_facets(servers, self.states, |store| store.put(&key, &value));
                // The primary waits for every server's acknowledgement
                // (the paper's `fanIn` of `_ack` flags, line 28).
                let acks: Faceted<(), Servers<Backups>> = op.parallel(servers, || ());
                let _acks: MultiplyLocated<
                    Quire<(), Servers<Backups>>,
                    chorus_core::LocationSet!(Primary),
                > = op.gather(servers, <chorus_core::LocationSet!(Primary)>::new(), &acks);
                // `localize primary responses` (line 31): the primary's
                // facet is its response.
                op.locally(Primary, |un| un.unwrap_faceted(&responses))
            }
            Request::Get(key) => {
                op.locally(Primary, |un| un.unwrap_faceted_ref(self.states).get(&key))
            }
            Request::Stop => op.locally(Primary, |_| Response::Stopped),
        }
    }
}

/// Second conclave (Fig. 2 lines 39–51): after a `Put`, servers compare
/// content hashes at the primary; on divergence the primary broadcasts
/// its snapshot and everyone overwrites. Returns whether resynch ran.
struct SyncCheck<'a, Backups: LocationSet, SrvRefl, SrvFold> {
    request: MultiplyLocated<Request, Servers<Backups>>,
    states: &'a Faceted<SharedStore, Servers<Backups>>,
    phantom: PhantomData<(SrvRefl, SrvFold)>,
}

impl<Backups: LocationSet, SrvRefl, SrvFold> Choreography<bool>
    for SyncCheck<'_, Backups, SrvRefl, SrvFold>
where
    Servers<Backups>: Subset<Servers<Backups>, SrvRefl>,
    Servers<Backups>: LocationSetFoldable<Servers<Backups>, Servers<Backups>, SrvFold>,
{
    type L = Servers<Backups>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> bool {
        let servers = <Servers<Backups>>::new();
        match op.naked(self.request) {
            Request::Put(_, _) => {
                // Lines 42–44: hash every replica, gather at the primary.
                let hashes: Faceted<u64, Servers<Backups>> =
                    op.map_facets(servers, self.states, SharedStore::content_hash);
                let gathered: MultiplyLocated<
                    Quire<u64, Servers<Backups>>,
                    chorus_core::LocationSet!(Primary),
                > = op.gather(servers, <chorus_core::LocationSet!(Primary)>::new(), &hashes);
                // Lines 45–47: the primary checks for divergence.
                let needs_resynch = op.locally(Primary, |un| {
                    let quire = un.unwrap_ref(&gathered);
                    let distinct: BTreeSet<u64> = quire.values().copied().collect();
                    distinct.len() > 1
                });
                // Line 48: broadcast *within the conclave* — the client
                // never sees this knowledge-of-choice message.
                if op.broadcast(Primary, needs_resynch) {
                    // Line 49: resynch — "Could take a while!"
                    let snapshot =
                        op.locally(Primary, |un| un.unwrap_faceted_ref(self.states).snapshot());
                    let replicated = op.multicast(Primary, servers, &snapshot);
                    let snapshot = op.naked(replicated);
                    let _: Faceted<(), Servers<Backups>> =
                        op.map_facets(servers, self.states, move |store| {
                            store.overwrite(snapshot.clone())
                        });
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{Backup1, Backup2};
    use chorus_core::{Quire, Runner};

    type Backups = chorus_core::LocationSet!(Backup1, Backup2);
    type Census = KvsCensus<Backups>;

    fn stores() -> (Quire<SharedStore, Servers<Backups>>, Faceted<SharedStore, Servers<Backups>>) {
        let stores = Quire::build(|_| SharedStore::new());
        let runner: Runner<Census> = Runner::new();
        let faceted = runner.faceted(stores.clone());
        (stores, faceted)
    }

    fn run_request(
        runner: &Runner<Census>,
        states: &Faceted<SharedStore, Servers<Backups>>,
        request: Request,
    ) -> (Response, bool) {
        let outcome = runner.run(ReplicatedKvs::<Backups, _, _, _> {
            request: runner.local(request),
            states: states.clone(),
            phantom: PhantomData,
        });
        (runner.unwrap_located(outcome.response), runner.unwrap_located(outcome.resynched))
    }

    #[test]
    fn put_replicates_to_every_server() {
        let runner: Runner<Census> = Runner::new();
        let (map, states) = stores();
        let (response, resynched) =
            run_request(&runner, &states, Request::Put("k".into(), "v".into()));
        assert_eq!(response, Response::NotFound);
        assert!(!resynched, "healthy replicas must not resynch");
        for store in map.values() {
            assert_eq!(store.get("k"), Response::Found("v".into()));
        }
    }

    #[test]
    fn get_is_served_by_the_primary() {
        let runner: Runner<Census> = Runner::new();
        let (map, states) = stores();
        map.get(Primary).put("k", "v");
        map.get(Backup1).put("k", "v");
        map.get(Backup2).put("k", "v");
        let (response, resynched) = run_request(&runner, &states, Request::Get("k".into()));
        assert_eq!(response, Response::Found("v".into()));
        assert!(!resynched, "gets never resynch");
    }

    #[test]
    fn corrupted_replica_triggers_resynch_and_repair() {
        let runner: Runner<Census> = Runner::new();
        let (map, states) = stores();
        map.get(Backup1).corrupt_next_put();
        let (_, resynched) = run_request(&runner, &states, Request::Put("k".into(), "v".into()));
        assert!(resynched, "diverged replicas must resynch");
        // After resynch every replica matches the primary.
        let reference = map.get(Primary).snapshot();
        for store in map.values() {
            assert_eq!(store.snapshot(), reference);
        }
        // And a subsequent Put is clean.
        let (_, resynched) = run_request(&runner, &states, Request::Put("k".into(), "w".into()));
        assert!(!resynched);
    }

    #[test]
    fn stop_is_acknowledged_without_resynch() {
        let runner: Runner<Census> = Runner::new();
        let (_, states) = stores();
        let (response, resynched) = run_request(&runner, &states, Request::Stop);
        assert_eq!(response, Response::Stopped);
        assert!(!resynched);
    }

    #[test]
    fn works_with_a_single_backup() {
        type One = chorus_core::LocationSet!(Backup1);
        let runner: Runner<KvsCensus<One>> = Runner::new();
        let map: Quire<SharedStore, Servers<One>> = Quire::build(|_| SharedStore::new());
        let states = runner.faceted(map.clone());
        let outcome = runner.run(ReplicatedKvs::<One, _, _, _> {
            request: runner.local(Request::Put("a".into(), "1".into())),
            states,
            phantom: PhantomData,
        });
        assert_eq!(runner.unwrap_located(outcome.response), Response::NotFound);
        assert_eq!(map.get(Backup1).get("a"), Response::Found("1".into()));
    }
}
