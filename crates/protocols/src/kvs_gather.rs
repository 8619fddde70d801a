//! Appendix B (Figs. 10–11): the ChoRus census-polymorphic KVS.
//!
//! A leaner sibling of [`kvs_backup`](crate::kvs_backup) that mirrors the
//! paper's ChoRus listing directly: `HandleRequest` is a conclave whose
//! census excludes the client; `Put`s are applied by the backups in
//! parallel and their status codes are collected at the server with a
//! hand-rolled [`chorus_core::FanInChoreography`] called [`Gather`] (Fig. 11); the
//! server commits its own write only if every backup reported success.

use crate::roles::{Client, Primary};
use crate::store::{KeyValueStore, MapStore};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, HCons, Located, LocationSet,
    LocationSetFoldable, Member, MultiplyLocated, Quire, Subset,
};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// A request (Fig. 10: `Put(key, value) | Get(key)`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Store a value under a key.
    Put(String, i32),
    /// Look up a key.
    Get(String),
}

/// A response code, as in Fig. 10: `0` means success, `-1` means the
/// backups lost synchronization.
pub type Response = i32;

/// One participant's store: the shared [`MapStore`] abstraction from
/// [`crate::store`], specialized to the listing's `i32` values.
pub type Store = MapStore<i32>;

/// Fig. 10's `handle_put`: returns `0` for success.
pub fn handle_put(store: &Store, key: &str, value: i32) -> Response {
    store.put(key, value);
    0
}

/// Fig. 10's `handle_get`.
pub fn handle_get(store: &Store, key: &str) -> Response {
    store.get(key).unwrap_or(-1)
}

/// The servers' census: `HCons<Server, Backups>` in the paper's notation.
pub type ServerSet<Backups> = HCons<Primary, Backups>;

/// The full census: `HCons<Client, HCons<Server, Backups>>`.
pub type KvsCensus<Backups> = HCons<Client, ServerSet<Backups>>;

/// Fig. 11's `Gather`, specialized as in the paper: a fan-in that sends
/// each sender's facet to a recipient set.
pub struct Gather<'a, V, Senders: LocationSet, Receivers, Census> {
    /// The faceted values to collect.
    pub values: &'a Faceted<V, Senders>,
    /// Inferred proofs.
    pub phantom: PhantomData<(Receivers, Census)>,
}

impl<V, Senders, Receivers, Census> chorus_core::FanInChoreography<V>
    for Gather<'_, V, Senders, Receivers, Census>
where
    V: chorus_core::Portable + Clone,
    Senders: LocationSet,
    Receivers: LocationSet,
    Census: LocationSet,
{
    type L = Census;
    type QS = Senders;
    type RS = Receivers;

    fn run<Q: ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<V, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let x = op.locally(Q::new(), |un| un.unwrap_faceted(self.values));
        op.multicast::<Q, V, Self::RS, QMemberL, RSSubsetL>(Q::new(), <Self::RS>::new(), &x)
    }
}

/// Fig. 10's `HandleRequest`: the sub-choreography among the servers.
pub struct HandleRequest<'a, Backups: LocationSet, BRefl, BFold> {
    /// The request, already at the server.
    pub request: Located<Request, Primary>,
    /// The backups' stores.
    pub backup_stores: &'a Faceted<Store, Backups>,
    /// The server's own store.
    pub server_store: &'a Located<Store, Primary>,
    /// Inferred proofs.
    pub phantom: PhantomData<(BRefl, BFold)>,
}

impl<Backups: LocationSet, BRefl, BFold> Choreography<Located<Response, Primary>>
    for HandleRequest<'_, Backups, BRefl, BFold>
where
    Backups: Subset<ServerSet<Backups>, BRefl>,
    Backups: LocationSetFoldable<ServerSet<Backups>, Backups, BFold>,
{
    type L = ServerSet<Backups>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Response, Primary> {
        match op.broadcast(Primary, self.request) {
            Request::Put(key, value) => {
                // Backups apply the write in parallel...
                let oks: Faceted<Response, Backups> =
                    op.map_facets(Backups::new(), self.backup_stores, |store| {
                        handle_put(store, &key, value)
                    });
                // ...and report their status codes to the server (Fig. 10
                // lines 14–17, via the Fig. 11 Gather).
                let gathered: MultiplyLocated<
                    Quire<Response, Backups>,
                    chorus_core::LocationSet!(Primary),
                > = op.fanin(
                    Backups::new(),
                    Gather::<
                        '_,
                        Response,
                        Backups,
                        chorus_core::LocationSet!(Primary),
                        ServerSet<Backups>,
                    > {
                        values: &oks,
                        phantom: PhantomData,
                    },
                );
                // Fig. 10 lines 18–26: commit only if every backup is ok.
                op.locally(Primary, |un| {
                    let all_ok = un.unwrap_ref(&gathered).values().all(|response| *response == 0);
                    if all_ok {
                        handle_put(un.unwrap_ref(self.server_store), &key, value)
                    } else {
                        -1
                    }
                })
            }
            Request::Get(key) => {
                op.locally(Primary, |un| handle_get(un.unwrap_ref(self.server_store), &key))
            }
        }
    }
}

/// Fig. 10's `KVS`: client sends a request; the servers conclave handles
/// it; the response returns to the client.
pub struct Kvs<'a, Backups: LocationSet, BPresent, BServers, BRefl, BFold> {
    /// The client's request.
    pub request: Located<Request, Client>,
    /// The backups' stores.
    pub backup_stores: &'a Faceted<Store, Backups>,
    /// The server's store.
    pub server_store: &'a Located<Store, Primary>,
    /// Inferred proofs.
    pub phantom: PhantomData<(BPresent, BServers, BRefl, BFold)>,
}

impl<Backups: LocationSet, BPresent, BServers, BRefl, BFold> Choreography<Located<Response, Client>>
    for Kvs<'_, Backups, BPresent, BServers, BRefl, BFold>
where
    ServerSet<Backups>: Subset<KvsCensus<Backups>, BPresent>,
    Backups: Subset<ServerSet<Backups>, BServers>,
    Backups: Subset<ServerSet<Backups>, BRefl>,
    Backups: LocationSetFoldable<ServerSet<Backups>, Backups, BFold>,
{
    type L = KvsCensus<Backups>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Response, Client> {
        let request = op.comm(Client, Primary, &self.request);
        let response: Located<Response, Primary> = op
            .conclave(HandleRequest::<'_, Backups, BRefl, BFold> {
                request,
                backup_stores: self.backup_stores,
                server_store: self.server_store,
                phantom: PhantomData,
            })
            .flatten();
        op.comm(Primary, Client, &response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{Backup1, Backup2};
    use chorus_core::{Quire, Runner};

    type Backups = chorus_core::LocationSet!(Backup1, Backup2);
    type Census = KvsCensus<Backups>;

    struct Setup {
        runner: Runner<Census>,
        backups: Quire<Store, Backups>,
        server: Store,
        backup_stores: Faceted<Store, Backups>,
        server_store: Located<Store, Primary>,
    }

    fn setup() -> Setup {
        let runner: Runner<Census> = Runner::new();
        let backups = Quire::build(|_| Store::default());
        let server = Store::default();
        let backup_stores = runner.faceted(backups.clone());
        let server_store = runner.local(server.clone());
        Setup { runner, backups, server, backup_stores, server_store }
    }

    fn run(setup: &Setup, request: Request) -> Response {
        let out = setup.runner.run(Kvs::<Backups, _, _, _, _> {
            request: setup.runner.local(request),
            backup_stores: &setup.backup_stores,
            server_store: &setup.server_store,
            phantom: PhantomData,
        });
        setup.runner.unwrap_located(out)
    }

    #[test]
    fn put_propagates_to_server_and_backups() {
        let s = setup();
        assert_eq!(run(&s, Request::Put("x".into(), 5)), 0);
        assert_eq!(s.server.get("x"), Some(5));
        assert_eq!(s.backups.get(Backup1).get("x"), Some(5));
        assert_eq!(s.backups.get(Backup2).get("x"), Some(5));
    }

    #[test]
    fn get_reads_the_server_store() {
        let s = setup();
        assert_eq!(run(&s, Request::Get("missing".into())), -1);
        run(&s, Request::Put("x".into(), 9));
        assert_eq!(run(&s, Request::Get("x".into())), 9);
    }
}
