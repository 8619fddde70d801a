//! Cross-crate integration tests: the case-study choreographies
//! executed as real distributed systems (threads + TCP sockets or
//! channels), exercised through the facade crate.

use chorus_repro::core::LocationSet as _;
use chorus_repro::mpc::Circuit;
use chorus_repro::protocols::gmw::Gmw;
use chorus_repro::protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
use chorus_repro::protocols::roles::{Backup1, Backup2, Client, Primary, P1, P2, P3};
use chorus_repro::protocols::store::{Request, Response, SharedStore};
use chorus_repro::transport::{free_local_addrs, Cohort, LocalTransportChannel, TcpConfigBuilder};
use std::marker::PhantomData;
use std::sync::Arc;

type Backups = chorus_repro::core::LocationSet!(Backup1, Backup2);
type Census = KvsCensus<Backups>;

#[test]
fn replicated_kvs_over_tcp_with_fault_injection() {
    let addrs = free_local_addrs(4).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Client, addrs[0])
        .location(Primary, addrs[1])
        .location(Backup1, addrs[2])
        .location(Backup2, addrs[3])
        .build::<Census>()
        .unwrap();

    let cohort = Cohort::over(config);
    macro_rules! server {
        ($loc:ident, $corrupt:expr) => {{
            let store = SharedStore::new();
            if $corrupt {
                store.corrupt_next_put();
            }
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                    request: session.remote(Client),
                    states: session.local_faceted(store.clone()),
                    phantom: PhantomData,
                });
                (session.unwrap(outcome.resynched), store.snapshot())
            })
        }};
    }
    let servers = vec![server!(Primary, false), server!(Backup1, true), server!(Backup2, false)];
    let (results, response) = cohort.run(servers, || {
        let endpoint = cohort.endpoint(Client);
        let session = endpoint.session();
        let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
            request: session.local(Request::Put("k".into(), "v".into())),
            states: session.remote_faceted(<Servers<Backups>>::new()),
            phantom: PhantomData,
        });
        session.unwrap(outcome.response)
    });

    assert_eq!(response, Response::NotFound);
    // Every server saw the resynch and all replicas converged.
    assert!(results.iter().all(|(resynched, _)| *resynched));
    let reference = &results[0].1;
    assert!(results.iter().all(|(_, snapshot)| snapshot == reference));
    assert_eq!(reference.get("k").map(String::as_str), Some("v"));
}

#[test]
fn gmw_three_parties_over_tcp() {
    type Parties = chorus_repro::core::LocationSet!(P1, P2, P3);
    let addrs = free_local_addrs(3).unwrap();
    let config = TcpConfigBuilder::new()
        .location(P1, addrs[0])
        .location(P2, addrs[1])
        .location(P3, addrs[2])
        .build::<Parties>()
        .unwrap();

    // majority(a,b,c) over private inputs (true, true, false) = true
    let circuit = Arc::new(
        Circuit::input("P1", 0)
            .and(Circuit::input("P2", 0))
            .xor(Circuit::input("P1", 0).and(Circuit::input("P3", 0)))
            .xor(Circuit::input("P2", 0).and(Circuit::input("P3", 0))),
    );

    let cohort = Cohort::over(config);
    macro_rules! party {
        ($loc:ident, $input:expr) => {{
            let circuit = Arc::clone(&circuit);
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                session.epp_and_run(Gmw::<Parties, _, _> {
                    circuit: &circuit,
                    inputs: &session.local_faceted(vec![$input]),
                    phantom: PhantomData,
                })
            })
        }};
    }
    let (results, ()) =
        cohort.run(vec![party!(P1, true), party!(P2, true), party!(P3, false)], || ());
    assert_eq!(results, vec![true, true, true]);
}

#[test]
fn kvs_gather_choreography_over_channels() {
    use chorus_repro::protocols::kvs_gather::{Kvs, KvsCensus, Request, Store};
    use chorus_repro::protocols::store::KeyValueStore as _;

    type GatherCensus = KvsCensus<Backups>;
    let cohort = Cohort::over(LocalTransportChannel::<GatherCensus>::new());

    // Every server returns what it stores under "x".
    macro_rules! backup {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let store = Store::default();
                let _ = session.epp_and_run(Kvs::<Backups, _, _, _, _> {
                    request: session.remote(Client),
                    backup_stores: &session.local_faceted::<Store, Backups, _>(store.clone()),
                    server_store: &session.remote(Primary),
                    phantom: PhantomData,
                });
                store.get("x")
            })
        };
    }
    // The primary (cannot use the macro: it owns `server_store`).
    let primary = cohort.role(Primary, |endpoint| {
        let session = endpoint.session();
        let store = Store::default();
        let _ = session.epp_and_run(Kvs::<Backups, _, _, _, _> {
            request: session.remote(Client),
            backup_stores: &session.remote_faceted(Backups::new()),
            server_store: &session.local(store.clone()),
            phantom: PhantomData,
        });
        store.get("x")
    });

    let (stored, put) = cohort.run(vec![primary, backup!(Backup1), backup!(Backup2)], || {
        let endpoint = cohort.endpoint(Client);
        let session = endpoint.session();
        let out = session.epp_and_run(Kvs::<Backups, _, _, _, _> {
            request: session.local(Request::Put("x".into(), 9)),
            backup_stores: &session.remote_faceted(Backups::new()),
            server_store: &session.remote(Primary),
            phantom: PhantomData,
        });
        session.unwrap(out)
    });
    assert_eq!(put, 0, "put succeeds");
    assert_eq!(stored, [Some(9); 3], "the primary and the backups hold the written value");
}
