//! Shared harness for the paper's experiments: macros that execute the
//! case-study choreographies as real multi-threaded systems over
//! metrics-instrumented endpoints, returning results *and* per-edge
//! message counts. The table binaries and `metrics_parity.rs` build on
//! these.
//!
//! Each participant builds one [`chorus_core::Endpoint`] with a shared
//! [`TransportMetrics`] layer and runs the choreography in a session;
//! the endpoints share one in-process fabric per run.

pub use chorus_transport::{EdgeMetrics, MetricsSnapshot, TransportMetrics};

/// Runs the census-polymorphic replicated KVS (paper Fig. 2) once over
/// a metrics-instrumented in-process endpoint per location, one thread
/// per location.
///
/// Expands to a block evaluating to
/// `(Response, bool /* resynched */, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_replicated_kvs {
    (backups = [$($backup:ty),* $(,)?], request = $request:expr, corrupt = $corrupt:expr) => {{
        use chorus_core::{ChoreographyLocation as _, Endpoint, LocationSet as _};
        use chorus_protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
        use chorus_protocols::roles::{Client, Primary};
        use chorus_protocols::store::{Request, SharedStore};
        use chorus_transport::{LocalTransport, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Backups = chorus_core::LocationSet!($($backup),*);
        type Census = KvsCensus<Backups>;

        let channel = LocalTransportChannel::<Census>::new();
        let metrics = Arc::new(TransportMetrics::new());
        let request: Request = $request;
        let corrupt: &[&str] = $corrupt;

        let mut server_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

        // The client.
        let client_handle = {
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            let request = request.clone();
            std::thread::spawn(move || {
                let endpoint = Endpoint::builder(Client)
                    .transport(LocalTransport::new(Client, c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                    request: session.local(request),
                    states: session.remote_faceted::<SharedStore, Servers<Backups>>(
                        <Servers<Backups>>::new(),
                    ),
                    phantom: PhantomData,
                });
                session.unwrap(outcome.response)
            })
        };

        // The primary.
        let primary_handle = {
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            let request = request.clone();
            let corrupt_me = corrupt.contains(&Primary::NAME);
            std::thread::spawn(move || {
                let _ = request;
                let endpoint = Endpoint::builder(Primary)
                    .transport(LocalTransport::new(Primary, c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let store = SharedStore::new();
                if corrupt_me {
                    store.corrupt_next_put();
                }
                let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                    request: session.remote(Client),
                    states: session.local_faceted(store),
                    phantom: PhantomData,
                });
                session.unwrap(outcome.resynched)
            })
        };

        // The backups.
        $(
            {
                let c = channel.clone();
                let m = Arc::clone(&metrics);
                let corrupt_me = corrupt.contains(&<$backup>::NAME);
                server_handles.push(std::thread::spawn(move || {
                    let endpoint = Endpoint::builder(<$backup>::new())
                        .transport(LocalTransport::new(<$backup>::new(), c))
                        .layer(m)
                        .build();
                    let session = endpoint.session();
                    let store = SharedStore::new();
                    if corrupt_me {
                        store.corrupt_next_put();
                    }
                    let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                        request: session.remote(Client),
                        states: session.local_faceted(store),
                        phantom: PhantomData,
                    });
                    let _ = outcome;
                }));
            }
        )*

        let response = client_handle.join().expect("client endpoint");
        let resynched = primary_handle.join().expect("primary endpoint");
        for h in server_handles {
            h.join().expect("backup endpoint");
        }
        (response, resynched, metrics)
    }};
}

/// Runs a HasChor-style baseline replicated KVS once over a
/// metrics-instrumented in-process endpoint per location.
///
/// Expands to a block evaluating to `(Response, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_baseline_kvs {
    (
        choreo = $choreo:ident,
        backups = [$($backup:ty),* $(,)?],
        request = $request:expr,
        corrupt = $corrupt:expr
    ) => {{
        use chorus_baseline::BaselineProjector;
        use chorus_core::{ChoreographyLocation as _, Endpoint};
        use chorus_protocols::kvs_baseline::$choreo;
        use chorus_protocols::roles::{Client, Primary};
        use chorus_protocols::store::{Request, SharedStore};
        use chorus_transport::{LocalTransport, LocalTransportChannel, TransportMetrics};
        use std::sync::Arc;

        type Census = <$choreo as chorus_baseline::BaselineChoreography<
            chorus_baseline::Located<chorus_protocols::store::Response, Client>,
        >>::L;

        let channel = LocalTransportChannel::<Census>::new();
        let metrics = Arc::new(TransportMetrics::new());
        let request: Request = $request;
        let corrupt: &[&str] = $corrupt;

        let own_store = |name: &'static str, corrupt: bool| {
            let store = SharedStore::new();
            if corrupt {
                store.corrupt_next_put();
            }
            let mut map = ::std::collections::BTreeMap::new();
            map.insert(name.to_string(), store);
            map
        };

        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

        let client_handle = {
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            let request = request.clone();
            std::thread::spawn(move || {
                let endpoint = Endpoint::builder(Client)
                    .transport(LocalTransport::new(Client, c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let projector = BaselineProjector::new(Client, &session);
                let out = projector.epp_and_run($choreo {
                    request: projector.local(request),
                    stores: ::std::collections::BTreeMap::new(),
                });
                projector.unwrap(out)
            })
        };

        {
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            let stores = own_store(Primary::NAME, corrupt.contains(&Primary::NAME));
            handles.push(std::thread::spawn(move || {
                let endpoint = Endpoint::builder(Primary)
                    .transport(LocalTransport::new(Primary, c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let projector = BaselineProjector::new(Primary, &session);
                let _ = projector.epp_and_run($choreo {
                    request: projector.remote(Client),
                    stores,
                });
            }));
        }

        $(
            {
                let c = channel.clone();
                let m = Arc::clone(&metrics);
                let stores = own_store(<$backup>::NAME, corrupt.contains(&<$backup>::NAME));
                handles.push(std::thread::spawn(move || {
                    let endpoint = Endpoint::builder(<$backup>::new())
                        .transport(LocalTransport::new(<$backup>::new(), c))
                        .layer(m)
                        .build();
                    let session = endpoint.session();
                    let projector = BaselineProjector::new(<$backup>::new(), &session);
                    let _ = projector.epp_and_run($choreo {
                        request: projector.remote(Client),
                        stores,
                    });
                }));
            }
        )*

        let response = client_handle.join().expect("client endpoint");
        for h in handles {
            h.join().expect("server endpoint");
        }
        (response, metrics)
    }};
}

/// Runs the GMW choreography once over a metrics-instrumented
/// in-process endpoint per party, one thread per party.
///
/// Expands to a block evaluating to `(bool, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_gmw {
    (parties = [$($party:ty),* $(,)?], circuit = $circuit:expr, inputs = $inputs:expr) => {{
        use chorus_core::{ChoreographyLocation as _, Endpoint};
        use chorus_protocols::gmw::Gmw;
        use chorus_transport::{LocalTransport, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Parties = chorus_core::LocationSet!($($party),*);

        let channel = LocalTransportChannel::<Parties>::new();
        let metrics = Arc::new(TransportMetrics::new());
        let circuit: Arc<chorus_mpc::Circuit> = Arc::new($circuit);
        let inputs: ::std::collections::BTreeMap<String, Vec<bool>> = $inputs;

        let mut handles: Vec<std::thread::JoinHandle<bool>> = Vec::new();
        $(
            {
                let c = channel.clone();
                let m = Arc::clone(&metrics);
                let circuit = Arc::clone(&circuit);
                let my_inputs = inputs.get(<$party>::NAME).cloned().unwrap_or_default();
                handles.push(std::thread::spawn(move || {
                    let endpoint = Endpoint::builder(<$party>::new())
                        .transport(LocalTransport::new(<$party>::new(), c))
                        .layer(m)
                        .build();
                    let session = endpoint.session();
                    session.epp_and_run(Gmw::<Parties, _, _> {
                        circuit: &circuit,
                        inputs: &session.local_faceted(my_inputs),
                        phantom: PhantomData,
                    })
                }));
            }
        )*

        let mut results: Vec<bool> = handles.into_iter().map(|h| h.join().expect("party")).collect();
        let first = results.pop().expect("at least one party");
        assert!(results.iter().all(|r| *r == first), "parties disagree on the GMW output");
        (first, metrics)
    }};
}

/// Runs the DPrio lottery once over a metrics-instrumented in-process
/// endpoint per participant, one thread per endpoint.
///
/// Expands to a block evaluating to
/// `(Result<u64, LotteryError>, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_lottery {
    (
        clients = [$($client:ty),* $(,)?],
        servers = [$($server:ty),* $(,)?],
        secrets = $secrets:expr,
        tau = $tau:expr,
        cheaters = $cheaters:expr
    ) => {{
        use chorus_core::{ChoreographyLocation as _, Endpoint, LocationSet as _};
        use chorus_mpc::field::FLOTTERY;
        use chorus_protocols::lottery::Lottery;
        use chorus_protocols::roles::Analyst;
        use chorus_transport::{LocalTransport, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Clients = chorus_core::LocationSet!($($client),*);
        type Servers = chorus_core::LocationSet!($($server),*);
        type Census = chorus_core::LocationSet!(Analyst, $($client,)* $($server),*);

        let channel = LocalTransportChannel::<Census>::new();
        let metrics = Arc::new(TransportMetrics::new());
        let secrets: ::std::collections::BTreeMap<String, u64> = $secrets;
        let cheaters: ::std::collections::BTreeMap<String, bool> = $cheaters;
        let tau: u64 = $tau;

        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();

        let analyst_handle = {
            let c = channel.clone();
            let m = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let endpoint = Endpoint::builder(Analyst)
                    .transport(LocalTransport::new(Analyst, c))
                    .layer(m)
                    .build();
                let session = endpoint.session();
                let out = session.epp_and_run(
                    Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                        secrets: &session.remote_faceted(Clients::new()),
                        tau,
                        cheaters: &session.remote_faceted(Servers::new()),
                        phantom: PhantomData,
                    },
                );
                session.unwrap(out)
            })
        };

        $(
            {
                let c = channel.clone();
                let m = Arc::clone(&metrics);
                let secret = FLOTTERY::new(secrets[<$client>::NAME]);
                handles.push(std::thread::spawn(move || {
                    let endpoint = Endpoint::builder(<$client>::new())
                        .transport(LocalTransport::new(<$client>::new(), c))
                        .layer(m)
                        .build();
                    let session = endpoint.session();
                    let _ = session.epp_and_run(
                        Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                            secrets: &session.local_faceted(secret),
                            tau,
                            cheaters: &session.remote_faceted(Servers::new()),
                            phantom: PhantomData,
                        },
                    );
                }));
            }
        )*

        $(
            {
                let c = channel.clone();
                let m = Arc::clone(&metrics);
                let cheat = cheaters.get(<$server>::NAME).copied().unwrap_or(false);
                handles.push(std::thread::spawn(move || {
                    let endpoint = Endpoint::builder(<$server>::new())
                        .transport(LocalTransport::new(<$server>::new(), c))
                        .layer(m)
                        .build();
                    let session = endpoint.session();
                    let _ = session.epp_and_run(
                        Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                            secrets: &session.remote_faceted(Clients::new()),
                            tau,
                            cheaters: &session.local_faceted(cheat),
                            phantom: PhantomData,
                        },
                    );
                }));
            }
        )*

        let result = analyst_handle.join().expect("analyst endpoint");
        for h in handles {
            h.join().expect("lottery endpoint");
        }
        (result, metrics)
    }};
}

/// Formats a metrics snapshot as an aligned per-edge table (used by the
/// table binaries).
pub fn format_edges(metrics: &TransportMetrics) -> String {
    let mut out = String::new();
    for ((from, to), edge) in metrics.snapshot() {
        out.push_str(&format!(
            "    {from:>8} -> {to:<8}  {:>4} msgs  {:>6} bytes\n",
            edge.messages, edge.bytes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use chorus_protocols::roles::{Backup1, Backup2};
    use chorus_protocols::store::Response;

    #[test]
    fn kvs_harness_runs_and_counts_messages() {
        let (response, resynched, metrics) = run_replicated_kvs!(
            backups = [Backup1, Backup2],
            request = Request::Put("k".into(), "v".into()),
            corrupt = &[]
        );
        assert_eq!(response, Response::NotFound);
        assert!(!resynched);
        // The client hears exactly one message: its response.
        assert_eq!(metrics.messages_to("Client"), 1);
        assert!(metrics.total_messages() > 0);
    }

    #[test]
    fn kvs_harness_detects_corruption() {
        let (_, resynched, _) = run_replicated_kvs!(
            backups = [Backup1, Backup2],
            request = Request::Put("k".into(), "v".into()),
            corrupt = &["Backup2"]
        );
        assert!(resynched);
    }

    #[test]
    fn baseline_harness_runs_and_counts_messages() {
        let (response, metrics) = run_baseline_kvs!(
            choreo = BaselineKvs2,
            backups = [Backup1, Backup2],
            request = Request::Put("k".into(), "v".into()),
            corrupt = &[]
        );
        assert_eq!(response, Response::NotFound);
        // The client hears the response PLUS three broadcasts.
        assert_eq!(metrics.messages_to("Client"), 4);
    }

    #[test]
    fn gmw_harness_evaluates_distributed() {
        use chorus_mpc::Circuit;
        use chorus_protocols::roles::{P1, P2};
        let mut inputs = std::collections::BTreeMap::new();
        inputs.insert("P1".to_string(), vec![true]);
        inputs.insert("P2".to_string(), vec![true]);
        let (result, metrics) = run_gmw!(
            parties = [P1, P2],
            circuit = Circuit::input("P1", 0).and(Circuit::input("P2", 0)),
            inputs = inputs
        );
        assert!(result);
        assert!(metrics.total_messages() > 0);
    }
}
