//! Shared harness for the paper's experiments: macros that execute the
//! case-study choreographies as real multi-threaded systems over
//! metrics-instrumented endpoints, returning results *and* per-edge
//! message counts. The table binaries and `metrics_parity.rs` build on
//! these.
//!
//! Each run is a [`chorus_transport::Cohort`] over one in-process
//! fabric, with a shared [`TransportMetrics`] layer on every endpoint:
//! one thread per location, and the location whose result the table
//! reads (client, analyst) inline on the caller's thread.

pub use chorus_transport::{EdgeMetrics, MetricsSnapshot, TransportMetrics};

/// Runs the census-polymorphic replicated KVS (paper Fig. 2) once over
/// a metrics-instrumented in-process endpoint per location, one thread
/// per server.
///
/// Expands to a block evaluating to
/// `(Response, bool /* resynched */, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_replicated_kvs {
    (backups = [$($backup:ty),* $(,)?], request = $request:expr, corrupt = $corrupt:expr) => {{
        use chorus_core::{ChoreographyLocation as _, LocationSet as _};
        use chorus_protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
        use chorus_protocols::roles::{Client, Primary};
        use chorus_protocols::store::{Request, SharedStore};
        use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Backups = chorus_core::LocationSet!($($backup),*);
        type Census = KvsCensus<Backups>;

        let metrics = Arc::new(TransportMetrics::new());
        let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
        let request: Request = $request;
        let corrupt: &[&str] = $corrupt;

        // Every server reports whether it resynched; the primary's is
        // first.
        let servers = vec![
            $crate::run_replicated_kvs!(@server cohort, corrupt, Primary),
            $($crate::run_replicated_kvs!(@server cohort, corrupt, $backup)),*
        ];
        let (resynched, response) = cohort.run(servers, || {
            let endpoint = cohort.endpoint(Client);
            let session = endpoint.session();
            let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                request: session.local(request),
                states: session.remote_faceted::<SharedStore, Servers<Backups>>(
                    <Servers<Backups>>::new(),
                ),
                phantom: PhantomData,
            });
            session.unwrap(outcome.response)
        });
        (response, resynched[0], metrics)
    }};
    (@server $cohort:ident, $corrupt:ident, $server:ty) => {{
        let store = SharedStore::new();
        if $corrupt.contains(&<$server>::NAME) {
            store.corrupt_next_put();
        }
        $cohort.role(<$server>::default(), move |endpoint| {
            let session = endpoint.session();
            let outcome = session.epp_and_run(ReplicatedKvs::<Backups, _, _, _> {
                request: session.remote(Client),
                states: session.local_faceted(store),
                phantom: PhantomData,
            });
            session.unwrap(outcome.resynched)
        })
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
        use chorus_core::ChoreographyLocation as _;
        use chorus_protocols::kvs_baseline::$choreo;
        use chorus_protocols::roles::{Client, Primary};
        use chorus_protocols::store::{Request, SharedStore};
        use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
        use std::sync::Arc;

        type Census = <$choreo as chorus_baseline::BaselineChoreography<
            chorus_baseline::Located<chorus_protocols::store::Response, Client>,
        >>::L;

        let metrics = Arc::new(TransportMetrics::new());
        let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
        let request: Request = $request;
        let corrupt: &[&str] = $corrupt;

        let servers = vec![
            $crate::run_baseline_kvs!(@server $choreo, cohort, corrupt, Primary),
            $($crate::run_baseline_kvs!(@server $choreo, cohort, corrupt, $backup)),*
        ];
        let (_, response) = cohort.run(servers, || {
            let endpoint = cohort.endpoint(Client);
            let session = endpoint.session();
            let projector = BaselineProjector::new(Client, &session);
            let out = projector.epp_and_run($choreo {
                request: projector.local(request),
                stores: ::std::collections::BTreeMap::new(),
            });
            projector.unwrap(out)
        });
        (response, metrics)
    }};
    (@server $choreo:ident, $cohort:ident, $corrupt:ident, $server:ty) => {{
        let store = SharedStore::new();
        if $corrupt.contains(&<$server>::NAME) {
            store.corrupt_next_put();
        }
        let stores = ::std::collections::BTreeMap::from([(<$server>::NAME.to_string(), store)]);
        $cohort.role(<$server>::default(), move |endpoint| {
            let session = endpoint.session();
            let projector = BaselineProjector::new(<$server>::default(), &session);
            let _ = projector.epp_and_run($choreo { request: projector.remote(Client), stores });
        })
    }};
}

/// Runs the GMW choreography once over a metrics-instrumented
/// in-process endpoint per party, one thread per party.
///
/// Expands to a block evaluating to `(bool, Arc<TransportMetrics>)`.
#[macro_export]
macro_rules! run_gmw {
    (parties = [$($party:ty),* $(,)?], circuit = $circuit:expr, inputs = $inputs:expr) => {{
        use chorus_core::ChoreographyLocation as _;
        use chorus_protocols::gmw::Gmw;
        use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Parties = chorus_core::LocationSet!($($party),*);

        let metrics = Arc::new(TransportMetrics::new());
        let cohort = Cohort::over(LocalTransportChannel::<Parties>::new()).layer(metrics.clone());
        let circuit: Arc<chorus_mpc::Circuit> = Arc::new($circuit);
        let inputs: ::std::collections::BTreeMap<String, Vec<bool>> = $inputs;

        let parties = vec![$({
            let circuit = Arc::clone(&circuit);
            let my_inputs = inputs.get(<$party>::NAME).cloned().unwrap_or_default();
            cohort.role(<$party>::new(), move |endpoint| {
                let session = endpoint.session();
                session.epp_and_run(Gmw::<Parties, _, _> {
                    circuit: &circuit,
                    inputs: &session.local_faceted(my_inputs),
                    phantom: PhantomData,
                })
            })
        }),*];
        let (mut results, ()) = cohort.run(parties, || ());
        let first = results.pop().expect("at least one party");
        assert!(results.iter().all(|r| *r == first), "parties disagree on the GMW output");
        (first, metrics)
    }};
}

/// Runs the DPrio lottery once over a metrics-instrumented in-process
/// endpoint per participant, one thread per client and server.
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
        use chorus_core::{ChoreographyLocation as _, LocationSet as _};
        use chorus_mpc::field::FLOTTERY;
        use chorus_protocols::lottery::Lottery;
        use chorus_protocols::roles::Analyst;
        use chorus_transport::{Cohort, LocalTransportChannel, TransportMetrics};
        use std::marker::PhantomData;
        use std::sync::Arc;

        type Clients = chorus_core::LocationSet!($($client),*);
        type Servers = chorus_core::LocationSet!($($server),*);
        type Census = chorus_core::LocationSet!(Analyst, $($client,)* $($server),*);

        let metrics = Arc::new(TransportMetrics::new());
        let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
        let secrets: ::std::collections::BTreeMap<String, u64> = $secrets;
        let cheaters: ::std::collections::BTreeMap<String, bool> = $cheaters;
        let tau: u64 = $tau;

        let mut roles = Vec::new();
        $({
            let secret = FLOTTERY::new(secrets[<$client>::NAME]);
            roles.push(cohort.role(<$client>::new(), move |endpoint| {
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
        })*
        $({
            let cheat = cheaters.get(<$server>::NAME).copied().unwrap_or(false);
            roles.push(cohort.role(<$server>::new(), move |endpoint| {
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
        })*
        let (_, result) = cohort.run(roles, || {
            let endpoint = cohort.endpoint(Analyst);
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
        });
        (result, metrics)
    }};
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
