//! The `TransportMetrics` layer must report exactly the per-edge counts
//! the old `InstrumentedTransport` wrapper reported: only choreography
//! payloads are counted (never envelope framing), once per send.
//!
//! The expected numbers below are structural properties of the
//! choreographies — message counts and payload sizes are fully
//! determined by the protocol, not by randomness or scheduling — so
//! they pin both layer/wrapper parity and any accidental change to
//! what "one message" means.

use chorus_bench::{run_gmw, run_lottery};
use chorus_protocols::kvs_simple::{SimpleKvs, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary, C1, C2, C3, P1, P2, P3, S1, S2};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{Cohort, EdgeMetrics, LocalTransportChannel, TransportMetrics};
use std::collections::BTreeMap;
use std::sync::Arc;

fn edge(from: &str, to: &str, messages: u64, bytes: u64) -> ((String, String), EdgeMetrics) {
    ((from.to_string(), to.to_string()), EdgeMetrics { messages, bytes })
}

#[test]
fn kvs_simple_per_edge_counts_are_exact() {
    let metrics = Arc::new(TransportMetrics::new());
    let cohort =
        Cohort::over(LocalTransportChannel::<SimpleKvsCensus>::new()).layer(metrics.clone());
    let store = SharedStore::new();
    store.put("k", "v");

    let server = cohort.role(Primary, move |endpoint| {
        let session = endpoint.session();
        session.epp_and_run(SimpleKvs {
            request: session.remote(Client),
            state: session.local(store),
        });
    });
    let request = Request::Get("k".into());
    let (_, response) = cohort.run(vec![server], || {
        let endpoint = cohort.endpoint(Client);
        let session = endpoint.session();
        let out = session.epp_and_run(SimpleKvs {
            request: session.local(request.clone()),
            state: session.remote(Primary),
        });
        session.unwrap(out)
    });
    assert_eq!(response, Response::Found("v".into()));

    // Exactly one request and one response, whose byte counts are the
    // chorus-wire encodings of the payloads — no envelope overhead is
    // ever attributed to the choreography.
    let request_bytes = chorus_wire::to_bytes(&request).unwrap().len() as u64;
    let response_bytes = chorus_wire::to_bytes(&response).unwrap().len() as u64;
    let expected: BTreeMap<_, _> =
        [edge("Client", "Primary", 1, request_bytes), edge("Primary", "Client", 1, response_bytes)]
            .into_iter()
            .collect();
    assert_eq!(metrics.snapshot(), expected);
}

#[test]
fn gmw_per_edge_counts_are_exact() {
    let mut inputs = BTreeMap::new();
    inputs.insert("P1".to_string(), vec![true]);
    inputs.insert("P2".to_string(), vec![false]);
    inputs.insert("P3".to_string(), vec![true]);
    let circuit = {
        use chorus_mpc::Circuit;
        let a = || Circuit::input("P1", 0);
        let b = || Circuit::input("P2", 0);
        let c = || Circuit::input("P3", 0);
        // majority(a,b,c) = ab ⊕ ac ⊕ bc
        a().and(b()).xor(a().and(c())).xor(b().and(c()))
    };
    let (result, metrics) = run_gmw!(parties = [P1, P2, P3], circuit = circuit, inputs = inputs);
    assert!(result);

    // The majority circuit is fully symmetric: every ordered pair of
    // parties exchanges the same traffic (shares, OT rounds, opening).
    let expected: BTreeMap<_, _> = [
        edge("P1", "P2", 9, 147),
        edge("P1", "P3", 9, 147),
        edge("P2", "P1", 9, 147),
        edge("P2", "P3", 9, 147),
        edge("P3", "P1", 9, 147),
        edge("P3", "P2", 9, 147),
    ]
    .into_iter()
    .collect();
    assert_eq!(metrics.snapshot(), expected);
}

#[test]
fn lottery_per_edge_counts_are_exact() {
    let mut secrets = BTreeMap::new();
    secrets.insert("C1".to_string(), 11u64);
    secrets.insert("C2".to_string(), 22u64);
    secrets.insert("C3".to_string(), 33u64);
    let (out, metrics) = run_lottery!(
        clients = [C1, C2, C3],
        servers = [S1, S2],
        secrets = secrets,
        tau = 300,
        cheaters = BTreeMap::new()
    );
    assert!(out.is_ok());

    // Clients each share one field element per server; servers run the
    // commit-then-open protocol pairwise and each send the analyst one
    // reconstruction share. The analyst hears exactly 2 messages —
    // nothing about the servers' internal conclave leaks to it.
    let expected: BTreeMap<_, _> = [
        edge("C1", "S1", 1, 8),
        edge("C1", "S2", 1, 8),
        edge("C2", "S1", 1, 8),
        edge("C2", "S2", 1, 8),
        edge("C3", "S1", 1, 8),
        edge("C3", "S2", 1, 8),
        edge("S1", "Analyst", 1, 9),
        edge("S1", "S2", 3, 48),
        edge("S2", "Analyst", 1, 9),
        edge("S2", "S1", 3, 48),
    ]
    .into_iter()
    .collect();
    assert_eq!(metrics.snapshot(), expected);
    assert_eq!(metrics.messages_to("Analyst"), 2);
}
