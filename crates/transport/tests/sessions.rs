//! The tentpole guarantee, stress-tested: one transport pair sustains
//! many **concurrent** choreography sessions with correct,
//! non-interleaved results.
//!
//! Before session multiplexing, two choreographies sharing a transport
//! would interleave frames and corrupt each other; these tests run
//! N ≥ 8 simultaneous `SimpleKvs` sessions over one shared
//! `LocalTransport` pair and one shared `TcpTransport` pair, assert
//! every session's result, and check the shared metrics layer saw
//! exactly N× the single-run message count.

use chorus_core::Endpoint;
use chorus_protocols::kvs_simple::SimpleKvs;
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{
    free_local_addrs, LocalTransport, LocalTransportChannel, TcpConfigBuilder, TcpTransport,
    TransportMetrics,
};
use std::sync::Arc;

type Census = chorus_core::LocationSet!(Client, Primary);

const SESSIONS: u64 = 12;

/// One `SimpleKvs` run sends exactly 2 messages: the request
/// (client → primary) and the response (primary → client).
const MESSAGES_PER_RUN: u64 = 2;

/// Runs `SESSIONS` concurrent `SimpleKvs` gets over the two endpoints,
/// with per-session keys, asserting every session observes its own
/// key's value.
fn run_concurrent_sessions<TC, TP>(
    client_endpoint: Arc<Endpoint<Census, Client, TC>>,
    primary_endpoint: Arc<Endpoint<Census, Primary, TP>>,
) where
    TC: chorus_core::SessionTransport<Census, Client> + Send + Sync + 'static,
    TP: chorus_core::SessionTransport<Census, Primary> + Send + Sync + 'static,
{
    let store = SharedStore::new();
    for id in 0..SESSIONS {
        store.put(&format!("key-{id}"), &format!("value-{id}"));
    }

    let mut handles = Vec::new();
    for id in 0..SESSIONS {
        let endpoint = Arc::clone(&primary_endpoint);
        let store = store.clone();
        handles.push(std::thread::spawn(move || {
            let session = endpoint.session_with_id(id);
            session.epp_and_run(SimpleKvs {
                request: session.remote(Client),
                state: session.local(store),
            });
        }));
        let endpoint = Arc::clone(&client_endpoint);
        handles.push(std::thread::spawn(move || {
            let session = endpoint.session_with_id(id);
            let out = session.epp_and_run(SimpleKvs {
                request: session.local(Request::Get(format!("key-{id}"))),
                state: session.remote(Primary),
            });
            assert_eq!(
                session.unwrap(out),
                Response::Found(format!("value-{id}")),
                "session {id} must see its own key, uncorrupted by its neighbors"
            );
        }));
    }
    for handle in handles {
        handle.join().expect("session thread");
    }
}

#[test]
fn concurrent_sessions_share_one_local_transport_pair() {
    let channel = LocalTransportChannel::<Census>::new();
    let metrics = Arc::new(TransportMetrics::new());
    let client_endpoint = Arc::new(
        Endpoint::builder(Client)
            .transport(LocalTransport::new(Client, channel.clone()))
            .layer(Arc::clone(&metrics))
            .build(),
    );
    let primary_endpoint = Arc::new(
        Endpoint::builder(Primary)
            .transport(LocalTransport::new(Primary, channel))
            .layer(Arc::clone(&metrics))
            .build(),
    );

    run_concurrent_sessions(client_endpoint, primary_endpoint);

    // The shared metrics layer saw exactly N concurrent runs.
    assert_eq!(metrics.total_messages(), SESSIONS * MESSAGES_PER_RUN);
    assert_eq!(metrics.messages_to("Client"), SESSIONS);
    assert_eq!(metrics.messages_to("Primary"), SESSIONS);
}

#[test]
fn concurrent_sessions_share_one_tcp_transport_pair() {
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Client, addrs[0])
        .location(Primary, addrs[1])
        .build::<Census>()
        .unwrap();

    let metrics = Arc::new(TransportMetrics::new());
    let client_endpoint = Arc::new(
        Endpoint::builder(Client)
            .transport(TcpTransport::bind(Client, config.clone()).unwrap())
            .layer(Arc::clone(&metrics))
            .build(),
    );
    let primary_endpoint = Arc::new(
        Endpoint::builder(Primary)
            .transport(TcpTransport::bind(Primary, config).unwrap())
            .layer(Arc::clone(&metrics))
            .build(),
    );

    run_concurrent_sessions(client_endpoint, primary_endpoint);

    assert_eq!(metrics.total_messages(), SESSIONS * MESSAGES_PER_RUN);
    assert_eq!(metrics.messages_to("Client"), SESSIONS);
    assert_eq!(metrics.messages_to("Primary"), SESSIONS);
}

/// Sequential sessions over one endpoint pair reuse the same links; the
/// per-session sequence numbers restart and everything stays correct.
#[test]
fn many_sequential_sessions_reuse_one_endpoint_pair() {
    let channel = LocalTransportChannel::<Census>::new();
    let client_endpoint = Endpoint::new(LocalTransport::new(Client, channel.clone()));
    let primary_endpoint = Endpoint::new(LocalTransport::new(Primary, channel));

    let store = SharedStore::new();
    store.put("k", "v");

    for round in 0..20u64 {
        let store = store.clone();
        std::thread::scope(|scope| {
            let primary_session = primary_endpoint.session_with_id(round);
            let client_session = client_endpoint.session_with_id(round);
            scope.spawn(move || {
                primary_session.epp_and_run(SimpleKvs {
                    request: primary_session.remote(Client),
                    state: primary_session.local(store),
                });
            });
            let out = client_session.epp_and_run(SimpleKvs {
                request: client_session.local(Request::Get("k".into())),
                state: client_session.remote(Primary),
            });
            assert_eq!(client_session.unwrap(out), Response::Found("v".into()));
        });
    }
}

chorus_core::locations! {
    W0, W1, W2, W3, W4, W5, W6, W7, W8, W9, W10, W11, W12, W13, W14, W15, W16, W17
}
/// A census past the 16 destinations a session's sequence counters hold
/// inline, so its last positions spill.
type Wide = chorus_core::LocationSet!(
    W0, W1, W2, W3, W4, W5, W6, W7, W8, W9, W10, W11, W12, W13, W14, W15, W16, W17
);

/// Records the `(to, seq)` of every send.
#[derive(Default)]
struct SendLog(std::sync::Mutex<Vec<(String, u64)>>);

impl chorus_core::Layer for SendLog {
    fn on_send(&self, ctx: &chorus_core::MessageCtx<'_>, _payload: &[u8]) {
        self.0.lock().unwrap().push((ctx.to.to_string(), ctx.seq));
    }
}

/// Per-edge sequence numbers stay exact at every census position,
/// inline or spilled: each destination's frames are numbered 0, 1, 2 in
/// send order, and the receivers' sequence checks accept them.
#[test]
fn sequence_numbers_stay_exact_past_the_inline_counters() {
    use chorus_core::LocationSet as _;

    const ROUNDS: u64 = 3;
    let channel = LocalTransportChannel::<Wide>::new();
    let log = Arc::new(SendLog::default());
    let sender = Endpoint::builder(W0)
        .transport(LocalTransport::new(W0, channel.clone()))
        .layer(Arc::clone(&log))
        .build();
    let session = sender.session_with_id(5);
    let destinations: Vec<&str> = Wide::names().into_iter().skip(1).collect();
    for round in 0..ROUNDS {
        for dest in &destinations {
            session.send_value(dest, &(dest.to_string(), round)).unwrap();
        }
    }

    let sends = log.0.lock().unwrap().clone();
    assert_eq!(sends.len(), destinations.len() * ROUNDS as usize);
    for dest in &destinations {
        let seqs: Vec<u64> = sends.iter().filter(|(to, _)| to == dest).map(|(_, s)| *s).collect();
        assert_eq!(seqs, (0..ROUNDS).collect::<Vec<_>>(), "edge W0 -> {dest}");
    }

    macro_rules! receives_in_order {
        ($($at:ident),+) => {$({
            let endpoint = Endpoint::new(LocalTransport::new($at, channel.clone()));
            let session = endpoint.session_with_id(5);
            for round in 0..ROUNDS {
                let payload = session.receive_payload("W0").unwrap();
                let (to, seen): (String, u64) = chorus_wire::from_bytes(&payload).unwrap();
                assert_eq!((to.as_str(), seen), (stringify!($at), round));
            }
        })+};
    }
    receives_in_order!(W1, W15, W16, W17);
}
