//! A pooled sender that reaches its link's retention watermark parks
//! its worker until acks prune the link. The frames it waits behind
//! may be ones its own worker has not written yet: a pool worker's
//! sends leave at the end of its pass. The park must flush them first,
//! or no ack ever comes and the session stalls until the runtime's
//! watchdog.
//!
//! One worker runs both roles of 64 KVS puts with 1 KiB values over a
//! TCP pair whose watermark holds about three of them.

use chorus_core::{Endpoint, SessionRuntime};
use chorus_protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvsCensus};
use chorus_protocols::roles::{Client, Primary};
use chorus_protocols::store::{Request, Response, SharedStore};
use chorus_transport::{free_local_addrs, TcpConfigBuilder, TcpTransport};
use std::sync::Arc;

#[test]
fn a_watermark_park_inside_a_pass_does_not_stall() {
    const PUTS: u64 = 64;
    let addrs = free_local_addrs(2).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Client, addrs[0])
        .location(Primary, addrs[1])
        .retain_max(4096)
        .build::<SimpleKvsCensus>()
        .unwrap();
    let client = Arc::new(Endpoint::new(TcpTransport::bind(Client, config.clone()).unwrap()));
    let server = Arc::new(Endpoint::new(TcpTransport::bind(Primary, config).unwrap()));

    let runtime = SessionRuntime::new(1);
    let store = SharedStore::new();
    let value = "v".repeat(1024);
    let handles: Vec<_> = (0..PUTS)
        .map(|id| {
            let s = runtime.spawn(&server, id, PooledKvsServer::new(store.clone()));
            let request = Request::Put(format!("k{id}"), value.clone());
            let c = runtime.spawn(&client, id, PooledKvsClient::new(request));
            (s, c)
        })
        .collect();
    for (id, (s, c)) in handles.into_iter().enumerate() {
        match c.join() {
            Ok(response) => assert_eq!(response, Response::NotFound, "put {id}"),
            Err(e) => {
                let text = e.to_string();
                assert!(!text.contains("watchdog"), "put {id} stalled: {text}");
                panic!("put {id} failed: {text}");
            }
        }
        s.join().unwrap_or_else(|e| panic!("server of put {id} failed: {e}"));
    }
    assert_eq!(store.get("k63"), Response::Found(value));
}
