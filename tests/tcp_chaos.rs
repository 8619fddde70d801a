//! The TCP chaos matrix: the paper's case-study choreographies executed
//! over **real sockets** with the connections killed underneath them.
//!
//! Where `sim_chaos` stresses delivery *schedules* on a simulated
//! network, this suite stresses the operating system's byte streams: a
//! seeded [`FaultyTcp`] proxy sits on every directed edge and, on a
//! reproducible per-seed schedule, hard-kills established connections
//! mid-frame, delays accepts, and blackholes one direction (a half-dead
//! link: the socket stays open, bytes stop arriving). The resilient
//! link layer must reconnect, resume from the receiver's cursor, and
//! replay the unacked tail — every session completing with the **same
//! per-edge message/byte metrics a fault-free run produces**, because
//! retransmission lives entirely below the session layer.
//!
//! Seeds come from `CHORUS_TCP_SEED_BASE` (decimal, default `49374`) so
//! CI can sweep fresh schedules while PR runs stay reproducible. When a
//! seed fails, the proxy's full per-connection fault schedule is
//! written to `target/tcp-chaos/` and the panic names the seed: replay
//! with `CHORUS_TCP_SEED_BASE=<base> cargo test --test tcp_chaos`.

use chorus_repro::core::{
    panic_message, ChoreographyLocation, Endpoint, LocationSet, SessionRuntime,
};
use chorus_repro::mpc::field::FLOTTERY;
use chorus_repro::mpc::Circuit;
use chorus_repro::protocols::gmw::Gmw;
use chorus_repro::protocols::kvs_backup::{KvsCensus, ReplicatedKvs, Servers};
use chorus_repro::protocols::kvs_simple::{PooledKvsClient, PooledKvsServer, SimpleKvsCensus};
use chorus_repro::protocols::lottery::Lottery;
use chorus_repro::protocols::roles::{
    Analyst, Backup1, Backup2, Client, Primary, C1, C2, C3, P1, P2, P3, S1, S2,
};
use chorus_repro::protocols::store::{Request, Response, SharedStore};
use chorus_repro::transport::{
    free_local_addrs, Cohort, FaultyPlan, FaultyTcp, MakeTransport, MetricsSnapshot, TcpConfig,
    TcpConfigBuilder, TcpTransport, TransportMetrics,
};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

/// Seeds per protocol; the three matrices are disjoint.
const PER_PROTOCOL: u64 = 24;

/// Fast link tuning so fault detection and reconnection happen at test
/// speed: heartbeat 50ms ⇒ a half-dead link is torn down after 150ms,
/// and reconnect backoff starts at 2ms.
const HEARTBEAT: Duration = Duration::from_millis(50);
const RETRY_BASE: Duration = Duration::from_millis(2);

fn seed_base() -> u64 {
    std::env::var("CHORUS_TCP_SEED_BASE").ok().and_then(|s| s.parse().ok()).unwrap_or(49374)
}

/// Route resolver for one run: either transparent (the clean baseline)
/// or through a seeded [`FaultyTcp`] proxy per directed edge.
struct Router {
    proxy: Option<FaultyTcp>,
}

impl Router {
    fn clean() -> Self {
        Router { proxy: None }
    }

    fn chaotic(seed: u64) -> Self {
        Router { proxy: Some(FaultyTcp::new(FaultyPlan::chaos(seed))) }
    }

    fn route(&self, edge: &str, real: SocketAddr) -> SocketAddr {
        match &self.proxy {
            Some(proxy) => proxy.route(edge, real).expect("proxy listener must bind"),
            None => real,
        }
    }

    /// Proxied connections beyond one per routed edge — i.e. the
    /// reconnects the chaos actually forced.
    fn reconnections(&self) -> u64 {
        self.proxy
            .as_ref()
            .map_or(0, |p| (p.connection_count() as u64).saturating_sub(p.edge_count() as u64))
    }
}

/// One run's TCP net: a config per location, in which the location's
/// own entry is its real address (the listener bind) and every peer's
/// entry is routed through the run's proxy for the `me->peer` edge — so
/// each direction of each link gets its own independent fault schedule.
struct Routed<L: LocationSet>(BTreeMap<&'static str, TcpConfig<L>>);

impl<L: LocationSet> MakeTransport<L> for Routed<L> {
    type Transport<R: ChoreographyLocation> = TcpTransport<L, R>;

    fn transport<R: ChoreographyLocation>(&self, location: R) -> TcpTransport<L, R> {
        self.0[R::NAME].transport(location)
    }
}

/// Builds the [`Routed`] net of `$census`, whose locations are
/// `[$loc, ...]`, over fresh loopback addresses and `$router`.
macro_rules! routed {
    ($census:ty, $router:expr, $locs:tt) => { routed!(@each $census, $router, $locs, $locs) };
    (@each $census:ty, $router:expr, [$($me:ident),+], $locs:tt) => {{
        let names = [$(stringify!($me)),+];
        let addrs = free_local_addrs(names.len()).unwrap();
        let addr_of = |name: &str| addrs[names.iter().position(|n| *n == name).unwrap()];
        Routed(BTreeMap::from([
            $((stringify!($me), routed!(@config $census, $router, addr_of, $me, $locs))),+
        ]))
    }};
    (@config $census:ty, $router:expr, $addr_of:ident, $me:ident, [$($loc:ident),+]) => {{
        let me = stringify!($me);
        let mut builder =
            TcpConfigBuilder::new().heartbeat(HEARTBEAT).retry_base(RETRY_BASE);
        $(
            let name = stringify!($loc);
            let real = $addr_of(name);
            let addr =
                if name == me { real } else { $router.route(&format!("{me}->{name}"), real) };
            builder = builder.location($loc, addr);
        )+
        builder.build::<$census>().unwrap()
    }};
}

/// Runs `body` and, if it panics, writes the proxy's fault schedule to
/// `target/tcp-chaos/<protocol>-seed-<seed>.log` before re-panicking
/// with the seed and replay instructions.
fn with_scenario_dump(protocol: &str, seed: u64, router: &Router, body: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
        let message = panic_message(&*payload);
        let dump = router.proxy.as_ref().map_or_else(
            || "(clean run: no proxy, no schedule)".to_string(),
            FaultyTcp::scenario_dump,
        );
        let dir = std::path::Path::new("target").join("tcp-chaos");
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{protocol}-seed-{seed}.log"));
        std::fs::write(&path, dump).ok();
        let base = seed - seed_offset(protocol);
        panic!(
            "{protocol} failed under FaultyTcp seed {seed}: {message}\n\
             fault schedule dumped to {} — replay with \
             CHORUS_TCP_SEED_BASE={base} cargo test --test tcp_chaos",
            path.display()
        );
    }
}

/// Where each protocol's matrix starts relative to the seed base.
fn seed_offset(protocol: &str) -> u64 {
    match protocol {
        "gmw" => 1_000,
        "lottery" => 2_000,
        "pooled_kvs" => 9_000,
        _ => 0,
    }
}

/// One protocol's full matrix: a clean (un-proxied) baseline run pins
/// the per-edge metrics, then every seed must reproduce them exactly
/// through the chaos — delivered frames are invariant because
/// retransmission never reaches the session layer. Returns the total
/// forced reconnections, which the caller asserts is non-zero: a matrix
/// that never killed a live connection tested nothing.
fn run_matrix(protocol: &str, run: impl Fn(&Router) -> MetricsSnapshot) -> u64 {
    let baseline = run(&Router::clean());
    assert!(!baseline.is_empty(), "{protocol}: the clean run must produce traffic");
    let base = seed_base() + seed_offset(protocol);
    let mut reconnections = 0;
    for seed in base..base + PER_PROTOCOL {
        let router = Router::chaotic(seed);
        with_scenario_dump(protocol, seed, &router, || {
            let under_chaos = run(&router);
            assert_eq!(
                under_chaos, baseline,
                "{protocol} seed {seed}: per-edge delivered-frame metrics must be \
                 byte-identical to the fault-free run"
            );
        });
        reconnections += router.reconnections();
    }
    reconnections
}

// ---------------------------------------------------------------------
// kvs_backup: client + primary + two backups over four real listeners,
// with in-protocol state corruption on top of the socket chaos.
// ---------------------------------------------------------------------

type Backups = chorus_repro::core::LocationSet!(Backup1, Backup2);
type Census = KvsCensus<Backups>;

fn run_kvs_backup(router: &Router) -> MetricsSnapshot {
    let metrics = Arc::new(TransportMetrics::new());
    let net = routed!(Census, router, [Client, Primary, Backup1, Backup2]);
    let cohort = Cohort::over(net).layer(metrics.clone());
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
    assert!(results.iter().all(|(resynched, _)| *resynched), "every server saw the resynch");
    let reference = &results[0].1;
    assert!(results.iter().all(|(_, snapshot)| snapshot == reference), "replicas converged");
    assert_eq!(reference.get("k").map(String::as_str), Some("v"));
    metrics.snapshot()
}

#[test]
fn kvs_backup_survives_real_socket_chaos() {
    let reconnections = run_matrix("kvs_backup", run_kvs_backup);
    assert!(
        reconnections > 0,
        "the kvs matrix must actually kill live connections and force reconnects"
    );
}

// ---------------------------------------------------------------------
// gmw: three-party secure computation of majority(t, t, f); the OT and
// share traffic is the densest of the three, so kill thresholds fire
// repeatedly mid-protocol.
// ---------------------------------------------------------------------

type Parties = chorus_repro::core::LocationSet!(P1, P2, P3);

fn run_gmw(router: &Router) -> MetricsSnapshot {
    let circuit = Arc::new(
        Circuit::input("P1", 0)
            .and(Circuit::input("P2", 0))
            .xor(Circuit::input("P1", 0).and(Circuit::input("P3", 0)))
            .xor(Circuit::input("P2", 0).and(Circuit::input("P3", 0))),
    );
    let metrics = Arc::new(TransportMetrics::new());
    let cohort = Cohort::over(routed!(Parties, router, [P1, P2, P3])).layer(metrics.clone());
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
    assert_eq!(results, vec![true, true, true], "majority(t, t, f) = t at every party");
    metrics.snapshot()
}

#[test]
fn gmw_survives_real_socket_chaos() {
    let reconnections = run_matrix("gmw", run_gmw);
    assert!(
        reconnections > 0,
        "the gmw matrix must actually kill live connections and force reconnects"
    );
}

// ---------------------------------------------------------------------
// lottery: three clients, two servers, one analyst — six listeners,
// commit-then-open fairness with the opens crossing dying sockets.
// ---------------------------------------------------------------------

type Clients = chorus_repro::core::LocationSet!(C1, C2, C3);
type LotteryServers = chorus_repro::core::LocationSet!(S1, S2);
type LotteryCensus = chorus_repro::core::LocationSet!(Analyst, C1, C2, C3, S1, S2);

fn run_lottery(router: &Router) -> MetricsSnapshot {
    const SECRETS: [u64; 3] = [1001, 2002, 3003];
    let metrics = Arc::new(TransportMetrics::new());
    let net = routed!(LotteryCensus, router, [Analyst, C1, C2, C3, S1, S2]);
    let cohort = Cohort::over(net).layer(metrics.clone());
    macro_rules! lottery {
        ($secrets:expr, $cheaters:expr) => {
            Lottery::<Clients, LotteryServers, LotteryCensus, _, _, _, _, _, _, _> {
                secrets: $secrets,
                tau: 300,
                cheaters: $cheaters,
                phantom: PhantomData,
            }
        };
    }
    macro_rules! client {
        ($loc:ident, $secret:expr) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.local_faceted(FLOTTERY::new($secret)),
                    &session.remote_faceted(LotteryServers::new())
                ));
            })
        };
    }
    macro_rules! server {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.remote_faceted(Clients::new()),
                    &session.local_faceted(false)
                ));
            })
        };
    }
    let roles = vec![
        client!(C1, SECRETS[0]),
        client!(C2, SECRETS[1]),
        client!(C3, SECRETS[2]),
        server!(S1),
        server!(S2),
    ];
    let (_, verdict) = cohort.run(roles, || {
        let endpoint = cohort.endpoint(Analyst);
        let session = endpoint.session();
        let out = session.epp_and_run(lottery!(
            &session.remote_faceted(Clients::new()),
            &session.remote_faceted(LotteryServers::new())
        ));
        session.unwrap(out)
    });

    let value = verdict.expect("honest servers, so the lottery must not abort");
    assert!(
        SECRETS.contains(&value),
        "the analyst must reconstruct one of the client secrets, got {value}"
    );
    metrics.snapshot()
}

#[test]
fn lottery_survives_real_socket_chaos() {
    let reconnections = run_matrix("lottery", run_lottery);
    assert!(
        reconnections > 0,
        "the lottery matrix must actually kill live connections and force reconnects"
    );
}

// ---------------------------------------------------------------------
// The pooled session runtime over real sockets under chaos: many
// concurrent sessions multiplexed on ONE link pair whose connections
// keep dying. The waker-driven receive path and the link layer's
// replay must compose — no session hangs, every answer is right.
// ---------------------------------------------------------------------

#[test]
fn pooled_sessions_survive_real_socket_chaos() {
    const SESSIONS: u64 = 64;
    let seed = seed_base() + seed_offset("pooled_kvs");
    let router = Router::chaotic(seed);
    let net = routed!(SimpleKvsCensus, router, [Client, Primary]);
    with_scenario_dump("pooled_kvs", seed, &router, || {
        let client = Arc::new(Endpoint::new(net.transport(Client)));
        let server = Arc::new(Endpoint::new(net.transport(Primary)));
        let runtime = SessionRuntime::new(4);
        let store = SharedStore::new();
        let servers: Vec<_> = (0..SESSIONS)
            .map(|id| runtime.spawn(&server, id, PooledKvsServer::new(store.clone())))
            .collect();
        let clients: Vec<_> = (0..SESSIONS)
            .map(|id| {
                runtime.spawn(
                    &client,
                    id,
                    PooledKvsClient::new(Request::Put(format!("k{id}"), format!("v{id}"))),
                )
            })
            .collect();
        for (id, handle) in clients.into_iter().enumerate() {
            assert_eq!(handle.join().unwrap(), Response::NotFound, "client {id}");
        }
        for handle in servers {
            handle.join().unwrap();
        }
        assert_eq!(store.get("k0"), Response::Found("v0".into()));
        assert_eq!(
            store.get(&format!("k{}", SESSIONS - 1)),
            Response::Found(format!("v{}", SESSIONS - 1))
        );
    });
}
