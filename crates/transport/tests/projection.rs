//! End-to-end projection tests: the same choreography runs centralized,
//! over in-process channels, and over TCP sockets, producing identical
//! results — the paper's portability claim (§2.1).

use chorus_core::{
    ChoreoOp, Choreography, Faceted, Located, LocationSet, MultiplyLocated, Quire, Runner,
};
use chorus_transport::{
    free_local_addrs, Cohort, LocalTransportChannel, MakeTransport, TcpConfigBuilder,
    TransportMetrics,
};
use std::sync::Arc;

chorus_core::locations! { Client, Primary, Backup }

type Census = chorus_core::LocationSet!(Client, Primary, Backup);
type Servers = chorus_core::LocationSet!(Primary, Backup);

/// Client sends a number; servers replicate it; each server doubles it;
/// client gets the primary's copy plus the sum of everyone's copies.
struct Replicate {
    input: Located<u64, Client>,
}

impl Choreography<Located<u64, Client>> for Replicate {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<u64, Client> {
        let at_primary = op.comm(Client, Primary, &self.input);
        let shared: MultiplyLocated<u64, Servers> =
            op.multicast(Primary, Servers::new(), &at_primary);
        let doubled: MultiplyLocated<u64, Servers> = op.conclave(Double { shared }).flatten();
        // Redistribute the replicated value as facets so `gather` has
        // per-party data to collect.
        let facets: Faceted<u64, Servers> = op.conclave(AsFacets { value: doubled }).flatten();
        let gathered: MultiplyLocated<Quire<u64, Servers>, chorus_core::LocationSet!(Client)> =
            op.gather(Servers::new(), <chorus_core::LocationSet!(Client)>::new(), &facets);
        op.locally(Client, |un| un.unwrap_ref(&gathered).values().sum())
    }
}

struct Double {
    shared: MultiplyLocated<u64, Servers>,
}

impl Choreography<MultiplyLocated<u64, Servers>> for Double {
    type L = Servers;
    fn run(self, op: &impl ChoreoOp<Self::L>) -> MultiplyLocated<u64, Servers> {
        let v = op.naked(self.shared);
        let at_primary = op.locally(Primary, move |_| v * 2);
        op.multicast(Primary, Servers::new(), &at_primary)
    }
}

struct AsFacets {
    value: MultiplyLocated<u64, Servers>,
}

impl Choreography<Faceted<u64, Servers>> for AsFacets {
    type L = Servers;
    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<u64, Servers> {
        let v = op.naked(self.value);
        op.parallel(Servers::new(), move || v)
    }
}

const INPUT: u64 = 21;
const EXPECTED: u64 = 84; // two servers, each holding 21*2

/// Runs [`Replicate`] once over `cohort`: the servers on their threads,
/// the client inline. Returns the client's result.
fn replicate<N: MakeTransport<Census>>(cohort: &Cohort<Census, N>) -> u64 {
    let servers = vec![
        cohort.role(Primary, |endpoint| {
            let session = endpoint.session();
            session.epp_and_run(Replicate { input: session.remote(Client) });
        }),
        cohort.role(Backup, |endpoint| {
            let session = endpoint.session();
            session.epp_and_run(Replicate { input: session.remote(Client) });
        }),
    ];
    let (_, out) = cohort.run(servers, || {
        let endpoint = cohort.endpoint(Client);
        let session = endpoint.session();
        let out = session.epp_and_run(Replicate { input: session.local(INPUT) });
        session.unwrap(out)
    });
    out
}

#[test]
fn centralized_runner_computes_the_protocol() {
    let runner: Runner<Census> = Runner::new();
    let out = runner.run(Replicate { input: runner.local(INPUT) });
    assert_eq!(runner.unwrap_located(out), EXPECTED);
}

#[test]
fn local_transport_projection_agrees_with_runner() {
    assert_eq!(replicate(&Cohort::over(LocalTransportChannel::<Census>::new())), EXPECTED);
}

#[test]
fn tcp_transport_projection_agrees_with_runner() {
    let addrs = free_local_addrs(3).unwrap();
    let config = TcpConfigBuilder::new()
        .location(Client, addrs[0])
        .location(Primary, addrs[1])
        .location(Backup, addrs[2])
        .build::<Census>()
        .unwrap();
    assert_eq!(replicate(&Cohort::over(config)), EXPECTED);
}

#[test]
fn conclaves_send_nothing_to_outsiders() {
    // The paper's headline efficiency claim (§3.2): the client receives no
    // traffic from the servers' internal conclave work.
    let metrics = Arc::new(TransportMetrics::new());
    let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
    assert_eq!(replicate(&cohort), EXPECTED);

    // Client → Primary: 1 (request). Primary → Backup: replication +
    // conclave-internal multicasts. Client receives ONLY the gathered
    // responses (one per server), nothing from the Double conclave.
    let to_client = metrics.messages_to("Client");
    assert_eq!(to_client, 2, "client must receive exactly the two gathered responses");
    assert_eq!(metrics.messages_from("Client"), 1);
}
