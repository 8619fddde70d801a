//! Pins the encode-once fan-out property: a multicast (and a broadcast,
//! and a fallible `try_multicast`) serializes its value **exactly once**, no matter how many
//! destinations receive it — every recipient, including the sender's
//! own keep-copy, observes the same encoded bytes.
//!
//! The probes are values whose `Serialize` impls count their
//! invocations (one counter per test, so the tests can run on the
//! harness's concurrent threads without interfering).

use chorus_core::{ChoreoOp, Choreography, Located, LocationSet as _, MultiplyLocated};
use chorus_transport::{Cohort, LocalTransportChannel, MakeTransport};
use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

macro_rules! counted_probe {
    ($name:ident, $counter:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug, Clone, PartialEq, Eq)]
        struct $name(u64);

        impl Serialize for $name {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                $counter.fetch_add(1, Ordering::SeqCst);
                self.0.serialize(serializer)
            }
        }

        impl<'de> Deserialize<'de> for $name {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                u64::deserialize(deserializer).map($name)
            }
        }
    };
}

counted_probe!(MulticastProbe, MULTICAST_SERIALIZATIONS);
counted_probe!(BroadcastProbe, BROADCAST_SERIALIZATIONS);
counted_probe!(TryMulticastProbe, TRY_MULTICAST_SERIALIZATIONS);
counted_probe!(TcpBatchProbe, TCP_BATCH_SERIALIZATIONS);

chorus_core::locations! { A, B, C, D }
type Census = chorus_core::LocationSet!(A, B, C, D);

/// A multicasts to the whole census (itself included) and everyone
/// returns the value they observed.
#[derive(Clone)]
struct FanOut;

impl Choreography<u64> for FanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<MulticastProbe, A> = op.locally(A, |_| MulticastProbe(41));
        let shared: MultiplyLocated<MulticastProbe, Census> = op.multicast(A, Census::new(), &at_a);
        op.naked(shared).0
    }
}

/// A pushes to the whole census (itself included) through the fallible
/// `try_multicast`, as the robust patterns and the cluster client do.
#[derive(Clone)]
struct TryFanOut;

impl Choreography<u64> for TryFanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<TryMulticastProbe, A> = op.locally(A, |_| TryMulticastProbe(29));
        let shared: MultiplyLocated<TryMulticastProbe, Census> =
            op.try_multicast(A, Census::new(), &at_a).expect("every link is up");
        op.naked(shared).0
    }
}

/// A broadcasts; every location returns what it heard.
#[derive(Clone)]
struct Shout;

impl Choreography<u64> for Shout {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<BroadcastProbe, A> = op.locally(A, |_| BroadcastProbe(17));
        op.broadcast(A, at_a).0
    }
}

/// Runs `choreo` as session 7 at every location of the census over
/// `net`, each on its own thread; returns what each observed.
fn run_everywhere<N, Choreo>(net: N, choreo: Choreo) -> Vec<u64>
where
    N: MakeTransport<Census>,
    Choreo: Choreography<u64, L = Census> + Clone + Send + 'static,
{
    let cohort = Cohort::over(net);
    macro_rules! at {
        ($loc:ident) => {{
            let choreo = choreo.clone();
            cohort.role($loc, move |endpoint| endpoint.session_with_id(7).epp_and_run(choreo))
        }};
    }
    cohort.run(vec![at!(A), at!(B), at!(C), at!(D)], || ()).0
}

#[test]
fn multicast_serializes_exactly_once_regardless_of_census_size() {
    let results = run_everywhere(LocalTransportChannel::new(), FanOut);
    assert_eq!(results, vec![41, 41, 41, 41]);
    // One fan-out to 3 remote destinations plus the sender's keep-copy:
    // one serialization total. (The counter also proves the keep-copy
    // decodes the shared bytes instead of re-encoding.)
    assert_eq!(
        MULTICAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "multicast must serialize once, not once per destination"
    );
}

/// A multicasts over TCP; the census returns what it observed.
#[derive(Clone)]
struct TcpFanOut;

impl Choreography<u64> for TcpFanOut {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> u64 {
        let at_a: Located<TcpBatchProbe, A> = op.locally(A, |_| TcpBatchProbe(23));
        let shared: MultiplyLocated<TcpBatchProbe, Census> = op.multicast(A, Census::new(), &at_a);
        op.naked(shared).0
    }
}

/// The encode-once property must survive the TCP path: each remote copy
/// is one frame on its own link, and all three share the single encoded
/// payload buffer — so the probe still serializes exactly once.
#[test]
fn tcp_batched_multicast_serializes_exactly_once() {
    use chorus_transport::{free_local_addrs, TcpConfigBuilder};

    let addrs = free_local_addrs(4).unwrap();
    let cfg = TcpConfigBuilder::new()
        .location(A, addrs[0])
        .location(B, addrs[1])
        .location(C, addrs[2])
        .location(D, addrs[3])
        .build::<Census>()
        .unwrap();
    let results = run_everywhere(cfg, TcpFanOut);
    assert_eq!(results, vec![23, 23, 23, 23]);
    assert_eq!(
        TCP_BATCH_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "a batched TCP multicast must serialize once, not once per socket"
    );
}

#[test]
fn try_multicast_serializes_exactly_once() {
    let results = run_everywhere(LocalTransportChannel::new(), TryFanOut);
    assert_eq!(results, vec![29, 29, 29, 29]);
    // Three remote destinations and the sender's keep-copy, which is
    // decoded from the bytes the destinations got.
    assert_eq!(
        TRY_MULTICAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "try_multicast must serialize once, not once per destination"
    );
}

#[test]
fn broadcast_serializes_exactly_once() {
    let results = run_everywhere(LocalTransportChannel::new(), Shout);
    assert_eq!(results, vec![17, 17, 17, 17]);
    assert_eq!(
        BROADCAST_SERIALIZATIONS.load(Ordering::SeqCst),
        1,
        "broadcast must serialize once, not once per listener"
    );
}
