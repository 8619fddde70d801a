//! The Byzantine-hardened DPrio lottery: the same protocol as
//! `examples/lottery.rs`, wrapped in the `chorus_patterns` building
//! blocks — a preflight heartbeat probing every server link, epoch
//! anti-replay on the commit/open exchanges, and a census-wide verdict
//! exchange that turns one victim's local suspicion into an agreed,
//! *named* culprit. Pass `--cheat` to watch server S2 open a value it
//! never committed to and get named in the `Misbehavior` verdict every
//! participant agrees on — instead of the plain protocol's anonymous
//! abort.
//!
//! Run with: `cargo run --example hardened_lottery [-- --cheat]`

use chorus_repro::core::LocationSet as _;
use chorus_repro::mpc::field::FLOTTERY;
use chorus_repro::protocols::hardened::HardenedLottery;
use chorus_repro::protocols::roles::{Analyst, C1, C2, C3, S1, S2, S3};
use chorus_repro::transport::{Cohort, LocalTransportChannel};
use std::marker::PhantomData;

type Clients = chorus_repro::core::LocationSet!(C1, C2, C3);
type Servers = chorus_repro::core::LocationSet!(S1, S2, S3);
type Census = chorus_repro::core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

/// One run of the lottery for everyone who wants the winning secret.
const EPOCH: u64 = 1;

fn main() {
    let cheat = std::env::args().any(|a| a == "--cheat");
    let secrets = [("C1", 1001u64), ("C2", 2002), ("C3", 3003)];
    println!("client secrets: {secrets:?}");
    if cheat {
        println!("server S2 will open a value it never committed to ...");
    }

    // Every participant runs on its own thread over one in-process
    // channel; the analyst runs on this one.
    let cohort = Cohort::over(LocalTransportChannel::<Census>::new());
    macro_rules! lottery {
        ($secrets:expr, $cheaters:expr) => {
            HardenedLottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
                secrets: $secrets,
                tau: 300,
                epoch: EPOCH,
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
                    &session.remote_faceted(Servers::new())
                ));
            })
        };
    }
    macro_rules! server {
        ($loc:ident, $cheats:expr) => {{
            let cheats: bool = $cheats;
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let _ = session.epp_and_run(lottery!(
                    &session.remote_faceted(Clients::new()),
                    &session.local_faceted(cheats)
                ));
            })
        }};
    }
    let roles = vec![
        client!(C1, 1001),
        client!(C2, 2002),
        client!(C3, 3003),
        server!(S1, false),
        server!(S2, cheat),
        server!(S3, false),
    ];

    let (_, verdict) = cohort.run(roles, || {
        let endpoint = cohort.endpoint(Analyst);
        let session = endpoint.session();
        let out = session.epp_and_run(lottery!(
            &session.remote_faceted(Clients::new()),
            &session.remote_faceted(Servers::new())
        ));
        session.unwrap(out)
    });

    match verdict {
        Ok(value) => {
            println!("[Analyst] reconstructed {value} (one of the secrets, sender unknown)");
            assert!(secrets.iter().any(|(_, v)| *v == value));
            assert!(!cheat, "a cheating run must abort");
        }
        Err(m) => {
            println!("[Analyst] lottery aborted with an agreed verdict: {m}");
            assert!(cheat, "honest runs must succeed");
            assert_eq!(m.culprit, "S2", "the verdict names the actual cheater");
        }
    }
}
