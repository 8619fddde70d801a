//! The DPrio fair lottery (paper §6, Appendix C): clients secret-share
//! values to servers; the servers commit-then-open random draws to pick
//! a winner; the analyst reconstructs one client's value without
//! learning whose. Pass `--cheat` to watch a dishonest server get caught
//! by commitment verification.
//!
//! Run with: `cargo run --example lottery [-- --cheat]`

use chorus_repro::core::LocationSet as _;
use chorus_repro::mpc::field::FLOTTERY;
use chorus_repro::protocols::lottery::Lottery;
use chorus_repro::protocols::roles::{Analyst, C1, C2, C3, S1, S2};
use chorus_repro::transport::{Cohort, LocalTransportChannel};
use std::marker::PhantomData;

type Clients = chorus_repro::core::LocationSet!(C1, C2, C3);
type Servers = chorus_repro::core::LocationSet!(S1, S2);
type Census = chorus_repro::core::LocationSet!(Analyst, C1, C2, C3, S1, S2);

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
            Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
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
        Err(e) => {
            println!("[Analyst] lottery aborted: {e}");
            assert!(cheat, "honest runs must succeed");
        }
    }
}
