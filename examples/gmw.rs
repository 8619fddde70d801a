//! Secure three-party majority vote via the GMW protocol (paper §6,
//! Appendix A): each party holds a private bit; everyone learns the
//! majority and nothing else.
//!
//! Run with: `cargo run --example gmw -- 1 0 1`
//! (arguments are the three parties' private votes; default `1 0 1`)

use chorus_repro::core::ChoreographyLocation as _;
use chorus_repro::mpc::Circuit;
use chorus_repro::protocols::gmw::Gmw;
use chorus_repro::protocols::roles::{P1, P2, P3};
use chorus_repro::transport::{Cohort, LocalTransportChannel};
use std::marker::PhantomData;

type Parties = chorus_repro::core::LocationSet!(P1, P2, P3);

fn majority_circuit() -> Circuit {
    let a = || Circuit::input("P1", 0);
    let b = || Circuit::input("P2", 0);
    let c = || Circuit::input("P3", 0);
    // majority(a,b,c) = ab ⊕ ac ⊕ bc over GF(2)
    a().and(b()).xor(a().and(c())).xor(b().and(c()))
}

fn main() {
    let votes: Vec<bool> =
        std::env::args().skip(1).map(|s| s != "0").chain([true, false, true]).take(3).collect();
    println!("private votes: P1={} P2={} P3={}", votes[0], votes[1], votes[2]);

    // Each party runs on its own thread over one in-process channel.
    let cohort = Cohort::over(LocalTransportChannel::<Parties>::new());
    let circuit = std::sync::Arc::new(majority_circuit());

    macro_rules! party {
        ($loc:ident, $vote:expr) => {{
            let circuit = std::sync::Arc::clone(&circuit);
            let vote: bool = $vote;
            cohort.role($loc, move |endpoint| {
                let session = endpoint.session();
                let result = session.epp_and_run(Gmw::<Parties, _, _> {
                    circuit: &circuit,
                    inputs: &session.local_faceted(vec![vote]),
                    phantom: PhantomData,
                });
                println!("[{}] learned the majority: {result}", $loc::NAME);
                result
            })
        }};
    }

    let parties = vec![party!(P1, votes[0]), party!(P2, votes[1]), party!(P3, votes[2])];
    let (results, ()) = cohort.run(parties, || ());
    let expected = (votes[0] && votes[1]) ^ (votes[0] && votes[2]) ^ (votes[1] && votes[2]);
    assert!(results.iter().all(|r| *r == expected), "parties disagree");
    println!("majority = {expected} — computed without revealing any vote.");
}
