//! Experiment E8 (paper §4.2): translating a select-&-merge choreography
//! into conclaves-&-MLVs.
//!
//! In a select-&-merge language, a seller would decide accept/reject
//! inside one conditional and `select` the outcome to the buyer and the
//! shipper. The paper's recipe for conclaves-&-MLVs systems:
//!
//! > "Each branch of the setup will end where the select was, and return
//! > the selected flag. In between the two conditionals the controlling
//! > party multicasts the chosen flag; the continuation branches on that
//! > multiply-located flag and picks up where the setup left off."
//!
//! This example implements exactly that decomposition for a
//! buyer/seller/shipper negotiation and instruments the transport to
//! show the shipper receives exactly one knowledge-of-choice bit.
//!
//! Run with: `cargo run --example selective`

use chorus_repro::core::{ChoreoOp, Choreography, Located, LocationSet as _, MultiplyLocated};
use chorus_repro::transport::{Cohort, LocalTransportChannel, TransportMetrics};
use std::sync::Arc;

chorus_repro::core::locations! { Buyer, Seller, Shipper }

type Census = chorus_repro::core::LocationSet!(Buyer, Seller, Shipper);
type Negotiators = chorus_repro::core::LocationSet!(Seller, Buyer);
type Fulfillment = chorus_repro::core::LocationSet!(Seller, Shipper);

const ASKING_PRICE: u32 = 100;

/// Top level: setup conclave → flag relay → continuation conclave.
struct Negotiate {
    offer: Located<u32, Buyer>,
}

impl Choreography<Located<Option<u64>, Buyer>> for Negotiate {
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Option<u64>, Buyer> {
        let offer = op.comm(Buyer, Seller, &self.offer);

        // SETUP: the conditional runs among the negotiators only and
        // "ends where the select was", returning the selected flag as an
        // MLV — this is the decision a select would have communicated.
        let decision: MultiplyLocated<bool, Negotiators> = op.conclave(Setup { offer }).flatten();

        // IN BETWEEN: the controlling party (the seller) multicasts the
        // chosen flag to the continuation's participants. This is the
        // shipper's *only* knowledge-of-choice message.
        let at_seller = op.locally(Seller, |un| un.unwrap(&decision));
        let relayed: MultiplyLocated<bool, Fulfillment> =
            op.multicast(Seller, Fulfillment::new(), &at_seller);

        // CONTINUATION: branches on the multiply-located flag and picks
        // up where the setup left off.
        let tracking: Located<Option<u64>, Seller> =
            op.conclave(Fulfill { accepted: relayed }).flatten().flatten();

        op.comm(Seller, Buyer, &tracking)
    }
}

/// The negotiators' conditional: accept iff the offer meets the price.
struct Setup {
    offer: Located<u32, Seller>,
}

impl Choreography<MultiplyLocated<bool, Negotiators>> for Setup {
    type L = Negotiators;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> MultiplyLocated<bool, Negotiators> {
        let decision = op.locally(Seller, |un| *un.unwrap_ref(&self.offer) >= ASKING_PRICE);
        // Where select-&-merge would `select`, we return the flag as an
        // MLV shared by the conclave.
        op.multicast(Seller, Negotiators::new(), &decision)
    }
}

/// The fulfillment conditional, reusing the relayed flag with no further
/// communication for knowledge of choice.
struct Fulfill {
    accepted: MultiplyLocated<bool, Fulfillment>,
}

impl Choreography<MultiplyLocated<Located<Option<u64>, Seller>, Fulfillment>> for Fulfill {
    type L = Fulfillment;

    fn run(
        self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<Located<Option<u64>, Seller>, Fulfillment> {
        let accepted = op.naked(self.accepted);
        op.conclave(FulfillBranch { accepted })
    }
}

struct FulfillBranch {
    accepted: bool,
}

impl Choreography<Located<Option<u64>, Seller>> for FulfillBranch {
    type L = Fulfillment;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Option<u64>, Seller> {
        if self.accepted {
            let tracking = op.locally(Shipper, |_| 41255u64);
            let at_seller = op.comm(Shipper, Seller, &tracking);
            op.locally(Seller, |un| Some(*un.unwrap_ref(&at_seller)))
        } else {
            op.locally(Seller, |_| None)
        }
    }
}

fn run_offer(offer: u32) -> (Option<u64>, Arc<TransportMetrics>) {
    let metrics = Arc::new(TransportMetrics::new());
    let cohort = Cohort::over(LocalTransportChannel::<Census>::new()).layer(metrics.clone());
    macro_rules! endpoint {
        ($loc:ident) => {
            cohort.role($loc, |endpoint| {
                let session = endpoint.session();
                session.epp_and_run(Negotiate { offer: session.remote(Buyer) });
            })
        };
    }

    let (_, result) = cohort.run(vec![endpoint!(Seller), endpoint!(Shipper)], || {
        let endpoint = cohort.endpoint(Buyer);
        let session = endpoint.session();
        let out = session.epp_and_run(Negotiate { offer: session.local(offer) });
        session.unwrap(out)
    });
    (result, metrics)
}

fn main() {
    let (tracking, metrics) = run_offer(120);
    println!("offer 120 -> tracking {tracking:?}");
    println!("  shipper received {} message(s): the KoC flag", metrics.messages_to("Shipper"));
    assert_eq!(tracking, Some(41255));
    assert_eq!(metrics.messages_to("Shipper"), 1);

    let (tracking, metrics) = run_offer(80);
    println!("offer  80 -> tracking {tracking:?}");
    println!("  shipper received {} message(s): the KoC flag", metrics.messages_to("Shipper"));
    assert_eq!(tracking, None);
    assert_eq!(metrics.messages_to("Shipper"), 1);

    println!("select-&-merge decomposed into sequential conclaves: the shipper's");
    println!("knowledge of choice costs exactly one multicast bit, in both branches.");
}
