//! The GMW secure multiparty computation protocol (§6, Appendix A,
//! Figs. 8–9), census-polymorphic over the set of parties.
//!
//! The parties jointly evaluate a boolean [`Circuit`] over their private
//! inputs without revealing them:
//!
//! * **Input wires** are XOR-secret-shared by their owner and scattered
//!   to everyone ([`Faceted`] shares).
//! * **XOR gates** are free: each party XORs its shares locally.
//! * **AND gates** run one 1-of-2 oblivious transfer per ordered pair of
//!   distinct parties — "we must nest FanOut, FanIn, and conclave to call
//!   the oblivious transfer sub-choreography (which has an explicit
//!   census of only two parties) once for every ordered pair".
//! * **Reveal** gathers all shares everywhere and XORs them.
//!
//! The two-party OT sub-choreography (`OtPair`) has a census of exactly
//! `{sender, receiver}`: the type system rejects any third party's
//! involvement, which is the paper's point about embedding pairwise
//! sub-protocols in arbitrarily large censuses.

use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, Located, LocationSet,
    LocationSetFoldable, LocationSetFolder, Member, MultiplyLocated, Quire, Subset, SubsetCons,
    SubsetNil,
};
use chorus_mpc::circuit::Circuit;
use chorus_mpc::ot;
use chorus_mpc::sharing::share_bool;
use rand::{thread_rng, Rng};
use std::marker::PhantomData;

/// The GMW choreography: evaluates `circuit` over the parties' private
/// `inputs` and reveals the result to everyone.
///
/// `P` is the full (census-polymorphic) party set; `PRefl` and `PFold`
/// are inferred proof indices (`P ⊆ P` and the fold witness over `P`).
pub struct Gmw<'a, P: LocationSet, PRefl, PFold> {
    /// The publicly known circuit to evaluate.
    pub circuit: &'a Circuit,
    /// Each party's private input bits (facet = that party's inputs).
    pub inputs: &'a Faceted<Vec<bool>, P>,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(PRefl, PFold)>,
}

impl<P, PRefl, PFold> Choreography<bool> for Gmw<'_, P, PRefl, PFold>
where
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    type L = P;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> bool {
        let names = P::names();
        assert!(!names.is_empty(), "GMW requires at least one party");
        for (party, _) in self.circuit.required_inputs() {
            assert!(
                names.contains(&party),
                "circuit names input party {party} outside the census {names:?}"
            );
        }
        let shares = eval_gate::<P, _, PRefl, PFold>(op, self.circuit, self.inputs);
        reveal::<P, _, PRefl, PFold>(op, &shares)
    }
}

/// Recursively evaluates a circuit to secret shares of its output
/// (Fig. 8's `gmw`).
fn eval_gate<P, Op, PRefl, PFold>(
    op: &Op,
    circuit: &Circuit,
    inputs: &Faceted<Vec<bool>, P>,
) -> Faceted<bool, P>
where
    Op: ChoreoOp<P>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    match circuit {
        Circuit::Input { party, index } => {
            let folder = ShareInput::<'_, Op, P, PRefl, PFold> {
                op,
                party,
                index: *index,
                inputs,
                phantom: PhantomData,
            };
            P::foldr(&folder, None).unwrap_or_else(|| {
                panic!("input party {party} not found in census {:?}", P::names())
            })
        }
        Circuit::Lit(b) => {
            // Fig. 8's `chooseShare`: the first party's share is the
            // literal; everyone else holds `false`.
            let b = *b;
            let first = P::names()[0];
            op.parallel_named(P::new(), move |name| if name == first { b } else { false })
        }
        Circuit::Xor(l, r) => {
            let ls = eval_gate::<P, Op, PRefl, PFold>(op, l, inputs);
            let rs = eval_gate::<P, Op, PRefl, PFold>(op, r, inputs);
            // XOR is free: shares combine locally.
            op.map_facets2(P::new(), &ls, &rs, |a, b| a ^ b)
        }
        Circuit::And(l, r) => {
            let u = eval_gate::<P, Op, PRefl, PFold>(op, l, inputs);
            let v = eval_gate::<P, Op, PRefl, PFold>(op, r, inputs);
            f_and::<P, Op, PRefl, PFold>(op, &u, &v)
        }
    }
}

/// Reveals secret shares to the entire census (Fig. 9's `reveal`):
/// gather everywhere, XOR locally.
fn reveal<P, Op, PRefl, PFold>(op: &Op, shares: &Faceted<bool, P>) -> bool
where
    Op: ChoreoOp<P>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    let gathered: MultiplyLocated<Quire<bool, P>, P> = op.gather(P::new(), P::new(), shares);
    let quire = op.naked(gathered);
    quire.values().fold(false, |acc, b| acc ^ *b)
}

/// Fig. 9's `fAnd`: multiply secret-shared bits `u` and `v` via pairwise
/// oblivious transfer.
fn f_and<P, Op, PRefl, PFold>(
    op: &Op,
    u: &Faceted<bool, P>,
    v: &Faceted<bool, P>,
) -> Faceted<bool, P>
where
    Op: ChoreoOp<P>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    // Every party i draws a random mask r_ij for each counterpart j
    // (Fig. 9's `a_j_s`).
    let masks: Faceted<Quire<bool, P>, P> = op.parallel(P::new(), || {
        let mut rng = thread_rng();
        Quire::build(|_| rng.gen())
    });

    // For every receiver j, collect m_ij = r_ij ⊕ (u_i ∧ v_j) from every
    // sender i via OT, and XOR them into b_j (Fig. 9's `bs` fanOut).
    let b: Faceted<bool, P> =
        op.fanout(P::new(), OtFanOut::<'_, P, PFold> { u, v, masks: &masks, phantom: PhantomData });

    // share_i = (u_i ∧ v_i) ⊕ b_i ⊕ (⊕_{j≠i} r_ij)  (Fig. 9's
    // `computeShare`).
    op.fanout(P::new(), CombineShares::<'_, P> { u, v, b: &b, masks: &masks })
}

/// Folder that locates the input's owner in the census and has it share
/// its bit: generate an XOR-share quire locally, then scatter it.
struct ShareInput<'a, Op, P: LocationSet, PRefl, PFold> {
    op: &'a Op,
    party: &'a str,
    index: usize,
    inputs: &'a Faceted<Vec<bool>, P>,
    phantom: PhantomData<(PRefl, PFold)>,
}

impl<Op, P, PRefl, PFold> LocationSetFolder<Option<Faceted<bool, P>>>
    for ShareInput<'_, Op, P, PRefl, PFold>
where
    Op: ChoreoOp<P>,
    P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
{
    type L = P;
    type QS = P;

    fn f<Q: ChoreographyLocation, QMemberL, QMemberQS>(
        &self,
        acc: Option<Faceted<bool, P>>,
    ) -> Option<Faceted<bool, P>>
    where
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        if Q::NAME != self.party {
            return acc;
        }
        let index = self.index;
        let share_quire: Located<Quire<bool, P>, Q> =
            self.op.locally::<Quire<bool, P>, Q, QMemberL>(Q::new(), |un| {
                let bit = un.unwrap_faceted_ref::<Vec<bool>, P, QMemberL>(self.inputs)[index];
                xor_share_quire::<P>(bit)
            });
        Some(self.op.scatter::<Q, bool, P, QMemberL, PRefl, PFold>(
            Q::new(),
            P::new(),
            &share_quire,
        ))
    }
}

/// Builds a quire of random bits whose XOR equals `bit` (Fig. 9's
/// `genShares`).
fn xor_share_quire<P: LocationSet>(bit: bool) -> Quire<bool, P> {
    let mut shares = share_bool(&mut thread_rng(), bit, P::LENGTH).into_iter();
    Quire::build(|_| shares.next().expect("one share per party"))
}

/// Fan-out over receivers j: each j collects its masked products from
/// every sender via the inner fan-in, then XORs them.
struct OtFanOut<'a, P: LocationSet, PFold> {
    u: &'a Faceted<bool, P>,
    v: &'a Faceted<bool, P>,
    masks: &'a Faceted<Quire<bool, P>, P>,
    phantom: PhantomData<PFold>,
}

impl<P, PFold> chorus_core::FanOutChoreography<bool> for OtFanOut<'_, P, PFold>
where
    P: LocationSet + LocationSetFoldable<P, P, PFold>,
{
    type L = P;
    type QS = P;

    fn run<Qj: ChoreographyLocation, QSSubsetL, QjMemberL, QjMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<bool, Qj>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Qj: Member<Self::L, QjMemberL>,
        Qj: Member<Self::QS, QjMemberQS>,
    {
        let fan_in = OtFanIn::<'_, P, Qj, QjMemberL> {
            u: self.u,
            v: self.v,
            masks: self.masks,
            phantom: PhantomData,
        };
        let gathered: MultiplyLocated<Quire<bool, P>, chorus_core::LocationSet!(Qj)> = op
            .fanin::<bool, P, chorus_core::LocationSet!(Qj), _, QSSubsetL, SubsetCons<QjMemberL, SubsetNil>, PFold>(
                P::new(),
                fan_in,
            );
        op.locally::<bool, Qj, QjMemberL>(Qj::new(), |un| {
            un.unwrap_ref::<Quire<bool, P>, chorus_core::LocationSet!(Qj), chorus_core::Here>(
                &gathered,
            )
            .values()
            .fold(false, |a, b| a ^ *b)
        })
    }
}

/// Fan-in over senders i with fixed receiver j: for i == j contribute
/// `false`; otherwise run the two-party OT conclave.
struct OtFanIn<'a, P: LocationSet, Qj, QjMemberL> {
    u: &'a Faceted<bool, P>,
    v: &'a Faceted<bool, P>,
    masks: &'a Faceted<Quire<bool, P>, P>,
    phantom: PhantomData<(Qj, QjMemberL)>,
}

impl<P, Qj, QjMemberL> chorus_core::FanInChoreography<bool> for OtFanIn<'_, P, Qj, QjMemberL>
where
    P: LocationSet,
    Qj: ChoreographyLocation + Member<P, QjMemberL>,
{
    type L = P;
    type QS = P;
    type RS = chorus_core::LocationSet!(Qj);

    fn run<Qi: ChoreographyLocation, QSSubsetL, RSSubsetL, QiMemberL, QiMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<bool, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Qi: Member<Self::L, QiMemberL>,
        Qi: Member<Self::QS, QiMemberQS>,
    {
        if Qi::NAME == Qj::NAME {
            // The self-pair contributes a constant `false` share.
            return op.locally(Qj::new(), |_| false);
        }
        // Two-party conclave: only the sender and receiver participate.
        let result: MultiplyLocated<Located<bool, Qj>, chorus_core::LocationSet!(Qi, Qj)> = op
            .conclave::<Located<bool, Qj>, chorus_core::LocationSet!(Qi, Qj), _, SubsetCons<QiMemberL, SubsetCons<QjMemberL, SubsetNil>>>(
                OtPair::<'_, P, Qi, Qj, QiMemberL, QjMemberL> {
                    u: self.u,
                    v: self.v,
                    masks: self.masks,
                    phantom: PhantomData,
                },
            );
        result.flatten()
    }
}

/// The two-party 1-of-2 OT sub-choreography (Fig. 9's `ot2`): census is
/// exactly `{Sender, Receiver}`. The receiver selects with its `v` share;
/// the sender offers `(r, r ⊕ u)`, so the receiver learns
/// `r ⊕ (u ∧ v)` and nothing else.
struct OtPair<'a, P: LocationSet, S, R, SInP, RInP> {
    u: &'a Faceted<bool, P>,
    v: &'a Faceted<bool, P>,
    masks: &'a Faceted<Quire<bool, P>, P>,
    phantom: PhantomData<(S, R, SInP, RInP)>,
}

impl<P, S, R, SInP, RInP> Choreography<Located<bool, R>> for OtPair<'_, P, S, R, SInP, RInP>
where
    P: LocationSet,
    S: ChoreographyLocation + Member<P, SInP>,
    R: ChoreographyLocation + Member<P, RInP>,
{
    type L = chorus_core::LocationSet!(S, R);

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<bool, R> {
        // Receiver: keys with selector v_j.
        let keys = op.locally(R::new(), |un| {
            let v_j = *un.unwrap_faceted_ref::<bool, P, RInP>(self.v);
            ot::ReceiverKeys::generate(&mut thread_rng(), v_j)
        });
        let pks = op.locally(R::new(), |un| {
            un.unwrap_ref::<ot::ReceiverKeys, chorus_core::LocationSet!(R), chorus_core::Here>(
                &keys,
            )
            .public()
        });
        let pks_at_sender = op.comm(R::new(), S::new(), &pks);
        // Sender: encrypt (r, r ⊕ u) under the receiver's keys.
        let cts = op.locally(S::new(), |un| {
            let u_i = *un.unwrap_faceted_ref::<bool, P, SInP>(self.u);
            let r_ij = *un
                .unwrap_faceted_ref::<Quire<bool, P>, P, SInP>(self.masks)
                .get::<R, RInP>(R::new());
            let pks = *un
                .unwrap_ref::<ot::PublicKeys, chorus_core::LocationSet!(S), chorus_core::Here>(
                    &pks_at_sender,
                );
            ot::encrypt(&mut thread_rng(), pks, r_ij, r_ij ^ u_i)
        });
        let cts_at_receiver = op.comm(S::new(), R::new(), &cts);
        // Receiver: decrypt the selected masked product.
        op.locally(R::new(), |un| {
            un.unwrap_ref::<ot::ReceiverKeys, chorus_core::LocationSet!(R), chorus_core::Here>(
                &keys,
            )
            .decrypt(
                un.unwrap_ref::<ot::Ciphertexts, chorus_core::LocationSet!(R), chorus_core::Here>(
                    &cts_at_receiver,
                ),
            )
        })
    }
}

/// Final per-party combination of an AND gate's intermediate values.
struct CombineShares<'a, P: LocationSet> {
    u: &'a Faceted<bool, P>,
    v: &'a Faceted<bool, P>,
    b: &'a Faceted<bool, P>,
    masks: &'a Faceted<Quire<bool, P>, P>,
}

impl<P> chorus_core::FanOutChoreography<bool> for CombineShares<'_, P>
where
    P: LocationSet,
{
    type L = P;
    type QS = P;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<bool, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.locally::<bool, Q, QMemberL>(Q::new(), |un| {
            let u_i = *un.unwrap_faceted_ref::<bool, P, QMemberL>(self.u);
            let v_i = *un.unwrap_faceted_ref::<bool, P, QMemberL>(self.v);
            let b_i = *un.unwrap_faceted_ref::<bool, P, QMemberL>(self.b);
            let masks_i = un.unwrap_faceted_ref::<Quire<bool, P>, P, QMemberL>(self.masks);
            let r_sum = masks_i
                .iter()
                .filter(|(name, _)| *name != Q::NAME)
                .fold(false, |acc, (_, r)| acc ^ *r);
            (u_i & v_i) ^ b_i ^ r_sum
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{P1, P2, P3};
    use chorus_core::Runner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    type Two = chorus_core::LocationSet!(P1, P2);
    type Three = chorus_core::LocationSet!(P1, P2, P3);

    fn run_gmw<P, PRefl, PFold>(circuit: &Circuit, inputs: BTreeMap<String, Vec<bool>>) -> bool
    where
        P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
    {
        let runner: Runner<P> = Runner::new();
        let faceted = runner.faceted(Quire::build(|name| inputs[name].clone()));
        runner.run(Gmw::<P, PRefl, PFold> { circuit, inputs: &faceted, phantom: PhantomData })
    }

    fn two_party_inputs(a: bool, b: bool) -> BTreeMap<String, Vec<bool>> {
        let mut m = BTreeMap::new();
        m.insert("P1".to_string(), vec![a]);
        m.insert("P2".to_string(), vec![b]);
        m
    }

    #[test]
    fn and_gate_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                let circuit = Circuit::input("P1", 0).and(Circuit::input("P2", 0));
                let got = run_gmw::<Two, _, _>(&circuit, two_party_inputs(a, b));
                assert_eq!(got, a && b, "AND({a}, {b})");
            }
        }
    }

    #[test]
    fn xor_gate_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                let circuit = Circuit::input("P1", 0).xor(Circuit::input("P2", 0));
                let got = run_gmw::<Two, _, _>(&circuit, two_party_inputs(a, b));
                assert_eq!(got, a ^ b, "XOR({a}, {b})");
            }
        }
    }

    #[test]
    fn or_and_not_compose() {
        for a in [false, true] {
            for b in [false, true] {
                let circuit = Circuit::input("P1", 0).or(Circuit::input("P2", 0)).not();
                let got = run_gmw::<Two, _, _>(&circuit, two_party_inputs(a, b));
                assert_eq!(got, !(a || b), "NOR({a}, {b})");
            }
        }
    }

    #[test]
    fn literals_evaluate() {
        let circuit = Circuit::lit(true).and(Circuit::input("P1", 0));
        assert!(run_gmw::<Two, _, _>(&circuit, two_party_inputs(true, false)));
        assert!(!run_gmw::<Two, _, _>(&circuit, two_party_inputs(false, true)));
    }

    #[test]
    fn three_party_majority() {
        // majority(a, b, c) = ab ⊕ ac ⊕ bc   (over GF(2))
        let a = || Circuit::input("P1", 0);
        let b = || Circuit::input("P2", 0);
        let c = || Circuit::input("P3", 0);
        let majority = a().and(b()).xor(a().and(c())).xor(b().and(c()));
        for bits in 0..8u8 {
            let (x, y, z) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let mut inputs = BTreeMap::new();
            inputs.insert("P1".to_string(), vec![x]);
            inputs.insert("P2".to_string(), vec![y]);
            inputs.insert("P3".to_string(), vec![z]);
            let got = run_gmw::<Three, _, _>(&majority, inputs);
            let expected = (x && y) ^ (x && z) ^ (y && z);
            assert_eq!(got, expected, "majority({x}, {y}, {z})");
        }
    }

    #[test]
    fn random_circuits_match_plaintext_evaluation() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let circuit = Circuit::random(&mut rng, &["P1", "P2", "P3"], 12);
            let mut inputs = BTreeMap::new();
            for p in ["P1", "P2", "P3"] {
                inputs.insert(p.to_string(), vec![rng.gen::<bool>()]);
            }
            let plain_env: BTreeMap<&str, Vec<bool>> =
                inputs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            let expected = circuit.eval_plain(&plain_env);
            let got = run_gmw::<Three, _, _>(&circuit, inputs);
            assert_eq!(got, expected, "trial {trial}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the census")]
    fn unknown_input_party_is_rejected() {
        let circuit = Circuit::input("Ghost", 0);
        run_gmw::<Two, _, _>(&circuit, two_party_inputs(false, false));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::roles::{P1, P2, P3, P4};
    use chorus_core::Runner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    type Four = chorus_core::LocationSet!(P1, P2, P3, P4);

    fn run<P, PRefl, PFold>(circuit: &Circuit, inputs: BTreeMap<String, Vec<bool>>) -> bool
    where
        P: LocationSet + Subset<P, PRefl> + LocationSetFoldable<P, P, PFold>,
    {
        let runner: Runner<P> = Runner::new();
        let faceted = runner.faceted(Quire::build(|name| inputs[name].clone()));
        runner.run(Gmw::<P, PRefl, PFold> { circuit, inputs: &faceted, phantom: PhantomData })
    }

    #[test]
    fn multiple_inputs_per_party() {
        // P1 supplies two bits; the circuit XORs them and ANDs with P2's.
        let circuit =
            Circuit::input("P1", 0).xor(Circuit::input("P1", 1)).and(Circuit::input("P2", 0));
        for bits in 0..8u8 {
            let (a, b, c) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let mut inputs = BTreeMap::new();
            inputs.insert("P1".to_string(), vec![a, b]);
            inputs.insert("P2".to_string(), vec![c]);
            inputs.insert("P3".to_string(), vec![]);
            inputs.insert("P4".to_string(), vec![]);
            let got = run::<Four, _, _>(&circuit, inputs);
            assert_eq!(got, (a ^ b) && c, "bits={bits:03b}");
        }
    }

    #[test]
    fn four_party_random_circuits_match_plaintext() {
        let mut rng = StdRng::seed_from_u64(77);
        let names = ["P1", "P2", "P3", "P4"];
        for trial in 0..6 {
            let circuit = Circuit::random(&mut rng, &names, 10);
            let mut inputs = BTreeMap::new();
            for p in names {
                inputs.insert(p.to_string(), vec![rng.gen::<bool>()]);
            }
            let plain: BTreeMap<&str, Vec<bool>> =
                inputs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            let expected = circuit.eval_plain(&plain);
            assert_eq!(run::<Four, _, _>(&circuit, inputs), expected, "trial {trial}");
        }
    }

    #[test]
    fn deep_and_nesting_is_correct() {
        // ((((a ∧ b) ∧ a) ∧ b) ∧ a): stresses repeated OT rounds on the
        // same shares.
        let a = || Circuit::input("P1", 0);
        let b = || Circuit::input("P2", 0);
        let circuit = a().and(b()).and(a()).and(b()).and(a());
        for (x, y) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut inputs = BTreeMap::new();
            inputs.insert("P1".to_string(), vec![x]);
            inputs.insert("P2".to_string(), vec![y]);
            let got = run::<chorus_core::LocationSet!(P1, P2), _, _>(&circuit, inputs);
            assert_eq!(got, x && y, "({x}, {y})");
        }
    }

    #[test]
    fn single_party_gmw_degenerates_to_local_evaluation() {
        // With one party there are no OTs at all; the protocol still works.
        let circuit = Circuit::input("P1", 0).and(Circuit::input("P1", 1)).not();
        let mut inputs = BTreeMap::new();
        inputs.insert("P1".to_string(), vec![true, false]);
        let got = run::<chorus_core::LocationSet!(P1), _, _>(&circuit, inputs);
        assert!(got);
    }
}
