//! The DPrio fair lottery (§6, Appendix C, Figs. 12–13).
//!
//! Clients secret-share their inputs to a set of servers; the servers
//! jointly pick a uniformly random client — fair as long as at least one
//! server is honest — and forward that client's shares to an analyst, who
//! reconstructs the value without learning whose it was.
//!
//! The fairness mechanism is commit-then-open: every server publishes
//! `α = H(ρ, ψ)` *before* any server reveals its random `ρ`, so no server
//! can choose its "randomness" after seeing the others'. A server that
//! opens a value different from its commitment is detected by everyone
//! (step 4) and the lottery aborts.
//!
//! The choreography is polymorphic over the number and identity of both
//! the clients and the servers (the paper: "the choreography is
//! polymorphic over the quantities and identities of both the clients and
//! the servers").

use crate::roles::Analyst;
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, Located, LocationSet,
    LocationSetFoldable, Member, MultiplyLocated, Quire, Subset,
};
use chorus_mpc::commit::Commitment;
use chorus_mpc::field::FLOTTERY;
use chorus_mpc::sharing::share_field;
use rand::{thread_rng, Rng};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// Why a lottery run aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LotteryError {
    /// A server's opened `(ρ, ψ)` did not match its commitment
    /// (Appendix C: `throw new Error("Commitment failed")`).
    CommitmentFailed,
}

impl std::fmt::Display for LotteryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LotteryError::CommitmentFailed => write!(f, "commitment verification failed"),
        }
    }
}

impl std::error::Error for LotteryError {}

/// The lottery choreography.
///
/// Type parameters: `Clients` and `Servers` are census-polymorphic
/// location sets; `Census` is any census containing both plus the
/// [`Analyst`]; the rest are inferred proof indices.
pub struct Lottery<
    'a,
    Clients: LocationSet,
    Servers: LocationSet,
    Census: LocationSet,
    CSub,
    SSub,
    AIdx,
    CFold,
    SFold,
    SRefl,
    SSelfFold,
> {
    /// Each client's secret (its private facet).
    pub secrets: &'a Faceted<FLOTTERY, Clients>,
    /// Upper bound for the servers' random draws; the paper takes τ to be
    /// a multiple of the number of clients so the index is uniform.
    pub tau: u64,
    /// Fault injection: servers whose facet is `true` open a value
    /// different from their commitment (they cheat).
    pub cheaters: &'a Faceted<bool, Servers>,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(Census, CSub, SSub, AIdx, CFold, SFold, SRefl, SSelfFold)>,
}

impl<Clients, Servers, Census, CSub, SSub, AIdx, CFold, SFold, SRefl, SSelfFold>
    Choreography<Located<Result<u64, LotteryError>, Analyst>>
    for Lottery<'_, Clients, Servers, Census, CSub, SSub, AIdx, CFold, SFold, SRefl, SSelfFold>
where
    Clients: LocationSet + Subset<Census, CSub> + LocationSetFoldable<Census, Clients, CFold>,
    Servers: LocationSet
        + Subset<Census, SSub>
        + Subset<Servers, SRefl>
        + LocationSetFoldable<Census, Servers, SFold>
        + LocationSetFoldable<Servers, Servers, SSelfFold>,
    Census: LocationSet,
    Analyst: Member<Census, AIdx>,
{
    type L = Census;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Result<u64, LotteryError>, Analyst> {
        assert!(Clients::LENGTH > 0, "the lottery needs at least one client");
        assert!(Servers::LENGTH > 0, "the lottery needs at least one server");
        assert!(self.tau >= Clients::LENGTH as u64, "tau must be at least the number of clients");

        // Clients split their secrets into one additive share per server
        // (Fig. 12 `clientShares`).
        let client_shares: Faceted<Quire<FLOTTERY, Servers>, Clients> =
            op.map_facets(Clients::new(), self.secrets, |secret| {
                additive_share_quire::<Servers>(*secret)
            });

        // Every server collects its share from every client (Fig. 12
        // `serverShares`: a fanout over servers of fanins over clients).
        let server_shares: Faceted<Quire<FLOTTERY, Clients>, Servers> = op.fanout(
            Servers::new(),
            CollectShares::<'_, Clients, Servers, Census, CSub, CFold> {
                client_shares: &client_shares,
                phantom: PhantomData,
            },
        );

        // The servers run the lottery among themselves — the client and
        // analyst hear nothing until the final share transfer.
        let outcome: Faceted<(FLOTTERY, bool), Servers> = op
            .conclave(ServersLottery::<'_, Clients, Servers, SRefl, SSelfFold> {
                server_shares: &server_shares,
                cheaters: self.cheaters,
                tau: self.tau,
                phantom: PhantomData,
            })
            .flatten();

        // Every server sends its chosen share (and verdict) to the
        // analyst (Fig. 13 `allShares`).
        let all_shares: MultiplyLocated<
            Quire<(FLOTTERY, bool), Servers>,
            chorus_core::LocationSet!(Analyst),
        > = op.gather(Servers::new(), <chorus_core::LocationSet!(Analyst)>::new(), &outcome);

        // The analyst reconstructs (Fig. 13 final `locally`).
        op.locally(Analyst, |un| {
            let quire = un.unwrap_ref::<Quire<(FLOTTERY, bool), Servers>, chorus_core::LocationSet!(Analyst), chorus_core::Here>(
                &all_shares,
            );
            if quire.values().all(|(_, ok)| *ok) {
                let sum: FLOTTERY = quire.values().map(|(share, _)| *share).sum();
                Ok(sum.value())
            } else {
                Err(LotteryError::CommitmentFailed)
            }
        })
    }
}

/// Splits `secret` into additive shares, one per server.
pub(crate) fn additive_share_quire<Servers: LocationSet>(
    secret: FLOTTERY,
) -> Quire<FLOTTERY, Servers> {
    let mut shares = share_field(&mut thread_rng(), secret, Servers::LENGTH).into_iter();
    Quire::build(|_| shares.next().expect("one share per server"))
}

/// Fan-out over servers: each server gathers one share from every client.
pub(crate) struct CollectShares<'a, Clients: LocationSet, Servers: LocationSet, Census, CSub, CFold>
{
    pub(crate) client_shares: &'a Faceted<Quire<FLOTTERY, Servers>, Clients>,
    pub(crate) phantom: PhantomData<(Census, CSub, CFold)>,
}

impl<Clients, Servers, Census, CSub, CFold>
    chorus_core::FanOutChoreography<Quire<FLOTTERY, Clients>>
    for CollectShares<'_, Clients, Servers, Census, CSub, CFold>
where
    Clients: LocationSet + Subset<Census, CSub> + LocationSetFoldable<Census, Clients, CFold>,
    Servers: LocationSet,
    Census: LocationSet,
{
    type L = Census;
    type QS = Servers;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<Quire<FLOTTERY, Clients>, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.fanin::<FLOTTERY, Clients, chorus_core::LocationSet!(Q), _, CSub, chorus_core::SubsetCons<QMemberL, chorus_core::SubsetNil>, CFold>(
            Clients::new(),
            SendShare::<'_, Clients, Servers, Census, Q> {
                client_shares: self.client_shares,
                phantom: PhantomData,
            },
        )
    }
}

/// Fan-in over clients with a fixed server recipient: each client sends
/// the share it cut for that server.
struct SendShare<'a, Clients: LocationSet, Servers: LocationSet, Census, QServer> {
    client_shares: &'a Faceted<Quire<FLOTTERY, Servers>, Clients>,
    phantom: PhantomData<(Census, QServer)>,
}

impl<Clients, Servers, Census, QServer> chorus_core::FanInChoreography<FLOTTERY>
    for SendShare<'_, Clients, Servers, Census, QServer>
where
    Clients: LocationSet,
    Servers: LocationSet,
    Census: LocationSet,
    QServer: ChoreographyLocation,
{
    type L = Census;
    type QS = Clients;
    type RS = chorus_core::LocationSet!(QServer);

    fn run<Q: ChoreographyLocation, QSSubsetL, RSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<FLOTTERY, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        let share = op.locally(Q::new(), |un| {
            *un.unwrap_faceted_ref::<Quire<FLOTTERY, Servers>, Clients, QMemberQS>(
                self.client_shares,
            )
            .get_by_name(QServer::NAME)
            .expect("client shares are keyed by the servers")
        });
        op.multicast::<Q, FLOTTERY, Self::RS, QMemberL, RSSubsetL>(
            Q::new(),
            <Self::RS>::new(),
            &share,
        )
    }
}

/// The servers' conclave: draw randomness, commit, open, verify, and pick
/// the winning client's shares (Fig. 12 steps 1–5).
struct ServersLottery<'a, Clients: LocationSet, Servers: LocationSet, SRefl, SSelfFold> {
    server_shares: &'a Faceted<Quire<FLOTTERY, Clients>, Servers>,
    cheaters: &'a Faceted<bool, Servers>,
    tau: u64,
    phantom: PhantomData<(Clients, SRefl, SSelfFold)>,
}

impl<Clients, Servers, SRefl, SSelfFold> Choreography<Faceted<(FLOTTERY, bool), Servers>>
    for ServersLottery<'_, Clients, Servers, SRefl, SSelfFold>
where
    Clients: LocationSet,
    Servers:
        LocationSet + Subset<Servers, SRefl> + LocationSetFoldable<Servers, Servers, SSelfFold>,
{
    type L = Servers;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Faceted<(FLOTTERY, bool), Servers> {
        let servers = Servers::new();
        let tau = self.tau;

        // 1) Each server selects a random number ρ ∈ [1, τ] and a salt ψ.
        let rho: Faceted<u64, Servers> =
            op.parallel(servers, move || thread_rng().gen_range(1..=tau));
        let psi: Faceted<u64, Servers> = op.parallel(servers, || thread_rng().gen::<u64>());

        // 2) Each server publishes the commitment α = H(ρ, ψ).
        let alpha: Faceted<Commitment, Servers> =
            op.map_facets2(servers, &rho, &psi, |r, p| Commitment::commit(*r, *p));
        let alpha_all = op.gather(servers, servers, &alpha);

        // 3) Every server opens its commitment — ψ first, then ρ. A
        // cheater opens ρ+1, i.e. a value it did not commit to. (The
        // sequential separation matters: nobody's ρ is sent until all
        // commitments are in.)
        let psi_all = op.gather(servers, servers, &psi);
        let rho_opened: Faceted<u64, Servers> =
            op.map_facets2(servers, &rho, self.cheaters, |r, cheat| r + u64::from(*cheat));
        let rho_all = op.gather(servers, servers, &rho_opened);

        // 4) All servers verify every commitment (replicated, pure).
        let alpha_all = op.naked(alpha_all);
        let psi_all = op.naked(psi_all);
        let rho_all = op.naked(rho_all);
        let ok = alpha_all.iter().all(|(name, commitment)| {
            let rho_n = rho_all.get_by_name(name).expect("same index set");
            let psi_n = psi_all.get_by_name(name).expect("same index set");
            commitment.verify(*rho_n, *psi_n)
        });

        // 5) Sum the random values to pick the winning client index.
        let total: u64 = rho_all.values().sum();
        let omega = (total % Clients::LENGTH as u64) as usize;
        let winner = Clients::names()[omega].to_string();

        // Each server selects the winner's share and attaches its verdict.
        op.map_facets(servers, self.server_shares, move |quire| {
            let share = *quire.get_by_name(&winner).expect("shares are keyed by the clients");
            (share, ok)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::{C1, C2, C3, S1, S2, S3};
    use chorus_core::Runner;

    type Clients = chorus_core::LocationSet!(C1, C2, C3);
    type Servers = chorus_core::LocationSet!(S1, S2, S3);
    type Census = chorus_core::LocationSet!(Analyst, C1, C2, C3, S1, S2, S3);

    fn secrets(values: [u64; 3]) -> Quire<FLOTTERY, Clients> {
        let mut values = values.into_iter();
        Quire::build(|_| FLOTTERY::new(values.next().expect("one secret per client")))
    }

    fn no_cheaters() -> Quire<bool, Servers> {
        Quire::build(|_| false)
    }

    fn run_lottery(
        secret_map: Quire<FLOTTERY, Clients>,
        cheater_map: Quire<bool, Servers>,
    ) -> Result<u64, LotteryError> {
        let runner: Runner<Census> = Runner::new();
        let secrets: Faceted<FLOTTERY, Clients> = runner.faceted(secret_map);
        let cheaters: Faceted<bool, Servers> = runner.faceted(cheater_map);
        let out = runner.run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
            secrets: &secrets,
            tau: 300,
            cheaters: &cheaters,
            phantom: PhantomData,
        });
        runner.unwrap_located(out)
    }

    #[test]
    fn analyst_receives_one_of_the_secrets() {
        let values = [111, 222, 333];
        for _ in 0..10 {
            let got = run_lottery(secrets(values), no_cheaters()).expect("honest run");
            assert!(values.contains(&got), "analyst got {got}, not a client secret");
        }
    }

    #[test]
    fn all_clients_can_win() {
        let values = [111, 222, 333];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(run_lottery(secrets(values), no_cheaters()).unwrap());
            if seen.len() == 3 {
                break;
            }
        }
        assert_eq!(seen.len(), 3, "every client should win eventually; saw {seen:?}");
    }

    #[test]
    fn a_cheating_server_is_caught() {
        let cheaters = Quire::build(|name| name == "S2");
        let result = run_lottery(secrets([1, 2, 3]), cheaters);
        assert_eq!(result, Err(LotteryError::CommitmentFailed));
    }

    #[test]
    #[should_panic(expected = "tau must be at least")]
    fn undersized_tau_is_rejected() {
        let runner: Runner<Census> = Runner::new();
        let secrets: Faceted<FLOTTERY, Clients> = runner.faceted(secrets([1, 2, 3]));
        let cheaters: Faceted<bool, Servers> = runner.faceted(no_cheaters());
        let _ = runner.run(Lottery::<Clients, Servers, Census, _, _, _, _, _, _, _> {
            secrets: &secrets,
            tau: 2,
            cheaters: &cheaters,
            phantom: PhantomData,
        });
    }
}
