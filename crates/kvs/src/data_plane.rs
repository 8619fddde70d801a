//! The census-polymorphic data plane: one `Get`/`Put` round against the
//! current cluster, written once over an abstract member set.
//!
//! [`ClusterOp`] is generic over `Members` — the replica set of the
//! key's shard under the client's config view — exactly the paper's
//! census polymorphism: the same choreography text serves a key's one
//! replica on a one-node cluster, its three on a larger one, and any
//! replica set a join, leave, split or migration leaves it, with the
//! concrete set bound at the call site (§3.4). A member that holds no copy of the key takes no part in the
//! round. The client pushes an epoch-stamped request to every replica
//! ([`try_multicast`], so a chaos-eaten frame degrades to a typed miss
//! instead of a hang), each replica answers from its own replica state
//! machine, and the replies fan back in with per-replica communication
//! failures attributed — mirroring `chorus_patterns::ProposeAck`'s ack
//! round. The client then resolves quorum: stale-epoch fencing first,
//! then write/read quorums over the shard's replica set.
//!
//! [`try_multicast`]: chorus_core::ChoreoOp::try_multicast

use crate::config::{fnv1a, ClusterConfig};
use crate::node::{KvsOp, NodeCtx, NodeReply, StampedRequest, Versioned};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, CommFailure, Faceted, HCons, Here, Located,
    LocationSet, LocationSetFoldable, Member, MultiplyLocated, Quire, Subset,
};
use chorus_protocols::roles::Client;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// The full census of one data-plane round: the client plus the key's
/// replicas.
pub type KvsCensus<Members> = HCons<Client, Members>;

/// Why a client operation failed, as a typed error — never a hang,
/// never a silently wrong read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvsError {
    /// A replica holds a newer config epoch than the request's stamp;
    /// the client must refresh its config and retry.
    StaleEpoch {
        /// The newest epoch any replica reported.
        observed: u64,
    },
    /// The key's shard is inside a migration freeze window; retry after
    /// the handoff commits.
    Frozen,
    /// Not enough replicas answered to reach quorum.
    Unavailable {
        /// Acknowledgements received from the shard's replica set.
        acks: usize,
        /// Quorum required.
        need: usize,
    },
}

impl std::fmt::Display for KvsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvsError::StaleEpoch { observed } => write!(f, "stale epoch (cluster at {observed})"),
            KvsError::Frozen => write!(f, "shard frozen for final-delta handoff"),
            KvsError::Unavailable { acks, need } => {
                write!(f, "quorum unavailable ({acks}/{need} replicas)")
            }
        }
    }
}

impl std::error::Error for KvsError {}

/// A successful client operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// The put reached a write quorum at this version.
    Put {
        /// The committed write version.
        version: u64,
    },
    /// The get reached a read quorum; `found` is the max-version value.
    Get {
        /// The freshest value any quorum replica held, if any.
        found: Option<Versioned>,
    },
}

/// One data-plane round: client request in, quorum-resolved result out.
///
/// `Members` is the key's replica set under the client's config view;
/// the client is prepended by the choreography itself. Proof indices
/// `MSubset`/`MFold` are inferred — pass `PhantomData`.
pub struct ClusterOp<'a, Members: LocationSet, MSubset, MFold> {
    /// The client's stamped request.
    pub request: Located<StampedRequest, Client>,
    /// Each member's replica state handle (own facet only, under
    /// projection).
    pub nodes: Faceted<NodeCtx, Members>,
    /// The client's view of the config, used to resolve quorum;
    /// borrowed, so a round copies none of it.
    pub config: Located<&'a ClusterConfig, Client>,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(MSubset, MFold)>,
}

impl<Members, MSubset, MFold> Choreography<Located<Result<OpOutcome, KvsError>, Client>>
    for ClusterOp<'_, Members, MSubset, MFold>
where
    Members: LocationSet
        + Subset<KvsCensus<Members>, MSubset>
        + LocationSetFoldable<KvsCensus<Members>, Members, MFold>,
{
    type L = KvsCensus<Members>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> Located<Result<OpOutcome, KvsError>, Client> {
        // 1. The client pushes the stamped request to every replica of
        // the key; a replica the chaos cuts off sees a typed failure,
        // not a hang.
        let pushed = op.try_multicast::<Client, StampedRequest, Members, Here, MSubset>(
            Client,
            Members::new(),
            &self.request,
        );

        // 2. Every replica answers from its own replica state machine.
        let replies: Faceted<NodeReply, Members> = op.fanout(
            Members::new(),
            ApplyBody::<'_, Members> { pushed: &pushed, nodes: &self.nodes },
        );

        // 3. Replies fan in to the client; an unreachable or garbled
        // replica is recorded as its own attributed failure.
        let gathered: MultiplyLocated<
            Quire<Result<NodeReply, CommFailure>, Members>,
            chorus_core::LocationSet!(Client),
        > = op.fanin(Members::new(), ReplySend::<'_, Members> { replies: &replies });

        // 4. The client resolves quorum under its config view.
        op.locally::<_, Client, Here>(Client, |un| {
            let quire = un
                .unwrap_ref::<Quire<Result<NodeReply, CommFailure>, Members>, chorus_core::LocationSet!(Client), Here>(
                    &gathered,
                );
            let config = un.unwrap_ref::<&ClusterConfig, chorus_core::LocationSet!(Client), Here>(&self.config);
            let request = un.unwrap_ref::<StampedRequest, chorus_core::LocationSet!(Client), Here>(&self.request);
            resolve(config, request, quire.iter())
        })
    }
}

/// Per-member application of the pushed request.
struct ApplyBody<'a, Members: LocationSet> {
    pushed: &'a Result<MultiplyLocated<StampedRequest, Members>, CommFailure>,
    nodes: &'a Faceted<NodeCtx, Members>,
}

impl<Members: LocationSet> chorus_core::FanOutChoreography<NodeReply> for ApplyBody<'_, Members> {
    type L = KvsCensus<Members>;
    type QS = Members;

    fn run<Q: ChoreographyLocation, QSSubsetL, QMemberL, QMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Located<NodeReply, Q>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Q: Member<Self::L, QMemberL>,
        Q: Member<Self::QS, QMemberQS>,
    {
        op.locally::<_, Q, QMemberL>(Q::new(), |un| {
            let node = un.unwrap_faceted_ref::<NodeCtx, Members, QMemberQS>(self.nodes);
            match self.pushed {
                Err(_) => NodeReply::NoRequest,
                Ok(delivered) => {
                    node.apply(un.unwrap_ref::<StampedRequest, Members, QMemberQS>(delivered))
                }
            }
        })
    }
}

/// Fan-in of member replies to the client, failures attributed per
/// member (the `ProposeAck` ack-round shape).
struct ReplySend<'a, Members: LocationSet> {
    replies: &'a Faceted<NodeReply, Members>,
}

impl<Members: LocationSet> chorus_core::FanInChoreography<Result<NodeReply, CommFailure>>
    for ReplySend<'_, Members>
{
    type L = KvsCensus<Members>;
    type QS = Members;
    type RS = chorus_core::LocationSet!(Client);

    fn run<Qi: ChoreographyLocation, QSSubsetL, RSSubsetL, QiMemberL, QiMemberQS>(
        &self,
        op: &impl ChoreoOp<Self::L>,
    ) -> MultiplyLocated<Result<NodeReply, CommFailure>, Self::RS>
    where
        Self::QS: Subset<Self::L, QSSubsetL>,
        Self::RS: Subset<Self::L, RSSubsetL>,
        Qi: Member<Self::L, QiMemberL>,
        Qi: Member<Self::QS, QiMemberQS>,
    {
        let reply: Located<NodeReply, Qi> = op.locally::<_, Qi, QiMemberL>(Qi::new(), |un| {
            un.unwrap_faceted_ref::<NodeReply, Members, QiMemberQS>(self.replies).clone()
        });
        match op.try_multicast::<Qi, NodeReply, Self::RS, QiMemberL, RSSubsetL>(
            Qi::new(),
            <Self::RS>::new(),
            &reply,
        ) {
            Ok(delivered) => op.locally::<_, Client, Here>(Client, |un| {
                Ok(un.unwrap_ref::<NodeReply, Self::RS, Here>(&delivered).clone())
            }),
            Err(failure) => op.locally::<_, Client, Here>(Client, move |_| Err(failure.clone())),
        }
    }
}

/// Quorum resolution at the client: epoch fencing first, then counting
/// over the shard's replica set under the client's config view.
pub fn resolve<'a>(
    config: &ClusterConfig,
    request: &StampedRequest,
    replies: impl Iterator<Item = (&'a str, &'a Result<NodeReply, CommFailure>)>,
) -> Result<OpOutcome, KvsError> {
    let shard = config.shard_at(fnv1a(request.op.key().as_bytes()));
    let mut newest_epoch = 0;
    let mut acks = 0usize;
    let mut frozen = false;
    let mut freshest: Option<Versioned> = None;
    let mut value_acks = 0usize;
    for (name, reply) in replies {
        let Ok(reply) = reply else { continue };
        if let NodeReply::StaleEpoch { current } = reply {
            newest_epoch = newest_epoch.max(*current);
            continue;
        }
        if !shard.replicas.iter().any(|r| r == name) {
            continue;
        }
        match reply {
            NodeReply::Applied => acks += 1,
            NodeReply::Value { found } => {
                value_acks += 1;
                if let Some(v) = found {
                    if freshest.as_ref().map(|f| f.version < v.version).unwrap_or(true) {
                        freshest = Some(v.clone());
                    }
                }
            }
            NodeReply::Frozen => frozen = true,
            _ => {}
        }
    }
    if newest_epoch > request.epoch {
        return Err(KvsError::StaleEpoch { observed: newest_epoch });
    }
    match &request.op {
        KvsOp::Put { .. } => {
            if acks >= config.write_quorum() {
                Ok(OpOutcome::Put { version: request.version })
            } else if frozen {
                Err(KvsError::Frozen)
            } else {
                Err(KvsError::Unavailable { acks, need: config.write_quorum() })
            }
        }
        KvsOp::Get { .. } => {
            if value_acks >= config.read_quorum() {
                Ok(OpOutcome::Get { found: freshest })
            } else {
                Err(KvsError::Unavailable { acks: value_acks, need: config.read_quorum() })
            }
        }
    }
}
