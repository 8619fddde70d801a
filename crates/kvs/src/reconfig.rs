//! The control plane: epoch-bumping config agreement and chunked shard
//! handoff.
//!
//! * [`InstallConfig`] wraps `chorus_patterns::ProposeAck` — the repo's
//!   standing propose/validate/ack-quorum/decide pattern — over the
//!   config-change census (old members ∪ joiner), committing a new
//!   [`ClusterConfig`] epoch everywhere a quorum acknowledges. Each
//!   member validates against *its own* installed epoch and, on commit,
//!   installs the config (lifting freeze windows and garbage-collecting
//!   shards it no longer replicates).
//! * [`ShardPull`] is the two-party transfer choreography: a donor
//!   streams one hash range's entries to a recipient in bounded chunks
//!   while writes keep flowing (dirty-key tracking catches them); the
//!   [`PullMode::FreezeDelta`] variant freezes the range and ships only
//!   the final delta — the freeze window of the migration protocol.

use crate::config::{ClusterConfig, ShardId};
use crate::node::{NodeCtx, Versioned};
use chorus_core::{
    ChoreoOp, Choreography, ChoreographyLocation, Faceted, HCons, HNil, Here, Located, LocationSet,
    LocationSetFoldable, Member, Subset, There,
};
use chorus_patterns::{Misbehavior, ProposeAck};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// Agrees on and installs a new config epoch across `Members`.
///
/// Unlike a pure-data choreography this one carries `ctx`, the *local*
/// node's state handle: under endpoint projection every participant
/// constructs its own instance around its own [`NodeCtx`], so the
/// `ProposeAck` validation hook and the commit-time install both act on
/// per-endpoint state. (It is therefore meaningful only under
/// projection, not under the centralized `Runner`.)
pub struct InstallConfig<'a, Proposer, Members: LocationSet, ProposerIdx, MRefl, MFold> {
    /// The proposed config. The driver hands it to every endpoint (it
    /// computed the successor), but only the proposer's copy enters the
    /// round — everyone else validates what arrives over the wire.
    pub proposed: ClusterConfig,
    /// Acknowledgements required to commit.
    pub quorum: usize,
    /// This endpoint's node state.
    pub ctx: &'a NodeCtx,
    /// Inferred proof indices; pass `PhantomData`.
    pub phantom: PhantomData<(Proposer, Members, ProposerIdx, MRefl, MFold)>,
}

impl<Proposer, Members, ProposerIdx, MRefl, MFold>
    Choreography<Faceted<Result<ClusterConfig, Misbehavior>, Members>>
    for InstallConfig<'_, Proposer, Members, ProposerIdx, MRefl, MFold>
where
    Proposer: ChoreographyLocation + Member<Members, ProposerIdx>,
    Members: LocationSet + Subset<Members, MRefl> + LocationSetFoldable<Members, Members, MFold>,
{
    type L = Members;

    fn run(
        self,
        op: &impl ChoreoOp<Self::L>,
    ) -> Faceted<Result<ClusterConfig, Misbehavior>, Members> {
        let ctx = self.ctx;
        let epoch = self.proposed.epoch;
        let validate = |config: &ClusterConfig| ctx.validate_config(config);
        let proposal: Located<ClusterConfig, Proposer> =
            op.locally::<_, Proposer, ProposerIdx>(Proposer::new(), |_| self.proposed.clone());
        let outcome: Faceted<Result<ClusterConfig, Misbehavior>, Members> =
            ProposeAck::<'_, ClusterConfig, Proposer, Members, _, ProposerIdx, MRefl, MFold> {
                proposal: &proposal,
                epoch,
                quorum: self.quorum,
                validate: &validate,
                phantom: PhantomData,
            }
            .run(op);
        // Commit is knowledge every acker now has: each member installs
        // its own committed copy (no-op on the aborted/faulted facets).
        op.map_facets(Members::new(), &outcome, |result| {
            if let Ok(config) = result {
                ctx.install_config(config);
            }
            result.clone()
        })
    }
}

/// How a [`ShardPull`] sources its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PullMode {
    /// Full-range snapshot; writes keep flowing. `track` arms dirty-key
    /// tracking at the donor so a later [`PullMode::FreezeDelta`] ships
    /// exactly what changed since this snapshot.
    Snapshot {
        /// Whether to begin dirty-key tracking at extraction time.
        track: bool,
    },
    /// Freeze the range against writes and ship the tracked delta —
    /// the final, bounded step of a live handoff.
    FreezeDelta,
}

/// What a completed pull transferred.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PullReport {
    /// Entries shipped.
    pub entries: u64,
    /// Chunks used.
    pub chunks: u64,
}

/// Two-party chunked state transfer of one hash range, donor to
/// recipient.
///
/// Like [`InstallConfig`], `ctx` is the local endpoint's state: the
/// donor's instance extracts/freezes, the recipient's merges. The
/// stream is count-prefixed (knowledge of choice for the loop bound)
/// and chunks merge by max version, so replays are harmless.
pub struct ShardPull<'a, Donor, Recipient> {
    /// The target shard id (for freeze/tracking bookkeeping).
    pub shard: ShardId,
    /// The half-open hash range to ship.
    pub range: (u64, u64),
    /// Snapshot or final delta.
    pub mode: PullMode,
    /// Max entries per chunk (bounded memory in flight).
    pub chunk: usize,
    /// This endpoint's node state.
    pub ctx: &'a NodeCtx,
    /// The two roles.
    pub phantom: PhantomData<(Donor, Recipient)>,
}

type Pair<Donor, Recipient> = HCons<Donor, HCons<Recipient, HNil>>;

impl<Donor, Recipient> Choreography<PullReport> for ShardPull<'_, Donor, Recipient>
where
    Donor: ChoreographyLocation,
    Recipient: ChoreographyLocation,
{
    type L = Pair<Donor, Recipient>;

    fn run(self, op: &impl ChoreoOp<Self::L>) -> PullReport {
        let ctx = self.ctx;
        let (start, end) = self.range;
        let shard = self.shard;
        let mode = self.mode;
        let entries: Located<Vec<(String, Versioned)>, Donor> =
            op.locally::<_, Donor, Here>(Donor::new(), |_| match mode {
                PullMode::Snapshot { track } => {
                    if track {
                        ctx.begin_handoff(shard, start, end);
                    }
                    ctx.extract_range(start, end)
                }
                PullMode::FreezeDelta => {
                    ctx.freeze(shard, start, end);
                    ctx.take_dirty(shard)
                }
            });
        // Count-prefix the stream so both sides agree on the loop bound
        // (knowledge of choice via broadcast within the pair).
        let chunk_size = self.chunk.max(1);
        let total: u64 = op.broadcast::<Donor, u64, Here>(
            Donor::new(),
            op.locally::<_, Donor, Here>(Donor::new(), |un| {
                un.unwrap_ref::<Vec<(String, Versioned)>, chorus_core::LocationSet!(Donor), Here>(
                    &entries,
                )
                .len() as u64
            }),
        );
        let chunks = total.div_ceil(chunk_size as u64);
        let mut shipped = 0u64;
        for i in 0..chunks {
            let part: Located<Vec<(String, Versioned)>, Donor> =
                op.locally::<_, Donor, Here>(Donor::new(), |un| {
                    let all = un
                        .unwrap_ref::<Vec<(String, Versioned)>, chorus_core::LocationSet!(Donor), Here>(
                            &entries,
                        );
                    let lo = (i as usize) * chunk_size;
                    let hi = all.len().min(lo + chunk_size);
                    all[lo..hi].to_vec()
                });
            let delivered = op.comm::<Donor, Recipient, _, Here, There<Here>>(
                Donor::new(),
                Recipient::new(),
                &part,
            );
            let merged: Located<u64, Recipient> =
                op.locally::<_, Recipient, There<Here>>(Recipient::new(), |un| {
                    let part = un
                        .unwrap_ref::<Vec<(String, Versioned)>, chorus_core::LocationSet!(Recipient), Here>(
                            &delivered,
                        );
                    ctx.merge_entries(part);
                    part.len() as u64
                });
            // The recipient acknowledges each chunk; the donor learns
            // the stream is flowing (and the ack count closes the loop).
            shipped += op.broadcast::<Recipient, u64, There<Here>>(Recipient::new(), merged);
        }
        PullReport { entries: shipped, chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{KvsOp, StampedRequest};
    use chorus_transport::{Cohort, FaultPlan, SimNet};

    chorus_core::locations! { D, R }
    type Duo = chorus_core::LocationSet!(D, R);

    fn put(ctx: &NodeCtx, epoch: u64, version: u64, key: &str) {
        ctx.apply(&StampedRequest {
            epoch,
            version,
            op: KvsOp::Put { key: key.into(), value: format!("v{version}") },
        });
    }

    #[test]
    fn snapshot_then_delta_moves_everything() {
        let donor_ctx = NodeCtx::new("D");
        let recipient_ctx = NodeCtx::new("R");
        let config = ClusterConfig::bootstrap(&["D"], 1);
        donor_ctx.install_config(&config);
        for i in 0..10 {
            put(&donor_ctx, 1, i + 1, &format!("k{i}"));
        }
        let shard = config.shards[0].id;
        let (start, end) = config.shard_range(shard).unwrap();

        let run_pull = |mode: PullMode| {
            let cohort = Cohort::over(SimNet::<Duo>::new(FaultPlan::ideal()));
            macro_rules! side {
                ($side:ident, $ctx:expr) => {{
                    let ctx = $ctx.clone();
                    cohort.role($side, move |endpoint| {
                        let session = endpoint.session();
                        session.epp_and_run(ShardPull::<'_, D, R> {
                            shard,
                            range: (start, end),
                            mode,
                            chunk: 3,
                            ctx: &ctx,
                            phantom: PhantomData,
                        })
                    })
                }};
            }
            let (reports, ()) =
                cohort.run(vec![side!(D, donor_ctx), side!(R, recipient_ctx)], || ());
            assert_eq!(reports[0], reports[1]);
            reports[0].clone()
        };

        let snapshot = run_pull(PullMode::Snapshot { track: true });
        assert_eq!(snapshot.entries, 10);
        assert_eq!(snapshot.chunks, 4);
        assert_eq!(recipient_ctx.entry_count(), 10);

        // Writes landed after the snapshot: the delta ships them.
        put(&donor_ctx, 1, 100, "k3");
        put(&donor_ctx, 1, 101, "fresh");
        let delta = run_pull(PullMode::FreezeDelta);
        assert_eq!(delta.entries, 2);
        assert_eq!(recipient_ctx.entry_count(), 11);
        use chorus_protocols::store::KeyValueStore as _;
        assert_eq!(recipient_ctx.get("k3").unwrap().version, 100);
    }
}
