//! Federated (v5) snapshots: one `SchedulerService` record per shard plus
//! everything the router itself owns.
//!
//! A daemon is N independent schedulers behind one router (N = 1 by
//! default), so its durable state is exactly N independent
//! [`oef_service::ServiceSnapshot`] records — each the state its shard's
//! `SchedulerService` serializes — plus the router's own state: the
//! coordinator round counter, the placement strategy's cursor, the
//! **handle-forwarding table** (old handle → live handle, one entry per
//! migration not yet retired by its tenant leaving), the **rebalancer
//! configuration** and the **journal sequence number** the snapshot covers,
//! so a write-ahead journal (`oef-journal`) replays exactly the commands the
//! snapshot does not.  Restoring the envelope therefore reproduces not only
//! every shard's allocations but also where the next tenant lands, which old
//! handles still route, and what the next `Rebalance` pass plans — restart
//! equivalence across a migration straddling the snapshot boundary.
//!
//! v5 is the only snapshot format any binary reads or writes.  Any other
//! `version` — a bare per-shard record, an older envelope, a newer one — is
//! refused with a structured error naming v5.

use oef_rebalance::RebalancerConfig;
use serde::{Deserialize, Serialize};

/// Version stamp of the federated envelope.
pub const FEDERATED_SNAPSHOT_VERSION: u32 = 5;

/// Serialized state of the placement strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementState {
    /// Strategy wire name (see `placement_from_name`).
    pub strategy: String,
    /// Opaque strategy cursor (0 for stateless strategies).
    pub cursor: u64,
}

/// One handle-forwarding edge: a handle retired by a migration and the
/// handle that replaced it (itself possibly retired by a later migration —
/// lookups chase the chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardingEntry {
    /// The retired handle a client may still hold.
    pub from: u64,
    /// The handle it forwards to.
    pub to: u64,
}

/// The serialized form of a `ShardCoordinator`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedSnapshot {
    /// Envelope version ([`FEDERATED_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Coordinator rounds completed at the moment of the snapshot.
    pub round: usize,
    /// Last journal sequence number this snapshot covers (0 when no journal
    /// is configured): replay starts at `journal_seq + 1`.
    pub journal_seq: u64,
    /// Placement strategy and its cursor.
    pub placement: PlacementState,
    /// Handle-forwarding table, sorted by `from` for a canonical encoding.
    pub forwarding: Vec<ForwardingEntry>,
    /// Rebalancer configuration (policy, threshold, move cap, load weights).
    pub rebalancer: RebalancerConfig,
    /// One `SchedulerService` snapshot record per shard, in shard-index
    /// order.  Kept as raw JSON values so each entry round-trips through
    /// `SchedulerService::from_snapshot_json` (and its full validation)
    /// unchanged.
    pub shards: Vec<serde::Value>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{placement_from_name, ShardCoordinator};
    use oef_cluster::ClusterTopology;
    use oef_service::{Command, ServiceConfig};

    #[test]
    fn envelope_round_trips_through_json() {
        let mut coordinator = ShardCoordinator::new(
            vec![ClusterTopology::paper_cluster()],
            ServiceConfig::default(),
            placement_from_name("least-loaded").unwrap(),
        )
        .unwrap();
        coordinator.apply(
            Command::TenantJoin {
                name: "alice".into(),
                weight: 1,
                speedup: vec![1.0, 1.2, 1.4],
            },
            0,
        );
        coordinator.apply(Command::Tick, 0);
        let mut envelope: FederatedSnapshot =
            serde_json::from_str(&coordinator.snapshot_json().unwrap()).unwrap();
        assert_eq!(envelope.version, FEDERATED_SNAPSHOT_VERSION);
        assert_eq!(envelope.round, 1);
        assert_eq!(envelope.shards.len(), 1);
        envelope.forwarding.push(ForwardingEntry {
            from: (1u64 << 56) | 1,
            to: 2,
        });
        let json = serde_json::to_string(&envelope).unwrap();
        let back: FederatedSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
    }
}
