//! End-to-end tests of the sharded federation.
//!
//! The headline test is restart equivalence across the shard boundary: a
//! federation that snapshots mid-run and restores into a brand-new
//! coordinator must reproduce an uninterrupted run's allocations to 1e-6 on
//! every shard — including host churn straddling the snapshot and a tenant
//! placed *after* the restore (the placement cursor travels with the
//! envelope).  A second test drives the federation over real loopback TCP
//! and proves a tenant's handle keeps working while a *different* shard
//! churns hosts.  A third proves the daemon's default one-shard federation
//! is the standalone `SchedulerService` it wraps: one command script yields
//! identical handles and allocations through both, also across a v5
//! snapshot/restore of the federation.

use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_service::{
    Command, Response, RoundSummary, SchedulerService, Server, ServiceClient, ServiceConfig,
};
use oef_shard::{placement_from_name, ShardCoordinator};

fn coordinator(shards: usize) -> ShardCoordinator {
    ShardCoordinator::new(
        (0..shards)
            .map(|_| ClusterTopology::paper_cluster())
            .collect(),
        ServiceConfig::default(),
        placement_from_name("least-loaded").unwrap(),
    )
    .unwrap()
}

fn join(c: &mut ShardCoordinator, name: &str, speedup: &[f64]) -> u64 {
    match c.apply(
        Command::TenantJoin {
            name: name.into(),
            weight: 1,
            speedup: speedup.to_vec(),
        },
        0,
    ) {
        Response::TenantJoined { tenant } => tenant,
        other => panic!("join failed: {other:?}"),
    }
}

fn submit(c: &mut ShardCoordinator, tenant: u64) {
    let r = c.apply(
        Command::SubmitJob {
            tenant,
            model: "model".into(),
            workers: 2,
            total_work: 1e9,
        },
        0,
    );
    assert!(matches!(r, Response::JobSubmitted { .. }), "{r:?}");
}

fn tick(c: &mut ShardCoordinator) -> RoundSummary {
    match c.apply(Command::Tick, 0) {
        Response::RoundCompleted(summary) => summary,
        other => panic!("tick failed: {other:?}"),
    }
}

fn assert_rounds_match(a: &[RoundSummary], b: &[RoundSummary]) {
    assert_eq!(a.len(), b.len());
    for (round, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.round, y.round, "round index at {round}");
        assert_eq!(
            x.tenants.len(),
            y.tenants.len(),
            "active tenants at round {round}"
        );
        for (s, t) in x.tenants.iter().zip(&y.tenants) {
            assert_eq!(s.tenant, t.tenant, "wire handle at round {round}");
            assert!(
                (s.estimated_throughput - t.estimated_throughput).abs() < 1e-6,
                "round {round}: estimated {} vs {}",
                s.estimated_throughput,
                t.estimated_throughput
            );
            assert!(
                (s.actual_throughput - t.actual_throughput).abs() < 1e-6,
                "round {round}: actual {} vs {}",
                s.actual_throughput,
                t.actual_throughput
            );
            assert_eq!(s.devices_held, t.devices_held, "devices at round {round}");
            for (u, v) in s.gpu_shares.iter().zip(&t.gpu_shares) {
                assert!((u - v).abs() < 1e-6, "round {round}: share {u} vs {v}");
            }
        }
    }
}

/// The first half of the scripted session, shared by both runs: 4 tenants
/// spread over 2 shards, 3 rounds, a host added, 2 more rounds.
fn first_half(c: &mut ShardCoordinator) -> (Vec<u64>, u64, Vec<RoundSummary>) {
    let profiles: [&[f64]; 4] = [
        &[1.0, 1.18, 1.39],
        &[1.0, 1.55, 2.15],
        &[1.0, 1.25, 1.55],
        &[1.0, 1.40, 1.90],
    ];
    let mut handles = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let h = join(c, &format!("tenant-{i}"), profile);
        submit(c, h);
        handles.push(h);
    }
    let mut rounds = Vec::new();
    for _ in 0..3 {
        rounds.push(tick(c));
    }
    let host = match c.apply(
        Command::AddHost {
            gpu_type: 0,
            num_gpus: 4,
        },
        0,
    ) {
        Response::HostAdded { host } => host,
        other => panic!("add host failed: {other:?}"),
    };
    for _ in 0..2 {
        rounds.push(tick(c));
    }
    (handles, host, rounds)
}

/// The second half: the pre-snapshot host is removed, a fifth tenant joins
/// (exercising post-restore placement), and 3 more rounds run.
fn second_half(c: &mut ShardCoordinator, host: u64) -> (u64, Vec<RoundSummary>) {
    let r = c.apply(Command::RemoveHost { handle: host }, 0);
    assert!(
        matches!(r, Response::HostRemoved { .. }),
        "host handle minted before the snapshot must stay valid after it: {r:?}"
    );
    let late = join(c, "late-tenant", &[1.0, 1.30, 1.70]);
    submit(c, late);
    let mut rounds = Vec::new();
    for _ in 0..3 {
        rounds.push(tick(c));
    }
    (late, rounds)
}

#[test]
fn federated_restore_matches_uninterrupted_run_within_1e6() {
    // --- reference: one coordinator runs the whole script uninterrupted.
    let mut uninterrupted = coordinator(2);
    let (handles, host, mut expected) = first_half(&mut uninterrupted);
    let (expected_late, tail) = second_half(&mut uninterrupted, host);
    expected.extend(tail);
    assert!(
        handles
            .iter()
            .map(|&h| sharded::shard_of(h))
            .collect::<std::collections::HashSet<_>>()
            .len()
            == 2,
        "script must actually span both shards"
    );

    // --- interrupted: same script, but snapshot after the first half and
    // resume in a brand-new coordinator.
    let mut original = coordinator(2);
    let (_, host_b, mut observed) = first_half(&mut original);
    assert_eq!(host_b, host, "federations mint identical handles");
    let Response::Snapshot { snapshot } = original.apply(Command::Snapshot, 0) else {
        panic!("snapshot failed");
    };
    drop(original);
    let mut restored = ShardCoordinator::from_federated_json(&snapshot).unwrap();
    assert_eq!(restored.num_shards(), 2);
    assert_eq!(restored.rounds_run(), 5);
    let (observed_late, tail) = second_half(&mut restored, host_b);
    observed.extend(tail);

    assert_eq!(
        observed_late, expected_late,
        "post-restore tenant lands on the same shard with the same handle"
    );
    assert_rounds_match(&expected, &observed);

    // Per-shard states agree exactly, not just through round summaries.
    let mut twin = coordinator(2);
    let (_, twin_host, _) = first_half(&mut twin);
    second_half(&mut twin, twin_host);
    for (shard, (a, b)) in twin.shards().iter().zip(restored.shards()).enumerate() {
        assert_eq!(
            a.tenant_handles(),
            b.tenant_handles(),
            "shard {shard} tenant identity"
        );
        assert_eq!(a.state(), b.state(), "shard {shard} cluster state");
    }
}

#[test]
fn tenant_handle_survives_other_shards_host_churn_over_tcp() {
    let server = Server::spawn(coordinator(2), "127.0.0.1:0").expect("daemon binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("client connects");

    // Two tenants: least-loaded puts them on different shards.
    let alice = client.join("alice", 1, &[1.0, 1.18, 1.39]).unwrap();
    let bob = client.join("bob", 1, &[1.0, 1.55, 2.15]).unwrap();
    client.submit_job(alice, "vgg16", 2, 1e9).unwrap();
    client.submit_job(bob, "lstm", 2, 1e9).unwrap();
    assert_ne!(sharded::shard_of(alice), sharded::shard_of(bob));

    let round = client.tick().unwrap();
    assert_eq!(round.tenants.len(), 2);

    // Churn hosts on bob's shard only: add capacity, tick, remove it again.
    let bob_shard = sharded::shard_of(bob);
    let added = loop {
        // Least-loaded host placement fills the smaller shard first; keep
        // adding until one lands on bob's shard (first add already does, as
        // both shards start equal and ties break low — force it instead).
        let h = client.add_host(0, 4).unwrap();
        if sharded::shard_of(h) == bob_shard {
            break h;
        }
        client.tick().unwrap();
    };
    client.tick().unwrap();
    client.remove_host(added).unwrap();

    // Alice's handle — minted by the *other* shard — still works for every
    // handle-carrying command.
    client.update_speedups(alice, &[1.0, 1.20, 1.45]).unwrap();
    let job = client.submit_job(alice, "resnet", 1, 1e6).unwrap();
    client.finish_job(alice, job).unwrap();
    let round = client.tick().unwrap();
    assert!(
        round.tenants.iter().any(|t| t.tenant == alice),
        "alice still scheduled after shard {bob_shard} churned"
    );

    // And bob's shard state is consistent too.
    let status = client.status().unwrap();
    assert_eq!(status.tenants, 2);
    assert_eq!(
        status.shards.iter().map(|s| s.tenants).sum::<usize>(),
        2,
        "per-shard entries stay in sync with the aggregate"
    );

    client.shutdown().unwrap();
    server.join();
}

/// A standalone `SchedulerService` and a one-shard federation fed the same
/// commands.
struct Twins {
    service: SchedulerService,
    federation: ShardCoordinator,
}

impl Twins {
    /// Applies `command` to both and asserts identical replies (same handles,
    /// same job ids); returns the reply.
    fn both(&mut self, command: Command) -> Response {
        let expected = self.service.apply(command.clone(), 0);
        let observed = self.federation.apply(command, 0);
        assert_eq!(observed, expected, "federation reply diverged");
        expected
    }

    fn join(&mut self, name: &str, speedup: &[f64]) -> u64 {
        match self.both(Command::TenantJoin {
            name: name.into(),
            weight: 1,
            speedup: speedup.to_vec(),
        }) {
            Response::TenantJoined { tenant } => tenant,
            other => panic!("join failed: {other:?}"),
        }
    }

    fn submit(&mut self, tenant: u64) {
        let r = self.both(Command::SubmitJob {
            tenant,
            model: "model".into(),
            workers: 2,
            total_work: 1e9,
        });
        assert!(matches!(r, Response::JobSubmitted { .. }), "{r:?}");
    }

    /// Runs one round on both and asserts the summaries agree to 1e-6.
    fn tick(&mut self) {
        let Response::RoundCompleted(expected) = self.service.apply(Command::Tick, 0) else {
            panic!("service tick failed");
        };
        let observed = tick(&mut self.federation);
        assert_rounds_match(
            std::slice::from_ref(&expected),
            std::slice::from_ref(&observed),
        );
    }
}

#[test]
fn one_shard_federation_matches_a_standalone_service_across_v5_restore() {
    let mut twins = Twins {
        service: SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default())
            .unwrap(),
        federation: coordinator(1),
    };
    let profiles: [&[f64]; 3] = [&[1.0, 1.18, 1.39], &[1.0, 1.55, 2.15], &[1.0, 1.25, 1.55]];
    let tenants: Vec<u64> = profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| twins.join(&format!("tenant-{i}"), profile))
        .collect();
    for &tenant in &tenants {
        twins.submit(tenant);
        assert_eq!(
            sharded::shard_of(tenant),
            0,
            "one shard mints shard-0 handles"
        );
    }
    twins.tick();
    let Response::HostAdded { host } = twins.both(Command::AddHost {
        gpu_type: 1,
        num_gpus: 4,
    }) else {
        panic!("add host failed");
    };
    twins.tick();
    twins.tick();

    // Snapshot the federation to v5 and carry on from the restored copy;
    // the standalone service runs on uninterrupted.
    let snapshot = twins.federation.snapshot_json().unwrap();
    twins.federation = ShardCoordinator::from_federated_json(&snapshot).unwrap();
    assert_eq!(twins.federation.num_shards(), 1);
    assert_eq!(twins.federation.rounds_run(), 3);

    let r = twins.both(Command::RemoveHost { handle: host });
    assert!(matches!(r, Response::HostRemoved { .. }), "{r:?}");
    let r = twins.both(Command::TenantLeave { tenant: tenants[1] });
    assert!(matches!(r, Response::TenantLeft { .. }), "{r:?}");
    let late = twins.join("late-tenant", &[1.0, 1.30, 1.70]);
    twins.submit(late);
    for _ in 0..3 {
        twins.tick();
    }
    assert_eq!(
        twins.federation.shards()[0].tenant_handles(),
        twins.service.tenant_handles(),
        "tenant identity"
    );
    assert_eq!(
        twins.federation.shards()[0].state(),
        twins.service.state(),
        "cluster state"
    );
}
