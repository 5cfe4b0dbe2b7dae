//! The RPC budget of the forwarded metadata path, pinned on the bus.
//!
//! A fig9-style run at test size: clients create into a Zipf-skewed
//! pool of shared directories an admin made and released, then stat
//! their own files. Three things are fixed here so that a change which
//! quietly adds a message to the hot path fails a test instead of
//! bending fig9:
//!
//! * path resolution costs one leader RPC per (client, ancestor) — a
//!   directory-view fill — and no per-name lookup, however many pool
//!   directories a client touches;
//! * a forwarded create is one RPC (create-and-open) and the close of
//!   its untouched handle none: no lease was taken, none is released;
//! * messages per create over the whole run (resolution, create, the
//!   stat that reads the file back) stay under 2.3;
//! * first touches spread over the lease-manager set: no manager sees
//!   more than a third of the acquires, and none is asked so often that
//!   its timeline forgets an interval.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::{gen_iter, run_ops, Op, OpGen, SimClient, Zipf};
use std::sync::Arc;

const CLIENTS: usize = 64;
const DIRS: usize = 16;
const OPS_PER_CLIENT: u64 = 32;
/// `/` and `/pool`: what every path in the run resolves through.
const ANCESTORS: u64 = 2;

fn forwards(cluster: &ArkCluster, op: &str) -> u64 {
    cluster
        .telemetry()
        .registry
        .counter(&format!("rpc.forward.{op}.count"))
        .get()
}

/// Client `i`'s op stream: `make(path)` for each of its Zipf-drawn
/// files, in creation order.
fn streams(make: fn(String) -> Op) -> Vec<Box<dyn OpGen>> {
    (0..CLIENTS)
        .map(|i| {
            let mut zipf = Zipf::new(DIRS, 0.9, 0xB0D6 ^ (i as u64).wrapping_mul(0x9E37));
            gen_iter(
                (0..OPS_PER_CLIENT)
                    .map(move |j| make(format!("/pool/d{}/c{i}-f{j}", zipf.sample()))),
            )
        })
        .collect()
}

#[test]
fn forwarded_create_stays_within_its_rpc_budget() {
    let ctx = Credentials::root();
    let config = ArkConfig::default();
    let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(true);
    let cluster = ArkCluster::new(config, Arc::new(ObjectCluster::new(store_cfg)));

    let admin = cluster.client();
    admin.mkdir(&ctx, "/pool", 0o755).unwrap();
    for d in 0..DIRS {
        admin.mkdir(&ctx, &format!("/pool/d{d}"), 0o755).unwrap();
    }
    admin.sync_all(&ctx).unwrap();
    admin.release_all(&ctx).unwrap();

    let clients: Vec<Arc<dyn SimClient>> = (0..CLIENTS)
        .map(|_| cluster.client() as Arc<dyn SimClient>)
        .collect();
    let creates = CLIENTS as u64 * OPS_PER_CLIENT;
    let before = cluster.ops_net().message_count();

    let report = run_ops(&clients, streams(|path| Op::Create { path }), None);
    assert_eq!(report.total_errors(), 0, "creates failed");

    // Resolution: each ancestor has one leader, which resolves locally;
    // every other client fills its view of it exactly once.
    assert_eq!(
        forwards(&cluster, "dir_view"),
        ANCESTORS * (CLIENTS as u64 - 1),
        "one view fill per (client, ancestor)"
    );
    assert_eq!(forwards(&cluster, "lookup"), 0, "no per-name lookups");
    assert_eq!(forwards(&cluster, "dir_inode"), 0);
    // The create itself: one RPC. No data moved through the handle, so
    // no lease was asked for and the close has nothing to hand back.
    let forwarded = forwards(&cluster, "create_open");
    assert!(forwarded > creates * 3 / 4, "most creates are forwarded");
    for op in [
        "create",
        "acquire_read_lease",
        "acquire_write_lease",
        "release_file_lease",
        "close_file",
        "set_size",
    ] {
        assert_eq!(forwards(&cluster, op), 0, "{op}");
    }
    assert_eq!(
        cluster.ops_net().message_count() - before,
        forwarded + forwards(&cluster, "dir_view"),
        "creates and view fills are all the ops traffic"
    );

    let report = run_ops(&clients, streams(|path| Op::Stat { path }), None);
    assert_eq!(report.total_errors(), 0, "stats failed");
    // The stat phase resolves from the views it already has.
    assert_eq!(
        forwards(&cluster, "dir_view"),
        ANCESTORS * (CLIENTS as u64 - 1)
    );

    let per_create = (cluster.ops_net().message_count() - before) as f64 / creates as f64;
    assert!(
        per_create < 2.3,
        "{per_create:.2} ops-net messages per create (budget 2.3)"
    );

    // The lease managers, at the default (sharded) configuration.
    let managers = cluster.manager_stats();
    let acquires = cluster
        .telemetry()
        .registry
        .counter("lease.acquire.count")
        .get();
    // A directory's first touches all meet at its one manager, and 18
    // directories hash unevenly over 16 managers: the unluckiest hosts
    // four of them here, 27 % of the acquires.
    let busiest = managers.iter().map(|m| m.0).max().unwrap();
    assert!(
        busiest * 3 <= acquires,
        "one of {} managers served {busiest} of {acquires} acquires",
        managers.len()
    );
    assert!(managers.iter().all(|m| m.2 == 0), "{managers:?}");
    let forgotten = |name: &str| cluster.telemetry().registry.counter(name).get();
    assert_eq!(forgotten("lease.manager.forgotten_ns"), 0);
    assert_eq!(forgotten("leader.forgotten_ns"), 0);
}
