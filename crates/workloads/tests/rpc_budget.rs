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
//! * a forwarded create is one foreground RPC (create-and-open), its
//!   close one background lease release;
//! * messages per create over the whole run (resolution, create, close,
//!   the stat that reads the file back) stay under 3.3.

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
    // The create itself: one RPC, lease included; the close releases it.
    let forwarded = forwards(&cluster, "create_open");
    assert!(forwarded > creates * 3 / 4, "most creates are forwarded");
    assert_eq!(forwards(&cluster, "create"), 0);
    assert_eq!(forwards(&cluster, "acquire_read_lease"), 0);
    assert_eq!(forwards(&cluster, "release_file_lease"), forwarded);

    let report = run_ops(&clients, streams(|path| Op::Stat { path }), None);
    assert_eq!(report.total_errors(), 0, "stats failed");
    // The stat phase resolves from the views it already has.
    assert_eq!(
        forwards(&cluster, "dir_view"),
        ANCESTORS * (CLIENTS as u64 - 1)
    );

    let per_create = (cluster.ops_net().message_count() - before) as f64 / creates as f64;
    assert!(
        per_create <= 3.3,
        "{per_create:.2} ops-net messages per create (budget 3.3)"
    );
}
