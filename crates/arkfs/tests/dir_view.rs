//! Directory views: what a permission-cache fill learns in one RPC, and
//! how long it may believe it.
//!
//! A view is the directory's inode plus the subdirectory dentries its
//! leader held at fill time. It lives exactly as long as the pcache
//! entry (one lease period), is only ever positive (a name it lacks is
//! asked for by name), and sits *under* the client's per-name overlay,
//! so the client's own mutations win. Within the lease period a view
//! answers like a per-name pcache that had looked every subdirectory up
//! at fill time: additions by others are found, removals by others are
//! noticed at expiry.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::MSEC;
use arkfs_vfs::{write_file, Credentials, FsError, Vfs};
use std::sync::Arc;

const LEASE: u64 = 100 * MSEC;

fn cluster_with(config: ArkConfig) -> Arc<ArkCluster> {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    ArkCluster::new(config, store)
}

fn config() -> ArkConfig {
    ArkConfig::test_tiny().with_lease_period(LEASE, LEASE)
}

fn root() -> Credentials {
    Credentials::root()
}

/// Forwarded ops of one kind so far (`rpc.forward.<op>.count`).
fn forwards(cl: &ArkCluster, op: &str) -> u64 {
    cl.telemetry()
        .registry
        .counter(&format!("rpc.forward.{op}.count"))
        .get()
}

#[test]
fn one_fill_per_ancestor_then_siblings_resolve_locally() {
    let cl = cluster_with(config());
    let (owner, viewer) = (cl.client(), cl.client());
    let ctx = root();
    owner.mkdir(&ctx, "/p", 0o755).unwrap();
    for d in ["x", "y"] {
        owner.mkdir(&ctx, &format!("/p/{d}"), 0o755).unwrap();
        write_file(&*owner, &ctx, &format!("/p/{d}/f"), b"1").unwrap();
    }
    viewer.stat(&ctx, "/p/x/f").unwrap();
    assert_eq!(forwards(&cl, "dir_view"), 2, "one fill each for / and /p");
    assert_eq!(forwards(&cl, "dir_inode"), 0);
    // `y` was never looked up by name: the view of /p already has it.
    let lookups = forwards(&cl, "lookup");
    viewer.stat(&ctx, "/p/y/f").unwrap();
    assert_eq!(forwards(&cl, "dir_view"), 2);
    assert_eq!(
        forwards(&cl, "lookup"),
        lookups + 1,
        "only the final component is asked for by name"
    );
}

#[test]
fn changes_by_others_read_like_a_per_name_cache() {
    let cl = cluster_with(config());
    let (owner, viewer, other) = (cl.client(), cl.client(), cl.client());
    let ctx = root();
    owner.mkdir(&ctx, "/p", 0o755).unwrap();
    owner.mkdir(&ctx, "/p/x", 0o755).unwrap();
    owner.mkdir(&ctx, "/p/e", 0o755).unwrap();
    write_file(&*owner, &ctx, "/p/x/f", b"1").unwrap();
    viewer.stat(&ctx, "/p/x/f").unwrap();

    other.mkdir(&ctx, "/p/z", 0o755).unwrap();
    write_file(&*other, &ctx, "/p/z/h", b"2").unwrap();
    other.rename(&ctx, "/p/x", "/p/w").unwrap();
    other.rmdir(&ctx, "/p/e").unwrap();
    let fills = forwards(&cl, "dir_view");

    // Inside the lease period. Absence from a view proves nothing, so
    // new names are asked for and found ...
    viewer.stat(&ctx, "/p/z/h").unwrap();
    viewer.stat(&ctx, "/p/w/f").unwrap();
    // ... while a cached positive entry is believed until it expires,
    // exactly as a name looked up before the rename would be: `x` still
    // leads to the directory it named.
    viewer.stat(&ctx, "/p/x/f").unwrap();
    assert_eq!(viewer.stat(&ctx, "/p/e/f"), Err(FsError::NotFound));
    assert_eq!(forwards(&cl, "dir_view"), fills, "no refill before expiry");

    // Expiry refetches, and the removals show.
    viewer.port().advance(LEASE);
    assert_eq!(viewer.stat(&ctx, "/p/x/f"), Err(FsError::NotFound));
    assert_eq!(forwards(&cl, "dir_view"), fills + 2, "/ and /p refilled");
    viewer.stat(&ctx, "/p/w/f").unwrap();
    assert_eq!(viewer.stat(&ctx, "/p/e/f"), Err(FsError::NotFound));
}

#[test]
fn own_mutations_override_the_view() {
    let cl = cluster_with(config());
    let (owner, viewer) = (cl.client(), cl.client());
    let ctx = root();
    owner.mkdir(&ctx, "/p", 0o755).unwrap();
    owner.mkdir(&ctx, "/p/x", 0o755).unwrap();
    owner.mkdir(&ctx, "/p/k", 0o755).unwrap();
    write_file(&*owner, &ctx, "/p/x/f", b"1").unwrap();
    viewer.stat(&ctx, "/p/x/f").unwrap();
    let fills = forwards(&cl, "dir_view");

    // The view still lists `x`; the overlay's negative entry wins.
    viewer.rename(&ctx, "/p/x", "/p/w").unwrap();
    assert_eq!(viewer.stat(&ctx, "/p/x/f"), Err(FsError::NotFound));
    // The rename's target check cached `w` as absent; the reply named
    // what moved, so the renamer resolves the new name at once — as
    // does the leader after a rename of its own.
    viewer.stat(&ctx, "/p/w/f").unwrap();
    assert_eq!(viewer.readdir(&ctx, "/p/w").unwrap().len(), 1);
    owner.rename(&ctx, "/p/w", "/p/v").unwrap();
    owner.stat(&ctx, "/p/v/f").unwrap();
    owner.rename(&ctx, "/p/v", "/p/w").unwrap();

    // Likewise after rmdir, and the answer is local: no message on
    // either network.
    viewer.rmdir(&ctx, "/p/k").unwrap();
    let (ops, leases) = (cl.ops_net().message_count(), cl.lease_net().message_count());
    assert_eq!(viewer.stat(&ctx, "/p/k/f"), Err(FsError::NotFound));
    assert_eq!(cl.ops_net().message_count(), ops);
    assert_eq!(cl.lease_net().message_count(), leases);
    assert_eq!(forwards(&cl, "dir_view"), fills);
}

#[test]
fn partitioned_directory_view_is_partition_zeros_share() {
    let cl = cluster_with(config());
    let (owner, viewer) = (cl.client(), cl.client());
    let ctx = root();
    owner.mkdir(&ctx, "/q", 0o755).unwrap();
    for i in 0..8 {
        owner.mkdir(&ctx, &format!("/q/s{i}"), 0o755).unwrap();
        write_file(&*owner, &ctx, &format!("/q/s{i}/f"), b"1").unwrap();
    }
    owner.set_dir_partitions(&ctx, "/q", 4).unwrap();
    // The split handed every lease back; the owner takes all four.
    assert_eq!(owner.readdir(&ctx, "/q").unwrap().len(), 8);
    // Subdirectories of the other three partitions are not in the view
    // and resolve by name; every path still resolves.
    for i in 0..8 {
        viewer.stat(&ctx, &format!("/q/s{i}/f")).unwrap();
    }
    assert_eq!(forwards(&cl, "dir_view"), 2, "/ and /q, once each");
    // Second pass: ancestors come from the view or the overlay, only
    // the eight final components are asked for.
    let lookups = forwards(&cl, "lookup");
    for i in 0..8 {
        viewer.stat(&ctx, &format!("/q/s{i}/f")).unwrap();
    }
    assert_eq!(forwards(&cl, "dir_view"), 2);
    assert_eq!(forwards(&cl, "lookup"), lookups + 8);
}

#[test]
fn without_permission_cache_no_view_is_ever_requested() {
    let cl = cluster_with(config().with_permission_cache(false));
    let (owner, viewer) = (cl.client(), cl.client());
    let ctx = root();
    owner.mkdir(&ctx, "/p", 0o755).unwrap();
    owner.mkdir(&ctx, "/p/x", 0o755).unwrap();
    write_file(&*owner, &ctx, "/p/x/f", b"1").unwrap();
    for _ in 0..5 {
        viewer.stat(&ctx, "/p/x/f").unwrap();
    }
    write_file(&*viewer, &ctx, "/p/x/g", b"2").unwrap();
    assert_eq!(forwards(&cl, "dir_view"), 0);
    assert!(forwards(&cl, "lookup") >= 15, "every component asks");
}
