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
//!
//! A view comes from the directory's leader (one `dir_view` RPC) or
//! from its lease manager, with the redirect that names the leader: a
//! leader leaves its view there when it loads the directory and with
//! every lease renewal, and withdraws it before acking a change to what
//! it shows. The second half of this file pins that path: late clients
//! send no `dir_view` at all, a client that holds nothing is never
//! handed a view older than an acked change, every view dies one lease
//! period after its stamp, and none outlives its leader.

use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::MSEC;
use arkfs_vfs::{write_file, Credentials, FsError, SetAttr, Vfs};
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
    // Nor is one left with the lease manager, or taken from it.
    renew_leases(&owner, "/p/x/f");
    let lookups = forwards(&cl, "lookup");
    late(&cl, &owner).stat(&ctx, "/p/x/f").unwrap();
    assert_eq!(forwards(&cl, "lookup"), lookups + 3);
    assert_eq!(count(&cl, "lease.view.deposit.count"), 0);
    assert_eq!(count(&cl, "lease.redirect.view.count"), 0);
}

fn count(cl: &ArkCluster, name: &str) -> u64 {
    cl.telemetry().registry.counter(name).get()
}

/// Move `leader` to where its leases are due for renewal and resolve
/// `path`: each ancestor's renewal leaves that directory's view with the
/// lease manager. Returns the leader's clock at the start of that op —
/// the stamp of the root's view, whose renewal is the op's first act.
fn renew_leases(leader: &ArkClient, path: &str) -> u64 {
    leader.port().advance(LEASE - LEASE / 16);
    let stamp = leader.port().now();
    leader.stat(&root(), path).unwrap();
    stamp
}

/// A client that has resolved nothing yet and arrives after everything
/// `after` has done so far.
fn late(cl: &Arc<ArkCluster>, after: &ArkClient) -> Arc<ArkClient> {
    let c = cl.client();
    c.port().wait_until(after.port().now());
    c
}

/// `/p/{x,y}/f` and an empty `/p/e`, all led by the returned owner, whose
/// views of `/` and `/p` are with the lease manager.
fn deposited_tree(cl: &Arc<ArkCluster>) -> Arc<ArkClient> {
    let (owner, ctx) = (cl.client(), root());
    owner.mkdir(&ctx, "/p", 0o755).unwrap();
    for d in ["x", "y"] {
        owner.mkdir(&ctx, &format!("/p/{d}"), 0o755).unwrap();
        write_file(&*owner, &ctx, &format!("/p/{d}/f"), b"1").unwrap();
    }
    owner.mkdir(&ctx, "/p/e", 0o755).unwrap();
    assert_eq!(count(cl, "lease.view.deposit.count"), 0, "nothing loaded");
    renew_leases(&owner, "/p/x/f");
    assert_eq!(count(cl, "lease.view.deposit.count"), 2, "/ and /p");
    owner
}

#[test]
fn late_clients_take_their_views_from_the_lease_manager() {
    let cl = cluster_with(config());
    let owner = deposited_tree(&cl);
    let lookups = forwards(&cl, "lookup");
    for _ in 0..4 {
        let c = late(&cl, &owner);
        c.stat(&root(), "/p/x/f").unwrap();
        // The sibling resolves from the view in hand.
        let messages = cl.lease_net().message_count();
        c.stat(&root(), "/p/y/f").unwrap();
        assert_eq!(cl.lease_net().message_count(), messages + 1, "/p/y only");
    }
    assert_eq!(
        forwards(&cl, "dir_view"),
        0,
        "no leader was asked for a view"
    );
    assert_eq!(count(&cl, "lease.redirect.view.count"), 8);
    assert_eq!(forwards(&cl, "lookup"), lookups + 8, "final components");
    // A client that arrived before the deposit was served cannot have
    // been handed it: it asks the leaders, as ever.
    cl.client().stat(&root(), "/p/x/f").unwrap();
    assert_eq!(forwards(&cl, "dir_view"), 2);
    assert_eq!(count(&cl, "lease.redirect.view.count"), 8);
}

/// What is done to `/p` after its view was deposited, and by whom.
#[derive(Debug, Clone, Copy)]
enum Change {
    Mkdir,
    Rmdir,
    Rename,
    Chmod,
}

/// The freshness invariant: a client that holds no view is never handed
/// one older than the last change acked before it asked. The first
/// change after a deposit withdraws it before its ack; a client that
/// took the view earlier keeps its answers, as it would a leader-served
/// view's.
#[test]
fn no_view_older_than_an_acked_change_is_handed_out() {
    let user = Credentials::user(1000);
    for by_leader in [true, false] {
        for change in [Change::Mkdir, Change::Rmdir, Change::Rename, Change::Chmod] {
            let what = format!("{change:?}, by the leader: {by_leader}");
            let cl = cluster_with(config());
            let owner = deposited_tree(&cl);
            let early = late(&cl, &owner);
            early.stat(&user, "/p/x/f").unwrap();
            let actor = match by_leader {
                true => Arc::clone(&owner),
                false => late(&cl, &owner),
            };
            let ctx = root();
            match change {
                Change::Mkdir => actor.mkdir(&ctx, "/p/z", 0o755).map(|_| ()),
                Change::Rmdir => actor.rmdir(&ctx, "/p/e"),
                Change::Rename => actor.rename(&ctx, "/p/x", "/p/w"),
                Change::Chmod => {
                    let mode = Some(0);
                    let attr = SetAttr {
                        mode,
                        ..SetAttr::default()
                    };
                    actor.setattr(&ctx, "/p", &attr).map(|_| ())
                }
            }
            .unwrap();
            assert_eq!(count(&cl, "lease.view.revoke.count"), 1, "{what}");

            // Whoever holds nothing now gets `/` from the manager and
            // `/p` from its leader, as it is.
            let (views, fills) = (
                count(&cl, "lease.redirect.view.count"),
                forwards(&cl, "dir_view"),
            );
            let fresh = late(&cl, &actor);
            let seen = fresh.stat(&user, "/p/x/f").map(|_| ());
            let want = match change {
                Change::Mkdir | Change::Rmdir => Ok(()),
                Change::Rename => Err(FsError::NotFound),
                Change::Chmod => Err(FsError::PermissionDenied),
            };
            assert_eq!(seen, want, "{what}");
            assert_eq!(count(&cl, "lease.redirect.view.count"), views + 1, "{what}");
            assert_eq!(forwards(&cl, "dir_view"), fills + 1, "{what}");
            match change {
                Change::Mkdir => fresh.stat(&user, "/p/z").map(|_| ()).unwrap(),
                Change::Rmdir => assert_eq!(fresh.stat(&user, "/p/e"), Err(FsError::NotFound)),
                Change::Rename => fresh.stat(&user, "/p/w/f").map(|_| ()).unwrap(),
                Change::Chmod => {}
            }
            // The early client believes its view, and asks nobody.
            assert_eq!(early.stat(&user, "/p/x/f").map(|_| ()), Ok(()), "{what}");
            assert_eq!(forwards(&cl, "dir_view"), fills + 1, "{what}");
            // One round trip per deposit, not per change.
            let mode = Some(0o711);
            let attr = SetAttr {
                mode,
                ..SetAttr::default()
            };
            actor.setattr(&ctx, "/p", &attr).unwrap();
            assert_eq!(count(&cl, "lease.view.revoke.count"), 1, "{what}");
        }
    }
}

/// One expiry rule: a view is valid until its stamp plus one lease
/// period — the leader's clock when it built a deposited view, the
/// client's clock when it asked for a leader-served one — and not a
/// nanosecond longer, however late it was received.
#[test]
fn a_view_dies_one_lease_period_after_its_stamp_whoever_served_it() {
    let cl = cluster_with(config());
    let (owner, ctx) = (cl.client(), root());
    owner.mkdir(&ctx, "/x", 0o755).unwrap();
    write_file(&*owner, &ctx, "/x/f", b"1").unwrap();
    let stamp = renew_leases(&owner, "/x/f");
    // Two clients take the root's view from the manager, well after its
    // stamp; then the leader renames `x` away.
    owner.port().advance(LEASE / 4);
    let holders = [late(&cl, &owner), late(&cl, &owner)];
    for c in &holders {
        assert!(c.port().now() > stamp + LEASE / 4);
        c.stat(&ctx, "/x/f").unwrap();
    }
    assert_eq!(count(&cl, "lease.redirect.view.count"), 2);
    owner.rename(&ctx, "/x", "/w").unwrap();
    // Two more ask the leader. They know who leads `/` by then, so the
    // fill is the first act of their `stat`.
    let askers = [late(&cl, &owner), late(&cl, &owner)];
    let mut sent = Vec::new();
    for c in &askers {
        c.stat(&ctx, "/").unwrap();
        sent.push(c.port().now());
        c.stat(&ctx, "/w/f").unwrap();
    }
    assert_eq!(forwards(&cl, "dir_view"), 2);
    // The last nanosecond of each view, and the first after it.
    let expiries = [
        stamp + LEASE,
        stamp + LEASE,
        sent[0] + LEASE,
        sent[1] + LEASE,
    ];
    let paths = ["/x/f", "/x/f", "/w/f", "/w/f"];
    for (i, c) in holders.iter().chain(&askers).enumerate() {
        let fills = forwards(&cl, "dir_view");
        let last = i % 2 == 0;
        c.port().wait_until(expiries[i] - u64::from(last));
        assert_eq!(c.port().now(), expiries[i] - u64::from(last));
        let seen = c.stat(&ctx, paths[i]).map(|_| ());
        match (last, paths[i]) {
            // Still believed: the old name resolves, nobody is asked.
            (true, _) => {
                seen.unwrap();
                assert_eq!(forwards(&cl, "dir_view"), fills, "client {i}");
            }
            // Expired: refetched, and the rename shows.
            (false, "/x/f") => assert_eq!(seen, Err(FsError::NotFound)),
            (false, _) => seen.unwrap(),
        }
        if !last {
            assert_eq!(forwards(&cl, "dir_view"), fills + 1, "client {i}");
        }
    }
}

/// A view does not outlive its leader's lease: what a crashed leader
/// left with the manager is not handed out once a successor has taken
/// the directory over — here it would resurrect a `mkdir` the crash
/// lost.
#[test]
fn a_successor_redirects_without_the_dead_leaders_view() {
    let cl = cluster_with(config());
    let (owner, ctx) = (cl.client(), root());
    owner.mkdir(&ctx, "/q", 0o755).unwrap();
    owner.sync_all(&ctx).unwrap();
    // Acked, journaled in memory only — and shown by the view the
    // renewal deposits.
    owner.mkdir(&ctx, "/q/ghost", 0o755).unwrap();
    renew_leases(&owner, "/q");
    assert_eq!(count(&cl, "lease.view.deposit.count"), 2);
    let seen = late(&cl, &owner);
    seen.stat(&ctx, "/q/ghost").unwrap();
    owner.crash();

    // Past the dead leader's lease and the grace after it, a successor
    // recovers `/` and `/q`: `ghost` is gone, `/q` is a leaf again and
    // its new leader has no view to deposit.
    let successor = late(&cl, &owner);
    successor.port().advance(3 * LEASE);
    assert_eq!(successor.readdir(&ctx, "/q").unwrap(), []);
    let views = count(&cl, "lease.redirect.view.count");
    let after = late(&cl, &successor);
    assert_eq!(after.stat(&ctx, "/q/ghost"), Err(FsError::NotFound));
    assert_eq!(
        count(&cl, "lease.redirect.view.count"),
        views + 1,
        "the successor's view of /, nothing for /q"
    );
}
