//! End-to-end tests for hot-directory sharding: partitioned dentry
//! leadership with per-partition journals.
//!
//! The load-bearing property: a partitioned directory is *semantically
//! invisible*. Random create/unlink/rename/readdir interleavings on a
//! partitioned cluster must produce the exact namespace an
//! unpartitioned reference cluster produces — including across a hard
//! crash whose takeover replays each partition's journal stream in
//! isolation, and across a crash landing at an arbitrary split
//! boundary.

use arkfs::partition::{lease_partition, partition_ino, PartitionMap};
use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
use arkfs_simkit::{Port, MSEC, SEC};
use arkfs_vfs::{Credentials, DirEntry, FileType, FsError, OpenFlags, Vfs};
use proptest::prelude::*;
use std::sync::Arc;

/// `dentry_buckets` in `ArkConfig::test_tiny()` (partition ranges and
/// name routing in these tests are computed against it).
const BUCKETS: u64 = 4;

fn cluster_on(config: ArkConfig, s3: bool) -> Arc<ArkCluster> {
    let mut cfg = ClusterConfig::test_tiny();
    if s3 {
        cfg.profile = StoreProfile::s3(&cfg.spec);
    }
    ArkCluster::new(config, Arc::new(ObjectCluster::new(cfg)))
}

/// Async config whose seal window never fires on its own, so durability
/// is entirely in the hands of the explicit barriers under test.
fn async_wide_window() -> ArkConfig {
    ArkConfig::test_tiny().with_async_commit(10 * SEC, 8)
}

fn root() -> Credentials {
    Credentials::root()
}

/// Journal object count for one partition stream.
fn stream_len(cl: &Arc<ArkCluster>, dir: u128, p: u32) -> usize {
    cl.prt()
        .list_journal(&Port::new(), partition_ino(dir, p))
        .unwrap()
        .len()
}

fn names(c: &arkfs::ArkClient, ctx: &Credentials, path: &str) -> Vec<String> {
    c.readdir(ctx, path)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect()
}

// ---- explicit split / merge lifecycle -----------------------------------------

#[test]
fn explicit_partitioning_preserves_namespace() {
    for s3 in [false, true] {
        let cl = cluster_on(async_wide_window(), s3);
        let c = cl.client();
        let ctx = root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        for i in 0..24 {
            let fh = c.create(&ctx, &format!("/d/f{i:02}"), 0o644).unwrap();
            c.close(&ctx, fh).unwrap();
        }
        c.set_dir_partitions(&ctx, "/d", 4).unwrap();
        let (splits, _, handoffs, _) = c.partition_stats();
        assert_eq!(splits, 1, "one split installed");
        assert!(handoffs >= 1, "the old partition was handed off");

        // The merged readdir sees every slice, sorted, exactly once.
        let listed = names(&c, &ctx, "/d");
        assert_eq!(listed.len(), 24);
        assert!(listed.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");

        // Mutations keep working across partitions.
        for i in 0..24 {
            if i % 3 == 0 {
                c.unlink(&ctx, &format!("/d/f{i:02}")).unwrap();
            }
        }
        assert_eq!(names(&c, &ctx, "/d").len(), 16);
        assert_eq!(
            c.stat(&ctx, "/d/f01").unwrap().ino,
            c.readdir(&ctx, "/d").unwrap()[0].ino
        );

        // Merge back down to one partition; nothing is lost.
        c.set_dir_partitions(&ctx, "/d", 1).unwrap();
        let (_, merges, _, _) = c.partition_stats();
        assert_eq!(merges, 1);
        assert_eq!(names(&c, &ctx, "/d").len(), 16);
    }
}

#[test]
fn rmdir_of_partitioned_directory_merges_first() {
    let cl = cluster_on(async_wide_window(), false);
    let c = cl.client();
    let ctx = root();
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    c.set_dir_partitions(&ctx, "/d", 4).unwrap();
    // Place one entry in a *nonzero* partition: an emptiness check that
    // only consulted partition 0's table would wrongly remove /d.
    let pmap = PartitionMap {
        dir: c.stat(&ctx, "/d").unwrap().ino,
        epoch: 1,
        partitions: 4,
    };
    let hidden = (0..100)
        .map(|i| format!("n{i}"))
        .find(|n| pmap.partition_of_name(n, BUCKETS) != 0)
        .unwrap();
    let fh = c.create(&ctx, &format!("/d/{hidden}"), 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    assert_eq!(c.rmdir(&ctx, "/d"), Err(FsError::NotEmpty));
    c.unlink(&ctx, &format!("/d/{hidden}")).unwrap();
    c.rmdir(&ctx, "/d").unwrap();
    assert_eq!(c.stat(&ctx, "/d"), Err(FsError::NotFound));
    // The name is reusable and the dir comes back unpartitioned.
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    assert!(names(&c, &ctx, "/d").is_empty());
}

#[test]
fn cross_partition_rename_is_atomic_and_survives_crash() {
    let cl = cluster_on(async_wide_window(), false);
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    c1.sync_all(&ctx).unwrap();
    let dir = c1.stat(&ctx, "/d").unwrap().ino;
    c1.set_dir_partitions(&ctx, "/d", 4).unwrap();
    let pmap = PartitionMap {
        dir,
        epoch: 1,
        partitions: 4,
    };
    // A source/destination pair hashing to different partitions: the
    // rename runs as a 2PC between two journal streams of one directory.
    let src = (0..100)
        .map(|i| format!("s{i}"))
        .find(|n| pmap.partition_of_name(n, BUCKETS) == 0)
        .unwrap();
    let dst = (0..100)
        .map(|i| format!("t{i}"))
        .find(|n| pmap.partition_of_name(n, BUCKETS) == 3)
        .unwrap();
    let fh = c1.create(&ctx, &format!("/d/{src}"), 0o644).unwrap();
    c1.close(&ctx, fh).unwrap();
    c1.rename(&ctx, &format!("/d/{src}"), &format!("/d/{dst}"))
        .unwrap();
    assert_eq!(c1.stat(&ctx, &format!("/d/{src}")), Err(FsError::NotFound));
    assert_eq!(c1.stat(&ctx, &format!("/d/{dst}")).unwrap().size, 0);
    // Both halves journaled durably (the 2PC commits through both
    // partitions' streams), so a hard crash keeps the moved entry.
    c1.sync_all(&ctx).unwrap();
    c1.crash();
    c2.port().advance(50 * MSEC);
    assert_eq!(names(&c2, &ctx, "/d"), vec![dst.clone()]);
    assert_eq!(c2.stat(&ctx, &format!("/d/{src}")), Err(FsError::NotFound));
}

// ---- steered inos: one close message when name shard = lease shard -------------

/// Forwarded ops of one kind so far (`rpc.forward.<op>.count`).
fn forwards(cl: &Arc<ArkCluster>, op: &str) -> u64 {
    cl.telemetry()
        .registry
        .counter(&format!("rpc.forward.{op}.count"))
        .get()
}

/// `(close_file, set_size, release_file_lease)` forwarded so far.
fn close_traffic(cl: &Arc<ArkCluster>) -> (u64, u64, u64) {
    (
        forwards(cl, "close_file"),
        forwards(cl, "set_size"),
        forwards(cl, "release_file_lease"),
    )
}

/// Write one byte through a fresh handle on `path` and close it;
/// returns the close's `(close_file, set_size, release_file_lease)`.
fn written_close(cl: &Arc<ArkCluster>, c: &arkfs::ArkClient, path: &str) -> (u64, u64, u64) {
    let ctx = root();
    let fh = c.open(&ctx, path, OpenFlags::RDWR).unwrap();
    c.write(&ctx, fh, 0, b"w").unwrap();
    let before = close_traffic(cl);
    c.close(&ctx, fh).unwrap();
    let after = close_traffic(cl);
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn steered_inos_close_in_one_message_unsteered_in_two() {
    const BUCKETS16: u64 = 16;
    let mut config = async_wide_window().with_dir_partitions(8, 0, 0);
    config.dentry_buckets = BUCKETS16;
    let cl = cluster_on(config, false);
    let (leader, creator) = (cl.client(), cl.client());
    let ctx = root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    let dir = leader.stat(&ctx, "/d").unwrap().ino;
    // The creator installs the map (and so has it cached); the readdir
    // then makes one other client the leader of all eight partitions, so
    // every op below is forwarded.
    creator.set_dir_partitions(&ctx, "/d", 8).unwrap();
    assert!(names(&leader, &ctx, "/d").is_empty());
    let map8 = PartitionMap {
        dir,
        epoch: 1,
        partitions: 8,
    };

    // Steered under the right map: one RPC creates the file, no lease is
    // asked for or recorded, and the ino's lease shard is the partition
    // the name hashes to. Closing the untouched handle sends nothing.
    for i in 0..32 {
        let name = format!("f{i:02}");
        let creates = forwards(&cl, "create_open");
        let quiet = (forwards(&cl, "acquire_read_lease"), close_traffic(&cl));
        let fh = creator.create(&ctx, &format!("/d/{name}"), 0o644).unwrap();
        creator.close(&ctx, fh).unwrap();
        assert_eq!(forwards(&cl, "create_open"), creates + 1, "{name}");
        assert_eq!(
            (forwards(&cl, "acquire_read_lease"), close_traffic(&cl)),
            quiet,
            "{name}: a handle without I/O costs no lease message"
        );
        let ino = creator.stat(&ctx, &format!("/d/{name}")).unwrap().ino;
        assert!(map8.colocated(&name, ino, BUCKETS16), "{name}");
        assert_eq!(
            lease_partition(ino, 8),
            map8.partition_of_name(&name, BUCKETS16)
        );
    }
    assert_eq!(leader.active_file_leases(), 0);
    // A written handle's size push and lease release are one message.
    assert_eq!(written_close(&cl, &creator, "/d/f07"), (1, 0, 0));
    assert_eq!(leader.active_file_leases(), 0, "the close released it");

    // Renamed into another partition: the ino stays, its lease shard no
    // longer is the name's partition, and the close is two messages.
    let moved = (0..200)
        .map(|i| format!("m{i}"))
        .find(|n| map8.partition_of_name(n, BUCKETS16) != map8.partition_of_name("f03", BUCKETS16))
        .unwrap();
    creator
        .rename(&ctx, "/d/f03", &format!("/d/{moved}"))
        .unwrap();
    assert_eq!(
        written_close(&cl, &creator, &format!("/d/{moved}")),
        (0, 1, 1)
    );
    assert_eq!(leader.active_file_leases(), 0);

    // A repartition the creator has not heard of: its next create is
    // steered for eight partitions but lands in a directory of four
    // (whose one leader routes by its own map, so the creator does not
    // learn). Pick a name whose two shards now disagree.
    leader.set_dir_partitions(&ctx, "/d", 4).unwrap();
    assert_eq!(names(&leader, &ctx, "/d").len(), 32);
    let map4 = PartitionMap {
        dir,
        epoch: 2,
        partitions: 4,
    };
    let raced = (0..200)
        .map(|i| format!("/d/g{i}"))
        .find(|p| {
            map8.partition_of_name(&p[3..], BUCKETS16) % 4
                != map4.partition_of_name(&p[3..], BUCKETS16)
        })
        .unwrap();
    // Closed under the stale map, the folded close is refused by the
    // name's partition, which is not the lease shard: the closer learns
    // the map and sends the size push and the release separately.
    let close_of = |c: &arkfs::ArkClient, fh| {
        assert_eq!(leader.active_file_leases(), 1, "write lease at its shard");
        let before = close_traffic(&cl);
        c.close(&ctx, fh).unwrap();
        assert_eq!(leader.active_file_leases(), 0, "nothing left behind");
        let after = close_traffic(&cl);
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    let fh = creator.create(&ctx, &raced, 0o644).unwrap();
    creator.write(&ctx, fh, 0, b"raced").unwrap();
    assert_eq!(close_of(&creator, fh), (1, 1, 1), "refused, then two");
    assert_eq!(creator.stat(&ctx, &raced).unwrap().size, 5);
    // Closed under the fresh map, the unsteered ino is seen up front.
    let fh = creator.open(&ctx, &raced, OpenFlags::RDWR).unwrap();
    creator.write(&ctx, fh, 0, b"again!").unwrap();
    assert_eq!(close_of(&creator, fh), (0, 1, 1), "unsteered: two messages");
    assert_eq!(creator.stat(&ctx, &raced).unwrap().size, 6);
    assert_eq!(creator.lease_release_failures(), 0);
    assert_eq!(names(&creator, &ctx, "/d").len(), 33);
}

// ---- load-triggered split -----------------------------------------------------

#[test]
fn sustained_append_rate_triggers_split() {
    // Split once the measured append rate exceeds 500/s; merges off.
    let cl = cluster_on(async_wide_window().with_dir_partitions(4, 500, 0), false);
    let c = cl.client();
    let ctx = root();
    c.mkdir(&ctx, "/hot", 0o755).unwrap();
    // ~1000 appends/s: one create per virtual millisecond. The rate
    // window is 10 ms, so a reading fires every ~10 creates and the
    // queued split applies on the next traced op.
    for i in 0..40 {
        let fh = c.create(&ctx, &format!("/hot/f{i:03}"), 0o644).unwrap();
        c.close(&ctx, fh).unwrap();
        c.port().advance(MSEC);
    }
    let (splits, _, _, _) = c.partition_stats();
    assert!(splits >= 1, "sustained load split the hot directory");
    assert_eq!(names(&c, &ctx, "/hot").len(), 40, "no entries lost");
    // The installed map is visible to a fresh client via the store: make
    // the acked state durable first, then let the leases lapse so the
    // fresh client takes over from the store alone.
    c.sync_all(&ctx).unwrap();
    let c2 = cl.client();
    c2.port().advance(50 * MSEC);
    assert_eq!(names(&c2, &ctx, "/hot").len(), 40);
}

#[test]
fn idle_partitioned_directory_merges_back() {
    // Merge when a closed window measures under 100 appends/s.
    let cl = cluster_on(async_wide_window().with_dir_partitions(4, 0, 100), false);
    let c = cl.client();
    let ctx = root();
    c.mkdir(&ctx, "/cool", 0o755).unwrap();
    c.set_dir_partitions(&ctx, "/cool", 4).unwrap();
    // Trickle mutations spaced far apart; those landing on partition 0
    // close low-rate windows and queue a merge.
    let mut merged = false;
    for i in 0..200 {
        let fh = c.create(&ctx, &format!("/cool/f{i:03}"), 0o644).unwrap();
        c.close(&ctx, fh).unwrap();
        c.port().advance(20 * MSEC);
        if c.partition_stats().1 >= 1 {
            merged = true;
            break;
        }
    }
    assert!(merged, "idle directory merged back down");
    assert!(!names(&c, &ctx, "/cool").is_empty());
}

// ---- crash at a split boundary ------------------------------------------------

fn split_crash_roundtrip(n_before: usize, n_after: usize, target: u32, s3: bool) {
    let cl = cluster_on(async_wide_window(), s3);
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    c1.sync_all(&ctx).unwrap();
    let dir = c1.stat(&ctx, "/d").unwrap().ino;
    let mut expect: Vec<String> = Vec::new();
    for i in 0..n_before {
        let name = format!("f{i:03}");
        let fh = c1.create(&ctx, &format!("/d/{name}"), 0o644).unwrap();
        c1.close(&ctx, fh).unwrap();
        expect.push(name);
    }
    // The split is the boundary: everything acked before it must be
    // checkpoint-durable once the new map installs (the drain-before-
    // install invariant), with no barrier from the workload itself.
    c1.set_dir_partitions(&ctx, "/d", target).unwrap();
    for p in 0..target {
        assert_eq!(
            stream_len(&cl, dir, p),
            0,
            "split checkpointed every pre-split stream (partition {p})"
        );
    }
    let mut last_fh = None;
    for i in 0..n_after {
        let name = format!("g{i:03}");
        let fh = c1.create(&ctx, &format!("/d/{name}"), 0o644).unwrap();
        if i + 1 == n_after {
            last_fh = Some(fh);
        } else {
            c1.close(&ctx, fh).unwrap();
        }
        expect.push(name);
    }
    if let Some(fh) = last_fh {
        // fsync of ONE handle barriers every partition lane, making all
        // post-split acks durable in their per-partition streams.
        c1.fsync(&ctx, fh).unwrap();
    }
    c1.crash();
    c2.port().advance(50 * MSEC);
    // Takeover replays each partition's own stream; the union is exact.
    expect.sort();
    assert_eq!(names(&c2, &ctx, "/d"), expect);
    for name in &expect {
        assert_eq!(c2.stat(&ctx, &format!("/d/{name}")).unwrap().size, 0);
    }
}

#[test]
fn crash_right_after_split_loses_nothing() {
    split_crash_roundtrip(13, 0, 4, false);
    split_crash_roundtrip(13, 0, 4, true);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn crash_at_arbitrary_split_boundary_replays_exactly(
        n_before in 0usize..16,
        n_after in 1usize..16,
        target in 2u32..=4,
        s3 in any::<bool>(),
    ) {
        split_crash_roundtrip(n_before, n_after, target, s3);
    }
}

// ---- partitioned namespace ≡ unpartitioned reference --------------------------

#[derive(Debug, Clone)]
enum NsOp {
    Create(String),
    Unlink(String),
    Rename(String, String),
    Readdir,
}

fn arb_ns_op() -> impl Strategy<Value = NsOp> {
    // Create appears twice: a namespace that mostly grows exercises the
    // cross-partition paths harder than one that stays near-empty.
    prop_oneof![
        "[a-h]{1,2}".prop_map(NsOp::Create),
        "[a-h]{1,2}".prop_map(NsOp::Create),
        "[a-h]{1,2}".prop_map(NsOp::Unlink),
        ("[a-h]{1,2}", "[a-h]{1,2}").prop_map(|(a, b)| NsOp::Rename(a, b)),
        Just(NsOp::Readdir),
    ]
}

/// `/d`'s listing with ino steering undone: a create in a directory of
/// `partitions` partitions moves its drawn ino by less than `partitions`
/// (`partition::steer_ino`), so rounding both sides down to a multiple
/// of the partitioned side's count compares the underlying ino *draws* —
/// which must still line up one for one.
fn entries(
    c: &arkfs::ArkClient,
    ctx: &Credentials,
    partitions: u32,
) -> Vec<(String, u128, FileType)> {
    c.readdir(ctx, "/d")
        .unwrap()
        .into_iter()
        .map(|DirEntry { name, ino, ftype }| (name, ino - ino % partitions as u128, ftype))
        .collect()
}

/// Apply the same op tape to a partitioned cluster and an unpartitioned
/// reference, alternating between two clients on each, and require
/// byte-identical outcomes: every per-op result, every interleaved
/// readdir, the final namespace, and the namespace a fresh client
/// recovers after both clients crash.
fn run_oracle(ops: &[NsOp], partitions: u32, s3: bool) {
    let part = cluster_on(async_wide_window(), s3);
    let refc = cluster_on(async_wide_window(), s3);
    let ctx = root();
    let pc = [part.client(), part.client()];
    let rc = [refc.client(), refc.client()];
    pc[0].mkdir(&ctx, "/d", 0o755).unwrap();
    rc[0].mkdir(&ctx, "/d", 0o755).unwrap();
    pc[0].sync_all(&ctx).unwrap();
    rc[0].sync_all(&ctx).unwrap();
    pc[0].set_dir_partitions(&ctx, "/d", partitions).unwrap();
    for (i, op) in ops.iter().enumerate() {
        let (p, r) = (&pc[i % 2], &rc[i % 2]);
        match op {
            NsOp::Create(name) => {
                let path = format!("/d/{name}");
                let a = p
                    .create(&ctx, &path, 0o644)
                    .map(|fh| p.close(&ctx, fh).unwrap());
                let b = r
                    .create(&ctx, &path, 0o644)
                    .map(|fh| r.close(&ctx, fh).unwrap());
                assert_eq!(a, b, "create {name}");
            }
            NsOp::Unlink(name) => {
                let path = format!("/d/{name}");
                assert_eq!(
                    p.unlink(&ctx, &path),
                    r.unlink(&ctx, &path),
                    "unlink {name}"
                );
            }
            NsOp::Rename(from, to) => {
                let (f, t) = (format!("/d/{from}"), format!("/d/{to}"));
                assert_eq!(
                    p.rename(&ctx, &f, &t),
                    r.rename(&ctx, &f, &t),
                    "rename {from} -> {to}"
                );
            }
            NsOp::Readdir => {
                assert_eq!(
                    entries(p, &ctx, partitions),
                    entries(r, &ctx, partitions),
                    "interleaved readdir"
                );
            }
        }
    }
    let live = entries(&pc[0], &ctx, partitions);
    assert_eq!(live, entries(&rc[0], &ctx, partitions), "final namespace");
    // Durability equivalence: barrier on every client (each makes its
    // own acked ops durable), crash every client, and let a fresh one
    // recover each side from its journal streams alone.
    pc[0].sync_all(&ctx).unwrap();
    pc[1].sync_all(&ctx).unwrap();
    rc[0].sync_all(&ctx).unwrap();
    rc[1].sync_all(&ctx).unwrap();
    pc[0].crash();
    pc[1].crash();
    rc[0].crash();
    rc[1].crash();
    let (p3, r3) = (part.client(), refc.client());
    p3.port().advance(50 * MSEC);
    r3.port().advance(50 * MSEC);
    let recovered = entries(&p3, &ctx, partitions);
    assert_eq!(
        recovered,
        entries(&r3, &ctx, partitions),
        "recovered namespace"
    );
    assert_eq!(recovered, live, "recovery preserved the live namespace");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn partitioned_namespace_matches_reference_rados(
        ops in prop::collection::vec(arb_ns_op(), 1..60),
        partitions in 2u32..=4,
    ) {
        run_oracle(&ops, partitions, false);
    }

    #[test]
    fn partitioned_namespace_matches_reference_s3(
        ops in prop::collection::vec(arb_ns_op(), 1..40),
        partitions in 2u32..=4,
    ) {
        run_oracle(&ops, partitions, true);
    }
}
