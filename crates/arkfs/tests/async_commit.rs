//! End-to-end tests for the asynchronous metadata commit pipeline:
//! speculative dependent operations against acked-but-not-durable
//! entries, `fsync`/`sync_all` durability-barrier semantics, the seal
//! window, and per-lane in-flight backpressure.

mod common;

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, KeyKind, ObjectCluster};
use arkfs_simkit::{ClusterSpec, Port, MSEC, SEC};
use arkfs_vfs::{FsError, Vfs, ROOT_INO};
use common::{cluster_with, counter, journal_len, root};
use std::sync::Arc;

/// Config whose seal window never fires on its own: everything acked
/// stays in the running (unsealed) transaction until a barrier.
fn async_wide_window() -> ArkConfig {
    ArkConfig::test_tiny()
        .with_lease_period(MSEC, MSEC)
        .with_journal_window(10 * SEC)
        .with_commit_inflight(8)
}

#[test]
fn speculative_ops_hit_uncommitted_entries() {
    let cl = cluster_with(async_wide_window());
    let c = cl.client();
    let ctx = root();
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    let dir = c.stat(&ctx, "/d").unwrap().ino;

    // create is acked with its transaction still running (not even
    // sealed): no journal object exists yet.
    let fh = c.create(&ctx, "/d/f", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    assert_eq!(journal_len(&cl, dir), 0, "create acked before durability");

    // Dependent operations resolve against the uncommitted entry.
    let st = c.stat(&ctx, "/d/f").unwrap();
    assert_eq!(st.size, 0);
    let names: Vec<String> = c
        .readdir(&ctx, "/d")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["f"]);
    c.unlink(&ctx, "/d/f").unwrap();
    assert_eq!(c.stat(&ctx, "/d/f"), Err(FsError::NotFound));
    assert_eq!(journal_len(&cl, dir), 0, "all speculative, none durable");
}

#[test]
fn fsync_is_a_durability_barrier() {
    let cl = cluster_with(async_wide_window());
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    // Make the parent dentry (root's journal) durable first, as POSIX
    // would require fsyncing the parent directory.
    c1.sync_all(&ctx).unwrap();
    let dir = c1.stat(&ctx, "/d").unwrap().ino;

    let fh = c1.create(&ctx, "/d/f", 0o644).unwrap();
    assert_eq!(journal_len(&cl, dir), 0, "acked, not durable");
    c1.fsync(&ctx, fh).unwrap();
    assert_eq!(journal_len(&cl, dir), 1, "fsync sealed + flushed the txn");

    // The acked-then-fsynced create survives a hard crash.
    c1.crash();
    c2.port().advance(10 * MSEC);
    assert_eq!(c2.stat(&ctx, "/d/f").unwrap().size, 0);
}

#[test]
fn sync_all_is_a_durability_barrier() {
    let cl = cluster_with(async_wide_window());
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    for i in 0..5 {
        let fh = c1.create(&ctx, &format!("/d/f{i}"), 0o644).unwrap();
        c1.close(&ctx, fh).unwrap();
    }
    c1.sync_all(&ctx).unwrap();
    c1.crash();
    c2.port().advance(10 * MSEC);
    let entries = c2.readdir(&ctx, "/d").unwrap();
    assert_eq!(entries.len(), 5, "sync_all made every acked create durable");
}

#[test]
fn close_without_fsync_can_lose_what_fsync_before_close_keeps() {
    let payload = b"payload";
    // mkdir (made durable), then create + write (+ fsync) + close, then
    // a hard crash with no further barrier.
    let run = |fsync: bool| -> Result<u64, FsError> {
        let cl = cluster_with(async_wide_window());
        let c1 = cl.client();
        let c2 = cl.client();
        let ctx = root();
        c1.mkdir(&ctx, "/d", 0o755).unwrap();
        c1.sync_all(&ctx).unwrap();
        let fh = c1.create(&ctx, "/d/f", 0o644).unwrap();
        c1.write(&ctx, fh, 0, payload).unwrap();
        if fsync {
            c1.fsync(&ctx, fh).unwrap();
        }
        c1.close(&ctx, fh).unwrap();
        c1.crash();
        c2.port().advance(10 * MSEC);
        c2.stat(&ctx, "/d/f").map(|st| st.size)
    };
    // fsync's size push and barrier make the running transaction durable
    // before it returns.
    assert_eq!(run(true), Ok(payload.len() as u64));
    // Without it create/write/close were acked before durability, and
    // close is no barrier: the crash erases the file.
    assert_eq!(run(false), Err(FsError::NotFound));
}

#[test]
fn a_window_longer_than_the_run_seals_nothing_before_sync_all() {
    // Fewer creates than `journal_max_entries` (64), spread over half
    // the 1 s window: no window trips, so nothing seals, no journal
    // flight leaves, and nothing is durable until the barrier.
    let cl = cluster_with(ArkConfig::test_tiny().with_journal_window(SEC));
    let (c, c2) = (cl.client(), cl.client());
    let ctx = root();
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    let dir = c.stat(&ctx, "/d").unwrap().ino;
    for i in 0..20 {
        c.port().advance(25 * MSEC);
        let fh = c.create(&ctx, &format!("/d/f{i}"), 0o644).unwrap();
        c.close(&ctx, fh).unwrap();
    }
    assert_eq!(counter(&cl, "journal.flight.count"), 0);
    assert_eq!(journal_len(&cl, ROOT_INO), 0, "mkdir acked, not durable");
    assert_eq!(journal_len(&cl, dir), 0, "creates acked, not durable");
    c.sync_all(&ctx).unwrap();
    c.crash();
    c2.port().advance(c.port().now() + 50 * MSEC);
    assert_eq!(c2.readdir(&ctx, "/d").unwrap().len(), 20);
}

#[test]
fn eager_seal_window_makes_every_acked_op_durable() {
    // Window 0: every mutation seals its own transaction and the lane
    // driver flushes it immediately — a crash loses nothing acked even
    // without barriers (the async pipeline's tightest loss bound).
    let cl = cluster_with(
        ArkConfig::test_tiny()
            .with_lease_period(MSEC, MSEC)
            .with_journal_window(0),
    );
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    for i in 0..3 {
        let fh = c1.create(&ctx, &format!("/d/f{i}"), 0o644).unwrap();
        c1.close(&ctx, fh).unwrap();
    }
    c1.crash();
    c2.port().advance(10 * MSEC);
    assert_eq!(c2.readdir(&ctx, "/d").unwrap().len(), 3);
}

#[test]
fn sealed_depth_gauge_tracks_inflight_and_drains() {
    let cl = cluster_with(
        ArkConfig::test_tiny()
            .with_lease_period(MSEC, MSEC)
            .with_journal_window(0),
    );
    let c = cl.client();
    let ctx = root();
    let depth = cl.telemetry().registry.gauge("journal.sealed_depth");
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    let fh = c.create(&ctx, "/d/f", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    assert!(
        depth.get() > 0,
        "sealed batches in flight after eager seals"
    );
    c.sync_all(&ctx).unwrap();
    assert_eq!(depth.get(), 0, "sync_all drains every lane");
}

#[test]
fn fsync_barriers_every_partition_lane() {
    // Regression: fsync on a file in a partitioned directory must drain
    // *all* partition commit lanes, not just the lane of the partition
    // the fsynced name hashes to — other handles' acked creates live in
    // the other partitions' running transactions.
    let cl = cluster_with(async_wide_window());
    let c1 = cl.client();
    let c2 = cl.client();
    let ctx = root();
    c1.mkdir(&ctx, "/d", 0o755).unwrap();
    c1.sync_all(&ctx).unwrap();
    let dir = c1.stat(&ctx, "/d").unwrap().ino;
    c1.set_dir_partitions(&ctx, "/d", 4).unwrap();

    let fhs: Vec<_> = (0..16)
        .map(|i| c1.create(&ctx, &format!("/d/f{i:02}"), 0o644).unwrap())
        .collect();
    for p in 0..4 {
        let pkey = arkfs::partition::partition_ino(dir, p);
        assert_eq!(journal_len(&cl, pkey), 0, "partition {p}: acked only");
    }
    // One fsync, on one handle; every partition's stream must flush.
    c1.fsync(&ctx, fhs[0]).unwrap();
    let durable: usize = (0..4)
        .map(|p| journal_len(&cl, arkfs::partition::partition_ino(dir, p)))
        .sum();
    assert!(
        durable >= 2,
        "fsync flushed more than the fsynced partition"
    );

    // The real contract: a crash right after the single fsync loses
    // none of the 16 acked creates, whichever partition holds them.
    c1.crash();
    c2.port().advance(10 * MSEC);
    assert_eq!(c2.readdir(&ctx, "/d").unwrap().len(), 16);
}

#[test]
fn group_commit_carries_colaned_directories_in_one_flight() {
    // Two directories sharing a commit lane (test_tiny has 2 lanes, so
    // inos of equal parity co-lane): when one directory's window
    // expires and it flushes, the co-laned directory's due work rides
    // in the same grouped flight instead of queueing its own.
    let window = 5 * MSEC;
    let cl = cluster_with(
        ArkConfig::test_tiny()
            .with_lease_period(SEC, SEC)
            .with_journal_window(window)
            .with_commit_inflight(8),
    );
    let c = cl.client();
    let ctx = root();
    c.mkdir(&ctx, "/a", 0o755).unwrap();
    c.mkdir(&ctx, "/b", 0o755).unwrap();
    c.mkdir(&ctx, "/c", 0o755).unwrap();
    let (a, b, cc) = (
        c.stat(&ctx, "/a").unwrap().ino,
        c.stat(&ctx, "/b").unwrap().ino,
        c.stat(&ctx, "/c").unwrap().ino,
    );
    // Pick two directories on the same lane (same ino parity).
    let (donor_path, donor) = if a % 2 == cc % 2 {
        ("/c", cc)
    } else {
        ("/b", b)
    };
    c.sync_all(&ctx).unwrap();

    // Donor: one acked create, left running (no barrier on it, ever).
    let fh = c.create(&ctx, &format!("{donor_path}/d0"), 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    assert_eq!(journal_len(&cl, donor), 0, "donor acked, not durable");
    // Primary: a create, then another after the window expires — the
    // second mutation seals + flushes /a, and the donor's expired
    // window makes its transaction ride the same flight.
    let fh = c.create(&ctx, "/a/f0", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    c.port().advance(2 * window);
    let fh = c.create(&ctx, "/a/f1", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    assert_eq!(
        journal_len(&cl, donor),
        1,
        "donor's running txn rode the primary's grouped flight"
    );
}

#[test]
fn backpressure_stalls_seals_past_the_inflight_window() {
    // A slow (paper-cost) store makes each journal flush a long flight;
    // window 0 seals per mutation. With an in-flight bound of 1 every
    // seal must wait out the previous flight; with 8 they overlap.
    let elapsed = |max_inflight: usize| {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::rados(
            ClusterSpec::aws_paper(),
        )));
        let config = ArkConfig::test_tiny()
            .with_journal_window(0)
            .with_commit_inflight(max_inflight);
        let cl = ArkCluster::new(config, store);
        let c = cl.client();
        let ctx = root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let start = c.port().now();
        for i in 0..10 {
            let fh = c.create(&ctx, &format!("/d/f{i}"), 0o644).unwrap();
            c.close(&ctx, fh).unwrap();
        }
        c.port().now() - start
    };
    let narrow = elapsed(1);
    let wide = elapsed(8);
    assert!(
        narrow > wide,
        "in-flight bound 1 must stall behind journal flights \
         (narrow {narrow} ns vs wide {wide} ns)"
    );
}

#[test]
fn forced_and_window_flights_keep_their_prices() {
    // One script through every kind of journal flight: a window-tripped
    // group flight, a rename's 2PC records, an fsync's `FsyncDir`, a
    // partition handoff's quiesce and a `sync_all`. After each step the
    // caller's clock and the flight counters must read what they read
    // when forced commits had their own flight path.
    let window = 5 * MSEC;
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let config = ArkConfig::test_tiny()
        .with_lease_period(SEC, SEC)
        .with_journal_window(window)
        .with_commit_inflight(8);
    let cl = ArkCluster::new(config, store.clone());
    let c = cl.client();
    let ctx = root();
    // (step, caller's clock, `journal.flight.count`, `journal.flight.txns`)
    let expected = [
        ("mkdir", 19_444, 0, 0),
        ("create+write", 32_592, 0, 0),
        // /a's window trips: one flight, /a's transaction plus the
        // root's co-laned mkdirs as a donor.
        ("window flight", 10_034_592, 1, 2),
        // Prepare and decide in each directory: four forced flights.
        ("rename", 10_067_728, 5, 6),
        ("fsync", 10_080_302, 6, 7),
        ("quiesce", 10_109_974, 7, 8),
        ("sync_all", 10_138_938, 8, 9),
    ];
    let mut expected = expected.iter();
    let mut pin = |step: &str| {
        let &(name, now, flights, txns) = expected.next().expect("a recorded step");
        assert_eq!(name, step);
        let got = (
            c.port().now(),
            counter(&cl, "journal.flight.count"),
            counter(&cl, "journal.flight.txns"),
        );
        assert_eq!(got, (now, flights, txns), "after {step}");
    };
    c.mkdir(&ctx, "/a", 0o755).unwrap();
    c.mkdir(&ctx, "/b", 0o755).unwrap();
    pin("mkdir");
    let fh = c.create(&ctx, "/a/f", 0o644).unwrap();
    c.write(&ctx, fh, 0, b"forced").unwrap();
    c.close(&ctx, fh).unwrap();
    pin("create+write");
    c.port().advance(2 * window);
    let fh = c.create(&ctx, "/a/g", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    pin("window flight");
    c.rename(&ctx, "/a/f", "/b/f").unwrap();
    pin("rename");
    let fh = c.create(&ctx, "/b/h", 0o644).unwrap();
    c.write(&ctx, fh, 0, b"synced").unwrap();
    c.fsync(&ctx, fh).unwrap();
    c.close(&ctx, fh).unwrap();
    pin("fsync");
    let fh = c.create(&ctx, "/a/q", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    c.set_dir_partitions(&ctx, "/a", 2).unwrap();
    pin("quiesce");
    let fh = c.create(&ctx, "/b/s", 0o644).unwrap();
    c.close(&ctx, fh).unwrap();
    c.sync_all(&ctx).unwrap();
    pin("sync_all");

    // A refused forced flight: the fsync fails, the retry is counted,
    // and the create it carried is back in the running transaction, so
    // the next barrier writes it at the sequence number that failed.
    let b = c.stat(&ctx, "/b").unwrap().ino;
    let before = arkfs::journal::scan_journal(cl.prt(), &Port::new(), b).unwrap();
    let fh = c.create(&ctx, "/b/k", 0o644).unwrap();
    store.faults.fail_next_puts(1, Some(KeyKind::Journal));
    assert!(
        c.fsync(&ctx, fh).is_err(),
        "the refused PUT fails the fsync"
    );
    assert_eq!(counter(&cl, "journal.commit_retry.count"), 1);
    let after = arkfs::journal::scan_journal(cl.prt(), &Port::new(), b).unwrap();
    assert_eq!(after, before, "nothing of the refused flight landed");
    c.fsync(&ctx, fh).unwrap();
    c.close(&ctx, fh).unwrap();
    let retried = arkfs::journal::scan_journal(cl.prt(), &Port::new(), b).unwrap();
    assert_eq!(retried.len(), before.len() + 1);
    let txn = retried.last().unwrap();
    assert_eq!(txn.seq, 4, "the retry reuses the refused sequence number");
    assert!(
        txn.ops.iter().any(|op| matches!(
            op,
            arkfs::journal::JournalOp::UpsertDentry { name, .. } if name == "k"
        )),
        "the refused flight's create was restored and retried"
    );
}
