//! File leases (§III-D): a readable open brings the read lease back with
//! its lookup, a created or write-only handle takes the read or write
//! lease at its first data access, a granted write lease is not waited
//! for, and the client's lease goes back with its last handle.
//!
//! What must hold is what lease-at-open gave every handle that caches:
//! no chunk is served from or dirtied in a client's cache without a
//! lease on the file, and a conflicting access turns the file to direct
//! I/O with a cache-flush broadcast to the holders that lands before the
//! conflicting access does.

mod common;

use arkfs::partition::PartitionMap;
use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, Vfs};
use common::{cluster, counter, forwards};
use std::sync::Arc;

/// Every forwarded message that can take or hand back a file lease so
/// far: acquires, readable opens, releases and the close message that
/// carries a release.
fn lease_messages(cl: &ArkCluster) -> u64 {
    [
        "acquire_read_lease",
        "acquire_write_lease",
        "open_read",
        "release_file_lease",
        "close_file",
    ]
    .iter()
    .map(|op| forwards(cl, op))
    .sum()
}

#[test]
fn a_handle_closed_without_io_takes_and_leaves_no_lease() {
    let cl = cluster();
    let (leader, c) = (cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/old", b"abc").unwrap();
    assert_eq!(leader.active_file_leases(), 0);

    // Forwarded create and write-only open: held open, then closed,
    // without I/O.
    let created = c.create(&ctx, "/d/new", 0o644).unwrap();
    let opened = c.open(&ctx, "/d/old", OpenFlags::WRONLY).unwrap();
    // A read at end of file moves no data either.
    assert_eq!(c.read(&ctx, created, 0, &mut [0u8; 8]).unwrap(), 0);
    assert_eq!(leader.active_file_leases(), 0, "nothing recorded at open");
    c.close(&ctx, created).unwrap();
    c.close(&ctx, opened).unwrap();
    assert_eq!(leader.active_file_leases(), 0);
    assert_eq!(lease_messages(&cl), 0, "no lease message either way");

    // The leader's own handles go through the same path.
    let own = leader.create(&ctx, "/d/own", 0o644).unwrap();
    assert_eq!(leader.active_file_leases(), 0);
    leader.close(&ctx, own).unwrap();

    // A readable open takes the read lease with its lookup, in one
    // message; every read of the handle is served under it, and the
    // close hands it back.
    let fh = c.open(&ctx, "/d/old", OpenFlags::RDONLY).unwrap();
    assert_eq!(forwards(&cl, "open_read"), 1);
    assert_eq!(forwards(&cl, "lookup"), 1, "only the write-only open's");
    assert_eq!(leader.active_file_leases(), 1);
    let mut buf = [0u8; 3];
    assert_eq!(c.read(&ctx, fh, 0, &mut buf).unwrap(), 3);
    c.read(&ctx, fh, 1, &mut buf).unwrap();
    assert_eq!(forwards(&cl, "acquire_read_lease"), 0, "no ask at the read");
    c.close(&ctx, fh).unwrap();
    assert_eq!(forwards(&cl, "release_file_lease"), 1);
    assert_eq!(leader.active_file_leases(), 0);

    // A handle that writes takes the write lease directly; its close is
    // one message carrying the size and the release.
    let fh = c.open(&ctx, "/d/old", OpenFlags::WRONLY).unwrap();
    c.write(&ctx, fh, 3, b"def").unwrap();
    assert_eq!(forwards(&cl, "acquire_read_lease"), 0, "no read lease");
    assert_eq!(forwards(&cl, "acquire_write_lease"), 1);
    let (sizes, releases) = (
        forwards(&cl, "set_size"),
        forwards(&cl, "release_file_lease"),
    );
    c.close(&ctx, fh).unwrap();
    assert_eq!(forwards(&cl, "close_file"), 1);
    assert_eq!(forwards(&cl, "set_size"), sizes);
    assert_eq!(forwards(&cl, "release_file_lease"), releases);
    assert_eq!(leader.active_file_leases(), 0);
    assert_eq!(read_file(&*cl.client(), &ctx, "/d/old").unwrap(), b"abcdef");
    assert_eq!(c.lease_release_failures(), 0);
}

#[test]
fn reader_meets_a_foreign_writer_at_its_first_read() {
    let cl = cluster();
    let (leader, writer, reader) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    let names: Vec<String> = (0..16).map(|i| format!("f{i}")).collect();
    for name in &names {
        write_file(&*leader, &ctx, &format!("/d/{name}"), &[1u8; 100]).unwrap();
    }
    // Split after the files were made: a file whose name now routes to a
    // partition that is not its lease shard opens without a lease, and
    // its handle asks at its first read.
    leader.set_dir_partitions(&ctx, "/d", 2).unwrap();
    let dir = leader.stat(&ctx, "/d").unwrap().ino;
    let map = PartitionMap {
        dir,
        epoch: 0,
        partitions: 2,
    };
    let buckets = ArkConfig::test_tiny().dentry_buckets;
    let path = (names.iter())
        .map(|name| format!("/d/{name}"))
        .find(|path| {
            let ino = leader.stat(&ctx, path).unwrap().ino;
            !map.colocated(&path[3..], ino, buckets)
        })
        .expect("a name routed away from its lease shard");

    let w = writer.open(&ctx, &path, OpenFlags::RDWR).unwrap();
    // Cached and dirty at the writer. Opening conflicts with nothing:
    // the conflict is the access.
    writer.write(&ctx, w, 0, &[2u8; 100]).unwrap();
    let r = reader.open(&ctx, &path, OpenFlags::RDONLY).unwrap();
    assert_eq!(counter(&cl, "lease.file.at_open.count"), 0);
    assert_eq!(forwards(&cl, "flush_cache"), 0);
    // First read: Direct, and the writer is told to flush, so the
    // reader sees the writer's bytes straight from the store.
    let (hits, _) = reader.cache_stats();
    let mut buf = [0u8; 100];
    assert_eq!(reader.read(&ctx, r, 0, &mut buf).unwrap(), 100);
    assert_eq!(buf, [2u8; 100]);
    assert_eq!(
        forwards(&cl, "flush_cache"),
        1,
        "flush broadcast to the writer"
    );
    assert_eq!(reader.cache_stats().0, hits, "direct mode reads no cache");
    // The flushed writer is direct too; both closes release nothing.
    writer.write(&ctx, w, 0, &[3u8; 10]).unwrap();
    reader.read(&ctx, r, 0, &mut buf).unwrap();
    assert_eq!(&buf[..10], &[3u8; 10]);
    let releases = forwards(&cl, "release_file_lease") + forwards(&cl, "close_file");
    writer.close(&ctx, w).unwrap();
    reader.close(&ctx, r).unwrap();
    assert_eq!(
        forwards(&cl, "release_file_lease") + forwards(&cl, "close_file"),
        releases,
        "a conflict leaves no entry of ours to hand back"
    );
}

#[test]
fn writer_meets_foreign_readers_at_its_first_write() {
    let cl = cluster();
    let (leader, r1, r2, writer) = (cl.client(), cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();

    let mut buf = [0u8; 100];
    let h1 = r1.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    let h2 = r2.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    r1.read(&ctx, h1, 0, &mut buf).unwrap();
    r2.read(&ctx, h2, 0, &mut buf).unwrap();
    let w = writer.open(&ctx, "/d/f", OpenFlags::WRONLY).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 0);
    writer.write(&ctx, w, 0, &[9u8; 100]).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 2, "one flush per reader");
    // The readers' cached chunks are gone: they see the direct write.
    r1.read(&ctx, h1, 0, &mut buf).unwrap();
    assert_eq!(buf, [9u8; 100]);
    r2.read(&ctx, h2, 0, &mut buf).unwrap();
    assert_eq!(buf, [9u8; 100]);
    for (c, fh) in [(&r1, h1), (&r2, h2), (&writer, w)] {
        c.close(&ctx, fh).unwrap();
    }
}

#[test]
fn no_cached_chunk_is_served_to_a_handle_without_a_lease() {
    let cl = cluster();
    let (leader, stale, writer) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    // `stale` reads the file through its cache and closes: the lease is
    // handed back.
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();
    assert_eq!(read_file(&*stale, &ctx, "/d/f").unwrap(), [1u8; 100]);
    // Another client now holds the write lease over newer bytes.
    let w = writer.open(&ctx, "/d/f", OpenFlags::RDWR).unwrap();
    writer.write(&ctx, w, 0, &[7u8; 100]).unwrap();

    // A new handle at `stale` asks with its open, before it looks at the
    // cache — and asking finds the writer.
    let (hits, _) = stale.cache_stats();
    let asked = forwards(&cl, "open_read");
    let fh = stale.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(forwards(&cl, "open_read"), asked + 1);
    assert_eq!(forwards(&cl, "flush_cache"), 1, "the writer flushed");
    let mut buf = [0u8; 100];
    stale.read(&ctx, fh, 0, &mut buf).unwrap();
    assert_eq!(
        stale.cache_stats().0,
        hits,
        "the stale chunk was not served"
    );
    assert_eq!(buf, [7u8; 100], "the writer's bytes, not the cached ones");
    stale.close(&ctx, fh).unwrap();
    writer.close(&ctx, w).unwrap();
}

/// Two handles of one client share its lease: closing one must not hand
/// back what the other still reads under.
#[test]
fn one_close_keeps_the_lease_another_handle_reads_under() {
    let cl = cluster();
    let (leader, c, d) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();

    let mut buf = [0u8; 100];
    let first = c.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    let second = c.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    c.read(&ctx, first, 0, &mut buf).unwrap();
    c.read(&ctx, second, 0, &mut buf).unwrap();
    c.close(&ctx, first).unwrap();
    assert_eq!(forwards(&cl, "release_file_lease"), 0, "one handle left");
    assert_eq!(leader.active_file_leases(), 1);

    // `d` overwrites the file and closes: its write meets `c`'s lease.
    let w = d.open(&ctx, "/d/f", OpenFlags::WRONLY).unwrap();
    d.write(&ctx, w, 0, &[2u8; 100]).unwrap();
    d.close(&ctx, w).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 1);

    assert_eq!(c.read(&ctx, second, 0, &mut buf).unwrap(), 100);
    assert_eq!(buf, [2u8; 100], "the second handle read stale bytes");
    c.close(&ctx, second).unwrap();
}

/// The cache's clean chunks are only as good as the lease they were read
/// under: they go when the last handle hands it back.
#[test]
fn a_reopened_file_is_not_served_from_chunks_of_a_closed_lease() {
    let cl = cluster();
    let (leader, c, d) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();
    assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), [1u8; 100]);

    // No lease is held while `d` overwrites: its write lease is granted.
    let w = d.open(&ctx, "/d/f", OpenFlags::WRONLY).unwrap();
    d.write(&ctx, w, 0, &[2u8; 100]).unwrap();
    d.close(&ctx, w).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 0);

    assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), [2u8; 100]);
}

/// The message budget of a remote-led file's open+read+close and
/// create+write+close, and what the writer waits for.
#[test]
fn an_open_carries_the_read_lease_and_a_granted_write_is_not_waited_for() {
    let config = ArkConfig::default();
    let rtt = config.spec.net_rtt();
    let store = ObjectCluster::new(ClusterConfig::rados(config.spec.clone()));
    let cl = ArkCluster::new(config, Arc::new(store));
    let (leader, c) = (cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/old", &[1u8; 3901]).unwrap();
    // Warm `c`'s path resolution, so what is counted below is the file's.
    c.stat(&ctx, "/d/old").unwrap();
    let sent = || cl.ops_net().message_count();

    // open + read + close: the open (lookup and read lease), the release.
    let before = sent();
    let fh = c.open(&ctx, "/d/old", OpenFlags::RDONLY).unwrap();
    let mut buf = vec![0u8; 3901];
    assert_eq!(c.read(&ctx, fh, 0, &mut buf).unwrap(), 3901);
    c.close(&ctx, fh).unwrap();
    assert_eq!(sent() - before, 2, "open_read + release_file_lease");
    assert_eq!(counter(&cl, "lease.file.at_open.count"), 1);
    assert_eq!(buf, [1u8; 3901]);

    // create + write + close: the create, the write lease nobody waits
    // for, the close carrying size and release. The PUT goes to the store.
    let (before, unwaited) = (sent(), counter(&cl, "lease.file.write_unwaited.count"));
    let fh = c.create(&ctx, "/d/new", 0o644).unwrap();
    let t0 = c.port().now();
    c.write(&ctx, fh, 0, &[2u8; 3901]).unwrap();
    let write = c.port().now() - t0;
    assert!(
        write < rtt,
        "the write took {write} ns, a round trip is {rtt}"
    );
    c.close(&ctx, fh).unwrap();
    assert_eq!(
        sent() - before,
        3,
        "create_open + acquire_write_lease + close_file"
    );
    assert_eq!(forwards(&cl, "close_file"), 1);
    let unwaited = counter(&cl, "lease.file.write_unwaited.count") - unwaited;
    assert_eq!(unwaited, 1);
    assert_eq!(leader.active_file_leases(), 0);
    assert_eq!(read_file(&*leader, &ctx, "/d/new").unwrap(), [2u8; 3901]);
}

/// A write that meets a foreign write lease waits for the leader's
/// answer, and so for the holder's flush: its direct PUT reaches the
/// store after the holder's bytes do, never before.
#[test]
fn a_direct_write_lands_after_the_holders_flush() {
    let cl = cluster();
    cl.telemetry().tracer.set_enabled(true);
    let (leader, holder, w) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/f", &[1u8; 60]).unwrap();
    let h = holder.open(&ctx, "/d/f", OpenFlags::RDWR).unwrap();
    holder.write(&ctx, h, 0, &[3u8; 60]).unwrap();

    let fh = w.open(&ctx, "/d/f", OpenFlags::WRONLY).unwrap();
    w.write(&ctx, fh, 0, &[2u8; 30]).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 1);
    let events = cl.telemetry().tracer.events();
    let root = (events.iter())
        .find(|e| e.name == "op.write" && e.tid == w.id().0)
        .expect("the write's root span");
    let span = |name: &str| {
        (events.iter())
            .find(|e| e.trace_id == root.trace_id && !e.follows && e.name == name)
            .unwrap_or_else(|| panic!("no {name} in the write's trace"))
    };
    let (flushed, direct) = (span("store.put_many"), span("store.put_range_many"));
    assert!(
        direct.start >= flushed.end,
        "direct PUT at {} before the holder's flush ended at {}",
        direct.start,
        flushed.end
    );
    w.close(&ctx, fh).unwrap();
    holder.close(&ctx, h).unwrap();
    let mut want = vec![2u8; 30];
    want.extend([3u8; 30]);
    assert_eq!(read_file(&*leader, &ctx, "/d/f").unwrap(), want);
}

/// A truncate changes bytes as a write does: it meets a reader's lease,
/// so the reader's cached chunks of the cut bytes go.
#[test]
fn a_truncate_is_not_hidden_by_a_readers_cache() {
    let cl = cluster();
    let (leader, reader, c) = (cl.client(), cl.client(), cl.client());
    let ctx = Credentials::root();
    leader.mkdir(&ctx, "/d", 0o755).unwrap();
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();
    let h = reader.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    let mut buf = [0u8; 100];
    reader.read(&ctx, h, 0, &mut buf).unwrap();

    c.truncate(&ctx, "/d/f", 10).unwrap();
    c.truncate(&ctx, "/d/f", 60).unwrap();
    assert_eq!(forwards(&cl, "flush_cache"), 1, "the reader was flushed");
    let mut want = vec![1u8; 10];
    want.resize(60, 0);
    assert_eq!(reader.read(&ctx, h, 0, &mut buf[..60]).unwrap(), 60);
    assert_eq!(&buf[..60], &want[..]);
    reader.close(&ctx, h).unwrap();
    assert_eq!(read_file(&*leader, &ctx, "/d/f").unwrap(), want);
}
