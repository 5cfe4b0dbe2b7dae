//! File leases on demand (§III-D): a handle takes the read or the write
//! lease at its first data access, not at open, and its close hands back
//! only what was taken.
//!
//! What must still hold is what lease-at-open gave every handle that
//! caches: no chunk is served from or dirtied in a client's cache
//! without a lease on the file, and a conflicting access turns the file
//! to direct I/O with a cache-flush broadcast to the holders.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, Vfs};
use std::sync::Arc;

fn cluster() -> Arc<ArkCluster> {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    ArkCluster::new(ArkConfig::test_tiny(), store)
}

/// Forwarded ops of one kind so far (`rpc.forward.<op>.count`).
fn forwards(cl: &ArkCluster, op: &str) -> u64 {
    cl.telemetry()
        .registry
        .counter(&format!("rpc.forward.{op}.count"))
        .get()
}

/// Every forwarded file-lease message so far: acquires, releases and
/// the close message that carries a release.
fn lease_messages(cl: &ArkCluster) -> u64 {
    [
        "acquire_read_lease",
        "acquire_write_lease",
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

    // Forwarded create and open: held open, then closed, without I/O.
    let created = c.create(&ctx, "/d/new", 0o644).unwrap();
    let opened = c.open(&ctx, "/d/old", OpenFlags::RDWR).unwrap();
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

    // A handle that reads takes the read lease and hands it back.
    let fh = c.open(&ctx, "/d/old", OpenFlags::RDONLY).unwrap();
    let mut buf = [0u8; 3];
    assert_eq!(c.read(&ctx, fh, 0, &mut buf).unwrap(), 3);
    assert_eq!(forwards(&cl, "acquire_read_lease"), 1);
    assert_eq!(leader.active_file_leases(), 1);
    c.read(&ctx, fh, 1, &mut buf).unwrap();
    assert_eq!(forwards(&cl, "acquire_read_lease"), 1, "once per handle");
    c.close(&ctx, fh).unwrap();
    assert_eq!(forwards(&cl, "release_file_lease"), 1);
    assert_eq!(leader.active_file_leases(), 0);

    // A handle that writes takes the write lease directly; its close is
    // one message carrying the size and the release.
    let fh = c.open(&ctx, "/d/old", OpenFlags::RDWR).unwrap();
    c.write(&ctx, fh, 3, b"def").unwrap();
    assert_eq!(
        forwards(&cl, "acquire_read_lease"),
        1,
        "no read-then-upgrade"
    );
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
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();

    let w = writer.open(&ctx, "/d/f", OpenFlags::RDWR).unwrap();
    // Cached and dirty at the writer. Opening conflicts with nothing:
    // the conflict is the access.
    writer.write(&ctx, w, 0, &[2u8; 100]).unwrap();
    let r = reader.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
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
    let w = writer.open(&ctx, "/d/f", OpenFlags::RDWR).unwrap();
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
    // handed back, the clean chunks stay behind.
    write_file(&*leader, &ctx, "/d/f", &[1u8; 100]).unwrap();
    assert_eq!(read_file(&*stale, &ctx, "/d/f").unwrap(), [1u8; 100]);
    // Another client now holds the write lease over newer bytes.
    let w = writer.open(&ctx, "/d/f", OpenFlags::RDWR).unwrap();
    writer.write(&ctx, w, 0, &[7u8; 100]).unwrap();

    // A new handle at `stale` holds nothing, so its read must ask before
    // it looks at the cache — and asking finds the writer.
    let fh = stale.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    let (hits, _) = stale.cache_stats();
    let asked = forwards(&cl, "acquire_read_lease");
    let mut buf = [0u8; 100];
    stale.read(&ctx, fh, 0, &mut buf).unwrap();
    assert_eq!(forwards(&cl, "acquire_read_lease"), asked + 1);
    assert_eq!(
        stale.cache_stats().0,
        hits,
        "the stale chunk was not served"
    );
    assert_eq!(buf, [7u8; 100], "the writer's bytes, not the cached ones");
    stale.close(&ctx, fh).unwrap();
    writer.close(&ctx, w).unwrap();
}
