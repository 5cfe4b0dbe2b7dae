//! Acceptance tests for the pipelined, batched data path: the PRT must
//! fan chunk I/O out in one batched store call — the caller pays the
//! slowest chunk, not the sum of all of them — instead of the serial
//! per-chunk loop the seed shipped with. And the cached read path on top
//! of it must fetch what the reader will use: a stream's read-ahead
//! survives in a cache smaller than the file until it is read, a random
//! read fetches its range.

use arkfs::cache::Stat;
use arkfs::prt::Prt;
use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectKey, ObjectStore, StoreProfile};
use arkfs_simkit::{ClusterSpec, Port};
use arkfs_vfs::{Credentials, FileHandle, OpenFlags, Vfs};
use bytes::Bytes;
use std::sync::Arc;

const CHUNK: u64 = 64 * 1024;
const CHUNKS: u64 = 16;
const INO: u128 = 7;

fn fresh_cluster() -> Arc<ObjectCluster> {
    Arc::new(ObjectCluster::new(ClusterConfig::rados(
        ClusterSpec::aws_paper(),
    )))
}

fn payload() -> Vec<u8> {
    (0..CHUNK * CHUNKS).map(|i| (i / CHUNK + i) as u8).collect()
}

/// Populate a cluster with the 16-chunk file, then reset its timing
/// resources so the measured operation starts on an idle store.
fn populated_cluster() -> Arc<ObjectCluster> {
    let c = fresh_cluster();
    let setup = Port::new();
    let data = payload();
    for idx in 0..CHUNKS {
        let piece = &data[(idx * CHUNK) as usize..((idx + 1) * CHUNK) as usize];
        c.put(
            &setup,
            ObjectKey::data_chunk(INO, idx),
            Bytes::copy_from_slice(piece),
        )
        .unwrap();
    }
    c.reset_timelines();
    c
}

#[test]
fn batched_sequential_read_halves_serial_virtual_time() {
    // The seed's serial loop: one ranged GET per chunk, each paying its
    // own round trip.
    let c_serial = populated_cluster();
    let serial_port = Port::new();
    let mut serial_bytes = Vec::new();
    for idx in 0..CHUNKS {
        let b = c_serial
            .get_range(
                &serial_port,
                ObjectKey::data_chunk(INO, idx),
                0,
                CHUNK as usize,
            )
            .unwrap();
        serial_bytes.extend_from_slice(&b);
    }

    // The batched path through the PRT.
    let c_batched = populated_cluster();
    let prt = Prt::new(Arc::clone(&c_batched) as Arc<dyn ObjectStore>, CHUNK);
    let batched_port = Port::new();
    let mut buf = vec![0u8; (CHUNK * CHUNKS) as usize];
    let n = prt
        .read_data(&batched_port, INO, 0, &mut buf, CHUNK * CHUNKS)
        .unwrap();

    assert_eq!(n, buf.len());
    assert_eq!(buf, payload(), "batched read returns the file contents");
    assert_eq!(
        buf, serial_bytes,
        "batched and serial reads agree byte for byte"
    );
    assert!(
        batched_port.now() * 2 <= serial_port.now(),
        "batched read must take <= 1/2 the serial virtual time \
         (batched {} ns vs serial {} ns)",
        batched_port.now(),
        serial_port.now()
    );
}

#[test]
fn batched_sequential_write_halves_serial_virtual_time() {
    let data = payload();

    // The seed's serial loop: one ranged PUT per chunk.
    let c_serial = fresh_cluster();
    let serial_port = Port::new();
    for idx in 0..CHUNKS {
        let piece = &data[(idx * CHUNK) as usize..((idx + 1) * CHUNK) as usize];
        c_serial
            .put_range(
                &serial_port,
                ObjectKey::data_chunk(INO, idx),
                0,
                Bytes::copy_from_slice(piece),
            )
            .unwrap();
    }

    // The batched path through the PRT.
    let c_batched = fresh_cluster();
    let prt = Prt::new(Arc::clone(&c_batched) as Arc<dyn ObjectStore>, CHUNK);
    let batched_port = Port::new();
    prt.write_data(&batched_port, INO, 0, &data).unwrap();

    // Identical store contents afterwards.
    assert_eq!(c_batched.object_count(), c_serial.object_count());
    let check = Port::new();
    for idx in 0..CHUNKS {
        let key = ObjectKey::data_chunk(INO, idx);
        assert_eq!(
            c_batched.get(&check, key).unwrap(),
            c_serial.get(&check, key).unwrap(),
            "chunk {idx} differs between batched and serial writers"
        );
    }
    assert!(
        batched_port.now() * 2 <= serial_port.now(),
        "batched write must take <= 1/2 the serial virtual time \
         (batched {} ns vs serial {} ns)",
        batched_port.now(),
        serial_port.now()
    );
}

#[test]
fn truncate_and_delete_issue_one_batched_delete() {
    let cluster = fresh_cluster();
    let prt = Prt::new(Arc::clone(&cluster) as Arc<dyn ObjectStore>, CHUNK);
    let port = Port::new();
    prt.write_data(&port, INO, 0, &payload()).unwrap();
    let copies = cluster.config().replication;
    assert_eq!(cluster.object_count(), CHUNKS as usize * copies);

    // Truncating to a chunk boundary drops the 12 dead chunks in exactly
    // one delete_many.
    let (calls0, items0) = cluster.batch_stats();
    prt.truncate_data(&port, INO, CHUNK * CHUNKS, CHUNK * 4)
        .unwrap();
    let (calls1, items1) = cluster.batch_stats();
    assert_eq!(
        calls1 - calls0,
        1,
        "truncate must issue exactly one batched call"
    );
    assert_eq!(
        items1 - items0,
        12,
        "one delete per dead chunk, all in the batch"
    );
    assert_eq!(cluster.object_count(), 4 * copies);

    // Deleting the remaining 4-chunk file is one more delete_many.
    prt.delete_data(&port, INO, CHUNK * 4).unwrap();
    let (calls2, items2) = cluster.batch_stats();
    assert_eq!(
        calls2 - calls1,
        1,
        "delete must issue exactly one batched call"
    );
    assert_eq!(items2 - items1, 4);
    assert_eq!(cluster.object_count(), 0);
}

// ---- the cached read path, cache smaller than the file -------------------

const MIB: u64 = 1024 * 1024;
const FILE: u64 = 32 * MIB;
const REQUEST: usize = 128 * 1024;

fn file_byte(offset: u64) -> u8 {
    (offset / REQUEST as u64 * 31 + offset % 251) as u8
}

/// One client with a 6-entry (12 MiB) cache over `store`, and a cold
/// 32 MiB file `/f` (16 chunks) in it.
fn small_cache_client(store: ClusterConfig) -> Arc<ArkClient> {
    let config = ArkConfig {
        cache_entries: 6,
        ..ArkConfig::default()
    };
    let c = ArkCluster::new(config, Arc::new(ObjectCluster::new(store))).client();
    let ctx = Credentials::root();
    let fh = c.create(&ctx, "/f", 0o644).unwrap();
    for offset in (0..FILE).step_by(MIB as usize) {
        let block: Vec<u8> = (offset..offset + MIB).map(file_byte).collect();
        c.write(&ctx, fh, offset, &block).unwrap();
    }
    c.fsync(&ctx, fh).unwrap();
    c.close(&ctx, fh).unwrap();
    c.drop_data_cache().unwrap();
    c
}

fn rados() -> ClusterConfig {
    ClusterConfig::rados(ClusterSpec::aws_paper())
}

/// Store `(GETs, bytes read)` so far.
fn moved(c: &ArkClient) -> (u64, u64) {
    let count = |name| c.telemetry().registry.counter(name).get();
    (count("store.get.count"), count("store.read.bytes"))
}

/// Read `len` bytes at `offset` and check them against `expect`.
fn read_checked(
    c: &ArkClient,
    fh: FileHandle,
    offset: u64,
    len: usize,
    expect: impl Fn(u64) -> u8,
) {
    let mut buf = vec![0u8; len];
    assert_eq!(
        c.read(&Credentials::root(), fh, offset, &mut buf).unwrap(),
        len
    );
    let want: Vec<u8> = (offset..offset + len as u64).map(expect).collect();
    assert!(buf == want, "wrong bytes at {offset}");
}

/// Request `i` of a random phase: aligned, never at 0, never where the
/// previous one ended.
fn random_offset(i: u64) -> u64 {
    (i * 37 + 5) % (FILE / REQUEST as u64) * REQUEST as u64
}

#[test]
fn a_stream_through_a_small_cache_fetches_every_chunk_once() {
    let c = small_cache_client(rados());
    let fh = c
        .open(&Credentials::root(), "/f", OpenFlags::RDONLY)
        .unwrap();
    let (before, t0) = (moved(&c), c.port().now());
    read_checked(&c, fh, 0, REQUEST, file_byte);
    // The first request waits for one whole-chunk fetch.
    let fetch = c.port().now() - t0;
    for offset in (REQUEST as u64..FILE).step_by(REQUEST) {
        read_checked(&c, fh, offset, REQUEST, file_byte);
    }
    let (after, took) = (moved(&c), c.port().now() - t0);
    assert_eq!((after.0 - before.0, after.1 - before.1), (16, FILE));
    assert_eq!(c.cache_stat(Stat::PrefetchIssued), 15);
    assert_eq!(c.cache_stat(Stat::PrefetchEvictedUnread), 0);
    assert_eq!(c.cache_stat(Stat::FillLost), 0);
    // Four chunks of read-ahead in flight: the 16 fetches overlap four
    // at a time.
    assert!(
        took <= (16u64.div_ceil(4) + 1) * fetch,
        "32 MiB took {took} ns at {fetch} ns per fetch"
    );
}

#[test]
fn random_reads_move_no_more_than_they_return() {
    let c = small_cache_client(rados());
    let fh = c
        .open(&Credentials::root(), "/f", OpenFlags::RDONLY)
        .unwrap();
    c.telemetry().tracer.set_enabled(true);
    let before = moved(&c);
    for i in 0..64 {
        read_checked(&c, fh, random_offset(i), REQUEST, file_byte);
    }
    let after = moved(&c);
    // Each is a `cache.bypass` span on the client's track, none a miss.
    let spans = c.telemetry().tracer.events();
    let named = |name| spans.iter().filter(|s| s.name == name).count();
    assert_eq!((named("cache.bypass"), named("cache.miss")), (64, 0));
    assert!(
        after.1 - before.1 <= 64 * REQUEST as u64,
        "64 x 128 KiB pulled {} bytes from the store",
        after.1 - before.1
    );
    assert_eq!(c.cache_stat(Stat::ReadRanged), 64);
    assert_eq!(c.cache_stat(Stat::PrefetchIssued), 0);
}

/// Sequential, random, over a dirty chunk, across a dirty and a missing
/// chunk, then seek-and-stream: every byte as written, on any backend.
fn mixed_reads_return_what_was_written(store: ClusterConfig) {
    let c = small_cache_client(store);
    let ctx = Credentials::root();
    let fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
    for offset in (0..8 * MIB).step_by(REQUEST) {
        read_checked(&c, fh, offset, REQUEST, file_byte);
    }
    for i in 0..16 {
        read_checked(&c, fh, random_offset(i), REQUEST, file_byte);
    }
    // 4 KiB at the head of chunk 10 (of 2 MiB): resident and dirty.
    let patched = 20 * MIB..20 * MIB + 4096;
    c.write(&ctx, fh, patched.start, &[0xA5; 4096]).unwrap();
    let now = |offset: u64| match patched.contains(&offset) {
        true => 0xA5,
        false => file_byte(offset),
    };
    let ranged = c.cache_stat(Stat::ReadRanged);
    read_checked(&c, fh, patched.start + 1024, REQUEST, now);
    assert_eq!(c.cache_stat(Stat::ReadRanged), ranged, "resident: no fetch");
    // Chunk 9 is not resident: its half comes by range, chunk 10's from
    // the cache.
    read_checked(&c, fh, patched.start - 65536, REQUEST, now);
    assert_eq!(c.cache_stat(Stat::ReadRanged), ranged + 1);
    // A seek, then the stream re-opens its window on the second
    // sequential read.
    let prefetched = c.cache_stat(Stat::PrefetchIssued);
    read_checked(&c, fh, 24 * MIB, REQUEST, now);
    assert_eq!(c.cache_stat(Stat::PrefetchIssued), prefetched);
    read_checked(&c, fh, 24 * MIB + REQUEST as u64, REQUEST, now);
    assert_eq!(c.cache_stat(Stat::PrefetchIssued), prefetched + 2);
    for offset in (24 * MIB + 2 * REQUEST as u64..FILE).step_by(REQUEST) {
        read_checked(&c, fh, offset, REQUEST, now);
    }
    // (The first stream's abandoned read-ahead may be evicted unread; no
    // fill ever loses a chunk it has just installed.)
    assert_eq!(c.cache_stat(Stat::FillLost), 0);
    c.close(&ctx, fh).unwrap();
}

#[test]
fn mixed_reads_on_rados() {
    mixed_reads_return_what_was_written(rados());
}

#[test]
fn mixed_reads_on_s3() {
    let mut store = rados();
    store.profile = StoreProfile::s3(&store.spec);
    mixed_reads_return_what_was_written(store);
}

#[test]
fn mixed_reads_on_erasure_coding() {
    mixed_reads_return_what_was_written(rados().with_erasure_coding(4));
}
