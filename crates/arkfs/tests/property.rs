//! Property-based tests of ArkFS's core data structures and invariants.

use arkfs::cache::{DataCache, Stat};
use arkfs::journal::{JournalOp, Transaction};
use arkfs::meta::{DentryBlock, DentryEntry, InodeRecord};
use arkfs::metatable::Metatable;
use arkfs::prt::Prt;
use arkfs::wire::WireCodec;
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectKey, ObjectStore, OsError, StoreProfile};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::Port;
use arkfs_vfs::{Acl, AclEntry, FileType, FsError};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

// ---- strategies --------------------------------------------------------------

fn arb_filetype() -> impl Strategy<Value = FileType> {
    prop_oneof![
        Just(FileType::Regular),
        Just(FileType::Directory),
        Just(FileType::Symlink),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.-]{1,24}"
}

fn arb_acl() -> impl Strategy<Value = Acl> {
    prop::collection::vec((0u8..3, any::<u32>(), 0u8..8), 0..4).prop_map(|entries| {
        Acl::new(
            entries
                .into_iter()
                .map(|(tag, id, perms)| match tag {
                    0 => AclEntry::user(id, perms),
                    1 => AclEntry::group(id, perms),
                    _ => AclEntry::mask(perms),
                })
                .collect(),
        )
    })
}

prop_compose! {
    fn arb_inode()(
        ino in 2u128..,
        ftype in arb_filetype(),
        mode in 0u32..0o10000,
        uid in any::<u32>(),
        gid in any::<u32>(),
        size in any::<u64>(),
        times in any::<(u64, u64, u64)>(),
        acl in arb_acl(),
        target in "[ -~]{0,64}",
    ) -> InodeRecord {
        let mut rec = InodeRecord::new(ino, ftype, mode, uid, gid, times.0);
        rec.size = size;
        rec.mtime = times.1;
        rec.ctime = times.2;
        rec.acl = acl;
        if ftype == FileType::Symlink {
            rec.symlink_target = target;
        }
        rec
    }
}

fn arb_journal_op() -> impl Strategy<Value = JournalOp> {
    let leaf = prop_oneof![
        arb_inode().prop_map(JournalOp::PutInode),
        any::<u128>().prop_map(JournalOp::DeleteInode),
        (arb_name(), any::<u128>(), arb_filetype())
            .prop_map(|(name, ino, ftype)| JournalOp::UpsertDentry { name, ino, ftype }),
        arb_name().prop_map(|name| JournalOp::RemoveDentry { name }),
        any::<u128>().prop_map(|txid| JournalOp::RenameCommit { txid }),
        any::<u128>().prop_map(|txid| JournalOp::RenameAbort { txid }),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        (
            any::<u128>(),
            any::<u128>(),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(txid, peer_dir, ops)| JournalOp::RenamePrepare {
                txid,
                peer_dir,
                ops,
            })
    })
}

// ---- wire codec ---------------------------------------------------------------

proptest! {
    #[test]
    fn inode_codec_roundtrip(rec in arb_inode()) {
        prop_assert_eq!(InodeRecord::from_bytes(&rec.to_bytes()).unwrap(), rec);
    }

    #[test]
    fn dentry_block_codec_roundtrip(
        entries in prop::collection::vec((arb_name(), any::<u128>(), arb_filetype()), 0..32)
    ) {
        let block = DentryBlock {
            entries: entries
                .into_iter()
                .map(|(name, ino, ftype)| DentryEntry { name, ino, ftype })
                .collect(),
        };
        prop_assert_eq!(DentryBlock::from_bytes(&block.to_bytes()).unwrap(), block);
    }

    #[test]
    fn transaction_seal_roundtrip(
        dir in any::<u128>(),
        seq in any::<u64>(),
        ops in prop::collection::vec(arb_journal_op(), 0..16),
    ) {
        let txn = Transaction { dir, seq, ops };
        prop_assert_eq!(Transaction::unseal(&txn.seal()).unwrap(), txn);
    }

    #[test]
    fn transaction_rejects_any_single_bitflip(
        ops in prop::collection::vec(arb_journal_op(), 1..6),
        flip in any::<(usize, u8)>(),
    ) {
        let txn = Transaction { dir: 1, seq: 0, ops };
        let mut sealed = txn.seal().to_vec();
        let pos = flip.0 % sealed.len();
        let bit = 1u8 << (flip.1 % 8);
        sealed[pos] ^= bit;
        // Either the checksum catches it or decoding fails; it must never
        // decode into a *different* valid transaction.
        if let Ok(decoded) = Transaction::unseal(&sealed) {
            prop_assert_eq!(decoded, txn);
        }
    }
}

// ---- metatable vs model ---------------------------------------------------------

#[derive(Debug, Clone)]
enum MtOp {
    Create(String, u128),
    Unlink(String),
    Rename(String, String),
    SetSize(u8, u64),
}

fn arb_mt_op() -> impl Strategy<Value = MtOp> {
    prop_oneof![
        ("[a-f]{1,3}", 10u128..100).prop_map(|(n, i)| MtOp::Create(n, i)),
        "[a-f]{1,3}".prop_map(MtOp::Unlink),
        ("[a-f]{1,3}", "[a-f]{1,3}").prop_map(|(a, b)| MtOp::Rename(a, b)),
        (any::<u8>(), any::<u64>()).prop_map(|(s, z)| MtOp::SetSize(s, z)),
    ]
}

proptest! {
    #[test]
    fn metatable_agrees_with_hashmap_model(ops in prop::collection::vec(arb_mt_op(), 1..100)) {
        let dir = InodeRecord::new(100, FileType::Directory, 0o755, 0, 0, 0);
        let mut mt = Metatable::fresh(dir, 4, 1000);
        // Model: name -> (ino, size).
        let mut model: HashMap<String, (u128, u64)> = HashMap::default();
        let mut created: Vec<u128> = Vec::new();
        for (t, op) in ops.into_iter().enumerate() {
            let now = t as u64;
            match op {
                MtOp::Create(name, base) => {
                    // Unique ino per creation event.
                    let ino = base + 1000 * t as u128;
                    let rec = InodeRecord::new(ino, FileType::Regular, 0o644, 0, 0, now);
                    let expect = if model.contains_key(&name) {
                        Err(FsError::AlreadyExists)
                    } else {
                        Ok(())
                    };
                    prop_assert_eq!(mt.create_child(rec, &name, now), expect.clone());
                    if expect.is_ok() {
                        model.insert(name, (ino, 0));
                        created.push(ino);
                    }
                }
                MtOp::Unlink(name) => {
                    match model.remove(&name) {
                        Some((ino, _)) => {
                            let rec = mt.unlink_child(&name, now).unwrap();
                            prop_assert_eq!(rec.ino, ino);
                        }
                        None => {
                            prop_assert_eq!(mt.unlink_child(&name, now).unwrap_err(),
                                FsError::NotFound);
                        }
                    }
                }
                MtOp::Rename(from, to) => {
                    if from == to {
                        continue;
                    }
                    let r = mt.rename_local(&from, &to, now);
                    match model.remove(&from) {
                        Some(v) => {
                            prop_assert!(r.is_ok());
                            model.insert(to, v);
                        }
                        None => {
                            prop_assert_eq!(r.unwrap_err(), FsError::NotFound);
                        }
                    }
                }
                MtOp::SetSize(sel, size) => {
                    if created.is_empty() {
                        continue;
                    }
                    let ino = created[sel as usize % created.len()];
                    let live = model.values().any(|(i, _)| *i == ino);
                    let r = mt.set_child_size(ino, size, now);
                    if live {
                        prop_assert!(r.is_ok());
                        for v in model.values_mut() {
                            if v.0 == ino {
                                v.1 = size;
                            }
                        }
                    } else {
                        prop_assert_eq!(r.unwrap_err(), FsError::Stale);
                    }
                }
            }
            prop_assert_eq!(mt.len(), model.len());
        }
        // Final state agrees: names, inos, sizes.
        let mut listed: Vec<(String, u128, u64)> = mt
            .readdir()
            .into_iter()
            .map(|e| {
                let size = mt.child_inode(e.ino).unwrap().size;
                (e.name, e.ino, size)
            })
            .collect();
        listed.sort();
        let mut expect: Vec<(String, u128, u64)> =
            model.into_iter().map(|(n, (i, s))| (n, i, s)).collect();
        expect.sort();
        prop_assert_eq!(listed, expect);
    }
}

// ---- batched data path vs sequential reference --------------------------------

/// Chunk size for the data-path differential tests (small, so random
/// offsets exercise many chunk boundaries and sub-chunk pieces).
const DP_CHUNK: u64 = 16;
const DP_INO: u128 = 42;

/// The seed's serial per-chunk data path, kept verbatim as the reference
/// the batched PRT must agree with byte-for-byte.
struct SerialRef {
    store: Arc<ObjectCluster>,
    port: Port,
}

impl SerialRef {
    fn new(s3: bool) -> Self {
        let mut cfg = ClusterConfig::test_tiny();
        if s3 {
            cfg.profile = StoreProfile::s3(&cfg.spec);
        }
        SerialRef {
            store: Arc::new(ObjectCluster::new(cfg)),
            port: Port::new(),
        }
    }

    fn write(&self, offset: u64, data: &[u8]) {
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let chunk_idx = pos / DP_CHUNK;
            let within = pos % DP_CHUNK;
            let n = ((DP_CHUNK - within) as usize).min(data.len() - written);
            let piece = Bytes::copy_from_slice(&data[written..written + n]);
            let key = ObjectKey::data_chunk(DP_INO, chunk_idx);
            match self.store.put_range(&self.port, key, within, piece.clone()) {
                Ok(()) => {}
                Err(OsError::Unsupported(_)) => {
                    let mut chunk = match self.store.get(&self.port, key) {
                        Ok(existing) => existing.to_vec(),
                        Err(OsError::NotFound) => Vec::new(),
                        Err(e) => panic!("reference write: {e:?}"),
                    };
                    let end = within as usize + n;
                    if chunk.len() < end {
                        chunk.resize(end, 0);
                    }
                    chunk[within as usize..end].copy_from_slice(&piece);
                    self.store.put(&self.port, key, Bytes::from(chunk)).unwrap();
                }
                Err(e) => panic!("reference write: {e:?}"),
            }
            written += n;
        }
    }

    fn read(&self, offset: u64, buf: &mut [u8], size: u64) -> usize {
        if offset >= size {
            return 0;
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut filled = 0usize;
        while filled < want {
            let pos = offset + filled as u64;
            let chunk_idx = pos / DP_CHUNK;
            let within = pos % DP_CHUNK;
            let n = ((DP_CHUNK - within) as usize).min(want - filled);
            let out = &mut buf[filled..filled + n];
            match self.store.get_range(
                &self.port,
                ObjectKey::data_chunk(DP_INO, chunk_idx),
                within,
                n,
            ) {
                Ok(data) => {
                    out[..data.len()].copy_from_slice(&data);
                    out[data.len()..].fill(0);
                }
                Err(OsError::NotFound) => out.fill(0),
                Err(e) => panic!("reference read: {e:?}"),
            }
            filled += n;
        }
        want
    }
}

fn run_data_path_ops(ops: &[(u64, usize, u8, bool)], s3: bool) {
    let mut cfg = ClusterConfig::test_tiny();
    if s3 {
        cfg.profile = StoreProfile::s3(&cfg.spec);
    }
    let batched = Prt::new(
        Arc::new(ObjectCluster::new(cfg)) as Arc<dyn ObjectStore>,
        DP_CHUNK,
    );
    let batched_port = Port::new();
    let serial = SerialRef::new(s3);
    // Plain in-memory model of the file bytes (sparse regions are zero).
    let mut model: Vec<u8> = Vec::new();
    for &(offset, len, seed, is_write) in ops {
        if is_write {
            let data: Vec<u8> = (0..len)
                .map(|i| seed.wrapping_add(i as u8).max(1))
                .collect();
            batched
                .write_data(&batched_port, DP_INO, offset, &data)
                .unwrap();
            serial.write(offset, &data);
            let end = offset as usize + len;
            if model.len() < end {
                model.resize(end, 0);
            }
            model[offset as usize..end].copy_from_slice(&data);
        } else {
            let size = model.len() as u64;
            let mut got = vec![0xAAu8; len];
            let n = batched
                .read_data(&batched_port, DP_INO, offset, &mut got, size)
                .unwrap();
            let mut want = vec![0xAAu8; len];
            let n_ref = serial.read(offset, &mut want, size);
            assert_eq!(n, n_ref, "filled-byte count diverges at offset {offset}");
            assert_eq!(got[..n], want[..n_ref], "bytes diverge at offset {offset}");
            let expect: &[u8] = if offset as usize >= model.len() {
                &[]
            } else {
                &model[offset as usize..model.len().min(offset as usize + len)]
            };
            assert_eq!(&got[..n], expect, "batched read disagrees with the model");
        }
    }
    // Final full-file read agrees everywhere.
    let size = model.len() as u64;
    let mut got = vec![0u8; model.len()];
    let n = batched
        .read_data(&batched_port, DP_INO, 0, &mut got, size)
        .unwrap();
    assert_eq!(n, model.len());
    assert_eq!(got, model);
}

proptest! {
    #[test]
    fn batched_data_path_matches_sequential_reference_rados(
        ops in prop::collection::vec((0u64..6 * DP_CHUNK, 1usize..80, any::<u8>(), any::<bool>()), 1..30),
    ) {
        run_data_path_ops(&ops, false);
    }

    #[test]
    fn batched_data_path_matches_sequential_reference_s3(
        ops in prop::collection::vec((0u64..6 * DP_CHUNK, 1usize..80, any::<u8>(), any::<bool>()), 1..30),
    ) {
        run_data_path_ops(&ops, true);
    }
}

// ---- causal tracing: critical-path conservation -------------------------------

/// Run a random op mix on a fully-traced single-client deployment and
/// check the critical-path analyzer's conservation law: every trace's
/// segment attribution sums *exactly* to its root span duration, and
/// the per-op totals agree with the client's own ack-latency histograms
/// (same count, same exact sum/min/max — i.e. well within the ±1
/// log-linear bucket the histogram itself can resolve).
fn run_critpath_conservation(ops: &[(u8, u8, u8)], s3: bool) {
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_telemetry::{critpath, FlightDumpGuard};
    use arkfs_vfs::{Credentials, OpenFlags, Vfs};

    let config = ArkConfig::default();
    let store_cfg = if s3 {
        ClusterConfig::s3(config.spec.clone())
    } else {
        ClusterConfig::rados(config.spec.clone())
    };
    let cluster = ArkCluster::new(config, Arc::new(ObjectCluster::new(store_cfg)));
    let tel = Arc::clone(cluster.telemetry());
    // sample_every = 0 records every op's trace; the flight recorder
    // dumps the per-op event trail if this test panics.
    tel.tracer.set_enabled(true);
    tel.flight.set_enabled(true);
    let _dump = FlightDumpGuard::new(&tel.flight, "property.critpath");

    let client = cluster.client();
    let ctx = Credentials::root();
    for &(dir, file, kind) in ops {
        let d = format!("/d{}", dir % 4);
        let p = format!("{d}/f{}", file % 6);
        // Every call goes through `traced()`, so errors (AlreadyExists,
        // NotFound, ...) still produce a root span and a histogram
        // sample; conservation must hold for them too.
        match kind % 4 {
            0 => {
                let _ = client.mkdir(&ctx, &d, 0o755);
            }
            1 => {
                if let Ok(fh) = client.create(&ctx, &p, 0o644) {
                    let _ = client.write(&ctx, fh, 0, &[kind; 512]);
                    let _ = client.close(&ctx, fh);
                }
            }
            2 => {
                let _ = client.stat(&ctx, &p);
            }
            _ => {
                if let Ok(fh) = client.open(&ctx, &p, OpenFlags::RDONLY) {
                    let mut buf = [0u8; 256];
                    let _ = client.read(&ctx, fh, 0, &mut buf);
                    let _ = client.close(&ctx, fh);
                }
            }
        }
    }
    let _ = client.sync_all(&ctx);

    let breakdowns = critpath::analyze(&tel.tracer.events());
    assert!(!breakdowns.is_empty(), "no complete traces analyzed");
    let mut by_op: HashMap<String, (u64, u64, u64, u64)> = HashMap::default();
    for b in &breakdowns {
        assert_eq!(
            b.segs.iter().sum::<u64>(),
            b.total,
            "trace {:#x} ({}): segments must sum to the ack window",
            b.trace_id,
            b.root_name
        );
        let e = by_op
            .entry(b.root_name.clone())
            .or_insert((0, 0, u64::MAX, 0));
        e.0 += 1;
        e.1 += b.total;
        e.2 = e.2.min(b.total);
        e.3 = e.3.max(b.total);
    }
    for (name, (count, sum, min, max)) in by_op {
        let hist = tel
            .registry
            .histogram(&format!("{name}.latency_ns"))
            .snapshot();
        assert_eq!(hist.count(), count, "{name}: trace count vs histogram");
        assert_eq!(hist.sum(), sum, "{name}: ack-latency sum vs histogram");
        assert_eq!(hist.min(), min, "{name}: min vs histogram");
        assert_eq!(hist.max(), max, "{name}: max vs histogram");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn critpath_segments_sum_to_ack_latency_rados(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        run_critpath_conservation(&ops, false);
    }

    #[test]
    fn critpath_segments_sum_to_ack_latency_s3(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        run_critpath_conservation(&ops, true);
    }
}

// ---- cached read path vs a byte-vector model -----------------------------------

#[derive(Debug, Clone)]
enum FileOp {
    /// Read on from where the previous read ended (a stream).
    Next(usize),
    /// Read somewhere else.
    Seek(u64, usize),
    Write(u64, usize, u8),
    Truncate(u64),
    DropCache,
    /// A second client reads the file: through the handle it kept from
    /// its last read, if any, then all of it through a new handle, which
    /// it keeps in place of the old one or closes with it. Its lease
    /// drains the first client's cache, PUTs in flight included, and no
    /// handle of its own reads chunks a write has since replaced.
    ReadElsewhere {
        keep: bool,
    },
    /// The first client closes its handle and opens another: its lease
    /// goes back, and the second client's may be granted.
    Reopen,
    /// The first client closes its handle, its dirty chunks' PUTs behind
    /// it, and the second client reads the whole file right away, with
    /// no `sync_all` between: it gets every byte, and its open comes
    /// back no earlier than the PUTs' acks.
    CloseThenReadElsewhere,
    /// The first client unlinks the file, its chunk DELETEs behind it,
    /// and creates it again: the new file (a fresh ino) reads only its
    /// own bytes.
    Unlink,
}

fn arb_file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        (1usize..40).prop_map(FileOp::Next),
        (40usize..200).prop_map(FileOp::Next),
        (0u64..1200, 1usize..200).prop_map(|(offset, len)| FileOp::Seek(offset, len)),
        (0u64..1200, 1usize..200, any::<u8>())
            .prop_map(|(offset, len, seed)| FileOp::Write(offset, len, seed)),
        (0u64..1200).prop_map(FileOp::Truncate),
        Just(FileOp::DropCache),
        any::<bool>().prop_map(|keep| FileOp::ReadElsewhere { keep }),
        Just(FileOp::Reopen),
        Just(FileOp::CloseThenReadElsewhere),
        Just(FileOp::Unlink),
    ]
}

proptest! {
    /// One handle on one file of 64-byte chunks (256-byte read-ahead)
    /// through caches from one entry up: whatever mix of streaming and
    /// random reads, writes (whose dirty evictions go behind the writer),
    /// truncates, cache drops, reopens, unlinks and reads by a second
    /// client that keeps handles open or reads right after a close, a
    /// read returns the model's bytes, and no fill loses a chunk it
    /// installed.
    #[test]
    fn cached_reads_agree_with_a_byte_vector_model(
        entries in prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(6usize)],
        ops in prop::collection::vec(arb_file_op(), 1..60),
    ) {
        use arkfs::{cache::Stat, ArkCluster, ArkConfig};
        use arkfs_vfs::{Credentials, OpenFlags, Vfs};

        let config = ArkConfig { cache_entries: entries, ..ArkConfig::test_tiny() };
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let cluster = ArkCluster::new(config, store);
        let (c, other) = (cluster.client(), cluster.client());
        let ctx = Credentials::root();
        let created = c.create(&ctx, "/f", 0o644).unwrap();
        c.close(&ctx, created).unwrap();
        let mut fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
        // Everything `other` reads through `h`, up to `limit` bytes.
        let read_all = |h, limit: usize| {
            let mut got = vec![0u8; limit];
            let mut n = 0;
            while n < limit {
                match other.read(&ctx, h, n as u64, &mut got[n..]).unwrap() {
                    0 => break,
                    k => n += k,
                }
            }
            got.truncate(n);
            got
        };
        let mut kept = None;
        let mut model: Vec<u8> = Vec::new();
        let mut pos = 0u64;
        for op in ops {
            let (offset, len) = match op {
                FileOp::Next(len) => (pos, len),
                FileOp::Seek(offset, len) => (offset, len),
                FileOp::Write(offset, len, seed) => {
                    let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8).max(1)).collect();
                    c.write(&ctx, fh, offset, &data).unwrap();
                    let end = offset as usize + len;
                    model.resize(model.len().max(end), 0);
                    model[offset as usize..end].copy_from_slice(&data);
                    continue;
                }
                FileOp::Truncate(size) => {
                    c.truncate(&ctx, "/f", size).unwrap();
                    model.resize(size as usize, 0);
                    continue;
                }
                FileOp::DropCache => {
                    c.drop_data_cache().unwrap();
                    continue;
                }
                FileOp::ReadElsewhere { keep } => {
                    // A kept handle knows the size of its open: what it
                    // reads of the model's bytes must be theirs.
                    if let Some(old) = kept {
                        let got = read_all(old, model.len());
                        prop_assert_eq!(&got[..], &model[..got.len()], "kept handle");
                    }
                    // A new one sees the size the leader knows: what the
                    // first client has pushed, never more than the model.
                    let h = other.open(&ctx, "/f", OpenFlags::RDONLY).unwrap();
                    let got = read_all(h, model.len() + 1);
                    prop_assert!(got.len() <= model.len());
                    prop_assert_eq!(&got[..], &model[..got.len()]);
                    if let Some(old) = std::mem::replace(&mut kept, keep.then_some(h)) {
                        other.close(&ctx, old).unwrap();
                    }
                    if !keep {
                        other.close(&ctx, h).unwrap();
                    }
                    continue;
                }
                FileOp::Reopen => {
                    c.close(&ctx, fh).unwrap();
                    fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
                    continue;
                }
                FileOp::CloseThenReadElsewhere => {
                    let ino = c.stat(&ctx, "/f").unwrap().ino;
                    c.close(&ctx, fh).unwrap();
                    let chunks = (model.len() as u64).div_ceil(64);
                    let acked = (0..chunks).map(|k| c.write_behind_until(ino, k)).max();
                    let h = other.open(&ctx, "/f", OpenFlags::RDONLY).unwrap();
                    prop_assert!(other.port().now() >= acked.unwrap_or(0), "open before the acks");
                    let got = read_all(h, model.len() + 1);
                    prop_assert_eq!(&got[..], &model[..], "read right after the close");
                    other.close(&ctx, h).unwrap();
                    fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
                    continue;
                }
                FileOp::Unlink => {
                    if let Some(old) = kept.take() {
                        other.close(&ctx, old).unwrap();
                    }
                    c.close(&ctx, fh).unwrap();
                    c.unlink(&ctx, "/f").unwrap();
                    prop_assert_eq!(c.stat(&ctx, "/f"), Err(FsError::NotFound));
                    fh = c.create(&ctx, "/f", 0o644).unwrap();
                    model.clear();
                    continue;
                }
            };
            let mut got = vec![0xAAu8; len];
            let n = c.read(&ctx, fh, offset, &mut got).unwrap();
            let start = (offset as usize).min(model.len());
            let want = &model[start..model.len().min(start + len)];
            prop_assert_eq!(&got[..n], want, "{} bytes at {}, {} entries", len, offset, entries);
            prop_assert_eq!(c.cache_stat(Stat::FillLost), 0);
            pos = offset + n as u64;
        }
        c.close(&ctx, fh).unwrap();
        if let Some(h) = kept {
            other.close(&ctx, h).unwrap();
        }
        prop_assert_eq!(arkfs_vfs::read_file(&*c, &ctx, "/f").unwrap(), model);
    }
}

// ---- cache LRU invariants -----------------------------------------------------

proptest! {
    /// Dirty evictions go behind the writer with acks out of order (a
    /// latency drawn from the written byte): resident entries plus PUTs
    /// in flight never exceed capacity once a write returns, and no write
    /// is lost.
    #[test]
    fn cache_never_exceeds_capacity_and_never_loses_dirty_data(
        capacity in 1usize..16,
        ops in prop::collection::vec((0u128..4, 0u64..32, any::<u8>(), any::<bool>()), 1..200),
    ) {
        let mut cache = DataCache::new(capacity);
        // Ground truth of every chunk ever written, and where flushed
        // bytes went (the store applies a PUT's bytes at issue).
        let mut truth: HashMap<(u128, u64), u8> = HashMap::default();
        let mut store: HashMap<(u128, u64), u8> = HashMap::default();
        let mut now = 0;
        for (ino, chunk, val, is_write) in ops {
            now += 10;
            if is_write {
                let behind = cache.write_many(ino, 1, chunk, &[val], HashMap::default(), now);
                truth.insert((ino, chunk), val);
                let ack = now + 1 + u64::from(val % 64);
                for e in &behind {
                    store.insert((e.ino, e.chunk), e.data[0]);
                }
                let issued = behind.iter().map(|e| (e.ino, e.chunk, ack + e.chunk));
                let until = cache.went_behind(issued.collect::<Vec<_>>(), Stat::WriteBehind, now);
                prop_assert!(until >= now);
                now = until;
            } else if let Some(data) = cache.get(ino, chunk) {
                // A cached chunk always reflects the latest write.
                prop_assert_eq!(data[0], truth[&(ino, chunk)]);
            }
            prop_assert!(cache.len() + cache.in_flight() <= capacity);
        }
        // Flush everything left; store + flush must cover every write
        // with the LATEST value (no dirty data lost or reordered stale).
        for e in cache.take_all_dirty() {
            store.insert((e.ino, e.chunk), e.data[0]);
        }
        for (key, val) in truth {
            prop_assert_eq!(store.get(&key), Some(&val), "chunk {:?}", key);
        }
    }
}
