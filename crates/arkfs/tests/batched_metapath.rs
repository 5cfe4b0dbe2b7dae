//! Acceptance and differential tests for the batched metadata path:
//! metatable load (leader takeover), checkpoint, and journal recovery
//! must fan their object I/O out in batched store calls — paying the
//! slowest object instead of one round trip per object — while leaving
//! the store byte-identical to the seed's serial per-object loops.

use arkfs::journal::{DirJournal, JournalOp, Transaction};
use arkfs::meta::{dentry_bucket, DentryBlock, DentryEntry, InodeRecord};
use arkfs::metatable::{recover_directory, Metatable};
use arkfs::prt::Prt;
use arkfs::wire::{WireCodec, WireError};
use arkfs_objstore::{
    ClusterConfig, KeyKind, ObjectCluster, ObjectKey, ObjectStore, OsError, StoreProfile,
};
use arkfs_simkit::hash::{HashMap, HashSet};
use arkfs_simkit::{ClusterSpec, Port, SharedResource};
use arkfs_vfs::{FileType, FsError, Ino};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

const DIR: Ino = 100;

fn dir_rec() -> InodeRecord {
    dir_rec_at(DIR)
}

fn dir_rec_at(ino: Ino) -> InodeRecord {
    InodeRecord::new(ino, FileType::Directory, 0o755, 0, 0, 0)
}

fn file_rec(ino: Ino) -> InodeRecord {
    InodeRecord::new(ino, FileType::Regular, 0o644, 0, 0, 0)
}

/// Every stored (key, bytes) pair, sorted by key; replicas dedupe.
fn store_contents(cluster: &Arc<ObjectCluster>) -> Vec<(ObjectKey, Bytes)> {
    let port = Port::new();
    cluster
        .list(&port, None, None)
        .unwrap()
        .into_iter()
        .map(|key| {
            let data = cluster.get(&port, key).unwrap();
            (key, data)
        })
        .collect()
}

/// The seed's serial recovery loop, kept as the reference the batched
/// [`recover_directory`] must agree with: one GET per journal object,
/// one GET per base-state object, one PUT/DELETE per written-back
/// object. Handles the four basic ops (no 2PC records — the callers
/// here never generate them). Returns (replayed, next_seq).
fn serial_recover(prt: &Prt, port: &Port, dir_ino: Ino, buckets: u64) -> (usize, u64) {
    let seqs = prt.list_journal(port, dir_ino).unwrap();
    let next_seq = seqs.last().map_or(0, |s| s + 1);
    let mut txns = Vec::new();
    for &s in &seqs {
        match prt.store().get(port, ObjectKey::journal(dir_ino, s)) {
            Ok(data) => match Transaction::unseal(&data) {
                Ok(t) => txns.push(t),
                Err(WireError::BadChecksum) | Err(WireError::Truncated) => {}
                Err(e) => panic!("reference recovery: {e:?}"),
            },
            Err(OsError::NotFound) => {}
            Err(e) => panic!("reference recovery: {e:?}"),
        }
    }
    txns.sort_by_key(|t| t.seq);
    if txns.is_empty() {
        return (0, next_seq);
    }
    let mut dir = match prt.load_inode(port, dir_ino) {
        Ok(rec) => Some(rec),
        Err(FsError::NotFound) => None,
        Err(e) => panic!("reference recovery: {e:?}"),
    };
    let mut dentries: HashMap<String, DentryEntry> = HashMap::default();
    for b in 0..buckets {
        for e in load_bucket(prt, port, dir_ino, b).entries {
            dentries.insert(e.name.clone(), e);
        }
    }
    let mut put_inodes: HashMap<Ino, InodeRecord> = HashMap::default();
    let mut del_inodes: HashSet<Ino> = HashSet::default();
    for txn in &txns {
        for op in &txn.ops {
            match op {
                JournalOp::PutInode(rec) => {
                    if rec.ino == dir_ino {
                        dir = Some(rec.clone());
                    } else {
                        del_inodes.remove(&rec.ino);
                        put_inodes.insert(rec.ino, rec.clone());
                    }
                }
                JournalOp::DeleteInode(ino) => {
                    put_inodes.remove(ino);
                    del_inodes.insert(*ino);
                }
                JournalOp::UpsertDentry { name, ino, ftype } => {
                    dentries.insert(
                        name.clone(),
                        DentryEntry {
                            name: name.clone(),
                            ino: *ino,
                            ftype: *ftype,
                        },
                    );
                }
                JournalOp::RemoveDentry { name } => {
                    dentries.remove(name);
                }
                other => panic!("reference recovery: unexpected 2PC op {other:?}"),
            }
        }
    }
    if let Some(d) = &dir {
        prt.store_inode(port, d).unwrap();
    }
    for rec in put_inodes.values() {
        prt.store_inode(port, rec).unwrap();
    }
    for &ino in &del_inodes {
        prt.delete_inode(port, ino).unwrap();
    }
    for b in 0..buckets {
        store_bucket(prt, port, dir_ino, b, &bucket_of(&dentries, b, buckets));
    }
    for &s in &seqs {
        match prt.store().delete(port, ObjectKey::journal(dir_ino, s)) {
            Ok(()) | Err(OsError::NotFound) => {}
            Err(e) => panic!("reference recovery: {e:?}"),
        }
    }
    (txns.len(), next_seq)
}

/// One GET of a dentry bucket; a missing object is an empty bucket.
fn load_bucket(prt: &Prt, port: &Port, dir: Ino, bucket: u64) -> DentryBlock {
    match prt.store().get(port, ObjectKey::dentry_bucket(dir, bucket)) {
        Ok(data) => DentryBlock::from_bytes(&data).unwrap(),
        Err(OsError::NotFound) => DentryBlock::default(),
        Err(e) => panic!("bucket {bucket}: {e:?}"),
    }
}

/// One PUT of a dentry bucket, or one DELETE of an empty one.
fn store_bucket(prt: &Prt, port: &Port, dir: Ino, bucket: u64, block: &DentryBlock) {
    let key = ObjectKey::dentry_bucket(dir, bucket);
    let res = if block.entries.is_empty() {
        prt.store().delete(port, key)
    } else {
        prt.store().put(port, key, Bytes::from(block.to_bytes()))
    };
    match res {
        Ok(()) | Err(OsError::NotFound) => {}
        Err(e) => panic!("bucket {bucket}: {e:?}"),
    }
}

fn bucket_of(dentries: &HashMap<String, DentryEntry>, bucket: u64, buckets: u64) -> DentryBlock {
    let mut entries: Vec<DentryEntry> = dentries
        .values()
        .filter(|e| dentry_bucket(&e.name, buckets) == bucket)
        .cloned()
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    DentryBlock { entries }
}

// ---- acceptance: takeover and checkpoint halve the serial virtual time --------

mod acceptance {
    use super::*;

    const BUCKETS: u64 = 128;
    const ENTRIES: u64 = 1024;
    const EXTRA: u64 = 8;
    const CHUNK: u64 = 64 * 1024;

    fn rados_cluster() -> Arc<ObjectCluster> {
        Arc::new(ObjectCluster::new(ClusterConfig::rados(
            ClusterSpec::aws_paper(),
        )))
    }

    /// A flushed 1024-entry directory plus `extra` committed-but-not-
    /// checkpointed creates the crash leaves in the journal, so the next
    /// leader's takeover includes recovery. Timelines reset afterwards so
    /// the measured takeover starts on an idle store. With `extra` 0 the
    /// directory is flushed and its journal empty.
    fn populate(cluster: &Arc<ObjectCluster>, extra: u64) {
        let prt = Prt::new(Arc::clone(cluster) as Arc<dyn ObjectStore>, CHUNK);
        let port = Port::new();
        let lane = SharedResource::ideal("setup-lane");
        prt.store_inode(&port, &dir_rec()).unwrap();
        let mut mt = Metatable::fresh(dir_rec(), BUCKETS, 1000);
        for i in 0..ENTRIES {
            mt.create_child(file_rec(1000 + i as Ino), &format!("f{i:04}"), i)
                .unwrap();
        }
        mt.flush(&prt, &port, &lane, 0).unwrap();
        for i in 0..extra {
            mt.create_child(file_rec(5000 + i as Ino), &format!("x{i}"), 2000 + i)
                .unwrap();
        }
        mt.journal.commit(&prt, &port, &lane, 0).unwrap();
        drop(mt); // crash before checkpoint
        cluster.reset_timelines();
    }

    /// The seed's serial takeover: serial recovery, then the double
    /// journal LIST to compute the resume point, then one GET per bucket
    /// and one GET per child inode.
    fn serial_takeover(
        prt: &Prt,
        port: &Port,
        dir_ino: Ino,
        buckets: u64,
    ) -> (
        InodeRecord,
        HashMap<String, DentryEntry>,
        HashMap<Ino, InodeRecord>,
    ) {
        serial_recover(prt, port, dir_ino, buckets);
        let _resume = prt
            .list_journal(port, dir_ino)
            .unwrap()
            .last()
            .map_or(0, |s| s + 1);
        let dir = prt.load_inode(port, dir_ino).unwrap();
        let mut dentries = HashMap::default();
        for b in 0..buckets {
            for e in load_bucket(prt, port, dir_ino, b).entries {
                dentries.insert(e.name.clone(), e);
            }
        }
        let mut children = HashMap::default();
        for e in dentries.values() {
            if e.ftype != FileType::Directory {
                children.insert(e.ino, prt.load_inode(port, e.ino).unwrap());
            }
        }
        (dir, dentries, children)
    }

    #[test]
    fn takeover_of_1024_entry_directory_halves_serial_virtual_time() {
        let c_serial = rados_cluster();
        populate(&c_serial, EXTRA);
        let c_batched = rados_cluster();
        populate(&c_batched, EXTRA);

        let prt_serial = Prt::new(Arc::clone(&c_serial) as Arc<dyn ObjectStore>, CHUNK);
        let serial_port = Port::new();
        let (sdir, sdentries, schildren) = serial_takeover(&prt_serial, &serial_port, DIR, BUCKETS);

        let prt_batched = Prt::new(Arc::clone(&c_batched) as Arc<dyn ObjectStore>, CHUNK);
        let batched_port = Port::new();
        let mt = Metatable::load(&prt_batched, &batched_port, DIR, BUCKETS, 1000).unwrap();

        // Identical in-memory takeover results.
        assert_eq!(mt.len() as u64, ENTRIES + EXTRA);
        assert_eq!(mt.len(), sdentries.len());
        assert_eq!(mt.dir, sdir);
        for e in mt.readdir() {
            let s = &sdentries[&e.name];
            assert_eq!((s.ino, s.ftype), (e.ino, e.ftype), "dentry {}", e.name);
            assert_eq!(
                mt.child_inode(e.ino),
                schildren.get(&e.ino),
                "child inode {}",
                e.name
            );
        }
        // Identical store contents after the recovery write-back.
        assert_eq!(store_contents(&c_batched), store_contents(&c_serial));
        assert!(
            batched_port.now() * 2 <= serial_port.now(),
            "batched takeover must take <= 1/2 the serial virtual time \
             (batched {} ns vs serial {} ns)",
            batched_port.now(),
            serial_port.now()
        );
    }

    /// Store GETs, PUTs, DELETEs and LISTs, `meta.takeover.objects`
    /// and virtual ns of one takeover of the 1024-entry directory.
    fn takeover_price(extra: u64) -> [u64; 6] {
        let cluster = rados_cluster();
        populate(&cluster, extra);
        let prt = Prt::new(Arc::clone(&cluster) as Arc<dyn ObjectStore>, CHUNK);
        let objects = prt.telemetry().registry.counter("meta.takeover.objects");
        let s = &cluster.stats;
        let count = || {
            [
                s.gets.get(),
                s.puts.get(),
                s.deletes.get(),
                s.lists.get(),
                objects.get(),
            ]
        };
        let (before, port) = (count(), Port::new());
        let mt = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert_eq!(mt.len() as u64, ENTRIES + extra);
        let after = count();
        std::array::from_fn(|i| after.get(i).map_or(port.now(), |a| a - before[i]))
    }

    /// Pins the price of a takeover, flushed and crashed, so a change
    /// to the load or recovery path shows what it moved.
    #[test]
    fn takeover_prices_of_the_1024_entry_directory() {
        // Flushed: pmap GET, LIST, dir GET, 128 bucket GETs and 1024
        // child inode GETs; nothing written.
        assert_eq!(takeover_price(0), [1_154, 0, 0, 1, 1_153, 15_214_673]);
        // Crashed with 8 journaled creates: the same reads plus the
        // journal object; the checkpoint writes the directory inode, the
        // 8 replayed children and their dirty buckets and deletes the
        // stream; the 8 replayed children are not fetched again.
        assert_eq!(takeover_price(EXTRA), [1_155, 17, 1, 1, 1_153, 16_018_334]);
    }

    const CKPT_CHILDREN: u64 = 256;

    /// A directory with 256 dirty (never-checkpointed) children and one
    /// committed journal transaction, on a reset timeline.
    fn dirty_table(cluster: &Arc<ObjectCluster>) -> (Prt, Metatable) {
        let prt = Prt::new(Arc::clone(cluster) as Arc<dyn ObjectStore>, CHUNK);
        let port = Port::new();
        let lane = SharedResource::ideal("setup-lane");
        prt.store_inode(&port, &dir_rec()).unwrap();
        let mut mt = Metatable::fresh(dir_rec(), BUCKETS, 1000);
        for i in 0..CKPT_CHILDREN {
            mt.create_child(file_rec(1000 + i as Ino), &format!("c{i:03}"), i)
                .unwrap();
        }
        mt.journal.commit(&prt, &port, &lane, 0).unwrap();
        cluster.reset_timelines();
        (prt, mt)
    }

    #[test]
    fn checkpoint_of_dirty_children_halves_serial_virtual_time() {
        // The seed's serial checkpoint: one round trip per dirty object.
        let c_serial = rados_cluster();
        let (prt_s, mt_s) = dirty_table(&c_serial);
        let serial_port = Port::new();
        prt_s.store_inode(&serial_port, &mt_s.dir).unwrap();
        let entries: HashMap<String, DentryEntry> = mt_s
            .readdir()
            .into_iter()
            .map(|e| {
                (
                    e.name.clone(),
                    DentryEntry {
                        name: e.name,
                        ino: e.ino,
                        ftype: e.ftype,
                    },
                )
            })
            .collect();
        for e in entries.values() {
            prt_s
                .store_inode(&serial_port, mt_s.child_inode(e.ino).unwrap())
                .unwrap();
        }
        let dirty: HashSet<u64> = entries
            .values()
            .map(|e| dentry_bucket(&e.name, BUCKETS))
            .collect();
        for &b in &dirty {
            let block = bucket_of(&entries, b, BUCKETS);
            store_bucket(&prt_s, &serial_port, DIR, b, &block);
        }
        let journal = ObjectKey::journal(DIR, 0);
        prt_s.store().delete(&serial_port, journal).unwrap();

        // The batched checkpoint.
        let c_batched = rados_cluster();
        let (prt_b, mut mt_b) = dirty_table(&c_batched);
        let batched_port = Port::new();
        mt_b.checkpoint(&prt_b, &batched_port).unwrap();

        assert_eq!(store_contents(&c_batched), store_contents(&c_serial));
        assert!(
            batched_port.now() * 2 <= serial_port.now(),
            "batched checkpoint must take <= 1/2 the serial virtual time \
             (batched {} ns vs serial {} ns)",
            batched_port.now(),
            serial_port.now()
        );
    }
}

// ---- property: batched paths are byte-identical to the serial reference -------

const PBUCKETS: u64 = 4;

fn test_cluster(s3: bool) -> (Arc<ObjectCluster>, Prt) {
    let mut cfg = ClusterConfig::test_tiny();
    if s3 {
        cfg.profile = StoreProfile::s3(&cfg.spec);
    }
    let cluster = Arc::new(ObjectCluster::new(cfg));
    let prt = Prt::new(Arc::clone(&cluster) as Arc<dyn ObjectStore>, 64);
    (cluster, prt)
}

#[derive(Debug, Clone)]
enum RecOp {
    PutInode(u128, u64),
    DeleteInode(u128),
    Upsert(String, u128),
    Remove(String),
}

fn arb_rec_op() -> impl Strategy<Value = RecOp> {
    prop_oneof![
        (2u128..60, any::<u64>()).prop_map(|(i, s)| RecOp::PutInode(i, s)),
        (2u128..60).prop_map(RecOp::DeleteInode),
        ("[a-e]{1,3}", 2u128..60).prop_map(|(n, i)| RecOp::Upsert(n, i)),
        "[a-e]{1,3}".prop_map(RecOp::Remove),
    ]
}

fn to_journal_op(op: &RecOp) -> JournalOp {
    match op {
        RecOp::PutInode(ino, size) => {
            let mut rec = file_rec(*ino);
            rec.size = *size;
            JournalOp::PutInode(rec)
        }
        RecOp::DeleteInode(ino) => JournalOp::DeleteInode(*ino),
        RecOp::Upsert(name, ino) => JournalOp::UpsertDentry {
            name: name.clone(),
            ino: *ino,
            ftype: FileType::Regular,
        },
        RecOp::Remove(name) => JournalOp::RemoveDentry { name: name.clone() },
    }
}

/// Differential recovery: identical base state + journal stream (some
/// transactions torn) on two clusters; batched recovery on one, the
/// serial reference on the other; both must agree on what was replayed
/// and leave byte-identical stores.
fn run_recovery_case(
    base_inodes: &[(u128, u64)],
    base_dentries: &[(String, u128)],
    txns: &[(Vec<RecOp>, bool)],
    s3: bool,
) {
    let (c_a, prt_a) = test_cluster(s3);
    let (c_b, prt_b) = test_cluster(s3);
    let setup = Port::new();
    for prt in [&prt_a, &prt_b] {
        prt.store_inode(&setup, &dir_rec()).unwrap();
        for &(ino, size) in base_inodes {
            let mut rec = file_rec(ino);
            rec.size = size;
            prt.store_inode(&setup, &rec).unwrap();
        }
        let mut dentries: HashMap<String, DentryEntry> = HashMap::default();
        for (name, ino) in base_dentries {
            dentries.insert(
                name.clone(),
                DentryEntry {
                    name: name.clone(),
                    ino: *ino,
                    ftype: FileType::Regular,
                },
            );
        }
        for b in 0..PBUCKETS {
            let block = bucket_of(&dentries, b, PBUCKETS);
            if !block.entries.is_empty() {
                store_bucket(prt, &setup, DIR, b, &block);
            }
        }
        for (seq, (ops, torn)) in txns.iter().enumerate() {
            let sealed = Transaction {
                dir: DIR,
                seq: seq as u64,
                ops: ops.iter().map(to_journal_op).collect(),
            }
            .seal();
            let bytes = if *torn {
                sealed.slice(..sealed.len().saturating_sub(3))
            } else {
                sealed
            };
            prt.put_journal_many(&setup, &[(DIR, seq as u64, bytes)])
                .unwrap();
        }
    }

    let port_a = Port::new();
    let batched = recover_directory(&prt_a, &port_a, DIR, PBUCKETS).unwrap();
    let port_b = Port::new();
    let (replayed_s, next_s) = serial_recover(&prt_b, &port_b, DIR, PBUCKETS);

    assert_eq!(batched.replayed, replayed_s);
    assert_eq!(batched.next_seq, next_s);
    assert_eq!(store_contents(&c_a), store_contents(&c_b));
}

proptest! {
    #[test]
    fn batched_recovery_matches_sequential_reference_rados(
        base_inodes in prop::collection::vec((2u128..60, any::<u64>()), 0..8),
        base_dentries in prop::collection::vec(("[a-e]{1,3}", 2u128..60), 0..8),
        txns in prop::collection::vec((prop::collection::vec(arb_rec_op(), 1..6), any::<bool>()), 0..6),
    ) {
        run_recovery_case(&base_inodes, &base_dentries, &txns, false);
    }

    #[test]
    fn batched_recovery_matches_sequential_reference_s3(
        base_inodes in prop::collection::vec((2u128..60, any::<u64>()), 0..8),
        base_dentries in prop::collection::vec(("[a-e]{1,3}", 2u128..60), 0..8),
        txns in prop::collection::vec((prop::collection::vec(arb_rec_op(), 1..6), any::<bool>()), 0..6),
    ) {
        run_recovery_case(&base_inodes, &base_dentries, &txns, true);
    }
}

#[derive(Debug, Clone)]
enum LcOp {
    Create(String, u128),
    Unlink(String),
    Rename(String, String),
    SetSize(u8, u64),
    Subdir(String, u128),
    RmSubdir(String),
    Commit,
    Checkpoint,
}

fn arb_lc_op() -> impl Strategy<Value = LcOp> {
    prop_oneof![
        ("[a-f]{1,3}", 10u128..100).prop_map(|(n, i)| LcOp::Create(n, i)),
        "[a-f]{1,3}".prop_map(LcOp::Unlink),
        ("[a-f]{1,3}", "[a-f]{1,3}").prop_map(|(a, b)| LcOp::Rename(a, b)),
        (any::<u8>(), any::<u64>()).prop_map(|(s, z)| LcOp::SetSize(s, z)),
        ("[g-h]{1,2}", 200u128..250).prop_map(|(n, i)| LcOp::Subdir(n, i)),
        "[g-h]{1,2}".prop_map(LcOp::RmSubdir),
        Just(LcOp::Commit),
        Just(LcOp::Checkpoint),
    ]
}

/// Differential lifecycle: drive one metatable through a random op
/// sequence with interleaved commits and (batched) checkpoints, then
/// write the final durable state onto a second cluster with the serial
/// per-object primitives. The stores must be byte-identical, and a
/// batched reload must reproduce the in-memory table.
fn run_lifecycle_case(ops: &[LcOp], s3: bool) {
    let (c_a, prt_a) = test_cluster(s3);
    let port = Port::new();
    let lane = SharedResource::ideal("lane");
    prt_a.store_inode(&port, &dir_rec()).unwrap();
    let mut mt = Metatable::fresh(dir_rec(), PBUCKETS, 1000);
    for (t, op) in ops.iter().enumerate() {
        let now = t as u64;
        match op {
            LcOp::Create(name, base) => {
                // Unique ino per creation event.
                let rec = file_rec(base + 1000 * t as u128);
                let _ = mt.create_child(rec, name, now);
            }
            LcOp::Unlink(name) => {
                let _ = mt.unlink_child(name, now);
            }
            LcOp::Rename(from, to) => {
                if from != to {
                    let _ = mt.rename_local(from, to, now);
                }
            }
            LcOp::SetSize(sel, size) => {
                let files: Vec<Ino> = mt
                    .readdir()
                    .into_iter()
                    .filter(|e| e.ftype != FileType::Directory)
                    .map(|e| e.ino)
                    .collect();
                if !files.is_empty() {
                    mt.set_child_size(files[*sel as usize % files.len()], *size, now)
                        .unwrap();
                }
            }
            LcOp::Subdir(name, ino) => {
                let _ = mt.add_subdir(name, *ino, now);
            }
            LcOp::RmSubdir(name) => {
                let _ = mt.remove_subdir(name, now);
            }
            LcOp::Commit => {
                mt.journal.commit(&prt_a, &port, &lane, 0).unwrap();
            }
            LcOp::Checkpoint => {
                mt.journal.commit(&prt_a, &port, &lane, 0).unwrap();
                mt.checkpoint(&prt_a, &port).unwrap();
            }
        }
    }
    mt.journal.commit(&prt_a, &port, &lane, 0).unwrap();
    mt.checkpoint(&prt_a, &port).unwrap();
    assert_eq!(mt.journal.running_len(), 0);
    assert!(prt_a.list_journal(&port, DIR).unwrap().is_empty());

    // Serial reference: the final durable state, one object at a time.
    // (A clean object's stored bytes always equal its current encoding,
    // so writing everything live reproduces the incremental result.)
    let (c_b, prt_b) = test_cluster(s3);
    let port_b = Port::new();
    prt_b.store_inode(&port_b, &mt.dir).unwrap();
    let entries: HashMap<String, DentryEntry> = mt
        .readdir()
        .into_iter()
        .map(|e| {
            (
                e.name.clone(),
                DentryEntry {
                    name: e.name,
                    ino: e.ino,
                    ftype: e.ftype,
                },
            )
        })
        .collect();
    for e in entries.values() {
        if e.ftype != FileType::Directory {
            prt_b
                .store_inode(&port_b, mt.child_inode(e.ino).unwrap())
                .unwrap();
        }
    }
    for b in 0..PBUCKETS {
        let block = bucket_of(&entries, b, PBUCKETS);
        if !block.entries.is_empty() {
            store_bucket(&prt_b, &port_b, DIR, b, &block);
        }
    }
    assert_eq!(store_contents(&c_a), store_contents(&c_b));

    // A batched reload reproduces the table.
    let loaded = Metatable::load(&prt_a, &port, DIR, PBUCKETS, 1000).unwrap();
    assert_eq!(loaded.dir, mt.dir);
    assert_eq!(loaded.readdir(), mt.readdir());
    for e in loaded.readdir() {
        assert_eq!(loaded.child_inode(e.ino), mt.child_inode(e.ino));
    }
}

proptest! {
    #[test]
    fn batched_lifecycle_matches_sequential_reference_rados(
        ops in prop::collection::vec(arb_lc_op(), 1..60),
    ) {
        run_lifecycle_case(&ops, false);
    }

    #[test]
    fn batched_lifecycle_matches_sequential_reference_s3(
        ops in prop::collection::vec(arb_lc_op(), 1..60),
    ) {
        run_lifecycle_case(&ops, true);
    }
}

// ---- property: crashes at seal/commit boundaries match the sync pipeline ------

/// Store contents with journal objects filtered out: a crash can leave a
/// torn, never-acknowledged journal tail that recovery skips and only
/// truncates lazily, so namespace equivalence is judged on the durable
/// home objects (inodes and dentry buckets).
fn namespace_contents(cluster: &Arc<ObjectCluster>) -> Vec<(ObjectKey, Bytes)> {
    store_contents(cluster)
        .into_iter()
        .filter(|(k, _)| k.kind != KeyKind::Journal)
        .collect()
}

const LANES: usize = 2;

/// Differential crash test for the async commit pipeline. Each directory
/// gets a stream of transaction batches driven through the real
/// [`DirJournal`] seal/flush machinery on its (shared) commit lane:
/// `durable` batches are sealed and flushed before the crash, the next
/// batch is optionally caught mid-append (torn bytes in the store), and
/// later batches never seal. The sync-mode reference commits exactly the
/// durable prefix on a second cluster. After per-directory recovery both
/// namespaces must be byte-identical.
fn run_seal_crash_case(dirs: &[(Vec<Vec<RecOp>>, usize, bool)], s3: bool) {
    let (c_a, prt_a) = test_cluster(s3);
    let (c_b, prt_b) = test_cluster(s3);
    let port = Port::new();
    let lanes: Vec<SharedResource> = (0..LANES)
        .map(|_| SharedResource::ideal("commit-lane"))
        .collect();
    for (i, (batches, durable_raw, torn)) in dirs.iter().enumerate() {
        let dir = DIR + i as Ino;
        let lane = &lanes[i % LANES];
        let durable = durable_raw % (batches.len() + 1);
        for prt in [&prt_a, &prt_b] {
            prt.store_inode(&port, &dir_rec_at(dir)).unwrap();
        }

        // Async pipeline up to the crash.
        let mut j = DirJournal::new(dir, 0);
        for ops in &batches[..durable] {
            for (k, op) in ops.iter().enumerate() {
                j.append(to_journal_op(op), k as u64);
            }
            j.commit(&prt_a, &port, lane, 0).unwrap();
        }
        if *torn && durable < batches.len() {
            let txn = Transaction {
                dir,
                seq: durable as u64,
                ops: batches[durable].iter().map(to_journal_op).collect(),
            };
            let sealed = txn.seal();
            let torn = sealed.slice(..sealed.len().saturating_sub(3));
            prt_a
                .put_journal_many(&port, &[(dir, durable as u64, torn)])
                .unwrap();
        }

        // Sync reference: the durable prefix committed on the caller's
        // timeline; everything past the crash point never happened.
        let mut jr = DirJournal::new(dir, 0);
        for ops in &batches[..durable] {
            for (k, op) in ops.iter().enumerate() {
                jr.append(to_journal_op(op), k as u64);
            }
            jr.commit(&prt_b, &port, lane, 0).unwrap();
        }
    }

    for (i, (batches, durable_raw, _)) in dirs.iter().enumerate() {
        let dir = DIR + i as Ino;
        let durable = durable_raw % (batches.len() + 1);
        let ra = recover_directory(&prt_a, &Port::new(), dir, PBUCKETS).unwrap();
        let rb = recover_directory(&prt_b, &Port::new(), dir, PBUCKETS).unwrap();
        assert_eq!(
            ra.replayed, durable,
            "async side replays the durable prefix"
        );
        assert_eq!(rb.replayed, durable, "sync side replays the same prefix");
        assert!(ra.next_seq >= rb.next_seq, "torn tail may advance next_seq");
    }
    assert_eq!(namespace_contents(&c_a), namespace_contents(&c_b));
}

proptest! {
    #[test]
    fn async_seal_crash_recovers_to_sync_reference_rados(
        dirs in prop::collection::vec(
            (
                prop::collection::vec(prop::collection::vec(arb_rec_op(), 1..5), 1..5),
                any::<usize>(),
                any::<bool>(),
            ),
            2..4,
        ),
    ) {
        run_seal_crash_case(&dirs, false);
    }

    #[test]
    fn async_seal_crash_recovers_to_sync_reference_s3(
        dirs in prop::collection::vec(
            (
                prop::collection::vec(prop::collection::vec(arb_rec_op(), 1..5), 1..5),
                any::<usize>(),
                any::<bool>(),
            ),
            2..4,
        ),
    ) {
        run_seal_crash_case(&dirs, true);
    }
}

// ---- cross-directory rename 2PC caught between seal and durability ------------

/// Base state shared by the 2PC crash tests: `src` holds file "f" (9).
fn rename_base(prt: &Prt, port: &Port, src: Ino, dst: Ino) {
    for d in [src, dst] {
        prt.store_inode(port, &dir_rec_at(d)).unwrap();
    }
    prt.store_inode(port, &file_rec(9)).unwrap();
    let mut dentries = HashMap::default();
    dentries.insert(
        "f".to_string(),
        DentryEntry {
            name: "f".into(),
            ino: 9,
            ftype: FileType::Regular,
        },
    );
    let b = dentry_bucket("f", PBUCKETS);
    store_bucket(prt, port, src, b, &bucket_of(&dentries, b, PBUCKETS));
}

#[test]
fn rename_2pc_caught_mid_prepare_presumed_aborts() {
    let (_c, prt) = test_cluster(false);
    let port = Port::new();
    let (src, dst) = (DIR, DIR + 1);
    let lane = SharedResource::ideal("commit-lane");
    rename_base(&prt, &port, src, dst);

    // Crash point: the source prepare was sealed and flushed (durable),
    // the destination prepare was caught mid-append (torn bytes), and no
    // decision was journaled anywhere.
    let txid = 7777u128;
    let mut js = DirJournal::new(src, 0);
    js.append(
        JournalOp::RenamePrepare {
            txid,
            peer_dir: dst,
            ops: vec![JournalOp::RemoveDentry { name: "f".into() }],
        },
        0,
    );
    js.commit(&prt, &port, &lane, 0).unwrap();
    let dst_prep = Transaction {
        dir: dst,
        seq: 0,
        ops: vec![JournalOp::RenamePrepare {
            txid,
            peer_dir: src,
            ops: vec![JournalOp::UpsertDentry {
                name: "f".into(),
                ino: 9,
                ftype: FileType::Regular,
            }],
        }],
    }
    .seal();
    let torn = dst_prep.slice(..dst_prep.len() - 3);
    prt.put_journal_many(&port, &[(dst, 0, torn)]).unwrap();

    // Recovery: the undecided source prepare consults the peer journal,
    // finds no commit record (the torn prepare was never acknowledged),
    // and presumed-aborts — the file stays in the source directory.
    let src_table = Metatable::load(&prt, &port, src, PBUCKETS, 1000).unwrap();
    let dst_table = Metatable::load(&prt, &port, dst, PBUCKETS, 1000).unwrap();
    let entries = src_table.readdir();
    assert_eq!(entries.len(), 1);
    assert_eq!((entries[0].name.as_str(), entries[0].ino), ("f", 9));
    assert_eq!(src_table.child_inode(9), Some(&file_rec(9)));
    assert!(dst_table.readdir().is_empty());
}

#[test]
fn rename_2pc_commit_record_in_peer_journal_wins() {
    let (_c, prt) = test_cluster(false);
    let port = Port::new();
    let (src, dst) = (DIR, DIR + 1);
    let lane = SharedResource::ideal("commit-lane");
    rename_base(&prt, &port, src, dst);

    // Crash point: both prepares durable, the destination's commit
    // decision durable, the source's decision lost with its running
    // transaction. The peer journal proves the transaction committed.
    let txid = 8888u128;
    let mut js = DirJournal::new(src, 0);
    js.append(
        JournalOp::RenamePrepare {
            txid,
            peer_dir: dst,
            ops: vec![JournalOp::RemoveDentry { name: "f".into() }],
        },
        0,
    );
    js.commit(&prt, &port, &lane, 0).unwrap();
    let mut jd = DirJournal::new(dst, 0);
    jd.append(
        JournalOp::RenamePrepare {
            txid,
            peer_dir: src,
            ops: vec![JournalOp::UpsertDentry {
                name: "f".into(),
                ino: 9,
                ftype: FileType::Regular,
            }],
        },
        0,
    );
    jd.append(JournalOp::RenameCommit { txid }, 1);
    jd.commit(&prt, &port, &lane, 0).unwrap();

    // The source recovers first (its consult must read the peer journal
    // before the destination's own recovery truncates it).
    let src_table = Metatable::load(&prt, &port, src, PBUCKETS, 1000).unwrap();
    let dst_table = Metatable::load(&prt, &port, dst, PBUCKETS, 1000).unwrap();
    assert!(
        src_table.readdir().is_empty(),
        "committed: source entry gone"
    );
    let entries = dst_table.readdir();
    assert_eq!(entries.len(), 1);
    assert_eq!((entries[0].name.as_str(), entries[0].ino), ("f", 9));
}
