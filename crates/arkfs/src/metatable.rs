//! The per-directory metadata table (§III-C).
//!
//! "When a client accesses a directory, the client tries to get a lease
//! of that directory. If the client succeeds [...] it loads several
//! metadata from object storage (such as dentries and inodes of the child
//! files, etc.) and constructs the metatable. [...] all the metadata
//! operations including the path-name resolution and permission checking
//! can be done locally."
//!
//! A [`Metatable`] is the authoritative in-memory state of one directory
//! while its leader's lease is valid: the directory inode, its dentries
//! (hash-bucketed), the inodes of its non-directory children, the
//! [`DirJournal`], and the [`FileLeaseTable`] for child-file read/write
//! leases. A mutation checks its preconditions and logs journal ops;
//! `Metatable::apply` changes the table for each, the same function a
//! takeover replays the journal with, and tracks the dirty objects for
//! checkpointing.

use crate::journal::{resolve_renames, scan_journal_stream, DirJournal, JournalOp};
use crate::meta::{dentry_bucket, DentryBlock, DentryEntry, InodeRecord};
use crate::partition::{lease_partition, partition_hi, partition_ino, partition_lo, RouteKey};
use crate::prt::Prt;
use crate::rpc::DirView;
use arkfs_lease::{FileLeaseTable, LeaseView};
use arkfs_simkit::hash::{HashMap, HashSet};
use arkfs_simkit::{Nanos, Port};
use arkfs_vfs::{DirEntry, FileType, FsError, FsResult, Ino, SetAttr};
use std::sync::Arc;

/// Most subdirectory dentries a directory view ships
/// ([`Metatable::subdir_view`]). A directory with more answers with an
/// empty view: absence from a view proves nothing, so its clients fall
/// back to per-name lookups.
pub const MAX_VIEW_ENTRIES: usize = 4096;

/// In-memory authoritative state of one directory *partition* at its
/// leader. An unpartitioned directory is the single partition `0 of 1`,
/// whose partition key equals the directory inode — byte-identical to
/// the pre-partitioning layout.
#[derive(Debug)]
pub struct Metatable {
    /// The directory's own inode. Partitions > 0 hold a read-only copy
    /// loaded at takeover: the inode object (mtime, nlink, ACL) is
    /// maintained by partition 0 only.
    pub dir: InodeRecord,
    dentries: HashMap<String, DentryEntry>,
    /// Inodes of non-directory children (child directories are owned by
    /// their own leaders).
    children: HashMap<Ino, InodeRecord>,
    pub journal: DirJournal,
    pub file_leases: FileLeaseTable,
    buckets: u64,
    /// This table's partition index and the directory's partition count
    /// at load time; the table owns dentry buckets `[bucket_lo,
    /// bucket_hi)` and journals under `pkey`.
    partition: u32,
    pcount: u32,
    pkey: Ino,
    bucket_lo: u64,
    bucket_hi: u64,
    /// Split/merge quiesce: a frozen partition refuses service so its
    /// journal can be drained before the new map is installed.
    pub frozen: bool,
    dirty_dir: bool,
    dirty_children: HashSet<Ino>,
    deleted_children: HashSet<Ino>,
    dirty_buckets: HashSet<u64>,
    /// The subdirectory dentries handed to permission-cache fills, built
    /// on first request and dropped whenever a subdirectory dentry
    /// changes, so every fill between two changes shares one allocation.
    subdir_view: Option<Arc<[DirEntry]>>,
    /// Where this table's view stands with the lease manager.
    pub(crate) deposit: Deposit,
}

/// A leader's record of the view it left with its lease manager
/// ([`Metatable::lease_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Deposit {
    /// The manager holds no view of ours.
    None,
    /// It holds one, and nothing it shows has changed since.
    Live,
    /// It holds one that a change has outdated: to be revoked before
    /// that change is acked.
    Outdated,
}

impl Metatable {
    /// Take over a directory: build its metatable from object storage,
    /// replaying the journal stream first if it is non-empty (§III-E:
    /// "the new leader checks whether the journal has any valid
    /// transactions").
    ///
    /// One pass, fully batched (§III-C at full fan-out): one LIST (and
    /// one multi-GET) of the journal stream, one GET for the directory
    /// inode, one batched sweep over every dentry bucket, the replay
    /// into this table and one [`Self::checkpoint`] when the stream held
    /// transactions, then one batched fetch of the child inodes the
    /// replay did not supply. The home objects are read once, and a
    /// takeover of an N-entry directory pays a handful of store round
    /// trips, not N.
    pub fn load(
        prt: &Prt,
        port: &Port,
        dir_ino: Ino,
        buckets: u64,
        file_lease_period: Nanos,
    ) -> FsResult<Self> {
        Self::load_partition(prt, port, dir_ino, 0, 1, buckets, file_lease_period)
    }

    /// Load partition `pidx` of `pcount` of a directory: the map read is
    /// validated against the store's partition map first (a mismatch
    /// means the caller routed with a stale map and gets `Stale` to
    /// refresh), recovery replays only this partition's journal stream,
    /// and the bucket sweep covers only the owned range.
    pub fn load_partition(
        prt: &Prt,
        port: &Port,
        dir_ino: Ino,
        pidx: u32,
        pcount: u32,
        buckets: u64,
        file_lease_period: Nanos,
    ) -> FsResult<Self> {
        let t0 = port.now();
        let store_p = prt.load_pmap(port, dir_ino)?.map_or(1, |m| m.partitions);
        if store_p != pcount || pidx >= pcount {
            return Err(FsError::Stale);
        }
        let (mut mt, _) =
            Self::recover(prt, port, dir_ino, pidx, pcount, buckets, file_lease_period)?;
        if mt.dir.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        // The table holds the inode of every non-directory child and no
        // other. Sorted, so the fetch order is deterministic (hash-order
        // iteration would jitter virtual-time arrivals between runs).
        let mut files: Vec<Ino> = mt
            .dentries
            .values()
            .filter(|e| e.ftype != FileType::Directory)
            .map(|e| e.ino)
            .collect();
        files.sort_unstable();
        mt.children
            .retain(|ino, _| files.binary_search(ino).is_ok());
        files.retain(|ino| !mt.children.contains_key(ino));
        for (ino, rec) in files.iter().zip(prt.load_inodes_many(port, &files)?) {
            mt.children.insert(*ino, rec.ok_or(FsError::NotFound)?);
        }
        prt.count_takeover(1 + (mt.bucket_hi - mt.bucket_lo) + files.len() as u64);
        prt.meta_span("meta.takeover", mt.pkey, t0, port.now());
        Ok(mt)
    }

    /// A metatable for a brand-new directory whose inode object was just
    /// written (mkdir path) — nothing to load.
    pub fn fresh(dir: InodeRecord, buckets: u64, file_lease_period: Nanos) -> Self {
        Self::new(dir, buckets, 0, 1, 0, file_lease_period)
    }

    /// An empty table for partition `partition` of `pcount`, whose
    /// journal resumes at `next_seq`.
    fn new(
        dir: InodeRecord,
        buckets: u64,
        partition: u32,
        pcount: u32,
        next_seq: u64,
        file_lease_period: Nanos,
    ) -> Self {
        let pkey = partition_ino(dir.ino, partition);
        Metatable {
            dir,
            dentries: HashMap::default(),
            children: HashMap::default(),
            journal: DirJournal::new(pkey, next_seq),
            file_leases: FileLeaseTable::new(file_lease_period),
            buckets,
            partition,
            pcount,
            pkey,
            bucket_lo: partition_lo(partition, buckets, pcount),
            bucket_hi: partition_hi(partition, buckets, pcount),
            frozen: false,
            dirty_dir: false,
            dirty_children: HashSet::default(),
            deleted_children: HashSet::default(),
            dirty_buckets: HashSet::default(),
            subdir_view: None,
            deposit: Deposit::None,
        }
    }

    /// Journal recovery (§III-E.1), the first part of a takeover: scan
    /// the partition's journal stream, read the directory inode and the
    /// owned buckets, replay the surviving ops (2PC decisions folded by
    /// [`resolve_renames`]) into the table, and, if the stream held an
    /// intact transaction, checkpoint: the write-back deletes every
    /// listed journal object, torn ones included. A directory inode
    /// missing and not replayed, or deleted by the replay, is `NotFound`.
    fn recover(
        prt: &Prt,
        port: &Port,
        dir_ino: Ino,
        pidx: u32,
        pcount: u32,
        buckets: u64,
        file_lease_period: Nanos,
    ) -> FsResult<(Self, Recovery)> {
        let t0 = port.now();
        let (seqs, txns) = scan_journal_stream(prt, port, partition_ino(dir_ino, pidx))?;
        let next_seq = seqs.last().map_or(0, |s| s + 1);
        let ops = resolve_renames(prt, port, &txns)?;
        let dir = match prt.load_inode(port, dir_ino) {
            Ok(rec) if rec.ino != dir_ino => {
                return Err(FsError::Io(format!("i{dir_ino} holds another inode")))
            }
            Err(FsError::NotFound) if !txns.is_empty() => None,
            res => Some(res?),
        };
        let loaded = dir.is_some();
        let dir = dir.unwrap_or_else(|| InodeRecord::new(dir_ino, FileType::Directory, 0, 0, 0, 0));
        let mut mt = Self::new(dir, buckets, pidx, pcount, next_seq, file_lease_period);
        let bucket_ids: Vec<u64> = (mt.bucket_lo..mt.bucket_hi).collect();
        mt.dentries = (prt
            .load_buckets_many(port, dir_ino, &bucket_ids)?
            .into_iter())
        .flat_map(|block| block.entries)
        .map(|entry| (entry.name.clone(), entry))
        .collect();
        let replayed = txns.len();
        if replayed > 0 {
            ops.iter().for_each(|op| {
                mt.apply(op);
            });
            let dir_gone = !(loaded || mt.dirty_dir) || mt.deleted_children.contains(&dir_ino);
            mt.journal.adopt(seqs);
            mt.checkpoint(prt, port)?;
            prt.meta_span("meta.recover", mt.pkey, t0, port.now());
            if dir_gone {
                return Err(FsError::NotFound);
            }
        }
        Ok((mt, Recovery { replayed, next_seq }))
    }

    /// Apply one journal op: the only change of the table's dentries,
    /// child records and dirty sets (besides loading, and
    /// [`Self::detach_child`] dropping a moved file's record), whether a
    /// live mutation logs the op ([`Self::log`]) or a takeover replays
    /// it, so both leave the same table (§III-E). Returns the record a
    /// `DeleteInode` removed. Dentry ops outside the owned buckets cannot
    /// appear in this partition's journal (leaders validate ownership
    /// before journaling); ignoring them bounds a corrupt stream to this
    /// partition's buckets.
    fn apply(&mut self, op: &JournalOp) -> Option<InodeRecord> {
        let (name, upsert) = match op {
            JournalOp::PutInode(rec) if rec.ino == self.dir.ino => {
                self.dir = rec.clone();
                self.dirty_dir = true;
                return None;
            }
            JournalOp::PutInode(rec) => {
                self.deleted_children.remove(&rec.ino);
                self.dirty_children.insert(rec.ino);
                self.children.insert(rec.ino, rec.clone());
                return None;
            }
            JournalOp::DeleteInode(ino) => {
                self.dirty_children.remove(ino);
                self.deleted_children.insert(*ino);
                return self.children.remove(ino);
            }
            JournalOp::UpsertDentry { name, ino, ftype } => (name, Some((*ino, *ftype))),
            JournalOp::RemoveDentry { name } => (name, None),
            // 2PC records (folded already).
            _ => return None,
        };
        let bucket = dentry_bucket(name, self.buckets);
        if !(self.bucket_lo..self.bucket_hi).contains(&bucket) {
            return None;
        }
        self.dirty_buckets.insert(bucket);
        let old = match upsert {
            Some((ino, ftype)) => {
                let entry = DentryEntry {
                    name: name.clone(),
                    ino,
                    ftype,
                };
                self.dentries.insert(name.clone(), entry)
            }
            None => self.dentries.remove(name),
        };
        // A subdirectory dentry changed: drop the cached view.
        let subdir = |ftype| ftype == FileType::Directory;
        if upsert.is_some_and(|(_, ftype)| subdir(ftype)) || old.is_some_and(|e| subdir(e.ftype)) {
            self.subdir_view = None;
            self.outdate_deposit();
        }
        None
    }

    pub fn ino(&self) -> Ino {
        self.dir.ino
    }

    /// The key this partition leases and journals under (== [`Self::ino`]
    /// for partition 0 / unpartitioned directories).
    pub fn pkey(&self) -> Ino {
        self.pkey
    }

    pub fn partition(&self) -> u32 {
        self.partition
    }

    pub fn pcount(&self) -> u32 {
        self.pcount
    }

    /// Leader-side authority: is this the partition an operation keyed
    /// by `key` belongs to? The counterpart of the caller's
    /// [`PartitionMap::partition_of`](crate::partition::PartitionMap::partition_of):
    /// under one map, the partition it names is the only one that
    /// answers `true`.
    pub fn owns(&self, key: RouteKey<'_>) -> bool {
        match key {
            RouteKey::Name(name) => self.owns_name(name),
            RouteKey::Names(a, b) => self.owns_name(a) && self.owns_name(b),
            RouteKey::File(file) => self.leases_file(file),
            RouteKey::Partition(p) => self.partition == p,
            RouteKey::Dir => self.partition == 0,
        }
    }

    /// Does this partition own `name`'s dentry bucket?
    pub fn owns_name(&self, name: &str) -> bool {
        let b = dentry_bucket(name, self.buckets);
        b >= self.bucket_lo && b < self.bucket_hi
    }

    /// Is this partition `file`'s lease shard?
    pub fn leases_file(&self, file: Ino) -> bool {
        lease_partition(file, self.pcount) == self.partition
    }

    pub fn len(&self) -> usize {
        self.dentries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dentries.is_empty()
    }

    // ---- reads -----------------------------------------------------------

    pub fn lookup(&self, name: &str) -> Option<&DentryEntry> {
        self.dentries.get(name)
    }

    pub fn child_inode(&self, ino: Ino) -> Option<&InodeRecord> {
        self.children.get(&ino)
    }

    pub fn readdir(&self) -> Vec<DirEntry> {
        let mut out: Vec<DirEntry> = self
            .dentries
            .values()
            .map(|e| DirEntry {
                name: e.name.clone(),
                ino: e.ino,
                ftype: e.ftype,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// This partition's subdirectory dentries, sorted by name: the body
    /// of a directory view. Empty above [`MAX_VIEW_ENTRIES`].
    pub fn subdir_view(&mut self) -> Arc<[DirEntry]> {
        if let Some(view) = &self.subdir_view {
            return Arc::clone(view);
        }
        let mut subdirs: Vec<DirEntry> = self
            .dentries
            .values()
            .filter(|e| e.ftype == FileType::Directory)
            .take(MAX_VIEW_ENTRIES + 1)
            .map(|e| DirEntry {
                name: e.name.clone(),
                ino: e.ino,
                ftype: e.ftype,
            })
            .collect();
        if subdirs.len() > MAX_VIEW_ENTRIES {
            subdirs.clear();
        }
        subdirs.sort_by(|a, b| a.name.cmp(&b.name));
        let view: Arc<[DirEntry]> = subdirs.into();
        self.subdir_view = Some(Arc::clone(&view));
        view
    }

    /// The directory's view: its inode and [`Self::subdir_view`].
    pub fn dir_view(&mut self) -> DirView {
        DirView {
            dir: self.dir.clone(),
            subdirs: self.subdir_view(),
        }
    }

    /// The view to deposit with the lease manager, stamped `now`. Only
    /// partition 0 of a directory with subdirectories has one — nobody
    /// walks through a leaf, and over [`MAX_VIEW_ENTRIES`] clients ask
    /// by name.
    pub fn lease_view(&mut self, now: Nanos) -> Option<LeaseView> {
        (self.partition == 0 && !self.subdir_view().is_empty()).then(|| LeaseView {
            stamp: now,
            body: Arc::new(self.dir_view()),
        })
    }

    /// A subdirectory dentry or the directory's permissions changed:
    /// what the manager holds no longer shows the directory.
    fn outdate_deposit(&mut self) {
        if self.deposit == Deposit::Live {
            self.deposit = Deposit::Outdated;
        }
    }

    // ---- mutations: each logs its journal ops through `apply` ---------------

    /// Journal `op` and apply it. Returns what [`Self::apply`] returns.
    fn log(&mut self, op: JournalOp, now: Nanos) -> Option<InodeRecord> {
        if let JournalOp::UpsertDentry { name, .. } | JournalOp::RemoveDentry { name } = &op {
            debug_assert!(self.owns_name(name), "{name} is not this partition's");
        }
        let removed = self.apply(&op);
        self.journal.append(op, now);
        removed
    }

    /// Log the directory inode with mtime and ctime `now` and `subdirs`
    /// more links. Only partition 0 maintains it, so partitions never
    /// write conflicting `i<dir>` updates: a partitioned directory's mtime
    /// tracks partition-0 activity only (relaxation, DESIGN.md §9).
    fn touch_dir(&mut self, now: Nanos, subdirs: i32) {
        if self.partition != 0 {
            return;
        }
        let mut dir = self.dir.clone();
        dir.mtime = now;
        dir.ctime = now;
        dir.nlink = dir.nlink.saturating_add_signed(subdirs);
        self.log(JournalOp::PutInode(dir), now);
    }

    /// Insert a child file/symlink with a freshly-allocated inode.
    pub fn create_child(&mut self, rec: InodeRecord, name: &str, now: Nanos) -> FsResult<()> {
        if self.dentries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        debug_assert_ne!(
            rec.ftype,
            FileType::Directory,
            "use add_subdir for directories"
        );
        let (ino, ftype) = (rec.ino, rec.ftype);
        self.log(JournalOp::PutInode(rec), now);
        let name = name.to_string();
        self.log(JournalOp::UpsertDentry { name, ino, ftype }, now);
        self.touch_dir(now, 0);
        Ok(())
    }

    /// Register a subdirectory entry (its inode object is written eagerly
    /// by the caller so the child's first leader can load it).
    pub fn add_subdir(&mut self, name: &str, child_ino: Ino, now: Nanos) -> FsResult<()> {
        if self.dentries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let op = JournalOp::UpsertDentry {
            name: name.to_string(),
            ino: child_ino,
            ftype: FileType::Directory,
        };
        self.log(op, now);
        self.touch_dir(now, 1);
        Ok(())
    }

    /// Remove a child file/symlink. Returns its last inode record so the
    /// caller can delete the data chunks.
    pub fn unlink_child(&mut self, name: &str, now: Nanos) -> FsResult<InodeRecord> {
        let entry = self.dentries.get(name).ok_or(FsError::NotFound)?;
        if entry.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let ino = entry.ino;
        if !self.children.contains_key(&ino) {
            return Err(FsError::Io(format!(
                "dentry {name} points at unknown inode"
            )));
        }
        let name = name.to_string();
        self.log(JournalOp::RemoveDentry { name }, now);
        let rec = self.log(JournalOp::DeleteInode(ino), now);
        self.touch_dir(now, 0);
        Ok(rec.expect("the record was checked above"))
    }

    /// Remove a subdirectory entry (caller has verified emptiness while
    /// holding the child's lease). The child's inode is marked deleted,
    /// so the next checkpoint deletes its object.
    pub fn remove_subdir(&mut self, name: &str, now: Nanos) -> FsResult<Ino> {
        let entry = self.dentries.get(name).ok_or(FsError::NotFound)?;
        if entry.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let ino = entry.ino;
        let name = name.to_string();
        self.log(JournalOp::RemoveDentry { name }, now);
        self.log(JournalOp::DeleteInode(ino), now);
        self.touch_dir(now, -1);
        Ok(ino)
    }

    /// Update a child file's size/mtime after data I/O. "If the
    /// modification time of a child file is renewed, the updated file
    /// inode will be written in the journal of the parent directory."
    pub fn set_child_size(&mut self, ino: Ino, size: u64, now: Nanos) -> FsResult<()> {
        let mut rec = self.children.get(&ino).ok_or(FsError::Stale)?.clone();
        rec.size = size;
        rec.mtime = now;
        self.log(JournalOp::PutInode(rec), now);
        Ok(())
    }

    /// Apply a `setattr` to a child. Permission checks happen at the
    /// caller (which knows the credentials).
    pub fn set_child_attr(
        &mut self,
        ino: Ino,
        attr: &SetAttr,
        now: Nanos,
    ) -> FsResult<InodeRecord> {
        let mut rec = self.children.get(&ino).ok_or(FsError::Stale)?.clone();
        apply_setattr(&mut rec, attr, now);
        self.log(JournalOp::PutInode(rec.clone()), now);
        Ok(rec)
    }

    /// Apply a `setattr` to the directory itself.
    pub fn set_dir_attr(&mut self, attr: &SetAttr, now: Nanos) -> InodeRecord {
        let mut dir = self.dir.clone();
        apply_setattr(&mut dir, attr, now);
        self.outdate_deposit();
        self.log(JournalOp::PutInode(dir.clone()), now);
        dir
    }

    /// Replace the ACL on a child or the directory.
    pub fn set_acl(&mut self, target: Ino, acl: arkfs_vfs::Acl, now: Nanos) -> FsResult<()> {
        let mut rec = if target == self.dir.ino {
            self.outdate_deposit();
            self.dir.clone()
        } else {
            self.children.get(&target).ok_or(FsError::Stale)?.clone()
        };
        rec.acl = acl;
        rec.ctime = now;
        self.log(JournalOp::PutInode(rec), now);
        Ok(())
    }

    /// Same-directory rename (no 2PC needed: one journal). Returns what
    /// moved.
    pub fn rename_local(&mut self, from: &str, to: &str, now: Nanos) -> FsResult<(Ino, FileType)> {
        let entry = self.dentries.get(from).ok_or(FsError::NotFound)?;
        let (ino, ftype) = (entry.ino, entry.ftype);
        let victim = match self.dentries.get(to) {
            // POSIX: replace only a matching type; non-empty dir targets
            // are the caller's job to reject.
            Some(existing) if existing.ftype == FileType::Directory => {
                if ftype != FileType::Directory {
                    return Err(FsError::IsADirectory);
                }
                None
            }
            Some(_) if ftype == FileType::Directory => return Err(FsError::NotADirectory),
            // Replacing a file: drop its inode.
            existing => existing.map(|e| e.ino),
        };
        if let Some(victim) = victim {
            self.log(JournalOp::DeleteInode(victim), now);
        }
        let name = from.to_string();
        self.log(JournalOp::RemoveDentry { name }, now);
        let name = to.to_string();
        self.log(JournalOp::UpsertDentry { name, ino, ftype }, now);
        self.touch_dir(now, 0);
        Ok((ino, ftype))
    }

    /// Log `ops` as this directory's `RenamePrepare` of cross-directory
    /// rename `txid` with `peer_dir`, and apply them now; a replay applies
    /// them only once the rename is decided committed (`resolve_renames`).
    fn log_prepare(&mut self, txid: u128, peer_dir: Ino, ops: Vec<JournalOp>, now: Nanos) {
        ops.iter().for_each(|op| {
            self.apply(op);
        });
        let prepare = JournalOp::RenamePrepare {
            txid,
            peer_dir,
            ops,
        };
        self.journal.append(prepare, now);
    }

    /// Detach a child: the source half of rename `txid`, whose prepare
    /// removes the dentry. A file's record leaves the table without being
    /// marked deleted, as its inode moves to the other directory. Returns
    /// the dentry and, for files, the inode record that must move with it.
    pub fn detach_child(
        &mut self,
        name: &str,
        txid: u128,
        peer_dir: Ino,
        now: Nanos,
    ) -> FsResult<(DentryEntry, Option<InodeRecord>)> {
        let entry = self.dentries.get(name).ok_or(FsError::NotFound)?.clone();
        let ops = vec![JournalOp::RemoveDentry {
            name: name.to_string(),
        }];
        self.log_prepare(txid, peer_dir, ops, now);
        let subdir = entry.ftype == FileType::Directory;
        let rec = if subdir {
            None
        } else {
            self.dirty_children.remove(&entry.ino);
            self.children.remove(&entry.ino)
        };
        self.touch_dir(now, -i32::from(subdir));
        Ok((entry, rec))
    }

    /// Attach a child: the destination half of a rename (`prepare` names
    /// its `txid` and source), whose prepare adds the dentry and a file's
    /// record, or an aborted source's undo (`None`: the ops are applied
    /// unlogged, as a replay drops the aborted prepare's removal).
    pub fn attach_child(
        &mut self,
        name: &str,
        ino: Ino,
        ftype: FileType,
        rec: Option<InodeRecord>,
        prepare: Option<(u128, Ino)>,
        now: Nanos,
    ) -> FsResult<()> {
        if self.dentries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let name = name.to_string();
        let mut ops = vec![JournalOp::UpsertDentry { name, ino, ftype }];
        ops.extend(rec.map(JournalOp::PutInode));
        match prepare {
            Some((txid, peer_dir)) => self.log_prepare(txid, peer_dir, ops, now),
            None => ops.iter().for_each(|op| {
                self.apply(op);
            }),
        }
        self.touch_dir(now, i32::from(ftype == FileType::Directory));
        Ok(())
    }

    // ---- durability --------------------------------------------------------

    /// Write all dirty state to the home objects and truncate the
    /// journal. Caller must have committed the running transaction first
    /// (see `flush`). Fully batched: all dirty inodes (directory +
    /// children) go out as one multi-PUT, deleted children as one
    /// multi-DELETE, dirty buckets as one batched bucket write-back, and
    /// the journal stream as one multi-DELETE — a checkpoint of N dirty
    /// objects pays a handful of fan-outs, not N round trips.
    pub fn checkpoint(&mut self, prt: &Prt, port: &Port) -> FsResult<()> {
        let t0 = port.now();
        // Sorted drains: hash-order iteration varies between runs and
        // would jitter the virtual-time arrival order on shard resources.
        let mut dirty_children: Vec<Ino> = self.dirty_children.drain().collect();
        dirty_children.sort_unstable();
        let mut dirty_recs: Vec<&InodeRecord> = Vec::new();
        if self.dirty_dir {
            dirty_recs.push(&self.dir);
        }
        for ino in &dirty_children {
            if let Some(rec) = self.children.get(ino) {
                dirty_recs.push(rec);
            }
        }
        prt.store_inodes_many(port, &dirty_recs)?;
        self.dirty_dir = false;
        let mut deleted: Vec<Ino> = self.deleted_children.drain().collect();
        deleted.sort_unstable();
        prt.delete_inodes_many(port, &deleted)?;
        let mut dirty_buckets: Vec<(u64, DentryBlock)> = self
            .dirty_buckets
            .drain()
            .map(|bucket| (bucket, DentryBlock::default()))
            .collect();
        dirty_buckets.sort_unstable_by_key(|&(bucket, _)| bucket);
        // One pass over the dentries fills every dirty block.
        if !dirty_buckets.is_empty() {
            for e in self.dentries.values() {
                let bucket = dentry_bucket(&e.name, self.buckets);
                if let Ok(i) = dirty_buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                    dirty_buckets[i].1.entries.push(e.clone());
                }
            }
        }
        for (_, block) in &mut dirty_buckets {
            block.entries.sort_by(|a, b| a.name.cmp(&b.name));
        }
        prt.store_buckets_many(port, self.dir.ino, &dirty_buckets)?;
        self.journal.truncate(prt, port)?;
        prt.meta_span("meta.checkpoint", self.pkey, t0, port.now());
        Ok(())
    }

    /// Commit the running transaction (if any) and checkpoint.
    ///
    /// The commit is charged to the caller's timeline (fsync semantics:
    /// the journal must be durable), but checkpointing runs on the
    /// *checkpoint threads* (§III-E) — its virtual cost lands on a
    /// background timeline and does not stall the application. The
    /// functional writes still happen before this returns, so the store
    /// state is always consistent for takeover tests.
    pub fn flush(
        &mut self,
        prt: &Prt,
        port: &Port,
        lane: &arkfs_simkit::SharedResource,
        lane_service: Nanos,
    ) -> FsResult<()> {
        self.journal.commit(prt, port, lane, lane_service)?;
        let background = Port::starting_at(port.now());
        self.checkpoint(prt, &background)
    }
}

fn apply_setattr(rec: &mut InodeRecord, attr: &SetAttr, now: Nanos) {
    if let Some(mode) = attr.mode {
        rec.mode = mode & 0o7777;
    }
    if let Some(uid) = attr.uid {
        rec.uid = uid;
    }
    if let Some(gid) = attr.gid {
        rec.gid = gid;
    }
    if let Some(atime) = attr.atime {
        rec.atime = atime;
    }
    if let Some(mtime) = attr.mtime {
        rec.mtime = mtime;
    }
    rec.ctime = now;
}

/// What [`recover_directory`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Intact transactions replayed onto the home objects.
    pub replayed: usize,
    /// The sequence number the next sealed transaction should use:
    /// one past the highest journal object observed (torn ones
    /// included, so a new leader never overwrites a stale object), or 0
    /// on an empty stream.
    pub next_seq: u64,
}

/// Journal recovery of an unpartitioned directory without the rest of
/// the takeover: [`Metatable::load`]'s scan, replay and checkpoint, with
/// no child-inode fetch. Idempotent; writes nothing when the journal is
/// empty.
pub fn recover_directory(prt: &Prt, port: &Port, dir_ino: Ino, buckets: u64) -> FsResult<Recovery> {
    Metatable::recover(prt, port, dir_ino, 0, 1, buckets, 0).map(|(_, recovery)| recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Transaction;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use arkfs_simkit::SharedResource;
    use proptest::prelude::*;
    use std::sync::Arc;

    const BUCKETS: u64 = 4;
    const DIR: Ino = 100;

    fn setup() -> (Prt, Port) {
        (
            Prt::new(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())), 64),
            Port::new(),
        )
    }

    fn dir_inode() -> InodeRecord {
        InodeRecord::new(DIR, FileType::Directory, 0o755, 0, 0, 0)
    }

    fn file_inode(ino: Ino) -> InodeRecord {
        InodeRecord::new(ino, FileType::Regular, 0o644, 0, 0, 0)
    }

    fn fresh_table() -> Metatable {
        Metatable::fresh(dir_inode(), BUCKETS, 1000)
    }

    #[test]
    fn create_lookup_unlink() {
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "a.txt", 5).unwrap();
        assert_eq!(mt.len(), 1);
        let e = mt.lookup("a.txt").unwrap();
        assert_eq!(e.ino, 1);
        assert_eq!(mt.child_inode(1).unwrap().mode, 0o644);
        assert_eq!(mt.dir.mtime, 5);
        // Duplicate create fails.
        assert_eq!(
            mt.create_child(file_inode(2), "a.txt", 6),
            Err(FsError::AlreadyExists)
        );
        let rec = mt.unlink_child("a.txt", 7).unwrap();
        assert_eq!(rec.ino, 1);
        assert!(mt.is_empty());
        assert_eq!(mt.unlink_child("a.txt", 8), Err(FsError::NotFound));
    }

    #[test]
    fn readdir_is_sorted() {
        let mut mt = fresh_table();
        for (i, name) in ["zeta", "alpha", "mid"].iter().enumerate() {
            mt.create_child(file_inode(i as Ino + 1), name, 0).unwrap();
        }
        let names: Vec<String> = mt.readdir().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn subdir_tracking_updates_nlink() {
        let mut mt = fresh_table();
        assert_eq!(mt.dir.nlink, 2);
        mt.add_subdir("sub", 200, 1).unwrap();
        assert_eq!(mt.dir.nlink, 3);
        assert_eq!(mt.lookup("sub").unwrap().ftype, FileType::Directory);
        // unlink refuses directories
        assert_eq!(mt.unlink_child("sub", 2), Err(FsError::IsADirectory));
        let ino = mt.remove_subdir("sub", 3).unwrap();
        assert_eq!(ino, 200);
        assert_eq!(mt.dir.nlink, 2);
        // remove_subdir refuses files
        mt.create_child(file_inode(5), "f", 4).unwrap();
        assert_eq!(mt.remove_subdir("f", 5), Err(FsError::NotADirectory));
    }

    #[test]
    fn subdir_view_is_shared_until_a_subdirectory_changes() {
        let names = |v: &[DirEntry]| v.iter().map(|e| e.name.clone()).collect::<Vec<_>>();
        let mut mt = fresh_table();
        mt.add_subdir("b", 201, 1).unwrap();
        mt.add_subdir("a", 200, 1).unwrap();
        mt.create_child(file_inode(1), "f", 1).unwrap();
        let v1 = mt.subdir_view();
        assert_eq!(names(&v1), ["a", "b"], "subdirectories only, sorted");
        // File churn leaves the build alone: every fill shares it.
        mt.create_child(file_inode(2), "g", 2).unwrap();
        mt.unlink_child("f", 3).unwrap();
        assert!(Arc::ptr_eq(&v1, &mt.subdir_view()));
        mt.remove_subdir("a", 4).unwrap();
        assert_eq!(names(&mt.subdir_view()), ["b"]);
        mt.rename_local("b", "c", 5).unwrap();
        assert_eq!(names(&mt.subdir_view()), ["c"]);
        let (entry, _) = mt.detach_child("c", 1, 300, 6).unwrap();
        assert!(mt.subdir_view().is_empty());
        mt.attach_child("d", entry.ino, entry.ftype, None, Some((2, 300)), 7)
            .unwrap();
        assert_eq!(names(&mt.subdir_view()), ["d"]);
    }

    #[test]
    fn subdir_view_over_the_cap_is_empty() {
        let mut mt = fresh_table();
        for i in 0..MAX_VIEW_ENTRIES {
            mt.add_subdir(&format!("d{i}"), 1000 + i as Ino, 1).unwrap();
        }
        assert_eq!(mt.subdir_view().len(), MAX_VIEW_ENTRIES);
        mt.add_subdir("one-more", 9, 2).unwrap();
        assert!(mt.subdir_view().is_empty(), "absence proves nothing");
    }

    #[test]
    fn set_child_size_and_attr() {
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "f", 0).unwrap();
        mt.set_child_size(1, 4096, 9).unwrap();
        let rec = mt.child_inode(1).unwrap();
        assert_eq!(rec.size, 4096);
        assert_eq!(rec.mtime, 9);
        let out = mt.set_child_attr(1, &SetAttr::chmod(0o600), 10).unwrap();
        assert_eq!(out.mode, 0o600);
        assert_eq!(out.ctime, 10);
        assert_eq!(mt.set_child_size(99, 0, 0), Err(FsError::Stale));
    }

    #[test]
    fn rename_local_moves_and_replaces() {
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "a", 0).unwrap();
        mt.create_child(file_inode(2), "b", 0).unwrap();
        assert_eq!(mt.rename_local("a", "c", 1), Ok((1, FileType::Regular)));
        assert!(mt.lookup("a").is_none());
        assert_eq!(mt.lookup("c").unwrap().ino, 1);
        // Rename over an existing file replaces it and drops the victim.
        mt.rename_local("c", "b", 2).unwrap();
        assert_eq!(mt.lookup("b").unwrap().ino, 1);
        assert!(mt.child_inode(2).is_none());
        assert_eq!(mt.rename_local("missing", "x", 3), Err(FsError::NotFound));
    }

    #[test]
    fn flush_persists_and_reload_restores() {
        let (prt, port) = setup();
        let lane = SharedResource::ideal("lane");
        prt.store_inode(&port, &dir_inode()).unwrap();
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "keep.txt", 5).unwrap();
        mt.add_subdir("sub", 200, 6).unwrap();
        mt.flush(&prt, &port, &lane, 0).unwrap();
        assert_eq!(mt.journal.running_len(), 0);
        assert!(prt.list_journal(&port, DIR).unwrap().is_empty());

        let loaded = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.lookup("keep.txt").unwrap().ino, 1);
        assert_eq!(loaded.lookup("sub").unwrap().ftype, FileType::Directory);
        assert_eq!(loaded.child_inode(1).unwrap().mode, 0o644);
        assert_eq!(loaded.dir.nlink, 3);
    }

    #[test]
    fn load_of_non_directory_fails() {
        let (prt, port) = setup();
        prt.store_inode(&port, &file_inode(9)).unwrap();
        assert_eq!(
            Metatable::load(&prt, &port, 9, BUCKETS, 1000).err(),
            Some(FsError::NotADirectory)
        );
    }

    #[test]
    fn recovery_replays_journaled_creates() {
        let (prt, port) = setup();
        let lane = SharedResource::ideal("lane");
        prt.store_inode(&port, &dir_inode()).unwrap();
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "durable.txt", 5).unwrap();
        // Commit the journal but CRASH before checkpoint.
        mt.journal.commit(&prt, &port, &lane, 0).unwrap();
        drop(mt);
        assert_eq!(prt.list_journal(&port, DIR).unwrap().len(), 1);

        // New leader loads: recovery replays the journal.
        let loaded = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert_eq!(loaded.lookup("durable.txt").unwrap().ino, 1);
        assert_eq!(loaded.child_inode(1).unwrap().ino, 1);
        assert!(
            prt.list_journal(&port, DIR).unwrap().is_empty(),
            "journal truncated"
        );
    }

    #[test]
    fn uncommitted_running_transaction_is_lost_on_crash() {
        let (prt, port) = setup();
        prt.store_inode(&port, &dir_inode()).unwrap();
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "volatile.txt", 5).unwrap();
        // Crash without commit: nothing reached the store.
        drop(mt);
        let loaded = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert!(loaded.lookup("volatile.txt").is_none());
    }

    #[test]
    fn recovery_handles_delete_after_create() {
        let (prt, port) = setup();
        let lane = SharedResource::ideal("lane");
        prt.store_inode(&port, &dir_inode()).unwrap();
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "f", 1).unwrap();
        mt.journal.commit(&prt, &port, &lane, 0).unwrap();
        mt.unlink_child("f", 2).unwrap();
        mt.journal.commit(&prt, &port, &lane, 0).unwrap();
        drop(mt); // crash before checkpoint

        let loaded = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert!(loaded.lookup("f").is_none());
        assert_eq!(prt.load_inode(&port, 1), Err(FsError::NotFound));
    }

    #[test]
    fn recovery_is_idempotent() {
        let (prt, port) = setup();
        prt.store_inode(&port, &dir_inode()).unwrap();
        let txn = Transaction {
            dir: DIR,
            seq: 0,
            ops: vec![
                JournalOp::PutInode(file_inode(1)),
                JournalOp::UpsertDentry {
                    name: "f".into(),
                    ino: 1,
                    ftype: FileType::Regular,
                },
            ],
        };
        prt.put_journal_many(&port, &[(DIR, 0, txn.seal())])
            .unwrap();
        let first = recover_directory(&prt, &port, DIR, BUCKETS).unwrap();
        assert_eq!(first.replayed, 1);
        assert_eq!(first.next_seq, 1);
        let second = recover_directory(&prt, &port, DIR, BUCKETS).unwrap();
        assert_eq!(second.replayed, 0);
        let mt = Metatable::load(&prt, &port, DIR, BUCKETS, 1000).unwrap();
        assert!(mt.lookup("f").is_some());
    }

    #[test]
    fn detach_attach_move_file_between_tables() {
        let mut src = fresh_table();
        let mut dst = Metatable::fresh(
            InodeRecord::new(300, FileType::Directory, 0o755, 0, 0, 0),
            BUCKETS,
            1000,
        );
        src.create_child(file_inode(1), "mv.txt", 0).unwrap();
        let (entry, rec) = src.detach_child("mv.txt", 1, 300, 1).unwrap();
        assert!(src.lookup("mv.txt").is_none());
        dst.attach_child("moved.txt", entry.ino, entry.ftype, rec, Some((1, DIR)), 1)
            .unwrap();
        assert_eq!(dst.lookup("moved.txt").unwrap().ino, 1);
        assert!(dst.child_inode(1).is_some());
        // Attach over existing name fails.
        let err = dst.attach_child("moved.txt", 9, FileType::Regular, None, None, 2);
        assert_eq!(err, Err(FsError::AlreadyExists));
    }

    #[test]
    fn partitioned_load_splits_namespace_and_validates_map() {
        use crate::partition::PartitionMap;
        let (prt, port) = setup();
        let lane = SharedResource::ideal("lane");
        prt.store_inode(&port, &dir_inode()).unwrap();
        let mut mt = fresh_table();
        for i in 0..16u64 {
            mt.create_child(file_inode(i as Ino + 1), &format!("f{i}"), 0)
                .unwrap();
        }
        mt.flush(&prt, &port, &lane, 0).unwrap();

        prt.store_pmap(
            &port,
            &PartitionMap {
                dir: DIR,
                epoch: 1,
                partitions: 2,
            },
        )
        .unwrap();

        // Loads routed with a stale or out-of-range view are refused.
        assert_eq!(
            Metatable::load(&prt, &port, DIR, BUCKETS, 1000).err(),
            Some(FsError::Stale)
        );
        assert_eq!(
            Metatable::load_partition(&prt, &port, DIR, 2, 2, BUCKETS, 1000).err(),
            Some(FsError::Stale)
        );

        let p0 = Metatable::load_partition(&prt, &port, DIR, 0, 2, BUCKETS, 1000).unwrap();
        let p1 = Metatable::load_partition(&prt, &port, DIR, 1, 2, BUCKETS, 1000).unwrap();
        assert_eq!(p0.pkey(), DIR, "partition 0 keys by the real inode");
        assert_ne!(p1.pkey(), DIR);
        assert_eq!((p0.partition(), p0.pcount()), (0, 2));
        assert_eq!(p0.len() + p1.len(), 16, "partitions tile the namespace");
        for e in p0.readdir() {
            assert!(p0.owns_name(&e.name) && !p1.owns_name(&e.name));
        }
        for e in p1.readdir() {
            assert!(p1.owns_name(&e.name) && !p0.owns_name(&e.name));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Caller and leader evaluate one routing rule: under one map,
        /// the partition `partition_of` names is the only one whose
        /// table `owns` the key — for one partition that is partition 0,
        /// whatever the key. A name pair has an owner iff both names
        /// route to one partition.
        #[test]
        fn the_routed_partition_is_the_only_owner(
            buckets in prop_oneof![Just(1u64), Just(4), Just(16), Just(64)],
            (pseed, kind, explicit) in (0u32..8, 0u8..5, 0u32..8),
            (a, b) in ("[a-z0-9._-]{1,12}", "[a-z0-9._-]{1,12}"),
            file in any::<u128>(),
        ) {
            use crate::partition::PartitionMap;
            let partitions = 1 + pseed % buckets.min(8) as u32;
            let pmap = PartitionMap { dir: DIR, epoch: 1, partitions };
            let (prt, port) = setup();
            prt.store_inode(&port, &dir_inode()).unwrap();
            if partitions > 1 {
                prt.store_pmap(&port, &pmap).unwrap();
            }
            let key = match kind {
                0 => RouteKey::Name(&a),
                1 => RouteKey::Names(&a, &b),
                2 => RouteKey::File(file),
                3 => RouteKey::Partition(explicit % partitions),
                _ => RouteKey::Dir,
            };
            let owners: Vec<u32> = (0..partitions)
                .filter(|&p| {
                    Metatable::load_partition(&prt, &port, DIR, p, partitions, buckets, 1000)
                        .unwrap()
                        .owns(key)
                })
                .collect();
            let routed = pmap.partition_of(key, buckets);
            let straddles = kind == 1
                && pmap.partition_of_name(&a, buckets) != pmap.partition_of_name(&b, buckets);
            if straddles {
                prop_assert!(owners.is_empty(), "{key:?} owned by {owners:?}");
            } else {
                prop_assert_eq!(&owners, &vec![routed], "{:?} of {}", key, partitions);
            }
            if partitions == 1 {
                prop_assert_eq!(routed, 0);
            }
        }
    }

    #[test]
    fn partitioned_recovery_replays_each_partition_stream() {
        use crate::partition::PartitionMap;
        let (prt, port) = setup();
        let lane = SharedResource::ideal("lane");
        prt.store_inode(&port, &dir_inode()).unwrap();
        prt.store_pmap(
            &port,
            &PartitionMap {
                dir: DIR,
                epoch: 1,
                partitions: 2,
            },
        )
        .unwrap();
        let mut p0 = Metatable::load_partition(&prt, &port, DIR, 0, 2, BUCKETS, 1000).unwrap();
        let mut p1 = Metatable::load_partition(&prt, &port, DIR, 1, 2, BUCKETS, 1000).unwrap();
        let name0 = (0..)
            .map(|i| format!("a{i}"))
            .find(|n| p0.owns_name(n))
            .unwrap();
        let name1 = (0..)
            .map(|i| format!("a{i}"))
            .find(|n| p1.owns_name(n))
            .unwrap();
        p0.create_child(file_inode(1), &name0, 1).unwrap();
        p1.create_child(file_inode(2), &name1, 1).unwrap();
        p0.journal.commit(&prt, &port, &lane, 0).unwrap();
        p1.journal.commit(&prt, &port, &lane, 0).unwrap();
        let pkey1 = p1.pkey();
        drop(p0);
        drop(p1); // crash both leaders before checkpoint
        assert_eq!(prt.list_journal(&port, DIR).unwrap().len(), 1);
        assert_eq!(prt.list_journal(&port, pkey1).unwrap().len(), 1);

        // Partition 1's takeover replays only its own stream.
        let p1 = Metatable::load_partition(&prt, &port, DIR, 1, 2, BUCKETS, 1000).unwrap();
        assert_eq!(p1.lookup(&name1).unwrap().ino, 2);
        assert!(prt.list_journal(&port, pkey1).unwrap().is_empty());
        assert_eq!(
            prt.list_journal(&port, DIR).unwrap().len(),
            1,
            "partition 0's stream is untouched by partition 1's recovery"
        );
        let p0 = Metatable::load_partition(&prt, &port, DIR, 0, 2, BUCKETS, 1000).unwrap();
        assert_eq!(p0.lookup(&name0).unwrap().ino, 1);
        assert!(p0.lookup(&name1).is_none());
    }

    #[test]
    fn acl_set_on_dir_and_child() {
        use arkfs_vfs::{Acl, AclEntry};
        let mut mt = fresh_table();
        mt.create_child(file_inode(1), "f", 0).unwrap();
        let acl = Acl::new(vec![AclEntry::user(9, 0o6)]);
        mt.set_acl(1, acl.clone(), 5).unwrap();
        assert_eq!(mt.child_inode(1).unwrap().acl, acl);
        mt.set_acl(DIR, acl.clone(), 6).unwrap();
        assert_eq!(mt.dir.acl, acl);
        assert_eq!(mt.set_acl(999, acl, 7), Err(FsError::Stale));
    }

    const NAMES: usize = 5;

    /// Everything of `mt` a checkpoint writes, each part sorted. Child
    /// records no dentry names are left out: a detached file's record
    /// leaves the live table but stays in a replayed one, and a takeover
    /// keeps only the records its dentries name (`load_partition`).
    fn checkpointed(mt: &Metatable) -> [String; 6] {
        fn sorted<T: std::fmt::Debug>(part: &str, items: impl Iterator<Item = T>) -> String {
            let mut items: Vec<String> = items.map(|item| format!("{item:?}")).collect();
            items.sort();
            format!("{part}: {items:?}")
        }
        let named = |ino: &Ino| mt.dentries.values().any(|e| e.ino == *ino);
        [
            format!("dir: {:?}, dirty {}", mt.dir, mt.dirty_dir),
            sorted("dentries", mt.dentries.values()),
            sorted("children", mt.children.values().filter(|r| named(&r.ino))),
            sorted("dirty", mt.dirty_children.iter().filter(|ino| named(ino))),
            sorted("deleted", mt.deleted_children.iter()),
            sorted("buckets", mt.dirty_buckets.iter()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// §III-E: a takeover rebuilds a directory by replaying its
        /// journal, so an op must change a table alike when a live leader
        /// logs it and when a new leader replays it. Runs `script` on a
        /// live partition, replays its sealed journal into a fresh table
        /// and compares what each would checkpoint. A step is a mutation
        /// kind and two picks from names the partition owns; a refused
        /// step changes nothing, and step `t` makes inode `10 + t`.
        #[test]
        fn every_mutation_replays_as_it_was_applied(
            script in prop::collection::vec((0u8..11, 0..NAMES, 0..NAMES), 1..40),
            (pidx, pcount) in prop_oneof![Just((0, 1)), Just((1, 2))],
        ) {
            use arkfs_vfs::{Acl, AclEntry};
            let table = || Metatable::new(dir_inode(), BUCKETS, pidx, pcount, 0, 1000);
            let mut live = table();
            let names: Vec<String> = (0..)
                .map(|i| format!("n{i}"))
                .filter(|name| live.owns_name(name))
                .take(NAMES)
                .collect();
            for (t, &(kind, a, b)) in script.iter().enumerate() {
                let (now, ino, txid) = (t as Nanos + 1, t as Ino + 10, t as u128);
                let (a, b, even) = (&names[a], &names[b], b % 2 == 0);
                let file = live.lookup(a).filter(|e| e.ftype != FileType::Directory).map(|e| e.ino);
                let acl = Acl::new(vec![AclEntry::user(1, 6)]);
                match kind {
                    0 => drop(live.create_child(file_inode(ino), a, now)),
                    1 => drop(live.add_subdir(a, ino, now)),
                    2 => drop(file.map(|f| live.set_child_size(f, now * 512, now))),
                    3 => drop(file.map(|f| live.set_child_attr(f, &SetAttr::chmod(0o600), now))),
                    4 => drop(live.set_dir_attr(&SetAttr::chmod(0o700), now)),
                    5 => drop(live.set_acl(file.unwrap_or(DIR), acl, now)),
                    // A rename onto itself never reaches the leader.
                    6 if a != b => drop(live.rename_local(a, b, now)),
                    7 => drop(live.unlink_child(a, now)),
                    8 => drop(live.remove_subdir(a, now)),
                    // A rename out, committed, or aborted and undone.
                    9 => if let Ok((e, rec)) = live.detach_child(a, txid, 999, now) {
                        if even {
                            live.journal.append(JournalOp::RenameCommit { txid }, now);
                        } else {
                            live.journal.append(JournalOp::RenameAbort { txid }, now);
                            live.attach_child(a, e.ino, e.ftype, rec, None, now).unwrap();
                        }
                    },
                    // A committed rename in, of a directory or a file.
                    10 => {
                        let (ftype, rec) = match even {
                            true => (FileType::Directory, None),
                            false => (FileType::Regular, Some(file_inode(ino))),
                        };
                        if live.attach_child(a, ino, ftype, rec, Some((txid, 999)), now).is_ok() {
                            live.journal.append(JournalOp::RenameCommit { txid }, now);
                        }
                    }
                    _ => {}
                }
            }
            live.journal.seal();
            let sealed = live.journal.take_sealed();
            let txns: Vec<Transaction> = sealed.into_iter().map(|(txn, _)| txn).collect();
            let (prt, port) = setup();
            let mut replayed = table();
            for op in resolve_renames(&prt, &port, &txns).unwrap() {
                replayed.apply(&op);
            }
            for (live, replayed) in checkpointed(&live).iter().zip(&checkpointed(&replayed)) {
                prop_assert_eq!(live, replayed, "live, replayed: {pidx} of {pcount}, {script:?}");
            }
        }
    }
}
