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
//! leases. Mutations update memory, append journal ops, and track dirty
//! objects for checkpointing.

use crate::journal::{resolve_renames, scan_journal_stream, DirJournal, JournalOp};
use crate::meta::{dentry_bucket, DentryBlock, DentryEntry, InodeRecord};
use crate::partition::{lease_partition, partition_hi, partition_ino, partition_lo, RouteKey};
use crate::prt::Prt;
use crate::rpc::DirView;
use arkfs_lease::{FileLeaseTable, LeaseView};
use arkfs_simkit::{Nanos, Port, MSEC, SEC};
use arkfs_telemetry::Gauge;
use arkfs_vfs::{DirEntry, FileType, FsError, FsResult, Ino, SetAttr};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Most subdirectory dentries a directory view ships
/// ([`Metatable::subdir_view`]). A directory with more answers with an
/// empty view: absence from a view proves nothing, so its clients fall
/// back to per-name lookups.
pub const MAX_VIEW_ENTRIES: usize = 4096;

/// Window over which a partition leader measures its journal append
/// rate for load-triggered split/merge decisions.
const RATE_WINDOW: Nanos = 10 * MSEC;

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
    /// `journal.sealed_depth.p<idx>`: this partition's sealed-but-not-
    /// durable transaction count, sampled after each mutation.
    pub(crate) sealed_depth: Option<Arc<Gauge>>,
    rate_window_start: Nanos,
    rate_appends: u64,
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
    /// Build the metatable by pulling the directory's metadata from
    /// object storage, running journal recovery first if the stream is
    /// non-empty (§III-E: "the new leader checks whether the journal has
    /// any valid transactions").
    ///
    /// The pull is fully batched (§III-C at full fan-out): one GET for
    /// the directory inode, one batched sweep over every dentry bucket,
    /// then one batched fetch of every non-directory child inode — a
    /// takeover of an N-entry directory pays three store round trips
    /// (plus recovery), not N. Recovery already listed the journal
    /// stream, so its returned resume point is reused instead of a
    /// second LIST.
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
        let pkey = partition_ino(dir_ino, pidx);
        let lo = partition_lo(pidx, buckets, pcount);
        let hi = partition_hi(pidx, buckets, pcount);
        let recovery = recover_directory_scoped(prt, port, dir_ino, pkey, buckets, lo, hi)?;
        let dir = prt.load_inode(port, dir_ino)?;
        if dir.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let mut dentries = HashMap::new();
        let bucket_ids: Vec<u64> = (lo..hi).collect();
        for block in prt.load_buckets_many(port, dir_ino, &bucket_ids)? {
            for entry in block.entries {
                dentries.insert(entry.name.clone(), entry);
            }
        }
        let mut child_inos: Vec<Ino> = dentries
            .values()
            .filter(|e| e.ftype != FileType::Directory)
            .map(|e| e.ino)
            .collect();
        // Deterministic fetch order (hash-order iteration would jitter
        // virtual-time arrivals between runs).
        child_inos.sort_unstable();
        let mut children = HashMap::new();
        for (ino, rec) in child_inos
            .iter()
            .zip(prt.load_inodes_many(port, &child_inos)?)
        {
            let rec = rec.ok_or(FsError::NotFound)?;
            children.insert(*ino, rec);
        }
        prt.count_takeover(1 + (hi - lo) + child_inos.len() as u64);
        prt.meta_span("meta.takeover", pkey, t0, port.now());
        let resume = recovery.next_seq;
        Ok(Metatable {
            dir,
            dentries,
            children,
            journal: DirJournal::new(pkey, resume),
            file_leases: FileLeaseTable::new(file_lease_period),
            buckets,
            partition: pidx,
            pcount,
            pkey,
            bucket_lo: lo,
            bucket_hi: hi,
            frozen: false,
            sealed_depth: Some(
                prt.telemetry()
                    .registry
                    .gauge(&format!("journal.sealed_depth.p{pidx}")),
            ),
            rate_window_start: 0,
            rate_appends: 0,
            dirty_dir: false,
            dirty_children: HashSet::new(),
            deleted_children: HashSet::new(),
            dirty_buckets: HashSet::new(),
            subdir_view: None,
            deposit: Deposit::None,
        })
    }

    /// A metatable for a brand-new directory whose inode object was just
    /// written (mkdir path) — nothing to load.
    pub fn fresh(dir: InodeRecord, buckets: u64, file_lease_period: Nanos) -> Self {
        let ino = dir.ino;
        Metatable {
            dir,
            dentries: HashMap::new(),
            children: HashMap::new(),
            journal: DirJournal::new(ino, 0),
            file_leases: FileLeaseTable::new(file_lease_period),
            buckets,
            partition: 0,
            pcount: 1,
            pkey: ino,
            bucket_lo: 0,
            bucket_hi: buckets,
            frozen: false,
            sealed_depth: None,
            rate_window_start: 0,
            rate_appends: 0,
            dirty_dir: false,
            dirty_children: HashSet::new(),
            deleted_children: HashSet::new(),
            dirty_buckets: HashSet::new(),
            subdir_view: None,
            deposit: Deposit::None,
        }
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

    /// Record one journal append for the load trigger. Returns the
    /// measured append rate (per virtual second) each time a full rate
    /// window closes, `0` otherwise — so a caller polling per mutation
    /// sees at most one non-zero reading per window.
    pub fn note_append(&mut self, now: Nanos) -> u64 {
        if self.rate_appends == 0 {
            self.rate_window_start = now;
        }
        self.rate_appends += 1;
        let elapsed = now.saturating_sub(self.rate_window_start);
        if elapsed >= RATE_WINDOW {
            let rate = self.rate_appends.saturating_mul(SEC) / elapsed.max(1);
            self.rate_appends = 0;
            rate
        } else {
            0
        }
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

    fn subdirs_changed(&mut self) {
        self.subdir_view = None;
        self.outdate_deposit();
    }

    // ---- mutations (memory + journal) -------------------------------------

    fn mark_dentry(&mut self, name: &str) {
        self.dirty_buckets.insert(dentry_bucket(name, self.buckets));
    }

    fn touch_dir(&mut self, now: Nanos) {
        // Partitions > 0 hold a read-only directory-inode copy: mtime /
        // nlink maintenance belongs to partition 0 alone, so concurrent
        // partitions never write conflicting `i<dir>` updates. A
        // partitioned directory's mtime therefore tracks partition-0
        // activity only (documented relaxation, DESIGN.md §9).
        if self.partition != 0 {
            return;
        }
        self.dir.mtime = now;
        self.dir.ctime = now;
        self.dirty_dir = true;
        self.journal
            .append(JournalOp::PutInode(self.dir.clone()), now);
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
        let entry = DentryEntry {
            name: name.to_string(),
            ino: rec.ino,
            ftype: rec.ftype,
        };
        self.journal.append(JournalOp::PutInode(rec.clone()), now);
        self.journal.append(
            JournalOp::UpsertDentry {
                name: name.to_string(),
                ino: rec.ino,
                ftype: rec.ftype,
            },
            now,
        );
        self.deleted_children.remove(&rec.ino);
        self.dirty_children.insert(rec.ino);
        self.children.insert(rec.ino, rec);
        self.dentries.insert(name.to_string(), entry);
        self.mark_dentry(name);
        self.touch_dir(now);
        Ok(())
    }

    /// Register a subdirectory entry (its inode object is written eagerly
    /// by the caller so the child's first leader can load it).
    pub fn add_subdir(&mut self, name: &str, child_ino: Ino, now: Nanos) -> FsResult<()> {
        if self.dentries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        self.journal.append(
            JournalOp::UpsertDentry {
                name: name.to_string(),
                ino: child_ino,
                ftype: FileType::Directory,
            },
            now,
        );
        self.dentries.insert(
            name.to_string(),
            DentryEntry {
                name: name.to_string(),
                ino: child_ino,
                ftype: FileType::Directory,
            },
        );
        self.mark_dentry(name);
        self.subdirs_changed();
        if self.partition == 0 {
            self.dir.nlink += 1;
        }
        self.touch_dir(now);
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
        let rec = self
            .children
            .remove(&ino)
            .ok_or_else(|| FsError::Io(format!("dentry {name} points at unknown inode")))?;
        self.dentries.remove(name);
        self.journal.append(
            JournalOp::RemoveDentry {
                name: name.to_string(),
            },
            now,
        );
        self.journal.append(JournalOp::DeleteInode(ino), now);
        self.dirty_children.remove(&ino);
        self.deleted_children.insert(ino);
        self.mark_dentry(name);
        self.touch_dir(now);
        Ok(rec)
    }

    /// Remove a subdirectory entry (caller has verified emptiness while
    /// holding the child's lease).
    pub fn remove_subdir(&mut self, name: &str, now: Nanos) -> FsResult<Ino> {
        let entry = self.dentries.get(name).ok_or(FsError::NotFound)?;
        if entry.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        let ino = entry.ino;
        self.dentries.remove(name);
        self.journal.append(
            JournalOp::RemoveDentry {
                name: name.to_string(),
            },
            now,
        );
        self.journal.append(JournalOp::DeleteInode(ino), now);
        self.mark_dentry(name);
        self.subdirs_changed();
        if self.partition == 0 {
            self.dir.nlink = self.dir.nlink.saturating_sub(1);
        }
        self.touch_dir(now);
        Ok(ino)
    }

    /// Update a child file's size/mtime after data I/O. "If the
    /// modification time of a child file is renewed, the updated file
    /// inode will be written in the journal of the parent directory."
    pub fn set_child_size(&mut self, ino: Ino, size: u64, now: Nanos) -> FsResult<()> {
        let rec = self.children.get_mut(&ino).ok_or(FsError::Stale)?;
        rec.size = size;
        rec.mtime = now;
        let snapshot = rec.clone();
        self.journal.append(JournalOp::PutInode(snapshot), now);
        self.dirty_children.insert(ino);
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
        let rec = self.children.get_mut(&ino).ok_or(FsError::Stale)?;
        apply_setattr(rec, attr, now);
        let snapshot = rec.clone();
        self.journal
            .append(JournalOp::PutInode(snapshot.clone()), now);
        self.dirty_children.insert(ino);
        Ok(snapshot)
    }

    /// Apply a `setattr` to the directory itself.
    pub fn set_dir_attr(&mut self, attr: &SetAttr, now: Nanos) -> InodeRecord {
        apply_setattr(&mut self.dir, attr, now);
        self.outdate_deposit();
        self.dirty_dir = true;
        self.journal
            .append(JournalOp::PutInode(self.dir.clone()), now);
        self.dir.clone()
    }

    /// Replace the ACL on a child or the directory.
    pub fn set_acl(&mut self, target: Ino, acl: arkfs_vfs::Acl, now: Nanos) -> FsResult<()> {
        if target == self.dir.ino {
            self.dir.acl = acl;
            self.outdate_deposit();
            self.dir.ctime = now;
            self.dirty_dir = true;
            self.journal
                .append(JournalOp::PutInode(self.dir.clone()), now);
            return Ok(());
        }
        let rec = self.children.get_mut(&target).ok_or(FsError::Stale)?;
        rec.acl = acl;
        rec.ctime = now;
        let snapshot = rec.clone();
        self.journal.append(JournalOp::PutInode(snapshot), now);
        self.dirty_children.insert(target);
        Ok(())
    }

    /// Same-directory rename (no 2PC needed: one journal). Returns what
    /// moved.
    pub fn rename_local(&mut self, from: &str, to: &str, now: Nanos) -> FsResult<(Ino, FileType)> {
        let entry = self.dentries.get(from).ok_or(FsError::NotFound)?.clone();
        if let Some(existing) = self.dentries.get(to) {
            // POSIX: replace only a matching type; non-empty dir targets
            // are the caller's job to reject.
            if existing.ftype == FileType::Directory && entry.ftype != FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            if existing.ftype != FileType::Directory && entry.ftype == FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            if existing.ftype != FileType::Directory {
                // Replacing a file: drop its inode.
                let victim = existing.ino;
                self.children.remove(&victim);
                self.journal.append(JournalOp::DeleteInode(victim), now);
                self.dirty_children.remove(&victim);
                self.deleted_children.insert(victim);
            }
        }
        self.dentries.remove(from);
        let moved = DentryEntry {
            name: to.to_string(),
            ino: entry.ino,
            ftype: entry.ftype,
        };
        self.dentries.insert(to.to_string(), moved);
        self.journal.append(
            JournalOp::RemoveDentry {
                name: from.to_string(),
            },
            now,
        );
        self.journal.append(
            JournalOp::UpsertDentry {
                name: to.to_string(),
                ino: entry.ino,
                ftype: entry.ftype,
            },
            now,
        );
        self.mark_dentry(from);
        self.mark_dentry(to);
        if entry.ftype == FileType::Directory {
            self.subdirs_changed();
        }
        self.touch_dir(now);
        Ok((entry.ino, entry.ftype))
    }

    /// Detach a child (source half of a cross-directory rename). Returns
    /// the dentry and, for files, the inode record that must move with it.
    pub fn detach_child(
        &mut self,
        name: &str,
        now: Nanos,
    ) -> FsResult<(DentryEntry, Option<InodeRecord>)> {
        let entry = self.dentries.get(name).ok_or(FsError::NotFound)?.clone();
        let rec = if entry.ftype != FileType::Directory {
            let rec = self.children.remove(&entry.ino);
            self.dirty_children.remove(&entry.ino);
            rec
        } else {
            self.subdirs_changed();
            if self.partition == 0 {
                self.dir.nlink = self.dir.nlink.saturating_sub(1);
            }
            None
        };
        self.dentries.remove(name);
        self.mark_dentry(name);
        self.touch_dir(now);
        Ok((entry, rec))
    }

    /// Attach a child (destination half of a cross-directory rename).
    pub fn attach_child(
        &mut self,
        name: &str,
        entry_ino: Ino,
        ftype: FileType,
        rec: Option<InodeRecord>,
        now: Nanos,
    ) -> FsResult<()> {
        if self.dentries.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        self.dentries.insert(
            name.to_string(),
            DentryEntry {
                name: name.to_string(),
                ino: entry_ino,
                ftype,
            },
        );
        if ftype == FileType::Directory {
            self.subdirs_changed();
            if self.partition == 0 {
                self.dir.nlink += 1;
            }
        }
        if let Some(rec) = rec {
            self.dirty_children.insert(rec.ino);
            self.children.insert(rec.ino, rec);
        }
        self.mark_dentry(name);
        self.touch_dir(now);
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
        let _applied = self.journal.take_committed();
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
        let mut dirty_bucket_ids: Vec<u64> = self.dirty_buckets.drain().collect();
        dirty_bucket_ids.sort_unstable();
        let dirty_buckets: Vec<(u64, DentryBlock)> = dirty_bucket_ids
            .into_iter()
            .map(|bucket| (bucket, self.bucket_block(bucket)))
            .collect();
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

    fn bucket_block(&self, bucket: u64) -> DentryBlock {
        let mut entries: Vec<DentryEntry> = self
            .dentries
            .values()
            .filter(|e| dentry_bucket(&e.name, self.buckets) == bucket)
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        DentryBlock { entries }
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
    /// on an empty stream. Returned so `Metatable::load` does not have
    /// to LIST the journal a second time just to compute its resume
    /// point.
    pub next_seq: u64,
}

/// Journal recovery for a directory (§III-E.1): scan the journal stream
/// (one LIST + one batched multi-GET), fold 2PC decisions, apply the
/// surviving ops onto the home objects with batched base-state loads and
/// write-backs, and delete the stream with one batched multi-DELETE.
/// Idempotent; a no-op when the journal is empty.
pub fn recover_directory(prt: &Prt, port: &Port, dir_ino: Ino, buckets: u64) -> FsResult<Recovery> {
    recover_directory_scoped(prt, port, dir_ino, dir_ino, buckets, 0, buckets)
}

/// Partition-scoped journal recovery: replay the journal stream of
/// `journal_key` (a partition key of `dir_home`) against the owned
/// bucket range `[lo, hi)` only. Other partitions' buckets — possibly
/// being recovered or checkpointed concurrently by *their* leaders — are
/// never read or written. With `journal_key == dir_home` and the full
/// range this is exactly the classic single-journal recovery.
pub fn recover_directory_scoped(
    prt: &Prt,
    port: &Port,
    dir_home: Ino,
    journal_key: Ino,
    buckets: u64,
    lo: u64,
    hi: u64,
) -> FsResult<Recovery> {
    let t0 = port.now();
    let (seqs, txns) = scan_journal_stream(prt, port, journal_key)?;
    let next_seq = seqs.last().map_or(0, |s| s + 1);
    if txns.is_empty() {
        return Ok(Recovery {
            replayed: 0,
            next_seq,
        });
    }
    let ops = resolve_renames(prt, port, &txns)?;

    // Base state: what the home objects currently say — the directory
    // inode plus one batched sweep over the owned dentry buckets.
    let mut dir = match prt.load_inode(port, dir_home) {
        Ok(rec) => Some(rec),
        Err(FsError::NotFound) => None,
        Err(e) => return Err(e),
    };
    let mut dir_replayed = false;
    let mut dentries: HashMap<String, DentryEntry> = HashMap::new();
    let bucket_ids: Vec<u64> = (lo..hi).collect();
    for block in prt.load_buckets_many(port, dir_home, &bucket_ids)? {
        for entry in block.entries {
            dentries.insert(entry.name.clone(), entry);
        }
    }
    let mut put_inodes: HashMap<Ino, InodeRecord> = HashMap::new();
    let mut del_inodes: HashSet<Ino> = HashSet::new();

    let owned = |name: &str| {
        let b = dentry_bucket(name, buckets);
        b >= lo && b < hi
    };
    for op in ops {
        match op {
            JournalOp::PutInode(rec) => {
                if rec.ino == dir_home {
                    dir = Some(rec);
                    dir_replayed = true;
                } else {
                    del_inodes.remove(&rec.ino);
                    put_inodes.insert(rec.ino, rec);
                }
            }
            JournalOp::DeleteInode(ino) => {
                put_inodes.remove(&ino);
                del_inodes.insert(ino);
            }
            // Dentry ops outside the owned range cannot appear in this
            // partition's journal (leaders validate ownership before
            // journaling); the filter is a defensive bound so a corrupt
            // stream can never clobber a peer partition's buckets.
            JournalOp::UpsertDentry { name, ino, ftype } => {
                if owned(&name) {
                    dentries.insert(name.clone(), DentryEntry { name, ino, ftype });
                }
            }
            JournalOp::RemoveDentry { name } => {
                if owned(&name) {
                    dentries.remove(&name);
                }
            }
            // 2PC records were folded by resolve_renames.
            JournalOp::RenamePrepare { .. }
            | JournalOp::RenameCommit { .. }
            | JournalOp::RenameAbort { .. } => {}
        }
    }

    // Write everything back: one batched PUT for every surviving inode,
    // one batched DELETE for the dead ones, one batched bucket
    // write-back, and one batched DELETE of the journal stream (the scan
    // already listed it — no second LIST). The directory inode is
    // written by its own partition (journal_key == dir_home) or when the
    // journal replayed an update to it; secondary partitions otherwise
    // leave `i<dir>` alone so they never clobber partition 0's copy.
    let mut recs: Vec<&InodeRecord> = if journal_key == dir_home || dir_replayed {
        dir.iter().collect()
    } else {
        Vec::new()
    };
    recs.extend(put_inodes.values());
    // Deterministic write-back order (hash-order iteration would jitter
    // virtual-time arrivals between runs).
    recs.sort_unstable_by_key(|r| r.ino);
    prt.store_inodes_many(port, &recs)?;
    let mut dead: Vec<Ino> = del_inodes.into_iter().collect();
    dead.sort_unstable();
    prt.delete_inodes_many(port, &dead)?;
    let blocks: Vec<(u64, DentryBlock)> = (lo..hi)
        .map(|bucket| {
            let mut entries: Vec<DentryEntry> = dentries
                .values()
                .filter(|e| dentry_bucket(&e.name, buckets) == bucket)
                .cloned()
                .collect();
            entries.sort_by(|a, b| a.name.cmp(&b.name));
            (bucket, DentryBlock { entries })
        })
        .collect();
    prt.store_buckets_many(port, dir_home, &blocks)?;
    prt.delete_journal_many(port, journal_key, &seqs)?;
    prt.meta_span("meta.recover", journal_key, t0, port.now());
    Ok(Recovery {
        replayed: txns.len(),
        next_seq,
    })
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
        let (entry, _) = mt.detach_child("c", 6).unwrap();
        assert!(mt.subdir_view().is_empty());
        mt.attach_child("d", entry.ino, entry.ftype, None, 7)
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
        assert!(mt.journal.is_quiescent());
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
        prt.put_journal(&port, DIR, 0, txn.seal()).unwrap();
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
        let (entry, rec) = src.detach_child("mv.txt", 1).unwrap();
        assert!(src.lookup("mv.txt").is_none());
        dst.attach_child("moved.txt", entry.ino, entry.ftype, rec, 1)
            .unwrap();
        assert_eq!(dst.lookup("moved.txt").unwrap().ino, 1);
        assert!(dst.child_inode(1).is_some());
        // Attach over existing name fails.
        let err = dst.attach_child("moved.txt", 9, FileType::Regular, None, 2);
        assert_eq!(err, Err(FsError::AlreadyExists));
    }

    #[test]
    fn note_append_reports_once_per_window() {
        let mut mt = fresh_table();
        assert_eq!(mt.note_append(0), 0);
        for _ in 0..98 {
            assert_eq!(mt.note_append(MSEC), 0);
        }
        // The 100th append closes the window: 100 appends over 10 ms.
        assert_eq!(mt.note_append(RATE_WINDOW), 100 * SEC / RATE_WINDOW);
        // Counter reset: the next append opens a fresh window.
        assert_eq!(mt.note_append(RATE_WINDOW + 1), 0);
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
}
