//! Open-file handles and per-file lease acquisition/release (§III-D).
//!
//! The [`FileTable`] shards open handles by handle id (`id % N`), so
//! threads reading/writing different files never contend on one handle
//! map. Handle ids are *composed* so that `id % N == ino % N`: every
//! handle on the same file lives in that file's home shard, which lets
//! the per-file scans (flush-to-direct, reads-own-writes stat,
//! truncate) lock exactly one shard instead of walking all N. Shards
//! are rank-*Leaf* locks (see [`super::lockorder`]): a shard is only
//! ever held for the duration of one map access, never across an RPC,
//! a metatable, or the data cache. The remaining whole-table scans
//! (sync-all size pushes, crash clear) lock shards one at a time,
//! sequentially.
//!
//! Client-side file-lease calls live here too. A handle holds nothing
//! of its file's lease when it is opened; its first data access asks the
//! parent's leader for the read or the write lease ([`Held`]), before
//! any cached chunk is looked at, and its close hands back only what was
//! taken (failed releases are counted on `lease.release_failed.count`,
//! not silently dropped). A handle that moves no data costs the leader
//! no lease message and no lease-table entry.

use super::lockorder::{self, Rank, RankGuard};
use super::ArkClient;
use crate::cache::RaState;
use crate::rpc::{OpBody, OpResponse};
use arkfs_lease::FileLeaseDecision;
use arkfs_simkit::Port;
use arkfs_vfs::{Credentials, FsError, FsResult, Ino, OpenFlags};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a handle holds of its file's lease (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Held {
    /// Nothing yet: no data access so far, so nothing cached under it.
    None,
    /// The shared read lease: reads go through the cache.
    Read,
    /// The exclusive write lease: reads and writes go through the cache.
    Write,
    /// A lease conflict, found when asking or by the leader's flush
    /// broadcast: direct object-store I/O, and nothing to hand back (the
    /// leader's conflict state replaced this client's entry).
    Direct,
}

/// Per-open-file state, including the read-ahead window (§III-D).
#[derive(Debug)]
pub(crate) struct OpenFile {
    pub(crate) ino: Ino,
    pub(crate) parent: Ino,
    /// Dentry name under `parent` at open time; size pushes route by it
    /// to the partition owning the dentry when `parent` is partitioned.
    pub(crate) name: String,
    pub(crate) flags: OpenFlags,
    /// Local view of the file size (updated by writes; pushed to the
    /// leader on fsync/close).
    pub(crate) size: u64,
    pub(crate) lease: Held,
    pub(crate) wrote: bool,
    /// Read-ahead window and sequentiality detection.
    pub(crate) ra: RaState,
}

#[derive(Debug, Default)]
struct Shard {
    handles: HashMap<u64, OpenFile>,
    locks: u64,
}

struct ShardGuard<'a> {
    guard: MutexGuard<'a, Shard>,
    _rank: RankGuard,
}

/// Open-file handles, sharded by handle id.
#[derive(Debug)]
pub(crate) struct FileTable {
    shards: Vec<Mutex<Shard>>,
    next_handle: AtomicU64,
    node: u32,
    pub(crate) contention: super::Contention,
}

impl FileTable {
    pub(crate) fn new(shards: usize, node: u32) -> Self {
        FileTable {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            next_handle: AtomicU64::new(1),
            node,
            contention: super::Contention::default(),
        }
    }

    fn shard_at(&self, i: usize) -> ShardGuard<'_> {
        let rank = lockorder::acquire(self.node, Rank::Leaf);
        let mut guard = self.contention.lock(&self.shards[i]);
        guard.locks += 1;
        ShardGuard { guard, _rank: rank }
    }

    fn shard(&self, id: u64) -> ShardGuard<'_> {
        self.shard_at((id % self.shards.len() as u64) as usize)
    }

    /// The shard every handle on `file` lives in (`ino % N`).
    fn home_shard(&self, file: Ino) -> usize {
        (file % self.shards.len() as u128) as usize
    }

    /// Register an open file; returns its handle id. Ids are composed
    /// as `seq * N + (ino % N)` so that `id % N` is the file's home
    /// shard: lookups by id and scans by ino hit the same shard.
    pub(crate) fn insert(&self, file: OpenFile) -> u64 {
        let n = self.shards.len() as u64;
        let seq = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let id = seq * n + self.home_shard(file.ino) as u64;
        self.shard(id).guard.handles.insert(id, file);
        id
    }

    pub(crate) fn remove(&self, id: u64) -> Option<OpenFile> {
        self.shard(id).guard.handles.remove(&id)
    }

    /// Read fields of one handle under its shard lock.
    pub(crate) fn get<R>(&self, id: u64, f: impl FnOnce(&OpenFile) -> R) -> Option<R> {
        self.shard(id).guard.handles.get(&id).map(f)
    }

    /// Mutate one handle under its shard lock.
    pub(crate) fn update<R>(&self, id: u64, f: impl FnOnce(&mut OpenFile) -> R) -> Option<R> {
        self.shard(id).guard.handles.get_mut(&id).map(f)
    }

    /// Flip every lease-holding handle on `file` to direct-I/O mode
    /// (leader-initiated flush; a handle holding nothing asks for itself
    /// at its first access); returns the largest locally-known size, if
    /// any handle matched. Only `file`'s home shard can hold them.
    pub(crate) fn flip_to_direct(&self, file: Ino) -> Option<u64> {
        let mut size = None;
        let mut s = self.shard_at(self.home_shard(file));
        for h in s.guard.handles.values_mut() {
            if h.ino == file {
                if h.lease != Held::None {
                    h.lease = Held::Direct;
                }
                size = Some(size.unwrap_or(0).max(h.size));
            }
        }
        size
    }

    /// Largest size any open handle knows for `file` (reads-own-writes).
    pub(crate) fn max_open_size(&self, file: Ino) -> Option<u64> {
        let mut size = None;
        let s = self.shard_at(self.home_shard(file));
        for h in s.guard.handles.values() {
            if h.ino == file {
                size = Some(size.unwrap_or(0).max(h.size));
            }
        }
        size
    }

    /// Force every handle on `file` to `size` (truncate).
    pub(crate) fn set_size_for(&self, file: Ino, size: u64) {
        let mut s = self.shard_at(self.home_shard(file));
        for h in s.guard.handles.values_mut() {
            if h.ino == file {
                h.size = size;
            }
        }
    }

    /// Clear every written handle's dirty flag and collect its
    /// `(parent, name, ino, size)` for a size push (sync_all).
    pub(crate) fn take_pending_sizes(&self) -> Vec<(Ino, String, Ino, u64)> {
        let mut pending = Vec::new();
        for i in 0..self.shards.len() {
            let mut s = self.shard_at(i);
            for h in s.guard.handles.values_mut() {
                if h.wrote {
                    h.wrote = false;
                    pending.push((h.parent, h.name.clone(), h.ino, h.size));
                }
            }
        }
        pending
    }

    /// Number of currently open handles.
    pub(crate) fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard_at(i).guard.handles.len())
            .sum()
    }

    /// Drop every handle (crash).
    pub(crate) fn clear(&self) {
        for i in 0..self.shards.len() {
            self.shard_at(i).guard.handles.clear();
        }
    }

    /// Total shard-lock acquisitions so far.
    pub(crate) fn lock_count(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| {
                let s = self.shard_at(i);
                // Don't count this read itself.
                s.guard.locks - 1
            })
            .sum()
    }
}

impl ArkClient {
    /// Handle `fh`'s first data access (or its first write after reads):
    /// ask `parent`'s leader for `file`'s read or write lease and record
    /// the outcome on the handle. Runs before the access touches the
    /// cache, so no chunk is ever served or dirtied without a lease.
    pub(crate) fn take_file_lease(
        &self,
        fh: u64,
        parent: Ino,
        file: Ino,
        write: bool,
    ) -> FsResult<Held> {
        let (dir, client) = (parent, self.state.id);
        let (body, granted) = if write {
            (OpBody::AcquireWriteLease { dir, file, client }, Held::Write)
        } else {
            (OpBody::AcquireReadLease { dir, file, client }, Held::Read)
        };
        let held = match self.on_dir(&Credentials::root(), body)? {
            OpResponse::Lease(FileLeaseDecision::Granted { .. }) => granted,
            OpResponse::Lease(FileLeaseDecision::Direct { .. }) => {
                // Our own cached data must go to the store before direct
                // mode.
                self.flush_file_data(file)?;
                self.state.lock_cache().invalidate_file(file);
                Held::Direct
            }
            OpResponse::Err(e) => return Err(e),
            _ => return Err(FsError::Io("unexpected lease response".into())),
        };
        self.state
            .files
            .update(fh, |h| h.lease = held)
            .ok_or(FsError::BadHandle)?;
        Ok(held)
    }

    /// Hand a file lease back to the parent's leader, on `port`: the
    /// caller's own timeline, or a forked one when the close does not
    /// wait for it (the release still executes and still counts
    /// failures). A rejected or undeliverable release is not an error
    /// for the caller (the lease drains by expiry), but it is *counted*
    /// so operators can see leaders serving stale lease tables.
    pub(crate) fn release_file_lease(&self, port: &Port, parent: Ino, file: Ino) {
        let body = OpBody::ReleaseFileLease {
            dir: parent,
            file,
            client: self.state.id,
        };
        // Routed like the acquire (lease service shards by file ino),
        // so the release reaches the partition holding the lease entry.
        match self.on_dir_port(port, &Credentials::root(), body) {
            Ok(OpResponse::Ok) => {}
            Ok(_) | Err(_) => self.state.lease_release_failed.inc(),
        }
    }

    /// Push size/mtime to the parent leader (fsync semantics: durable
    /// before the ack in sync mode, sealed into the pipeline in async
    /// mode). With `release` the same message hands back our lease on
    /// `file` — the close of a written handle; the caller has checked
    /// that `name`'s partition is the file's lease shard.
    pub(crate) fn push_size(
        &self,
        ctx: &Credentials,
        parent: Ino,
        name: &str,
        file: Ino,
        size: u64,
        release: bool,
    ) -> FsResult<()> {
        let (dir, name, ino) = (parent, name.to_string(), file);
        let body = if release {
            let client = self.state.id;
            OpBody::CloseFile {
                dir,
                name,
                ino,
                size,
                client,
            }
        } else {
            OpBody::SetSize {
                dir,
                name,
                ino,
                size,
            }
        };
        self.on_dir_ok(ctx, body)
    }
}
