//! Open-file handles and per-file lease acquisition/release (§III-D).
//!
//! The [`FileTable`] maps handle ids (a per-client sequence number) to
//! open handles under one rank-*Leaf* lock (see [`super::lockorder`]):
//! it is only ever held for the duration of one map access or scan,
//! never across an RPC, a metatable, or the data cache.
//!
//! Client-side file-lease calls live here too (§III-D; DESIGN.md §5,
//! "When a file lease is asked for"): a readable `open` brings the read
//! lease back with its lookup, any other handle asks at its first data
//! access ([`Held`]) before it looks at the cache, a granted write lease
//! is not waited for, and the client's lease goes back — with the file's
//! clean chunks — when its last holding handle closes (failed releases
//! are counted on `lease.release_failed.count`, not silently dropped).

use super::lockorder::{self, Rank, Ranked};
use super::ArkClient;
use crate::cache::RaState;
use crate::meta::InodeRecord;
use crate::rpc::{OpBody, OpResponse};
use arkfs_lease::FileLeaseDecision;
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, Port};
use arkfs_vfs::{Credentials, FsError, FsResult, Ino, OpenFlags};
use parking_lot::Mutex;
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
    /// When the reply to this handle's last lease request arrives: a
    /// write-lease grant is not waited for, and no message handing the
    /// lease back departs before it.
    pub(crate) acked: Nanos,
    pub(crate) wrote: bool,
    /// Read-ahead window and sequentiality detection.
    pub(crate) ra: RaState,
}

impl OpenFile {
    /// A handle on `ino` (dentry `name` of `parent`) that holds nothing
    /// of its lease yet.
    pub(crate) fn new(ino: Ino, parent: Ino, name: &str, flags: OpenFlags, size: u64) -> Self {
        OpenFile {
            ino,
            parent,
            name: name.to_string(),
            flags,
            size,
            lease: Held::None,
            acked: 0,
            wrote: false,
            ra: RaState::default(),
        }
    }
}

/// Open-file handles by handle id.
#[derive(Debug)]
pub(crate) struct FileTable {
    handles: Mutex<HashMap<u64, OpenFile>>,
    next_handle: AtomicU64,
    node: u32,
}

impl FileTable {
    pub(crate) fn new(node: u32) -> Self {
        FileTable {
            handles: Mutex::default(),
            next_handle: AtomicU64::new(1),
            node,
        }
    }

    fn lock(&self) -> Ranked<'_, HashMap<u64, OpenFile>> {
        lockorder::lock(self.node, Rank::Leaf, &self.handles)
    }

    /// Register an open file; returns its handle id.
    pub(crate) fn insert(&self, file: OpenFile) -> u64 {
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.lock().insert(id, file);
        id
    }

    pub(crate) fn remove(&self, id: u64) -> Option<OpenFile> {
        self.lock().remove(&id)
    }

    /// Read fields of one handle under the table lock.
    pub(crate) fn get<R>(&self, id: u64, f: impl FnOnce(&OpenFile) -> R) -> Option<R> {
        self.lock().get(&id).map(f)
    }

    /// Mutate one handle under the table lock.
    pub(crate) fn update<R>(&self, id: u64, f: impl FnOnce(&mut OpenFile) -> R) -> Option<R> {
        self.lock().get_mut(&id).map(f)
    }

    /// Flip every lease-holding handle on `file` to direct-I/O mode
    /// (leader-initiated flush; a handle holding nothing asks for itself
    /// at its first access); returns the largest size a handle wrote and
    /// has not pushed, if any: a handle that only read knows the size of
    /// its open, which a truncate may have made stale.
    pub(crate) fn flip_to_direct(&self, file: Ino) -> Option<u64> {
        let mut size = None;
        for h in self.lock().values_mut().filter(|h| h.ino == file) {
            if h.lease != Held::None {
                h.lease = Held::Direct;
            }
            if h.wrote {
                size = Some(size.unwrap_or(0).max(h.size));
            }
        }
        size
    }

    /// How many open handles on `file` hold this client's lease on it:
    /// the lease goes back with the last of them.
    pub(crate) fn lease_holders(&self, file: Ino) -> usize {
        (self.lock().values())
            .filter(|h| h.ino == file && matches!(h.lease, Held::Read | Held::Write))
            .count()
    }

    /// Largest size any open handle knows for `file` (reads-own-writes).
    pub(crate) fn max_open_size(&self, file: Ino) -> Option<u64> {
        let handles = self.lock();
        handles
            .values()
            .filter(|h| h.ino == file)
            .map(|h| h.size)
            .max()
    }

    /// Force every handle on `file` to `size` (truncate).
    pub(crate) fn set_size_for(&self, file: Ino, size: u64) {
        for h in self.lock().values_mut().filter(|h| h.ino == file) {
            h.size = size;
        }
    }

    /// The largest size a handle on the removed `file` knows, and its
    /// handles owe no size push from now on: no dentry names the file.
    pub(crate) fn forget_removed(&self, file: Ino) -> u64 {
        let mut size = 0;
        for h in self.lock().values_mut().filter(|h| h.ino == file) {
            size = size.max(h.size);
            h.wrote = false;
        }
        size
    }

    /// Clear every written handle's dirty flag and collect its
    /// `(parent, name, ino, size)` for a size push (sync_all), in handle
    /// order: the pushes go out in it.
    pub(crate) fn take_pending_sizes(&self) -> Vec<(Ino, String, Ino, u64)> {
        let mut pending = Vec::new();
        for (&id, h) in self.lock().iter_mut().filter(|(_, h)| h.wrote) {
            h.wrote = false;
            pending.push((id, (h.parent, h.name.clone(), h.ino, h.size)));
        }
        pending.sort_unstable_by_key(|&(id, _)| id);
        pending.into_iter().map(|(_, push)| push).collect()
    }

    /// Number of currently open handles.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Drop every handle (crash).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }
}

impl ArkClient {
    /// The lookup of a readable open, which brings the read lease back
    /// with it when the leader grants one: `(ino, record, what the new
    /// handle holds)`. `access` is the open's `AM_*` bits; the leader
    /// grants nothing the caller's own check of them would refuse.
    pub(crate) fn open_lookup(
        &self,
        ctx: &Credentials,
        parent: Ino,
        name: &str,
        access: u8,
    ) -> FsResult<(Ino, InodeRecord, Held)> {
        let (dir, name, client) = (parent, name.to_string(), self.state.id);
        let body = OpBody::OpenRead {
            dir,
            name,
            client,
            access,
        };
        let (rec, lease) = match self.on_dir(ctx, body)? {
            OpResponse::Opened { rec, lease } => (rec, lease),
            _ => return Err(FsError::Io("unexpected open response".into())),
        };
        let held = match lease {
            Some(decision) => {
                self.state.lease_at_open.inc();
                self.adopt_lease(rec.ino, decision, Held::Read)?
            }
            None => Held::None,
        };
        Ok((rec.ino, rec, held))
    }

    /// Handle `fh`'s first data access without a lease (or its first
    /// write after reads): ask for `file`'s read or write lease and
    /// record the outcome on the handle. Runs before the access touches
    /// the cache, so no chunk is ever served or dirtied without a lease.
    pub(crate) fn take_file_lease(
        &self,
        fh: u64,
        parent: Ino,
        file: Ino,
        write: bool,
    ) -> FsResult<Held> {
        let (held, acked) = self.ask_file_lease(parent, file, write)?;
        if held == Held::Write {
            self.state.lease_write_unwaited.inc();
        }
        self.state
            .files
            .update(fh, |h| {
                h.lease = held;
                h.acked = acked;
            })
            .ok_or(FsError::BadHandle)?;
        Ok(held)
    }

    /// Ask `parent`'s leader for `file`'s read or write lease, departing
    /// now: what the asker holds, and when the answer arrives. Only a
    /// granted write is not waited for: the chunks it dirties stay in
    /// this cache, and nothing hands the lease back before the answer.
    pub(crate) fn ask_file_lease(
        &self,
        parent: Ino,
        file: Ino,
        write: bool,
    ) -> FsResult<(Held, Nanos)> {
        let (dir, client) = (parent, self.state.id);
        let (body, granted) = if write {
            (OpBody::AcquireWriteLease { dir, file, client }, Held::Write)
        } else {
            (OpBody::AcquireReadLease { dir, file, client }, Held::Read)
        };
        let reply = Port::starting_at(self.port.now());
        let decision = match self.on_dir_port(&reply, &Credentials::root(), body) {
            Ok(OpResponse::Lease(decision)) => Ok(decision),
            Ok(_) => Err(FsError::Io("unexpected lease response".into())),
            Err(e) => Err(e),
        };
        let acked = reply.now();
        if !(write && matches!(decision, Ok(FileLeaseDecision::Granted { .. }))) {
            self.port.wait_until(acked);
        }
        Ok((self.adopt_lease(file, decision?, granted)?, acked))
    }

    /// What a handle holds after the leader's `decision` on its request
    /// for `granted`. On a conflict this client's cached chunks of `file`
    /// go to the store first, and every handle of ours on it turns to
    /// direct I/O: the leader's conflict state replaced our entry.
    fn adopt_lease(&self, file: Ino, decision: FileLeaseDecision, granted: Held) -> FsResult<Held> {
        match decision {
            FileLeaseDecision::Granted { .. } => Ok(granted),
            FileLeaseDecision::Direct { .. } => {
                self.flush_file_data(Some(file))?;
                self.state.lock_cache().invalidate_file(file);
                self.state.files.flip_to_direct(file);
                Ok(Held::Direct)
            }
        }
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
        if self
            .on_dir_port_ok(port, &Credentials::root(), body)
            .is_err()
        {
            self.state.lease_release_failed.inc();
        }
    }

    /// Push size/mtime to the parent leader on `port`, sealed into the
    /// pipeline (the caller's fsync barrier makes it durable). With
    /// `release` the same message hands back our lease on `file` — the
    /// close of a written handle; the caller has checked that `name`'s
    /// partition is the file's lease shard.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_size(
        &self,
        port: &Port,
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
        self.on_dir_port_ok(port, ctx, body)
    }
}
