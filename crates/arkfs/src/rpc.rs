//! Client↔client RPC protocol: the operations a non-leader forwards to a
//! directory leader (§III-B: "the rest of the clients who failed to get a
//! lease should send their requests to the directory leader so that the
//! directory leader can perform the requested operations on behalf of the
//! other clients"), plus file-lease traffic and cache-flush broadcasts.

use crate::meta::InodeRecord;
use arkfs_lease::FileLeaseDecision;
use arkfs_netsim::NodeId;
use arkfs_telemetry::{ctx, TraceCtx};
use arkfs_vfs::{Acl, Credentials, DirEntry, FileType, FsError, Ino, SetAttr};
use std::sync::Arc;

/// A forwarded file-system operation, carrying the originator's
/// credentials so the leader can enforce permissions ("If C1 does not
/// have a permission to access /home/doc/bar.txt, C2 will return a
/// permission error") and the causal [`TraceCtx`] of the client op
/// that issued it, so spans recorded while serving the request link
/// back to the originating trace.
#[derive(Debug, Clone)]
pub struct OpRequest {
    pub creds: Credentials,
    pub trace: TraceCtx,
    pub body: OpBody,
}

impl OpRequest {
    /// Build a request stamped with the calling thread's ambient
    /// trace context (see [`arkfs_telemetry::ctx`]).
    pub fn new(creds: Credentials, body: OpBody) -> OpRequest {
        OpRequest {
            creds,
            trace: ctx::current(),
            body,
        }
    }
}

/// The operation itself. `dir` is always the directory the destination
/// client is expected to lead.
#[derive(Debug, Clone)]
pub enum OpBody {
    /// Resolve `name` in `dir`; returns the dentry and, for non-directory
    /// children, the inode record.
    Lookup {
        dir: Ino,
        name: String,
    },
    /// The directory's own inode record (stat / permission info; feeds
    /// the permission cache).
    DirInode {
        dir: Ino,
    },
    /// Create a regular file or symlink with a caller-allocated inode.
    Create {
        dir: Ino,
        name: String,
        rec: InodeRecord,
    },
    /// Register a subdirectory entry (inode object already written).
    AddSubdir {
        dir: Ino,
        name: String,
        child: Ino,
    },
    /// Unlink a file/symlink; returns its final inode record so the
    /// caller can delete the data chunks.
    Unlink {
        dir: Ino,
        name: String,
    },
    /// Remove an empty-subdirectory entry.
    RemoveSubdir {
        dir: Ino,
        name: String,
    },
    /// List one partition's slice of the directory (`partition` is 0 for
    /// unpartitioned directories); the caller merges the slices.
    Readdir {
        dir: Ino,
        partition: u32,
    },
    /// Post-write size/mtime update for a child file. `name` routes the
    /// request to the partition owning the child's dentry.
    SetSize {
        dir: Ino,
        name: String,
        ino: Ino,
        size: u64,
    },
    /// setattr on a child file/symlink (`name` routes, as in `SetSize`).
    SetAttrChild {
        dir: Ino,
        name: String,
        ino: Ino,
        attr: SetAttr,
    },
    /// setattr on the directory itself.
    SetAttrDir {
        dir: Ino,
        attr: SetAttr,
    },
    /// Replace the ACL of the directory (`target == dir`, empty `name`,
    /// handled by partition 0) or a child (`name` routes).
    SetAcl {
        dir: Ino,
        name: String,
        target: Ino,
        acl: Acl,
    },
    /// Same-directory rename.
    RenameLocal {
        dir: Ino,
        from: String,
        to: String,
    },
    /// 2PC rename, source half: journal a prepare that removes `name`,
    /// detach it in memory, and return what moved.
    RenameSrcPrepare {
        dir: Ino,
        name: String,
        txid: u128,
        peer: Ino,
    },
    /// 2PC rename, destination half: journal a prepare that inserts the
    /// entry, attach it in memory.
    RenameDstPrepare {
        dir: Ino,
        name: String,
        txid: u128,
        peer: Ino,
        ino: Ino,
        ftype: FileType,
        rec: Option<InodeRecord>,
    },
    /// 2PC decision; `name` routes it to the partition that journaled
    /// the matching prepare. On abort of a source half, `undo` carries
    /// the detached entry to re-attach.
    RenameDecide {
        dir: Ino,
        name: String,
        txid: u128,
        commit: bool,
        undo: Option<(String, Ino, FileType, Option<InodeRecord>)>,
    },
    /// File lease traffic (§III-D): leaders manage child files' leases.
    AcquireReadLease {
        dir: Ino,
        file: Ino,
        client: NodeId,
    },
    AcquireWriteLease {
        dir: Ino,
        file: Ino,
        client: NodeId,
    },
    ReleaseFileLease {
        dir: Ino,
        file: Ino,
        client: NodeId,
    },
    /// Cache-flush broadcast from a leader to a lease holder: write back
    /// and drop cached chunks of `file`.
    FlushCache {
        file: Ino,
    },
    /// Durability barrier on one directory partition (async commit
    /// pipeline): seal and flush the running transaction and drain the
    /// partition's commit lane before responding, so the caller's
    /// `fsync` contract holds even when the leader acks mutations before
    /// durability. A partitioned directory's fsync fans this out to
    /// every partition.
    FsyncDir {
        dir: Ino,
        partition: u32,
    },
    /// Split/merge handoff: ask the current leader of `partition` to
    /// quiesce it — commit and checkpoint its journal — and release its
    /// lease so the new partition map can take effect.
    RelinquishPartition {
        dir: Ino,
        partition: u32,
    },
    /// Permission-cache fill: the directory's inode record plus its
    /// subdirectory dentries in one reply ([`OpResponse::View`]), so a
    /// client resolves every path through `dir` for one lease period
    /// without a per-name `Lookup`. Served by partition 0, like
    /// `DirInode`.
    DirView {
        dir: Ino,
    },
    /// `Create` of a regular file fused with the creator's read lease on
    /// it (create-and-open). The reply is [`OpResponse::Lease`] when the
    /// serving partition is also the file's lease shard
    /// (`rec.ino % partitions`), else plain [`OpResponse::Ok`]: the file
    /// exists and the caller asks the lease shard with
    /// `AcquireReadLease`.
    CreateOpen {
        dir: Ino,
        name: String,
        rec: InodeRecord,
        client: NodeId,
    },
}

impl OpBody {
    /// Operation names by wire tag: the `<op>` of the per-kind
    /// `rpc.forward.<op>.count` counters.
    pub const KINDS: [&'static str; 23] = [
        "lookup",
        "dir_inode",
        "create",
        "add_subdir",
        "unlink",
        "remove_subdir",
        "readdir",
        "set_size",
        "set_attr_child",
        "set_attr_dir",
        "set_acl",
        "rename_local",
        "rename_src_prepare",
        "rename_dst_prepare",
        "rename_decide",
        "acquire_read_lease",
        "acquire_write_lease",
        "release_file_lease",
        "flush_cache",
        "fsync_dir",
        "relinquish_partition",
        "dir_view",
        "create_open",
    ];

    /// The variant's wire tag (append-only: old tags never change
    /// meaning), also the index into [`Self::KINDS`].
    pub fn tag(&self) -> u8 {
        match self {
            OpBody::Lookup { .. } => 0,
            OpBody::DirInode { .. } => 1,
            OpBody::Create { .. } => 2,
            OpBody::AddSubdir { .. } => 3,
            OpBody::Unlink { .. } => 4,
            OpBody::RemoveSubdir { .. } => 5,
            OpBody::Readdir { .. } => 6,
            OpBody::SetSize { .. } => 7,
            OpBody::SetAttrChild { .. } => 8,
            OpBody::SetAttrDir { .. } => 9,
            OpBody::SetAcl { .. } => 10,
            OpBody::RenameLocal { .. } => 11,
            OpBody::RenameSrcPrepare { .. } => 12,
            OpBody::RenameDstPrepare { .. } => 13,
            OpBody::RenameDecide { .. } => 14,
            OpBody::AcquireReadLease { .. } => 15,
            OpBody::AcquireWriteLease { .. } => 16,
            OpBody::ReleaseFileLease { .. } => 17,
            OpBody::FlushCache { .. } => 18,
            OpBody::FsyncDir { .. } => 19,
            OpBody::RelinquishPartition { .. } => 20,
            OpBody::DirView { .. } => 21,
            OpBody::CreateOpen { .. } => 22,
        }
    }

    /// Whether a successful serve of this op changes directory state
    /// that an async-mode leader may ack before it is durable. `sync_all`
    /// uses this to track which directories still owe a barrier.
    pub fn mutates(&self) -> bool {
        matches!(
            self,
            OpBody::Create { .. }
                | OpBody::CreateOpen { .. }
                | OpBody::AddSubdir { .. }
                | OpBody::Unlink { .. }
                | OpBody::RemoveSubdir { .. }
                | OpBody::SetSize { .. }
                | OpBody::SetAttrChild { .. }
                | OpBody::SetAttrDir { .. }
                | OpBody::SetAcl { .. }
                | OpBody::RenameLocal { .. }
                | OpBody::RenameSrcPrepare { .. }
                | OpBody::RenameDstPrepare { .. }
                | OpBody::RenameDecide { .. }
        )
    }
}

/// Responses to [`OpRequest`]s.
#[derive(Debug, Clone)]
pub enum OpResponse {
    /// Lookup result: the dentry target, with the inode record for
    /// non-directory children.
    Entry {
        ino: Ino,
        ftype: FileType,
        rec: Option<InodeRecord>,
    },
    /// An inode record (DirInode, Unlink, SetAttr*).
    Inode(InodeRecord),
    /// One partition's slice of a readdir, plus the serving table's
    /// partition count. `partitions` is the staleness guard: a caller
    /// that routed with an out-of-date map (readdir carries no name for
    /// the server to validate) sees a count different from the one it
    /// fanned out over, refreshes its map, and redoes the merge.
    Entries {
        entries: Vec<DirEntry>,
        partitions: u32,
    },
    /// Rename source half: what was detached.
    Detached {
        ino: Ino,
        ftype: FileType,
        rec: Option<InodeRecord>,
    },
    Lease(FileLeaseDecision),
    /// DirView result: the directory inode and its subdirectory
    /// dentries, sorted by name. The list is built once per change at
    /// the leader and shared by every reply (and, on the bus, by every
    /// client's permission cache). Entries are only ever positive: a
    /// name absent from the view proves nothing (it may be a file, live
    /// in another partition, or the directory may exceed the view cap).
    View {
        dir: InodeRecord,
        subdirs: Arc<[DirEntry]>,
    },
    /// FlushCache result: the flushed client's local view of the file
    /// size (None when it held no dirty data).
    Flushed {
        size: Option<u64>,
    },
    Ok,
    /// The destination no longer leads `dir` (lease lapsed and someone
    /// else may own it); the caller goes back to the lease manager.
    NotLeader,
    Err(FsError),
}

impl OpResponse {
    /// Fold an `FsResult` into a response.
    pub fn from_result<T, F: FnOnce(T) -> OpResponse>(r: Result<T, FsError>, f: F) -> OpResponse {
        match r {
            Ok(v) => f(v),
            Err(e) => OpResponse::Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_result_folds() {
        let ok: Result<u32, FsError> = Ok(5);
        assert!(matches!(
            OpResponse::from_result(ok, |_| OpResponse::Ok),
            OpResponse::Ok
        ));
        let err: Result<u32, FsError> = Err(FsError::NotFound);
        assert!(matches!(
            OpResponse::from_result(err, |_| OpResponse::Ok),
            OpResponse::Err(FsError::NotFound)
        ));
    }
}
