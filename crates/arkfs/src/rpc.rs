//! Client↔client RPC protocol: the operations a non-leader forwards to a
//! directory leader (§III-B: "the rest of the clients who failed to get a
//! lease should send their requests to the directory leader so that the
//! directory leader can perform the requested operations on behalf of the
//! other clients"), plus file-lease traffic and cache-flush broadcasts.
//!
//! This file is the single definition of that protocol: each request is
//! one row of the [`op_table!`] below, each response one line of
//! [`OpResponse`], and the enum, wire codec, tag, counter name,
//! `mutates` flag and partition route all come from those lines.

use crate::meta::InodeRecord;
use crate::partition::RouteKey::{self, Dir, File, Name, Names, Partition};
use crate::wire::{wire_enum, wire_struct};
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

wire_struct!(OpRequest { creds, trace, body });

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

/// Declares [`OpBody`] from one row per operation:
///
/// ```text
/// tag => Variant "kind" { field: Type, .. } mutates: bool, route: expr;
/// ```
///
/// * `tag` — the wire tag and index into `KINDS`. Append-only: a new op
///   takes the next free tag, an old tag never changes meaning (rows
///   must be in tag order; the build fails otherwise).
/// * `"kind"` — the `<op>` of the `rpc.forward.<op>.count` counters.
/// * fields — encoded in the listed order by their `WireCodec` impls.
/// * `mutates` — whether a successful serve changes directory state an
///   async-mode leader may ack before it is durable.
/// * `route` — `on(dir, key)`: the directory the op is served by and
///   the [`RouteKey`] that picks the partition, written over the row's
///   field names (bound by reference); `None` for an op addressed to a
///   client rather than a directory.
macro_rules! op_table {
    ($(
        $(#[$doc:meta])*
        $tag:literal => $V:ident $kind:literal { $($f:ident: $ty:ty),* $(,)? }
            mutates: $mutates:literal, route: $route:expr;
    )*) => {
        wire_enum! {
            /// The operation itself. `dir` is always the directory the
            /// destination client is expected to lead.
            #[derive(Debug, Clone)]
            pub enum OpBody, "op body tag" {
                $( $(#[$doc])* $tag => $V { $($f: $ty),* } ),*
            }
        }

        const _: () = {
            let tags: &[usize] = &[$($tag),*];
            let mut i = 0;
            while i < tags.len() {
                assert!(tags[i] == i, "op table rows must be in tag order, without gaps");
                i += 1;
            }
        };

        impl OpBody {
            /// Operation names by wire tag: the `<op>` of the per-kind
            /// `rpc.forward.<op>.count` counters.
            pub const KINDS: [&'static str; [$($tag),*].len()] = [$($kind),*];

            /// The variant's wire tag (append-only: old tags never
            /// change meaning), also the index into [`Self::KINDS`].
            pub fn tag(&self) -> u8 {
                match self { $(OpBody::$V { .. } => $tag),* }
            }

            /// Whether a successful serve of this op changes directory
            /// state that an async-mode leader may ack before it is
            /// durable. `sync_all` uses this to track which directories
            /// still owe a barrier.
            pub fn mutates(&self) -> bool {
                match self { $(OpBody::$V { .. } => $mutates),* }
            }

            /// The directory that serves this op and the key that picks
            /// the partition of it: callers route with
            /// [`PartitionMap::partition_of`](crate::partition::PartitionMap::partition_of),
            /// leaders check
            /// [`Metatable::owns`](crate::metatable::Metatable::owns).
            /// `None` for an op addressed to a client, not a directory.
            #[allow(unused_variables)]
            pub fn route(&self) -> Option<(Ino, RouteKey<'_>)> {
                match self { $(OpBody::$V { $($f),* } => $route),* }
            }
        }
    };
}

fn on<'a>(dir: &Ino, key: RouteKey<'a>) -> Option<(Ino, RouteKey<'a>)> {
    Some((*dir, key))
}

op_table! {
    /// Resolve `name` in `dir`; returns the dentry and, for non-directory
    /// children, the inode record.
    0 => Lookup "lookup" { dir: Ino, name: String }
        mutates: false, route: on(dir, Name(name));
    /// The directory's own inode record (stat / permission info; feeds
    /// the permission cache).
    1 => DirInode "dir_inode" { dir: Ino }
        mutates: false, route: on(dir, Dir);
    /// Create a regular file or symlink with a caller-allocated inode.
    2 => Create "create" { dir: Ino, name: String, rec: InodeRecord }
        mutates: true, route: on(dir, Name(name));
    /// Register a subdirectory entry (inode object already written).
    3 => AddSubdir "add_subdir" { dir: Ino, name: String, child: Ino }
        mutates: true, route: on(dir, Name(name));
    /// Unlink a file/symlink; returns its final inode record so the
    /// caller can delete the data chunks.
    4 => Unlink "unlink" { dir: Ino, name: String }
        mutates: true, route: on(dir, Name(name));
    /// Remove an empty-subdirectory entry.
    5 => RemoveSubdir "remove_subdir" { dir: Ino, name: String }
        mutates: true, route: on(dir, Name(name));
    /// List one partition's slice of the directory (`partition` is 0 for
    /// unpartitioned directories); the caller merges the slices.
    6 => Readdir "readdir" { dir: Ino, partition: u32 }
        mutates: false, route: on(dir, Partition(*partition));
    /// Post-write size/mtime update for a child file. `name` routes the
    /// request to the partition owning the child's dentry.
    7 => SetSize "set_size" { dir: Ino, name: String, ino: Ino, size: u64 }
        mutates: true, route: on(dir, Name(name));
    /// setattr on a child file/symlink (`name` routes, as in `SetSize`).
    8 => SetAttrChild "set_attr_child" { dir: Ino, name: String, ino: Ino, attr: SetAttr }
        mutates: true, route: on(dir, Name(name));
    /// setattr on the directory itself.
    9 => SetAttrDir "set_attr_dir" { dir: Ino, attr: SetAttr }
        mutates: true, route: on(dir, Dir);
    /// Replace the ACL of the directory (`target == dir`, empty `name`,
    /// handled by partition 0) or a child (`name` routes).
    10 => SetAcl "set_acl" { dir: Ino, name: String, target: Ino, acl: Acl }
        mutates: true, route: on(dir, if target == dir { Dir } else { Name(name) });
    /// Same-directory rename. Both names are in one partition by
    /// construction (the client falls back to the 2PC path otherwise).
    11 => RenameLocal "rename_local" { dir: Ino, from: String, to: String }
        mutates: true, route: on(dir, Names(from, to));
    /// 2PC rename, source half: journal a prepare that removes `name`,
    /// detach it in memory, and return what moved.
    12 => RenameSrcPrepare "rename_src_prepare" { dir: Ino, name: String, txid: u128, peer: Ino }
        mutates: true, route: on(dir, Name(name));
    /// 2PC rename, destination half: journal a prepare that inserts the
    /// entry, attach it in memory.
    13 => RenameDstPrepare "rename_dst_prepare" {
            dir: Ino, name: String, txid: u128, peer: Ino,
            ino: Ino, ftype: FileType, rec: Option<InodeRecord>,
        }
        mutates: true, route: on(dir, Name(name));
    /// 2PC decision; `name` routes it to the partition that journaled
    /// the matching prepare. On abort of a source half, `undo` carries
    /// the detached entry to re-attach.
    14 => RenameDecide "rename_decide" {
            dir: Ino, name: String, txid: u128, commit: bool,
            undo: Option<(String, Ino, FileType, Option<InodeRecord>)>,
        }
        mutates: true, route: on(dir, Name(name));
    /// File lease traffic (§III-D): leaders manage child files' leases.
    /// It shards by file ino, not through partition 0: served from one
    /// partition, per-create lease RPCs would cap aggregate create
    /// throughput at one leader's service rate however many partitions
    /// the directory has.
    15 => AcquireReadLease "acquire_read_lease" { dir: Ino, file: Ino, client: NodeId }
        mutates: false, route: on(dir, File(*file));
    16 => AcquireWriteLease "acquire_write_lease" { dir: Ino, file: Ino, client: NodeId }
        mutates: false, route: on(dir, File(*file));
    17 => ReleaseFileLease "release_file_lease" { dir: Ino, file: Ino, client: NodeId }
        mutates: false, route: on(dir, File(*file));
    /// Cache-flush broadcast from a leader to a lease holder: write back
    /// and drop cached chunks of `file`.
    18 => FlushCache "flush_cache" { file: Ino }
        mutates: false, route: None;
    /// Durability barrier on one directory partition (async commit
    /// pipeline): seal and flush the running transaction and drain the
    /// partition's commit lane before responding, so the caller's
    /// `fsync` contract holds even when the leader acks mutations before
    /// durability. A partitioned directory's fsync fans this out to
    /// every partition.
    19 => FsyncDir "fsync_dir" { dir: Ino, partition: u32 }
        mutates: false, route: on(dir, Partition(*partition));
    /// Split/merge handoff: ask the current leader of `partition` to
    /// quiesce it — commit and checkpoint its journal — and release its
    /// lease so the new partition map can take effect.
    20 => RelinquishPartition "relinquish_partition" { dir: Ino, partition: u32 }
        mutates: false, route: on(dir, Partition(*partition));
    /// Permission-cache fill: the directory's inode record plus its
    /// subdirectory dentries in one reply ([`OpResponse::View`]), so a
    /// client resolves every path through `dir` for one lease period
    /// without a per-name `Lookup`. Served by partition 0, like
    /// `DirInode`.
    21 => DirView "dir_view" { dir: Ino }
        mutates: false, route: on(dir, Dir);
    /// `Create` of a regular file that leaves a handle open at `client`
    /// (create-and-open). Served exactly as `Create`: a file lease is
    /// taken by a handle's first data access, never by its open, so the
    /// reply is plain [`OpResponse::Ok`]. `client` stays on the wire so
    /// the frame is unchanged; the leader does not read it.
    22 => CreateOpen "create_open" { dir: Ino, name: String, rec: InodeRecord, client: NodeId }
        mutates: true, route: on(dir, Name(name));
    /// Close of a written handle that holds a file lease: `SetSize` and
    /// `ReleaseFileLease` in one message. Routed by `name`, so the caller
    /// sends it only when that partition is also the file's lease shard
    /// ([`PartitionMap::colocated`](crate::partition::PartitionMap::colocated);
    /// create steers inos so that it is) and the two separate messages
    /// otherwise. A leader that is not the lease shard (the caller's map
    /// was stale) does nothing and replies `Err(Stale)`.
    23 => CloseFile "close_file" { dir: Ino, name: String, ino: Ino, size: u64, client: NodeId }
        mutates: true, route: on(dir, Name(name));
}

wire_enum! {
    /// Responses to [`OpRequest`]s.
    #[derive(Debug, Clone)]
    pub enum OpResponse, "op response tag" {
        /// Lookup result: the dentry target, with the inode record for
        /// non-directory children.
        0 => Entry { ino: Ino, ftype: FileType, rec: Option<InodeRecord> },
        /// An inode record (DirInode, Unlink, SetAttr*).
        1 => Inode(rec: InodeRecord),
        /// One partition's slice of a readdir, plus the serving table's
        /// partition count. `partitions` is the staleness guard: a caller
        /// that routed with an out-of-date map (readdir carries no name
        /// for the server to validate) sees a count different from the
        /// one it fanned out over, refreshes its map, and redoes the
        /// merge.
        2 => Entries { entries: Vec<DirEntry>, partitions: u32 },
        /// Rename source half: what was detached.
        3 => Detached { ino: Ino, ftype: FileType, rec: Option<InodeRecord> },
        4 => Lease(decision: FileLeaseDecision),
        /// FlushCache result: the flushed client's local view of the file
        /// size (None when it held no dirty data).
        5 => Flushed { size: Option<u64> },
        6 => Ok,
        /// The destination no longer leads `dir` (lease lapsed and someone
        /// else may own it); the caller goes back to the lease manager.
        7 => NotLeader,
        8 => Err(error: FsError),
        /// DirView result: the directory inode and its subdirectory
        /// dentries, sorted by name. The list is built once per change at
        /// the leader and shared by every reply (and, on the bus, by every
        /// client's permission cache). Entries are only ever positive: a
        /// name absent from the view proves nothing (it may be a file,
        /// live in another partition, or the directory may exceed the
        /// view cap).
        9 => View(view: DirView),
    }
}

/// A directory as path resolution needs it — the body of
/// [`OpResponse::View`], and what a leader deposits with its lease
/// manager (`arkfs_lease::LeaseView::body`), where it is one allocation
/// shared by every permission cache it is installed in.
#[derive(Debug, Clone)]
pub struct DirView {
    pub dir: InodeRecord,
    pub subdirs: Arc<[DirEntry]>,
}

wire_struct!(DirView { dir, subdirs });

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
