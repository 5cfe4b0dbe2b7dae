//! Path resolution, permission checks, and the permission cache.
//!
//! Paths resolve component by component through [`ArkClient::lookup_step`];
//! every step checks exec permission on the containing directory. A step,
//! like every read here, is the leader's own `Lookup` / `DirView` /
//! `DirInode`: served by this client's table when it leads the directory
//! and forwarded otherwise ([`ArkClient::on_dir_ref`]), so a leader and a
//! forwarder answer alike. For *remote* directories, permission-cache
//! mode (§III-C) caches a
//! *directory view* — the directory's inode (permissions + stat) and its
//! subdirectory dentries, handed over by the lease manager with the
//! redirect that names the leader, or fetched from the leader in one
//! RPC — plus recent per-name lookup results in the [`Pcache`], trading
//! a little consistency for local-speed resolution: `/a/b/c` costs at
//! most one leader RPC per ancestor per lease period. One expiry rule,
//! whoever served the view: it is valid for one lease period from its
//! stamp — the leader's clock when it built a deposited view, this
//! client's clock when it asked for a leader-served one.
//!
//! The pcache has one lock (rank *Dir*, see [`super::lockorder`]); it
//! is never held across an RPC or a [`super::dirsvc`] call — cache
//! fills release it first.

use super::dirsvc::DirRef;
use super::lockorder::{self, Rank, Ranked};
use super::{ArkClient, ClientState};
use crate::meta::InodeRecord;
use crate::rpc::{DirView, OpBody, OpResponse};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::Nanos;
use arkfs_vfs::{
    path as vpath, perm, Credentials, FileType, FsError, FsResult, Ino, AM_EXEC, ROOT_INO,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// A cached view of a remote directory used in permission-cache mode
/// (§III-C), valid for one lease period from its stamp, and per-name
/// results learned since.
#[derive(Debug, Clone)]
pub(crate) struct PermCacheEntry {
    /// The directory's inode (permissions + stat) and the subdirectory
    /// dentries its leader held, sorted by name; a deposited view is
    /// shared with every other client the manager handed it to.
    /// Positive only: a name absent here proves nothing.
    view: Arc<DirView>,
    /// Per-name overlay, consulted before the view: results of this
    /// client's own lookups and mutations (`None` = known absent), so a
    /// local `rmdir`/`rename` overrides the view.
    lookups: HashMap<String, Option<(Ino, FileType)>>,
    expires_at: Nanos,
}

impl PermCacheEntry {
    fn live(&self, now: Nanos) -> bool {
        self.expires_at > now
    }
}

/// The permission cache: a view per remote directory, behind one lock.
#[derive(Debug)]
pub(crate) struct Pcache {
    views: Mutex<HashMap<Ino, PermCacheEntry>>,
    node: u32,
}

impl Pcache {
    pub(crate) fn new(node: u32) -> Self {
        Pcache {
            views: Mutex::default(),
            node,
        }
    }

    /// Lock the cache (rank: Dir).
    pub(crate) fn lock(&self) -> Ranked<'_, HashMap<Ino, PermCacheEntry>> {
        lockorder::lock(self.node, Rank::Dir, &self.views)
    }

    /// Drop the cached view of one directory.
    pub(crate) fn forget(&self, dir: Ino) {
        self.lock().remove(&dir);
    }

    /// Drop everything (crash).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }
}

impl ClientState {
    /// Install `view` of `dir`, valid until `expires_at` — unless a live
    /// entry is held already: its overlay carries this client's own
    /// mutations.
    pub(crate) fn pcache_install(
        &self,
        now: Nanos,
        dir: Ino,
        view: Arc<DirView>,
        expires_at: Nanos,
    ) {
        let mut pc = self.pcache.lock();
        let entry = PermCacheEntry {
            view,
            lookups: HashMap::default(),
            expires_at,
        };
        if entry.live(now) && !pc.get(&dir).is_some_and(|held| held.live(now)) {
            pc.insert(dir, entry);
        }
    }
}

impl ArkClient {
    /// One path-resolution step: find `name` in `dir`, checking exec
    /// permission on `dir` for `ctx`.
    pub(crate) fn lookup_step(
        &self,
        ctx: &Credentials,
        dir: Ino,
        name: &str,
    ) -> FsResult<(Ino, FileType)> {
        let route = self.dir_ref_name(dir, name)?;
        // Only a forwarded lookup goes through the permission cache.
        let cached = matches!(route, DirRef::Remote(_)) && self.config().permission_cache;
        if cached {
            if let Some(hit) = self.pcache_lookup(ctx, dir, name)? {
                return hit;
            }
        }
        let found = self.lookup(ctx, route, dir, name);
        if cached {
            // A `NotFound` that is not the leader's means `dir` itself is
            // gone: the name is not in it either way.
            match found {
                Ok((ino, ftype, _)) => self.pcache_note(dir, name, Some((ino, ftype))),
                Err(FsError::NotFound) => self.pcache_note(dir, name, None),
                Err(_) => {}
            }
        }
        found.map(|(ino, ftype, _)| (ino, ftype))
    }

    /// `Lookup` of `name` in `dir`, served where `route` says: the
    /// dentry, and the inode record of a non-directory.
    fn lookup(
        &self,
        ctx: &Credentials,
        route: DirRef,
        dir: Ino,
        name: &str,
    ) -> FsResult<(Ino, FileType, Option<InodeRecord>)> {
        let body = OpBody::Lookup {
            dir,
            name: name.to_string(),
        };
        match self.on_dir_ref(ctx, route, body)? {
            OpResponse::Entry { ino, ftype, rec } => Ok((ino, ftype, rec)),
            _ => Err(FsError::Io("unexpected lookup response".into())),
        }
    }

    /// Try the permission cache, filling it first when `dir` has no
    /// live entry: returns `Some(result)` on a conclusive hit, `None`
    /// when the caller must ask the leader by name. Also checks exec
    /// permission locally from the cached directory inode.
    fn pcache_lookup(
        &self,
        ctx: &Credentials,
        dir: Ino,
        name: &str,
    ) -> FsResult<Option<FsResult<(Ino, FileType)>>> {
        let now = self.port.now();
        let mut pc = self.state.pcache.lock();
        if !pc.get(&dir).is_some_and(|e| e.live(now)) {
            drop(pc);
            self.pcache_fill(dir)?;
            pc = self.state.pcache.lock();
        }
        // Gone again only if another thread forgot it meanwhile.
        let Some(entry) = pc.get(&dir) else {
            return Ok(None);
        };
        let DirView { dir: rec, subdirs } = &*entry.view;
        perm::check_access(ctx, rec.uid, rec.gid, rec.mode, &rec.acl, AM_EXEC)?;
        self.port.advance(self.config().spec.local_meta_op);
        if let Some(cached) = entry.lookups.get(name) {
            return Ok(Some(cached.ok_or(FsError::NotFound)));
        }
        Ok(subdirs
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| Ok((subdirs[i].ino, subdirs[i].ftype))))
    }

    /// Fetch and cache a directory's view from its leader (one RPC when
    /// remote), stamped with this client's clock at the request.
    fn pcache_fill(&self, dir: Ino) -> FsResult<()> {
        let sent = self.port.now();
        let route = self.dir_ref(dir)?;
        // Asked just now, the manager may have sent the view along with
        // the leader's name.
        if (self.state.pcache.lock().get(&dir)).is_some_and(|e| e.live(sent)) {
            return Ok(());
        }
        let view = match self.on_dir_ref(&Credentials::root(), route, OpBody::DirView { dir })? {
            OpResponse::View(view) => view,
            _ => return Err(FsError::Io("unexpected dir-view response".into())),
        };
        let expires_at = sent + self.config().lease_period;
        self.state
            .pcache_install(self.port.now(), dir, Arc::new(view), expires_at);
        Ok(())
    }

    pub(crate) fn pcache_note(&self, dir: Ino, name: &str, result: Option<(Ino, FileType)>) {
        if let Some(entry) = self.state.pcache.lock().get_mut(&dir) {
            entry.lookups.insert(name.to_string(), result);
        }
    }

    pub(crate) fn pcache_forget(&self, dir: Ino) {
        self.state.pcache.forget(dir);
    }

    /// Resolve all but the final component of `path`, checking exec
    /// permission along the way. Returns (parent dir ino, final name).
    pub(crate) fn resolve_parent<'p>(
        &self,
        ctx: &Credentials,
        path: &'p str,
    ) -> FsResult<(Ino, &'p str)> {
        let (parents, name) = vpath::split_parent(path)?;
        // FUSE sends one LOOKUP per component plus the final request.
        self.fuse_charge(parents.len() + 2);
        let mut dir = ROOT_INO;
        for comp in parents {
            let (ino, ftype) = self.lookup_step(ctx, dir, comp)?;
            if ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            dir = ino;
        }
        Ok((dir, name))
    }

    /// Resolve a full path to (ino, ftype), where the final component may
    /// be anything. `/` resolves to the root directory.
    pub(crate) fn resolve(&self, ctx: &Credentials, path: &str) -> FsResult<(Ino, FileType)> {
        let comps = vpath::components(path)?;
        if comps.is_empty() {
            self.fuse_charge(1);
            return Ok((ROOT_INO, FileType::Directory));
        }
        let (dir, name) = self.resolve_parent(ctx, path)?;
        self.lookup_step(ctx, dir, name)
    }

    /// The final inode record of a path (for stat/open/ACL reads).
    pub(crate) fn resolve_record(
        &self,
        ctx: &Credentials,
        path: &str,
    ) -> FsResult<(Ino, InodeRecord)> {
        let comps = vpath::components(path)?;
        if comps.is_empty() {
            self.fuse_charge(1);
            let rec = self.dir_inode(ROOT_INO)?;
            return Ok((ROOT_INO, rec));
        }
        let (dir, name) = self.resolve_parent(ctx, path)?;
        self.lookup_record(ctx, dir, name, true)
    }

    /// Resolve (parent, name) → the child's inode record, through the
    /// appropriate leader. With `note`, a forwarded answer is noted in
    /// the permission cache.
    pub(crate) fn lookup_record(
        &self,
        ctx: &Credentials,
        dir: Ino,
        name: &str,
        note: bool,
    ) -> FsResult<(Ino, InodeRecord)> {
        let route = self.dir_ref_name(dir, name)?;
        let note = note && matches!(route, DirRef::Remote(_)) && self.config().permission_cache;
        let (ino, ftype, rec) = self.lookup(ctx, route, dir, name)?;
        if note {
            self.pcache_note(dir, name, Some((ino, ftype)));
        }
        match rec {
            Some(rec) => Ok((ino, rec)),
            // A directory's record is its own leader's.
            None if ftype == FileType::Directory => Ok((ino, self.dir_inode(ino)?)),
            None => Err(FsError::Io("dangling dentry".into())),
        }
    }
}
