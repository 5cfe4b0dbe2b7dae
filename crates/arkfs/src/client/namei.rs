//! Path resolution, permission checks, and the permission cache.
//!
//! Paths resolve component by component through [`ArkClient::lookup_step`];
//! every step checks exec permission on the containing directory. For
//! *remote* directories, permission-cache mode (§III-C) caches a
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
//! The pcache is lock-striped by directory ino (rank *Stripe*, see
//! [`super::lockorder`]); a stripe is never held across an RPC or a
//! [`super::dirsvc`] call — cache fills release the stripe first.

use super::dirsvc::DirRef;
use super::lockorder::{self, Rank, RankGuard};
use super::{ArkClient, ClientState};
use crate::meta::InodeRecord;
use crate::rpc::{DirView, OpBody, OpResponse};
use arkfs_simkit::Nanos;
use arkfs_vfs::{
    path as vpath, perm, Credentials, FileType, FsError, FsResult, Ino, AM_EXEC, ROOT_INO,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
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

#[derive(Debug, Default)]
struct PcacheStripe {
    entries: HashMap<Ino, PermCacheEntry>,
    locks: u64,
}

/// A locked pcache stripe; derefs to its entry map.
pub(crate) struct PcacheGuard<'a> {
    guard: MutexGuard<'a, PcacheStripe>,
    _rank: RankGuard,
}

impl Deref for PcacheGuard<'_> {
    type Target = HashMap<Ino, PermCacheEntry>;
    fn deref(&self) -> &Self::Target {
        &self.guard.entries
    }
}

impl DerefMut for PcacheGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard.entries
    }
}

/// The permission cache, lock-striped by directory ino.
#[derive(Debug)]
pub(crate) struct Pcache {
    stripes: Vec<Mutex<PcacheStripe>>,
    node: u32,
    pub(crate) contention: super::Contention,
}

impl Pcache {
    pub(crate) fn new(stripes: usize, node: u32) -> Self {
        Pcache {
            stripes: (0..stripes.max(1)).map(|_| Mutex::default()).collect(),
            node,
            contention: super::Contention::default(),
        }
    }

    /// Lock stripe `i` (rank: Stripe).
    fn stripe_at(&self, i: usize) -> PcacheGuard<'_> {
        let rank = lockorder::acquire(self.node, Rank::Stripe);
        let mut guard = self.contention.lock(&self.stripes[i]);
        guard.locks += 1;
        PcacheGuard { guard, _rank: rank }
    }

    /// Lock the stripe owning `dir` (rank: Stripe).
    pub(crate) fn stripe(&self, dir: Ino) -> PcacheGuard<'_> {
        self.stripe_at((dir % self.stripes.len() as u128) as usize)
    }

    /// Drop the cached view of one directory.
    pub(crate) fn forget(&self, dir: Ino) {
        self.stripe(dir).remove(&dir);
    }

    /// Drop everything (crash).
    pub(crate) fn clear(&self) {
        for i in 0..self.stripes.len() {
            self.stripe_at(i).clear();
        }
    }

    /// Total stripe-lock acquisitions so far.
    pub(crate) fn lock_count(&self) -> u64 {
        (0..self.stripes.len())
            .map(|i| {
                let s = self.stripe_at(i);
                // Don't count this read itself.
                s.guard.locks - 1
            })
            .sum()
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
        let mut pc = self.pcache.stripe(dir);
        let entry = PermCacheEntry {
            view,
            lookups: HashMap::new(),
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
        match self.dir_ref_name(dir, name)? {
            DirRef::Local(table) => {
                self.port.advance(self.config().spec.local_meta_op);
                let t = self.state.lock_table(&table);
                perm::check_access(ctx, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, AM_EXEC)?;
                let entry = t.lookup(name).ok_or(FsError::NotFound)?;
                Ok((entry.ino, entry.ftype))
            }
            DirRef::Remote(leader) => {
                if self.config().permission_cache {
                    if let Some(hit) = self.pcache_lookup(ctx, dir, name)? {
                        return hit;
                    }
                }
                let resp = self.remote_call(
                    ctx,
                    leader,
                    OpBody::Lookup {
                        dir,
                        name: name.to_string(),
                    },
                )?;
                match resp {
                    OpResponse::Entry { ino, ftype, .. } => {
                        if self.config().permission_cache {
                            self.pcache_note(dir, name, Some((ino, ftype)));
                        }
                        Ok((ino, ftype))
                    }
                    OpResponse::Err(FsError::NotFound) => {
                        if self.config().permission_cache {
                            self.pcache_note(dir, name, None);
                        }
                        Err(FsError::NotFound)
                    }
                    OpResponse::Err(e) => Err(e),
                    _ => Err(FsError::Io("unexpected lookup response".into())),
                }
            }
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
        let mut pc = self.state.pcache.stripe(dir);
        if !pc.get(&dir).is_some_and(|e| e.live(now)) {
            drop(pc);
            self.pcache_fill(dir)?;
            pc = self.state.pcache.stripe(dir);
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
        let view = match self.dir_ref(dir)? {
            DirRef::Local(table) => {
                self.port.advance(self.config().spec.local_meta_op);
                self.state.lock_table(&table).dir_view()
            }
            DirRef::Remote(leader) => {
                // Asked just now, the manager may have sent the view
                // along with the leader's name.
                if (self.state.pcache.stripe(dir).get(&dir)).is_some_and(|e| e.live(sent)) {
                    return Ok(());
                }
                let root = Credentials::root();
                match self.remote_call(&root, leader, OpBody::DirView { dir })? {
                    OpResponse::View(view) => view,
                    OpResponse::Err(e) => return Err(e),
                    _ => return Err(FsError::Io("unexpected dir-view response".into())),
                }
            }
        };
        let expires_at = sent + self.config().lease_period;
        self.state
            .pcache_install(self.port.now(), dir, Arc::new(view), expires_at);
        Ok(())
    }

    pub(crate) fn pcache_note(&self, dir: Ino, name: &str, result: Option<(Ino, FileType)>) {
        if let Some(entry) = self.state.pcache.stripe(dir).get_mut(&dir) {
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
        match self.dir_ref_name(dir, name)? {
            DirRef::Local(table) => {
                self.port.advance(self.config().spec.local_meta_op);
                let t = self.state.lock_table(&table);
                perm::check_access(ctx, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, AM_EXEC)?;
                let entry = t.lookup(name).ok_or(FsError::NotFound)?;
                if entry.ftype == FileType::Directory {
                    let ino = entry.ino;
                    drop(t);
                    let rec = self.dir_inode(ino)?;
                    Ok((ino, rec))
                } else {
                    let rec = t
                        .child_inode(entry.ino)
                        .cloned()
                        .ok_or_else(|| FsError::Io("dangling dentry".into()))?;
                    Ok((entry.ino, rec))
                }
            }
            DirRef::Remote(leader) => {
                let resp = self.remote_call(
                    ctx,
                    leader,
                    OpBody::Lookup {
                        dir,
                        name: name.to_string(),
                    },
                )?;
                match resp {
                    OpResponse::Entry { ino, ftype, rec } => {
                        if self.config().permission_cache {
                            self.pcache_note(dir, name, Some((ino, ftype)));
                        }
                        match rec {
                            Some(rec) => Ok((ino, rec)),
                            None => {
                                // Directory: ask its own leader.
                                let rec = self.dir_inode(ino)?;
                                Ok((ino, rec))
                            }
                        }
                    }
                    OpResponse::Err(e) => Err(e),
                    _ => Err(FsError::Io("unexpected lookup response".into())),
                }
            }
        }
    }

    /// Resolve (parent, name) → the child's inode record, through the
    /// appropriate leader.
    pub(crate) fn lookup_record(
        &self,
        ctx: &Credentials,
        dir: Ino,
        name: &str,
    ) -> FsResult<(Ino, InodeRecord)> {
        match self.dir_ref_name(dir, name)? {
            DirRef::Local(table) => {
                self.port.advance(self.config().spec.local_meta_op);
                let t = self.state.lock_table(&table);
                perm::check_access(ctx, t.dir.uid, t.dir.gid, t.dir.mode, &t.dir.acl, AM_EXEC)?;
                let entry = t.lookup(name).ok_or(FsError::NotFound)?;
                if entry.ftype == FileType::Directory {
                    let ino = entry.ino;
                    drop(t);
                    Ok((ino, self.dir_inode(ino)?))
                } else {
                    let rec = t
                        .child_inode(entry.ino)
                        .cloned()
                        .ok_or_else(|| FsError::Io("dangling dentry".into()))?;
                    Ok((entry.ino, rec))
                }
            }
            DirRef::Remote(leader) => {
                let resp = self.remote_call(
                    ctx,
                    leader,
                    OpBody::Lookup {
                        dir,
                        name: name.to_string(),
                    },
                )?;
                match resp {
                    OpResponse::Entry {
                        ino,
                        rec: Some(rec),
                        ..
                    } => Ok((ino, rec)),
                    OpResponse::Entry { ino, rec: None, .. } => Ok((ino, self.dir_inode(ino)?)),
                    OpResponse::Err(e) => Err(e),
                    _ => Err(FsError::Io("unexpected lookup response".into())),
                }
            }
        }
    }
}
