//! The MDS-backed front end: one [`Vfs`] for the comparison systems
//! whose namespace lives on dedicated metadata servers, CephFS
//! ([`crate::cephfs`]) and MarFS ([`crate::marfs`]).
//!
//! Every metadata operation crosses the client's FUSE path, if it has
//! one, then the [`MdsCluster`], then applies to the deployment's
//! shared [`Namespace`]. The rules in which the systems really differ
//! (the FUSE cost per request, the MDS hint, the data tier) are a
//! private `Profile` that only the named constructors set:
//! [`MdsFs::new`] deploys CephFS, [`MdsFs::marfs`] MarFS, and
//! [`MdsFs::client`] mounts a client of either.

use crate::cephfs::MountType;
use crate::datapath::{DataPath, RaState};
use crate::mds::{MdsCluster, MdsModel};
use crate::ns::Namespace;
use arkfs::prt::Prt;
use arkfs_objstore::ObjectStore;
use arkfs_simkit::{ClusterSpec, Nanos, Port, SharedResource};
use arkfs_vfs::{
    path as vpath, Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, FsStats,
    Ino, OpenFlags, SetAttr, Stat, Vfs, AM_READ, AM_WRITE,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One deployment: the shared namespace, MDS cluster and object store.
pub struct MdsFs {
    ns: Mutex<Namespace>,
    mds: MdsCluster,
    store: Arc<dyn ObjectStore>,
    spec: ClusterSpec,
    chunk_size: u64,
    /// MarFS rather than CephFS: picks each client's `Profile`.
    marfs: bool,
    /// The single ceph-fuse daemon all FUSE-mounted processes of a client
    /// node share: it serves one request at a time ("FUSE holds an
    /// exclusive kernel lock until the operation is completed by the
    /// user-space FUSE daemon", §IV-B).
    ceph_fuse: Arc<SharedResource>,
}

impl MdsFs {
    /// A CephFS deployment with `mds_count` metadata servers.
    pub fn new(
        store: Arc<dyn ObjectStore>,
        mds_count: usize,
        spec: ClusterSpec,
        chunk_size: u64,
    ) -> Arc<Self> {
        let mds = MdsCluster::new(mds_count, MdsModel::ceph(&spec), &spec);
        Self::deploy(store, mds, spec, chunk_size, false)
    }

    /// A MarFS deployment: two dedicated GPFS metadata nodes.
    pub fn marfs(store: Arc<dyn ObjectStore>, spec: ClusterSpec, chunk_size: u64) -> Arc<Self> {
        let mds = MdsCluster::new(2, MdsModel::marfs(&spec), &spec);
        Self::deploy(store, mds, spec, chunk_size, true)
    }

    fn deploy(
        store: Arc<dyn ObjectStore>,
        mds: MdsCluster,
        spec: ClusterSpec,
        chunk_size: u64,
        marfs: bool,
    ) -> Arc<Self> {
        Arc::new(MdsFs {
            ns: Mutex::new(Namespace::new()),
            mds,
            store,
            spec,
            chunk_size,
            marfs,
            ceph_fuse: Arc::new(SharedResource::ideal("ceph-fuse")),
        })
    }

    pub fn mds(&self) -> &MdsCluster {
        &self.mds
    }

    /// Mount a new client. MarFS has only its FUSE interactive
    /// interface, so a MarFS deployment takes only [`MountType::Fuse`].
    pub fn client(self: &Arc<Self>, mount: MountType) -> Arc<MdsClient> {
        let profile = match (self.marfs, mount) {
            (false, MountType::Kernel) => Profile::CephKernel,
            (false, MountType::Fuse) => Profile::CephFuse,
            (true, MountType::Fuse) => Profile::MarFs,
            (true, MountType::Kernel) => panic!("MarFS has no kernel mount"),
        };
        let fuse = match profile {
            Profile::CephKernel => None,
            Profile::CephFuse => Some(Arc::clone(&self.ceph_fuse)),
            Profile::MarFs => Some(Arc::new(SharedResource::ideal("marfs-fuse"))),
        };
        let tier = match profile {
            Profile::MarFs => Tier::Direct(Prt::new(Arc::clone(&self.store), self.chunk_size)),
            _ => {
                let max_ra = match mount {
                    MountType::Kernel => 8 * 1024 * 1024,
                    MountType::Fuse => 128 * 1024,
                };
                let max_ra = max_ra.min(self.chunk_size * 128);
                let store = Arc::clone(&self.store);
                Tier::Cached(DataPath::new(store, self.chunk_size, max_ra, 256))
            }
        };
        Arc::new(MdsClient {
            fs: Arc::clone(self),
            profile,
            port: Port::new(),
            fuse,
            tier,
            handles: Mutex::new(BTreeMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }
}

/// What the MDS-backed systems do differently.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Profile {
    /// CephFS kernel client: no FUSE cost, 8 MB max read-ahead.
    CephKernel,
    /// ceph-fuse: three user↔kernel crossings per request and path
    /// component, queued at the deployment's one daemon; 128 KB max
    /// read-ahead.
    CephFuse,
    /// MarFS interactive FUSE mount: two crossings per request and path
    /// component, queued at the client's own lock; no data cache.
    MarFs,
}

/// Where a client's file data goes.
enum Tier {
    /// CephFS: page-cache-like write-back cache with read-ahead over the
    /// OSDs.
    Cached(DataPath),
    /// MarFS: writes go straight to the object tier; reads are refused.
    Direct(Prt),
}

impl Tier {
    fn write(&self, port: &Port, ino: Ino, offset: u64, bytes: &[u8], size: u64) -> FsResult<()> {
        match self {
            Tier::Cached(data) => data.write(port, ino, offset, bytes, size),
            Tier::Direct(prt) => prt.write_data(port, ino, offset, bytes),
        }
    }

    /// Flush one file's dirty data, or every file's.
    fn flush(&self, port: &Port, ino: Option<Ino>) -> FsResult<()> {
        match self {
            Tier::Cached(data) => data.flush(port, ino),
            Tier::Direct(_) => Ok(()),
        }
    }

    fn truncate(&self, port: &Port, ino: Ino, old: u64, new: u64) -> FsResult<()> {
        match self {
            Tier::Cached(data) => data.truncate(port, ino, old, new),
            Tier::Direct(prt) => prt.truncate_data(port, ino, old, new),
        }
    }

    fn delete(&self, port: &Port, ino: Ino, size: u64) -> FsResult<()> {
        match self {
            Tier::Cached(data) => data.delete(port, ino, size),
            Tier::Direct(prt) => prt.delete_data(port, ino, size),
        }
    }
}

struct Handle {
    ino: Ino,
    path: String,
    flags: OpenFlags,
    size: u64,
    wrote: bool,
    ra: RaState,
}

/// A mounted client of an [`MdsFs`] deployment.
pub struct MdsClient {
    fs: Arc<MdsFs>,
    profile: Profile,
    port: Port,
    /// The FUSE daemon or lock the client's requests queue at; `None`
    /// on a kernel mount.
    fuse: Option<Arc<SharedResource>>,
    tier: Tier,
    handles: Mutex<BTreeMap<u64, Handle>>,
    next_handle: AtomicU64,
}

/// CephFS's MDS hint: FNV-1a of the parent directory's path.
fn dir_hint(path: &str) -> u64 {
    let parent = match path.rfind('/') {
        Some(0) | None => "/",
        Some(idx) => &path[..idx],
    };
    let mut h: u64 = 0xcbf29ce484222325;
    for b in parent.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl MdsClient {
    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Flush and drop the page cache (fio drop-caches step); MarFS
    /// caches nothing.
    pub fn drop_data_cache(&self) -> FsResult<()> {
        match &self.tier {
            Tier::Cached(data) => data.drop_cache(&self.port),
            Tier::Direct(_) => Ok(()),
        }
    }

    /// The shared store's telemetry, if the backend exposes one.
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        self.fs.store.telemetry().cloned()
    }

    /// Wait for `cost` of FUSE time at the mount's daemon or lock.
    fn cross_fuse(&self, cost: Nanos) {
        if let Some(fuse) = &self.fuse {
            let done = fuse.reserve(self.port.now(), cost);
            self.port.wait_until(done);
        }
    }

    /// Charge one metadata operation on `path`: its FUSE crossings (one
    /// LOOKUP per path component plus the operation itself), then the
    /// MDS round trip to the server its hint picks.
    fn charge_meta(&self, path: &str) {
        let fuse = self.fs.spec.fuse_op_cost;
        let hint = match self.profile {
            Profile::CephKernel => dir_hint(path),
            Profile::CephFuse => {
                let comps = vpath::components(path).map(|c| c.len()).unwrap_or(1);
                self.cross_fuse(3 * fuse * (comps as u64 + 1));
                dir_hint(path)
            }
            Profile::MarFs => {
                let comps = path.chars().filter(|&c| c == '/').count().max(1);
                self.cross_fuse(2 * fuse * (comps as u64 + 1));
                path.len() as u64
            }
        };
        self.fs.mds.metadata_op(&self.port, hint);
    }

    /// Charge one metadata operation on `path`, then apply `op` to the
    /// namespace at the time it lands.
    fn meta<T>(
        &self,
        path: &str,
        op: impl FnOnce(&mut Namespace, Nanos) -> FsResult<T>,
    ) -> FsResult<T> {
        self.charge_meta(path);
        op(&mut self.fs.ns.lock(), self.port.now())
    }

    /// A data request crosses the ceph-fuse daemon once; the kernel
    /// client and MarFS's direct writes cross nothing.
    fn charge_io(&self) {
        if self.profile == Profile::CephFuse {
            self.cross_fuse(self.fs.spec.fuse_op_cost);
        }
    }

    fn handle_view(&self, fh: FileHandle) -> FsResult<(Ino, u64, OpenFlags)> {
        let handles = self.handles.lock();
        let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
        Ok((h.ino, h.size, h.flags))
    }

    fn insert_handle(&self, ino: Ino, path: &str, flags: OpenFlags, size: u64) -> FileHandle {
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(
            id,
            Handle {
                ino,
                path: path.to_string(),
                flags,
                size,
                wrote: false,
                ra: RaState::default(),
            },
        );
        FileHandle(id)
    }
}

impl Vfs for MdsClient {
    fn mkdir(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<Stat> {
        self.meta(path, |ns, now| ns.mkdir(ctx, path, mode, now))
    }

    fn rmdir(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.meta(path, |ns, now| ns.rmdir(ctx, path, now))
    }

    fn create(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<FileHandle> {
        let ino = self.meta(path, |ns, now| ns.create(ctx, path, mode, now))?;
        Ok(self.insert_handle(ino, path, OpenFlags::RDWR, 0))
    }

    fn open(&self, ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.charge_meta(path);
        let (ino, mut size, ftype) = {
            let ns = self.fs.ns.lock();
            let ino = ns.resolve(ctx, path)?;
            let node = ns.node(ino)?;
            let mut want = 0u8;
            if flags.readable() {
                want |= AM_READ;
            }
            if flags.writable() {
                want |= AM_WRITE;
            }
            arkfs_vfs::perm::check_access(ctx, node.uid, node.gid, node.mode, &node.acl, want)?;
            (ino, node.size, node.ftype)
        };
        match ftype {
            FileType::Directory => return Err(FsError::IsADirectory),
            FileType::Symlink => {
                let target = self.fs.ns.lock().readlink(ctx, path)?;
                return self.open(ctx, &target, flags);
            }
            FileType::Regular => {}
        }
        if flags.is_trunc() && flags.writable() && size > 0 {
            self.fs.ns.lock().set_size(ino, 0, self.port.now())?;
            self.tier.delete(&self.port, ino, size)?;
            size = 0;
        }
        Ok(self.insert_handle(ino, path, flags, size))
    }

    fn close(&self, ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        self.fsync(ctx, fh)?;
        self.handles
            .lock()
            .remove(&fh.0)
            .ok_or(FsError::BadHandle)?;
        Ok(())
    }

    fn read(
        &self,
        _ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        let Tier::Cached(data) = &self.tier else {
            // "MarFS returns errors when we perform this phase in our
            // environment" (§IV-B, mdtest-hard READ).
            return Err(FsError::Unsupported("marfs interactive read"));
        };
        self.charge_io();
        let (ino, size, flags, mut ra) = {
            let handles = self.handles.lock();
            let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
            (h.ino, h.size, h.flags, h.ra)
        };
        if !flags.readable() {
            return Err(FsError::BadAccessMode);
        }
        let n = data.read(&self.port, ino, offset, buf, size, &mut ra)?;
        if let Some(h) = self.handles.lock().get_mut(&fh.0) {
            h.ra = ra;
        }
        Ok(n)
    }

    fn write(
        &self,
        _ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.charge_io();
        let (ino, size, flags) = self.handle_view(fh)?;
        if !flags.writable() {
            return Err(FsError::BadAccessMode);
        }
        let offset = if flags.is_append() { size } else { offset };
        self.tier.write(&self.port, ino, offset, data, size)?;
        let mut handles = self.handles.lock();
        if let Some(h) = handles.get_mut(&fh.0) {
            h.size = h.size.max(offset + data.len() as u64);
            h.wrote = true;
        }
        Ok(data.len())
    }

    fn fsync(&self, _ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        self.charge_io();
        let (ino, size, wrote, path) = {
            let handles = self.handles.lock();
            let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
            (h.ino, h.size, h.wrote, h.path.clone())
        };
        self.tier.flush(&self.port, Some(ino))?;
        if wrote {
            // Size/mtime updates flow through the MDS; MarFS sends them
            // as a request on the mount's root.
            self.charge_meta(match self.profile {
                Profile::MarFs => "/",
                _ => &path,
            });
            self.fs.ns.lock().set_size(ino, size, self.port.now())?;
            if let Some(h) = self.handles.lock().get_mut(&fh.0) {
                h.wrote = false;
            }
        }
        Ok(())
    }

    fn stat(&self, ctx: &Credentials, path: &str) -> FsResult<Stat> {
        let mut st = self.meta(path, |ns, _| ns.stat(ctx, path))?;
        for h in self.handles.lock().values() {
            if h.ino == st.ino {
                st.size = st.size.max(h.size);
            }
        }
        Ok(st)
    }

    fn readdir(&self, ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        self.meta(path, |ns, _| ns.readdir(ctx, path))
    }

    fn unlink(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        let (ino, size) = self.meta(path, |ns, now| ns.unlink(ctx, path, now))?;
        self.tier.delete(&self.port, ino, size)
    }

    fn rename(&self, ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.charge_meta(from);
        self.meta(to, |ns, now| ns.rename(ctx, from, to, now))
    }

    fn truncate(&self, ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        let (ino, old) = self.meta(path, |ns, now| {
            let ino = ns.resolve(ctx, path)?;
            if ns.node(ino)?.ftype == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            Ok((ino, ns.set_size(ino, size, now)?))
        })?;
        self.tier.truncate(&self.port, ino, old, size)?;
        for h in self.handles.lock().values_mut() {
            if h.ino == ino {
                h.size = size;
            }
        }
        Ok(())
    }

    fn setattr(&self, ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.meta(path, |ns, now| ns.setattr(ctx, path, attr, now))
    }

    fn symlink(&self, ctx: &Credentials, path: &str, target: &str) -> FsResult<Stat> {
        self.meta(path, |ns, now| ns.symlink(ctx, path, target, now))
    }

    fn readlink(&self, ctx: &Credentials, path: &str) -> FsResult<String> {
        self.meta(path, |ns, _| ns.readlink(ctx, path))
    }

    fn set_acl(&self, ctx: &Credentials, path: &str, acl: &Acl) -> FsResult<()> {
        self.meta(path, |ns, now| ns.set_acl(ctx, path, acl, now))
    }

    fn get_acl(&self, ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.meta(path, |ns, _| ns.get_acl(ctx, path))
    }

    fn access(&self, ctx: &Credentials, path: &str, mode: u8) -> FsResult<()> {
        self.meta(path, |ns, _| ns.access(ctx, path, mode))
    }

    fn sync_all(&self, _ctx: &Credentials) -> FsResult<()> {
        self.tier.flush(&self.port, None)?;
        let pending: Vec<(Ino, u64, String)> = {
            let mut handles = self.handles.lock();
            handles
                .values_mut()
                .filter(|h| h.wrote)
                .map(|h| {
                    h.wrote = false;
                    (h.ino, h.size, h.path.clone())
                })
                .collect()
        };
        if pending.is_empty() {
            return Ok(());
        }
        // The pending size updates go as one FUSE crossing plus one
        // batched MDS flight with max-of-completions pricing, like
        // ArkFS's metadata flush, so the comparison stays fair.
        let fuse = self.fs.spec.fuse_op_cost;
        match self.profile {
            Profile::CephKernel => {}
            Profile::CephFuse => self.cross_fuse(3 * fuse * 2),
            Profile::MarFs => self.cross_fuse(2 * fuse),
        }
        let hints: Vec<u64> = (pending.iter())
            .map(|(ino, _, path)| match self.profile {
                Profile::MarFs => *ino as u64,
                _ => dir_hint(path),
            })
            .collect();
        self.fs.mds.metadata_ops_batched(&self.port, &hints);
        for (ino, size, _) in pending {
            self.fs.ns.lock().set_size(ino, size, self.port.now())?;
        }
        Ok(())
    }

    fn statfs(&self, _ctx: &Credentials) -> FsResult<FsStats> {
        let inodes = self.meta("/", |ns, _| Ok(ns.len() as u64))?;
        let (store_objects, store_bytes) = self.fs.store.usage();
        Ok(FsStats {
            inodes,
            store_objects,
            store_bytes,
        })
    }
}
