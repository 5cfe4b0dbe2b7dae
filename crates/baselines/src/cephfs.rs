//! CephFS simulator: centralized MDS cluster + direct OSD data path.
//!
//! Two mount types, as benchmarked in §IV: `CephFS-K` (kernel client:
//! metadata ops hit the MDS over the network, lookups served by kernel
//! caps/dcache) and `CephFS-F` (FUSE client: extra user↔kernel round
//! trips per request, the serialized FUSE LOOKUP lock, and a 128 KB
//! default max read-ahead instead of 8 MB).

use crate::datapath::{DataPath, RaState};
use crate::mds::{MdsCluster, MdsModel};
use crate::ns::Namespace;
use arkfs::cache::DataCache;
use arkfs_objstore::ObjectStore;
use arkfs_simkit::{ClusterSpec, Port, SharedResource};
use arkfs_vfs::{
    path as vpath, Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, FsStats,
    OpenFlags, SetAttr, Stat, Vfs, AM_READ, AM_WRITE,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the client is mounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountType {
    /// In-kernel client: no FUSE overhead, 8 MB max read-ahead.
    Kernel,
    /// FUSE client: per-request user↔kernel cost, serialized LOOKUP
    /// lock, 128 KB max read-ahead.
    Fuse,
}

/// One CephFS deployment: the shared MDS cluster + namespace + object
/// store ("OSDs").
pub struct CephFs {
    ns: Mutex<Namespace>,
    mds: MdsCluster,
    store: Arc<dyn ObjectStore>,
    spec: ClusterSpec,
    chunk_size: u64,
    /// The single ceph-fuse daemon all FUSE-mounted processes of a client
    /// node share: it serves one request at a time ("FUSE holds an
    /// exclusive kernel lock until the operation is completed by the
    /// user-space FUSE daemon", §IV-B).
    fuse_daemon: SharedResource,
}

impl CephFs {
    pub fn new(
        store: Arc<dyn ObjectStore>,
        mds_count: usize,
        spec: ClusterSpec,
        chunk_size: u64,
    ) -> Arc<Self> {
        let mds = MdsCluster::new(mds_count, MdsModel::ceph(&spec), &spec);
        Arc::new(CephFs {
            ns: Mutex::new(Namespace::new()),
            mds,
            store,
            spec,
            chunk_size,
            fuse_daemon: SharedResource::ideal("ceph-fuse"),
        })
    }

    pub fn mds(&self) -> &MdsCluster {
        &self.mds
    }

    /// Mount a new client.
    pub fn client(self: &Arc<Self>, mount: MountType) -> Arc<CephClient> {
        let max_ra = match mount {
            MountType::Kernel => 8 * 1024 * 1024,
            MountType::Fuse => 128 * 1024,
        };
        let max_ra = max_ra.min(self.chunk_size * 128);
        Arc::new(CephClient {
            shared: Arc::clone(self),
            mount,
            port: Port::new(),
            data: DataPath::new(Arc::clone(&self.store), self.chunk_size, max_ra),
            cache: Mutex::new(crate::datapath::counted_cache(&self.store, 256)),
            handles: Mutex::new(BTreeMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }
}

struct Handle {
    ino: arkfs_vfs::Ino,
    path: String,
    flags: OpenFlags,
    size: u64,
    wrote: bool,
    ra: RaState,
}

/// A mounted CephFS client.
pub struct CephClient {
    shared: Arc<CephFs>,
    mount: MountType,
    port: Port,
    data: DataPath,
    cache: Mutex<DataCache>,
    handles: Mutex<BTreeMap<u64, Handle>>,
    next_handle: AtomicU64,
}

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

impl CephClient {
    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Flush and drop the page cache (fio drop-caches step).
    pub fn drop_data_cache(&self) -> FsResult<()> {
        self.data.flush_all(&self.port, &self.cache)?;
        *self.cache.lock() = crate::datapath::counted_cache(&self.shared.store, 256);
        Ok(())
    }

    /// The shared store's telemetry, if the backend exposes one.
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        self.shared.store.telemetry().cloned()
    }

    pub fn mount(&self) -> MountType {
        self.mount
    }

    /// Charge one metadata operation on `path` (FUSE overhead + MDS
    /// round trip).
    fn charge_meta(&self, path: &str) {
        if self.mount == MountType::Fuse {
            let comps = vpath::components(path).map(|c| c.len()).unwrap_or(1);
            // One LOOKUP per component plus the operation itself, each
            // crossing user↔kernel and serialized at the single shared
            // ceph-fuse daemon of the client node.
            let cost = 3 * self.shared.spec.fuse_op_cost * (comps as u64 + 1);
            let done = self.shared.fuse_daemon.reserve(self.port.now(), cost);
            self.port.wait_until(done);
        }
        self.shared.mds.metadata_op(&self.port, dir_hint(path));
    }

    fn charge_io(&self) {
        if self.mount == MountType::Fuse {
            let done = self
                .shared
                .fuse_daemon
                .reserve(self.port.now(), self.shared.spec.fuse_op_cost);
            self.port.wait_until(done);
        }
    }

    fn handle_view(&self, fh: FileHandle) -> FsResult<(arkfs_vfs::Ino, u64, OpenFlags)> {
        let handles = self.handles.lock();
        let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
        Ok((h.ino, h.size, h.flags))
    }
}

impl Vfs for CephClient {
    fn mkdir(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<Stat> {
        self.charge_meta(path);
        self.shared
            .ns
            .lock()
            .mkdir(ctx, path, mode, self.port.now())
    }

    fn rmdir(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.charge_meta(path);
        self.shared.ns.lock().rmdir(ctx, path, self.port.now())
    }

    fn create(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<FileHandle> {
        self.charge_meta(path);
        let ino = self
            .shared
            .ns
            .lock()
            .create(ctx, path, mode, self.port.now())?;
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(
            id,
            Handle {
                ino,
                path: path.to_string(),
                flags: OpenFlags::RDWR,
                size: 0,
                wrote: false,
                ra: RaState::default(),
            },
        );
        Ok(FileHandle(id))
    }

    fn open(&self, ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.charge_meta(path);
        let (ino, mut size, ftype) = {
            let ns = self.shared.ns.lock();
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
                let target = self.shared.ns.lock().readlink(ctx, path)?;
                return self.open(ctx, &target, flags);
            }
            FileType::Regular => {}
        }
        if flags.is_trunc() && flags.writable() && size > 0 {
            self.shared.ns.lock().set_size(ino, 0, self.port.now())?;
            self.data.delete(&self.port, &self.cache, ino, size)?;
            size = 0;
        }
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
        Ok(FileHandle(id))
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
        self.charge_io();
        let (ino, size, flags) = self.handle_view(fh)?;
        if !flags.readable() {
            return Err(FsError::BadAccessMode);
        }
        let mut ra = {
            let handles = self.handles.lock();
            handles.get(&fh.0).map(|h| h.ra).unwrap_or_default()
        };
        let n = self
            .data
            .read(&self.port, &self.cache, ino, offset, buf, size, &mut ra)?;
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
        self.data
            .write(&self.port, &self.cache, ino, offset, data, size)?;
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
        self.data.flush(&self.port, &self.cache, ino)?;
        if wrote {
            // Size/mtime updates flow through the MDS.
            self.charge_meta(&path);
            self.shared.ns.lock().set_size(ino, size, self.port.now())?;
            if let Some(h) = self.handles.lock().get_mut(&fh.0) {
                h.wrote = false;
            }
        }
        Ok(())
    }

    fn stat(&self, ctx: &Credentials, path: &str) -> FsResult<Stat> {
        self.charge_meta(path);
        let mut st = self.shared.ns.lock().stat(ctx, path)?;
        for h in self.handles.lock().values() {
            if h.ino == st.ino {
                st.size = st.size.max(h.size);
            }
        }
        Ok(st)
    }

    fn readdir(&self, ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        self.charge_meta(path);
        self.shared.ns.lock().readdir(ctx, path)
    }

    fn unlink(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.charge_meta(path);
        let (ino, size) = self.shared.ns.lock().unlink(ctx, path, self.port.now())?;
        self.data.delete(&self.port, &self.cache, ino, size)?;
        Ok(())
    }

    fn rename(&self, ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.charge_meta(from);
        self.charge_meta(to);
        self.shared.ns.lock().rename(ctx, from, to, self.port.now())
    }

    fn truncate(&self, ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        self.charge_meta(path);
        let (ino, old) = {
            let mut ns = self.shared.ns.lock();
            let ino = ns.resolve(ctx, path)?;
            if ns.node(ino)?.ftype == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            let old = ns.set_size(ino, size, self.port.now())?;
            (ino, old)
        };
        if size < old {
            self.data
                .truncate(&self.port, &self.cache, ino, old, size)?;
        }
        let mut handles = self.handles.lock();
        for h in handles.values_mut() {
            if h.ino == ino {
                h.size = size;
            }
        }
        Ok(())
    }

    fn setattr(&self, ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.charge_meta(path);
        self.shared
            .ns
            .lock()
            .setattr(ctx, path, attr, self.port.now())
    }

    fn symlink(&self, ctx: &Credentials, path: &str, target: &str) -> FsResult<Stat> {
        self.charge_meta(path);
        self.shared
            .ns
            .lock()
            .symlink(ctx, path, target, self.port.now())
    }

    fn readlink(&self, ctx: &Credentials, path: &str) -> FsResult<String> {
        self.charge_meta(path);
        self.shared.ns.lock().readlink(ctx, path)
    }

    fn set_acl(&self, ctx: &Credentials, path: &str, acl: &Acl) -> FsResult<()> {
        self.charge_meta(path);
        self.shared
            .ns
            .lock()
            .set_acl(ctx, path, acl, self.port.now())
    }

    fn get_acl(&self, ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.charge_meta(path);
        self.shared.ns.lock().get_acl(ctx, path)
    }

    fn access(&self, ctx: &Credentials, path: &str, mode: u8) -> FsResult<()> {
        self.charge_meta(path);
        self.shared.ns.lock().access(ctx, path, mode)
    }

    fn sync_all(&self, _ctx: &Credentials) -> FsResult<()> {
        self.data.flush_all(&self.port, &self.cache)?;
        let pending: Vec<(arkfs_vfs::Ino, u64, String)> = {
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
        if !pending.is_empty() {
            // The kernel client coalesces dirty caps into one MDS
            // request flight at fsync; grant the FUSE daemon the same
            // single crossing. Batched with max-of-completions pricing
            // like ArkFS's metadata flush, so the comparison stays fair.
            if self.mount == MountType::Fuse {
                let cost = 3 * self.shared.spec.fuse_op_cost * 2;
                let done = self.shared.fuse_daemon.reserve(self.port.now(), cost);
                self.port.wait_until(done);
            }
            let hints: Vec<u64> = pending.iter().map(|(_, _, p)| dir_hint(p)).collect();
            self.shared.mds.metadata_ops_batched(&self.port, &hints);
            for (ino, size, _) in pending {
                self.shared.ns.lock().set_size(ino, size, self.port.now())?;
            }
        }
        Ok(())
    }

    fn statfs(&self, _ctx: &Credentials) -> FsResult<FsStats> {
        self.charge_meta("/");
        let inodes = self.shared.ns.lock().len() as u64;
        let (store_objects, store_bytes) = self.shared.store.usage();
        Ok(FsStats {
            inodes,
            store_objects,
            store_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};
    use arkfs_vfs::{read_file, write_file};

    fn deployment(mds: usize) -> Arc<CephFs> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        CephFs::new(store, mds, ClusterSpec::test_tiny(), 64)
    }

    #[test]
    fn full_posix_roundtrip_kernel_mount() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        write_file(&*c, &ctx, "/d/f", b"ceph data").unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), b"ceph data");
        assert_eq!(c.stat(&ctx, "/d/f").unwrap().size, 9);
        c.rename(&ctx, "/d/f", "/d/g").unwrap();
        assert_eq!(c.readdir(&ctx, "/d").unwrap()[0].name, "g");
        c.unlink(&ctx, "/d/g").unwrap();
        c.rmdir(&ctx, "/d").unwrap();
        assert!(c.port().now() > 0);
    }

    #[test]
    fn fuse_mount_is_slower_than_kernel() {
        let ctx = Credentials::root();
        let run = |mount| {
            let fs = deployment(1);
            let c = fs.client(mount);
            c.mkdir(&ctx, "/d", 0o755).unwrap();
            for i in 0..50 {
                write_file(&*c, &ctx, &format!("/d/f{i}"), b"").unwrap();
            }
            c.port().now()
        };
        let kernel = run(MountType::Kernel);
        let fuse = run(MountType::Fuse);
        assert!(fuse > kernel, "FUSE {fuse} must exceed kernel {kernel}");
    }

    #[test]
    fn multiple_clients_share_namespace() {
        let fs = deployment(1);
        let c1 = fs.client(MountType::Kernel);
        let c2 = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c1.mkdir(&ctx, "/shared", 0o755).unwrap();
        write_file(&*c1, &ctx, "/shared/x", b"hello").unwrap();
        assert_eq!(read_file(&*c2, &ctx, "/shared/x").unwrap(), b"hello");
    }

    #[test]
    fn truncate_and_open_trunc() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/t", &[5u8; 100]).unwrap();
        let fh = c.open(&ctx, "/t", OpenFlags::WRONLY.truncate()).unwrap();
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/t").unwrap().size, 0);
    }

    #[test]
    fn mds_ops_are_counted() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let before = fs.mds().ops_served();
        c.stat(&ctx, "/d").unwrap();
        assert_eq!(fs.mds().ops_served(), before + 1);
    }

    #[test]
    fn symlink_follow_on_open() {
        let fs = deployment(1);
        let c = fs.client(MountType::Kernel);
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/real", b"data").unwrap();
        c.symlink(&ctx, "/ln", "/real").unwrap();
        assert_eq!(read_file(&*c, &ctx, "/ln").unwrap(), b"data");
        assert_eq!(c.readlink(&ctx, "/ln").unwrap(), "/real");
    }
}
