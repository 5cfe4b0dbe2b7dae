//! MarFS simulator: the *interactive interface* (FUSE mount) over two
//! dedicated GPFS metadata nodes and an object data tier (§IV-A).
//!
//! The paper could not use pftool and measured MarFS through its FUSE
//! interactive mount, which is slow for metadata (every request crosses
//! FUSE and the GPFS metadata nodes, no client caching) and **returns
//! errors on the mdtest-hard READ phase** — reproduced here verbatim.

use crate::mds::{MdsCluster, MdsModel};
use crate::ns::Namespace;
use arkfs::prt::Prt;
use arkfs_objstore::ObjectStore;
use arkfs_simkit::{ClusterSpec, Port, SharedResource};
use arkfs_vfs::{
    Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, Ino, OpenFlags, SetAttr,
    Stat, Vfs,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared MarFS deployment state.
pub struct MarShared {
    ns: Mutex<Namespace>,
    mds: MdsCluster,
    prt: Prt,
    spec: ClusterSpec,
}

/// One MarFS interactive (FUSE) client.
pub struct MarFs {
    shared: Arc<MarShared>,
    port: Port,
    fuse_lock: SharedResource,
    handles: Mutex<BTreeMap<u64, (Ino, u64, bool)>>, // ino, size, wrote
    next_handle: AtomicU64,
}

impl MarFs {
    /// Stand up a deployment (call once) and mount clients from it.
    pub fn deployment(
        store: Arc<dyn ObjectStore>,
        spec: ClusterSpec,
        chunk: u64,
    ) -> Arc<MarShared> {
        Arc::new(MarShared {
            ns: Mutex::new(Namespace::new()),
            mds: MdsCluster::new(2, MdsModel::marfs(&spec), &spec),
            prt: Prt::new(store, chunk),
            spec,
        })
    }

    pub fn client(shared: &Arc<MarShared>) -> Arc<MarFs> {
        Arc::new(MarFs {
            shared: Arc::clone(shared),
            port: Port::new(),
            fuse_lock: SharedResource::ideal("marfs-fuse"),
            handles: Mutex::new(BTreeMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// The deployment's telemetry (shared with the object store).
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        Some(Arc::clone(self.shared.prt.telemetry()))
    }

    fn charge(&self, path: &str) {
        // Heavy FUSE interactive path: one user↔kernel hop per component
        // plus the operation, then the GPFS metadata nodes.
        let comps = path.chars().filter(|&c| c == '/').count().max(1);
        let cost = self.shared.spec.fuse_op_cost * 2 * (comps as u64 + 1);
        let done = self.fuse_lock.reserve(self.port.now(), cost);
        self.port.wait_until(done);
        let hint = path.len() as u64;
        self.shared.mds.metadata_op(&self.port, hint);
    }
}

impl Vfs for MarFs {
    fn mkdir(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<Stat> {
        self.charge(path);
        self.shared
            .ns
            .lock()
            .mkdir(ctx, path, mode, self.port.now())
    }

    fn rmdir(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.charge(path);
        self.shared.ns.lock().rmdir(ctx, path, self.port.now())
    }

    fn create(&self, ctx: &Credentials, path: &str, mode: u32) -> FsResult<FileHandle> {
        self.charge(path);
        let ino = self
            .shared
            .ns
            .lock()
            .create(ctx, path, mode, self.port.now())?;
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(id, (ino, 0, false));
        Ok(FileHandle(id))
    }

    fn open(&self, ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.charge(path);
        let (ino, mut size) = {
            let ns = self.shared.ns.lock();
            let ino = ns.resolve(ctx, path)?;
            let node = ns.node(ino)?;
            if node.ftype == FileType::Directory {
                return Err(FsError::IsADirectory);
            }
            (ino, node.size)
        };
        if flags.is_trunc() && flags.writable() && size > 0 {
            let old = self.shared.ns.lock().set_size(ino, 0, self.port.now())?;
            self.shared.prt.truncate_data(&self.port, ino, old, 0)?;
            size = 0;
        }
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(id, (ino, size, false));
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
        _fh: FileHandle,
        _offset: u64,
        _buf: &mut [u8],
    ) -> FsResult<usize> {
        // "MarFS returns errors when we perform this phase in our
        // environment" (§IV-B, mdtest-hard READ).
        Err(FsError::Unsupported("marfs interactive read"))
    }

    fn write(
        &self,
        _ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        let ino = {
            let handles = self.handles.lock();
            handles.get(&fh.0).ok_or(FsError::BadHandle)?.0
        };
        // Interactive writes go straight to the object tier.
        self.shared.prt.write_data(&self.port, ino, offset, data)?;
        let mut handles = self.handles.lock();
        if let Some(h) = handles.get_mut(&fh.0) {
            h.1 = h.1.max(offset + data.len() as u64);
            h.2 = true;
        }
        Ok(data.len())
    }

    fn fsync(&self, _ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        let (ino, size, wrote) = {
            let handles = self.handles.lock();
            *handles.get(&fh.0).ok_or(FsError::BadHandle)?
        };
        if wrote {
            self.charge("/");
            self.shared.ns.lock().set_size(ino, size, self.port.now())?;
            if let Some(h) = self.handles.lock().get_mut(&fh.0) {
                h.2 = false;
            }
        }
        Ok(())
    }

    fn stat(&self, ctx: &Credentials, path: &str) -> FsResult<Stat> {
        self.charge(path);
        self.shared.ns.lock().stat(ctx, path)
    }

    fn readdir(&self, ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        self.charge(path);
        self.shared.ns.lock().readdir(ctx, path)
    }

    fn unlink(&self, ctx: &Credentials, path: &str) -> FsResult<()> {
        self.charge(path);
        let (ino, size) = self.shared.ns.lock().unlink(ctx, path, self.port.now())?;
        self.shared.prt.delete_data(&self.port, ino, size)?;
        Ok(())
    }

    fn rename(&self, ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.charge(from);
        self.charge(to);
        self.shared.ns.lock().rename(ctx, from, to, self.port.now())
    }

    fn truncate(&self, ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        self.charge(path);
        let mut ns = self.shared.ns.lock();
        let ino = ns.resolve(ctx, path)?;
        let old = ns.set_size(ino, size, self.port.now())?;
        drop(ns);
        self.shared.prt.truncate_data(&self.port, ino, old, size)
    }

    fn setattr(&self, ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.charge(path);
        self.shared
            .ns
            .lock()
            .setattr(ctx, path, attr, self.port.now())
    }

    fn symlink(&self, ctx: &Credentials, path: &str, target: &str) -> FsResult<Stat> {
        self.charge(path);
        self.shared
            .ns
            .lock()
            .symlink(ctx, path, target, self.port.now())
    }

    fn readlink(&self, ctx: &Credentials, path: &str) -> FsResult<String> {
        self.charge(path);
        self.shared.ns.lock().readlink(ctx, path)
    }

    fn set_acl(&self, ctx: &Credentials, path: &str, acl: &Acl) -> FsResult<()> {
        self.charge(path);
        self.shared
            .ns
            .lock()
            .set_acl(ctx, path, acl, self.port.now())
    }

    fn get_acl(&self, ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.charge(path);
        self.shared.ns.lock().get_acl(ctx, path)
    }

    fn access(&self, ctx: &Credentials, path: &str, mode: u8) -> FsResult<()> {
        self.charge(path);
        self.shared.ns.lock().access(ctx, path, mode)
    }

    fn sync_all(&self, _ctx: &Credentials) -> FsResult<()> {
        // Data is unbuffered (writes go straight to the object tier),
        // but written handles may still carry un-pushed size updates.
        // Flush them as one FUSE crossing plus one batched GPFS-MDS
        // flight (max-of-completions), matching the batched flush the
        // other systems get.
        let pending: Vec<(Ino, u64)> = {
            let mut handles = self.handles.lock();
            handles
                .values_mut()
                .filter(|h| h.2)
                .map(|h| {
                    h.2 = false;
                    (h.0, h.1)
                })
                .collect()
        };
        if !pending.is_empty() {
            let cost = self.shared.spec.fuse_op_cost * 2;
            let done = self.fuse_lock.reserve(self.port.now(), cost);
            self.port.wait_until(done);
            let hints: Vec<u64> = pending.iter().map(|&(ino, _)| ino as u64).collect();
            self.shared.mds.metadata_ops_batched(&self.port, &hints);
            for (ino, size) in pending {
                self.shared.ns.lock().set_size(ino, size, self.port.now())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, KeyKind, ObjectCluster, ObjectKey};
    use arkfs_vfs::write_file;

    fn client_on(store: Arc<ObjectCluster>) -> Arc<MarFs> {
        let shared = MarFs::deployment(store, ClusterSpec::test_tiny(), 64);
        MarFs::client(&shared)
    }

    fn client() -> Arc<MarFs> {
        client_on(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())))
    }

    #[test]
    fn metadata_and_write_work() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        write_file(&*c, &ctx, "/d/f", b"marfs").unwrap();
        assert_eq!(c.stat(&ctx, "/d/f").unwrap().size, 5);
        assert_eq!(c.readdir(&ctx, "/d").unwrap().len(), 1);
        c.unlink(&ctx, "/d/f").unwrap();
        assert!(c.port().now() > 0);
    }

    #[test]
    fn reads_return_errors_like_the_paper_observed() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", b"data").unwrap();
        let fh = c.open(&ctx, "/f", OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            c.read(&ctx, fh, 0, &mut buf),
            Err(FsError::Unsupported("marfs interactive read"))
        ));
    }

    #[test]
    fn open_with_trunc_drops_the_old_size_and_chunks() {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let c = client_on(Arc::clone(&store));
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", &[7u8; 100]).unwrap();
        let ino = c.stat(&ctx, "/f").unwrap().ino;
        let chunks = || {
            let port = Port::new();
            store.list(&port, Some(KeyKind::Data), Some(ino)).unwrap()
        };
        assert_eq!(chunks().len(), 2);
        let fh = c.open(&ctx, "/f", OpenFlags::WRONLY.truncate()).unwrap();
        c.write(&ctx, fh, 0, &[1u8; 10]).unwrap();
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/f").unwrap().size, 10);
        assert_eq!(chunks(), vec![ObjectKey::data_chunk(ino, 0)]);
        let got = store.get(&Port::new(), ObjectKey::data_chunk(ino, 0));
        assert_eq!(&got.unwrap()[..], &[1u8; 10]);
    }
}
