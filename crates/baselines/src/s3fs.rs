//! S3FS simulator: "just a FUSE-based wrapper layer over the Amazon S3
//! cloud storage" (§II-C).
//!
//! The properties that shape its numbers in Figure 6(b):
//! * a slow local **disk cache** stages every byte twice — on write, data
//!   lands on disk and is uploaded at fsync; on read, the whole object is
//!   downloaded to disk before a single byte is served;
//! * whole-object semantics — partial writes rewrite the object,
//!   renames copy it ([`Bucket::rename`]);
//! * permission checks "not done rigorously" — none are enforced.

use crate::pathfs::Bucket;
use arkfs_objstore::{wait_last, BatchSpan};
use arkfs_simkit::{BandwidthResource, ClusterSpec, Port};
use arkfs_vfs::{
    Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, Ino, Nanos, OpenFlags,
    SetAttr, Stat, Vfs,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bandwidth of the local disk-cache device. The paper's client
/// nodes stage through node-local EBS shared by all benchmark processes,
/// so the per-process share is well below a dedicated volume.
pub const S3FS_DISK_BW: u64 = 120_000_000;

struct S3Handle {
    path: String,
    ino: Ino,
    size: u64,
    buf: Vec<u8>,
    loaded: bool,
    dirty: bool,
}

/// One S3FS client (its own FUSE daemon + disk cache).
pub struct S3Fs {
    bucket: Arc<Bucket>,
    spec: ClusterSpec,
    port: Port,
    disk: BandwidthResource,
    handles: Mutex<BTreeMap<u64, S3Handle>>,
    next_handle: AtomicU64,
}

impl S3Fs {
    pub fn new(bucket: Arc<Bucket>, spec: ClusterSpec) -> Arc<Self> {
        Self::with_disk_bw(bucket, spec, S3FS_DISK_BW)
    }

    pub fn with_disk_bw(bucket: Arc<Bucket>, spec: ClusterSpec, disk_bw: u64) -> Arc<Self> {
        Arc::new(S3Fs {
            bucket,
            spec,
            port: Port::new(),
            disk: BandwidthResource::new("s3fs-disk", disk_bw),
            handles: Mutex::new(BTreeMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// The bucket store's telemetry, if the backend exposes one.
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        self.bucket.store().telemetry().cloned()
    }

    fn fuse(&self) {
        self.port.advance(self.spec.fuse_op_cost);
    }

    fn disk_io(&self, bytes: u64) {
        let done = self.disk.transfer(self.port.now(), bytes);
        self.port.wait_until(done);
    }

    fn now(&self) -> Nanos {
        self.port.now()
    }

    fn make_stat(entry: &crate::pathfs::BucketEntry) -> Stat {
        Stat {
            ino: entry.ino,
            ftype: if entry.is_dir {
                FileType::Directory
            } else {
                FileType::Regular
            },
            // S3FS fakes liberal modes; checks are not rigorous.
            mode: 0o777,
            uid: 0,
            gid: 0,
            nlink: 1,
            size: entry.size,
            atime: entry.mtime,
            mtime: entry.mtime,
            ctime: entry.mtime,
        }
    }

    /// Pull the whole object into the disk cache on first touch.
    fn ensure_loaded(&self, fh: FileHandle) -> FsResult<()> {
        let (ino, size, loaded) = {
            let handles = self.handles.lock();
            let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
            (h.ino, h.size, h.loaded)
        };
        if loaded {
            return Ok(());
        }
        let data = self.bucket.download(&self.port, ino, size)?;
        self.disk_io(size); // staging write to the disk cache
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
        h.buf = data;
        h.loaded = true;
        Ok(())
    }
}

impl Vfs for S3Fs {
    fn mkdir(&self, _ctx: &Credentials, path: &str, _mode: u32) -> FsResult<Stat> {
        self.fuse();
        let entry = self.bucket.mkdir(&self.port, path, self.now())?;
        Ok(Self::make_stat(&entry))
    }

    fn rmdir(&self, _ctx: &Credentials, path: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.rmdir(&self.port, path)
    }

    fn create(&self, _ctx: &Credentials, path: &str, _mode: u32) -> FsResult<FileHandle> {
        self.fuse();
        let entry = self.bucket.create(&self.port, path, self.now())?;
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(
            id,
            S3Handle {
                path: path.to_string(),
                ino: entry.ino,
                size: 0,
                buf: Vec::new(),
                loaded: true,
                dirty: false,
            },
        );
        Ok(FileHandle(id))
    }

    fn open(&self, _ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.fuse();
        let entry = self.bucket.stat(&self.port, path)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory);
        }
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let trunc = flags.is_trunc() && flags.writable();
        self.handles.lock().insert(
            id,
            S3Handle {
                path: path.to_string(),
                ino: entry.ino,
                size: if trunc { 0 } else { entry.size },
                buf: Vec::new(),
                loaded: trunc,
                dirty: trunc,
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
        self.fuse();
        self.ensure_loaded(fh)?;
        let handles = self.handles.lock();
        let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
        if offset >= h.buf.len() as u64 {
            return Ok(0);
        }
        let n = buf.len().min(h.buf.len() - offset as usize);
        buf[..n].copy_from_slice(&h.buf[offset as usize..offset as usize + n]);
        drop(handles);
        self.disk_io(n as u64); // served from the disk cache
        Ok(n)
    }

    fn write(
        &self,
        _ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.fuse();
        self.ensure_loaded(fh)?;
        self.disk_io(data.len() as u64); // staged on disk
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
        let end = offset as usize + data.len();
        if h.buf.len() < end {
            h.buf.resize(end, 0);
        }
        h.buf[offset as usize..end].copy_from_slice(data);
        h.size = h.size.max(end as u64);
        h.dirty = true;
        Ok(data.len())
    }

    fn fsync(&self, _ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        let (ino, dirty, size, path, data) = {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            let dirty = h.dirty;
            h.dirty = false;
            (
                h.ino,
                dirty,
                h.size,
                h.path.clone(),
                if dirty { h.buf.clone() } else { Vec::new() },
            )
        };
        if dirty {
            // Read back from the disk cache, then upload the whole object.
            self.disk_io(size);
            self.bucket.upload(&self.port, ino, &data)?;
            self.bucket.set_size(&path, size, self.now())?;
        }
        Ok(())
    }

    fn stat(&self, _ctx: &Credentials, path: &str) -> FsResult<Stat> {
        self.fuse();
        let entry = self.bucket.stat(&self.port, path)?;
        let mut st = Self::make_stat(&entry);
        for h in self.handles.lock().values() {
            if h.ino == st.ino {
                st.size = st.size.max(h.size);
            }
        }
        Ok(st)
    }

    fn readdir(&self, _ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        self.fuse();
        self.bucket.readdir(&self.port, path)
    }

    fn unlink(&self, _ctx: &Credentials, path: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.unlink(&self.port, path)?;
        Ok(())
    }

    fn rename(&self, _ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.rename(&self.port, from, to, self.now())?;
        Ok(())
    }

    fn truncate(&self, _ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        self.fuse();
        let entry = self.bucket.stat(&self.port, path)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory);
        }
        // Whole-object rewrite.
        let mut data = self.bucket.download(&self.port, entry.ino, entry.size)?;
        data.resize(size as usize, 0);
        self.bucket.upload(&self.port, entry.ino, &data)?;
        if size < entry.size {
            // Drop now-orphaned tail parts in one batched multi-DELETE.
            let keep = size.div_ceil(self.bucket.part_size);
            let dead: Vec<arkfs_objstore::ObjectKey> =
                (keep..entry.size.div_ceil(self.bucket.part_size))
                    .map(|part| arkfs_objstore::ObjectKey::data_chunk(entry.ino, part))
                    .collect();
            if !dead.is_empty() {
                let store = &**self.bucket.store();
                wait_last(store, &self.port, BatchSpan::Delete, |t| {
                    store.delete_each(t, &dead)
                });
            }
        }
        self.bucket.set_size(path, size, self.now())
    }

    fn setattr(&self, _ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.fuse();
        // S3FS stores attrs as object metadata; modes are not enforced.
        let entry = self.bucket.stat(&self.port, path)?;
        let mut st = Self::make_stat(&entry);
        if let Some(mode) = attr.mode {
            st.mode = mode;
        }
        Ok(st)
    }

    fn symlink(&self, _ctx: &Credentials, _path: &str, _target: &str) -> FsResult<Stat> {
        Err(FsError::Unsupported("s3fs symlink"))
    }

    fn readlink(&self, _ctx: &Credentials, _path: &str) -> FsResult<String> {
        Err(FsError::Unsupported("s3fs readlink"))
    }

    fn set_acl(&self, _ctx: &Credentials, _path: &str, _acl: &Acl) -> FsResult<()> {
        Err(FsError::Unsupported("s3fs acl"))
    }

    fn get_acl(&self, _ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.bucket.stat(&self.port, path)?;
        Ok(Acl::default())
    }

    fn access(&self, _ctx: &Credentials, path: &str, _mode: u8) -> FsResult<()> {
        // "Permission check is not done rigorously" — existence only.
        self.bucket.lookup(path)?;
        Ok(())
    }

    fn sync_all(&self, ctx: &Credentials) -> FsResult<()> {
        let ids: Vec<u64> = self.handles.lock().keys().copied().collect();
        for id in ids {
            self.fsync(ctx, FileHandle(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
    use arkfs_vfs::{read_file, write_file};

    fn client() -> Arc<S3Fs> {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        let store = Arc::new(ObjectCluster::new(cfg));
        let bucket = Bucket::new(store, 64);
        S3Fs::new(bucket, ClusterSpec::test_tiny())
    }

    #[test]
    fn write_read_roundtrip_through_disk_cache() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        write_file(&*c, &ctx, "/d/f", &payload).unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), payload);
        assert!(c.port().now() > 0);
    }

    #[test]
    fn random_write_rewrites_whole_object() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/f", &[1u8; 200]).unwrap();
        let fh = c.open(&ctx, "/f", OpenFlags::RDWR).unwrap();
        c.write(&ctx, fh, 50, &[9u8; 10]).unwrap();
        c.close(&ctx, fh).unwrap();
        let data = read_file(&*c, &ctx, "/f").unwrap();
        assert_eq!(data.len(), 200);
        assert!(data[50..60].iter().all(|&b| b == 9));
        assert!(data[..50].iter().all(|&b| b == 1));
    }

    #[test]
    fn permissive_access() {
        let c = client();
        let nobody = Credentials::user(999);
        write_file(&*c, &nobody, "/f", b"x").unwrap();
        c.access(&nobody, "/f", 0o7).unwrap();
        assert_eq!(c.stat(&nobody, "/f").unwrap().mode, 0o777);
    }

    #[test]
    fn truncate_whole_object() {
        let c = client();
        let ctx = Credentials::root();
        write_file(&*c, &ctx, "/t", &[7u8; 150]).unwrap();
        c.truncate(&ctx, "/t", 70).unwrap();
        let data = read_file(&*c, &ctx, "/t").unwrap();
        assert_eq!(data.len(), 70);
        assert!(data.iter().all(|&b| b == 7));
    }
}
