//! goofys simulator: S3-backed, "extremely optimized for sequential
//! reads; the max read-ahead size is set to 400 MB" (§IV-B), streaming
//! multipart writes, weak POSIX (non-sequential writes rejected, as in
//! real goofys).

use crate::datapath::{DataPath, RaState};
use crate::pathfs::Bucket;
use arkfs::cache::DataCache;
use arkfs::prt::map_os_err;
use arkfs_objstore::ObjectKey;
use arkfs_simkit::{ClusterSpec, Port};
use arkfs_vfs::{
    Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, Ino, OpenFlags, SetAttr,
    Stat, Vfs,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// goofys' famous read-ahead window.
pub const GOOFYS_READAHEAD: u64 = 400 * 1024 * 1024;

struct GoofysHandle {
    path: String,
    ino: Ino,
    size: u64,
    /// Streaming upload state: bytes buffered past the last full part.
    pending: Vec<u8>,
    next_part: u64,
    uploaded: u64,
    wrote: bool,
    ra: RaState,
}

/// One goofys client.
pub struct GoofysFs {
    bucket: Arc<Bucket>,
    spec: ClusterSpec,
    port: Port,
    data: DataPath,
    cache: Mutex<DataCache>,
    handles: Mutex<HashMap<u64, GoofysHandle>>,
    next_handle: AtomicU64,
}

impl GoofysFs {
    pub fn new(bucket: Arc<Bucket>, spec: ClusterSpec) -> Arc<Self> {
        Self::with_readahead(bucket, spec, GOOFYS_READAHEAD)
    }

    pub fn with_readahead(bucket: Arc<Bucket>, spec: ClusterSpec, readahead: u64) -> Arc<Self> {
        let part = bucket.part_size;
        let readahead = readahead.min(part * 1024);
        let data = DataPath::new(
            Arc::clone(bucket.store()),
            part,
            readahead,
            spec.net_half_rtt,
        );
        // Enough cache entries to hold a full read-ahead window.
        let entries = ((readahead / part) as usize + 8).max(16);
        let cache = crate::datapath::counted_cache(bucket.store(), entries);
        Arc::new(GoofysFs {
            bucket,
            spec,
            port: Port::new(),
            data,
            cache: Mutex::new(cache),
            handles: Mutex::new(HashMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Drop the read cache (fio drop-caches step). goofys caches are
    /// read-only, so nothing needs flushing.
    pub fn drop_data_cache(&self) {
        let entries = {
            let c = self.cache.lock();
            let _ = &*c;
            ((self.data.policy.max_readahead / self.bucket.part_size) as usize + 8).max(16)
        };
        *self.cache.lock() = crate::datapath::counted_cache(self.bucket.store(), entries);
    }

    /// The bucket store's telemetry, if the backend exposes one.
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        self.bucket.store().telemetry().cloned()
    }

    fn fuse(&self) {
        self.port.advance(self.spec.fuse_op_cost);
    }

    fn make_stat(entry: &crate::pathfs::BucketEntry) -> Stat {
        Stat {
            ino: entry.ino,
            ftype: if entry.is_dir {
                FileType::Directory
            } else {
                FileType::Regular
            },
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

    /// Flush full parts accumulated in the streaming buffer.
    fn stream_parts(&self, fh: FileHandle, finalize: bool) -> FsResult<()> {
        let part_size = self.bucket.part_size as usize;
        let puts: Vec<(ObjectKey, Bytes)> = {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            let mut puts = Vec::new();
            while h.pending.len() >= part_size || (finalize && !h.pending.is_empty()) {
                let n = part_size.min(h.pending.len());
                let part: Vec<u8> = h.pending.drain(..n).collect();
                h.uploaded += part.len() as u64;
                puts.push((ObjectKey::data_chunk(h.ino, h.next_part), Bytes::from(part)));
                h.next_part += 1;
            }
            puts
        };
        if puts.is_empty() {
            // Nothing accumulated a full part yet — don't charge a
            // store round trip for an empty flush.
            return Ok(());
        }
        for r in self.data.store().put_many(&self.port, puts) {
            r.map_err(map_os_err)?;
        }
        Ok(())
    }
}

impl Vfs for GoofysFs {
    fn mkdir(&self, _ctx: &Credentials, path: &str, _mode: u32) -> FsResult<Stat> {
        self.fuse();
        let entry = self.bucket.mkdir(&self.port, path, self.port.now())?;
        Ok(Self::make_stat(&entry))
    }

    fn rmdir(&self, _ctx: &Credentials, path: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.rmdir(&self.port, path)
    }

    fn create(&self, _ctx: &Credentials, path: &str, _mode: u32) -> FsResult<FileHandle> {
        self.fuse();
        let entry = self.bucket.create(&self.port, path, self.port.now())?;
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(
            id,
            GoofysHandle {
                path: path.to_string(),
                ino: entry.ino,
                size: 0,
                pending: Vec::new(),
                next_part: 0,
                uploaded: 0,
                wrote: false,
                ra: RaState::default(),
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
        if flags.is_trunc() && flags.writable() {
            self.bucket.delete_data(&self.port, entry.ino, entry.size)?;
            self.bucket.set_size(path, 0, self.port.now())?;
        }
        let size = if flags.is_trunc() && flags.writable() {
            0
        } else {
            entry.size
        };
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(
            id,
            GoofysHandle {
                path: path.to_string(),
                ino: entry.ino,
                size,
                pending: Vec::new(),
                next_part: 0,
                uploaded: 0,
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
        self.fuse();
        let (ino, size) = {
            let handles = self.handles.lock();
            let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
            (h.ino, h.size)
        };
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
        self.fuse();
        {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            // Real goofys only supports sequential writes to new objects.
            if offset != h.size {
                return Err(FsError::Unsupported("goofys non-sequential write"));
            }
            h.pending.extend_from_slice(data);
            h.size += data.len() as u64;
            h.wrote = true;
        }
        self.stream_parts(fh, false)?;
        Ok(data.len())
    }

    fn fsync(&self, _ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        self.stream_parts(fh, true)?;
        let (wrote, size, path) = {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            let wrote = h.wrote;
            h.wrote = false;
            (wrote, h.size, h.path.clone())
        };
        if wrote {
            self.bucket.set_size(&path, size, self.port.now())?;
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
        let entry = self.bucket.unlink(&self.port, path)?;
        self.cache.lock().invalidate_file(entry.ino);
        Ok(())
    }

    fn rename(&self, _ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.rename(&self.port, from, to, self.port.now())?;
        Ok(())
    }

    fn truncate(&self, _ctx: &Credentials, _path: &str, _size: u64) -> FsResult<()> {
        Err(FsError::Unsupported("goofys truncate"))
    }

    fn setattr(&self, _ctx: &Credentials, path: &str, _attr: &SetAttr) -> FsResult<Stat> {
        self.fuse();
        let entry = self.bucket.stat(&self.port, path)?;
        Ok(Self::make_stat(&entry))
    }

    fn symlink(&self, _ctx: &Credentials, _path: &str, _target: &str) -> FsResult<Stat> {
        Err(FsError::Unsupported("goofys symlink"))
    }

    fn readlink(&self, _ctx: &Credentials, _path: &str) -> FsResult<String> {
        Err(FsError::Unsupported("goofys readlink"))
    }

    fn set_acl(&self, _ctx: &Credentials, _path: &str, _acl: &Acl) -> FsResult<()> {
        Err(FsError::Unsupported("goofys acl"))
    }

    fn get_acl(&self, _ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.bucket.lookup(path)?;
        Ok(Acl::default())
    }

    fn access(&self, _ctx: &Credentials, path: &str, _mode: u8) -> FsResult<()> {
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

    fn client() -> Arc<GoofysFs> {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        let store = Arc::new(ObjectCluster::new(cfg));
        let bucket = Bucket::new(store, 64);
        GoofysFs::with_readahead(bucket, ClusterSpec::test_tiny(), 256)
    }

    #[test]
    fn sequential_write_then_read() {
        let c = client();
        let ctx = Credentials::root();
        c.mkdir(&ctx, "/d", 0o755).unwrap();
        let payload: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        write_file(&*c, &ctx, "/d/f", &payload).unwrap();
        assert_eq!(read_file(&*c, &ctx, "/d/f").unwrap(), payload);
    }

    #[test]
    fn non_sequential_writes_rejected() {
        let c = client();
        let ctx = Credentials::root();
        let fh = c.create(&ctx, "/f", 0o644).unwrap();
        c.write(&ctx, fh, 0, b"abc").unwrap();
        assert!(matches!(
            c.write(&ctx, fh, 100, b"x"),
            Err(FsError::Unsupported("goofys non-sequential write"))
        ));
        c.close(&ctx, fh).unwrap();
    }

    #[test]
    fn parts_stream_during_write() {
        let c = client();
        let ctx = Credentials::root();
        let fh = c.create(&ctx, "/big", 0o644).unwrap();
        // 200 bytes with 64-byte parts: 3 parts stream before close.
        c.write(&ctx, fh, 0, &[1u8; 200]).unwrap();
        let uploaded = {
            let handles = c.handles.lock();
            handles.values().next().unwrap().uploaded
        };
        assert_eq!(uploaded, 192, "three full parts uploaded eagerly");
        c.close(&ctx, fh).unwrap();
        assert_eq!(c.stat(&ctx, "/big").unwrap().size, 200);
    }

    #[test]
    fn weak_posix_surface() {
        let c = client();
        let ctx = Credentials::root();
        assert!(matches!(
            c.truncate(&ctx, "/x", 0),
            Err(FsError::Unsupported(_))
        ));
        assert!(matches!(
            c.symlink(&ctx, "/a", "/b"),
            Err(FsError::Unsupported(_))
        ));
    }
}
