//! The bucket-backed front end: one [`Vfs`] for the S3-backed
//! comparison systems, S3FS ([`crate::s3fs`]) and goofys
//! ([`crate::goofys`]), over a shared path-keyed [`Bucket`].
//!
//! Every request costs one FUSE crossing, then applies to the bucket.
//! The systems differ in their data tier, a private `Tier` set only by
//! the named constructors [`BucketFs::s3fs`] and [`BucketFs::goofys`],
//! and in the POSIX surface goofys refuses (truncate, non-sequential
//! writes).

use crate::datapath::{DataPath, RaState};
use crate::pathfs::{Bucket, BucketEntry};
use crate::s3fs::S3FS_DISK_BW;
use arkfs::prt::map_os_err;
use arkfs_objstore::{wait_last, BatchSpan, ObjectKey};
use arkfs_simkit::{BandwidthResource, ClusterSpec, Port};
use arkfs_vfs::{
    Acl, Credentials, DirEntry, FileHandle, FileType, FsError, FsResult, Ino, OpenFlags, SetAttr,
    Stat, Vfs,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a client's file data goes.
enum Tier {
    /// S3FS: every byte is staged on a slow local disk cache; a read
    /// downloads the whole object first, a write rewrites it at fsync.
    Disk(BandwidthResource),
    /// goofys: writes stream as multipart parts; reads go through a
    /// cache with a read-ahead window, sized to hold one window.
    Stream(DataPath),
}

struct Handle {
    path: String,
    ino: Ino,
    size: u64,
    /// S3FS: the whole object, once loaded. goofys: written bytes past
    /// the last streamed part.
    buf: Vec<u8>,
    /// S3FS: `buf` holds the object.
    loaded: bool,
    /// Written since the last fsync.
    dirty: bool,
    /// goofys: the next part to stream.
    next_part: u64,
    ra: RaState,
}

impl Handle {
    fn new(path: &str, ino: Ino, size: u64) -> Self {
        Handle {
            path: path.to_string(),
            ino,
            size,
            buf: Vec::new(),
            loaded: false,
            dirty: false,
            next_part: 0,
            ra: RaState::default(),
        }
    }
}

/// One client (its own FUSE daemon and data tier) of a shared bucket.
pub struct BucketFs {
    bucket: Arc<Bucket>,
    spec: ClusterSpec,
    port: Port,
    tier: Tier,
    handles: Mutex<BTreeMap<u64, Handle>>,
    next_handle: AtomicU64,
}

impl BucketFs {
    /// An S3FS client with its own disk cache of [`S3FS_DISK_BW`].
    pub fn s3fs(bucket: Arc<Bucket>, spec: ClusterSpec) -> Arc<Self> {
        let disk = BandwidthResource::new("s3fs-disk", S3FS_DISK_BW);
        Self::mount(bucket, spec, Tier::Disk(disk))
    }

    /// A goofys client reading ahead up to `readahead` bytes (the
    /// figures use [`crate::goofys::GOOFYS_READAHEAD`]).
    pub fn goofys(bucket: Arc<Bucket>, spec: ClusterSpec, readahead: u64) -> Arc<Self> {
        let part = bucket.part_size;
        let readahead = readahead.min(part * 1024);
        let entries = ((readahead / part) as usize + 8).max(16);
        let data = DataPath::new(Arc::clone(bucket.store()), part, readahead, entries);
        Self::mount(bucket, spec, Tier::Stream(data))
    }

    fn mount(bucket: Arc<Bucket>, spec: ClusterSpec, tier: Tier) -> Arc<Self> {
        Arc::new(BucketFs {
            bucket,
            spec,
            port: Port::new(),
            tier,
            handles: Mutex::new(BTreeMap::new()),
            next_handle: AtomicU64::new(1),
        })
    }

    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Drop the read cache (fio drop-caches step): goofys' holds only
    /// clean chunks; S3FS stages only open files.
    pub fn drop_data_cache(&self) -> FsResult<()> {
        match &self.tier {
            Tier::Stream(data) => data.drop_cache(&self.port),
            Tier::Disk(_) => Ok(()),
        }
    }

    /// The bucket store's telemetry, if the backend exposes one.
    pub fn telemetry(&self) -> Option<Arc<arkfs_telemetry::Telemetry>> {
        self.bucket.store().telemetry().cloned()
    }

    fn fuse(&self) {
        self.port.advance(self.spec.fuse_op_cost);
    }

    fn disk_io(&self, disk: &BandwidthResource, bytes: u64) {
        let done = disk.transfer(self.port.now(), bytes);
        self.port.wait_until(done);
    }

    /// Refuse an operation, naming the system in the error.
    fn refuse<T>(&self, s3fs: &'static str, goofys: &'static str) -> FsResult<T> {
        Err(FsError::Unsupported(match self.tier {
            Tier::Disk(_) => s3fs,
            Tier::Stream(_) => goofys,
        }))
    }

    fn make_stat(entry: &BucketEntry) -> Stat {
        Stat {
            ino: entry.ino,
            ftype: if entry.is_dir {
                FileType::Directory
            } else {
                FileType::Regular
            },
            // Both fake liberal modes; permission checks are "not done
            // rigorously".
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

    fn insert_handle(&self, handle: Handle) -> FileHandle {
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        self.handles.lock().insert(id, handle);
        FileHandle(id)
    }

    /// S3FS: pull the whole object into the disk cache on first touch.
    fn ensure_loaded(&self, disk: &BandwidthResource, fh: FileHandle) -> FsResult<()> {
        let (ino, size, loaded) = {
            let handles = self.handles.lock();
            let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
            (h.ino, h.size, h.loaded)
        };
        if loaded {
            return Ok(());
        }
        let data = self.bucket.download(&self.port, ino, size)?;
        self.disk_io(disk, size); // staging write to the disk cache
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
        h.buf = data;
        h.loaded = true;
        Ok(())
    }

    /// goofys: upload the full parts accumulated in the streaming
    /// buffer, and with `finalize` the partial last one too.
    fn stream_parts(&self, fh: FileHandle, finalize: bool) -> FsResult<()> {
        let part_size = self.bucket.part_size as usize;
        let puts: Vec<(ObjectKey, Bytes)> = {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            let mut puts = Vec::new();
            while h.buf.len() >= part_size || (finalize && !h.buf.is_empty()) {
                let n = part_size.min(h.buf.len());
                let part: Vec<u8> = h.buf.drain(..n).collect();
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
        let store = &**self.bucket.store();
        for r in wait_last(store, &self.port, BatchSpan::Put, |t| {
            store.put_each(t, puts)
        }) {
            r.map_err(map_os_err)?;
        }
        Ok(())
    }
}

impl Vfs for BucketFs {
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
        Ok(self.insert_handle(Handle {
            loaded: true,
            ..Handle::new(path, entry.ino, 0)
        }))
    }

    fn open(&self, _ctx: &Credentials, path: &str, flags: OpenFlags) -> FsResult<FileHandle> {
        self.fuse();
        let entry = self.bucket.stat(&self.port, path)?;
        if entry.is_dir {
            return Err(FsError::IsADirectory);
        }
        let trunc = flags.is_trunc() && flags.writable();
        // S3FS rewrites a truncated object at fsync; goofys drops its
        // parts now.
        let staged = match self.tier {
            Tier::Disk(_) => trunc,
            Tier::Stream(_) => {
                if trunc {
                    self.bucket.delete_data(&self.port, entry.ino, entry.size)?;
                    self.bucket.set_size(path, 0, self.port.now())?;
                }
                false
            }
        };
        let size = if trunc { 0 } else { entry.size };
        Ok(self.insert_handle(Handle {
            loaded: staged,
            dirty: staged,
            ..Handle::new(path, entry.ino, size)
        }))
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
        match &self.tier {
            Tier::Disk(disk) => {
                self.ensure_loaded(disk, fh)?;
                let handles = self.handles.lock();
                let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
                if offset >= h.buf.len() as u64 {
                    return Ok(0);
                }
                let n = buf.len().min(h.buf.len() - offset as usize);
                buf[..n].copy_from_slice(&h.buf[offset as usize..offset as usize + n]);
                drop(handles);
                self.disk_io(disk, n as u64); // served from the disk cache
                Ok(n)
            }
            Tier::Stream(data) => {
                let (ino, size, mut ra) = {
                    let handles = self.handles.lock();
                    let h = handles.get(&fh.0).ok_or(FsError::BadHandle)?;
                    (h.ino, h.size, h.ra)
                };
                let n = data.read(&self.port, ino, offset, buf, size, &mut ra)?;
                if let Some(h) = self.handles.lock().get_mut(&fh.0) {
                    h.ra = ra;
                }
                Ok(n)
            }
        }
    }

    fn write(
        &self,
        _ctx: &Credentials,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.fuse();
        match &self.tier {
            Tier::Disk(disk) => {
                self.ensure_loaded(disk, fh)?;
                self.disk_io(disk, data.len() as u64); // staged on disk
                let mut handles = self.handles.lock();
                let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
                let end = offset as usize + data.len();
                if h.buf.len() < end {
                    h.buf.resize(end, 0);
                }
                h.buf[offset as usize..end].copy_from_slice(data);
                h.size = h.size.max(end as u64);
                h.dirty = true;
            }
            Tier::Stream(_) => {
                {
                    let mut handles = self.handles.lock();
                    let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
                    // Real goofys only supports sequential writes to new
                    // objects.
                    if offset != h.size {
                        return Err(FsError::Unsupported("goofys non-sequential write"));
                    }
                    h.buf.extend_from_slice(data);
                    h.size += data.len() as u64;
                    h.dirty = true;
                }
                self.stream_parts(fh, false)?;
            }
        }
        Ok(data.len())
    }

    fn fsync(&self, _ctx: &Credentials, fh: FileHandle) -> FsResult<()> {
        if let Tier::Stream(_) = self.tier {
            self.stream_parts(fh, true)?;
        }
        let (ino, size, path, data) = {
            let mut handles = self.handles.lock();
            let h = handles.get_mut(&fh.0).ok_or(FsError::BadHandle)?;
            if !std::mem::take(&mut h.dirty) {
                return Ok(());
            }
            let data = match self.tier {
                Tier::Disk(_) => h.buf.clone(),
                Tier::Stream(_) => Vec::new(),
            };
            (h.ino, h.size, h.path.clone(), data)
        };
        if let Tier::Disk(disk) = &self.tier {
            // Read back from the disk cache, then upload the whole object.
            self.disk_io(disk, size);
            self.bucket.upload(&self.port, ino, &data)?;
        }
        self.bucket.set_size(&path, size, self.port.now())
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
        if let Tier::Stream(data) = &self.tier {
            data.forget(entry.ino);
        }
        Ok(())
    }

    fn rename(&self, _ctx: &Credentials, from: &str, to: &str) -> FsResult<()> {
        self.fuse();
        self.bucket.rename(&self.port, from, to, self.port.now())?;
        Ok(())
    }

    fn truncate(&self, _ctx: &Credentials, path: &str, size: u64) -> FsResult<()> {
        if let Tier::Stream(_) = self.tier {
            return Err(FsError::Unsupported("goofys truncate"));
        }
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
            let part = self.bucket.part_size;
            let dead: Vec<ObjectKey> = (size.div_ceil(part)..entry.size.div_ceil(part))
                .map(|i| ObjectKey::data_chunk(entry.ino, i))
                .collect();
            if !dead.is_empty() {
                let store = &**self.bucket.store();
                wait_last(store, &self.port, BatchSpan::Delete, |t| {
                    store.delete_each(t, &dead)
                });
            }
        }
        self.bucket.set_size(path, size, self.port.now())
    }

    fn setattr(&self, _ctx: &Credentials, path: &str, attr: &SetAttr) -> FsResult<Stat> {
        self.fuse();
        // Attrs are object metadata; modes are not enforced.
        let entry = self.bucket.stat(&self.port, path)?;
        let mut st = Self::make_stat(&entry);
        if let Some(mode) = attr.mode {
            st.mode = mode;
        }
        Ok(st)
    }

    fn symlink(&self, _ctx: &Credentials, _path: &str, _target: &str) -> FsResult<Stat> {
        self.refuse("s3fs symlink", "goofys symlink")
    }

    fn readlink(&self, _ctx: &Credentials, _path: &str) -> FsResult<String> {
        self.refuse("s3fs readlink", "goofys readlink")
    }

    fn set_acl(&self, _ctx: &Credentials, _path: &str, _acl: &Acl) -> FsResult<()> {
        self.refuse("s3fs acl", "goofys acl")
    }

    fn get_acl(&self, _ctx: &Credentials, path: &str) -> FsResult<Acl> {
        self.bucket.lookup(path)?;
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
