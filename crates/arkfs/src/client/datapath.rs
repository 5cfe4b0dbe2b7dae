//! Data-cache interaction: read-ahead policy, write-behind, and the
//! cached read/write paths (§III-D).
//!
//! All data I/O funnels through here: reads go through
//! [`cached_read`] (streams fill the [`DataCache`], read-ahead window
//! included, with pipelined multi-GETs; random reads fetch their range
//! past it), writes through [`cached_write`] (dirty in the cache, or
//! direct after a lease conflict; dirty evictions go behind the writer),
//! a closed file's dirty chunks go behind the closer through
//! [`put_behind`], every other hand-off of a file's bytes goes through
//! [`flush`], and a removed file's chunks go through [`purge`].
//!
//! The data cache is a rank-*Leaf* lock (see [`super::lockorder`]):
//! every acquisition here is scoped to one cache pass and released
//! before any store round-trip is awaited.
//!
//! [`DataCache`]: crate::cache::DataCache

use super::filetable::Held;
use super::ArkClient;
use crate::cache::{cached_read, cached_write, flush, purge, put_behind, CachePolicy, FetchSpan};
use arkfs_simkit::Nanos;
use arkfs_telemetry::PID_CLIENT;
use arkfs_vfs::{FileHandle, FsError, FsResult, Ino};

impl ArkClient {
    /// Write back this client's dirty chunks of one file (of every file
    /// with `None`), once the PUTs behind its writes are acked.
    pub(crate) fn flush_file_data(&self, file: Option<Ino>) -> FsResult<()> {
        flush(
            &**self.prt().store(),
            &self.port,
            self.state.lock_cache(),
            file,
        )
    }

    /// Send this client's dirty chunks of `ino` behind it ([`put_behind`])
    /// and return when the last request in flight for the file is acked
    /// (0 if none is): nothing that hands the file on departs earlier.
    pub(crate) fn put_file_behind(&self, ino: Ino) -> FsResult<Nanos> {
        let store = &**self.prt().store();
        let cache = self.state.lock_cache();
        let (acked, wait) = put_behind(store, &self.port, cache, ino)?;
        self.trace_fetch(wait);
        Ok(acked)
    }

    /// Reclaim the data of a removed file of `size` bytes (as its leader
    /// knew it; a handle of ours may have written further): its cached
    /// chunks go, and its chunk DELETEs go behind this client
    /// ([`purge`]); `sync_all` waits for their acks.
    pub(crate) fn purge_file_data(&self, ino: Ino, size: u64) -> FsResult<()> {
        let store = &**self.prt().store();
        let size = size.max(self.state.files.forget_removed(ino));
        let chunks = size.div_ceil(self.config().chunk_size);
        let cache = self.state.lock_cache();
        let wait = purge(store, &self.port, cache, ino, chunks)?;
        self.trace_fetch(wait);
        Ok(())
    }

    fn cache_policy(&self) -> CachePolicy {
        let config = self.config();
        CachePolicy {
            chunk_size: config.chunk_size,
            max_readahead: config.max_readahead,
            full_at_zero: config.readahead_full_at_zero,
        }
    }

    /// Record a store wait of the cached data path on this client's
    /// track when tracing.
    fn trace_fetch(&self, fetch: Option<FetchSpan>) {
        let tracer = &self.state.telemetry.tracer;
        if let (Some(f), true) = (fetch, tracer.enabled()) {
            tracer.record(PID_CLIENT, self.state.id.0, f.name, "cache", f.start, f.end);
        }
    }

    /// The body of [`Vfs::read`]: direct mode, or [`cached_read`] under
    /// the read lease the handle's open or first read took.
    ///
    /// [`Vfs::read`]: arkfs_vfs::Vfs::read
    pub(crate) fn read_impl(&self, fh: FileHandle, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fuse_charge(1);
        let (ino, parent, flags, size, lease, mut ra) = self
            .state
            .files
            .get(fh.0, |h| (h.ino, h.parent, h.flags, h.size, h.lease, h.ra))
            .ok_or(FsError::BadHandle)?;
        if !flags.readable() {
            return Err(FsError::BadAccessMode);
        }
        if buf.is_empty() || offset >= size {
            return Ok(0);
        }
        // A handle whose open brought no read lease takes it at its
        // first read, before any cache hit or fill.
        let lease = match lease {
            Held::None => self.take_file_lease(fh.0, parent, ino, false)?,
            held => held,
        };
        let n = if lease == Held::Direct {
            let n = self.prt().read_data(&self.port, ino, offset, buf, size)?;
            ra.last_pos = offset + n as u64;
            n
        } else {
            let (n, fetch) = cached_read(
                &**self.prt().store(),
                &self.port,
                || self.state.lock_cache(),
                ino,
                offset,
                buf,
                size,
                &mut ra,
                &self.cache_policy(),
            )?;
            self.trace_fetch(fetch);
            self.port.advance(self.config().spec.local_meta_op);
            n
        };
        let _ = self.state.files.update(fh.0, |h| h.ra = ra);
        Ok(n)
    }

    /// The body of [`Vfs::write`]: [`cached_write`] under the write lease
    /// the handle's first write takes, or direct PUTs after a conflict.
    ///
    /// [`Vfs::write`]: arkfs_vfs::Vfs::write
    pub(crate) fn write_impl(&self, fh: FileHandle, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.fuse_charge(1);
        let (ino, parent, flags, size, lease) = self
            .state
            .files
            .get(fh.0, |h| (h.ino, h.parent, h.flags, h.size, h.lease))
            .ok_or(FsError::BadHandle)?;
        if !flags.writable() {
            return Err(FsError::BadAccessMode);
        }
        if data.is_empty() {
            return Ok(0);
        }
        let offset = if flags.is_append() { size } else { offset };

        // The first write takes the write lease — directly, or as the
        // upgrade of a read lease earlier reads took (§III-D).
        let lease = match lease {
            Held::None | Held::Read => self.take_file_lease(fh.0, parent, ino, true)?,
            held => held,
        };

        if lease == Held::Write {
            let fetch = cached_write(
                &**self.prt().store(),
                &self.port,
                || self.state.lock_cache(),
                ino,
                offset,
                data,
                size,
                &self.cache_policy(),
            )?;
            self.trace_fetch(fetch);
            self.port.advance(self.config().spec.local_meta_op);
        } else {
            self.prt().write_data(&self.port, ino, offset, data)?;
        }
        let _ = self.state.files.update(fh.0, |h| {
            h.size = h.size.max(offset + data.len() as u64);
            h.wrote = true;
        });
        Ok(data.len())
    }
}
