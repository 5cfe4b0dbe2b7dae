//! Data-cache interaction: read-ahead policy, write-back, and the
//! cached read/write paths (§III-D).
//!
//! All data I/O funnels through here: reads go through
//! [`cached_read`] (streams fill the [`DataCache`], read-ahead window
//! included, with pipelined multi-GETs; random reads fetch their range
//! past it), writes land dirty in the cache (or go direct after a
//! lease conflict) and dirty evictions flush as batched multi-PUTs.
//!
//! The data cache is a rank-*Leaf* lock (see [`super::lockorder`]):
//! every acquisition here is scoped to one cache pass and released
//! before any store round-trip is awaited.
//!
//! [`DataCache`]: crate::cache::DataCache

use super::filetable::Held;
use super::ArkClient;
use crate::cache::{cached_read, fetch_fills, write_back, Evicted, ReadPolicy};
use arkfs_telemetry::PID_CLIENT;
use arkfs_vfs::{FileHandle, FsError, FsResult, Ino};

impl ArkClient {
    /// Write back this client's dirty chunks of one file.
    pub(crate) fn flush_file_data(&self, file: Ino) -> FsResult<()> {
        let dirty = self.state.lock_cache().take_dirty(file);
        self.write_back(dirty)
    }

    /// Write back dirty chunks the cache evicted or a flush took.
    pub(crate) fn write_back(&self, chunks: Vec<Evicted>) -> FsResult<()> {
        write_back(&**self.prt().store(), &self.port, chunks)
    }

    /// The body of [`Vfs::read`]: direct mode, or [`cached_read`] under
    /// the read lease the handle's first read takes.
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
        // The handle's first data access takes the read lease, before
        // any cache hit or fill.
        let lease = match lease {
            Held::None => self.take_file_lease(fh.0, parent, ino, false)?,
            held => held,
        };
        let n = if lease == Held::Direct {
            let n = self.prt().read_data(&self.port, ino, offset, buf, size)?;
            ra.last_pos = offset + n as u64;
            n
        } else {
            let config = self.config();
            let policy = ReadPolicy {
                chunk_size: config.chunk_size,
                max_readahead: config.max_readahead,
                full_at_zero: config.readahead_full_at_zero,
                net_half_rtt: config.spec.net_half_rtt,
            };
            let (n, fetch) = cached_read(
                &**self.prt().store(),
                &self.port,
                || self.state.lock_cache(),
                ino,
                offset,
                buf,
                size,
                &mut ra,
                &policy,
            )?;
            let tracer = &self.state.telemetry.tracer;
            if let (Some(f), true) = (fetch, tracer.enabled()) {
                tracer.record(PID_CLIENT, self.state.id.0, f.name, "cache", f.start, f.end);
            }
            self.port.advance(config.spec.local_meta_op);
            n
        };
        let _ = self.state.files.update(fh.0, |h| h.ra = ra);
        Ok(n)
    }

    /// The body of [`Vfs::write`]: write-back caching under the write
    /// lease the handle's first write takes, or direct PUTs after a
    /// conflict.
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
            let chunk_size = self.config().chunk_size;
            // Partial overwrites of store-resident chunks need the old
            // bytes in cache first (read-modify in cache): every missing
            // one comes in a single pipelined multi-GET. Then one cache
            // pass for the whole span; dirty evictions from the entire
            // call flush as a single write-back batch.
            let (state, len) = (&self.state, data.len());
            let need_fill = state
                .lock_cache()
                .rmw_chunks(ino, chunk_size, size, offset, len);
            let fills = fetch_fills(&**self.prt().store(), &self.port, ino, &need_fill)?;
            let evicted = state
                .lock_cache()
                .write_many(ino, chunk_size, offset, data, fills);
            self.write_back(evicted)?;
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
