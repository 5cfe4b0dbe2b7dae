//! Data-cache interaction: read-ahead policy, write-back, and the
//! cached read/write paths (§III-D).
//!
//! All data I/O funnels through here: reads fill the [`DataCache`]
//! (including the asynchronous read-ahead window) with pipelined
//! multi-GETs, writes land dirty in the cache (or go direct after a
//! lease conflict) and dirty evictions flush as batched multi-PUTs.
//!
//! The data cache is a rank-*Leaf* lock (see [`super::lockorder`]):
//! every acquisition here is scoped to one cache pass and released
//! before any store round-trip is awaited.
//!
//! [`DataCache`]: crate::cache::DataCache

use super::filetable::Held;
use super::ArkClient;
use crate::cache::{fetch_fills, write_back, Evicted};
use crate::prt::chunk_spans;
use arkfs_objstore::ObjectKey;
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

    /// Fetch the chunks needed for a cached read, including the
    /// read-ahead window, in one pipelined multi-GET.
    fn fill_cache_for_read(
        &self,
        ino: Ino,
        offset: u64,
        want: usize,
        ra_window: u64,
        size: u64,
    ) -> FsResult<()> {
        let chunk_size = self.config().chunk_size;
        let first = offset / chunk_size;
        let read_end = (offset + want as u64).min(size);
        let ra_end = read_end.saturating_add(ra_window).min(size);
        let last = ra_end.div_ceil(chunk_size).max(first + 1);
        let missing: Vec<u64> = {
            let cache = self.state.lock_cache();
            (first..last).filter(|&c| !cache.contains(ino, c)).collect()
        };
        if missing.is_empty() {
            return Ok(());
        }
        let miss_start = self.port.now();
        // Chunks the request itself touches are fetched synchronously;
        // everything further out is the read-ahead window, fetched
        // *asynchronously* ("the file data belonging to the window is
        // asynchronously read in advance", §III-D): it still loads the
        // store, but the application only waits if it touches a chunk
        // before its completion.
        let last_needed = (offset + want as u64 - 1) / chunk_size;
        let keys: Vec<ObjectKey> = missing
            .iter()
            .map(|&c| ObjectKey::data_chunk(ino, c))
            .collect();
        let depart = self.port.now() + self.config().spec.net_half_rtt;
        let results = self.prt().store().get_each(depart, &keys);
        let (needed_done, evicted) = self.state.lock_cache().fill(
            ino,
            missing.iter().copied().zip(results),
            chunk_size,
            size,
            last_needed,
            depart,
        )?;
        self.port.wait_until(needed_done);
        let tracer = &self.state.telemetry.tracer;
        if tracer.enabled() {
            tracer.record(
                PID_CLIENT,
                self.state.id.0,
                "cache.miss",
                "cache",
                miss_start,
                self.port.now(),
            );
        }
        self.write_back(evicted)
    }

    /// The body of [`Vfs::read`]: direct mode or cache-with-read-ahead.
    ///
    /// [`Vfs::read`]: arkfs_vfs::Vfs::read
    pub(crate) fn read_impl(&self, fh: FileHandle, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fuse_charge(1);
        let (ino, parent, flags, size, lease) =
            self.state.files.view(fh.0).ok_or(FsError::BadHandle)?;
        if !flags.readable() {
            return Err(FsError::BadAccessMode);
        }
        if buf.is_empty() || offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        // The handle's first data access takes the read lease, before
        // any cache hit or fill.
        let lease = match lease {
            Held::None => self.take_file_lease(fh.0, parent, ino, false)?,
            held => held,
        };
        if lease == Held::Direct {
            let n = self
                .prt()
                .read_data(&self.port, ino, offset, &mut buf[..want], size)?;
            let _ = self.state.files.update(fh.0, |h| {
                h.last_pos = offset + n as u64;
            });
            return Ok(n);
        }

        // Read-ahead window update (§III-D): double on sequential access,
        // jump to max when the read starts at offset 0.
        let config = self.config();
        let ra_window = self
            .state
            .files
            .update(fh.0, |h| {
                if offset == 0 && config.readahead_full_at_zero {
                    h.ra_window = config.max_readahead;
                } else if offset == h.last_pos && offset != 0 {
                    h.ra_window =
                        (h.ra_window.max(config.chunk_size) * 2).min(config.max_readahead);
                } else if offset != h.last_pos {
                    h.ra_window = 0;
                }
                h.ra_window
            })
            .ok_or(FsError::BadHandle)?;
        self.fill_cache_for_read(ino, offset, want, ra_window, size)?;

        // Copy out of the cache; a chunk evicted between fill and copy is
        // re-read straight from the store.
        for (chunk, within, span) in chunk_spans(config.chunk_size, offset, want) {
            let (pos, out) = (offset + span.start as u64, &mut buf[span]);
            let hit = self.state.lock_cache().read_into(ino, chunk, within, out);
            match hit {
                // A chunk whose asynchronous prefetch has not completed
                // yet: wait for it.
                Some(ready_at) => {
                    self.port.wait_until(ready_at);
                }
                None => {
                    self.prt().read_data(&self.port, ino, pos, out, size)?;
                }
            }
        }
        self.port.advance(config.spec.local_meta_op);
        let _ = self.state.files.update(fh.0, |h| {
            h.last_pos = offset + want as u64;
        });
        Ok(want)
    }

    /// The body of [`Vfs::write`]: write-back caching under the write
    /// lease the handle's first write takes, or direct PUTs after a
    /// conflict.
    ///
    /// [`Vfs::write`]: arkfs_vfs::Vfs::write
    pub(crate) fn write_impl(&self, fh: FileHandle, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.fuse_charge(1);
        let (ino, parent, flags, size, lease) =
            self.state.files.view(fh.0).ok_or(FsError::BadHandle)?;
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
