//! Shared chunked, cached data path for the baseline file systems: a
//! page-cache-like write-back cache with CephFS-style read-ahead over
//! chunked data objects. (ArkFS has its own variant wired into its file
//! leases; the baselines share this one.)

use arkfs::cache::{
    cached_read, fetch_fills, registry_counters, write_back, DataCache, Evicted, ReadPolicy,
};
use arkfs::prt::truncate_chunks;
use arkfs_objstore::ObjectStore;
use arkfs_simkit::{Nanos, Port};
use arkfs_vfs::{FsResult, Ino};
use parking_lot::Mutex;
use std::sync::Arc;

pub use arkfs::cache::RaState;

/// Chunked cached file I/O over an object store.
pub struct DataPath {
    store: Arc<dyn ObjectStore>,
    pub policy: ReadPolicy,
}

impl DataPath {
    pub fn new(
        store: Arc<dyn ObjectStore>,
        chunk_size: u64,
        max_readahead: u64,
        net_half_rtt: Nanos,
    ) -> Self {
        assert!(chunk_size > 0);
        let policy = ReadPolicy {
            chunk_size,
            max_readahead,
            full_at_zero: true,
            net_half_rtt,
        };
        DataPath { store, policy }
    }

    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }
}

/// A [`DataCache`] wired to the store's `cache.*.count` registry
/// counters, so baselines report cache behaviour through the same
/// telemetry names as ArkFS clients.
pub(crate) fn counted_cache(store: &Arc<dyn ObjectStore>, entries: usize) -> DataCache {
    let mut cache = DataCache::new(entries);
    if let Some(t) = store.telemetry() {
        cache.attach_counters(registry_counters(&t.registry));
    }
    cache
}

impl DataPath {
    fn write_back(&self, port: &Port, chunks: Vec<Evicted>) -> FsResult<()> {
        write_back(&*self.store, port, chunks)
    }

    /// Cached read with read-ahead; updates `ra` for sequentiality.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        port: &Port,
        cache: &Mutex<DataCache>,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
        size: u64,
        ra: &mut RaState,
    ) -> FsResult<usize> {
        let (store, lock) = (&*self.store, || cache.lock());
        cached_read(store, port, lock, ino, offset, buf, size, ra, &self.policy).map(|(n, _)| n)
    }

    /// Write-back cached write. `size_before` is the pre-write file size
    /// (for read-modify detection on partial chunk overwrites).
    pub fn write(
        &self,
        port: &Port,
        cache: &Mutex<DataCache>,
        ino: Ino,
        offset: u64,
        data: &[u8],
        size_before: u64,
    ) -> FsResult<()> {
        // Fetch every read-modify-write fill in one pipelined multi-GET,
        // apply the whole span in one cache pass, and flush all evictions
        // as a single write-back batch.
        let cs = self.policy.chunk_size;
        let need_fill = cache
            .lock()
            .rmw_chunks(ino, cs, size_before, offset, data.len());
        let fills = fetch_fills(&*self.store, port, ino, &need_fill)?;
        let evicted = cache.lock().write_many(ino, cs, offset, data, fills);
        self.write_back(port, evicted)
    }

    /// Flush one file's dirty chunks to the store.
    pub fn flush(&self, port: &Port, cache: &Mutex<DataCache>, ino: Ino) -> FsResult<()> {
        let dirty = cache.lock().take_dirty(ino);
        self.write_back(port, dirty)
    }

    /// Flush everything (global sync).
    pub fn flush_all(&self, port: &Port, cache: &Mutex<DataCache>) -> FsResult<()> {
        let dirty = cache.lock().take_all_dirty();
        self.write_back(port, dirty)
    }

    /// Truncate the data objects of a file from `old_size` down to
    /// `new_size`: drop trailing chunks and trim the boundary chunk.
    pub fn truncate(
        &self,
        port: &Port,
        cache: &Mutex<DataCache>,
        ino: Ino,
        old_size: u64,
        new_size: u64,
    ) -> FsResult<()> {
        if new_size >= old_size {
            return Ok(());
        }
        self.flush(port, cache, ino)?;
        cache.lock().invalidate_file(ino);
        truncate_chunks(
            &*self.store,
            self.policy.chunk_size,
            port,
            ino,
            old_size,
            new_size,
        )
    }

    /// Drop cached chunks and delete the data objects of a file.
    pub fn delete(
        &self,
        port: &Port,
        cache: &Mutex<DataCache>,
        ino: Ino,
        size: u64,
    ) -> FsResult<()> {
        cache.lock().invalidate_file(ino);
        truncate_chunks(&*self.store, self.policy.chunk_size, port, ino, size, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectKey};

    fn setup() -> (DataPath, Mutex<DataCache>, Port) {
        let store: Arc<dyn ObjectStore> = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        (
            DataPath::new(store, 64, 256, 1_000),
            Mutex::new(DataCache::new(8)),
            Port::new(),
        )
    }

    #[test]
    fn write_flush_read_roundtrip() {
        let (dp, cache, port) = setup();
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        dp.write(&port, &cache, 7, 0, &payload, 0).unwrap();
        dp.flush(&port, &cache, 7).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 300];
        let n = dp
            .read(&port, &cache, 7, 0, &mut buf, 300, &mut ra)
            .unwrap();
        assert_eq!(n, 300);
        assert_eq!(buf, payload);
    }

    #[test]
    fn readahead_window_grows_and_resets() {
        let (dp, cache, port) = setup();
        let payload = vec![3u8; 1024];
        dp.write(&port, &cache, 7, 0, &payload, 0).unwrap();
        dp.flush(&port, &cache, 7).unwrap();
        cache.lock().invalidate_file(7);
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 64];
        dp.read(&port, &cache, 7, 0, &mut buf, 1024, &mut ra)
            .unwrap();
        assert_eq!(ra.window, 256, "offset 0 jumps to max window");
        // Random access resets the window.
        dp.read(&port, &cache, 7, 512, &mut buf, 1024, &mut ra)
            .unwrap();
        assert_eq!(ra.window, 0);
        // Sequential access doubles it.
        dp.read(&port, &cache, 7, 576, &mut buf, 1024, &mut ra)
            .unwrap();
        assert_eq!(ra.window, 128);
        dp.read(&port, &cache, 7, 640, &mut buf, 1024, &mut ra)
            .unwrap();
        assert_eq!(ra.window, 256);
    }

    #[test]
    fn partial_overwrite_preserves_surroundings() {
        let (dp, cache, port) = setup();
        dp.write(&port, &cache, 7, 0, &[1u8; 128], 0).unwrap();
        dp.flush(&port, &cache, 7).unwrap();
        cache.lock().invalidate_file(7);
        // Overwrite 10 bytes in the middle of chunk 0 (needs RMW).
        dp.write(&port, &cache, 7, 20, &[9u8; 10], 128).unwrap();
        dp.flush(&port, &cache, 7).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 128];
        cache.lock().invalidate_file(7);
        dp.read(&port, &cache, 7, 0, &mut buf, 128, &mut ra)
            .unwrap();
        assert!(buf[..20].iter().all(|&b| b == 1));
        assert!(buf[20..30].iter().all(|&b| b == 9));
        assert!(buf[30..].iter().all(|&b| b == 1));
    }

    #[test]
    fn delete_removes_objects_and_cache() {
        let (dp, cache, port) = setup();
        dp.write(&port, &cache, 7, 0, &[1u8; 200], 0).unwrap();
        dp.flush(&port, &cache, 7).unwrap();
        dp.delete(&port, &cache, 7, 200).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![5u8; 64];
        dp.read(&port, &cache, 7, 0, &mut buf, 200, &mut ra)
            .unwrap();
        assert!(buf.iter().all(|&b| b == 0), "deleted data reads as zeros");
    }

    #[test]
    fn flush_all_covers_multiple_files() {
        let (dp, cache, port) = setup();
        dp.write(&port, &cache, 1, 0, b"one", 0).unwrap();
        dp.write(&port, &cache, 2, 0, b"two", 0).unwrap();
        dp.flush_all(&port, &cache).unwrap();
        assert_eq!(cache.lock().dirty_count(), 0);
        let head = dp.store().head(&port, ObjectKey::data_chunk(1, 0)).unwrap();
        assert_eq!(head, 3);
    }
}
