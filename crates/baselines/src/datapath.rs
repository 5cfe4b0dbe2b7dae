//! Shared chunked, cached data path for the baseline file systems: a
//! page-cache-like write-back cache with CephFS-style read-ahead over
//! chunked data objects: the cached read and write paths of ArkFS
//! clients (`arkfs::cache`), without ArkFS's file leases.

use arkfs::cache::{
    cached_read, cached_write, flush, purge, registry_counters, CachePolicy, DataCache,
};
use arkfs::prt::truncate_chunks;
use arkfs_objstore::ObjectStore;
use arkfs_simkit::Port;
use arkfs_vfs::{FsResult, Ino};
use parking_lot::Mutex;
use std::sync::Arc;

pub use arkfs::cache::RaState;

/// Chunked cached file I/O over an object store: one client's cache and
/// the policy it reads ahead and writes back by.
pub struct DataPath {
    store: Arc<dyn ObjectStore>,
    policy: CachePolicy,
    cache: Mutex<DataCache>,
    entries: usize,
}

/// A [`DataCache`] wired to the store's `cache.*.count` registry
/// counters, so baselines report cache behaviour through the same
/// telemetry names as ArkFS clients.
fn counted_cache(store: &Arc<dyn ObjectStore>, entries: usize) -> DataCache {
    let mut cache = DataCache::new(entries);
    if let Some(t) = store.telemetry() {
        cache.attach_counters(registry_counters(&t.registry));
    }
    cache
}

impl DataPath {
    /// A path over `store` caching up to `entries` chunks.
    pub fn new(
        store: Arc<dyn ObjectStore>,
        chunk_size: u64,
        max_readahead: u64,
        entries: usize,
    ) -> Self {
        assert!(chunk_size > 0);
        let policy = CachePolicy {
            chunk_size,
            max_readahead,
            full_at_zero: true,
        };
        let cache = Mutex::new(counted_cache(&store, entries));
        DataPath {
            store,
            policy,
            cache,
            entries,
        }
    }

    /// Flush, then drop every cached chunk (fio drop-caches step).
    pub fn drop_cache(&self, port: &Port) -> FsResult<()> {
        self.flush(port, None)?;
        *self.cache.lock() = counted_cache(&self.store, self.entries);
        Ok(())
    }

    /// Cached read with read-ahead; updates `ra` for sequentiality.
    pub fn read(
        &self,
        port: &Port,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
        size: u64,
        ra: &mut RaState,
    ) -> FsResult<usize> {
        let (store, lock) = (&*self.store, || self.cache.lock());
        cached_read(store, port, lock, ino, offset, buf, size, ra, &self.policy).map(|(n, _)| n)
    }

    /// Write-back cached write. `size_before` is the pre-write file size
    /// (for read-modify detection on partial chunk overwrites).
    pub fn write(
        &self,
        port: &Port,
        ino: Ino,
        offset: u64,
        data: &[u8],
        size_before: u64,
    ) -> FsResult<()> {
        let (store, lock) = (&*self.store, || self.cache.lock());
        let policy = &self.policy;
        cached_write(store, port, lock, ino, offset, data, size_before, policy).map(|_| ())
    }

    /// Flush one file's dirty chunks to the store, or with `None`
    /// every file's (global sync).
    pub fn flush(&self, port: &Port, ino: Option<Ino>) -> FsResult<()> {
        flush(&*self.store, port, self.cache.lock(), ino)
    }

    /// Forget a file's cached chunks without writing them.
    pub fn forget(&self, ino: Ino) {
        self.cache.lock().invalidate_file(ino);
    }

    /// Truncate the data objects of a file from `old_size` down to
    /// `new_size`: drop trailing chunks and trim the boundary chunk.
    pub fn truncate(&self, port: &Port, ino: Ino, old_size: u64, new_size: u64) -> FsResult<()> {
        if new_size >= old_size {
            return Ok(());
        }
        self.flush(port, Some(ino))?;
        self.forget(ino);
        let chunk = self.policy.chunk_size;
        truncate_chunks(&*self.store, chunk, port, ino, old_size, new_size)
    }

    /// Drop cached chunks and delete the data objects of a file behind
    /// the caller, as ArkFS clients do ([`purge`]).
    pub fn delete(&self, port: &Port, ino: Ino, size: u64) -> FsResult<()> {
        let chunks = size.div_ceil(self.policy.chunk_size);
        purge(&*self.store, port, self.cache.lock(), ino, chunks).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectKey};

    fn setup() -> (DataPath, Port) {
        let store: Arc<dyn ObjectStore> = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        (DataPath::new(store, 64, 256, 8), Port::new())
    }

    #[test]
    fn write_flush_read_roundtrip() {
        let (dp, port) = setup();
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        dp.write(&port, 7, 0, &payload, 0).unwrap();
        dp.flush(&port, Some(7)).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 300];
        let n = dp.read(&port, 7, 0, &mut buf, 300, &mut ra).unwrap();
        assert_eq!(n, 300);
        assert_eq!(buf, payload);
    }

    #[test]
    fn readahead_window_grows_and_resets() {
        let (dp, port) = setup();
        let payload = vec![3u8; 1024];
        dp.write(&port, 7, 0, &payload, 0).unwrap();
        dp.flush(&port, Some(7)).unwrap();
        dp.cache.lock().invalidate_file(7);
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 64];
        dp.read(&port, 7, 0, &mut buf, 1024, &mut ra).unwrap();
        assert_eq!(ra.window, 256, "offset 0 jumps to max window");
        // Random access resets the window.
        dp.read(&port, 7, 512, &mut buf, 1024, &mut ra).unwrap();
        assert_eq!(ra.window, 0);
        // Sequential access doubles it.
        dp.read(&port, 7, 576, &mut buf, 1024, &mut ra).unwrap();
        assert_eq!(ra.window, 128);
        dp.read(&port, 7, 640, &mut buf, 1024, &mut ra).unwrap();
        assert_eq!(ra.window, 256);
    }

    #[test]
    fn partial_overwrite_preserves_surroundings() {
        let (dp, port) = setup();
        dp.write(&port, 7, 0, &[1u8; 128], 0).unwrap();
        dp.flush(&port, Some(7)).unwrap();
        dp.cache.lock().invalidate_file(7);
        // Overwrite 10 bytes in the middle of chunk 0 (needs RMW).
        dp.write(&port, 7, 20, &[9u8; 10], 128).unwrap();
        dp.flush(&port, Some(7)).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![0u8; 128];
        dp.cache.lock().invalidate_file(7);
        dp.read(&port, 7, 0, &mut buf, 128, &mut ra).unwrap();
        assert!(buf[..20].iter().all(|&b| b == 1));
        assert!(buf[20..30].iter().all(|&b| b == 9));
        assert!(buf[30..].iter().all(|&b| b == 1));
    }

    #[test]
    fn delete_removes_objects_and_cache() {
        let (dp, port) = setup();
        dp.write(&port, 7, 0, &[1u8; 200], 0).unwrap();
        dp.flush(&port, Some(7)).unwrap();
        dp.delete(&port, 7, 200).unwrap();
        let mut ra = RaState::default();
        let mut buf = vec![5u8; 64];
        dp.read(&port, 7, 0, &mut buf, 200, &mut ra).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "deleted data reads as zeros");
    }

    #[test]
    fn flush_all_covers_multiple_files() {
        let (dp, port) = setup();
        dp.write(&port, 1, 0, b"one", 0).unwrap();
        dp.write(&port, 2, 0, b"two", 0).unwrap();
        dp.flush(&port, None).unwrap();
        assert_eq!(dp.cache.lock().dirty_count(), 0);
        let head = dp.store.head(&port, ObjectKey::data_chunk(1, 0)).unwrap();
        assert_eq!(head, 3);
    }
}
