//! The user-level data object cache (§III-D).
//!
//! "ArkFS has its own user-level data object cache that basically serves
//! the same functionality as the page cache in the kernel. The number of
//! cache entries and the size of each entry are configurable parameters.
//! By default, the cache entry size is set to 2MB. [...] the radix tree
//! is used to index cached data objects. [...] ArkFS's object cache works
//! in a write-back manner."
//!
//! One cache per client. Entries are whole data chunks, indexed by a
//! per-file [`RadixTree`] keyed on chunk index. Eviction is LRU; evicting
//! a dirty entry hands it back to the caller for write-back.

use crate::prt::{chunk_spans, map_os_err};
use crate::radix::RadixTree;
use arkfs_objstore::{ObjectKey, ObjectStore, OsError, OsResult};
use arkfs_simkit::Port;
use arkfs_telemetry::Counter;
use arkfs_vfs::{FsResult, Ino};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A dirty chunk on its way to the store: displaced by eviction, or
/// taken by a flush (the cache then keeps a clean handle on the same
/// allocation). `data` is the frozen chunk itself, not a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    pub ino: Ino,
    pub chunk: u64,
    pub data: Bytes,
}

/// Write dirty chunks back as one pipelined multi-PUT.
pub fn write_back(store: &dyn ObjectStore, port: &Port, chunks: Vec<Evicted>) -> FsResult<()> {
    if chunks.is_empty() {
        return Ok(());
    }
    let items = chunks
        .into_iter()
        .map(|e| (ObjectKey::data_chunk(e.ino, e.chunk), e.data))
        .collect();
    for r in store.put_many(port, items) {
        r.map_err(map_os_err)?;
    }
    Ok(())
}

/// Read the store contents of `chunks` (see [`DataCache::rmw_chunks`]) in
/// one pipelined multi-GET; a chunk the store does not have is left out.
pub fn fetch_fills(
    store: &dyn ObjectStore,
    port: &Port,
    ino: Ino,
    chunks: &[u64],
) -> FsResult<HashMap<u64, Bytes>> {
    let mut fills = HashMap::new();
    if chunks.is_empty() {
        return Ok(fills);
    }
    let keys: Vec<ObjectKey> = chunks
        .iter()
        .map(|&c| ObjectKey::data_chunk(ino, c))
        .collect();
    for (&chunk, result) in chunks.iter().zip(store.get_many(port, &keys)) {
        match result {
            Ok(bytes) => {
                fills.insert(chunk, bytes);
            }
            Err(OsError::NotFound) => {}
            Err(e) => return Err(map_os_err(e)),
        }
    }
    Ok(fills)
}

/// A chunk's bytes. Clean, it is the store's own buffer (what a GET
/// returned, or what a flush handed to the PUT) and immutable; the
/// first write turns it into an owned vector (one copy if anyone else
/// still holds the buffer), and a flush freezes that vector back into a
/// shared buffer without copying.
#[derive(Debug)]
enum Chunk {
    Clean(Bytes),
    Dirty(Vec<u8>),
}

impl Chunk {
    fn bytes(&self) -> &[u8] {
        match self {
            Chunk::Clean(b) => b,
            Chunk::Dirty(v) => v,
        }
    }

    fn make_mut(&mut self) -> &mut Vec<u8> {
        if let Chunk::Clean(b) = self {
            *self = Chunk::Dirty(Vec::from(std::mem::take(b)));
        }
        match self {
            Chunk::Dirty(v) => v,
            Chunk::Clean(_) => unreachable!("made dirty above"),
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    data: Chunk,
    tick: u64,
    /// Virtual time at which an asynchronously prefetched chunk becomes
    /// usable. A reader touching it earlier must wait (§III-D: the window
    /// "is asynchronously read in advance").
    ready_at: u64,
}

/// Write-back data chunk cache with LRU eviction.
#[derive(Debug)]
pub struct DataCache {
    files: HashMap<Ino, RadixTree<CacheEntry>>,
    /// Every resident entry by its (unique) last-use tick: the first is
    /// the eviction victim.
    lru: BTreeMap<u64, (Ino, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Registry counters mirrored on hit/miss when attached
    /// (`cache.hit.count` / `cache.miss.count`).
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl DataCache {
    /// `capacity` is the maximum number of chunk entries held.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        DataCache {
            files: HashMap::new(),
            lru: BTreeMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            counters: None,
        }
    }

    /// Mirror hit/miss accounting into registry counters.
    pub fn attach_counters(&mut self, hit: Arc<Counter>, miss: Arc<Counter>) {
        self.counters = Some((hit, miss));
    }

    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Advance the clock and look the entry up; if it is resident, it
    /// becomes the most recently used. Takes the fields it needs, not
    /// `self`, so a caller can count the hit while it holds the entry.
    fn touch<'a>(
        files: &'a mut HashMap<Ino, RadixTree<CacheEntry>>,
        lru: &mut BTreeMap<u64, (Ino, u64)>,
        clock: &mut u64,
        ino: Ino,
        chunk: u64,
    ) -> Option<&'a mut CacheEntry> {
        *clock += 1;
        let entry = files.get_mut(&ino)?.get_mut(chunk)?;
        lru.remove(&entry.tick);
        lru.insert(*clock, (ino, chunk));
        entry.tick = *clock;
        Some(entry)
    }

    /// Read from a cached chunk. Returns the chunk bytes if present.
    pub fn get(&mut self, ino: Ino, chunk: u64) -> Option<&[u8]> {
        self.get_ready(ino, chunk).map(|(data, _)| data)
    }

    /// Read from a cached chunk, also reporting when the chunk is ready
    /// (prefetched chunks carry their asynchronous completion time; the
    /// caller's timeline must wait until then).
    pub fn get_ready(&mut self, ino: Ino, chunk: u64) -> Option<(&[u8], u64)> {
        let (files, lru, clock) = (&mut self.files, &mut self.lru, &mut self.clock);
        let Some(entry) = Self::touch(files, lru, clock, ino, chunk) else {
            self.misses += 1;
            if let Some((_, miss)) = &self.counters {
                miss.inc();
            }
            return None;
        };
        self.hits += 1;
        if let Some((hit, _)) = &self.counters {
            hit.inc();
        }
        Some((entry.data.bytes(), entry.ready_at))
    }

    /// Copy a cached chunk's bytes from `within` on into `out`, zeros
    /// past the chunk's end. `None` on a miss, else when it is ready.
    pub fn read_into(
        &mut self,
        ino: Ino,
        chunk: u64,
        within: usize,
        out: &mut [u8],
    ) -> Option<u64> {
        let (data, ready_at) = self.get_ready(ino, chunk)?;
        let take = data.len().saturating_sub(within).min(out.len());
        out[..take].copy_from_slice(&data[within..within + take]);
        out[take..].fill(0);
        Some(ready_at)
    }

    /// True without touching LRU/ hit accounting (used by tests).
    pub fn contains(&self, ino: Ino, chunk: u64) -> bool {
        self.files.get(&ino).is_some_and(|t| t.contains(chunk))
    }

    /// Insert a chunk read from the store (clean): the cache holds the
    /// buffer it is given, it does not copy it. Returns dirty entries
    /// evicted to make room.
    pub fn insert_clean(&mut self, ino: Ino, chunk: u64, data: impl Into<Bytes>) -> Vec<Evicted> {
        self.install(ino, chunk, Chunk::Clean(data.into()), 0);
        self.evict_to_capacity()
    }

    /// Install what a read path's multi-GET returned — `(chunk, result)`
    /// pairs of a file of `size` bytes, walked in reverse so the chunk
    /// about to be read carries the freshest LRU tick and is not
    /// displaced by its own read-ahead companions. A chunk the store
    /// does not have is a hole (shared zeros), a short one gets its
    /// sparse tail padded (the one copy here); chunks up to
    /// `last_needed` are usable at once and the rest are prefetched,
    /// usable at their own completion. Returns when the needed chunks
    /// are all there, and the dirty entries evicted to make room.
    pub fn fill(
        &mut self,
        ino: Ino,
        results: impl DoubleEndedIterator<Item = (u64, OsResult<(Bytes, u64)>)>,
        chunk_size: u64,
        size: u64,
        last_needed: u64,
        depart: u64,
    ) -> FsResult<(u64, Vec<Evicted>)> {
        let (mut needed_done, mut evicted) = (0, Vec::new());
        for (chunk, result) in results.rev() {
            let logical_len = (size - chunk * chunk_size).min(chunk_size) as usize;
            let (data, completion) = match result {
                Ok((bytes, completion)) if bytes.len() < logical_len => {
                    let mut v = Vec::with_capacity(logical_len);
                    v.extend_from_slice(&bytes);
                    v.resize(logical_len, 0);
                    (Bytes::from(v), completion)
                }
                Ok(whole) => whole,
                Err(OsError::NotFound) => (arkfs_objstore::zeros(logical_len), depart),
                Err(e) => return Err(map_os_err(e)),
            };
            let needed = chunk <= last_needed;
            if needed {
                needed_done = needed_done.max(completion);
            }
            let ready_at = if needed { 0 } else { completion };
            self.install(ino, chunk, Chunk::Clean(data), ready_at);
            evicted.extend(self.evict_to_capacity());
        }
        Ok((needed_done, evicted))
    }

    /// Place an entry without running eviction.
    fn install(&mut self, ino: Ino, chunk: u64, data: Chunk, ready_at: u64) {
        self.clock += 1;
        let entry = CacheEntry {
            data,
            tick: self.clock,
            ready_at,
        };
        if let Some(old) = self.files.entry(ino).or_default().insert(chunk, entry) {
            self.lru.remove(&old.tick);
        }
        self.lru.insert(self.clock, (ino, chunk));
    }

    /// Write into a chunk at `offset`, extending it as needed, marking it
    /// dirty. A partial overwrite of store data needs the chunk resident
    /// first (callers install it with `insert_clean`). Returns evictions.
    pub fn write(&mut self, ino: Ino, chunk: u64, offset: usize, data: &[u8]) -> Vec<Evicted> {
        let end = offset + data.len();
        let (files, lru, clock) = (&mut self.files, &mut self.lru, &mut self.clock);
        match Self::touch(files, lru, clock, ino, chunk) {
            Some(entry) => {
                let buf = entry.data.make_mut();
                if buf.len() < end {
                    buf.resize(end, 0);
                }
                buf[offset..end].copy_from_slice(data);
                entry.ready_at = 0;
                Vec::new()
            }
            None => {
                let mut buf = vec![0u8; end];
                buf[offset..].copy_from_slice(data);
                self.install(ino, chunk, Chunk::Dirty(buf), 0);
                self.evict_to_capacity()
            }
        }
    }

    /// The chunks a write of `len` bytes at `offset` of a file of `size`
    /// bytes must read before it modifies them: covered only in part,
    /// resident in the store, and not cached.
    pub fn rmw_chunks(
        &self,
        ino: Ino,
        chunk_size: u64,
        size: u64,
        offset: u64,
        len: usize,
    ) -> Vec<u64> {
        chunk_spans(chunk_size, offset, len)
            .filter(|(chunk, _, span)| {
                let partial = span.len() < chunk_size as usize;
                partial && chunk * chunk_size < size && !self.contains(ino, *chunk)
            })
            .map(|(chunk, ..)| chunk)
            .collect()
    }

    /// Apply a write that may span chunks as one operation. `fills`
    /// carries the store contents of [`DataCache::rmw_chunks`], each
    /// installed (clean, the store's own buffer) immediately before the
    /// write lands on its chunk — the read-modify step of a partial
    /// overwrite — so eviction pressure can never displace a fill before
    /// its write applies; dirty evictions from the whole span accumulate
    /// into the returned batch.
    pub fn write_many(
        &mut self,
        ino: Ino,
        chunk_size: u64,
        offset: u64,
        data: &[u8],
        mut fills: HashMap<u64, Bytes>,
    ) -> Vec<Evicted> {
        let mut out = Vec::new();
        for (chunk, within, span) in chunk_spans(chunk_size, offset, data.len()) {
            if let Some(fill) = fills.remove(&chunk) {
                out.extend(self.insert_clean(ino, chunk, fill));
            }
            out.extend(self.write(ino, chunk, within, &data[span]));
        }
        out
    }

    fn evict_to_capacity(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        while self.lru.len() > self.capacity {
            let (_, (ino, chunk)) = self.lru.pop_first().expect("over capacity");
            let tree = self.files.get_mut(&ino).expect("lru names a cached file");
            let entry = tree.remove(chunk).expect("lru names a cached chunk");
            if tree.is_empty() {
                self.files.remove(&ino);
            }
            if let Chunk::Dirty(v) = entry.data {
                let data = Bytes::from(v);
                out.push(Evicted { ino, chunk, data });
            }
        }
        out
    }

    /// Take the dirty chunks of one file for write-back, in chunk order.
    /// Each is frozen, not copied: the write-back and the entry, which
    /// stays cached and is clean afterwards, share one allocation.
    pub fn take_dirty(&mut self, ino: Ino) -> Vec<Evicted> {
        let Some(tree) = self.files.get_mut(&ino) else {
            return Vec::new();
        };
        let chunks: Vec<u64> = tree.iter().map(|(k, _)| k).collect();
        let mut out = Vec::new();
        for chunk in chunks {
            let entry = tree.get_mut(chunk).expect("listed above");
            if let Chunk::Dirty(v) = &mut entry.data {
                let data = Bytes::from(std::mem::take(v));
                entry.data = Chunk::Clean(data.clone());
                out.push(Evicted { ino, chunk, data });
            }
        }
        out
    }

    /// Take every dirty chunk (global sync).
    pub fn take_all_dirty(&mut self) -> Vec<Evicted> {
        let inos: Vec<Ino> = self.files.keys().copied().collect();
        inos.into_iter()
            .flat_map(|ino| self.take_dirty(ino))
            .collect()
    }

    /// Drop every cached chunk of a file (lease revocation, delete,
    /// or the fio benchmark's cache-drop step). Dirty data is DISCARDED —
    /// flush first if it matters.
    pub fn invalidate_file(&mut self, ino: Ino) {
        self.truncate_file(ino, 0);
    }

    /// Drop cached chunks at and beyond `first_chunk` (truncate).
    pub fn truncate_file(&mut self, ino: Ino, first_chunk: u64) {
        if let Some(tree) = self.files.get_mut(&ino) {
            for (_, entry) in tree.split_off(first_chunk) {
                self.lru.remove(&entry.tick);
            }
            if tree.is_empty() {
                self.files.remove(&ino);
            }
        }
    }

    /// Number of dirty entries (diagnostics).
    pub fn dirty_count(&self) -> usize {
        self.files
            .values()
            .flat_map(|t| t.iter())
            .filter(|(_, e)| matches!(e.data, Chunk::Dirty(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};

    #[test]
    fn read_write_roundtrip() {
        let mut c = DataCache::new(4);
        assert!(c.get(1, 0).is_none());
        c.write(1, 0, 0, b"hello");
        assert_eq!(c.get(1, 0).unwrap(), b"hello");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn partial_write_extends_entry() {
        let mut c = DataCache::new(4);
        c.insert_clean(1, 0, b"abcdef".to_vec());
        c.write(1, 0, 4, b"XYZ123");
        assert_eq!(c.get(1, 0).unwrap(), b"abcdXYZ123");
        // Write into an absent chunk zero-fills the gap.
        c.write(1, 1, 3, b"q");
        assert_eq!(c.get(1, 1).unwrap(), b"\0\0\0q");
    }

    #[test]
    fn lru_evicts_oldest_clean_silently() {
        let mut c = DataCache::new(2);
        assert!(c.insert_clean(1, 0, vec![0]).is_empty());
        assert!(c.insert_clean(1, 1, vec![1]).is_empty());
        let ev = c.insert_clean(1, 2, vec![2]);
        assert!(ev.is_empty(), "clean eviction returns nothing");
        assert_eq!(c.len(), 2);
        assert!(!c.contains(1, 0), "oldest entry evicted");
    }

    #[test]
    fn lru_respects_recent_access() {
        let mut c = DataCache::new(2);
        c.insert_clean(1, 0, vec![0]);
        c.insert_clean(1, 1, vec![1]);
        c.get(1, 0); // refresh chunk 0
        c.insert_clean(1, 2, vec![2]);
        assert!(c.contains(1, 0));
        assert!(!c.contains(1, 1));
    }

    #[test]
    fn dirty_eviction_hands_back_data() {
        let mut c = DataCache::new(1);
        c.write(1, 0, 0, b"dirty");
        let ev = c.write(2, 0, 0, b"new");
        assert_eq!(
            ev,
            vec![Evicted {
                ino: 1,
                chunk: 0,
                data: Bytes::from_static(b"dirty")
            }]
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn take_dirty_cleans_but_keeps_entries() {
        let mut c = DataCache::new(8);
        c.write(1, 0, 0, b"a");
        c.write(1, 3, 0, b"b");
        c.insert_clean(1, 5, b"c".to_vec());
        c.write(2, 0, 0, b"other");
        let dirty = c.take_dirty(1);
        let dirty: Vec<_> = dirty.into_iter().map(|e| (e.chunk, e.data)).collect();
        assert_eq!(
            dirty,
            vec![(0, Bytes::from_static(b"a")), (3, Bytes::from_static(b"b"))]
        );
        assert_eq!(c.dirty_count(), 1); // file 2 still dirty
        assert_eq!(c.get(1, 0).unwrap(), b"a"); // data still cached
        assert!(c.take_dirty(1).is_empty(), "second take is empty");
    }

    #[test]
    fn take_all_dirty_spans_files() {
        let mut c = DataCache::new(8);
        c.write(1, 0, 0, b"a");
        c.write(2, 1, 0, b"b");
        let mut all = c.take_all_dirty();
        all.sort_by_key(|e| e.ino);
        assert_eq!(all.len(), 2);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn invalidate_drops_whole_file() {
        let mut c = DataCache::new(8);
        c.write(1, 0, 0, b"a");
        c.write(1, 1, 0, b"b");
        c.write(2, 0, 0, b"keep");
        c.invalidate_file(1);
        assert_eq!(c.len(), 1);
        assert!(!c.contains(1, 0));
        assert!(c.contains(2, 0));
    }

    #[test]
    fn truncate_drops_tail_chunks() {
        let mut c = DataCache::new(8);
        for chunk in 0..5 {
            c.write(1, chunk, 0, b"x");
        }
        c.truncate_file(1, 2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(1, 1));
        assert!(!c.contains(1, 2));
    }

    fn store() -> (ObjectCluster, Port, ObjectKey) {
        let cfg = ClusterConfig::test_tiny().with_replication(2);
        (
            ObjectCluster::new(cfg),
            Port::new(),
            ObjectKey::data_chunk(1, 0),
        )
    }

    #[test]
    fn flush_freezes_and_a_later_write_stays_out_of_the_store() {
        let (store, port, key) = store();
        let mut c = DataCache::new(4);
        c.write(1, 0, 0, b"first");
        let dirty = c.get(1, 0).unwrap().as_ptr();
        write_back(&store, &port, c.take_dirty(1)).unwrap();
        // One allocation from write() to replica to the clean entry.
        let stored = store.get(&port, key).unwrap();
        assert_eq!(stored.as_ptr(), dirty);
        assert_eq!(c.get(1, 0).unwrap().as_ptr(), dirty);
        // Writing again copies on write: the store and every GET result
        // keep the flushed bytes until the next flush.
        c.write(1, 0, 0, b"again");
        assert_eq!(c.get(1, 0).unwrap(), b"again");
        assert_eq!(store.get(&port, key).unwrap(), stored);
        write_back(&store, &port, c.take_dirty(1)).unwrap();
        assert_eq!(&store.get(&port, key).unwrap()[..], b"again");
        assert_eq!(&stored[..], b"first");
    }

    #[test]
    fn fill_holds_the_stores_buffer_as_a_snapshot() {
        let (store, port, key) = store();
        store.put(&port, key, Bytes::from_static(b"abcd")).unwrap();
        let mut reader = DataCache::new(4);
        // Chunks of 4 bytes, file of 10: chunk 0 whole, chunk 1 a hole,
        // chunk 2 a 2-byte tail the store has only one byte of.
        let tail = Bytes::from_static(b"t");
        let results = vec![
            (0, store.get(&port, key).map(|b| (b, 70))),
            (1, Err(OsError::NotFound)),
            (2, Ok((tail, 90))),
        ];
        let (needed, evicted) = reader.fill(1, results.into_iter(), 4, 10, 0, 50).unwrap();
        assert_eq!((needed, evicted.len()), (70, 0));
        let stored = store.get(&port, key).unwrap();
        assert_eq!(reader.get(1, 0).unwrap().as_ptr(), stored.as_ptr());
        assert_eq!(reader.get_ready(1, 1).unwrap(), (&[0u8; 4][..], 50));
        assert_eq!(reader.get_ready(1, 2).unwrap(), (&b"t\0"[..], 90));
        // Another client overwrites the object, in place and whole: the
        // reader's clean chunk is what it read, not an alias.
        store
            .put_range(&port, key, 0, Bytes::from_static(b"XY"))
            .unwrap();
        store.put(&port, key, Bytes::from_static(b"other")).unwrap();
        assert_eq!(reader.get(1, 0).unwrap(), b"abcd");
    }

    #[test]
    fn write_many_installs_fills_before_writes() {
        let mut c = DataCache::new(8);
        let mut fills = HashMap::new();
        fills.insert(0u64, Bytes::from_static(b"abcd"));
        // Partial overwrite of chunk 0 merges with the fill; chunk 1 is a
        // fresh write with no fill.
        let ev = c.write_many(1, 4, 2, b"XYnew", fills);
        assert!(ev.is_empty());
        assert_eq!(c.get(1, 0).unwrap(), b"abXY");
        assert_eq!(c.get(1, 1).unwrap(), b"new");
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn write_many_accumulates_evictions_under_pressure() {
        // Capacity 1: every chunk of the span displaces the previous one;
        // all dirty evictions must come back from the single call.
        let mut c = DataCache::new(1);
        let ev = c.write_many(1, 1, 0, b"abc", HashMap::new());
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0],
            Evicted {
                ino: 1,
                chunk: 0,
                data: Bytes::from_static(b"a")
            }
        );
        assert_eq!(
            ev[1],
            Evicted {
                ino: 1,
                chunk: 1,
                data: Bytes::from_static(b"b")
            }
        );
        assert_eq!(c.get(1, 2).unwrap(), b"c");
        // A fill is never displaced before its own write applies, even at
        // capacity 1.
        let mut fills = HashMap::new();
        fills.insert(5u64, Bytes::from_static(b"stored"));
        let ev = c.write_many(1, 6, 30, b"W", fills);
        assert_eq!(
            ev,
            vec![Evicted {
                ino: 1,
                chunk: 2,
                data: Bytes::from_static(b"c")
            }]
        );
        assert_eq!(c.get(1, 5).unwrap(), b"Wtored");
    }

    #[test]
    fn capacity_one_works() {
        let mut c = DataCache::new(1);
        for chunk in 0..10 {
            c.insert_clean(1, chunk, vec![chunk as u8]);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 9).unwrap(), &[9]);
    }
}
