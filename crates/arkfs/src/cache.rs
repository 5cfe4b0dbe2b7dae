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
//! per-file [`RadixTree`] keyed on chunk index. Eviction is LRU, with a
//! stream's read-ahead window counting as in use
//! ([`DataCache::claim_window`]); evicting a dirty entry hands it back to
//! the caller for write-back. [`cached_read`] is the read path over it.

use crate::prt::{chunk_spans, map_os_err, read_spans};
use crate::radix::RadixTree;
use arkfs_objstore::{ObjectKey, ObjectStore, OsError, OsResult};
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{Counter, Registry};
use arkfs_vfs::{FsResult, Ino};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::ops::DerefMut;
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

/// A handle's read-ahead state (§III-D).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RaState {
    /// Current read-ahead window in bytes (0 = no prefetch).
    pub window: u64,
    /// End offset of the previous read (sequentiality detection).
    pub last_pos: u64,
}

/// What [`cached_read`] needs to know of its deployment.
#[derive(Debug, Clone, Copy)]
pub struct ReadPolicy {
    pub chunk_size: u64,
    pub max_readahead: u64,
    /// A read at offset 0 opens the whole window at once.
    pub full_at_zero: bool,
    /// One-way network latency: when a fill's GETs reach the store.
    pub net_half_rtt: Nanos,
}

/// A store round trip a [`cached_read`] waited for, as the span its
/// caller's tracer records: `cache.miss` (chunks fetched whole into the
/// cache) or `cache.bypass` (a random read's ranges fetched past it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSpan {
    pub name: &'static str,
    pub start: Nanos,
    pub end: Nanos,
}

/// The cached read path of ArkFS clients and the baselines: read up to
/// `buf.len()` bytes at `offset` of a file of `size` bytes through the
/// cache `lock` hands out (held for one cache pass at a time, never
/// across a store round trip).
///
/// The access pattern decides what is fetched (§III-D). A read that
/// continues the previous one, or starts at offset 0, is a *stream*: its
/// window doubles (or opens fully at 0), the missing chunks of the window
/// come whole in one pipelined multi-GET — the ones the request touches
/// synchronously, the rest asynchronously, so the reader only waits if it
/// reaches a chunk before its completion — and are installed in the
/// cache. A read that breaks the sequence closes the window and installs
/// nothing: resident chunks, clean or dirty, still serve it, and what is
/// missing goes out as one batched ranged GET straight into `buf` (dirty
/// bytes only ever live in resident chunks, so the answer is coherent).
#[allow(clippy::too_many_arguments)]
pub fn cached_read<G: DerefMut<Target = DataCache>>(
    store: &dyn ObjectStore,
    port: &Port,
    lock: impl Fn() -> G,
    ino: Ino,
    offset: u64,
    buf: &mut [u8],
    size: u64,
    ra: &mut RaState,
    policy: &ReadPolicy,
) -> FsResult<(usize, Option<FetchSpan>)> {
    if buf.is_empty() || offset >= size {
        return Ok((0, None));
    }
    let want = (buf.len() as u64).min(size - offset) as usize;
    let chunk_size = policy.chunk_size;
    // Window update: jump to the maximum when the read starts at offset
    // 0, double on sequential access, close on anything else.
    let streaming = if offset == 0 && policy.full_at_zero {
        ra.window = policy.max_readahead;
        true
    } else if offset != ra.last_pos {
        ra.window = 0;
        false
    } else {
        if offset != 0 {
            ra.window = (ra.window.max(chunk_size) * 2).min(policy.max_readahead);
        }
        true
    };
    ra.last_pos = offset + want as u64;

    let start = port.now();
    let mut fetched = None;
    // Chunks below `claimed` are the cache's to serve after the fill.
    let mut claimed = 0;
    if streaming {
        let first = offset / chunk_size;
        let ra_end = ra.last_pos.saturating_add(ra.window).min(size);
        let last = ra_end.div_ceil(chunk_size).max(first + 1);
        let (last, missing) = lock().claim_window(ino, first, last);
        claimed = last;
        if !missing.is_empty() {
            let keys: Vec<ObjectKey> = missing
                .iter()
                .map(|&c| ObjectKey::data_chunk(ino, c))
                .collect();
            let depart = start + policy.net_half_rtt;
            let results = store.get_each(depart, &keys);
            let last_needed = (ra.last_pos - 1) / chunk_size;
            let (needed_done, evicted) = lock().fill(
                ino,
                missing.iter().copied().zip(results),
                chunk_size,
                size,
                last_needed,
                depart,
            )?;
            port.wait_until(needed_done);
            let end = port.now();
            write_back(store, port, evicted)?;
            fetched = Some(FetchSpan {
                name: "cache.miss",
                start,
                end,
            });
        }
    }

    // Copy out in one cache pass; a prefetched chunk whose asynchronous
    // GET has not completed yet is waited for.
    let mut absent = Vec::new();
    let mut ready = 0;
    {
        let mut cache = lock();
        for (chunk, within, span) in chunk_spans(chunk_size, offset, want) {
            match cache.read_into(ino, chunk, within, &mut buf[span.clone()]) {
                Some(ready_at) => ready = ready.max(ready_at),
                None => absent.push((chunk, within, span)),
            }
        }
        if !absent.is_empty() {
            // A claimed chunk gone between fill and copy-out is fetched a
            // second time: inside a stream that must not happen.
            let lost = absent.iter().filter(|(c, ..)| *c < claimed).count() as u64;
            cache.count(Stat::FillLost, lost);
            cache.count(Stat::ReadRanged, absent.len() as u64 - lost);
        }
    }
    port.wait_until(ready);
    if !absent.is_empty() {
        read_spans(store, port, ino, &absent, buf)?;
        fetched = fetched.or(Some(FetchSpan {
            name: "cache.bypass",
            start,
            end: port.now(),
        }));
    }
    Ok((want, fetched))
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
    /// "is asynchronously read in advance"). Zero once something has read
    /// or written the chunk, so non-zero also means "prefetched, unread".
    ready_at: u64,
}

/// What a cache counts about itself and the read path over it, in the
/// order of [`STAT_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Hit,
    Miss,
    /// Chunks fetched ahead of the request that asked for them.
    PrefetchIssued,
    /// Prefetched chunks evicted before anything read them: the cache
    /// fetched them for nothing, and a stream will fetch them again.
    PrefetchEvictedUnread,
    /// Spans a read that broke the sequence fetched by range, past the
    /// cache.
    ReadRanged,
    /// Chunks a fill installed and the same read no longer found.
    FillLost,
}

/// Registry names of the [`Stat`]s.
pub const STAT_NAMES: [&str; 6] = [
    "cache.hit.count",
    "cache.miss.count",
    "cache.prefetch.issued.count",
    "cache.prefetch.evicted_unread.count",
    "cache.read.ranged.count",
    "cache.fill.lost.count",
];

/// Registry handles for the [`Stat`]s, shared by every cache of a
/// deployment.
pub type CacheCounters = [Arc<Counter>; 6];

pub fn registry_counters(registry: &Registry) -> CacheCounters {
    STAT_NAMES.map(|name| registry.counter(name))
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
    stats: [u64; 6],
    /// Registry counters mirroring `stats` when attached.
    counters: Option<CacheCounters>,
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
            stats: [0; 6],
            counters: None,
        }
    }

    /// Mirror this cache's accounting into registry counters.
    pub fn attach_counters(&mut self, counters: CacheCounters) {
        self.counters = Some(counters);
    }

    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    pub fn stat(&self, stat: Stat) -> u64 {
        self.stats[stat as usize]
    }

    pub fn hits(&self) -> u64 {
        self.stat(Stat::Hit)
    }

    pub fn misses(&self) -> u64 {
        self.stat(Stat::Miss)
    }

    fn count(&mut self, stat: Stat, n: u64) {
        Self::bump(&mut self.stats, &self.counters, stat, n);
    }

    /// [`DataCache::count`] over the fields it needs, for a caller that
    /// still holds an entry.
    fn bump(stats: &mut [u64; 6], counters: &Option<CacheCounters>, stat: Stat, n: u64) {
        if n == 0 {
            return;
        }
        stats[stat as usize] += n;
        if let Some(counters) = counters {
            counters[stat as usize].add(n);
        }
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
        let found = Self::touch(files, lru, clock, ino, chunk).map(|entry| {
            // Its first reader waits for a prefetched chunk and moves the
            // client's clock past the completion: nobody waits again.
            (entry.data.bytes(), std::mem::take(&mut entry.ready_at))
        });
        let stat = if found.is_some() {
            Stat::Hit
        } else {
            Stat::Miss
        };
        Self::bump(&mut self.stats, &self.counters, stat, 1);
        found
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
        let rest = data.get(within..).unwrap_or(&[]);
        let take = rest.len().min(out.len());
        out[..take].copy_from_slice(&rest[..take]);
        out[take..].fill(0);
        Some(ready_at)
    }

    /// True without touching LRU/ hit accounting.
    fn contains(&self, ino: Ino, chunk: u64) -> bool {
        self.files.get(&ino).is_some_and(|t| t.contains(chunk))
    }

    /// A stream announces its window, chunks `[first, last)`: returns the
    /// window's end, clamped to `capacity - 1` chunks — a cache smaller
    /// than the window reads less far ahead, it never displaces what it
    /// has just fetched — and the chunks of it a fill must fetch.
    ///
    /// The resident ones become the most recently used, farthest first.
    /// Reads only ever refresh the chunk the stream is consuming, so
    /// without this the read-ahead keeps its install tick, ages behind
    /// what the stream has already left, and is evicted before it is
    /// read. With it every stream re-asserts its window on each read:
    /// whatever the next install evicts lies outside every stream's
    /// current window as long as such a chunk is resident.
    pub fn claim_window(&mut self, ino: Ino, first: u64, last: u64) -> (u64, Vec<u64>) {
        let last = last.min(first + (self.capacity as u64 - 1).max(1));
        let (files, lru, clock) = (&mut self.files, &mut self.lru, &mut self.clock);
        let mut missing: Vec<u64> = (first..last)
            .rev()
            .filter(|&chunk| Self::touch(files, lru, clock, ino, chunk).is_none())
            .collect();
        missing.reverse();
        (last, missing)
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
            self.count(Stat::PrefetchIssued, u64::from(!needed));
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
    /// overwrite — so eviction pressure can never displace a fill, or a
    /// resident chunk that needed none, before its write applies; dirty
    /// evictions from the whole span accumulate into the returned batch.
    pub fn write_many(
        &mut self,
        ino: Ino,
        chunk_size: u64,
        offset: u64,
        data: &[u8],
        mut fills: HashMap<u64, Bytes>,
    ) -> Vec<Evicted> {
        let mut out = Vec::new();
        // Resident chunks first: written in place they displace nothing,
        // so none of them (no fill was fetched for it) can be evicted by
        // the installs of the others before its own write has applied.
        let (resident, absent): (Vec<_>, Vec<_>) = chunk_spans(chunk_size, offset, data.len())
            .partition(|(chunk, ..)| self.contains(ino, *chunk));
        for (chunk, within, span) in resident.into_iter().chain(absent) {
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
            self.count(Stat::PrefetchEvictedUnread, u64::from(entry.ready_at != 0));
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

    /// `files` 16-chunk files of 64-byte chunks, streamed in lock-step in
    /// 16-byte requests through one cache of `entries` chunks with a
    /// read-ahead of `window` chunks: the cache afterwards, and the GETs
    /// and bytes the streams cost the store.
    fn stream(files: u128, entries: usize, window: u64) -> (DataCache, (u64, u64)) {
        let store = ObjectCluster::new(ClusterConfig::test_tiny());
        let data: Vec<u8> = (0..16 * 64).map(|i| (i / 64 * 7 + i) as u8).collect();
        let items = (1..=files).flat_map(|ino| {
            let chunk = move |(i, piece)| {
                (
                    ObjectKey::data_chunk(ino, i as u64),
                    Bytes::copy_from_slice(piece),
                )
            };
            data.chunks(64).enumerate().map(chunk)
        });
        for r in store.put_many(&Port::new(), items.collect()) {
            r.unwrap();
        }
        let moved = || {
            let reg = &store.telemetry().unwrap().registry;
            let count = |name| reg.counter(name).get();
            (count("store.get.count"), count("store.read.bytes"))
        };
        let before = moved();
        let (cache, port) = (
            parking_lot::Mutex::new(DataCache::new(entries)),
            Port::new(),
        );
        let policy = ReadPolicy {
            chunk_size: 64,
            max_readahead: window * 64,
            full_at_zero: true,
            net_half_rtt: 1_000,
        };
        let mut ras = vec![RaState::default(); files as usize];
        let mut buf = [0u8; 16];
        for offset in (0..1024).step_by(16) {
            for (ino, ra) in (1..=files).zip(&mut ras) {
                let lock = || cache.lock();
                cached_read(
                    &store, &port, lock, ino, offset, &mut buf, 1024, ra, &policy,
                )
                .unwrap();
                assert_eq!(
                    buf[..],
                    data[offset as usize..][..16],
                    "file {ino} at {offset}"
                );
            }
        }
        let after = moved();
        (cache.into_inner(), (after.0 - before.0, after.1 - before.1))
    }

    #[test]
    fn readahead_outlives_what_the_stream_has_left_behind() {
        // Six entries, a four-chunk window: the fifth fill must displace
        // a chunk the stream has consumed, never one it has yet to read.
        let (cache, moved) = stream(1, 6, 4);
        assert_eq!(moved, (16, 1024), "every chunk fetched once");
        assert_eq!(cache.stat(Stat::PrefetchIssued), 15);
        assert_eq!(cache.stat(Stat::PrefetchEvictedUnread), 0);
        assert_eq!(cache.stat(Stat::FillLost), 0);
        assert_eq!(cache.stat(Stat::ReadRanged), 0);
        assert_eq!(cache.misses(), 0, "every request found its chunk");
    }

    #[test]
    fn a_cache_smaller_than_the_window_reads_less_far_ahead() {
        for entries in [1, 2, 3] {
            let (cache, moved) = stream(1, entries, 4);
            assert_eq!(
                moved,
                (16, 1024),
                "{entries} entries: a chunk fetched twice"
            );
            assert_eq!(cache.stat(Stat::PrefetchEvictedUnread), 0);
            assert_eq!(cache.stat(Stat::FillLost), 0);
        }
    }

    #[test]
    fn two_streams_never_evict_each_others_readahead() {
        // Two-chunk windows in eight entries: each fill finds a chunk
        // one of the streams has consumed to displace.
        let (cache, moved) = stream(2, 8, 2);
        assert_eq!(moved, (32, 2048));
        assert_eq!(cache.stat(Stat::PrefetchEvictedUnread), 0);
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
