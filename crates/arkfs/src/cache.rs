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
//! ([`DataCache::claim_window`]); a dirty entry it evicts goes *behind*
//! the caller — its PUT departs at once and keeps the entry's slot until
//! the ack ([`DataCache::went_behind`]), and so do the PUTs of a closed
//! file's dirty chunks ([`put_behind`]) and the DELETEs of a removed
//! file's chunks ([`purge`]). [`cached_read`] and [`cached_write`] are
//! the data paths over it, [`flush`] the one drain.

use crate::prt::{chunk_spans, map_os_err, read_spans};
use crate::radix::RadixTree;
use arkfs_objstore::{wait_last, BatchSpan, ObjectKey, ObjectStore, OsError, OsResult};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{Counter, Gauge, Registry};
use arkfs_vfs::{FsResult, Ino};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::{DerefMut, Range};
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

/// The PUTs that write `chunks` back.
fn put_items(chunks: Vec<Evicted>) -> Vec<(ObjectKey, Bytes)> {
    chunks
        .into_iter()
        .map(|e| (ObjectKey::data_chunk(e.ino, e.chunk), e.data))
        .collect()
}

/// The one drain of the cached data path: write back `file`'s dirty
/// chunks (every file's for `None`) as one pipelined multi-PUT, after
/// the requests already behind the caller have been acked. fsync,
/// truncate, a lease flip to direct I/O, a leader's flush request and
/// `sync_all` hand a file's bytes on through here, so what they hand on
/// is never older than the store's acks. One cache pass, in `cache`.
pub fn flush(
    store: &dyn ObjectStore,
    port: &Port,
    mut cache: impl DerefMut<Target = DataCache>,
    file: Option<Ino>,
) -> FsResult<()> {
    let dirty = match file {
        Some(ino) => cache.take_dirty(ino),
        None => cache.take_all_dirty(),
    };
    let acked = cache.drain(file);
    drop(cache);
    port.wait_until(acked);
    if dirty.is_empty() {
        return Ok(());
    }
    let put = |t| store.put_each(t, put_items(dirty));
    for r in wait_last(store, port, BatchSpan::Put, put) {
        r.map_err(map_os_err)?;
    }
    Ok(())
}

/// Read the store contents of `chunks` (see [`DataCache::rmw_chunks`]) in
/// one pipelined multi-GET; a chunk the store does not have is left out.
fn fetch_fills(
    store: &dyn ObjectStore,
    port: &Port,
    ino: Ino,
    chunks: &[u64],
) -> FsResult<HashMap<u64, Bytes>> {
    let mut fills = HashMap::default();
    if chunks.is_empty() {
        return Ok(fills);
    }
    let keys: Vec<ObjectKey> = chunks
        .iter()
        .map(|&c| ObjectKey::data_chunk(ino, c))
        .collect();
    let results = wait_last(store, port, BatchSpan::Get, |t| store.get_each(t, &keys));
    for (&chunk, result) in chunks.iter().zip(results) {
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

/// What [`cached_read`] and [`cached_write`] need to know of their
/// deployment.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    pub chunk_size: u64,
    pub max_readahead: u64,
    /// A read at offset 0 opens the whole window at once.
    pub full_at_zero: bool,
}

/// A store round trip the cached data path waited for, as the span its
/// caller's tracer records: `cache.miss` (chunks fetched whole into the
/// cache), `cache.bypass` (a random read's ranges fetched past it) or
/// `cache.writebehind.wait` (a writer, a close or a purge waiting for
/// the ack that frees a slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSpan {
    pub name: &'static str,
    pub start: Nanos,
    pub end: Nanos,
}

/// Issue the PUTs of a cache pass's dirty `victims` behind a caller whose
/// clock reads `now` — they depart at once and are recorded in flight —
/// and return when the caller may go on ([`DataCache::went_behind`]),
/// with the first PUT the store refused at issue as the caller's error.
fn go_behind(
    cache: &mut DataCache,
    store: &dyn ObjectStore,
    now: Nanos,
    victims: Vec<Evicted>,
) -> (Nanos, FsResult<()>) {
    let chunks: Vec<(Ino, u64)> = victims.iter().map(|e| (e.ino, e.chunk)).collect();
    let acks = match victims.is_empty() {
        true => Vec::new(),
        false => store.put_each(now, put_items(victims)),
    };
    record_behind(cache, now, Stat::WriteBehind, chunks.into_iter().zip(acks))
}

/// Record the requests a pass sent behind the caller — `((ino, chunk),
/// (ack, result))`, counted as `issued_as` — in flight, and return when
/// the caller may go on, with the first one the store refused at issue
/// as the caller's error.
fn record_behind(
    cache: &mut DataCache,
    now: Nanos,
    issued_as: Stat,
    acks: impl IntoIterator<Item = ((Ino, u64), (Nanos, OsResult<()>))>,
) -> (Nanos, FsResult<()>) {
    let (mut issued, mut refused) = (Vec::new(), Ok(()));
    for ((ino, chunk), (ack, r)) in acks {
        match r {
            Ok(()) => issued.push((ino, chunk, ack)),
            Err(e) if refused.is_ok() => refused = Err(map_os_err(e)),
            Err(_) => {}
        }
    }
    (cache.went_behind(issued, issued_as, now), refused)
}

/// Wait out what [`record_behind`] decided for a caller whose pass began
/// at `start`: the wait, if there was one, as a `cache.writebehind.wait`
/// span.
fn wait_behind(
    port: &Port,
    start: Nanos,
    (until, refused): (Nanos, FsResult<()>),
) -> FsResult<Option<FetchSpan>> {
    port.wait_until(until);
    refused?;
    Ok((until > start).then_some(FetchSpan {
        name: "cache.writebehind.wait",
        start,
        end: until,
    }))
}

/// Send `ino`'s dirty chunks *behind* the caller, in one cache pass: their
/// PUTs depart at once and each holds a slot until its ack, like a PUT
/// that went behind a writer, and the caller waits by the same rule
/// ([`DataCache::went_behind`]). `close` hands its file on this way
/// without waiting for the bytes: what it sends after them departs no
/// earlier than the returned time, the last ack of any request in flight
/// for `ino` (0 if none is). [`flush`]'s drain still waits for them all.
/// A PUT the store refuses at issue is the caller's error. Also returns
/// the wait, if there was one, as a `cache.writebehind.wait` span.
pub fn put_behind(
    store: &dyn ObjectStore,
    port: &Port,
    mut cache: impl DerefMut<Target = DataCache>,
    ino: Ino,
) -> FsResult<(Nanos, Option<FetchSpan>)> {
    let start = port.now();
    let dirty = cache.take_dirty(ino);
    let behind = go_behind(&mut cache, store, start, dirty);
    let acked = (cache.in_flight.iter())
        .filter(|&&(i, ..)| i == ino)
        .map(|&(.., ack)| ack)
        .max()
        .unwrap_or(0);
    drop(cache);
    Ok((acked, wait_behind(port, start, behind)?))
}

/// The one way a client reclaims a removed file's data: drop the cached
/// chunks of `ino` and DELETE its first `chunks` chunk objects *behind*
/// the caller, in one cache pass. The DELETEs depart no earlier than the
/// ack of a PUT still in flight for the file (the rule a GET follows);
/// each then holds a slot until its own ack, like a PUT that went behind
/// a writer, and the caller waits by the same rule
/// ([`DataCache::went_behind`]). [`flush`]'s drain waits for them all,
/// so `sync_all` still pays for the last. A DELETE the store refuses at
/// issue is the caller's error; a chunk it never had is not. Returns
/// the wait, if there was one, as a `cache.writebehind.wait` span.
pub fn purge(
    store: &dyn ObjectStore,
    port: &Port,
    mut cache: impl DerefMut<Target = DataCache>,
    ino: Ino,
    chunks: u64,
) -> FsResult<Option<FetchSpan>> {
    cache.invalidate_file(ino);
    if chunks == 0 {
        return Ok(None);
    }
    let start = port.now();
    let depart = start.max(cache.in_flight_until(ino, 0..chunks));
    let keys: Vec<ObjectKey> = (0..chunks).map(|c| ObjectKey::data_chunk(ino, c)).collect();
    let deleted = store.delete_each(depart, &keys);
    let acks = deleted.into_iter().map(|(ack, r)| match r {
        Err(OsError::NotFound) => (ack, Ok(())),
        r => (ack, r),
    });
    let issued = (0..chunks).map(|chunk| (ino, chunk)).zip(acks);
    let behind = record_behind(&mut cache, start, Stat::Purge, issued);
    drop(cache);
    wait_behind(port, start, behind)
}

/// The cached write path of ArkFS clients and the baselines: write
/// `data` at `offset` of a file of `size` bytes (before the write)
/// through the cache `lock` hands out (held for one cache pass at a
/// time, never across a store round trip).
///
/// Partial overwrites of store-resident chunks need the old bytes in the
/// cache first (read-modify in cache): every missing one comes in one
/// pipelined multi-GET, which departs no earlier than the ack of a PUT
/// still in flight for it. Then one cache pass applies the whole span,
/// and the dirty chunks it evicts go *behind* the writer (§III-D: the
/// cache "works in a write-back manner"): their PUTs depart at once, each
/// keeps its slot until its ack, and the writer waits only while the
/// cache is over capacity, for as few of the oldest acks as that takes.
/// A PUT the store refuses at issue is this write's error. Returns the
/// wait, if there was one, as a `cache.writebehind.wait` span.
#[allow(clippy::too_many_arguments)]
pub fn cached_write<G: DerefMut<Target = DataCache>>(
    store: &dyn ObjectStore,
    port: &Port,
    lock: impl Fn() -> G,
    ino: Ino,
    offset: u64,
    data: &[u8],
    size: u64,
    policy: &CachePolicy,
) -> FsResult<Option<FetchSpan>> {
    let chunk_size = policy.chunk_size;
    let (need_fill, behind) = {
        let cache = lock();
        let need = cache.rmw_chunks(ino, chunk_size, size, offset, data.len());
        let behind = cache.in_flight_until(ino, need.iter().copied());
        (need, behind)
    };
    port.wait_until(behind);
    let fills = fetch_fills(store, port, ino, &need_fill)?;
    let start = port.now();
    let behind = {
        let mut cache = lock();
        let victims = cache.write_many(ino, chunk_size, offset, data, fills, start);
        go_behind(&mut cache, store, start, victims)
    };
    wait_behind(port, start, behind)
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
/// A GET for a chunk whose PUT is still in flight departs no earlier
/// than its ack, and the dirty chunks a fill evicts go behind the reader
/// as they go behind a writer ([`cached_write`]).
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
    policy: &CachePolicy,
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
        let (last, missing, behind) = {
            let mut cache = lock();
            let (last, missing) = cache.claim_window(ino, first, last, start);
            let behind = cache.in_flight_until(ino, missing.iter().copied());
            (last, missing, behind)
        };
        claimed = last;
        if !missing.is_empty() {
            let keys: Vec<ObjectKey> = missing
                .iter()
                .map(|&c| ObjectKey::data_chunk(ino, c))
                .collect();
            let results = store.get_each(start.max(behind), &keys);
            let last_needed = (ra.last_pos - 1) / chunk_size;
            let (needed_done, (until, refused)) = {
                let mut cache = lock();
                let (needed_done, victims) = cache.fill(
                    ino,
                    first..last,
                    missing.iter().copied().zip(results),
                    chunk_size,
                    size,
                    last_needed,
                )?;
                let behind = go_behind(&mut cache, store, start, victims);
                (needed_done, behind)
            };
            port.wait_until(needed_done.max(until));
            refused?;
            fetched = Some(FetchSpan {
                name: "cache.miss",
                start,
                end: port.now(),
            });
        }
    }

    // Copy out in one cache pass; a prefetched chunk whose asynchronous
    // GET has not completed yet is waited for, and so is the ack of a
    // PUT in flight for a chunk fetched by range.
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
            ready = ready.max(cache.in_flight_until(ino, absent.iter().map(|(c, ..)| *c)));
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
    /// Dirty chunks whose PUT went out behind the caller: evicted by a
    /// read or a write, or left by a close ([`put_behind`]).
    WriteBehind,
    /// Calls that waited for an ack behind them (a PUT's or a DELETE's)
    /// to free a slot.
    WriteBehindWait,
    /// DELETEs of a removed file's chunks that went out behind the
    /// caller ([`purge`]).
    Purge,
}

/// Registry names of the [`Stat`]s.
pub const STAT_NAMES: [&str; 9] = [
    "cache.hit.count",
    "cache.miss.count",
    "cache.prefetch.issued.count",
    "cache.prefetch.evicted_unread.count",
    "cache.read.ranged.count",
    "cache.fill.lost.count",
    "cache.writebehind.issued.count",
    "cache.writebehind.waited.count",
    "cache.purge.issued.count",
];

/// Registry handles for the [`Stat`]s and for `cache.buffers.peak`, the
/// most chunk buffers (resident or in flight) any cache held at the end
/// of a pass; shared by every cache of a deployment.
#[derive(Debug, Clone)]
pub struct CacheCounters {
    stats: [Arc<Counter>; STAT_NAMES.len()],
    peak: Arc<Gauge>,
}

pub fn registry_counters(registry: &Registry) -> CacheCounters {
    CacheCounters {
        stats: STAT_NAMES.map(|name| registry.counter(name)),
        peak: registry.gauge("cache.buffers.peak"),
    }
}

/// Write-back data chunk cache with LRU eviction.
#[derive(Debug)]
pub struct DataCache {
    files: HashMap<Ino, RadixTree<CacheEntry>>,
    /// Every resident entry by its (unique) last-use tick: the first is
    /// the eviction victim.
    lru: BTreeMap<u64, (Ino, u64)>,
    /// `(ino, chunk, ack)` of every dirty chunk whose PUT went behind the
    /// caller (evicted, or left by a close) and every purged chunk whose
    /// DELETE has not been acked yet: each holds a slot of `capacity`
    /// until its ack.
    in_flight: Vec<(Ino, u64, Nanos)>,
    capacity: usize,
    clock: u64,
    stats: [u64; STAT_NAMES.len()],
    /// Registry counters mirroring `stats` when attached.
    counters: Option<CacheCounters>,
}

impl DataCache {
    /// `capacity` is the maximum number of chunk buffers held, resident
    /// or in flight.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        DataCache {
            files: HashMap::default(),
            lru: BTreeMap::new(),
            in_flight: Vec::new(),
            capacity,
            clock: 0,
            stats: [0; STAT_NAMES.len()],
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

    /// Requests behind the caller not yet known to be acked.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
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
    fn bump(stats: &mut [u64], counters: &Option<CacheCounters>, stat: Stat, n: u64) {
        if n == 0 {
            return;
        }
        stats[stat as usize] += n;
        if let Some(counters) = counters {
            counters.stats[stat as usize].add(n);
        }
    }

    /// Forget the requests acked by `now`: their slots are free again.
    fn forget_acked(&mut self, now: Nanos) {
        self.in_flight.retain(|&(.., ack)| ack > now);
    }

    /// When the last request in flight for any of `chunks` of `ino` is
    /// acked (0 if none is): a GET of one of them departs no earlier.
    pub(crate) fn in_flight_until(&self, ino: Ino, chunks: impl IntoIterator<Item = u64>) -> Nanos {
        let mut until = 0;
        if !self.in_flight.is_empty() {
            for chunk in chunks {
                for &(i, c, ack) in &self.in_flight {
                    if (i, c) == (ino, chunk) {
                        until = until.max(ack);
                    }
                }
            }
        }
        until
    }

    /// Record the requests a pass sent behind the caller — the PUTs of
    /// its dirty victims or a purge's DELETEs, `(ino, chunk, ack)`,
    /// oldest first, counted as `issued_as` — as in flight, then make
    /// the cache fit again: the caller, whose clock reads `now`, may go
    /// on at once unless resident entries and requests in flight exceed
    /// capacity; then it waits for the oldest ack, and the next oldest
    /// while still over, and the returned time is the last ack it waited
    /// for. Every request acked by then is forgotten here.
    pub fn went_behind(
        &mut self,
        issued: impl IntoIterator<Item = (Ino, u64, Nanos)>,
        issued_as: Stat,
        now: Nanos,
    ) -> Nanos {
        let before = self.in_flight.len();
        self.in_flight.extend(issued);
        self.count(issued_as, (self.in_flight.len() - before) as u64);
        self.forget_acked(now);
        let mut until = now;
        while self.lru.len() + self.in_flight.len() > self.capacity {
            let Some(&(.., oldest)) = self.in_flight.first() else {
                break;
            };
            until = until.max(oldest);
            self.forget_acked(until);
        }
        self.count(Stat::WriteBehindWait, u64::from(until > now));
        if let Some(counters) = &self.counters {
            counters
                .peak
                .raise((self.lru.len() + self.in_flight.len()) as i64);
        }
        until
    }

    /// Forget the requests in flight for `file` (for every file with
    /// `None`) and return when the last of them is acked: the caller
    /// waits for that before it hands the file's bytes on.
    fn drain(&mut self, file: Option<Ino>) -> Nanos {
        let mut acked = 0;
        self.in_flight.retain(|&(ino, _, ack)| {
            let drained = file.is_none_or(|f| f == ino);
            if drained {
                acked = acked.max(ack);
            }
            !drained
        });
        acked
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

    /// A stream announces its window, chunks `[first, last)`, at `now`:
    /// returns the window's end, clamped to one chunk less than the slots
    /// PUTs in flight do not hold — a cache smaller than the window reads
    /// less far ahead, it never displaces what it has just fetched — and
    /// the chunks of it a fill must fetch.
    ///
    /// The resident ones become the most recently used, farthest first.
    /// Reads only ever refresh the chunk the stream is consuming, so
    /// without this the read-ahead keeps its install tick, ages behind
    /// what the stream has already left, and is evicted before it is
    /// read. With it every stream re-asserts its window on each read:
    /// whatever the next install evicts lies outside every stream's
    /// current window as long as such a chunk is resident.
    pub fn claim_window(&mut self, ino: Ino, first: u64, last: u64, now: Nanos) -> (u64, Vec<u64>) {
        self.forget_acked(now);
        let free = self.capacity.saturating_sub(self.in_flight.len()) as u64;
        let last = last.min(first + free.saturating_sub(1).max(1));
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
        let mut out = Vec::new();
        self.make_room((ino, chunk..chunk + 1), &mut out);
        out
    }

    /// Install what a read path's multi-GET returned for a stream's
    /// `window` — `(chunk, result)` pairs of a file of `size` bytes,
    /// walked in reverse so the chunk about to be read carries the
    /// freshest LRU tick. Nothing of the window is displaced to make room
    /// for the rest of it. A chunk the store does not have is a hole
    /// (shared zeros), a short one gets its sparse tail padded (the one
    /// copy here); chunks up to `last_needed` are usable at once and the
    /// rest are prefetched, usable at their own ack (a hole's). Returns
    /// when the needed chunks are all there, and the dirty entries
    /// evicted to make room.
    pub fn fill(
        &mut self,
        ino: Ino,
        window: Range<u64>,
        results: impl DoubleEndedIterator<Item = (u64, (Nanos, OsResult<Bytes>))>,
        chunk_size: u64,
        size: u64,
        last_needed: u64,
    ) -> FsResult<(u64, Vec<Evicted>)> {
        let (mut needed_done, mut evicted) = (0, Vec::new());
        for (chunk, (completion, result)) in results.rev() {
            let logical_len = (size - chunk * chunk_size).min(chunk_size) as usize;
            let data = match result {
                Ok(bytes) if bytes.len() < logical_len => {
                    let mut v = Vec::with_capacity(logical_len);
                    v.extend_from_slice(&bytes);
                    v.resize(logical_len, 0);
                    Bytes::from(v)
                }
                Ok(whole) => whole,
                Err(OsError::NotFound) => arkfs_objstore::zeros(logical_len),
                Err(e) => return Err(map_os_err(e)),
            };
            let needed = chunk <= last_needed;
            if needed {
                needed_done = needed_done.max(completion);
            }
            let ready_at = if needed { 0 } else { completion };
            self.count(Stat::PrefetchIssued, u64::from(!needed));
            self.install(ino, chunk, Chunk::Clean(data), ready_at);
            self.make_room((ino, window.clone()), &mut evicted);
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
        let mut out = Vec::new();
        self.write_chunk(ino, chunk, offset, data);
        self.make_room((ino, chunk..chunk + 1), &mut out);
        out
    }

    /// [`DataCache::write`] without making room.
    fn write_chunk(&mut self, ino: Ino, chunk: u64, offset: usize, data: &[u8]) {
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
            }
            None => {
                let mut buf = vec![0u8; end];
                buf[offset..].copy_from_slice(data);
                self.install(ino, chunk, Chunk::Dirty(buf), 0);
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

    /// Apply a write that may span chunks as one operation, at `now`.
    /// `fills` carries the store contents of [`DataCache::rmw_chunks`],
    /// each installed (clean, the store's own buffer) immediately before
    /// the write lands on its chunk — the read-modify step of a partial
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
        now: Nanos,
    ) -> Vec<Evicted> {
        self.forget_acked(now);
        let mut out = Vec::new();
        // Resident chunks first: written in place they displace nothing,
        // so none of them (no fill was fetched for it) can be evicted by
        // the installs of the others before its own write has applied.
        let (resident, absent): (Vec<_>, Vec<_>) = chunk_spans(chunk_size, offset, data.len())
            .partition(|(chunk, ..)| self.contains(ino, *chunk));
        for (chunk, within, span) in resident.into_iter().chain(absent) {
            if let Some(fill) = fills.remove(&chunk) {
                self.install(ino, chunk, Chunk::Clean(fill), 0);
            }
            self.write_chunk(ino, chunk, within, &data[span]);
            self.make_room((ino, chunk..chunk + 1), &mut out);
        }
        out
    }

    /// Evict in LRU order while resident entries, PUTs in flight and the
    /// pass's own dirty victims so far (`out`: in flight as soon as the
    /// caller issues them) exceed capacity — never a chunk of `ino` in
    /// `keep` (the chunk being written, a fill's window). A clean victim
    /// is dropped, a dirty one handed back in `out`: a dirty victim frees
    /// no slot before its ack, so while the LRU end is dirty every dirty
    /// entry goes behind before the caller waits for anything.
    fn make_room(&mut self, keep: (Ino, Range<u64>), out: &mut Vec<Evicted>) {
        let kept =
            |&(_, &(ino, chunk)): &(&u64, &(Ino, u64))| ino == keep.0 && keep.1.contains(&chunk);
        while self.lru.len() + self.in_flight.len() + out.len() > self.capacity {
            let Some((&tick, &(ino, chunk))) = self.lru.iter().find(|e| !kept(e)) else {
                break;
            };
            self.lru.remove(&tick);
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

    /// Take every dirty chunk (global sync), in `(ino, chunk)` order: the
    /// order of the multi-PUT, whose items reach the shards one by one,
    /// must not follow the map's per-process hash order.
    pub fn take_all_dirty(&mut self) -> Vec<Evicted> {
        let mut inos: Vec<Ino> = self.files.keys().copied().collect();
        inos.sort_unstable();
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
    use arkfs_objstore::{Acked, ClusterConfig, ObjectCluster};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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
    fn take_all_dirty_is_in_ino_and_chunk_order() {
        let mut c = DataCache::new(64);
        for ino in (1..=32u128).rev() {
            c.write(ino * 7919 % 101, 1, 0, b"b");
            c.write(ino * 7919 % 101, 0, 0, b"a");
        }
        let order: Vec<(Ino, u64)> = (c.take_all_dirty().iter())
            .map(|e| (e.ino, e.chunk))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order.len(), 64);
        assert_eq!(order, sorted);
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
        flush(&store, &port, &mut c, Some(1)).unwrap();
        // One allocation from write() to replica to the clean entry.
        let stored = store.get(&port, key).unwrap();
        assert_eq!(stored.as_ptr(), dirty);
        assert_eq!(c.get(1, 0).unwrap().as_ptr(), dirty);
        // Writing again copies on write: the store and every GET result
        // keep the flushed bytes until the next flush.
        c.write(1, 0, 0, b"again");
        assert_eq!(c.get(1, 0).unwrap(), b"again");
        assert_eq!(store.get(&port, key).unwrap(), stored);
        flush(&store, &port, &mut c, Some(1)).unwrap();
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
            (0, (70, store.get(&port, key))),
            (1, (50, Err(OsError::NotFound))),
            (2, (90, Ok(tail))),
        ];
        let (needed, evicted) = reader.fill(1, 0..3, results.into_iter(), 4, 10, 0).unwrap();
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
        let mut fills = HashMap::default();
        fills.insert(0u64, Bytes::from_static(b"abcd"));
        // Partial overwrite of chunk 0 merges with the fill; chunk 1 is a
        // fresh write with no fill.
        let ev = c.write_many(1, 4, 2, b"XYnew", fills, 0);
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
        let ev = c.write_many(1, 1, 0, b"abc", HashMap::default(), 0);
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
        let mut fills = HashMap::default();
        fills.insert(5u64, Bytes::from_static(b"stored"));
        let ev = c.write_many(1, 6, 30, b"W", fills, 0);
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
        for (_, r) in store.put_each(0, items.collect()) {
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
        let policy = CachePolicy {
            chunk_size: 64,
            max_readahead: window * 64,
            full_at_zero: true,
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

    #[test]
    fn a_writer_streams_through_a_small_cache_behind_its_puts() {
        // 16 full 64-byte chunks through 6 entries: the dirty evictions
        // go behind the writer, five in flight while it fills the sixth.
        let store = ObjectCluster::new(ClusterConfig::test_tiny());
        let put_latency = {
            let lone = ObjectCluster::new(ClusterConfig::test_tiny());
            let port = Port::new();
            lone.put(&port, ObjectKey::data_chunk(9, 0), Bytes::from(vec![0; 64]))
                .unwrap();
            port.now()
        };
        let policy = CachePolicy {
            chunk_size: 64,
            max_readahead: 0,
            full_at_zero: false,
        };
        let (cache, port) = (parking_lot::Mutex::new(DataCache::new(6)), Port::new());
        for chunk in 0..16u64 {
            let data = [chunk as u8; 64];
            let lock = || cache.lock();
            let size = chunk * 64;
            cached_write(&store, &port, lock, 1, size, &data, size, &policy).unwrap();
            let c = cache.lock();
            assert!(c.len() + c.in_flight() <= 6, "chunk {chunk}");
        }
        flush(&store, &port, cache.lock(), None).unwrap();
        let reg = &store.telemetry().unwrap().registry;
        let count = |name| reg.counter(name).get();
        assert_eq!(count("store.put.count"), 16, "nothing PUT twice");
        assert_eq!(count("store.write.bytes"), 16 * 64);
        for chunk in 0..16u64 {
            let key = ObjectKey::data_chunk(1, chunk);
            assert_eq!(store.get(&Port::new(), key).unwrap()[..], [chunk as u8; 64]);
        }
        let c = cache.lock();
        assert_eq!(c.in_flight(), 0);
        assert!(c.stat(Stat::WriteBehind) >= 10, "the rest were flushed");
        // The writer waits for one PUT in five, and the flush for the
        // last: not for every eviction.
        assert!(
            port.now() <= (16u64.div_ceil(5) + 2) * put_latency,
            "16 chunks took {} ns at {put_latency} ns per PUT",
            port.now()
        );
    }

    /// A store that counts the GETs of a key that depart before the ack
    /// of its last PUT reached the caller.
    struct AckChecked {
        inner: ObjectCluster,
        acks: parking_lot::Mutex<HashMap<ObjectKey, Nanos>>,
        early: AtomicU64,
    }

    impl AckChecked {
        fn check(&self, depart: Nanos, key: ObjectKey) {
            let ack = self.acks.lock().get(&key).copied().unwrap_or(0);
            self.early.fetch_add(u64::from(depart < ack), Relaxed);
        }
    }

    impl ObjectStore for AckChecked {
        fn profile(&self) -> &arkfs_objstore::StoreProfile {
            self.inner.profile()
        }
        fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()> {
            self.inner.put(port, key, data)?;
            self.acks.lock().insert(key, port.now());
            Ok(())
        }
        fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes> {
            self.check(port.now(), key);
            self.inner.get(port, key)
        }
        fn get_range(&self, port: &Port, key: ObjectKey, at: u64, len: usize) -> OsResult<Bytes> {
            self.check(port.now(), key);
            self.inner.get_range(port, key, at, len)
        }
        fn put_range(&self, port: &Port, key: ObjectKey, at: u64, data: Bytes) -> OsResult<()> {
            self.inner.put_range(port, key, at, data)
        }
        fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()> {
            self.inner.delete(port, key)
        }
        fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
            self.inner.head(port, key)
        }
        fn list(
            &self,
            port: &Port,
            kind: Option<arkfs_objstore::KeyKind>,
            ino: Option<u128>,
        ) -> OsResult<Vec<ObjectKey>> {
            self.inner.list(port, kind, ino)
        }
        fn get_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<Bytes> {
            keys.iter().for_each(|&key| self.check(depart, key));
            self.inner.get_each(depart, keys)
        }
        fn get_range_each(&self, depart: Nanos, reqs: &[(ObjectKey, u64, usize)]) -> Acked<Bytes> {
            reqs.iter().for_each(|&(key, ..)| self.check(depart, key));
            self.inner.get_range_each(depart, reqs)
        }
        fn put_each(&self, depart: Nanos, items: Vec<(ObjectKey, Bytes)>) -> Acked<()> {
            let keys: Vec<ObjectKey> = items.iter().map(|&(key, _)| key).collect();
            let acked = self.inner.put_each(depart, items);
            let mut acks = self.acks.lock();
            for (&key, (ack, r)) in keys.iter().zip(&acked) {
                if r.is_ok() {
                    acks.insert(key, *ack);
                }
            }
            acked
        }
        fn put_range_each(&self, depart: Nanos, items: Vec<(ObjectKey, u64, Bytes)>) -> Acked<()> {
            self.inner.put_range_each(depart, items)
        }
        fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<()> {
            self.inner.delete_each(depart, keys)
        }
    }

    #[test]
    fn no_read_fetches_a_chunk_before_its_put_is_acked() {
        let store = AckChecked {
            inner: ObjectCluster::new(ClusterConfig::test_tiny()),
            acks: Default::default(),
            early: Default::default(),
        };
        let policy = CachePolicy {
            chunk_size: 64,
            max_readahead: 256,
            full_at_zero: true,
        };
        let (cache, port) = (parking_lot::Mutex::new(DataCache::new(4)), Port::new());
        let lock = || cache.lock();
        for chunk in 0..5u64 {
            let at = chunk * 64;
            cached_write(&store, &port, lock, 1, at, &[chunk as u8; 64], at, &policy).unwrap();
        }
        // The fifth write sent four chunks behind and waited for the
        // first ack only.
        let in_flight = (1..4).find(|&k| cache.lock().in_flight_until(1, [k]) > port.now());
        let chunk = in_flight.expect("a chunk in flight");
        // A random read of it fetches its range; a stream from 0 fills
        // windows over the rest.
        let (mut ra, mut buf) = (RaState::default(), [0u8; 32]);
        let offsets = std::iter::once(chunk * 64 + 32).chain((0..320).step_by(32));
        for at in offsets {
            cached_read(&store, &port, lock, 1, at, &mut buf, 320, &mut ra, &policy).unwrap();
            assert_eq!(buf, [(at / 64) as u8; 32], "at {at}");
        }
        assert_eq!(store.early.into_inner(), 0);
    }

    #[test]
    fn in_flight_puts_hold_slots_until_their_acks() {
        let mut c = DataCache::new(3);
        for chunk in 0..3 {
            c.write(1, chunk, 0, b"a");
        }
        let behind = c.write_many(1, 1, 3, b"b", HashMap::default(), 0);
        // Every dirty chunk went behind, in LRU order; over capacity by
        // one, the writer waits for the oldest PUT's ack, and whatever
        // was acked by then frees its slot too.
        let chunks: Vec<u64> = behind.iter().map(|e| e.chunk).collect();
        assert_eq!(chunks, [0, 1, 2]);
        let issued = [(1, 0, 500), (1, 1, 300), (1, 2, 900)];
        assert_eq!(c.went_behind(issued, Stat::WriteBehind, 100), 500);
        assert_eq!((c.len(), c.in_flight()), (1, 1));
        // A read of chunk 2 departs after its ack, a window leaves the
        // slot it holds alone, and a write that fits does not wait.
        assert_eq!(c.in_flight_until(1, [2, 3]), 900);
        assert_eq!(c.claim_window(1, 3, 10, 700), (4, vec![]));
        assert!(c
            .write_many(1, 1, 4, b"c", HashMap::default(), 700)
            .is_empty());
        assert_eq!(c.went_behind([], Stat::WriteBehind, 700), 700);
        // A drain forgets the file's PUTs and returns the last ack.
        assert_eq!(c.drain(Some(2)), 0, "another file's PUTs stay");
        assert_eq!((c.drain(None), c.in_flight()), (900, 0));
        assert_eq!(c.stat(Stat::WriteBehind), 3);
        assert_eq!(c.stat(Stat::WriteBehindWait), 1);
    }
}
