//! The POSIX-REST Translator (PRT) module (§III-F).
//!
//! Translates typed file-system state — inode records, dentry buckets,
//! journal transactions, file data at byte offsets — into REST object
//! operations on any [`ObjectStore`] backend. "The PRT module divides the
//! file data into multiple objects if the file size exceeds the maximum
//! object size defined by the object storage."
//!
//! On backends without partial writes (the S3 profile), sub-chunk writes
//! fall back to read-modify-write of the whole data object — exactly the
//! behaviour the paper criticizes in S3FS, except confined to one chunk
//! rather than the whole file.

use crate::meta::{DentryBlock, InodeRecord};
use crate::partition::{PartitionMap, PMAP_BUCKET};
use crate::wire::WireCodec;
use arkfs_objstore::{ObjectKey, ObjectStore, OsError};
use arkfs_simkit::Port;
use arkfs_telemetry::{Counter, LatencyHistogram, Telemetry, TraceCtx};
use arkfs_vfs::{FsError, FsResult, Ino};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Map an object-store error onto the file system error space.
pub fn map_os_err(e: OsError) -> FsError {
    match e {
        OsError::NotFound => FsError::NotFound,
        OsError::Unsupported(what) => FsError::Unsupported(what),
        OsError::Injected(what) => FsError::Io(format!("injected fault: {what}")),
        OsError::BadRange => FsError::InvalidArgument,
        OsError::BadKey => FsError::Io("malformed key".into()),
        OsError::InsufficientFragments => {
            FsError::Io("too many erasure-coded fragments unavailable".into())
        }
    }
}

/// Metadata-path counter handles into the deployment's telemetry
/// registry (`meta.*` names): how many metadata objects moved through
/// the batched `*_many` helpers, and how many objects leader takeovers
/// (`Metatable::load`) pulled. Deployment-wide (the `Prt` is shared by
/// every client of a cluster).
struct MetaCounters {
    /// Metadata objects fetched through batched GETs.
    batched_gets: Arc<Counter>,
    /// Metadata objects written through batched PUTs.
    batched_puts: Arc<Counter>,
    /// Metadata objects removed through batched DELETEs.
    batched_deletes: Arc<Counter>,
    /// Objects loaded by leader takeovers (metatable loads).
    takeover_objects_loaded: Arc<Counter>,
    /// Sealed transactions pushed back to `running` after a failed
    /// journal append (`journal.commit_retry.count`).
    commit_retries: Arc<Counter>,
    /// Journal append flights: store round trips carrying sealed
    /// transactions (a batched multi-PUT is one flight per pipelined
    /// chunk). With `journal.flight.txns` this exposes the group-commit
    /// amortization — grouped sealing means fewer, fatter flights.
    journal_flights: Arc<Counter>,
    /// Sealed transactions carried by journal append flights.
    journal_flight_txns: Arc<Counter>,
}

/// Typed object-storage access for one ArkFS deployment.
pub struct Prt {
    store: Arc<dyn ObjectStore>,
    chunk_size: u64,
    telemetry: Arc<Telemetry>,
    meta: MetaCounters,
    /// `op.<name>.durable_ns` histogram handles, cached per static op
    /// name so the per-landing path neither allocates the formatted
    /// name nor walks the registry map again (the op-name family is a
    /// small compile-time set).
    durable_hists: Mutex<HashMap<&'static str, Arc<LatencyHistogram>>>,
}

impl Prt {
    pub fn new(store: Arc<dyn ObjectStore>, chunk_size: u64) -> Self {
        assert!(chunk_size > 0);
        // Adopt the store's telemetry so one registry spans the whole
        // deployment; stores without one get a private instance.
        let telemetry = store.telemetry().cloned().unwrap_or_else(Telemetry::new);
        let reg = &telemetry.registry;
        let meta = MetaCounters {
            batched_gets: reg.counter("meta.get.objects"),
            batched_puts: reg.counter("meta.put.objects"),
            batched_deletes: reg.counter("meta.delete.objects"),
            takeover_objects_loaded: reg.counter("meta.takeover.objects"),
            commit_retries: reg.counter("journal.commit_retry.count"),
            journal_flights: reg.counter("journal.flight.count"),
            journal_flight_txns: reg.counter("journal.flight.txns"),
        };
        Prt {
            store,
            chunk_size,
            telemetry,
            meta,
            durable_hists: Mutex::new(HashMap::new()),
        }
    }

    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The deployment-wide telemetry this PRT (and its store) report to.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Record objects pulled by a leader takeover (`Metatable::load`).
    pub(crate) fn count_takeover(&self, objects: u64) {
        self.meta.takeover_objects_loaded.add(objects);
    }

    /// Record a sealed transaction pushed back for retry after a failed
    /// journal append (`journal.commit_retry.count`).
    pub(crate) fn count_commit_retry(&self) {
        self.meta.commit_retries.inc();
    }

    /// Record the start-to-durable latency of one mutation into
    /// `op.<name>.durable_ns`, and — when tracing is on — emit the
    /// durable landing as a *follow-from* span of the mutation's
    /// trace: causally linked to the originating client op, flagged
    /// background so the critical-path analyzer excludes it from the
    /// op's ack window (the op already acked when this ran).
    pub(crate) fn record_durable(
        &self,
        op: &'static str,
        dir: Ino,
        start: arkfs_simkit::Nanos,
        end: arkfs_simkit::Nanos,
        ctx: TraceCtx,
    ) {
        let hist = {
            let mut m = self.durable_hists.lock();
            Arc::clone(m.entry(op).or_insert_with(|| {
                self.telemetry
                    .registry
                    .histogram(&format!("{op}.durable_ns"))
            }))
        };
        hist.record(end.saturating_sub(start));
        let tracer = &self.telemetry.tracer;
        if tracer.enabled() {
            tracer.record_with_ctx(
                ctx.as_background(),
                arkfs_telemetry::PID_META,
                dir as u32,
                op,
                "durable",
                start,
                end,
            );
        }
    }

    /// Record a metadata-path span on the directory's trace track
    /// (no-op unless tracing is enabled). The track id is the low 32
    /// bits of the directory inode.
    pub(crate) fn meta_span(
        &self,
        name: &'static str,
        dir: Ino,
        start: arkfs_simkit::Nanos,
        end: arkfs_simkit::Nanos,
    ) {
        let tracer = &self.telemetry.tracer;
        if tracer.enabled() {
            tracer.record(
                arkfs_telemetry::PID_META,
                dir as u32,
                name,
                "meta",
                start,
                end,
            );
        }
    }

    // ---- inode records -------------------------------------------------

    /// Ceiling on the number of objects a single batched metadata flight
    /// puts in the air at once. A whole-directory checkpoint or takeover
    /// can touch thousands of objects; firing them all at one instant
    /// drives the store's contention-depth model to its saturation
    /// factor and monopolizes shard timelines against foreground
    /// traffic. Flights of this size keep per-shard depth low (the win
    /// over a serial loop is already ~FLIGHT× per flight) while the
    /// next flight departs only when the previous one lands.
    const MAX_META_FLIGHT: usize = 16;

    pub fn load_inode(&self, port: &Port, ino: Ino) -> FsResult<InodeRecord> {
        let data = self
            .store
            .get(port, ObjectKey::inode(ino))
            .map_err(map_os_err)?;
        InodeRecord::from_bytes(&data).map_err(|e| FsError::Io(e.to_string()))
    }

    pub fn store_inode(&self, port: &Port, rec: &InodeRecord) -> FsResult<()> {
        self.store
            .put(port, ObjectKey::inode(rec.ino), Bytes::from(rec.to_bytes()))
            .map_err(map_os_err)
    }

    pub fn delete_inode(&self, port: &Port, ino: Ino) -> FsResult<()> {
        match self.store.delete(port, ObjectKey::inode(ino)) {
            Ok(()) | Err(OsError::NotFound) => Ok(()),
            Err(e) => Err(map_os_err(e)),
        }
    }

    /// Batched inode fetch: one pipelined multi-GET, the caller pays the
    /// slowest record instead of one round trip per inode. A missing
    /// inode yields `None` (recovery base states tolerate absent
    /// objects); other errors fail the batch.
    pub fn load_inodes_many(
        &self,
        port: &Port,
        inos: &[Ino],
    ) -> FsResult<Vec<Option<InodeRecord>>> {
        if inos.is_empty() {
            return Ok(Vec::new());
        }
        self.meta.batched_gets.add(inos.len() as u64);
        let keys: Vec<ObjectKey> = inos.iter().map(|&i| ObjectKey::inode(i)).collect();
        let mut out = Vec::with_capacity(keys.len());
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.get_many(port, flight) {
                out.push(match res {
                    Ok(data) => InodeRecord::from_bytes(&data)
                        .map(Some)
                        .map_err(|e| FsError::Io(e.to_string()))?,
                    Err(OsError::NotFound) => None,
                    Err(e) => return Err(map_os_err(e)),
                });
            }
        }
        Ok(out)
    }

    /// Batched inode write-back: one pipelined multi-PUT.
    pub fn store_inodes_many(&self, port: &Port, recs: &[&InodeRecord]) -> FsResult<()> {
        if recs.is_empty() {
            return Ok(());
        }
        self.meta.batched_puts.add(recs.len() as u64);
        let items: Vec<(ObjectKey, Bytes)> = recs
            .iter()
            .map(|rec| (ObjectKey::inode(rec.ino), Bytes::from(rec.to_bytes())))
            .collect();
        for flight in items.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.put_many(port, flight.to_vec()) {
                res.map_err(map_os_err)?;
            }
        }
        Ok(())
    }

    /// Batched inode removal: one pipelined multi-DELETE, missing inodes
    /// tolerated (idempotent, like [`Prt::delete_inode`]).
    pub fn delete_inodes_many(&self, port: &Port, inos: &[Ino]) -> FsResult<()> {
        if inos.is_empty() {
            return Ok(());
        }
        self.meta.batched_deletes.add(inos.len() as u64);
        let keys: Vec<ObjectKey> = inos.iter().map(|&i| ObjectKey::inode(i)).collect();
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.delete_many(port, flight) {
                match res {
                    Ok(()) | Err(OsError::NotFound) => {}
                    Err(e) => return Err(map_os_err(e)),
                }
            }
        }
        Ok(())
    }

    // ---- dentry buckets ------------------------------------------------

    /// Load one dentry bucket; a missing object is an empty bucket.
    pub fn load_bucket(&self, port: &Port, dir: Ino, bucket: u64) -> FsResult<DentryBlock> {
        match self.store.get(port, ObjectKey::dentry_bucket(dir, bucket)) {
            Ok(data) => DentryBlock::from_bytes(&data).map_err(|e| FsError::Io(e.to_string())),
            Err(OsError::NotFound) => Ok(DentryBlock::default()),
            Err(e) => Err(map_os_err(e)),
        }
    }

    pub fn store_bucket(
        &self,
        port: &Port,
        dir: Ino,
        bucket: u64,
        block: &DentryBlock,
    ) -> FsResult<()> {
        let key = ObjectKey::dentry_bucket(dir, bucket);
        if block.entries.is_empty() {
            return match self.store.delete(port, key) {
                Ok(()) | Err(OsError::NotFound) => Ok(()),
                Err(e) => Err(map_os_err(e)),
            };
        }
        self.store
            .put(port, key, Bytes::from(block.to_bytes()))
            .map_err(map_os_err)
    }

    /// Batched dentry-bucket sweep: one pipelined multi-GET over the
    /// requested bucket indices; missing objects read as empty buckets.
    /// A whole-directory load pays the slowest bucket, not the sum.
    pub fn load_buckets_many(
        &self,
        port: &Port,
        dir: Ino,
        buckets: &[u64],
    ) -> FsResult<Vec<DentryBlock>> {
        if buckets.is_empty() {
            return Ok(Vec::new());
        }
        self.meta.batched_gets.add(buckets.len() as u64);
        let keys: Vec<ObjectKey> = buckets
            .iter()
            .map(|&b| ObjectKey::dentry_bucket(dir, b))
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.get_many(port, flight) {
                out.push(match res {
                    Ok(data) => {
                        DentryBlock::from_bytes(&data).map_err(|e| FsError::Io(e.to_string()))?
                    }
                    Err(OsError::NotFound) => DentryBlock::default(),
                    Err(e) => return Err(map_os_err(e)),
                });
            }
        }
        Ok(out)
    }

    /// Batched dentry-bucket write-back. Empty blocks delete their
    /// object (same rule as [`Prt::store_bucket`]); the non-empty blocks
    /// go out as one multi-PUT and the empties as one multi-DELETE, so a
    /// checkpoint of many dirty buckets pays two fan-outs at most.
    pub fn store_buckets_many(
        &self,
        port: &Port,
        dir: Ino,
        blocks: &[(u64, DentryBlock)],
    ) -> FsResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let mut puts = Vec::new();
        let mut dels = Vec::new();
        for (bucket, block) in blocks {
            let key = ObjectKey::dentry_bucket(dir, *bucket);
            if block.entries.is_empty() {
                dels.push(key);
            } else {
                puts.push((key, Bytes::from(block.to_bytes())));
            }
        }
        self.meta.batched_puts.add(puts.len() as u64);
        self.meta.batched_deletes.add(dels.len() as u64);
        for flight in puts.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.put_many(port, flight.to_vec()) {
                res.map_err(map_os_err)?;
            }
        }
        for flight in dels.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.delete_many(port, flight) {
                match res {
                    Ok(()) | Err(OsError::NotFound) => {}
                    Err(e) => return Err(map_os_err(e)),
                }
            }
        }
        Ok(())
    }

    /// Delete every dentry bucket of a directory.
    pub fn delete_buckets(&self, port: &Port, dir: Ino) -> FsResult<()> {
        let keys = self
            .store
            .list(port, Some(arkfs_objstore::KeyKind::Dentry), Some(dir))
            .map_err(map_os_err)?;
        if keys.is_empty() {
            return Ok(());
        }
        self.meta.batched_deletes.add(keys.len() as u64);
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.delete_many(port, flight) {
                match res {
                    Ok(()) | Err(OsError::NotFound) => {}
                    Err(e) => return Err(map_os_err(e)),
                }
            }
        }
        Ok(())
    }

    // ---- partition maps --------------------------------------------------

    /// Load a directory's partition map; an absent object means the
    /// directory is unpartitioned.
    pub fn load_pmap(&self, port: &Port, dir: Ino) -> FsResult<Option<PartitionMap>> {
        match self
            .store
            .get(port, ObjectKey::dentry_bucket(dir, PMAP_BUCKET))
        {
            Ok(data) => PartitionMap::from_bytes(&data)
                .map(Some)
                .map_err(|e| FsError::Io(e.to_string())),
            Err(OsError::NotFound) => Ok(None),
            Err(e) => Err(map_os_err(e)),
        }
    }

    /// Install a directory's partition map (split/merge epoch change).
    pub fn store_pmap(&self, port: &Port, map: &PartitionMap) -> FsResult<()> {
        self.store
            .put(
                port,
                ObjectKey::dentry_bucket(map.dir, PMAP_BUCKET),
                Bytes::from(map.to_bytes()),
            )
            .map_err(map_os_err)
    }

    /// Remove a directory's partition map (merge back to one partition).
    /// Idempotent: an absent map already means "one partition".
    pub fn delete_pmap(&self, port: &Port, dir: Ino) -> FsResult<()> {
        match self
            .store
            .delete(port, ObjectKey::dentry_bucket(dir, PMAP_BUCKET))
        {
            Ok(()) | Err(OsError::NotFound) => Ok(()),
            Err(e) => Err(map_os_err(e)),
        }
    }

    /// Batched fetch of a directory's inode and its partition map in one
    /// two-object flight — max-of-completions pricing makes the map read
    /// free on the leader-takeover path, where both are always needed.
    pub fn load_inode_and_pmap(
        &self,
        port: &Port,
        dir: Ino,
    ) -> FsResult<(Option<InodeRecord>, Option<PartitionMap>)> {
        self.meta.batched_gets.add(2);
        let keys = [
            ObjectKey::inode(dir),
            ObjectKey::dentry_bucket(dir, PMAP_BUCKET),
        ];
        let mut results = self.store.get_many(port, &keys).into_iter();
        let inode = match results.next().expect("inode slot") {
            Ok(data) => {
                Some(InodeRecord::from_bytes(&data).map_err(|e| FsError::Io(e.to_string()))?)
            }
            Err(OsError::NotFound) => None,
            Err(e) => return Err(map_os_err(e)),
        };
        let pmap = match results.next().expect("pmap slot") {
            Ok(data) => {
                Some(PartitionMap::from_bytes(&data).map_err(|e| FsError::Io(e.to_string()))?)
            }
            Err(OsError::NotFound) => None,
            Err(e) => return Err(map_os_err(e)),
        };
        Ok((inode, pmap))
    }

    // ---- journal objects -------------------------------------------------

    pub fn put_journal(&self, port: &Port, dir: Ino, seq: u64, data: Bytes) -> FsResult<()> {
        self.meta.journal_flights.inc();
        self.meta.journal_flight_txns.inc();
        self.store
            .put(port, ObjectKey::journal(dir, seq), data)
            .map_err(map_os_err)
    }

    pub fn get_journal(&self, port: &Port, dir: Ino, seq: u64) -> FsResult<Bytes> {
        self.store
            .get(port, ObjectKey::journal(dir, seq))
            .map_err(map_os_err)
    }

    /// Sequence numbers of all journal objects of a directory, ascending.
    pub fn list_journal(&self, port: &Port, dir: Ino) -> FsResult<Vec<u64>> {
        let keys = self
            .store
            .list(port, Some(arkfs_objstore::KeyKind::Journal), Some(dir))
            .map_err(map_os_err)?;
        let mut seqs: Vec<u64> = keys.into_iter().map(|k| k.index).collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    pub fn delete_journal(&self, port: &Port, dir: Ino, seq: u64) -> FsResult<()> {
        match self.store.delete(port, ObjectKey::journal(dir, seq)) {
            Ok(()) | Err(OsError::NotFound) => Ok(()),
            Err(e) => Err(map_os_err(e)),
        }
    }

    /// Group-commit append: one pipelined multi-PUT of sealed
    /// transactions that may belong to *different* directories sharing a
    /// commit lane. One flight pays the slowest append instead of one
    /// store round trip per directory.
    pub fn put_journal_many(&self, port: &Port, items: &[(Ino, u64, Bytes)]) -> FsResult<()> {
        if items.is_empty() {
            return Ok(());
        }
        self.meta.batched_puts.add(items.len() as u64);
        self.meta.journal_flight_txns.add(items.len() as u64);
        self.meta
            .journal_flights
            .add(items.chunks(Self::MAX_META_FLIGHT).len() as u64);
        let puts: Vec<(ObjectKey, Bytes)> = items
            .iter()
            .map(|(dir, seq, data)| (ObjectKey::journal(*dir, *seq), data.clone()))
            .collect();
        for flight in puts.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.put_many(port, flight.to_vec()) {
                res.map_err(map_os_err)?;
            }
        }
        Ok(())
    }

    /// Batched journal-object fetch: one pipelined multi-GET over the
    /// sequence numbers. A missing object (raced truncate) yields `None`.
    pub fn get_journal_many(
        &self,
        port: &Port,
        dir: Ino,
        seqs: &[u64],
    ) -> FsResult<Vec<Option<Bytes>>> {
        if seqs.is_empty() {
            return Ok(Vec::new());
        }
        self.meta.batched_gets.add(seqs.len() as u64);
        let keys: Vec<ObjectKey> = seqs.iter().map(|&s| ObjectKey::journal(dir, s)).collect();
        let mut out = Vec::with_capacity(keys.len());
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.get_many(port, flight) {
                out.push(match res {
                    Ok(data) => Some(data),
                    Err(OsError::NotFound) => None,
                    Err(e) => return Err(map_os_err(e)),
                });
            }
        }
        Ok(out)
    }

    /// Batched journal truncation: one pipelined multi-DELETE, missing
    /// objects tolerated (idempotent).
    pub fn delete_journal_many(&self, port: &Port, dir: Ino, seqs: &[u64]) -> FsResult<()> {
        if seqs.is_empty() {
            return Ok(());
        }
        self.meta.batched_deletes.add(seqs.len() as u64);
        let keys: Vec<ObjectKey> = seqs.iter().map(|&s| ObjectKey::journal(dir, s)).collect();
        for flight in keys.chunks(Self::MAX_META_FLIGHT) {
            for res in self.store.delete_many(port, flight) {
                match res {
                    Ok(()) | Err(OsError::NotFound) => {}
                    Err(e) => return Err(map_os_err(e)),
                }
            }
        }
        Ok(())
    }

    // ---- file data -------------------------------------------------------

    /// Read up to `buf.len()` bytes at `offset` from a file whose current
    /// size is `size`. Returns bytes filled. Chunks that were never
    /// written read as zeros (sparse files).
    pub fn read_data(
        &self,
        port: &Port,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
        size: u64,
    ) -> FsResult<usize> {
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let spans: Vec<_> = chunk_spans(self.chunk_size, offset, want).collect();
        read_spans(&*self.store, port, ino, &spans, buf)?;
        Ok(want)
    }

    /// Write `data` at byte `offset`, splitting across chunk objects. The
    /// whole span goes out as one batched ranged multi-PUT; backends
    /// without partial writes (S3) degrade per chunk to whole-object
    /// read-modify-write inside the store.
    pub fn write_data(&self, port: &Port, ino: Ino, offset: u64, data: &[u8]) -> FsResult<()> {
        let items: Vec<_> = chunk_spans(self.chunk_size, offset, data.len())
            .map(|(chunk, within, span)| {
                let piece = Bytes::copy_from_slice(&data[span]);
                (ObjectKey::data_chunk(ino, chunk), within as u64, piece)
            })
            .collect();
        if items.is_empty() {
            return Ok(());
        }
        for res in self.store.put_range_many(port, items) {
            res.map_err(map_os_err)?;
        }
        Ok(())
    }

    /// Delete data chunks beyond `new_size` (truncate) given the previous
    /// size.
    pub fn truncate_data(&self, port: &Port, ino: Ino, old: u64, new: u64) -> FsResult<()> {
        truncate_chunks(&*self.store, self.chunk_size, port, ino, old, new)
    }

    /// Delete every data chunk of a file of the given size with one
    /// batched multi-DELETE.
    pub fn delete_data(&self, port: &Port, ino: Ino, size: u64) -> FsResult<()> {
        delete_chunks(&*self.store, port, ino, 0..size.div_ceil(self.chunk_size))
    }
}

/// Split `len` bytes at byte `offset` of a chunked file at the chunk
/// boundaries: per chunk touched, its index, the offset within it and
/// the range of the request's buffer that falls into it.
pub fn chunk_spans(chunk_size: u64, offset: u64, len: usize) -> impl Iterator<Item = ChunkSpan> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        let pos = offset + done as u64;
        let within = (pos % chunk_size) as usize;
        let n = (chunk_size as usize - within).min(len - done);
        done += n;
        (n > 0).then_some((pos / chunk_size, within, done - n..done))
    })
}

/// One of [`chunk_spans`]' items.
pub type ChunkSpan = (u64, usize, std::ops::Range<usize>);

/// Fill the `spans` of `buf` from the chunks of `ino` with ranged reads
/// fanned out in one batched call: the caller waits for the slowest
/// chunk, not the sum. Whatever the store does not have reads as zeros
/// (sparse files).
pub fn read_spans(
    store: &dyn ObjectStore,
    port: &Port,
    ino: Ino,
    spans: &[ChunkSpan],
    buf: &mut [u8],
) -> FsResult<()> {
    let reqs: Vec<_> = spans
        .iter()
        .map(|(chunk, within, span)| {
            (
                ObjectKey::data_chunk(ino, *chunk),
                *within as u64,
                span.len(),
            )
        })
        .collect();
    let results = store.get_range_many(port, &reqs);
    for ((_, _, span), res) in spans.iter().zip(results) {
        let out = &mut buf[span.clone()];
        match res {
            Ok(data) => {
                out[..data.len()].copy_from_slice(&data);
                // Anything past the stored chunk tail is sparse zero.
                out[data.len()..].fill(0);
            }
            Err(OsError::NotFound) => out.fill(0),
            Err(e) => return Err(map_os_err(e)),
        }
    }
    Ok(())
}

/// Batched multi-DELETE of a file's chunks `range`; missing ones are fine.
fn delete_chunks(
    store: &dyn ObjectStore,
    port: &Port,
    ino: Ino,
    range: std::ops::Range<u64>,
) -> FsResult<()> {
    let keys: Vec<ObjectKey> = range.map(|i| ObjectKey::data_chunk(ino, i)).collect();
    if keys.is_empty() {
        return Ok(());
    }
    for res in store.delete_many(port, &keys) {
        match res {
            Ok(()) | Err(OsError::NotFound) => {}
            Err(e) => return Err(map_os_err(e)),
        }
    }
    Ok(())
}

/// Shrink a file's data objects from `old_size` to `new_size`: delete the
/// chunks past the new end and trim the boundary chunk. (Shared with the
/// baselines' data path, which chunks files the same way.)
pub fn truncate_chunks(
    store: &dyn ObjectStore,
    chunk_size: u64,
    port: &Port,
    ino: Ino,
    old_size: u64,
    new_size: u64,
) -> FsResult<()> {
    if new_size >= old_size {
        return Ok(());
    }
    let last = old_size.div_ceil(chunk_size);
    delete_chunks(store, port, ino, new_size.div_ceil(chunk_size)..last)?;
    // Trim the partial boundary chunk if any bytes survive in it.
    if !new_size.is_multiple_of(chunk_size) && new_size / chunk_size < last {
        let keep = (new_size % chunk_size) as usize;
        let key = ObjectKey::data_chunk(ino, new_size / chunk_size);
        match store.get(port, key) {
            Ok(data) if data.len() > keep => {
                store
                    .put(port, key, data.slice(..keep))
                    .map_err(map_os_err)?;
            }
            Ok(_) | Err(OsError::NotFound) => {}
            Err(e) => return Err(map_os_err(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
    use arkfs_vfs::FileType;

    fn rados_prt() -> Prt {
        Prt::new(Arc::new(ObjectCluster::new(ClusterConfig::test_tiny())), 16)
    }

    fn s3_prt() -> Prt {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        Prt::new(Arc::new(ObjectCluster::new(cfg)), 16)
    }

    #[test]
    fn inode_store_load_delete() {
        let prt = rados_prt();
        let port = Port::new();
        let rec = InodeRecord::new(55, FileType::Regular, 0o600, 1, 1, 0);
        prt.store_inode(&port, &rec).unwrap();
        assert_eq!(prt.load_inode(&port, 55).unwrap(), rec);
        prt.delete_inode(&port, 55).unwrap();
        assert_eq!(prt.load_inode(&port, 55), Err(FsError::NotFound));
        // Idempotent delete.
        prt.delete_inode(&port, 55).unwrap();
    }

    #[test]
    fn missing_bucket_is_empty() {
        let prt = rados_prt();
        let port = Port::new();
        assert_eq!(
            prt.load_bucket(&port, 1, 0).unwrap(),
            DentryBlock::default()
        );
    }

    #[test]
    fn empty_bucket_store_deletes_object() {
        let prt = rados_prt();
        let port = Port::new();
        let mut block = DentryBlock::default();
        block.entries.push(crate::meta::DentryEntry {
            name: "x".into(),
            ino: 9,
            ftype: FileType::Regular,
        });
        prt.store_bucket(&port, 1, 0, &block).unwrap();
        assert_eq!(prt.load_bucket(&port, 1, 0).unwrap(), block);
        prt.store_bucket(&port, 1, 0, &DentryBlock::default())
            .unwrap();
        assert_eq!(
            prt.load_bucket(&port, 1, 0).unwrap(),
            DentryBlock::default()
        );
    }

    #[test]
    fn data_write_read_across_chunks() {
        let prt = rados_prt(); // 16-byte chunks
        let port = Port::new();
        let data: Vec<u8> = (0..50u8).collect();
        prt.write_data(&port, 7, 3, &data).unwrap();
        let mut buf = vec![0u8; 50];
        let n = prt.read_data(&port, 7, 3, &mut buf, 53).unwrap();
        assert_eq!(n, 50);
        assert_eq!(buf, data);
        // The first 3 bytes are sparse zeros.
        let mut head = [1u8; 3];
        prt.read_data(&port, 7, 0, &mut head, 53).unwrap();
        assert_eq!(head, [0, 0, 0]);
    }

    #[test]
    fn read_past_eof_truncates() {
        let prt = rados_prt();
        let port = Port::new();
        prt.write_data(&port, 7, 0, b"hello").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(prt.read_data(&port, 7, 0, &mut buf, 5).unwrap(), 5);
        assert_eq!(prt.read_data(&port, 7, 5, &mut buf, 5).unwrap(), 0);
        assert_eq!(prt.read_data(&port, 7, 3, &mut buf, 5).unwrap(), 2);
        assert_eq!(&buf[..2], b"lo");
    }

    #[test]
    fn s3_fallback_read_modify_write() {
        let prt = s3_prt();
        let port = Port::new();
        prt.write_data(&port, 7, 0, b"0123456789abcdef").unwrap(); // exactly one chunk
        prt.write_data(&port, 7, 4, b"XY").unwrap(); // sub-chunk write → RMW
        let mut buf = vec![0u8; 16];
        prt.read_data(&port, 7, 0, &mut buf, 16).unwrap();
        assert_eq!(&buf, b"0123XY6789abcdef");
        // Cross-chunk write on S3.
        prt.write_data(&port, 7, 14, b"PQRS").unwrap();
        let mut buf = vec![0u8; 18];
        prt.read_data(&port, 7, 0, &mut buf, 18).unwrap();
        assert_eq!(&buf[14..], b"PQRS");
    }

    #[test]
    fn sparse_chunks_read_zero() {
        let prt = rados_prt();
        let port = Port::new();
        // Write only chunk 2 (offset 32..), size 48.
        prt.write_data(&port, 9, 32, &[7u8; 16]).unwrap();
        let mut buf = vec![1u8; 48];
        assert_eq!(prt.read_data(&port, 9, 0, &mut buf, 48).unwrap(), 48);
        assert!(buf[..32].iter().all(|&b| b == 0));
        assert!(buf[32..].iter().all(|&b| b == 7));
    }

    #[test]
    fn truncate_deletes_tail_chunks_and_trims_boundary() {
        let prt = rados_prt();
        let port = Port::new();
        let data = vec![9u8; 64]; // 4 chunks
        prt.write_data(&port, 3, 0, &data).unwrap();
        prt.truncate_data(&port, 3, 64, 20).unwrap();
        // Chunks 2,3 deleted; chunk 1 trimmed to 4 bytes.
        let mut buf = vec![0u8; 64];
        let n = prt.read_data(&port, 3, 0, &mut buf, 20).unwrap();
        assert_eq!(n, 20);
        assert!(buf[..20].iter().all(|&b| b == 9));
        assert_eq!(
            prt.store()
                .head(&port, ObjectKey::data_chunk(3, 1))
                .unwrap(),
            4
        );
        assert!(prt
            .store()
            .head(&port, ObjectKey::data_chunk(3, 2))
            .is_err());
        // Growing truncate is a no-op on data.
        prt.truncate_data(&port, 3, 20, 100).unwrap();
    }

    #[test]
    fn delete_data_removes_all_chunks() {
        let prt = rados_prt();
        let port = Port::new();
        prt.write_data(&port, 4, 0, &[1u8; 40]).unwrap();
        prt.delete_data(&port, 4, 40).unwrap();
        let mut buf = [5u8; 8];
        prt.read_data(&port, 4, 0, &mut buf, 40).unwrap();
        assert_eq!(buf, [0u8; 8]); // all sparse now
    }

    #[test]
    fn journal_stream_roundtrip() {
        let prt = rados_prt();
        let port = Port::new();
        prt.put_journal(&port, 10, 0, Bytes::from_static(b"t0"))
            .unwrap();
        prt.put_journal(&port, 10, 2, Bytes::from_static(b"t2"))
            .unwrap();
        prt.put_journal(&port, 10, 1, Bytes::from_static(b"t1"))
            .unwrap();
        assert_eq!(prt.list_journal(&port, 10).unwrap(), vec![0, 1, 2]);
        assert_eq!(
            prt.get_journal(&port, 10, 1).unwrap(),
            Bytes::from_static(b"t1")
        );
        prt.delete_journal(&port, 10, 0).unwrap();
        assert_eq!(prt.list_journal(&port, 10).unwrap(), vec![1, 2]);
        // Other directory's journal is separate.
        assert!(prt.list_journal(&port, 11).unwrap().is_empty());
    }

    #[test]
    fn pmap_roundtrip_and_bucket_sweep() {
        let prt = rados_prt();
        let port = Port::new();
        assert_eq!(prt.load_pmap(&port, 5).unwrap(), None);
        let map = PartitionMap {
            dir: 5,
            epoch: 2,
            partitions: 4,
        };
        prt.store_pmap(&port, &map).unwrap();
        assert_eq!(prt.load_pmap(&port, 5).unwrap(), Some(map));
        let (ino, got) = prt.load_inode_and_pmap(&port, 5).unwrap();
        assert_eq!(ino, None);
        assert_eq!(got, Some(map));
        // rmdir's dentry sweep removes the map along with the buckets.
        prt.delete_buckets(&port, 5).unwrap();
        assert_eq!(prt.load_pmap(&port, 5).unwrap(), None);
        prt.delete_pmap(&port, 5).unwrap(); // idempotent
    }

    #[test]
    fn grouped_journal_append_lands_per_stream() {
        let prt = rados_prt();
        let port = Port::new();
        prt.put_journal_many(
            &port,
            &[
                (20, 0, Bytes::from_static(b"a")),
                (21, 0, Bytes::from_static(b"b")),
                (20, 1, Bytes::from_static(b"c")),
            ],
        )
        .unwrap();
        assert_eq!(prt.list_journal(&port, 20).unwrap(), vec![0, 1]);
        assert_eq!(prt.list_journal(&port, 21).unwrap(), vec![0]);
        assert_eq!(
            prt.get_journal(&port, 21, 0).unwrap(),
            Bytes::from_static(b"b")
        );
    }
}
