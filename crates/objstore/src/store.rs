//! The REST-shaped object store trait.

use crate::error::{OsError, OsResult};
use crate::key::{KeyKind, ObjectKey};
use crate::profile::StoreProfile;
use arkfs_simkit::Port;
use bytes::Bytes;

/// A distributed object store as ArkFS sees it: GET/PUT/DELETE/HEAD/LIST
/// plus the ranged variants the backend profile permits.
///
/// Every call charges its virtual-time cost (network, service, disk) to
/// the caller's [`Port`] and blocks the calling thread only for the real
/// in-memory work.
pub trait ObjectStore: Send + Sync {
    /// The backend's semantic/cost profile.
    fn profile(&self) -> &StoreProfile;

    /// (object count, logical bytes) currently stored — `df` support.
    fn usage(&self) -> (u64, u64) {
        (0, 0)
    }

    /// (batched calls issued, total items across them) — diagnostics for
    /// the pipelined multi-ops. Backends that don't track them report
    /// zeros.
    fn batch_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The deployment-wide telemetry handle (registry + span tracer)
    /// this store records into, if it has one. Everything layered above
    /// a store adopts this handle so one registry covers the stack.
    fn telemetry(&self) -> Option<&std::sync::Arc<arkfs_telemetry::Telemetry>> {
        None
    }

    /// PUT a whole object (creates or replaces).
    fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()>;

    /// GET a whole object.
    fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes>;

    /// GET `len` bytes at `offset`. Reading past EOF truncates; an offset
    /// at or past EOF returns an empty buffer. Errors with `Unsupported`
    /// if the profile lacks ranged reads.
    fn get_range(&self, port: &Port, key: ObjectKey, offset: u64, len: usize) -> OsResult<Bytes>;

    /// Write `data` at `offset` within an object, creating it or extending
    /// it (zero-filled gap) as needed. Errors with `Unsupported` on
    /// profiles without partial writes (S3).
    fn put_range(&self, port: &Port, key: ObjectKey, offset: u64, data: Bytes) -> OsResult<()>;

    /// DELETE an object. `NotFound` if it does not exist.
    fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()>;

    /// HEAD: object size in bytes.
    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64>;

    /// LIST keys, optionally filtered by kind and/or inode. Results are
    /// sorted. (Flat-namespace prefix listing, as on S3/RADOS.)
    fn list(
        &self,
        port: &Port,
        kind: Option<KeyKind>,
        ino: Option<u128>,
    ) -> OsResult<Vec<ObjectKey>>;

    /// Pipelined multi-GET: issue all requests concurrently; the caller
    /// waits for the *last* completion instead of the sum (this is what
    /// makes read-ahead pay off). The default falls back to sequential
    /// GETs; clustered implementations override it.
    fn get_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<Bytes>> {
        keys.iter().map(|&k| self.get(port, k)).collect()
    }

    /// Asynchronous multi-GET: all requests depart at `arrival`, and each
    /// key reports its own completion time instead of advancing a port.
    /// This is the substrate for *asynchronous read-ahead* (§III-D of the
    /// paper): the prefetcher issues these and the application only waits
    /// when it actually touches a chunk before its completion.
    fn get_each(&self, arrival: u64, keys: &[ObjectKey]) -> Vec<OsResult<(Bytes, u64)>> {
        keys.iter()
            .map(|&k| {
                let port = Port::starting_at(arrival);
                self.get(&port, k).map(|b| (b, port.now()))
            })
            .collect()
    }

    /// Asynchronous multi-PUT, the write twin of
    /// [`ObjectStore::get_each`]: every item departs at `depart` and
    /// reports when its ack reaches the caller instead of advancing a
    /// port. This is the substrate for *write-behind* of dirty cache
    /// evictions: the writer goes on and only waits for an ack when it
    /// needs the slot the PUT holds.
    fn put_each(&self, depart: u64, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<u64>> {
        items
            .into_iter()
            .map(|(k, d)| {
                let port = Port::starting_at(depart);
                self.put(&port, k, d).map(|()| port.now())
            })
            .collect()
    }

    /// Asynchronous multi-DELETE, the DELETE twin of
    /// [`ObjectStore::put_each`]: every key departs at `depart` and
    /// reports when its ack reaches the caller, with its result. This is
    /// the substrate for purging a removed file's chunks behind the
    /// caller.
    fn delete_each(&self, depart: u64, keys: &[ObjectKey]) -> Vec<(u64, OsResult<()>)> {
        keys.iter()
            .map(|&k| {
                let port = Port::starting_at(depart);
                let r = self.delete(&port, k);
                (port.now(), r)
            })
            .collect()
    }

    /// Pipelined multi-PUT (cache write-back flushes).
    fn put_many(&self, port: &Port, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<()>> {
        items
            .into_iter()
            .map(|(k, d)| self.put(port, k, d))
            .collect()
    }

    /// Pipelined ranged multi-GET: one `(key, offset, len)` request per
    /// item, all issued concurrently. Per-item semantics match
    /// [`ObjectStore::get_range`]. The default falls back to sequential
    /// ranged GETs; clustered implementations override it.
    fn get_range_many(
        &self,
        port: &Port,
        reqs: &[(ObjectKey, u64, usize)],
    ) -> Vec<OsResult<Bytes>> {
        reqs.iter()
            .map(|&(key, offset, len)| self.get_range(port, key, offset, len))
            .collect()
    }

    /// Pipelined ranged multi-PUT: write each item's `data` at `offset`
    /// within its object. Unlike [`ObjectStore::put_range`] this never
    /// fails with `Unsupported`: backends without partial writes (the S3
    /// profile) degrade per item to read-modify-write of the whole
    /// object, which is exactly the S3FS behavior the paper describes —
    /// confined to one chunk object rather than the whole file.
    fn put_range_many(
        &self,
        port: &Port,
        items: Vec<(ObjectKey, u64, Bytes)>,
    ) -> Vec<OsResult<()>> {
        items
            .into_iter()
            .map(
                |(key, offset, data)| match self.put_range(port, key, offset, data.clone()) {
                    Err(OsError::Unsupported(_)) => {
                        let mut whole = match self.get(port, key) {
                            Ok(existing) => Vec::from(existing),
                            Err(OsError::NotFound) => Vec::new(),
                            Err(e) => return Err(e),
                        };
                        let end = offset as usize + data.len();
                        if whole.len() < end {
                            whole.resize(end, 0);
                        }
                        whole[offset as usize..end].copy_from_slice(&data);
                        self.put(port, key, Bytes::from(whole))
                    }
                    r => r,
                },
            )
            .collect()
    }

    /// Pipelined multi-DELETE. Per-item results report `NotFound` for
    /// missing objects without failing the batch.
    fn delete_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<()>> {
        keys.iter().map(|&k| self.delete(port, k)).collect()
    }
}
