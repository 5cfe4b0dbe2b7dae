//! The REST-shaped object store trait.

use crate::error::{OsError, OsResult};
use crate::key::{KeyKind, ObjectKey};
use crate::profile::StoreProfile;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{BATCH_TID, PID_STORE};
use bytes::Bytes;

/// A distributed object store as ArkFS sees it: GET/PUT/DELETE/HEAD/LIST
/// plus the ranged variants the backend profile permits.
///
/// A batch call (the five `*_each`) reports the ack of each item; HEAD
/// and LIST charge their virtual-time cost (network, service, disk) to
/// the caller's [`Port`], and so do the single-object verbs. Each of
/// those is a one-item batch, waited for by the rule DESIGN.md §5
/// "Batched data path" assumes: a success waits for its ack, a DELETE
/// whatever it found, and a GET miss, a refused PUT or a profile refusal
/// costs the caller nothing. Every call blocks the calling thread only
/// for the real in-memory work.
pub trait ObjectStore: Send + Sync {
    /// The backend's semantic/cost profile.
    fn profile(&self) -> &StoreProfile;

    /// (object count, logical bytes) currently stored — `df` support.
    fn usage(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The deployment-wide telemetry handle (registry + span tracer)
    /// this store records into, if it has one. Everything layered above
    /// a store adopts this handle so one registry covers the stack.
    fn telemetry(&self) -> Option<&std::sync::Arc<arkfs_telemetry::Telemetry>> {
        None
    }

    /// PUT a whole object (creates or replaces): a one-item
    /// [`ObjectStore::put_each`].
    fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()> {
        wait_one(port, false, self.put_each(port.now(), vec![(key, data)]))
    }

    /// GET a whole object: a one-item [`ObjectStore::get_each`].
    fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes> {
        wait_one(port, false, self.get_each(port.now(), &[key]))
    }

    /// GET `len` bytes at `offset`. Reading past EOF truncates; an offset
    /// at or past EOF returns an empty buffer. Errors with `Unsupported`
    /// if the profile lacks ranged reads. A one-item
    /// [`ObjectStore::get_range_each`].
    fn get_range(&self, port: &Port, key: ObjectKey, offset: u64, len: usize) -> OsResult<Bytes> {
        let reqs = [(key, offset, len)];
        wait_one(port, false, self.get_range_each(port.now(), &reqs))
    }

    /// Write `data` at `offset` within an object, creating it or extending
    /// it (zero-filled gap) as needed. Errors with `Unsupported` on
    /// profiles without partial writes (S3), writing nothing; elsewhere a
    /// one-item [`ObjectStore::put_range_each`].
    fn put_range(&self, port: &Port, key: ObjectKey, offset: u64, data: Bytes) -> OsResult<()> {
        if !self.profile().partial_writes {
            return Err(OsError::Unsupported("ranged write"));
        }
        let items = vec![(key, offset, data)];
        wait_one(port, false, self.put_range_each(port.now(), items))
    }

    /// DELETE an object. `NotFound` if it does not exist. A one-item
    /// [`ObjectStore::delete_each`].
    fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()> {
        wait_one(port, true, self.delete_each(port.now(), &[key]))
    }

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

    // ---- batches ----------------------------------------------------
    //
    // A batch departs at the caller's clock `depart`; all its items
    // reach the store together, one outbound half RTT later, and each
    // reports, in request order, when its ack reaches the caller and its
    // result, without advancing any port. A caller that needs every
    // result waits through [`wait_last`]; one that goes on (read-ahead,
    // write-behind, purge) keeps the acks. A failed item is acked at the
    // floor a waiting caller pays for it: a GET miss at its arrival, a
    // refused PUT half an RTT after it.

    /// GET every key. This is the substrate for *asynchronous
    /// read-ahead* (§III-D of the paper): the reader only waits when it
    /// touches a chunk before its ack.
    fn get_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<Bytes>;

    /// Ranged GET of `(key, offset, len)` per item, with
    /// [`ObjectStore::get_range`]'s semantics. On a profile without
    /// ranged reads every item fails `Unsupported`, acked at `depart`.
    fn get_range_each(&self, depart: Nanos, reqs: &[(ObjectKey, u64, usize)]) -> Acked<Bytes>;

    /// PUT every item. This is the substrate for *write-behind* of dirty
    /// cache evictions: the writer only waits for an ack when it needs
    /// the slot the PUT holds.
    fn put_each(&self, depart: Nanos, items: Vec<(ObjectKey, Bytes)>) -> Acked<()>;

    /// Write each item's `data` at `offset` within its object. Unlike
    /// [`ObjectStore::put_range`] this never fails with `Unsupported`:
    /// backends without partial writes (the S3 profile) degrade per item
    /// to read-modify-write of the whole object, which is exactly the
    /// S3FS behavior the paper describes — confined to one chunk object
    /// rather than the whole file.
    fn put_range_each(&self, depart: Nanos, items: Vec<(ObjectKey, u64, Bytes)>) -> Acked<()>;

    /// DELETE every key; a missing one reports `NotFound` without failing
    /// the batch.
    fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<()>;
}

/// Per item of a batch, in request order: when its ack reaches the
/// caller, and its result.
pub type Acked<T> = Vec<(Nanos, OsResult<T>)>;

/// How a single-object verb waits for its one-item batch (the rule in
/// [`ObjectStore`]'s doc; `always` for a DELETE).
fn wait_one<T>(port: &Port, always: bool, acked: Acked<T>) -> OsResult<T> {
    let (ack, result) = acked.into_iter().next().expect("one item, one ack");
    if always || result.is_ok() {
        port.wait_until(ack);
    }
    result
}

/// A batch verb, named by the whole-batch span [`wait_last`] records.
#[derive(Debug, Clone, Copy)]
pub enum BatchSpan {
    Get,
    GetRange,
    Put,
    PutRange,
    Delete,
}

/// The one way a caller waits for a batch: it departs at `port`'s
/// clock, and the port moves to the last item's ack. The store's tracer
/// records the batch as one `store.*_many` span on its batch track, from
/// its arrival at the store to its last completion there (a read's to
/// its last ack, the data being back).
pub fn wait_last<T>(
    store: &dyn ObjectStore,
    port: &Port,
    span: BatchSpan,
    batch: impl FnOnce(Nanos) -> Acked<T>,
) -> Vec<OsResult<T>> {
    let depart = port.now();
    let mut last = depart;
    let out: Vec<_> = batch(depart)
        .into_iter()
        .map(|(ack, r)| {
            last = last.max(ack);
            r
        })
        .collect();
    port.wait_until(last);
    if let Some(t) = store
        .telemetry()
        .filter(|t| !out.is_empty() && t.tracer.enabled())
    {
        let half_rtt = store.profile().net_half_rtt;
        let written = last.saturating_sub(half_rtt);
        let (name, end) = match span {
            BatchSpan::Get => ("store.get_many", last),
            BatchSpan::GetRange => ("store.get_range_many", last),
            BatchSpan::Put => ("store.put_many", written),
            BatchSpan::PutRange => ("store.put_range_many", written),
            BatchSpan::Delete => ("store.delete_many", written),
        };
        // A batch the profile refused at the caller never reached the store.
        let start = depart + half_rtt;
        if end >= start {
            t.tracer
                .record(PID_STORE, BATCH_TID, name, "store", start, end);
        }
    }
    out
}
