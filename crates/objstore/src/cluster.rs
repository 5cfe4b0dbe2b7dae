//! The sharded, replicated in-memory object cluster.

use crate::error::{OsError, OsResult};
use crate::fault::FaultPlan;
use crate::key::{KeyKind, ObjectKey};
use crate::profile::StoreProfile;
use crate::store::{Acked, ObjectStore};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{BandwidthResource, ClusterSpec, Nanos, Port, SharedResource};
use arkfs_telemetry::{Counter, Registry, Telemetry, PID_STORE};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::Arc;

/// Construction parameters for an [`ObjectCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Storage nodes (shards). The paper's testbed has 16.
    pub shards: usize,
    /// Copies of every object (1 = no replication). Writes pay for every
    /// replica; reads hit the primary.
    pub replication: usize,
    /// Backend semantics and per-op service time.
    pub profile: StoreProfile,
    /// Cost-model constants (network/disk bandwidths).
    pub spec: ClusterSpec,
    /// When set, data-chunk payloads are not stored — only their length —
    /// so stress-scale benchmarks fit in memory. GETs of discarded
    /// payloads return zero bytes.
    pub discard_payload: bool,
}

impl ClusterConfig {
    /// RADOS-profile cluster with the paper's spec. Table I lists 4 EBS
    /// disks per storage node and the paper deploys "Ceph RADOS on 64
    /// OSDs", so the shard count is 4× the node count.
    pub fn rados(spec: ClusterSpec) -> Self {
        ClusterConfig {
            shards: spec.storage_nodes * 4,
            replication: 2,
            profile: StoreProfile::rados(&spec),
            spec,
            discard_payload: false,
        }
    }

    /// S3-profile cluster with the paper's spec. S3 is a massively
    /// partitioned service; model the same shard parallelism as RADOS.
    pub fn s3(spec: ClusterSpec) -> Self {
        ClusterConfig {
            profile: StoreProfile::s3(&spec),
            ..Self::rados(spec)
        }
    }

    /// Small fast cluster for unit tests.
    pub fn test_tiny() -> Self {
        let spec = ClusterSpec::test_tiny();
        ClusterConfig {
            shards: 2,
            replication: 1,
            profile: StoreProfile::rados(&spec),
            spec,
            discard_payload: false,
        }
    }

    pub fn with_discard_payload(mut self, on: bool) -> Self {
        self.discard_payload = on;
        self
    }

    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r.max(1);
        self
    }
}

/// Stored payload: real bytes or a synthetic length. A `Real` buffer is
/// the one the PUT carried, shared by every replica and by every GET that
/// returns it: shared means immutable (see
/// [`ObjectCluster::apply_range_write`]).
#[derive(Debug, Clone)]
enum Payload {
    Real(Bytes),
    Synthetic(u64),
}

/// `len` zero bytes (synthetic payloads, holes): a window of one shared
/// buffer that only ever grows, so such a read allocates nothing.
pub fn zeros(len: usize) -> Bytes {
    static ZEROS: std::sync::Mutex<Bytes> = std::sync::Mutex::new(Bytes::new());
    let mut z = ZEROS.lock().expect("zeros lock poisoned");
    if z.len() < len {
        *z = Bytes::from(vec![0u8; len.next_power_of_two()]);
    }
    z.slice(..len)
}

impl Payload {
    /// Object size this payload describes.
    fn len(&self) -> u64 {
        match self {
            Payload::Real(v) => v.len() as u64,
            Payload::Synthetic(n) => *n,
        }
    }
}

/// One storage node: its object map, op server, and disk.
struct Shard {
    objects: RwLock<HashMap<ObjectKey, Payload>>,
    op_server: SharedResource,
    /// Journal writes are what an `fsync` waits for; the op queue serves
    /// them ahead of queued home-object writes (a strict-priority class).
    /// They queue here, behind each other only, and still book their
    /// service time on `op_server`, so the shard's capacity is unchanged
    /// and every other op sees exactly the load it saw without the class.
    journal_lane: SharedResource,
    disk: BandwidthResource,
}

/// Aggregate operation counters. These are handles into the cluster's
/// telemetry [`Registry`] (under `store.*` names), kept as named fields
/// so hot-path increments skip the registry map entirely.
#[derive(Debug)]
pub struct ClusterStats {
    pub gets: Arc<Counter>,
    pub puts: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub lists: Arc<Counter>,
    pub bytes_in: Arc<Counter>,
    pub bytes_out: Arc<Counter>,
    /// Non-empty batch calls (the five `*_each`).
    pub batch_calls: Arc<Counter>,
    /// Total items carried by those batched calls.
    pub batch_items: Arc<Counter>,
}

impl ClusterStats {
    fn attached(reg: &Registry) -> Self {
        ClusterStats {
            gets: reg.counter("store.get.count"),
            puts: reg.counter("store.put.count"),
            deletes: reg.counter("store.delete.count"),
            lists: reg.counter("store.list.count"),
            bytes_in: reg.counter("store.write.bytes"),
            bytes_out: reg.counter("store.read.bytes"),
            batch_calls: reg.counter("store.batch.calls"),
            batch_items: reg.counter("store.batch.items"),
        }
    }

    fn count_batch(&self, items: usize) {
        if items > 0 {
            self.batch_calls.inc();
            self.batch_items.add(items as u64);
        }
    }
}

/// A sharded, replicated, in-memory object storage cluster charging
/// virtual-time costs to each caller's [`Port`].
pub struct ObjectCluster {
    config: ClusterConfig,
    shards: Vec<Shard>,
    /// Shared front network into the store (aggregate ingest/egress).
    net: BandwidthResource,
    pub faults: FaultPlan,
    pub stats: ClusterStats,
    telemetry: Arc<Telemetry>,
}

impl ObjectCluster {
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.shards > 0, "cluster needs at least one shard");
        assert!(config.replication >= 1 && config.replication <= config.shards);
        let shards = (0..config.shards)
            .map(|_| Shard {
                objects: RwLock::new(HashMap::default()),
                op_server: SharedResource::ideal("osd-op"),
                journal_lane: SharedResource::ideal("osd-op-journal"),
                disk: BandwidthResource::new("osd-disk", config.spec.disk_bw),
            })
            .collect();
        let net = BandwidthResource::new("store-net", config.spec.store_net_bw);
        let telemetry = Telemetry::new();
        let stats = ClusterStats::attached(&telemetry.registry);
        ObjectCluster {
            config,
            shards,
            net,
            faults: FaultPlan::new(),
            stats,
            telemetry,
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Total number of stored objects across all shards.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.objects.read().len()).sum()
    }

    /// Reset every timing resource (op servers, disks, front network) to
    /// idle without touching stored objects — lets tests and benchmarks
    /// measure an operation against a warm store on a cold timeline.
    pub fn reset_timelines(&self) {
        for shard in &self.shards {
            shard.op_server.reset();
            shard.journal_lane.reset();
            shard.disk.reset();
        }
        self.net.reset();
    }

    /// Total stored bytes (logical, including synthetic lengths).
    pub fn stored_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.objects.read().values().map(Payload::len).sum::<u64>())
            .sum()
    }

    /// Shards an object's copies live on, primary first.
    fn replica_shards(&self, key: &ObjectKey) -> impl Iterator<Item = usize> {
        let n = self.config.shards;
        let primary = key.shard(n);
        (0..self.config.replication).map(move |i| (primary + i) % n)
    }

    /// Read an object's contents, tolerating shard failures: a read
    /// fails over to the next copy. Returns (bytes — `None` for synthetic
    /// payloads —, length, the shard read from).
    fn load_logical(&self, key: ObjectKey) -> OsResult<(Option<Bytes>, u64, usize)> {
        if self.faults.is_lost(key) {
            return Err(OsError::NotFound);
        }
        for idx in self.replica_shards(&key) {
            if self.faults.is_shard_down(idx) {
                continue;
            }
            match self.shards[idx].objects.read().get(&key) {
                Some(Payload::Real(v)) => return Ok((Some(v.clone()), v.len() as u64, idx)),
                Some(Payload::Synthetic(n)) => return Ok((None, *n, idx)),
                None => {}
            }
        }
        Err(OsError::NotFound)
    }

    /// Virtual cost of reading `bytes` from shard `idx`, departing at
    /// `arrival`. Returns the completion time.
    fn charge_read_from(&self, arrival: Nanos, idx: usize, bytes: u64) -> Nanos {
        let shard = &self.shards[idx];
        let t1 = shard
            .op_server
            .reserve(arrival, self.config.profile.op_service)
            + self.config.profile.op_latency;
        let mut done = if bytes > 0 {
            shard.disk.transfer(t1, bytes)
        } else {
            t1
        };
        if self.telemetry.tracer.enabled() {
            self.telemetry.tracer.record(
                PID_STORE,
                idx as u32,
                "shard.read",
                "store",
                arrival,
                done,
            );
        }
        if bytes > 0 {
            done = self.net.transfer(done, bytes);
        }
        done + self.config.profile.net_half_rtt
    }

    /// Virtual cost of one write departing at `depart`: the network
    /// carries every copy, then copies land on their shards in parallel —
    /// completion is the max. Returns the completion time without
    /// advancing any port, so batched writes can overlap.
    fn charge_write_at(&self, depart: Nanos, key: &ObjectKey, bytes: u64) -> Nanos {
        let wire_bytes = bytes * self.config.replication as u64;
        let t1 = if bytes > 0 {
            self.net.transfer(depart, wire_bytes)
        } else {
            depart
        };
        let mut done = t1;
        let traced = self.telemetry.tracer.enabled();
        for idx in self.replica_shards(key) {
            let shard = &self.shards[idx];
            let service = self.config.profile.op_service;
            let queued = shard.op_server.reserve(t1, service);
            let served = if key.kind == KeyKind::Journal && bytes > 0 {
                queued.min(shard.journal_lane.reserve(t1, service))
            } else {
                queued
            };
            let t2 = served + self.config.profile.op_latency;
            let t3 = if bytes > 0 {
                shard.disk.transfer(t2, bytes)
            } else {
                t2
            };
            if traced {
                self.telemetry
                    .tracer
                    .record(PID_STORE, idx as u32, "shard.write", "store", t1, t3);
            }
            done = done.max(t3);
        }
        done
    }

    /// Charge a HEAD or LIST: one op at `key`'s primary, no bytes moved.
    fn charge_op(&self, port: &Port, key: &ObjectKey) {
        let half_rtt = self.config.profile.net_half_rtt;
        let shard = &self.shards[key.shard(self.config.shards)];
        let served =
            (shard.op_server).reserve(port.advance(half_rtt), self.config.profile.op_service);
        port.wait_until(served + self.config.profile.op_latency + half_rtt);
    }

    /// Apply a ranged write to every replica's in-memory object, each
    /// under its own shard lock (discard mode only tracks the resulting
    /// length).
    fn apply_range_write(&self, key: ObjectKey, offset: u64, data: &Bytes) {
        if self.config.discard_payload && key.kind == KeyKind::Data {
            let new_len = offset + data.len() as u64;
            for idx in self.replica_shards(&key) {
                let mut map = self.shards[idx].objects.write();
                let entry = map.entry(key).or_insert(Payload::Synthetic(0));
                let len = entry.len().max(new_len);
                *entry = Payload::Synthetic(len);
            }
            return;
        }
        let end = offset as usize + data.len();
        for idx in self.replica_shards(&key) {
            let mut map = self.shards[idx].objects.write();
            let entry = map.entry(key).or_insert(Payload::Synthetic(0));
            // A buffer some other replica, a GET result or a client cache
            // also holds must never change under them (and a torn write
            // must leave the old object): `Vec::from` hands back this
            // replica's allocation as is when it is the only holder, and
            // one private copy otherwise.
            let mut v = match std::mem::replace(entry, Payload::Synthetic(0)) {
                Payload::Real(b) => Vec::from(b),
                Payload::Synthetic(n) => vec![0u8; n as usize],
            };
            if v.len() < end {
                v.resize(end, 0);
            }
            v[offset as usize..end].copy_from_slice(data);
            *entry = Payload::Real(Bytes::from(v));
        }
    }

    /// Store an object: full copies, synthetic lengths in discard mode.
    fn store_object(&self, key: ObjectKey, data: Bytes) {
        let payload = if self.config.discard_payload && key.kind == KeyKind::Data {
            Payload::Synthetic(data.len() as u64)
        } else {
            // Every replica holds the caller's buffer: no copy.
            Payload::Real(data)
        };
        for idx in self.replica_shards(&key) {
            let copy = payload.clone();
            self.shards[idx].objects.write().insert(key, copy);
        }
    }

    /// A PUT reaching the store at `arrival`: counted, charged to every
    /// replica and stored. Returns its completion there.
    fn put_at(&self, arrival: Nanos, key: ObjectKey, data: Bytes) -> OsResult<Nanos> {
        self.faults.check_put(key)?;
        self.stats.puts.inc();
        self.stats.bytes_in.add(data.len() as u64);
        let done = self.charge_write_at(arrival, &key, data.len() as u64);
        self.store_object(key, data);
        Ok(done)
    }

    /// Price reads that depart together at `depart`, in order: a loaded
    /// item is acked when its bytes are back, a failed one at the
    /// batch's arrival.
    fn read_each(
        &self,
        depart: Nanos,
        loads: impl Iterator<Item = OsResult<(Bytes, usize)>>,
    ) -> Acked<Bytes> {
        let arrival = depart + self.config.profile.net_half_rtt;
        loads
            .map(|load| match load {
                Ok((bytes, idx)) => {
                    let done = self.charge_read_from(arrival, idx, bytes.len() as u64);
                    (done, Ok(bytes))
                }
                Err(e) => (arrival, Err(e)),
            })
            .collect()
    }

    /// Price writes that depart together at `depart`, in order: `write`
    /// applies one at the batch's arrival and returns its completion
    /// there; it is acked half an RTT later, a refused one half an RTT
    /// after the arrival.
    fn write_each<I>(
        &self,
        depart: Nanos,
        items: Vec<I>,
        write: impl Fn(Nanos, I) -> OsResult<Nanos>,
    ) -> Acked<()> {
        let half_rtt = self.config.profile.net_half_rtt;
        let arrival = depart + half_rtt;
        items
            .into_iter()
            .map(|item| match write(arrival, item) {
                Ok(done) => (done + half_rtt, Ok(())),
                Err(e) => (arrival + half_rtt, Err(e)),
            })
            .collect()
    }

    /// One item of a ranged batch write reaching the store at `arrival`:
    /// a ranged write where the profile has them, else a whole-object
    /// read-modify-write whose rewrite departs at the read's completion
    /// (items still overlap each other). Returns the write's completion.
    fn put_range_at(
        &self,
        arrival: Nanos,
        key: ObjectKey,
        offset: u64,
        data: &Bytes,
    ) -> OsResult<Nanos> {
        self.faults.check_put(key)?;
        if self.config.profile.partial_writes {
            self.stats.puts.inc();
            self.stats.bytes_in.add(data.len() as u64);
            let done = self.charge_write_at(arrival, &key, data.len() as u64);
            self.apply_range_write(key, offset, data);
            return Ok(done);
        }
        self.stats.gets.inc();
        let (bytes, total_len, t_read) = match self.load_logical(key) {
            Ok((bytes, len, idx)) => (bytes, len, self.charge_read_from(arrival, idx, len)),
            Err(OsError::NotFound) => (Some(Bytes::new()), 0, arrival),
            Err(e) => return Err(e),
        };
        self.stats.bytes_out.add(total_len);
        let mut whole = bytes.map_or_else(|| vec![0u8; total_len as usize], Vec::from);
        let end = offset as usize + data.len();
        if whole.len() < end {
            whole.resize(end, 0);
        }
        whole[offset as usize..end].copy_from_slice(data);
        self.stats.puts.inc();
        self.stats.bytes_in.add(whole.len() as u64);
        let done = self.charge_write_at(t_read, &key, whole.len() as u64);
        self.store_object(key, Bytes::from(whole));
        Ok(done)
    }

    /// Count a DELETE and drop every copy of the object.
    fn remove_object(&self, key: ObjectKey) -> OsResult<()> {
        self.stats.deletes.inc();
        let mut found = false;
        for idx in self.replica_shards(&key) {
            found |= self.shards[idx].objects.write().remove(&key).is_some();
        }
        found.then_some(()).ok_or(OsError::NotFound)
    }

    /// The read half of a GET: count it, load the object (zeros for a
    /// synthetic one) and name the shard to charge.
    fn load_whole(&self, key: ObjectKey) -> OsResult<(Bytes, usize)> {
        self.stats.gets.inc();
        let (bytes, total_len, idx) = self.load_logical(key)?;
        self.stats.bytes_out.add(total_len);
        Ok((bytes.unwrap_or_else(|| zeros(total_len as usize)), idx))
    }

    /// The read half of a ranged GET: a window of the stored buffer;
    /// only the requested range moves.
    fn load_range(&self, key: ObjectKey, offset: u64, len: usize) -> OsResult<(Bytes, usize)> {
        self.stats.gets.inc();
        let (bytes, total_len, idx) = self.load_logical(key)?;
        let start = offset.min(total_len) as usize;
        let end = offset.saturating_add(len as u64).min(total_len) as usize;
        let slice = match bytes {
            Some(b) => b.slice(start..end),
            None => zeros(end - start),
        };
        self.stats.bytes_out.add(slice.len() as u64);
        Ok((slice, idx))
    }
}

impl ObjectStore for ObjectCluster {
    fn profile(&self) -> &StoreProfile {
        &self.config.profile
    }

    fn usage(&self) -> (u64, u64) {
        (self.object_count() as u64, self.stored_bytes())
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        Some(&self.telemetry)
    }

    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
        if self.faults.is_lost(key) {
            return Err(OsError::NotFound);
        }
        self.charge_op(port, &key);
        // Any reachable copy knows the size.
        for idx in self.replica_shards(&key) {
            if self.faults.is_shard_down(idx) {
                continue;
            }
            if let Some(p) = self.shards[idx].objects.read().get(&key) {
                return Ok(p.len());
            }
        }
        Err(OsError::NotFound)
    }

    fn get_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<Bytes> {
        self.stats.count_batch(keys.len());
        self.read_each(depart, keys.iter().map(|&key| self.load_whole(key)))
    }

    fn get_range_each(&self, depart: Nanos, reqs: &[(ObjectKey, u64, usize)]) -> Acked<Bytes> {
        if !self.config.profile.ranged_reads {
            let refused = || (depart, Err(OsError::Unsupported("ranged read")));
            return reqs.iter().map(|_| refused()).collect();
        }
        self.stats.count_batch(reqs.len());
        let loads = reqs
            .iter()
            .map(|&(key, at, len)| self.load_range(key, at, len));
        self.read_each(depart, loads)
    }

    fn put_each(&self, depart: Nanos, items: Vec<(ObjectKey, Bytes)>) -> Acked<()> {
        self.stats.count_batch(items.len());
        self.write_each(depart, items, |arrival, (key, data)| {
            self.put_at(arrival, key, data)
        })
    }

    fn put_range_each(&self, depart: Nanos, items: Vec<(ObjectKey, u64, Bytes)>) -> Acked<()> {
        self.stats.count_batch(items.len());
        self.write_each(depart, items, |arrival, (key, offset, data)| {
            self.put_range_at(arrival, key, offset, &data)
        })
    }

    fn delete_each(&self, depart: Nanos, keys: &[ObjectKey]) -> Acked<()> {
        self.stats.count_batch(keys.len());
        let half_rtt = self.config.profile.net_half_rtt;
        let arrival = depart + half_rtt;
        keys.iter()
            .map(|&key| {
                let done = self.charge_write_at(arrival, &key, 0);
                (done + half_rtt, self.remove_object(key))
            })
            .collect()
    }

    fn list(
        &self,
        port: &Port,
        kind: Option<KeyKind>,
        ino: Option<u128>,
    ) -> OsResult<Vec<ObjectKey>> {
        self.stats.lists.inc();
        self.charge_op(port, &ObjectKey::inode(ino.unwrap_or(0)));
        let mut out = Vec::new();
        let mut seen = arkfs_simkit::hash::HashSet::default();
        for shard in &self.shards {
            for key in shard.objects.read().keys() {
                if kind.is_some_and(|k| k != key.kind) {
                    continue;
                }
                if ino.is_some_and(|i| i != key.ino) {
                    continue;
                }
                if seen.insert(*key) {
                    out.push(*key);
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{wait_last, BatchSpan};
    use arkfs_simkit::USEC;
    use proptest::prelude::*;

    fn cluster() -> ObjectCluster {
        ObjectCluster::new(ClusterConfig::test_tiny())
    }

    /// RADOS r = 2 and S3 r = 2: the deployments the ownership rule
    /// (shared => immutable) must hold on.
    fn aliasing_clusters() -> [ObjectCluster; 2] {
        let tiny = |s3: bool| {
            let mut cfg = ClusterConfig::test_tiny();
            cfg.shards = 3;
            if s3 {
                cfg.profile = StoreProfile::s3(&cfg.spec);
            }
            ObjectCluster::new(cfg.with_replication(2))
        };
        [tiny(false), tiny(true)]
    }

    /// The object reads as the model says, from every copy: each replica
    /// holds the model's bytes.
    fn assert_matches_model(c: &ObjectCluster, key: ObjectKey, model: Option<&Vec<u8>>) {
        let port = Port::new();
        let want = model
            .map(|m| Bytes::from(m.clone()))
            .ok_or(OsError::NotFound);
        assert_eq!(c.get(&port, key), want);
        for idx in c.replica_shards(&key) {
            match (c.shards[idx].objects.read().get(&key), model) {
                (Some(Payload::Real(b)), Some(m)) => assert_eq!(b, m, "replica on shard {idx}"),
                (None, None) => {}
                (got, _) => panic!("shard {idx} holds {got:?}, model {model:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Model-based aliasing test: whatever is written later, every
        /// buffer a GET handed out still equals its snapshot, replicas
        /// agree with a plain `Vec<u8>` model, and a failed PUT leaves
        /// the old bytes.
        #[test]
        fn handed_out_buffers_never_change(
            ops in prop::collection::vec(
                (0u8..8, 0u64..3, 0usize..300, 1usize..200, any::<u8>()),
                1..60,
            ),
        ) {
            for c in aliasing_clusters() {
                let port = Port::new();
                let mut model: HashMap<ObjectKey, Vec<u8>> = HashMap::default();
                let mut handed_out: Vec<(Bytes, Vec<u8>)> = Vec::new();
                for &(op, k, off, len, fill) in &ops {
                    let key = ObjectKey::data_chunk(1, k);
                    let data = Bytes::from(vec![fill; len]);
                    // Ops 5..8 are 0..3 again with the PUT made to fail.
                    let failing = op >= 5;
                    if failing {
                        c.faults.fail_next_puts(1, None);
                    }
                    let wrote = match op % 5 {
                        0 => Some((c.put(&port, key, data.clone()), 0)),
                        1 => Some((c.put_range(&port, key, off as u64, data.clone()), off)),
                        2 => {
                            let items = vec![(key, off as u64, data.clone())];
                            let acked = c.put_range_each(port.now(), items).remove(0);
                            Some((acked.1, off))
                        }
                        3 => {
                            if let Ok(got) = c.get_range(&port, key, off as u64, len) {
                                let m = &model[&key];
                                let want = &m[off.min(m.len())..(off + len).min(m.len())];
                                prop_assert_eq!(&got[..], want);
                                handed_out.push((got, want.to_vec()));
                            }
                            None
                        }
                        _ => {
                            prop_assert_eq!(c.delete(&port, key).is_ok(), model.remove(&key).is_some());
                            None
                        }
                    };
                    match wrote {
                        Some((Ok(()), at)) => {
                            prop_assert!(!failing, "an injected failure must surface");
                            let m = model.entry(key).or_default();
                            if op % 5 == 0 {
                                m.clear();
                            }
                            m.resize(m.len().max(at + len), 0);
                            m[at..at + len].copy_from_slice(&data);
                        }
                        // S3 objects take whole-object PUTs only.
                        Some((Err(OsError::Unsupported(_)), _)) => c.faults.clear(),
                        Some((Err(e), _)) => prop_assert!(failing, "unexpected {e:?}"),
                        None => c.faults.clear(),
                    }
                    assert_matches_model(&c, key, model.get(&key));
                    if let Ok(got) = c.get(&port, key) {
                        handed_out.push((got.clone(), got.to_vec()));
                    }
                    for (got, snapshot) in &handed_out {
                        prop_assert_eq!(&got[..], &snapshot[..]);
                    }
                }
            }
        }
    }

    #[test]
    fn gets_and_replicas_share_the_put_buffer() {
        let c = ObjectCluster::new(ClusterConfig::test_tiny().with_replication(2));
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        let data = Bytes::from(vec![7u8; 4096]);
        c.put(&port, key, data.clone()).unwrap();
        // One allocation: the caller's, both replicas', every GET's.
        let (a, b) = (c.get(&port, key).unwrap(), c.get(&port, key).unwrap());
        assert_eq!((a.as_ptr(), b.as_ptr()), (data.as_ptr(), data.as_ptr()));
        let window = c.get_range(&port, key, 100, 50).unwrap();
        assert_eq!(window.as_ptr(), data[100..].as_ptr());
        for shard in &c.shards {
            match shard.objects.read().get(&key) {
                Some(Payload::Real(held)) => assert_eq!(held.as_ptr(), data.as_ptr()),
                other => panic!("replica holds {other:?}"),
            }
        }
        // A ranged write never lands in the shared buffer...
        c.put_range(&port, key, 0, Bytes::from_static(b"new"))
            .unwrap();
        assert!(a.iter().all(|&x| x == 7));
        // ...but with every handle dropped, the next one is in place.
        drop((a, b, window, data));
        let before = c.get(&port, key).unwrap().as_ptr();
        c.put_range(&port, key, 8, Bytes::from_static(b"again"))
            .unwrap();
        assert_eq!(c.get(&port, key).unwrap().as_ptr(), before);
        // Synthetic and hole reads come from the one zero buffer.
        let big = zeros(1024);
        assert_eq!(zeros(64).as_ptr(), big.as_ptr());
    }

    #[test]
    fn put_get_roundtrip() {
        let c = cluster();
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        c.put(&port, key, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(c.get(&port, key).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(c.head(&port, key).unwrap(), 5);
        assert!(port.now() > 0, "virtual time must advance");
    }

    #[test]
    fn get_missing_is_not_found() {
        let c = cluster();
        let port = Port::new();
        assert_eq!(c.get(&port, ObjectKey::inode(9)), Err(OsError::NotFound));
        assert_eq!(c.head(&port, ObjectKey::inode(9)), Err(OsError::NotFound));
        assert_eq!(c.delete(&port, ObjectKey::inode(9)), Err(OsError::NotFound));
    }

    #[test]
    fn ranged_reads() {
        let c = cluster();
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        c.put(&port, key, Bytes::from_static(b"0123456789"))
            .unwrap();
        assert_eq!(
            c.get_range(&port, key, 2, 3).unwrap(),
            Bytes::from_static(b"234")
        );
        // past-EOF truncates / empties
        assert_eq!(
            c.get_range(&port, key, 8, 10).unwrap(),
            Bytes::from_static(b"89")
        );
        assert_eq!(c.get_range(&port, key, 20, 5).unwrap(), Bytes::new());
    }

    #[test]
    fn ranged_write_extends_with_zero_fill() {
        let c = cluster();
        let port = Port::new();
        let key = ObjectKey::data_chunk(2, 0);
        c.put_range(&port, key, 4, Bytes::from_static(b"abcd"))
            .unwrap();
        let data = c.get(&port, key).unwrap();
        assert_eq!(&data[..], b"\0\0\0\0abcd");
        c.put_range(&port, key, 0, Bytes::from_static(b"XY"))
            .unwrap();
        assert_eq!(&c.get(&port, key).unwrap()[..], b"XY\0\0abcd");
    }

    #[test]
    fn s3_profile_rejects_ranged_write() {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        assert_eq!(
            c.put_range(&port, key, 0, Bytes::from_static(b"x")),
            Err(OsError::Unsupported("ranged write"))
        );
        // whole-object put still works
        c.put(&port, key, Bytes::from_static(b"x")).unwrap();
    }

    #[test]
    fn replication_survives_primary_loss() {
        let cfg = ClusterConfig::test_tiny().with_replication(2);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::inode(77);
        c.put(&port, key, Bytes::from_static(b"meta")).unwrap();
        // Both shards hold a copy.
        let copies: usize = c
            .shards
            .iter()
            .map(|s| s.objects.read().contains_key(&key) as usize)
            .sum();
        assert_eq!(copies, 2);
        // Delete removes all copies.
        c.delete(&port, key).unwrap();
        assert_eq!(c.object_count(), 0);
    }

    #[test]
    fn list_filters_by_kind_and_ino() {
        let c = cluster();
        let port = Port::new();
        c.put(&port, ObjectKey::inode(1), Bytes::new()).unwrap();
        c.put(&port, ObjectKey::journal(1, 0), Bytes::new())
            .unwrap();
        c.put(&port, ObjectKey::journal(1, 1), Bytes::new())
            .unwrap();
        c.put(&port, ObjectKey::journal(2, 0), Bytes::new())
            .unwrap();
        let j1 = c.list(&port, Some(KeyKind::Journal), Some(1)).unwrap();
        assert_eq!(j1, vec![ObjectKey::journal(1, 0), ObjectKey::journal(1, 1)]);
        let all_j = c.list(&port, Some(KeyKind::Journal), None).unwrap();
        assert_eq!(all_j.len(), 3);
        let ino1 = c.list(&port, None, Some(1)).unwrap();
        assert_eq!(ino1.len(), 3);
    }

    #[test]
    fn discard_payload_stores_length_only() {
        let cfg = ClusterConfig::test_tiny().with_discard_payload(true);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        c.put(&port, key, Bytes::from(vec![7u8; 1000])).unwrap();
        assert_eq!(c.head(&port, key).unwrap(), 1000);
        // Contents are zeroed, but length is preserved.
        let data = c.get(&port, key).unwrap();
        assert_eq!(data.len(), 1000);
        assert!(data.iter().all(|&b| b == 0));
        // Metadata objects keep real payloads even in discard mode.
        let meta = ObjectKey::inode(1);
        c.put(&port, meta, Bytes::from_static(b"real")).unwrap();
        assert_eq!(c.get(&port, meta).unwrap(), Bytes::from_static(b"real"));
        // Ranged writes extend the synthetic length.
        c.put_range(&port, key, 2000, Bytes::from(vec![1u8; 50]))
            .unwrap();
        assert_eq!(c.head(&port, key).unwrap(), 2050);
    }

    #[test]
    fn injected_put_failure_surfaces() {
        let c = cluster();
        let port = Port::new();
        c.faults.fail_next_puts(1, None);
        let key = ObjectKey::inode(5);
        assert!(matches!(
            c.put(&port, key, Bytes::new()),
            Err(OsError::Injected(_))
        ));
        assert!(c.put(&port, key, Bytes::new()).is_ok());
    }

    #[test]
    fn lost_object_injection() {
        let c = cluster();
        let port = Port::new();
        let key = ObjectKey::data_chunk(4, 1);
        c.put(&port, key, Bytes::from_static(b"x")).unwrap();
        c.faults.lose_object(key);
        assert_eq!(c.get(&port, key), Err(OsError::NotFound));
        assert_eq!(c.head(&port, key), Err(OsError::NotFound));
        c.faults.clear();
        assert!(c.get(&port, key).is_ok());
    }

    #[test]
    fn virtual_cost_scales_with_bytes() {
        let c = ObjectCluster::new(ClusterConfig::rados(ClusterSpec::aws_paper()));
        let small = Port::new();
        let big = Port::new();
        c.put(
            &small,
            ObjectKey::data_chunk(1, 0),
            Bytes::from(vec![0u8; 1024]),
        )
        .unwrap();
        c.put(
            &big,
            ObjectKey::data_chunk(1, 1),
            Bytes::from(vec![0u8; 64 * 1024 * 1024]),
        )
        .unwrap();
        assert!(big.now() > small.now());
    }

    #[test]
    fn stats_are_tracked() {
        let c = cluster();
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        c.put(&port, key, Bytes::from_static(b"abc")).unwrap();
        c.get(&port, key).unwrap();
        c.list(&port, None, None).unwrap();
        c.delete(&port, key).unwrap();
        assert_eq!(c.stats.puts.get(), 1);
        assert_eq!(c.stats.gets.get(), 1);
        assert_eq!(c.stats.deletes.get(), 1);
        assert_eq!(c.stats.lists.get(), 1);
        assert_eq!(c.stats.bytes_in.get(), 3);
        assert_eq!(c.stats.bytes_out.get(), 3);
    }

    #[test]
    fn get_many_is_pipelined_not_serial() {
        // Two identical clusters so one measurement's resource timelines
        // don't queue the other.
        let keys: Vec<ObjectKey> = (0..8).map(|i| ObjectKey::data_chunk(1, i)).collect();
        let mk = || {
            let c = ObjectCluster::new(ClusterConfig::rados(ClusterSpec::aws_paper()));
            let setup = Port::new();
            for &k in &keys {
                c.put(&setup, k, Bytes::from(vec![0u8; 1024])).unwrap();
            }
            c.reset_timelines();
            c
        };
        // Sequential baseline.
        let c_seq = mk();
        let seq = Port::new();
        for &k in &keys {
            c_seq.get(&seq, k).unwrap();
        }
        // Pipelined.
        let c_pipe = mk();
        let pipe = Port::new();
        let results = wait_last(&c_pipe, &pipe, BatchSpan::Get, |t| {
            c_pipe.get_each(t, &keys)
        });
        assert!(results.iter().all(Result::is_ok));
        assert!(pipe.now() < seq.now(), "pipelined must beat sequential");
        // A missing key reports NotFound at its arrival without failing
        // the batch.
        let r = c_pipe.get_each(pipe.now(), &[ObjectKey::data_chunk(9, 9)]);
        let arrival = pipe.now() + c_pipe.config.profile.net_half_rtt;
        assert_eq!(r, vec![(arrival, Err(OsError::NotFound))]);
    }

    #[test]
    fn put_many_stores_all() {
        let c = cluster();
        let port = Port::new();
        let items: Vec<(ObjectKey, Bytes)> = (0..5)
            .map(|i| (ObjectKey::data_chunk(2, i), Bytes::from(vec![i as u8; 10])))
            .collect();
        let results = wait_last(&c, &port, BatchSpan::Put, |t| c.put_each(t, items));
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(c.object_count(), 5);
        assert_eq!(c.get(&port, ObjectKey::data_chunk(2, 3)).unwrap()[0], 3);
    }

    #[test]
    fn put_each_reports_acks_instead_of_waiting() {
        // The same batch waited for: each item's ack is when that PUT
        // would have returned alone, and the waiter's port the slowest.
        let items = || -> Vec<(ObjectKey, Bytes)> {
            (0..5)
                .map(|i| {
                    (
                        ObjectKey::data_chunk(2, i),
                        Bytes::from(vec![i as u8; 4096]),
                    )
                })
                .collect()
        };
        let (each, many) = (cluster(), cluster());
        let half_rtt = each.config.profile.net_half_rtt;
        let acks: Vec<u64> = (each.put_each(1_000, items()).into_iter())
            .map(|(ack, r)| r.map(|()| ack).unwrap())
            .collect();
        let port = Port::starting_at(1_000);
        let waited = wait_last(&many, &port, BatchSpan::Put, |t| many.put_each(t, items()));
        assert!(waited.iter().all(Result::is_ok));
        assert_eq!(acks.iter().max(), Some(&port.now()));
        assert!(acks.iter().all(|&ack| ack > 1_000 + 2 * half_rtt));
        assert_eq!(each.object_count(), 5);
        // A refused PUT is acked half an RTT after its arrival.
        each.faults.fail_next_puts(1, None);
        let refused = each.put_each(0, items());
        assert!(refused[0].1.is_err() && refused[1..].iter().all(|r| r.1.is_ok()));
        assert_eq!(refused[0].0, 2 * half_rtt);
    }

    #[test]
    fn replication_fails_over_on_shard_down() {
        let cfg = ClusterConfig::test_tiny().with_replication(2);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::inode(7);
        c.put(&port, key, Bytes::from_static(b"meta")).unwrap();
        let primary = key.shard(2);
        c.faults.fail_shard(primary);
        assert_eq!(c.get(&port, key).unwrap(), Bytes::from_static(b"meta"));
        assert_eq!(c.head(&port, key).unwrap(), 4);
        assert_eq!(c.get_range(&port, key, 1, 2).unwrap(), &b"et"[..]);
        // The batched reads fail over the same way.
        let each = c.get_each(port.now(), &[key]);
        assert_eq!(each[0].1, Ok(Bytes::from_static(b"meta")));
        let ranged = c.get_range_each(port.now(), &[(key, 2, 9)]);
        assert_eq!(ranged[0].1, Ok(Bytes::from_static(b"ta")));
        // Both copies down: gone.
        c.faults.fail_shard((primary + 1) % 2);
        assert_eq!(c.get(&port, key), Err(OsError::NotFound));
        c.faults.restore_shard(primary);
        assert!(c.get(&port, key).is_ok());
    }

    #[test]
    fn get_range_many_is_pipelined_not_serial() {
        let reqs: Vec<(ObjectKey, u64, usize)> = (0..8)
            .map(|i| (ObjectKey::data_chunk(1, i), 128, 512))
            .collect();
        let mk = || {
            let c = ObjectCluster::new(ClusterConfig::rados(ClusterSpec::aws_paper()));
            let setup = Port::new();
            for &(k, ..) in &reqs {
                c.put(&setup, k, Bytes::from(vec![9u8; 1024])).unwrap();
            }
            c.reset_timelines();
            c
        };
        let c_seq = mk();
        let seq = Port::new();
        for &(k, off, len) in &reqs {
            c_seq.get_range(&seq, k, off, len).unwrap();
        }
        let c_pipe = mk();
        let pipe = Port::new();
        let span = BatchSpan::GetRange;
        let results = wait_last(&c_pipe, &pipe, span, |t| c_pipe.get_range_each(t, &reqs));
        for r in &results {
            assert_eq!(r.as_ref().unwrap().len(), 512);
        }
        assert!(pipe.now() < seq.now(), "pipelined must beat sequential");
        // Missing keys report NotFound without failing the batch.
        let r = c_pipe.get_range_each(pipe.now(), &[(ObjectKey::data_chunk(9, 9), 0, 4)]);
        assert_eq!(r[0].1, Err(OsError::NotFound));
    }

    #[test]
    fn put_range_many_is_pipelined_not_serial() {
        let items: Vec<(ObjectKey, u64, Bytes)> = (0..8)
            .map(|i| {
                (
                    ObjectKey::data_chunk(3, i),
                    256,
                    Bytes::from(vec![i as u8; 512]),
                )
            })
            .collect();
        let mk = || ObjectCluster::new(ClusterConfig::rados(ClusterSpec::aws_paper()));
        let c_seq = mk();
        let seq = Port::new();
        for (k, off, d) in items.clone() {
            c_seq.put_range(&seq, k, off, d).unwrap();
        }
        let c_pipe = mk();
        let pipe = Port::new();
        let span = BatchSpan::PutRange;
        let results = wait_last(&c_pipe, &pipe, span, |t| c_pipe.put_range_each(t, items));
        assert!(results.iter().all(Result::is_ok));
        assert!(pipe.now() < seq.now(), "pipelined must beat sequential");
        // Both clusters end up with identical contents.
        let p = Port::new();
        for i in 0..8 {
            let k = ObjectKey::data_chunk(3, i);
            assert_eq!(c_pipe.get(&p, k).unwrap(), c_seq.get(&p, k).unwrap());
        }
    }

    #[test]
    fn put_range_many_s3_degrades_to_whole_object_rmw() {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.profile = StoreProfile::s3(&cfg.spec);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        c.put(&port, key, Bytes::from_static(b"0123456789"))
            .unwrap();
        let fresh = ObjectKey::data_chunk(1, 1);
        // put_range would be Unsupported here; put_range_each must succeed
        // by rewriting the whole object (and creating missing ones).
        let results = c.put_range_each(
            port.now(),
            vec![
                (key, 2, Bytes::from_static(b"AB")),
                (fresh, 4, Bytes::from_static(b"xy")),
            ],
        );
        assert!(results.iter().all(|r| r.1.is_ok()));
        assert_eq!(&c.get(&port, key).unwrap()[..], b"01AB456789");
        assert_eq!(&c.get(&port, fresh).unwrap()[..], b"\0\0\0\0xy");
    }

    #[test]
    fn delete_many_removes_all_and_reports_missing() {
        let c = cluster();
        let port = Port::new();
        let keys: Vec<ObjectKey> = (0..4).map(|i| ObjectKey::data_chunk(5, i)).collect();
        for &k in &keys {
            c.put(&port, k, Bytes::from_static(b"z")).unwrap();
        }
        let mut with_missing = keys.clone();
        with_missing.push(ObjectKey::data_chunk(5, 99));
        let results = wait_last(&c, &port, BatchSpan::Delete, |t| {
            c.delete_each(t, &with_missing)
        });
        assert!(results[..4].iter().all(Result::is_ok));
        assert_eq!(results[4], Err(OsError::NotFound));
        assert_eq!(c.object_count(), 0);
    }

    #[test]
    fn delete_each_reports_the_acks_delete_many_waits_for() {
        let (each, many) = (cluster(), cluster());
        let keys: Vec<ObjectKey> = (0..4).map(|i| ObjectKey::data_chunk(5, i)).collect();
        for c in [&each, &many] {
            for &k in &keys[..3] {
                c.put(&Port::new(), k, Bytes::from_static(b"z")).unwrap();
            }
            c.reset_timelines();
        }
        let batches = || (each.stats.batch_calls.get(), each.stats.batch_items.get());
        let before = batches();
        let acks = each.delete_each(1_000, &keys);
        let port = Port::starting_at(1_000);
        wait_last(&many, &port, BatchSpan::Delete, |t| {
            many.delete_each(t, &keys)
        });
        assert_eq!(acks.iter().map(|a| a.0).max(), Some(port.now()));
        assert_eq!(acks[3].1, Err(OsError::NotFound));
        let (calls, items) = batches();
        let delta = (calls - before.0, items - before.1);
        assert_eq!((each.object_count(), delta), (0, (1, 4)));
    }

    /// One shard, so every key meets the same op queue; a checkpoint's
    /// worth of inode writes booked at time 0.
    fn one_shard_with_backlog(inodes: u128) -> (ObjectCluster, Nanos) {
        let mut cfg = ClusterConfig::test_tiny();
        cfg.shards = 1;
        let c = ObjectCluster::new(cfg);
        let checkpoint = Port::new();
        let items = (0..inodes)
            .map(|i| (ObjectKey::inode(i), Bytes::from_static(b"i")))
            .collect();
        let done = wait_last(&c, &checkpoint, BatchSpan::Put, |t| c.put_each(t, items));
        assert!(done.iter().all(Result::is_ok));
        (c, checkpoint.now())
    }

    #[test]
    fn a_journal_write_is_served_ahead_of_queued_home_object_writes() {
        let idle = ObjectCluster::new(ClusterConfig::test_tiny());
        let alone = Port::new();
        idle.put(&alone, ObjectKey::journal(1, 0), Bytes::from_static(b"txn"))
            .unwrap();

        let (c, backlog_done) = one_shard_with_backlog(1000);
        assert!(backlog_done > 1000 * USEC);
        let fsync = Port::new();
        c.put(&fsync, ObjectKey::journal(1, 0), Bytes::from_static(b"txn"))
            .unwrap();
        assert_eq!(fsync.now(), alone.now(), "as fast as on an idle store");

        // Journal writes queue behind each other.
        let second = Port::new();
        c.put(
            &second,
            ObjectKey::journal(2, 0),
            Bytes::from_static(b"txn"),
        )
        .unwrap();
        assert_eq!(second.now(), fsync.now() + USEC);

        // Their service time is still the shard's: the next home-object
        // write finds the queue two services longer.
        let late = Port::new();
        c.put(&late, ObjectKey::inode(5000), Bytes::from_static(b"i"))
            .unwrap();
        assert_eq!(late.now(), backlog_done + 3 * USEC);
    }

    #[test]
    fn only_journal_writes_jump_the_queue() {
        let (c, backlog_done) = one_shard_with_backlog(1000);
        // Truncating the journal after a checkpoint is bulk work too.
        let truncate = Port::new();
        c.put(
            &truncate,
            ObjectKey::journal(1, 0),
            Bytes::from_static(b"t"),
        )
        .unwrap();
        let t0 = truncate.now();
        c.delete(&truncate, ObjectKey::journal(1, 0)).unwrap();
        assert!(truncate.now() > backlog_done, "{t0} -> {}", truncate.now());
        for key in [ObjectKey::dentry_bucket(1, 0), ObjectKey::data_chunk(1, 0)] {
            let p = Port::new();
            c.put(&p, key, Bytes::from_static(b"x")).unwrap();
            assert!(p.now() > backlog_done, "{key:?}");
        }
    }

    #[test]
    fn batch_stats_count_calls_and_items() {
        let c = cluster();
        let port = Port::new();
        let keys: Vec<ObjectKey> = (0..3).map(|i| ObjectKey::data_chunk(6, i)).collect();
        let items: Vec<(ObjectKey, Bytes)> = keys
            .iter()
            .map(|&k| (k, Bytes::from_static(b"q")))
            .collect();
        let t = port.now();
        c.put_each(t, items);
        c.get_each(t, &keys);
        c.get_range_each(t, &[(keys[0], 0, 1)]);
        c.put_range_each(t, vec![(keys[0], 0, Bytes::from_static(b"r"))]);
        c.delete_each(t, &keys);
        // An empty batch is no call.
        c.get_each(t, &[]);
        assert_eq!(c.stats.batch_calls.get(), 5);
        assert_eq!(c.stats.batch_items.get(), 3 + 3 + 1 + 1 + 3);
    }

    #[test]
    fn concurrent_clients_see_consistent_store() {
        use std::sync::Arc;
        let c = Arc::new(cluster());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let port = Port::new();
                    for j in 0..50u64 {
                        let key = ObjectKey::data_chunk(i as u128 + 1, j);
                        c.put(&port, key, Bytes::from(vec![i as u8; 16])).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.object_count(), 8 * 50);
    }
}
