//! The sharded, replicated in-memory object cluster.

use crate::error::{OsError, OsResult};
use crate::fault::FaultPlan;
use crate::key::{KeyKind, ObjectKey};
use crate::profile::StoreProfile;
use crate::store::ObjectStore;
use arkfs_simkit::{BandwidthResource, ClusterSpec, Nanos, Port, SharedResource};
use arkfs_telemetry::{Counter, Registry, Telemetry, BATCH_TID, PID_STORE};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
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
    /// Erasure coding (k data + 1 XOR parity) instead of replication.
    /// `None` keeps full-copy replication.
    pub ec: Option<crate::ec::EcScheme>,
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
            ec: None,
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
            ec: None,
        }
    }

    pub fn with_discard_payload(mut self, on: bool) -> Self {
        self.discard_payload = on;
        self
    }

    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r.max(1);
        self.ec = None;
        self
    }

    /// Store objects erasure-coded as `k` data + 1 parity fragments
    /// instead of replicating full copies.
    pub fn with_erasure_coding(mut self, k: usize) -> Self {
        self.ec = Some(crate::ec::EcScheme::new(k));
        self
    }
}

/// Stored payload: real bytes, a synthetic length, or one erasure-coded
/// fragment of an object. A `Real` buffer is the one the PUT carried,
/// shared by every replica and by every GET that returns it: shared
/// means immutable (see [`ObjectCluster::apply_range_write`]).
#[derive(Debug, Clone)]
enum Payload {
    Real(Bytes),
    Synthetic(u64),
    Fragment { total_len: u64, bytes: Bytes },
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
    /// Physical bytes stored on this shard.
    fn len(&self) -> u64 {
        match self {
            Payload::Real(v) => v.len() as u64,
            Payload::Synthetic(n) => *n,
            Payload::Fragment { bytes, .. } => bytes.len() as u64,
        }
    }

    /// Logical object size this payload describes.
    fn logical_len(&self) -> u64 {
        match self {
            Payload::Real(v) => v.len() as u64,
            Payload::Synthetic(n) => *n,
            Payload::Fragment { total_len, .. } => *total_len,
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
    /// Batched multi-object calls (`get_each`/`get_many`, `put_many`,
    /// `get_range_many`, `put_range_many`, `delete_many`).
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
        self.batch_calls.inc();
        self.batch_items.add(items as u64);
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
        if let Some(ec) = config.ec {
            assert!(
                ec.width() <= config.shards,
                "erasure width exceeds shard count"
            );
        }
        let shards = (0..config.shards)
            .map(|_| Shard {
                objects: RwLock::new(HashMap::new()),
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

    /// Shards an object's copies or fragments live on.
    fn placement_shards(&self, key: &ObjectKey) -> Vec<usize> {
        let primary = key.shard(self.config.shards);
        let n = self.config.shards;
        let width = match self.config.ec {
            Some(ec) => ec.width(),
            None => self.config.replication,
        };
        (0..width).map(|i| (primary + i) % n).collect()
    }

    fn replica_shards(&self, key: &ObjectKey) -> impl Iterator<Item = usize> + '_ {
        self.placement_shards(key).into_iter()
    }

    fn primary(&self, key: &ObjectKey) -> &Shard {
        &self.shards[key.shard(self.config.shards)]
    }

    /// Read an object's logical contents, tolerating shard failures:
    /// replication fails over to the next copy; erasure coding
    /// reconstructs from any k of k+1 fragments. Returns (bytes — `None`
    /// for synthetic payloads —, logical length, per-shard bytes read).
    #[allow(clippy::type_complexity)]
    fn load_logical(&self, key: ObjectKey) -> OsResult<(Option<Bytes>, u64, Vec<(usize, u64)>)> {
        if self.faults.is_lost(key) {
            return Err(OsError::NotFound);
        }
        let shards = self.placement_shards(&key);
        match self.config.ec {
            None => {
                for idx in shards {
                    if self.faults.is_shard_down(idx) {
                        continue;
                    }
                    match self.shards[idx].objects.read().get(&key) {
                        Some(Payload::Real(v)) => {
                            return Ok((
                                Some(v.clone()),
                                v.len() as u64,
                                vec![(idx, v.len() as u64)],
                            ));
                        }
                        Some(Payload::Synthetic(n)) => {
                            return Ok((None, *n, vec![(idx, *n)]));
                        }
                        Some(Payload::Fragment { .. }) => {
                            unreachable!("fragment stored without EC config")
                        }
                        None => {}
                    }
                }
                Err(OsError::NotFound)
            }
            Some(ec) => {
                let mut frags: Vec<Option<Bytes>> = vec![None; ec.width()];
                let mut total_len = None;
                let mut synthetic = false;
                let mut sources = Vec::new();
                let mut present = 0usize;
                for (j, idx) in shards.into_iter().enumerate() {
                    if self.faults.is_shard_down(idx) {
                        continue;
                    }
                    match self.shards[idx].objects.read().get(&key) {
                        Some(Payload::Fragment {
                            total_len: t,
                            bytes,
                        }) => {
                            total_len = Some(*t);
                            sources.push((idx, bytes.len() as u64));
                            frags[j] = Some(bytes.clone());
                            present += 1;
                        }
                        Some(Payload::Synthetic(n)) => {
                            total_len = Some(*n);
                            synthetic = true;
                            sources.push((idx, n.div_ceil(ec.data as u64)));
                            present += 1;
                        }
                        Some(Payload::Real(_)) => {
                            unreachable!("full copy stored under EC config")
                        }
                        None => {}
                    }
                }
                let Some(total_len) = total_len else {
                    return Err(OsError::NotFound);
                };
                if synthetic {
                    return Ok((None, total_len, sources));
                }
                if present < ec.data {
                    return Err(OsError::InsufficientFragments);
                }
                let bytes = ec
                    .reconstruct(total_len as usize, &frags)
                    .ok_or(OsError::InsufficientFragments)?;
                Ok((Some(Bytes::from(bytes)), total_len, sources))
            }
        }
    }

    /// Record a whole-batch span on the store's synthetic batch track.
    fn batch_span(&self, name: &'static str, start: Nanos, end: Nanos) {
        if self.telemetry.tracer.enabled() {
            self.telemetry
                .tracer
                .record(PID_STORE, BATCH_TID, name, "store", start, end);
        }
    }

    /// Virtual cost of reading from the given (shard, bytes) sources in
    /// parallel, all departing at `arrival`. Returns the completion time.
    fn charge_read_sources(&self, arrival: Nanos, sources: &[(usize, u64)]) -> Nanos {
        let mut done = arrival;
        let mut total = 0u64;
        let traced = self.telemetry.tracer.enabled();
        for &(idx, bytes) in sources {
            let shard = &self.shards[idx];
            let t1 = shard
                .op_server
                .reserve(arrival, self.config.profile.op_service)
                + self.config.profile.op_latency;
            let t2 = if bytes > 0 {
                shard.disk.transfer(t1, bytes)
            } else {
                t1
            };
            if traced {
                self.telemetry.tracer.record(
                    PID_STORE,
                    idx as u32,
                    "shard.read",
                    "store",
                    arrival,
                    t2,
                );
            }
            done = done.max(t2);
            total += bytes;
        }
        if total > 0 {
            done = self.net.transfer(done, total);
        }
        done + self.config.spec.net_half_rtt
    }

    /// Virtual cost of one write departing at `depart`: the network
    /// carries every copy/fragment, then copies/fragments land on their
    /// shards in parallel — completion is the max. Returns the completion
    /// time without advancing any port, so batched writes can overlap.
    fn charge_write_at(&self, depart: Nanos, key: &ObjectKey, bytes: u64) -> Nanos {
        let per_shard = match self.config.ec {
            Some(ec) if bytes > 0 => ec.stripe(bytes as usize) as u64,
            _ => bytes,
        };
        let wire_bytes = per_shard * self.placement_shards(key).len() as u64;
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
            let t3 = if per_shard > 0 {
                shard.disk.transfer(t2, per_shard)
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

    /// Charge the virtual cost of a write to every replica (full copy
    /// each) or fragment (1/k of the bytes each) and return the caller's
    /// completion time.
    fn charge_write(&self, port: &Port, key: &ObjectKey, bytes: u64) -> Nanos {
        let t0 = port.advance(self.config.spec.net_half_rtt);
        let done = self.charge_write_at(t0, key, bytes);
        port.wait_until(done + self.config.spec.net_half_rtt)
    }

    /// Charge the virtual cost of a read of `bytes` from the primary.
    fn charge_read(&self, port: &Port, key: &ObjectKey, bytes: u64) -> Nanos {
        let t0 = port.advance(self.config.spec.net_half_rtt);
        let shard = self.primary(key);
        let t1 = shard.op_server.reserve(t0, self.config.profile.op_service)
            + self.config.profile.op_latency;
        let t2 = if bytes > 0 {
            shard.disk.transfer(t1, bytes)
        } else {
            t1
        };
        let t3 = if bytes > 0 {
            self.net.transfer(t2, bytes)
        } else {
            t2
        };
        port.wait_until(t3 + self.config.spec.net_half_rtt)
    }

    /// Whether a ranged write to `key` can be applied in place (vs the
    /// whole-object read-modify-write the S3 profile and erasure-coded
    /// objects require).
    fn supports_range_write(&self, key: &ObjectKey) -> bool {
        let discard_data = self.config.discard_payload && key.kind == KeyKind::Data;
        self.config.profile.partial_writes && (self.config.ec.is_none() || discard_data)
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
                // Ranged writes on EC objects are rejected by the callers.
                Payload::Fragment { .. } => unreachable!("fragment without EC config"),
            };
            if v.len() < end {
                v.resize(end, 0);
            }
            v[offset as usize..end].copy_from_slice(data);
            *entry = Payload::Real(Bytes::from(v));
        }
    }

    /// Store an object: full copies under replication, fragments under
    /// erasure coding, synthetic lengths in discard mode.
    fn store_object(&self, key: ObjectKey, data: Bytes) {
        let total_len = data.len() as u64;
        let payload = match self.config.ec {
            _ if self.config.discard_payload && key.kind == KeyKind::Data => {
                Payload::Synthetic(total_len)
            }
            // Every replica holds the caller's buffer: no copy.
            None => Payload::Real(data),
            Some(ec) => {
                let frags = ec.encode(&data).into_iter().map(Bytes::from);
                for (idx, bytes) in self.replica_shards(&key).zip(frags) {
                    let fragment = Payload::Fragment { total_len, bytes };
                    self.shards[idx].objects.write().insert(key, fragment);
                }
                return;
            }
        };
        for idx in self.replica_shards(&key) {
            let copy = payload.clone();
            self.shards[idx].objects.write().insert(key, copy);
        }
    }

    /// Count a DELETE and drop every copy or fragment of the object.
    fn remove_object(&self, key: ObjectKey) -> OsResult<()> {
        self.stats.deletes.inc();
        let mut found = false;
        for idx in self.replica_shards(&key) {
            found |= self.shards[idx].objects.write().remove(&key).is_some();
        }
        found.then_some(()).ok_or(OsError::NotFound)
    }

    /// The read half of a GET: count it, load the object (zeros for a
    /// synthetic one) and name the (shard, bytes) sources to charge.
    fn load_whole(&self, key: ObjectKey) -> OsResult<(Bytes, Vec<(usize, u64)>)> {
        self.stats.gets.inc();
        let (bytes, total_len, sources) = self.load_logical(key)?;
        self.stats.bytes_out.add(total_len);
        Ok((bytes.unwrap_or_else(|| zeros(total_len as usize)), sources))
    }

    /// The read half of a ranged GET: a window of the stored buffer.
    /// Under erasure coding the whole object is assembled (fragments are
    /// striped, so a range still touches every data fragment); under
    /// replication only the requested range moves.
    fn load_range(
        &self,
        key: ObjectKey,
        offset: u64,
        len: usize,
    ) -> OsResult<(Bytes, Vec<(usize, u64)>)> {
        self.stats.gets.inc();
        let (bytes, total_len, mut sources) = self.load_logical(key)?;
        let start = offset.min(total_len) as usize;
        let end = offset.saturating_add(len as u64).min(total_len) as usize;
        let slice = match bytes {
            Some(b) => b.slice(start..end),
            None => zeros(end - start),
        };
        self.stats.bytes_out.add(slice.len() as u64);
        if self.config.ec.is_none() {
            for source in &mut sources {
                source.1 = slice.len() as u64;
            }
        }
        Ok((slice, sources))
    }
}

impl ObjectStore for ObjectCluster {
    fn profile(&self) -> &StoreProfile {
        &self.config.profile
    }

    fn usage(&self) -> (u64, u64) {
        (self.object_count() as u64, self.stored_bytes())
    }

    fn batch_stats(&self) -> (u64, u64) {
        (self.stats.batch_calls.get(), self.stats.batch_items.get())
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        Some(&self.telemetry)
    }

    fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()> {
        self.faults.check_put(key)?;
        self.stats.puts.inc();
        self.stats.bytes_in.add(data.len() as u64);
        self.charge_write(port, &key, data.len() as u64);
        self.store_object(key, data);
        Ok(())
    }

    fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes> {
        let (bytes, sources) = self.load_whole(key)?;
        let arrival = port.advance(self.config.spec.net_half_rtt);
        let done = self.charge_read_sources(arrival, &sources);
        port.wait_until(done);
        Ok(bytes)
    }

    fn get_range(&self, port: &Port, key: ObjectKey, offset: u64, len: usize) -> OsResult<Bytes> {
        if !self.config.profile.ranged_reads {
            return Err(OsError::Unsupported("ranged read"));
        }
        let (slice, sources) = self.load_range(key, offset, len)?;
        let arrival = port.advance(self.config.spec.net_half_rtt);
        let done = self.charge_read_sources(arrival, &sources);
        port.wait_until(done);
        Ok(slice)
    }

    fn put_range(&self, port: &Port, key: ObjectKey, offset: u64, data: Bytes) -> OsResult<()> {
        if !self.config.profile.partial_writes {
            return Err(OsError::Unsupported("ranged write"));
        }
        if self.config.ec.is_some() && !(self.config.discard_payload && key.kind == KeyKind::Data) {
            // Erasure-coded objects take full-stripe writes only; callers
            // fall back to read-modify-write of the whole object.
            return Err(OsError::Unsupported(
                "partial write on erasure-coded object",
            ));
        }
        self.faults.check_put(key)?;
        self.stats.puts.inc();
        self.stats.bytes_in.add(data.len() as u64);
        self.charge_write(port, &key, data.len() as u64);
        // Apply to all replicas under their own shard locks.
        self.apply_range_write(key, offset, &data);
        Ok(())
    }

    fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()> {
        self.charge_write(port, &key, 0);
        self.remove_object(key)
    }

    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
        if self.faults.is_lost(key) {
            return Err(OsError::NotFound);
        }
        self.charge_read(port, &key, 0);
        // Any reachable copy/fragment knows the logical size.
        for idx in self.placement_shards(&key) {
            if self.faults.is_shard_down(idx) {
                continue;
            }
            if let Some(p) = self.shards[idx].objects.read().get(&key) {
                return Ok(p.logical_len());
            }
        }
        Err(OsError::NotFound)
    }

    fn get_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<Bytes>> {
        if keys.is_empty() {
            return Vec::new();
        }
        // Pipelined: all requests depart at the same arrival time; the
        // caller's port waits for the slowest completion.
        let t0 = port.advance(self.config.spec.net_half_rtt);
        let results = self.get_each(t0, keys);
        let mut done = t0;
        let out = results
            .into_iter()
            .map(|r| {
                r.map(|(bytes, completion)| {
                    done = done.max(completion);
                    bytes
                })
            })
            .collect();
        self.batch_span("store.get_many", t0, done);
        port.wait_until(done);
        out
    }

    fn get_each(&self, arrival: u64, keys: &[ObjectKey]) -> Vec<OsResult<(Bytes, u64)>> {
        self.stats.count_batch(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            out.push(
                self.load_whole(key)
                    .map(|(bytes, sources)| (bytes, self.charge_read_sources(arrival, &sources))),
            );
        }
        out
    }

    fn put_each(&self, depart: u64, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<u64>> {
        self.stats.count_batch(items.len());
        let half_rtt = self.config.spec.net_half_rtt;
        items
            .into_iter()
            .map(|(key, data)| {
                self.faults.check_put(key)?;
                self.stats.puts.inc();
                self.stats.bytes_in.add(data.len() as u64);
                let done = self.charge_write_at(depart, &key, data.len() as u64);
                self.store_object(key, data);
                Ok(done + half_rtt)
            })
            .collect()
    }

    fn put_many(&self, port: &Port, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<()>> {
        if items.is_empty() {
            return Vec::new();
        }
        // Pipelined: all requests depart together; the caller's port
        // waits for the slowest ack.
        let half_rtt = self.config.spec.net_half_rtt;
        let t0 = port.advance(half_rtt);
        let mut acked = t0 + half_rtt;
        let out = self
            .put_each(t0, items)
            .into_iter()
            .map(|r| r.map(|ack| acked = acked.max(ack)))
            .collect();
        self.batch_span("store.put_many", t0, acked - half_rtt);
        port.wait_until(acked);
        out
    }

    fn get_range_many(
        &self,
        port: &Port,
        reqs: &[(ObjectKey, u64, usize)],
    ) -> Vec<OsResult<Bytes>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        if !self.config.profile.ranged_reads {
            return reqs
                .iter()
                .map(|_| Err(OsError::Unsupported("ranged read")))
                .collect();
        }
        self.stats.count_batch(reqs.len());
        // All requests depart together; the caller waits for the slowest.
        let t0 = port.advance(self.config.spec.net_half_rtt);
        let mut done = t0;
        let out = reqs
            .iter()
            .map(|&(key, offset, len)| {
                let (slice, sources) = self.load_range(key, offset, len)?;
                done = done.max(self.charge_read_sources(t0, &sources));
                Ok(slice)
            })
            .collect();
        self.batch_span("store.get_range_many", t0, done);
        port.wait_until(done);
        out
    }

    fn put_range_many(
        &self,
        port: &Port,
        items: Vec<(ObjectKey, u64, Bytes)>,
    ) -> Vec<OsResult<()>> {
        if items.is_empty() {
            return Vec::new();
        }
        self.stats.count_batch(items.len());
        let t0 = port.advance(self.config.spec.net_half_rtt);
        let mut done = t0;
        let mut out = Vec::with_capacity(items.len());
        for (key, offset, data) in items {
            if let Err(e) = self.faults.check_put(key) {
                out.push(Err(e));
                continue;
            }
            if self.supports_range_write(&key) {
                self.stats.puts.inc();
                self.stats.bytes_in.add(data.len() as u64);
                done = done.max(self.charge_write_at(t0, &key, data.len() as u64));
                self.apply_range_write(key, offset, &data);
                out.push(Ok(()));
                continue;
            }
            // Whole-object read-modify-write: the read departs with the
            // batch; the rewrite departs at that item's read completion.
            // Items still overlap each other.
            self.stats.gets.inc();
            let (bytes, total_len, sources) = match self.load_logical(key) {
                Ok(v) => v,
                Err(OsError::NotFound) => (Some(Bytes::new()), 0, Vec::new()),
                Err(e) => {
                    out.push(Err(e));
                    continue;
                }
            };
            self.stats.bytes_out.add(total_len);
            let t_read = if sources.is_empty() {
                t0
            } else {
                self.charge_read_sources(t0, &sources)
            };
            let mut whole = bytes.map_or_else(|| vec![0u8; total_len as usize], Vec::from);
            let end = offset as usize + data.len();
            if whole.len() < end {
                whole.resize(end, 0);
            }
            whole[offset as usize..end].copy_from_slice(&data);
            self.stats.puts.inc();
            self.stats.bytes_in.add(whole.len() as u64);
            done = done.max(self.charge_write_at(t_read, &key, whole.len() as u64));
            self.store_object(key, Bytes::from(whole));
            out.push(Ok(()));
        }
        self.batch_span("store.put_range_many", t0, done);
        port.wait_until(done + self.config.spec.net_half_rtt);
        out
    }

    fn delete_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<()>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let half_rtt = self.config.spec.net_half_rtt;
        let t0 = port.advance(half_rtt);
        let mut acked = t0 + half_rtt;
        let out = self
            .delete_each(t0, keys)
            .into_iter()
            .map(|(ack, r)| {
                acked = acked.max(ack);
                r
            })
            .collect();
        self.batch_span("store.delete_many", t0, acked - half_rtt);
        port.wait_until(acked);
        out
    }

    fn delete_each(&self, depart: u64, keys: &[ObjectKey]) -> Vec<(u64, OsResult<()>)> {
        self.stats.count_batch(keys.len());
        let half_rtt = self.config.spec.net_half_rtt;
        keys.iter()
            .map(|&key| {
                let done = self.charge_write_at(depart, &key, 0);
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
        self.charge_read(port, &ObjectKey::inode(ino.unwrap_or(0)), 0);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
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
    use arkfs_simkit::USEC;
    use proptest::prelude::*;

    fn cluster() -> ObjectCluster {
        ObjectCluster::new(ClusterConfig::test_tiny())
    }

    /// RADOS r = 2, S3 r = 2 and EC 4+1: the deployments the ownership
    /// rule (shared => immutable) must hold on.
    fn aliasing_clusters() -> [ObjectCluster; 3] {
        let tiny = |shards, s3: bool| {
            let mut cfg = ClusterConfig::test_tiny();
            cfg.shards = shards;
            if s3 {
                cfg.profile = StoreProfile::s3(&cfg.spec);
            }
            cfg
        };
        [
            ObjectCluster::new(tiny(3, false).with_replication(2)),
            ObjectCluster::new(tiny(3, true).with_replication(2)),
            ObjectCluster::new(tiny(6, false).with_erasure_coding(4)),
        ]
    }

    /// The object reads as the model says, from every copy: each replica
    /// holds the model's bytes, or (EC) a degraded read rebuilds them.
    fn assert_matches_model(c: &ObjectCluster, key: ObjectKey, model: Option<&Vec<u8>>) {
        let port = Port::new();
        let want = model
            .map(|m| Bytes::from(m.clone()))
            .ok_or(OsError::NotFound);
        assert_eq!(c.get(&port, key), want);
        let placement = c.placement_shards(&key);
        if c.config.ec.is_some() {
            c.faults.fail_shard(placement[0]);
            assert_eq!(c.get(&port, key), want, "degraded read");
            c.faults.restore_shard(placement[0]);
            return;
        }
        for idx in placement {
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
                let mut model: HashMap<ObjectKey, Vec<u8>> = HashMap::new();
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
                            Some((c.put_range_many(&port, items).remove(0), off))
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
                        // S3 and EC objects take whole-object PUTs only.
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
        let results = c_pipe.get_many(&pipe, &keys);
        assert!(results.iter().all(Result::is_ok));
        assert!(pipe.now() < seq.now(), "pipelined must beat sequential");
        // Missing keys report NotFound without failing the batch.
        let r = c_pipe.get_many(&pipe, &[ObjectKey::data_chunk(9, 9)]);
        assert_eq!(r[0], Err(OsError::NotFound));
    }

    #[test]
    fn put_many_stores_all() {
        let c = cluster();
        let port = Port::new();
        let items: Vec<(ObjectKey, Bytes)> = (0..5)
            .map(|i| (ObjectKey::data_chunk(2, i), Bytes::from(vec![i as u8; 10])))
            .collect();
        let results = c.put_many(&port, items);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(c.object_count(), 5);
        assert_eq!(c.get(&port, ObjectKey::data_chunk(2, 3)).unwrap()[0], 3);
    }

    #[test]
    fn put_each_reports_acks_instead_of_waiting() {
        // The same batch as one put_many: each item's ack is when that
        // PUT would have returned alone, and the slowest is put_many's.
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
        let half_rtt = each.config.spec.net_half_rtt;
        let acks: Vec<u64> = each
            .put_each(1_000 + half_rtt, items())
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let port = Port::starting_at(1_000);
        assert!(many.put_many(&port, items()).iter().all(Result::is_ok));
        assert_eq!(acks.iter().max(), Some(&port.now()));
        assert!(acks.iter().all(|&ack| ack > 1_000 + 2 * half_rtt));
        assert_eq!(each.object_count(), 5);
        each.faults.fail_next_puts(1, None);
        let refused = each.put_each(0, items());
        assert!(refused[0].is_err() && refused[1..].iter().all(Result::is_ok));
    }

    #[test]
    fn erasure_coded_roundtrip_and_reconstruction() {
        let spec = ClusterSpec::test_tiny();
        let cfg = ClusterConfig {
            shards: 6,
            replication: 1,
            profile: StoreProfile::rados(&spec),
            spec,
            discard_payload: false,
            ec: None,
        }
        .with_erasure_coding(4);
        let c = ObjectCluster::new(cfg);
        let port = Port::new();
        let key = ObjectKey::data_chunk(1, 0);
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        c.put(&port, key, Bytes::from(data.clone())).unwrap();
        // 5 fragments stored, each ~250 B — not 5 full copies.
        assert_eq!(c.object_count(), 5);
        assert!(c.stored_bytes() < 1500, "stored {} bytes", c.stored_bytes());
        assert_eq!(c.get(&port, key).unwrap(), Bytes::from(data.clone()));
        assert_eq!(c.head(&port, key).unwrap(), 1000);
        // Ranged read assembles correctly.
        assert_eq!(
            &c.get_range(&port, key, 300, 10).unwrap()[..],
            &data[300..310]
        );

        // Any single shard failure reconstructs.
        let primary = key.shard(6);
        c.faults.fail_shard(primary);
        assert_eq!(c.get(&port, key).unwrap(), Bytes::from(data.clone()));
        assert_eq!(c.head(&port, key).unwrap(), 1000);
        // A second failed shard in the placement breaks reconstruction.
        c.faults.fail_shard((primary + 1) % 6);
        assert_eq!(c.get(&port, key), Err(OsError::InsufficientFragments));
        c.faults.clear();
        assert!(c.get(&port, key).is_ok());
        // Partial writes are full-stripe only.
        assert_eq!(
            c.put_range(&port, key, 0, Bytes::from_static(b"x")),
            Err(OsError::Unsupported(
                "partial write on erasure-coded object"
            ))
        );
        // Delete removes every fragment.
        c.delete(&port, key).unwrap();
        assert_eq!(c.object_count(), 0);
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
        // Both copies down: gone.
        c.faults.fail_shard((primary + 1) % 2);
        assert_eq!(c.get(&port, key), Err(OsError::NotFound));
        c.faults.restore_shard(primary);
        assert!(c.get(&port, key).is_ok());
    }

    #[test]
    fn ec_write_costs_less_than_replication() {
        // Writing 1 MB with 4+1 EC moves 1.25 MB; with 2x replication it
        // moves 2 MB — EC completion must be cheaper on a fresh cluster.
        let spec = ClusterSpec::aws_paper();
        let data = Bytes::from(vec![7u8; 1024 * 1024]);
        let ec_cluster =
            ObjectCluster::new(ClusterConfig::rados(spec.clone()).with_erasure_coding(4));
        let rep_cluster = ObjectCluster::new(ClusterConfig::rados(spec));
        let ec_port = Port::new();
        let rep_port = Port::new();
        ec_cluster
            .put(&ec_port, ObjectKey::data_chunk(1, 0), data.clone())
            .unwrap();
        rep_cluster
            .put(&rep_port, ObjectKey::data_chunk(1, 0), data)
            .unwrap();
        assert!(
            ec_port.now() < rep_port.now(),
            "EC {} vs replication {}",
            ec_port.now(),
            rep_port.now()
        );
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
        let results = c_pipe.get_range_many(&pipe, &reqs);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().len(), 512);
        }
        assert!(pipe.now() < seq.now(), "pipelined must beat sequential");
        // Missing keys report NotFound without failing the batch.
        let r = c_pipe.get_range_many(&pipe, &[(ObjectKey::data_chunk(9, 9), 0, 4)]);
        assert_eq!(r[0], Err(OsError::NotFound));
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
        let results = c_pipe.put_range_many(&pipe, items);
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
        // put_range would be Unsupported here; put_range_many must succeed
        // by rewriting the whole object (and creating missing ones).
        let results = c.put_range_many(
            &port,
            vec![
                (key, 2, Bytes::from_static(b"AB")),
                (fresh, 4, Bytes::from_static(b"xy")),
            ],
        );
        assert!(results.iter().all(Result::is_ok));
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
        let results = c.delete_many(&port, &with_missing);
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
        let half_rtt = each.config.spec.net_half_rtt;
        let acks = each.delete_each(1_000 + half_rtt, &keys);
        let port = Port::starting_at(1_000);
        many.delete_many(&port, &keys);
        assert_eq!(acks.iter().map(|a| a.0).max(), Some(port.now()));
        assert_eq!(acks[3].1, Err(OsError::NotFound));
        assert_eq!((each.object_count(), each.batch_stats()), (0, (1, 4)));
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
        assert!(c.put_many(&checkpoint, items).iter().all(Result::is_ok));
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
        c.put_many(&port, items);
        c.get_many(&port, &keys);
        c.get_range_many(&port, &[(keys[0], 0, 1)]);
        c.put_range_many(&port, vec![(keys[0], 0, Bytes::from_static(b"r"))]);
        c.delete_many(&port, &keys);
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
