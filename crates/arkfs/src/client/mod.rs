//! The ArkFS client: near-POSIX operations with client-driven metadata.
//!
//! Each [`ArkClient`] is one simulated process. It resolves paths
//! component by component; for every directory it either *leads* (holds
//! the lease and the [`Metatable`]) or forwards to the leader over RPC
//! (§III-B, Figure 3). Data I/O goes through the write-back
//! [`DataCache`] under per-file read/write leases (§III-D), and all
//! mutations are journaled per directory (§III-E).
//!
//! The client is decomposed into layered services, each in its own
//! submodule:
//!
//! * `dirsvc` — directory-leadership lifecycle: lease
//!   acquire/extend/release, takeover and recovery entry, local-vs-remote
//!   routing, and the leader-side RPC service.
//! * `namei` — path resolution, permission checks, and the permission
//!   cache (§III-C).
//! * `filetable` — open-file handles and per-file lease
//!   acquisition/release with flush-on-conflict (§III-D).
//! * `datapath` — [`DataCache`] interaction: read-ahead policy,
//!   write-back, and the cached read/write paths.
//! * `vfs_impl` — the thin [`Vfs`] surface composing the layers.
//!
//! Each table of shared state (led directories, permission cache, open
//! handles, data cache) has one lock. The lock-ordering rule
//! (**dir → metatable → cache**) is documented and enforced (in debug
//! builds) by `lockorder`.

pub(crate) mod datapath;
pub(crate) mod dirsvc;
pub(crate) mod filetable;
pub(crate) mod lockorder;
pub(crate) mod namei;
pub(crate) mod vfs_impl;

use crate::cache::{registry_counters, CacheCounters, DataCache, Stat};
use crate::cluster::ArkCluster;
use crate::config::ArkConfig;
use crate::metatable::Metatable;
use crate::prt::Prt;
use arkfs_netsim::NodeId;
use arkfs_simkit::{Nanos, Port, SharedResource};
use arkfs_telemetry::{Counter, CtxGuard, Gauge, Telemetry, TraceCtx, PID_CLIENT};
use arkfs_vfs::{Credentials, FsResult, Ino, Vfs, ROOT_INO};
use dirsvc::{ClientService, DirService};
use filetable::FileTable;
use lockorder::{Rank, Ranked};
use namei::Pcache;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// How often a non-leader retries lease acquisition before giving up.
pub(crate) const MAX_LEASE_RETRIES: usize = 16;

/// Declares [`Op`] and [`OP_NAMES`] from one list, so an op's
/// discriminant always indexes its own name.
macro_rules! client_ops {
    ($($op:ident => $name:literal,)*) => {
        /// Every client-facing op: its discriminant indexes [`OP_NAMES`]
        /// and the deployment's op histograms ([`ArkCluster::op_hist`]).
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum Op {
            $($op,)*
        }

        /// The `op.<name>` of every [`Op`], in declaration order.
        pub(crate) const OP_NAMES: &[&str] = &[$($name,)*];
    };
}

client_ops! {
    Mkdir => "op.mkdir",
    Rmdir => "op.rmdir",
    Create => "op.create",
    Open => "op.open",
    Close => "op.close",
    Read => "op.read",
    Write => "op.write",
    Fsync => "op.fsync",
    Stat => "op.stat",
    Readdir => "op.readdir",
    Unlink => "op.unlink",
    Rename => "op.rename",
    Truncate => "op.truncate",
    Setattr => "op.setattr",
    Symlink => "op.symlink",
    Readlink => "op.readlink",
    SetAcl => "op.set_acl",
    GetAcl => "op.get_acl",
    Access => "op.access",
    SyncAll => "op.sync_all",
    Statfs => "op.statfs",
}

impl Op {
    pub(crate) fn name(self) -> &'static str {
        OP_NAMES[self as usize]
    }
}

/// One commit lane: the per-lane "commit thread" of the journal
/// pipeline (§III-E). The [`SharedResource`] serializes journal appends
/// sharing the lane in virtual time; `flights` tracks the virtual
/// completion times of sealed batches flushed on background timelines,
/// which is what lets `fsync`/`sync_all` act as durability barriers
/// (drain) and what bounds the async pipeline's in-flight window
/// (admission backpressure).
pub(crate) struct CommitLane {
    pub(crate) res: SharedResource,
    /// Virtual completion times of tracked in-flight flushes, ascending.
    flights: Mutex<Vec<Nanos>>,
    /// Led tables mapped to this lane, for group commit: a sealing
    /// directory's flight carries co-laned members' due transactions in
    /// the same multi-PUT. Weak so a forgotten table (lease loss,
    /// handoff) drops out on its own; entries are pruned on snapshot.
    /// Guarded by a plain mutex outside the rank order — it is only ever
    /// held for map access, never while taking a ranked lock. Ordered by
    /// partition key: the donors' order is their order in the flight's
    /// multi-PUT, which sets when each PUT reaches its shard.
    members: Mutex<BTreeMap<Ino, Weak<Mutex<crate::metatable::Metatable>>>>,
    /// `journal.sealed_depth`: deployment-wide count of tracked
    /// in-flight sealed batches (shared by all lanes of all clients).
    depth: Arc<Gauge>,
}

impl CommitLane {
    fn new(depth: Arc<Gauge>) -> Self {
        CommitLane {
            res: SharedResource::ideal("commit-lane"),
            flights: Mutex::new(Vec::new()),
            members: Mutex::new(BTreeMap::new()),
            depth,
        }
    }

    /// Register a led table as a group-commit member of this lane.
    pub(crate) fn register(&self, pkey: Ino, table: &Arc<Mutex<crate::metatable::Metatable>>) {
        self.members.lock().insert(pkey, Arc::downgrade(table));
    }

    /// Live members of this lane (dead entries pruned as a side effect).
    pub(crate) fn members_snapshot(&self) -> Vec<(Ino, Arc<Mutex<crate::metatable::Metatable>>)> {
        let mut members = self.members.lock();
        members.retain(|_, w| w.strong_count() > 0);
        members
            .iter()
            .filter_map(|(&pkey, w)| w.upgrade().map(|t| (pkey, t)))
            .collect()
    }

    fn prune(&self, flights: &mut Vec<Nanos>, now: Nanos) {
        let before = flights.len();
        flights.retain(|&c| c > now);
        let landed = before - flights.len();
        if landed > 0 {
            self.depth.add(-(landed as i64));
        }
    }

    /// Admission control for a new sealed batch: the virtual time at
    /// which the lane has a free slot under the `max_inflight` bound.
    /// Returns `now` when the window has room; otherwise the completion
    /// time of the flight whose landing frees a slot — the caller waits
    /// until then (backpressure) before sealing.
    pub(crate) fn admit(&self, now: Nanos, max_inflight: usize) -> Nanos {
        let mut flights = self.flights.lock();
        self.prune(&mut flights, now);
        let max = max_inflight.max(1);
        if flights.len() < max {
            now
        } else {
            flights[flights.len() - max]
        }
    }

    /// Track one sealed batch flushed on a background timeline.
    pub(crate) fn record_flight(&self, completion: Nanos) {
        let mut flights = self.flights.lock();
        let at = flights.partition_point(|&c| c <= completion);
        flights.insert(at, completion);
        self.depth.add(1);
    }

    /// Durability barrier: the virtual time by which every tracked
    /// in-flight flush has landed (at least `now`). The tracked flights
    /// are consumed — the caller commits to waiting until the returned
    /// time.
    pub(crate) fn drain_until(&self, now: Nanos) -> Nanos {
        let mut flights = self.flights.lock();
        let done = flights.last().copied().unwrap_or(now).max(now);
        let n = flights.len();
        flights.clear();
        if n > 0 {
            self.depth.add(-(n as i64));
        }
        done
    }
}

/// The client's seeded RNG stream (ino and txid draws). One
/// deterministic sequence per client keeps simulated object placement —
/// and thus benchmark figures — reproducible across refactors.
#[derive(Debug)]
pub(crate) struct ClientRng {
    rng: Mutex<StdRng>,
}

impl ClientRng {
    fn new(node: u32) -> Self {
        ClientRng {
            rng: Mutex::new(StdRng::seed_from_u64(0xA2F5_0000 ^ node as u64)),
        }
    }

    pub(crate) fn random_u128(&self) -> u128 {
        self.rng.lock().random()
    }
}

/// Everything shared between the client's own thread(s) and its RPC
/// service handler (which runs on the *caller's* thread).
pub(crate) struct ClientState {
    pub(crate) id: NodeId,
    pub(crate) cluster: Arc<ArkCluster>,
    /// Directory-leadership state.
    pub(crate) dirs: DirService,
    /// Permission cache (pcache mode).
    pub(crate) pcache: Pcache,
    /// Open-file handles.
    pub(crate) files: FileTable,
    pub(crate) cache: Mutex<DataCache>,
    /// Serializes operations this client serves as a leader (its "CPU").
    pub(crate) server: SharedResource,
    /// Commit lanes; directories map statically by inode number.
    pub(crate) lanes: Vec<CommitLane>,
    pub(crate) rngs: ClientRng,
    pub(crate) crashed: AtomicBool,
    /// Deployment-wide telemetry (shared with the object store and
    /// lease managers).
    pub(crate) telemetry: Arc<Telemetry>,
    /// Registry handles for the data-cache counters, cloned into every
    /// [`DataCache`] this client creates.
    pub(crate) cache_counters: CacheCounters,
    /// `lease.release_failed.count`: file-lease releases the leader
    /// rejected or that never reached it.
    pub(crate) lease_release_failed: Arc<Counter>,
    /// `lease.file.at_open.count`: file leases that came back with a
    /// readable open's lookup, and `lease.file.write_unwaited.count`:
    /// write-lease grants the writer went on without waiting for.
    pub(crate) lease_at_open: Arc<Counter>,
    pub(crate) lease_write_unwaited: Arc<Counter>,
    /// `lease.handoff_failed.count`: partition-lease handoffs
    /// (RelinquishPartition) the old leader rejected or that never
    /// reached it — the repartitioner falls back to takeover recovery.
    pub(crate) lease_handoff_failed: Arc<Counter>,
    /// `meta.partition.split.count` / `meta.partition.merge.count` /
    /// `meta.partition.handoff.count`.
    pub(crate) partition_splits: Arc<Counter>,
    pub(crate) partition_merges: Arc<Counter>,
    pub(crate) partition_handoffs: Arc<Counter>,
    /// `leader.served.count` / `leader.busy_ns`: forwarded ops served by
    /// any client's RPC service and the virtual time they held that
    /// service (deployment-wide sums; [`ArkClient::leader_stats`] has
    /// this client's share).
    pub(crate) leader_served: Arc<Counter>,
    pub(crate) leader_busy: Arc<Counter>,
    /// `leader.forgotten_ns`: busy time the RPC services' timelines
    /// dropped past their interval bound (deployment-wide sum; see
    /// [`SharedResource::forgotten`]).
    pub(crate) leader_forgotten: Arc<Counter>,
    /// Directories this client has acked mutations against
    /// (local or remote leader) since the last `sync_all`: each owes a
    /// partition-barrier fan-out before that barrier may return, in ino
    /// order: the order the barriers go out in.
    pub(crate) dirty_dirs: Mutex<BTreeSet<Ino>>,
    /// Flush epoch: bumped by every `sync_all`. `statfs` memoizes its
    /// inode count per epoch (see [`vfs_impl`]).
    pub(crate) flush_epoch: AtomicU64,
    /// `(epoch, inode count)` of the last full inode LIST.
    pub(crate) statfs_cache: Mutex<Option<(u64, u64)>>,
    /// Per-client op sequence number: the source of deterministic trace
    /// ids and head-based sampling decisions. Deliberately NOT drawn
    /// from [`ClientRng`] — tracing must never perturb the seeded
    /// streams that make benchmark figures reproducible.
    pub(crate) op_seq: AtomicU64,
}

/// One ArkFS client process.
pub struct ArkClient {
    pub(crate) state: Arc<ClientState>,
    pub(crate) port: Port,
}

impl ArkClient {
    pub(crate) fn new(cluster: Arc<ArkCluster>, id: NodeId) -> Arc<Self> {
        let config = cluster.config().clone();
        let telemetry = Arc::clone(cluster.telemetry());
        let sealed_depth = telemetry.registry.gauge("journal.sealed_depth");
        let lanes = (0..config.journal_lanes.max(1))
            .map(|_| CommitLane::new(Arc::clone(&sealed_depth)))
            .collect();
        let cache_counters = registry_counters(&telemetry.registry);
        let mut cache = DataCache::new(config.cache_entries);
        cache.attach_counters(cache_counters.clone());
        let lease_release_failed = telemetry.registry.counter("lease.release_failed.count");
        let lease_at_open = telemetry.registry.counter("lease.file.at_open.count");
        let lease_write_unwaited = telemetry
            .registry
            .counter("lease.file.write_unwaited.count");
        let lease_handoff_failed = telemetry.registry.counter("lease.handoff_failed.count");
        let partition_splits = telemetry.registry.counter("meta.partition.split.count");
        let partition_merges = telemetry.registry.counter("meta.partition.merge.count");
        let partition_handoffs = telemetry.registry.counter("meta.partition.handoff.count");
        let leader_served = telemetry.registry.counter("leader.served.count");
        let leader_busy = telemetry.registry.counter("leader.busy_ns");
        let leader_forgotten = telemetry.registry.counter("leader.forgotten_ns");
        let state = Arc::new(ClientState {
            id,
            cluster: Arc::clone(&cluster),
            dirs: DirService::new(id.0),
            pcache: Pcache::new(id.0),
            files: FileTable::new(id.0),
            cache: Mutex::new(cache),
            server: SharedResource::ideal("leader-server"),
            lanes,
            rngs: ClientRng::new(id.0),
            crashed: AtomicBool::new(false),
            telemetry,
            cache_counters,
            lease_release_failed,
            lease_at_open,
            lease_write_unwaited,
            lease_handoff_failed,
            partition_splits,
            partition_merges,
            partition_handoffs,
            leader_served,
            leader_busy,
            leader_forgotten,
            dirty_dirs: Mutex::new(BTreeSet::new()),
            flush_epoch: AtomicU64::new(0),
            statfs_cache: Mutex::new(None),
            op_seq: AtomicU64::new(0),
        });
        cluster
            .ops_net()
            .register(id, Arc::new(ClientService(Arc::clone(&state))));
        Arc::new(ArkClient {
            state,
            port: Port::new(),
        })
    }

    /// This client's network identity.
    pub fn id(&self) -> NodeId {
        self.state.id
    }

    /// The client's virtual timeline (benchmark harness access).
    pub fn port(&self) -> &Port {
        &self.port
    }

    /// Number of directories this client currently leads.
    pub fn led_directories(&self) -> usize {
        self.state.dirs.led_directories()
    }

    /// Number of currently open file handles.
    pub fn open_handles(&self) -> usize {
        self.state.files.len()
    }

    /// Child files with live lease state at the directories this client
    /// leads (expired entries swept at its clock). A created or
    /// write-only handle that moved no data holds no lease, so it does not
    /// show here.
    pub fn active_file_leases(&self) -> usize {
        let now = self.port.now();
        self.state
            .dirs
            .led_tables()
            .iter()
            .map(|(_, table)| self.state.lock_table(table).file_leases.active_files(now))
            .sum()
    }

    /// Data-cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.state.lock_cache();
        (c.hits(), c.misses())
    }

    /// One of this client's data-cache counters (since the cache was
    /// last dropped).
    pub fn cache_stat(&self, stat: Stat) -> u64 {
        self.state.lock_cache().stat(stat)
    }

    /// When the PUT (or, for a removed file, the DELETE) of `chunk` of
    /// `file` that went behind this client is acked, if it is still in
    /// flight (else 0): no read of the chunk, here or after the file's
    /// bytes are handed on, and no `sync_all` returns earlier.
    pub fn write_behind_until(&self, file: Ino, chunk: u64) -> Nanos {
        self.state.lock_cache().in_flight_until(file, [chunk])
    }

    /// File-lease releases the leader rejected or that never reached it
    /// (`lease.release_failed.count`).
    pub fn lease_release_failures(&self) -> u64 {
        self.state.lease_release_failed.get()
    }

    /// Partition lifecycle counters: `(splits, merges, handoffs,
    /// handoff failures)` — `meta.partition.{split,merge,handoff}.count`
    /// and `lease.handoff_failed.count`.
    pub fn partition_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.state.partition_splits.get(),
            self.state.partition_merges.get(),
            self.state.partition_handoffs.get(),
            self.state.lease_handoff_failed.get(),
        )
    }

    /// Forwarded ops this client served as a leader and the virtual
    /// nanoseconds its RPC service was busy with them. Busy time over a
    /// run's makespan is the leader's utilisation: near 1 means the
    /// client is the queue every forwarding client waits in.
    pub fn leader_stats(&self) -> (u64, Nanos) {
        (self.state.server.served(), self.state.server.busy_time())
    }

    /// Deployment-wide telemetry: the metrics registry (counters,
    /// gauges, latency histograms) and span tracer shared by this
    /// client, the object store, the metadata path, and the lease
    /// managers.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.state.telemetry
    }

    /// Drop all CLEAN cached data (the fio benchmark's "drop the cache
    /// entries of written files" step, §IV-B). Dirty chunks are flushed
    /// first.
    pub fn drop_data_cache(&self) -> FsResult<()> {
        self.flush_file_data(None)?;
        *self.state.lock_cache() = self.state.fresh_cache(self.config().cache_entries);
        Ok(())
    }

    /// Simulate a hard crash: stop serving, drop ALL in-memory state
    /// without flushing. Journaled-but-unapplied transactions stay in the
    /// object store for the next leader to recover (§III-E.1).
    pub fn crash(&self) {
        self.state.crashed.store(true, Ordering::Release);
        self.state.cluster.ops_net().disconnect(self.state.id);
        self.state.dirs.clear();
        self.state.files.clear();
        self.state.pcache.clear();
        *self.state.lock_cache() = self
            .state
            .fresh_cache(self.state.cluster.config().cache_entries);
    }

    /// Flush everything and hand every directory lease back cleanly.
    pub fn release_all(&self, ctx: &Credentials) -> FsResult<()> {
        self.sync_all(ctx)?;
        let dirs: Vec<Ino> = self.state.dirs.lock().tables.keys().copied().collect();
        for dir in dirs {
            self.state.dirs.forget(dir);
            self.state.release_lease(&self.port, dir);
        }
        Ok(())
    }

    // ---- internal helpers --------------------------------------------------

    pub(crate) fn config(&self) -> &ArkConfig {
        self.state.cluster.config()
    }

    pub(crate) fn prt(&self) -> &Arc<Prt> {
        self.state.cluster.prt()
    }

    /// Run one client-facing op under telemetry: its virtual duration
    /// feeds the `op.<name>.latency_ns` histogram (also named
    /// `op.<name>.ack_ns`: the return to the caller IS the ack;
    /// `op.*.durable_ns`, stamped when the mutation's transaction lands,
    /// measures the rest), and (when tracing is
    /// enabled) a root span lands on this client's track with every
    /// span recorded downstream — RPC serving, journal flushes, store
    /// I/O — causally linked to it through the ambient [`TraceCtx`].
    pub(crate) fn traced<T>(&self, op: Op, f: impl FnOnce() -> FsResult<T>) -> FsResult<T> {
        let name = op.name();
        // Deterministic trace identity: a per-client sequence number,
        // never the seeded RNG streams. Head-based sampling decides here
        // — one modulus on the sequence — so two traced runs of the same
        // workload sample the same ops and produce identical span graphs.
        let seq = self.state.op_seq.fetch_add(1, Ordering::Relaxed);
        let trace_id = ((self.state.id.0 as u64 + 1) << 32) | (seq & 0xFFFF_FFFF);
        let tracer = &self.state.telemetry.tracer;
        let every = tracer.sample_every();
        let sampled = every == 0 || seq.is_multiple_of(every);
        let ctx = TraceCtx::root(trace_id, sampled);
        let _trace = CtxGuard::install(ctx);
        let flight = &self.state.telemetry.flight;
        let start = self.port.now();
        flight.record(self.state.id.0, start, "op.begin", seq as i64, name);
        let r = f();
        let end = self.port.now();
        flight.record(self.state.id.0, end, "op.end", i64::from(r.is_err()), name);
        let elapsed = end.saturating_sub(start);
        self.state.cluster.op_hist(op).record(elapsed);
        if tracer.enabled() {
            // parent_span 0 marks the trace root; the trace id doubles
            // as the root span id children link to.
            tracer.record_with_ctx(
                TraceCtx {
                    parent_span: 0,
                    ..ctx
                },
                PID_CLIENT,
                self.state.id.0,
                name,
                "op",
                start,
                end,
            );
        }
        r
    }

    /// A fresh inode number, with headroom on both sides so that
    /// `partition::steer_ino` can move it by up to a partition count.
    pub(crate) fn fresh_ino(&self) -> Ino {
        const HEADROOM: Ino = u32::MAX as Ino;
        loop {
            let ino: u128 = self.state.rngs.random_u128();
            if ino > ROOT_INO + HEADROOM && ino <= Ino::MAX - HEADROOM {
                return ino;
            }
        }
    }

    pub(crate) fn fuse_charge(&self, requests: usize) {
        self.port
            .advance(self.config().spec.fuse_op_cost * requests as u64);
    }
}

impl ClientState {
    /// A new [`DataCache`] wired to the shared hit/miss counters.
    pub(crate) fn fresh_cache(&self, entries: usize) -> DataCache {
        let mut cache = DataCache::new(entries);
        cache.attach_counters(self.cache_counters.clone());
        cache
    }

    /// Acquire the data-cache lock (rank: Leaf).
    pub(crate) fn lock_cache(&self) -> Ranked<'_, DataCache> {
        lockorder::lock(self.id.0, Rank::Leaf, &self.cache)
    }

    /// Acquire a led directory's metatable (rank: Metatable).
    pub(crate) fn lock_table<'a>(&self, table: &'a Mutex<Metatable>) -> Ranked<'a, Metatable> {
        lockorder::lock(self.id.0, Rank::Metatable, table)
    }

    /// The commit lane a directory partition maps to, keyed by its
    /// partition key (== the directory ino for unpartitioned
    /// directories), so a split directory's partitions spread across
    /// lanes and commit in parallel.
    pub(crate) fn lane(&self, pkey: Ino) -> &CommitLane {
        &self.lanes[(pkey % self.lanes.len() as u128) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_objstore::{ClusterConfig, ObjectCluster};

    fn tiny_cluster() -> Arc<ArkCluster> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        ArkCluster::new(ArkConfig::test_tiny(), store)
    }

    #[test]
    fn clients_of_one_deployment_share_one_op_histogram_family() {
        let cluster = tiny_cluster();
        let (a, b) = (cluster.client(), cluster.client());
        let registry = &cluster.telemetry().registry;
        for op in [Op::Mkdir, Op::Create, Op::Statfs] {
            let hist = a.state.cluster.op_hist(op);
            assert!(Arc::ptr_eq(hist, b.state.cluster.op_hist(op)));
            for suffix in [".latency_ns", ".ack_ns"] {
                let named = registry.histogram(&format!("{}{suffix}", op.name()));
                assert!(Arc::ptr_eq(hist, &named));
            }
        }
        // Minting a client registers no metric the deployment lacks.
        let before = registry.snapshot().len();
        let _c = cluster.client();
        assert_eq!(registry.snapshot().len(), before);
    }

    #[test]
    fn an_op_records_one_sample_under_both_names() {
        const CREATES: u64 = 12;
        let cluster = tiny_cluster();
        let clients = [cluster.client(), cluster.client()];
        let root = Credentials::root();
        clients[0].mkdir(&root, "/d", 0o755).unwrap();
        for i in 0..CREATES {
            let client = &clients[i as usize % 2];
            let fh = client.create(&root, &format!("/d/f{i}"), 0o644).unwrap();
            client.close(&root, fh).unwrap();
        }
        let registry = &cluster.telemetry().registry;
        let latency = registry.histogram("op.create.latency_ns").snapshot();
        assert_eq!(latency.count(), CREATES);
        assert_eq!(registry.histogram("op.create.ack_ns").snapshot(), latency);
        assert_eq!(registry.histogram("op.mkdir.ack_ns").snapshot().count(), 1);
    }
}
