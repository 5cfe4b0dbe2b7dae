//! Directory-leadership lifecycle and local-vs-remote routing.
//!
//! For every directory a client touches it either *leads* (holds the
//! lease from the lease manager and the loaded [`Metatable`]) or knows
//! (or learns) the current leader and forwards over RPC (§III-B,
//! Figure 3). This module owns:
//!
//! * the striped leadership state ([`DirService`]): led tables, lease
//!   expiries, and remote-leader hints, all keyed by **partition key**
//!   (== the directory ino for unpartitioned directories), plus cached
//!   [`PartitionMap`]s keyed by directory ino;
//! * lease acquire/extend/release and the takeover/recovery entry point
//!   ([`ClientState::dir_ref_part`] → [`Metatable::load_partition`]);
//! * the leader-side RPC service ([`ClientService`], [`ClientState::serve`])
//!   and leader-initiated cache-flush broadcasts (§III-D);
//! * client-side routing helpers ([`ArkClient::on_dir`],
//!   [`ArkClient::remote_call`]) and the split/merge protocol
//!   ([`ArkClient::set_dir_partitions`]).
//!
//! ## Partition routing
//!
//! Cached partition maps are *hints*: a client with no cached map
//! assumes the singleton layout, and every authority check happens at
//! the serving side — [`Metatable::load_partition`] validates the
//! routed `(partition, count)` against the store's map (`Stale` on
//! mismatch) and `serve_local` rejects names outside the led partition's
//! bucket range (`NotLeader`). Either signal makes the router refresh
//! its cached map from the store (one GET) and re-route.
//!
//! The split/merge protocol drains — commits *and* checkpoints — every
//! old partition's journal **before** installing the new map. That
//! ordering is the barrier-safety invariant: anything a client acked
//! under an older map is already durable, so `fsync`'s fan-out may trust
//! a cached (possibly stale) map.
//!
//! Lock order (see [`super::lockorder`]): a dir stripe is rank
//! *Stripe*; it may be held while acquiring a lease or loading a
//! metatable from the store, but never while locking another ranked
//! client lock except a [`Metatable`] (rank above it).

mod ops;

use super::lockorder::{self, Rank, RankGuard};
use super::{ArkClient, ClientState, MAX_LEASE_RETRIES};
use crate::cache::write_back;
use crate::cluster::manager_node;
use crate::meta::InodeRecord;
use crate::metatable::{Deposit, Metatable};
use crate::partition::{partition_ino, PartitionMap};
use crate::rpc::{DirView, OpBody, OpRequest, OpResponse};
use arkfs_lease::{LeaseRequest, LeaseResponse};
use arkfs_netsim::{NetError, NodeId, Service};
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::PID_CLIENT;
use arkfs_vfs::{Credentials, FileType, FsError, FsResult, Ino};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A directory as seen from one client.
pub(crate) enum DirRef {
    Local(Arc<Mutex<Metatable>>),
    Remote(NodeId),
}

/// One stripe of directory-leadership state. The leadership maps are
/// keyed by **partition key** (== the directory ino for partition 0 and
/// for unpartitioned directories) and updated atomically under the
/// stripe lock, so a table entry and its lease expiry can never be
/// observed out of sync.
#[derive(Debug, Default)]
pub(crate) struct DirStripe {
    /// Directory partitions this client currently leads (within this
    /// stripe), keyed by partition key.
    pub(crate) tables: HashMap<Ino, Arc<Mutex<Metatable>>>,
    /// Lease expiry per led partition key.
    pub(crate) leases: HashMap<Ino, Nanos>,
    /// Last-known leaders of remote directory partitions, keyed by
    /// partition key.
    pub(crate) remote_hints: HashMap<Ino, NodeId>,
    /// Cached partition maps, keyed by (real) directory ino. Routing
    /// hints only — never authoritative; a directory with no entry is
    /// treated as unpartitioned until a `Stale`/`NotLeader` forces a
    /// refresh from the store.
    pub(crate) pmaps: HashMap<Ino, PartitionMap>,
    /// Acquisitions of this stripe's lock (maintained under the lock).
    locks: u64,
}

/// A locked [`DirStripe`] plus its rank guard.
pub(crate) struct StripeGuard<'a> {
    guard: MutexGuard<'a, DirStripe>,
    _rank: RankGuard,
}

impl Deref for StripeGuard<'_> {
    type Target = DirStripe;
    fn deref(&self) -> &DirStripe {
        &self.guard
    }
}

impl DerefMut for StripeGuard<'_> {
    fn deref_mut(&mut self) -> &mut DirStripe {
        &mut self.guard
    }
}

/// Lock-striped directory-leadership state: directory `d` lives in
/// stripe `d % N`, so threads working on directories in different
/// stripes never contend on each other's leadership bookkeeping.
#[derive(Debug)]
pub(crate) struct DirService {
    stripes: Vec<Mutex<DirStripe>>,
    node: u32,
    pub(crate) contention: super::Contention,
}

impl DirService {
    pub(crate) fn new(stripes: usize, node: u32) -> Self {
        DirService {
            stripes: (0..stripes.max(1)).map(|_| Mutex::default()).collect(),
            node,
            contention: super::Contention::default(),
        }
    }

    /// Lock the stripe owning `dir` (rank: Stripe).
    pub(crate) fn stripe(&self, dir: Ino) -> StripeGuard<'_> {
        self.stripe_at((dir % self.stripes.len() as u128) as usize)
    }

    /// Number of directories this client currently leads.
    pub(crate) fn led_directories(&self) -> usize {
        (0..self.stripes.len())
            .map(|i| self.stripe_at(i).tables.len())
            .sum()
    }

    /// Inos of every led directory.
    pub(crate) fn led_inos(&self) -> Vec<Ino> {
        (0..self.stripes.len())
            .flat_map(|i| self.stripe_at(i).tables.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Every led directory with its metatable.
    pub(crate) fn led_tables(&self) -> Vec<(Ino, Arc<Mutex<Metatable>>)> {
        (0..self.stripes.len())
            .flat_map(|i| {
                self.stripe_at(i)
                    .tables
                    .iter()
                    .map(|(&ino, t)| (ino, Arc::clone(t)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Drop leadership bookkeeping for partition key `pkey` (table +
    /// lease expiry).
    pub(crate) fn forget(&self, pkey: Ino) {
        let mut s = self.stripe(pkey);
        s.tables.remove(&pkey);
        s.leases.remove(&pkey);
    }

    /// Drop the remote-leader hint for partition key `pkey`.
    pub(crate) fn forget_hint(&self, pkey: Ino) {
        self.stripe(pkey).remote_hints.remove(&pkey);
    }

    /// Drop everything (crash).
    pub(crate) fn clear(&self) {
        for i in 0..self.stripes.len() {
            let mut s = self.stripe_at(i);
            s.tables.clear();
            s.leases.clear();
            s.remote_hints.clear();
            s.pmaps.clear();
        }
    }

    /// Total stripe-lock acquisitions so far.
    pub(crate) fn lock_count(&self) -> u64 {
        (0..self.stripes.len())
            .map(|i| {
                let s = self.stripe_at(i);
                // Don't count this read itself.
                s.locks - 1
            })
            .sum()
    }

    fn stripe_at(&self, i: usize) -> StripeGuard<'_> {
        let rank = lockorder::acquire(self.node, Rank::Stripe);
        let mut guard = self.contention.lock(&self.stripes[i]);
        guard.locks += 1;
        StripeGuard { guard, _rank: rank }
    }
}

/// The RPC face of a client: leaders serve forwarded operations here,
/// on the *caller's* thread.
pub(crate) struct ClientService(pub(crate) Arc<ClientState>);

impl Service<OpRequest, OpResponse> for ClientService {
    fn handle(&self, arrival: Nanos, req: OpRequest) -> (OpResponse, Nanos) {
        if self.0.crashed.load(Ordering::Acquire) {
            return (OpResponse::NotLeader, arrival);
        }
        let spec = &self.0.cluster.config().spec;
        let (start, forgot) = self
            .0
            .server
            .reserve_counting(arrival, spec.leader_op_service);
        self.0.leader_served.inc();
        self.0.leader_busy.add(spec.leader_op_service);
        if forgot > 0 {
            self.0.leader_forgotten.add(forgot);
        }
        let port = Port::starting_at(start);
        let resp = self.0.serve(&port, req);
        (resp, port.now())
    }
}

impl ClientState {
    /// The cached partition map for `dir` (singleton when none cached).
    pub(crate) fn cached_pmap(&self, dir: Ino) -> PartitionMap {
        let cached = self.dirs.stripe(dir).pmaps.get(&dir).copied();
        cached.unwrap_or_else(|| PartitionMap::singleton(dir))
    }

    /// Install a partition map into the cache. Singleton maps are stored
    /// as absence, matching the store's convention.
    pub(crate) fn cache_pmap(&self, map: PartitionMap) {
        let mut s = self.dirs.stripe(map.dir);
        if map.partitions <= 1 {
            s.pmaps.remove(&map.dir);
        } else {
            s.pmaps.insert(map.dir, map);
        }
    }

    /// Re-read `dir`'s partition map from the store (absent == singleton)
    /// and cache the result.
    pub(crate) fn refresh_pmap(&self, port: &Port, dir: Ino) -> FsResult<PartitionMap> {
        let t0 = port.now();
        let map = self
            .cluster
            .prt()
            .load_pmap(port, dir)?
            .unwrap_or_else(|| PartitionMap::singleton(dir));
        // The refresh GET is time the op spends re-routing, not serving.
        self.trace_span("route.refresh", "route", t0, port.now());
        self.cache_pmap(map);
        Ok(map)
    }

    /// Record a client-side wait or detour on the tracer, if it took any
    /// virtual time.
    pub(super) fn trace_span(
        &self,
        name: &'static str,
        cat: &'static str,
        start: Nanos,
        end: Nanos,
    ) {
        if end > start {
            let tracer = &self.telemetry.tracer;
            tracer.record(PID_CLIENT, self.id.0, name, cat, start, end);
        }
    }

    /// Send `req` to the lease manager of partition key `pkey`.
    fn ask_manager(
        &self,
        port: &Port,
        pkey: Ino,
        req: LeaseRequest,
    ) -> Result<LeaseResponse, NetError> {
        let manager = manager_node(pkey, self.cluster.config().lease_managers);
        self.cluster.call_lease(port, manager, req)
    }

    /// Extend the lease of `pkey` with a deposit of `t`'s view
    /// ([`Metatable::lease_view`]; `None` when there is none to leave),
    /// marked live once the manager has it. `t` stays locked across the
    /// exchange, so no change slips between building the view and its
    /// arrival.
    fn deposit_view(
        &self,
        port: &Port,
        pkey: Ino,
        t: &mut Metatable,
    ) -> Option<Result<LeaseResponse, NetError>> {
        let (client, ino) = (self.id, pkey);
        // Without permission caches nobody would take it.
        if !self.cluster.config().permission_cache {
            return None;
        }
        let view = t.lease_view(port.now())?;
        let resp = self.ask_manager(port, pkey, LeaseRequest::Deposit { client, ino, view });
        if let Ok(LeaseResponse::Granted {
            must_load: false, ..
        }) = resp
        {
            t.deposit = Deposit::Live;
        }
        Some(resp)
    }

    /// Acquire or extend the lease of `pkey`; a renewal deposits the led
    /// table's view along the way.
    fn acquire_lease(
        &self,
        port: &Port,
        pkey: Ino,
        led: Option<&mut Metatable>,
    ) -> Result<LeaseResponse, NetError> {
        let (client, ino) = (self.id, pkey);
        led.and_then(|t| self.deposit_view(port, pkey, t))
            .unwrap_or_else(|| self.ask_manager(port, pkey, LeaseRequest::Acquire { client, ino }))
    }

    /// Hand the lease of `pkey` back.
    pub(crate) fn release_lease(&self, port: &Port, pkey: Ino) {
        let (client, ino) = (self.id, pkey);
        let _ = self.ask_manager(port, pkey, LeaseRequest::Release { client, ino });
    }

    /// Resolve partition 0 of a directory (== the whole directory when
    /// unpartitioned), refreshing the cached partition map on `Stale`.
    /// Partition 0's key is the directory ino itself, so callers that
    /// only need the dir inode, file leases, or dir-level attributes can
    /// stay partition-agnostic.
    pub(crate) fn dir_ref(&self, port: &Port, dir: Ino) -> FsResult<DirRef> {
        for _ in 0..MAX_LEASE_RETRIES {
            let pmap = self.cached_pmap(dir);
            match self.dir_ref_part(port, dir, 0, pmap.partitions) {
                Err(FsError::Stale) => {
                    self.refresh_pmap(port, dir)?;
                }
                r => return r,
            }
        }
        Err(FsError::TimedOut)
    }

    /// Resolve one partition of a directory to a local metatable (leading
    /// it, acquiring or extending the lease as needed) or the current
    /// remote leader. `pcount` is the *routed* partition count; if it
    /// disagrees with the store's map at load time, the load fails with
    /// [`FsError::Stale`] and the caller refreshes its cached map.
    ///
    /// The stripe lock is held across the lease-manager exchange and any
    /// [`Metatable::load_partition`], so concurrent threads racing for
    /// the same partition converge on one acquisition instead of
    /// double-loading.
    pub(crate) fn dir_ref_part(
        &self,
        port: &Port,
        dir: Ino,
        pidx: u32,
        pcount: u32,
    ) -> FsResult<DirRef> {
        let config = self.cluster.config();
        let pkey = partition_ino(dir, pidx);
        for _ in 0..MAX_LEASE_RETRIES {
            let mut s = self.dirs.stripe(pkey);
            let now = port.now();
            // What we hold: a led table with its lease expiry, or nothing.
            let held = s.tables.get(&pkey).cloned();
            let expiry = s.leases.get(&pkey).copied().unwrap_or(0);
            match &held {
                Some(table) if expiry > now.saturating_add(config.lease_renew_margin) => {
                    return Ok(DirRef::Local(Arc::clone(table)));
                }
                Some(_) => {} // extend (or same-holder re-acquire) below
                None => {
                    if let Some(leader) = s.remote_hints.get(&pkey).copied() {
                        return Ok(DirRef::Remote(leader));
                    }
                }
            }
            let mut led = held.as_ref().map(|t| self.lock_table(t));
            let resp = self.acquire_lease(port, pkey, led.as_deref_mut());
            drop(led);
            let (leader, view) = match resp {
                Ok(LeaseResponse::Granted {
                    expires_at,
                    must_load,
                    ..
                }) => {
                    let table = match held {
                        Some(table) if !must_load => table,
                        // First acquisition, or the manager believes our
                        // state is stale: build the metatable. §III-C:
                        // load inode, check, pull dentries and child
                        // inodes. Metatable::load_partition validates the
                        // partition map and runs journal recovery on this
                        // partition's stream first.
                        _ => match Metatable::load_partition(
                            self.cluster.prt(),
                            port,
                            dir,
                            pidx,
                            pcount,
                            config.dentry_buckets,
                            config.lease_period,
                        ) {
                            Ok(mut t) => {
                                // One more manager message per load, if
                                // there is a view to leave there.
                                let _ = self.deposit_view(port, pkey, &mut t);
                                let t = Arc::new(Mutex::new(t));
                                s.tables.insert(pkey, Arc::clone(&t));
                                self.lane(pkey).register(pkey, &t);
                                t
                            }
                            Err(e) => {
                                // Drop an old table too: it may have been
                                // built under a superseded partition map.
                                s.tables.remove(&pkey);
                                s.leases.remove(&pkey);
                                self.release_lease(port, pkey);
                                return Err(e);
                            }
                        },
                    };
                    s.leases.insert(pkey, expires_at);
                    return Ok(DirRef::Local(table));
                }
                Ok(LeaseResponse::Redirect { leader }) => (leader, None),
                Ok(LeaseResponse::RedirectView { leader, view }) => (leader, Some(view)),
                Ok(LeaseResponse::Retry { until }) => {
                    drop(s);
                    self.telemetry.flight.record(
                        self.id.0,
                        port.now(),
                        "lease.retry",
                        pidx as i64,
                        "lease busy; backing off",
                    );
                    let wait_start = port.now();
                    port.wait_until(until);
                    self.trace_span("lease.wait", "lease", wait_start, port.now());
                    continue;
                }
                Ok(LeaseResponse::Released) => unreachable!("release response to acquire"),
                // Manager unreachable (crash, or exhausted retries on a
                // real transport), but a lease we hold may still be valid.
                Err(_) => {
                    return match held {
                        Some(table) if expiry > now => Ok(DirRef::Local(table)),
                        _ => Err(FsError::TimedOut),
                    };
                }
            };
            // Redirected. If we led the partition we lost it; discard
            // stale state.
            s.tables.remove(&pkey);
            s.leases.remove(&pkey);
            s.remote_hints.insert(pkey, leader);
            // The pcache stripe has the dir stripe's rank: let go first.
            drop(s);
            self.telemetry.flight.record(
                self.id.0,
                port.now(),
                "lease.redirect",
                leader.0 as i64,
                if held.is_some() {
                    "lost partition lease; redirected to leader"
                } else {
                    "partition led elsewhere"
                },
            );
            // The manager's reply carried the leader's view: path
            // resolution through `dir` needs no `DirView` from the leader.
            if let Some(view) = view.filter(|_| config.permission_cache) {
                if let Ok(body) = view.body.downcast::<DirView>() {
                    let expires_at = view.stamp.saturating_add(config.lease_period);
                    self.pcache_install(port.now(), dir, body, expires_at);
                }
            }
            return Ok(DirRef::Remote(leader));
        }
        Err(FsError::TimedOut)
    }

    /// The key of the partition `body` routes to under our cached map of
    /// its directory (`None` for an op not addressed to a directory).
    fn route_pkey(&self, body: &OpBody) -> Option<Ino> {
        let (dir, key) = body.route()?;
        let pmap = self.cached_pmap(dir);
        Some(pmap.pkey(pmap.partition_of(key, self.cluster.config().dentry_buckets)))
    }

    /// Service entry point: leadership checks + dispatch.
    ///
    /// The routed partition is computed from *our* cached map; if the
    /// sender routed under a different map the partition's own ownership
    /// checks in `serve_local` still reject misdirected names, so a map
    /// disagreement degrades to `NotLeader` + refresh, never to serving
    /// out of the wrong partition.
    pub(crate) fn serve(&self, port: &Port, req: OpRequest) -> OpResponse {
        // Cache flushes are addressed to the client, not a directory.
        if let OpBody::FlushCache { file } = req.body {
            return self.serve_flush(port, file);
        }
        // Partition handoffs drain and drop leadership rather than
        // dispatching into a table.
        if let OpBody::RelinquishPartition { dir, partition } = req.body {
            return self.serve_relinquish(port, dir, partition);
        }
        let Some(pkey) = self.route_pkey(&req.body) else {
            return OpResponse::Err(FsError::InvalidArgument);
        };
        let table = {
            let mut s = self.dirs.stripe(pkey);
            let Some(table) = s.tables.get(&pkey).cloned() else {
                return OpResponse::NotLeader;
            };
            let valid = s.leases.get(&pkey).is_some_and(|&e| e > port.now());
            if !valid {
                // Try a same-holder extension before turning the caller
                // away.
                let extended = self.acquire_lease(port, pkey, Some(&mut self.lock_table(&table)));
                match extended {
                    Ok(LeaseResponse::Granted {
                        expires_at,
                        must_load: false,
                        ..
                    }) => {
                        s.leases.insert(pkey, expires_at);
                    }
                    _ => {
                        s.tables.remove(&pkey);
                        s.leases.remove(&pkey);
                        return OpResponse::NotLeader;
                    }
                }
            }
            table
        };
        self.serve_local(port, &table, req)
    }

    /// Split/merge handoff (the "seal and hand off" step of the
    /// repartition protocol): quiesce one led partition — commit its
    /// journal, drain its commit lane, checkpoint — then drop the table
    /// and release the lease so the repartitioning client can install
    /// the new map knowing this partition's stream is empty.
    ///
    /// `NotLeader` tells the caller to take the partition over itself
    /// (its own takeover recovery then drains whatever stream a crashed
    /// leader may have left).
    pub(crate) fn serve_relinquish(&self, port: &Port, dir: Ino, partition: u32) -> OpResponse {
        let pkey = partition_ino(dir, partition);
        let table = {
            let s = self.dirs.stripe(pkey);
            match s.tables.get(&pkey).cloned() {
                Some(t) => t,
                None => return OpResponse::NotLeader,
            }
        };
        // On failure we stay leader (unfrozen); the caller counts the
        // failed handoff and falls back to takeover or aborts. `Busy`:
        // another repartition already owns this handoff.
        let quiesced = self.quiesce(port, pkey, &mut self.lock_table(&table));
        if let Err(e) = quiesced {
            return OpResponse::Err(e);
        }
        self.dirs.forget(pkey);
        self.release_lease(port, pkey);
        self.partition_handoffs.inc();
        self.telemetry.flight.record(
            self.id.0,
            port.now(),
            "lease.handoff",
            partition as i64,
            "partition quiesced and relinquished",
        );
        OpResponse::Ok
    }

    /// Quiesce a led partition for a split/merge handoff: freeze it (no
    /// new work enters), commit its journal, drain its commit lane and
    /// checkpoint, so its stream is empty before the map that governs it
    /// is replaced. `Busy` if it is already frozen by another
    /// repartition; on any other error it is left unfrozen and serving.
    pub(crate) fn quiesce(&self, port: &Port, pkey: Ino, t: &mut Metatable) -> FsResult<()> {
        if t.frozen {
            return Err(FsError::Busy);
        }
        t.frozen = true;
        let prt = self.cluster.prt();
        let lane = self.lane(pkey);
        let local_meta_op = self.cluster.config().spec.local_meta_op;
        let drained = t
            .journal
            .commit(prt, port, &lane.res, local_meta_op)
            .and_then(|()| {
                let done = lane.drain_until(port.now());
                port.wait_until(done);
                t.checkpoint(prt, port)
            });
        if drained.is_err() {
            t.frozen = false;
        }
        drained
    }

    /// Write back and drop our cached chunks of `file` (leader-initiated
    /// cache flush, §III-D). Also flips matching open handles to direct
    /// mode.
    pub(crate) fn serve_flush(&self, port: &Port, file: Ino) -> OpResponse {
        let dirty = self.lock_cache().take_dirty(file);
        if let Err(e) = write_back(&**self.cluster.prt().store(), port, dirty) {
            return OpResponse::Err(e);
        }
        self.lock_cache().invalidate_file(file);
        let size = self.files.flip_to_direct(file);
        OpResponse::Flushed { size }
    }
}

impl ArkClient {
    /// Local-or-remote handle on a directory (partition 0).
    pub(crate) fn dir_ref(&self, dir: Ino) -> FsResult<DirRef> {
        self.state.dir_ref(&self.port, dir)
    }

    /// Local-or-remote handle on the partition of `dir` owning `name`'s
    /// dentry bucket. A `Local` result is re-validated against the name
    /// (a table loaded under a superseded map no longer owns the bucket);
    /// on mismatch or `Stale` the cached map is refreshed and routing
    /// retried.
    pub(crate) fn dir_ref_name(&self, dir: Ino, name: &str) -> FsResult<DirRef> {
        let buckets = self.config().dentry_buckets;
        for _ in 0..MAX_LEASE_RETRIES {
            let pmap = self.state.cached_pmap(dir);
            let pidx = pmap.partition_of_name(name, buckets);
            match self
                .state
                .dir_ref_part(&self.port, dir, pidx, pmap.partitions)
            {
                Ok(DirRef::Local(table)) => {
                    let owned = self.state.lock_table(&table).owns_name(name);
                    if owned {
                        return Ok(DirRef::Local(table));
                    }
                    self.state.refresh_pmap(&self.port, dir)?;
                }
                Ok(remote) => return Ok(remote),
                Err(FsError::Stale) => {
                    self.state.refresh_pmap(&self.port, dir)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(FsError::TimedOut)
    }

    /// The inode record of a directory, local or remote.
    pub(crate) fn dir_inode(&self, dir: Ino) -> FsResult<InodeRecord> {
        match self.dir_ref(dir)? {
            DirRef::Local(table) => {
                self.port.advance(self.config().spec.local_meta_op);
                Ok(self.state.lock_table(&table).dir.clone())
            }
            DirRef::Remote(leader) => {
                let resp =
                    self.remote_call(&Credentials::root(), leader, OpBody::DirInode { dir })?;
                match resp {
                    OpResponse::Inode(rec) => Ok(rec),
                    OpResponse::Err(e) => Err(e),
                    _ => Err(FsError::Io("unexpected dir-inode response".into())),
                }
            }
        }
    }

    /// RPC to a known leader of the partition owning `body`; falls back
    /// into the full routing loop when the leader changed.
    pub(crate) fn remote_call(
        &self,
        ctx: &Credentials,
        leader: NodeId,
        body: OpBody,
    ) -> FsResult<OpResponse> {
        let req = OpRequest::new(ctx.clone(), body.clone());
        match self.state.cluster.call_ops(&self.port, leader, req) {
            Ok(OpResponse::NotLeader) | Err(_) => {
                if let Some(pkey) = self.state.route_pkey(&body) {
                    self.state.dirs.forget_hint(pkey);
                }
                self.on_dir(ctx, body)
            }
            Ok(resp) => Ok(resp),
        }
    }

    /// Run an operation against the directory it is addressed to
    /// ([`OpBody::route`]): locally when we lead the partition it routes
    /// to, else forwarded to that partition's leader.
    pub(crate) fn on_dir(&self, ctx: &Credentials, body: OpBody) -> FsResult<OpResponse> {
        self.on_dir_port(&self.port, ctx, body)
    }

    /// [`Self::on_dir`] of an op whose one good answer is `Ok`.
    pub(crate) fn on_dir_ok(&self, ctx: &Credentials, body: OpBody) -> FsResult<()> {
        let kind = OpBody::KINDS[body.tag() as usize];
        match self.on_dir(ctx, body)? {
            OpResponse::Ok => Ok(()),
            OpResponse::Err(e) => Err(e),
            _ => Err(FsError::Io(format!("unexpected {kind} response"))),
        }
    }

    /// [`Self::on_dir`] on an explicit timeline — fan-out paths (readdir
    /// merge, fsync barrier) run partitions on forked ports so the
    /// caller pays the slowest partition, not the sum.
    pub(crate) fn on_dir_port(
        &self,
        port: &Port,
        ctx: &Credentials,
        body: OpBody,
    ) -> FsResult<OpResponse> {
        let config = self.config();
        let Some((dir, key)) = body.route() else {
            return Err(FsError::InvalidArgument);
        };
        if body.mutates() && config.commit_mode == crate::config::CommitMode::Async {
            // Whoever serves this (us or a remote partition leader) may
            // ack before durability: remember the directory so this
            // client's next `sync_all` barriers every partition of it.
            self.state.dirty_dirs.lock().insert(dir);
        }
        for _ in 0..MAX_LEASE_RETRIES {
            let pmap = self.state.cached_pmap(dir);
            let pidx = pmap.partition_of(key, config.dentry_buckets);
            let pkey = pmap.pkey(pidx);
            match self.state.dir_ref_part(port, dir, pidx, pmap.partitions) {
                Ok(DirRef::Local(table)) => {
                    port.advance(config.spec.local_meta_op);
                    let req = OpRequest::new(ctx.clone(), body.clone());
                    match self.state.serve_local(port, &table, req) {
                        OpResponse::NotLeader => {
                            // Our own table rejected the op: routed under
                            // a stale map, or frozen by an in-flight
                            // split. Refresh and re-route.
                            self.state.telemetry.flight.record(
                                self.state.id.0,
                                port.now(),
                                "op.notleader",
                                pidx as i64,
                                "own table rejected op; refreshing map",
                            );
                            self.state.refresh_pmap(port, dir)?;
                        }
                        resp => return Ok(resp),
                    }
                }
                Ok(DirRef::Remote(leader)) => {
                    let req = OpRequest::new(ctx.clone(), body.clone());
                    match self.state.cluster.call_ops(port, leader, req) {
                        Ok(OpResponse::NotLeader) | Err(_) => {
                            self.state.telemetry.flight.record(
                                self.state.id.0,
                                port.now(),
                                "op.notleader",
                                leader.0 as i64,
                                "remote leader bounced op; refreshing map",
                            );
                            self.state.dirs.forget_hint(pkey);
                            self.state.refresh_pmap(port, dir)?;
                        }
                        Ok(resp) => return Ok(resp),
                    }
                }
                Err(FsError::Stale) => {
                    self.state.refresh_pmap(port, dir)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(FsError::TimedOut)
    }

    /// Repartition `path` (a directory) to `partitions` dentry
    /// partitions. This is the explicit form of the load-triggered
    /// split/merge; fig8 uses it to pin partition counts.
    pub fn set_dir_partitions(
        &self,
        ctx: &Credentials,
        path: &str,
        partitions: u32,
    ) -> FsResult<()> {
        let (ino, ftype) = self.resolve(ctx, path)?;
        if ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        self.repartition(ino, partitions)
    }

    /// Change `dir`'s partition count to `target`, preserving the
    /// namespace exactly. Protocol (crash-safe at every boundary):
    ///
    /// 1. Read the authoritative map; no-op if already at `target`.
    /// 2. For each *old* partition: drain its journal to the checkpoint
    ///    — by freezing our own table, by a `RelinquishPartition` RPC to
    ///    the remote leader, or (failed handoff, counted on
    ///    `lease.handoff_failed.count`) by taking the partition over and
    ///    letting recovery replay + drain the stream locally.
    /// 3. Install the new map (delete it when `target == 1`).
    /// 4. Drop our frozen leaderships and release their leases; fresh
    ///    leaders load under the new map with empty journal streams.
    ///
    /// A crash before step 3 leaves the old map governing streams that
    /// are drained or recoverable under the old ranges; a crash after
    /// leaves frozen tables refusing service until their leases lapse.
    /// Because step 2 completes before step 3, an op acked under the old
    /// map is durable before the new map exists — the invariant fsync's
    /// cached-map fan-out relies on.
    pub(crate) fn repartition(&self, dir: Ino, target: u32) -> FsResult<()> {
        let config = self.config();
        let max = config.dir_partition_max.max(1);
        let buckets32 = u32::try_from(config.dentry_buckets).unwrap_or(u32::MAX);
        let target = target.clamp(1, max.min(buckets32.max(1)));
        let old = self.state.refresh_pmap(&self.port, dir)?;
        if old.partitions == target {
            return Ok(());
        }
        let growing = target > old.partitions;
        // Step 2: quiesce every old partition so no journal stream
        // outlives the map it was written under.
        let mut frozen: Vec<Ino> = Vec::new();
        for p in 0..old.partitions {
            let pkey = old.pkey(p);
            let mut quiesced = false;
            for _ in 0..MAX_LEASE_RETRIES {
                match self.state.dir_ref_part(&self.port, dir, p, old.partitions) {
                    Ok(DirRef::Local(table)) => {
                        // `Busy`: a concurrent repartition beat us to it.
                        let mut t = self.state.lock_table(&table);
                        if let Err(e) = self.state.quiesce(&self.port, pkey, &mut t) {
                            drop(t);
                            self.unfreeze(&frozen);
                            return Err(e);
                        }
                        frozen.push(pkey);
                        quiesced = true;
                        break;
                    }
                    Ok(DirRef::Remote(leader)) => {
                        let req = OpRequest::new(
                            Credentials::root(),
                            OpBody::RelinquishPartition { dir, partition: p },
                        );
                        match self.state.cluster.call_ops(&self.port, leader, req) {
                            Ok(OpResponse::Ok) => {
                                self.state.dirs.forget_hint(pkey);
                                self.state.partition_handoffs.inc();
                                quiesced = true;
                                break;
                            }
                            Ok(OpResponse::Err(FsError::Busy)) => {
                                self.unfreeze(&frozen);
                                return Err(FsError::Busy);
                            }
                            _ => {
                                // Failed handoff: counted, then retried
                                // via takeover — the next dir_ref_part
                                // acquires the lease (once it lapses) and
                                // recovery drains the stream for us.
                                self.state.lease_handoff_failed.inc();
                                self.state.dirs.forget_hint(pkey);
                            }
                        }
                    }
                    Err(FsError::Stale) => {
                        // The map changed under us mid-protocol.
                        self.unfreeze(&frozen);
                        return Err(FsError::Busy);
                    }
                    Err(e) => {
                        self.unfreeze(&frozen);
                        return Err(e);
                    }
                }
            }
            if !quiesced {
                self.unfreeze(&frozen);
                return Err(FsError::TimedOut);
            }
        }
        // Step 3: install the new map (absence == singleton).
        let map = PartitionMap {
            dir,
            epoch: old.epoch + 1,
            partitions: target,
        };
        let installed = if target == 1 {
            self.prt().delete_pmap(&self.port, dir)
        } else {
            self.prt().store_pmap(&self.port, &map)
        };
        if let Err(e) = installed {
            self.unfreeze(&frozen);
            return Err(e);
        }
        // Step 4: hand off our frozen leaderships.
        for pkey in frozen {
            self.state.dirs.forget(pkey);
            self.state.release_lease(&self.port, pkey);
            self.state.partition_handoffs.inc();
        }
        self.state.cache_pmap(map);
        if growing {
            self.state.partition_splits.inc();
        } else {
            self.state.partition_merges.inc();
        }
        Ok(())
    }

    /// Undo step-2 freezes after an aborted repartition: the old map
    /// still governs, so the frozen tables are valid and resume serving.
    fn unfreeze(&self, pkeys: &[Ino]) {
        for &pkey in pkeys {
            let table = {
                let s = self.state.dirs.stripe(pkey);
                s.tables.get(&pkey).cloned()
            };
            if let Some(table) = table {
                self.state.lock_table(&table).frozen = false;
            }
        }
    }

    /// Apply load-triggered splits/merges queued by `serve_local`'s
    /// append-rate sampling. Runs at op entry (no locks held); failures
    /// are dropped — sustained load re-queues on the next rate window.
    pub(crate) fn drain_pending_splits(&self) {
        loop {
            let next = {
                let mut pending = self.state.pending_splits.lock();
                pending.pop()
            };
            let Some((dir, target)) = next else { return };
            let _ = self.repartition(dir, target);
        }
    }
}
