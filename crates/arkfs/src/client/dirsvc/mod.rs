//! Directory-leadership lifecycle and local-vs-remote routing.
//!
//! For every directory a client touches it either *leads* (holds the
//! lease from the lease manager and the loaded [`Metatable`]) or knows
//! (or learns) the current leader and forwards over RPC (§III-B,
//! Figure 3). This module owns:
//!
//! * the leadership state ([`DirService`]): led tables, lease
//!   expiries, and remote-leader hints, all keyed by **partition key**
//!   (== the directory ino for unpartitioned directories), plus cached
//!   [`PartitionMap`]s keyed by directory ino;
//! * lease acquire/extend/release and the takeover/recovery entry point
//!   ([`ClientState::dir_ref_part`] → [`Metatable::load_partition`]);
//! * the one serve path ([`ClientState::serve_local`], in `ops`), which
//!   answers every directory op as an `FsResult`, and the leader-side
//!   RPC service in front of it ([`ClientService`], the wire boundary
//!   where a refusal becomes `OpResponse::Err`; [`ClientState::serve`]),
//!   plus leader-initiated cache-flush broadcasts (§III-D);
//! * client-side routing helpers ([`ArkClient::on_dir`] routes an op,
//!   [`ArkClient::on_dir_ref`] runs one already routed, locally or
//!   forwarded alike) and the split/merge protocol
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
//! Lock order (see [`super::lockorder`]): the dir table is rank *Dir*;
//! it may be held while acquiring a lease or loading a metatable from
//! the store, but never while locking another ranked client lock except
//! a [`Metatable`] (rank above it). It is one lock for all directories,
//! so threads of one client working on different directories wait for
//! each other while a lease exchange or a metatable load is in
//! progress: every workload drives a client from one thread.

mod ops;

use super::lockorder::{self, Rank, Ranked};
use super::{ArkClient, ClientState, MAX_LEASE_RETRIES};
use crate::cache::flush;
use crate::cluster::manager_node;
use crate::meta::InodeRecord;
use crate::metatable::{Deposit, Metatable};
use crate::partition::{partition_ino, PartitionMap};
use crate::rpc::{DirView, OpBody, OpRequest, OpResponse};
use arkfs_lease::{LeaseRequest, LeaseResponse};
use arkfs_netsim::{NetError, NodeId, Service};
use arkfs_simkit::hash::HashMap;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::{ctx, PID_CLIENT};
use arkfs_vfs::{Credentials, FileType, FsError, FsResult, Ino};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A directory as seen from one client.
pub(crate) enum DirRef {
    Local(Arc<Mutex<Metatable>>),
    Remote(NodeId),
}

/// A client's directory-leadership state. The leadership maps are keyed
/// by **partition key** (== the directory ino for partition 0 and for
/// unpartitioned directories) and updated atomically under one lock, so
/// a table entry and its lease expiry can never be observed out of sync.
#[derive(Debug, Default)]
pub(crate) struct DirTable {
    /// Directory partitions this client currently leads, in partition
    /// key order: the order `sync_all` flushes them and `release_all`
    /// hands them back.
    pub(crate) tables: BTreeMap<Ino, Arc<Mutex<Metatable>>>,
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
}

/// The [`DirTable`] behind its lock (rank *Dir*).
#[derive(Debug)]
pub(crate) struct DirService {
    table: Mutex<DirTable>,
    node: u32,
}

impl DirService {
    pub(crate) fn new(node: u32) -> Self {
        DirService {
            table: Mutex::default(),
            node,
        }
    }

    /// Lock the dir table (rank: Dir).
    pub(crate) fn lock(&self) -> Ranked<'_, DirTable> {
        lockorder::lock(self.node, Rank::Dir, &self.table)
    }

    /// Number of directories this client currently leads.
    pub(crate) fn led_directories(&self) -> usize {
        self.lock().tables.len()
    }

    /// Every led directory with its metatable, in partition key order.
    pub(crate) fn led_tables(&self) -> Vec<(Ino, Arc<Mutex<Metatable>>)> {
        let s = self.lock();
        s.tables
            .iter()
            .map(|(&ino, t)| (ino, Arc::clone(t)))
            .collect()
    }

    /// Drop leadership bookkeeping for partition key `pkey` (table +
    /// lease expiry).
    pub(crate) fn forget(&self, pkey: Ino) {
        let mut s = self.lock();
        s.tables.remove(&pkey);
        s.leases.remove(&pkey);
    }

    /// Drop the remote-leader hint for partition key `pkey`.
    pub(crate) fn forget_hint(&self, pkey: Ino) {
        self.lock().remote_hints.remove(&pkey);
    }

    /// Drop everything (crash).
    pub(crate) fn clear(&self) {
        *self.lock() = DirTable::default();
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
        // The wire boundary: the one place a refusal becomes a reply.
        let resp = self.0.serve(&port, req).unwrap_or_else(OpResponse::Err);
        (resp, port.now())
    }
}

impl ClientState {
    /// The cached partition map for `dir` (singleton when none cached).
    pub(crate) fn cached_pmap(&self, dir: Ino) -> PartitionMap {
        let cached = self.dirs.lock().pmaps.get(&dir).copied();
        cached.unwrap_or_else(|| PartitionMap::singleton(dir))
    }

    /// Install a partition map into the cache. Singleton maps are stored
    /// as absence, matching the store's convention.
    pub(crate) fn cache_pmap(&self, map: PartitionMap) {
        let mut s = self.dirs.lock();
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
    /// The dir table's lock is held across the lease-manager exchange
    /// and any [`Metatable::load_partition`], so concurrent threads
    /// racing for the same partition converge on one acquisition instead
    /// of double-loading.
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
            let mut s = self.dirs.lock();
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
            // The pcache has the dir table's rank: let go first.
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
    pub(crate) fn serve(&self, port: &Port, req: OpRequest) -> FsResult<OpResponse> {
        // Cache flushes are addressed to the client, not a directory.
        if let OpBody::FlushCache { file } = req.body {
            return self.serve_flush(port, file);
        }
        // Partition handoffs drain and drop leadership rather than
        // dispatching into a table.
        if let OpBody::RelinquishPartition { dir, partition } = req.body {
            return self.serve_relinquish(port, dir, partition);
        }
        let pkey = self.route_pkey(&req.body).ok_or(FsError::InvalidArgument)?;
        let table = {
            let mut s = self.dirs.lock();
            let Some(table) = s.tables.get(&pkey).cloned() else {
                return Ok(OpResponse::NotLeader);
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
                        return Ok(OpResponse::NotLeader);
                    }
                }
            }
            table
        };
        self.serve_local(port, &table, &req.creds, req.trace, &req.body)
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
    pub(crate) fn serve_relinquish(
        &self,
        port: &Port,
        dir: Ino,
        partition: u32,
    ) -> FsResult<OpResponse> {
        let pkey = partition_ino(dir, partition);
        let Some(table) = self.dirs.lock().tables.get(&pkey).cloned() else {
            return Ok(OpResponse::NotLeader);
        };
        // On failure we stay leader (unfrozen); the caller counts the
        // failed handoff and falls back to takeover or aborts. `Busy`:
        // another repartition already owns this handoff.
        self.quiesce(port, pkey, &mut self.lock_table(&table))?;
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
        Ok(OpResponse::Ok)
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
    /// cache flush, §III-D), answering only once every PUT of it is
    /// acked, those behind our writes included. Also flips matching open
    /// handles to direct mode.
    pub(crate) fn serve_flush(&self, port: &Port, file: Ino) -> FsResult<OpResponse> {
        let store = &**self.cluster.prt().store();
        flush(store, port, self.lock_cache(), Some(file))?;
        self.lock_cache().invalidate_file(file);
        let size = self.files.flip_to_direct(file);
        Ok(OpResponse::Flushed { size })
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

    /// The inode record of a directory, from its leader.
    pub(crate) fn dir_inode(&self, dir: Ino) -> FsResult<InodeRecord> {
        let route = self.dir_ref(dir)?;
        match self.on_dir_ref(&Credentials::root(), route, OpBody::DirInode { dir })? {
            OpResponse::Inode(rec) => Ok(rec),
            _ => Err(FsError::Io("unexpected dir-inode response".into())),
        }
    }

    /// Serve `body` at `route` on `port`: by our own table or by a
    /// remote leader. `None` when it was turned away (the table is not,
    /// or no longer, the one that owns the op) or the leader could not be
    /// reached; a leader's refusal is an `Err`.
    fn serve_at(
        &self,
        port: &Port,
        ctx: &Credentials,
        route: &DirRef,
        body: &OpBody,
    ) -> FsResult<Option<OpResponse>> {
        let resp = match route {
            DirRef::Local(table) => {
                port.advance(self.config().spec.local_meta_op);
                self.state
                    .serve_local(port, table, ctx, ctx::current(), body)?
            }
            DirRef::Remote(leader) => {
                let req = OpRequest::new(ctx.clone(), body.clone());
                match self.state.cluster.call_ops(port, *leader, req) {
                    Ok(resp) => resp.into_result()?,
                    Err(_) => OpResponse::NotLeader,
                }
            }
        };
        Ok(match resp {
            OpResponse::NotLeader => None,
            resp => Some(resp),
        })
    }

    /// Run `body` where `route` says its partition is served (a read
    /// routed by the caller, who consults the permission cache only for a
    /// remote route); falls back into the full routing loop when it was
    /// turned away.
    pub(crate) fn on_dir_ref(
        &self,
        ctx: &Credentials,
        route: DirRef,
        body: OpBody,
    ) -> FsResult<OpResponse> {
        if let Some(resp) = self.serve_at(&self.port, ctx, &route, &body)? {
            return Ok(resp);
        }
        if let (DirRef::Remote(_), Some(pkey)) = (route, self.state.route_pkey(&body)) {
            self.state.dirs.forget_hint(pkey);
        }
        self.on_dir(ctx, body)
    }

    /// Run an operation against the directory it is addressed to
    /// ([`OpBody::route`]): locally when we lead the partition it routes
    /// to, else forwarded to that partition's leader.
    pub(crate) fn on_dir(&self, ctx: &Credentials, body: OpBody) -> FsResult<OpResponse> {
        self.on_dir_port(&self.port, ctx, body)
    }

    /// [`Self::on_dir`] of an op whose one good answer is `Ok`.
    pub(crate) fn on_dir_ok(&self, ctx: &Credentials, body: OpBody) -> FsResult<()> {
        self.on_dir_port_ok(&self.port, ctx, body)
    }

    /// [`Self::on_dir_ok`] on an explicit timeline.
    pub(crate) fn on_dir_port_ok(
        &self,
        port: &Port,
        ctx: &Credentials,
        body: OpBody,
    ) -> FsResult<()> {
        let kind = OpBody::KINDS[body.tag() as usize];
        match self.on_dir_port(port, ctx, body)? {
            OpResponse::Ok => Ok(()),
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
        if body.mutates() {
            // Whoever serves this (us or a remote partition leader) may
            // ack before durability: remember the directory so this
            // client's next `sync_all` barriers every partition of it.
            self.state.dirty_dirs.lock().insert(dir);
        }
        for _ in 0..MAX_LEASE_RETRIES {
            let pmap = self.state.cached_pmap(dir);
            let pidx = pmap.partition_of(key, config.dentry_buckets);
            let pkey = pmap.pkey(pidx);
            let route = match self.state.dir_ref_part(port, dir, pidx, pmap.partitions) {
                Ok(route) => route,
                Err(FsError::Stale) => {
                    self.state.refresh_pmap(port, dir)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if let Some(resp) = self.serve_at(port, ctx, &route, &body)? {
                return Ok(resp);
            }
            // Turned away: our own table was routed to under a stale map
            // or is frozen by an in-flight split, or the remote leader
            // bounced the op. Refresh and re-route.
            let (at, what) = match route {
                DirRef::Local(_) => (pidx as i64, "own table rejected op; refreshing map"),
                DirRef::Remote(leader) => {
                    self.state.dirs.forget_hint(pkey);
                    (leader.0 as i64, "remote leader bounced op; refreshing map")
                }
            };
            let flight = &self.state.telemetry.flight;
            flight.record(self.state.id.0, port.now(), "op.notleader", at, what);
            self.state.refresh_pmap(port, dir)?;
        }
        Err(FsError::TimedOut)
    }

    /// Repartition `path` (a directory) to `partitions` dentry
    /// partitions, clamped to `[1, dentry_buckets]`. The only way a
    /// directory's partition count changes; fig8 uses it to pin counts.
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
        // A partition owns at least one dentry bucket.
        let buckets = u32::try_from(self.config().dentry_buckets).unwrap_or(u32::MAX);
        let target = target.clamp(1, buckets.max(1));
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
                        let resp = self.state.cluster.call_ops(&self.port, leader, req);
                        match resp.map(OpResponse::into_result) {
                            Ok(Ok(OpResponse::Ok)) => {
                                self.state.dirs.forget_hint(pkey);
                                self.state.partition_handoffs.inc();
                                quiesced = true;
                                break;
                            }
                            Ok(Err(FsError::Busy)) => {
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
                let s = self.state.dirs.lock();
                s.tables.get(&pkey).cloned()
            };
            if let Some(table) = table {
                self.state.lock_table(&table).frozen = false;
            }
        }
    }
}
