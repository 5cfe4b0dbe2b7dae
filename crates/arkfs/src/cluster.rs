//! Deployment handle: wires the object store, the lease manager, and the
//! client-to-client RPC transport together, and mints clients.
//!
//! The default deployment ([`ArkCluster::new`]) runs both protocols on
//! the virtual-time [`Bus`]; [`ArkCluster::with_transports`] accepts any
//! [`Transport`] pair, which is how the TCP mode (`cli serve` /
//! `cli client`) runs the identical stack across processes.

use crate::client::ArkClient;
use crate::config::ArkConfig;
use crate::meta::InodeRecord;
use crate::prt::Prt;
use crate::rpc::{OpBody, OpRequest, OpResponse};
use arkfs_lease::{LeaseConfig, LeaseManager, LeaseRequest, LeaseResponse};
use arkfs_netsim::{call_with_retry, Bus, NetError, NodeId, RetryCounters, Transport};
use arkfs_objstore::ObjectStore;
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::Counter;
use arkfs_vfs::{FileType, FsError, Ino, ROOT_INO};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Base of the lease-manager node-id space (manager `k` listens on
/// `MANAGER_BASE - k`; clients count up from 1, so the spaces never
/// collide). "The lease manager is deployed on one of the client nodes"
/// (§IV-A); with `ArkConfig::lease_managers > 1` directories partition
/// across a manager cluster — the paper's stated future work.
pub const MANAGER_BASE: u32 = u32::MAX;

/// The manager responsible for a directory.
pub fn manager_node(ino: Ino, managers: usize) -> NodeId {
    NodeId(MANAGER_BASE - (ino % managers.max(1) as u128) as u32)
}

/// Shared state of one ArkFS deployment.
pub struct ArkCluster {
    config: ArkConfig,
    prt: Arc<Prt>,
    lease_net: Arc<dyn Transport<LeaseRequest, LeaseResponse>>,
    ops_net: Arc<dyn Transport<OpRequest, OpResponse>>,
    net_counters: RetryCounters,
    /// `rpc.forward.<op>.count`, indexed by [`OpBody::tag`]: forwarded
    /// ops by kind, counted where they are sent.
    forward_counts: Vec<Arc<Counter>>,
    next_node: AtomicU32,
    /// The lease managers this endpoint hosts, in manager order (empty
    /// on an endpoint attached to a deployment hosted elsewhere).
    managers: Mutex<Vec<Arc<LeaseManager>>>,
}

impl ArkCluster {
    /// Stand up a virtual-time deployment on `store`, bootstrapping the
    /// root directory inode if the store is empty.
    pub fn new(config: ArkConfig, store: Arc<dyn ObjectStore>) -> Arc<Self> {
        let half_rtt = config.spec.net_half_rtt;
        Self::with_transports(
            config,
            store,
            Arc::new(Bus::new(half_rtt)),
            Arc::new(Bus::new(half_rtt)),
            true,
        )
    }

    /// Stand up a deployment on explicit transports. With `host = true`
    /// this endpoint runs the lease managers and bootstraps the root
    /// inode (the single-process simulator and the `cli serve` side);
    /// with `host = false` it attaches to a deployment hosted elsewhere
    /// (the `cli client` side) and registers nothing.
    pub fn with_transports(
        config: ArkConfig,
        store: Arc<dyn ObjectStore>,
        lease_net: Arc<dyn Transport<LeaseRequest, LeaseResponse>>,
        ops_net: Arc<dyn Transport<OpRequest, OpResponse>>,
        host: bool,
    ) -> Arc<Self> {
        let prt = Arc::new(Prt::new(store, config.chunk_size));
        if host {
            // Bootstrap "/" if this is a fresh store.
            let boot = Port::new();
            if prt.load_inode(&boot, ROOT_INO) == Err(FsError::NotFound) {
                let root = InodeRecord::new(ROOT_INO, FileType::Directory, 0o755, 0, 0, 0);
                prt.store_inode(&boot, &root).expect("bootstrap root inode");
            }
        }

        let net_counters = RetryCounters::register(&prt.telemetry().registry);
        let forward_counts = OpBody::KINDS
            .iter()
            .map(|op| {
                prt.telemetry()
                    .registry
                    .counter(&format!("rpc.forward.{op}.count"))
            })
            .collect();
        let cluster = Arc::new(ArkCluster {
            config,
            prt,
            lease_net,
            ops_net,
            net_counters,
            forward_counts,
            next_node: AtomicU32::new(1),
            managers: Mutex::new(Vec::new()),
        });
        if host {
            cluster.host_managers(0);
        }
        cluster
    }

    /// Start this endpoint's lease managers, booted at virtual time
    /// `boot_at` with empty state, replacing any it hosted before.
    fn host_managers(&self, boot_at: Nanos) {
        let lease_cfg = LeaseConfig {
            period: self.config.lease_period,
            grace: self.config.lease_grace,
            op_service: self.config.spec.lease_op_service,
        };
        let managers = (0..self.config.lease_managers.max(1))
            .map(|k| {
                let manager = Arc::new(
                    LeaseManager::restarted_at(lease_cfg, boot_at).with_telemetry(self.telemetry()),
                );
                self.lease_net
                    .register(NodeId(MANAGER_BASE - k as u32), Arc::clone(&manager) as _);
                manager
            })
            .collect();
        *self.managers.lock() = managers;
    }

    /// [`LeaseManager::stats`] of every manager this endpoint hosts, in
    /// manager order: `(requests served, busy ns, forgotten ns)`. The
    /// largest busy time over a run's makespan says whether first
    /// touches still queue at one manager.
    pub fn manager_stats(&self) -> Vec<(u64, Nanos, Nanos)> {
        self.managers.lock().iter().map(|m| m.stats()).collect()
    }

    pub fn config(&self) -> &ArkConfig {
        &self.config
    }

    pub fn prt(&self) -> &Arc<Prt> {
        &self.prt
    }

    /// Deployment-wide telemetry (shared with the object store).
    pub fn telemetry(&self) -> &Arc<arkfs_telemetry::Telemetry> {
        self.prt.telemetry()
    }

    pub fn lease_net(&self) -> &Arc<dyn Transport<LeaseRequest, LeaseResponse>> {
        &self.lease_net
    }

    pub fn ops_net(&self) -> &Arc<dyn Transport<OpRequest, OpResponse>> {
        &self.ops_net
    }

    /// Lease-protocol RPC under the deployment's retry policy. Transient
    /// transport failures (timeout, reset — only possible on a real
    /// transport) are retried with exponential backoff; on the virtual
    /// bus this is behaviorally identical to a bare `call`.
    pub(crate) fn call_lease(
        &self,
        port: &Port,
        to: NodeId,
        req: LeaseRequest,
    ) -> Result<LeaseResponse, NetError> {
        call_with_retry(
            self.lease_net.as_ref(),
            port,
            to,
            req,
            self.config.net_retry,
            Some(&self.net_counters),
        )
    }

    /// Forwarded-operation RPC under the deployment's retry policy.
    pub(crate) fn call_ops(
        &self,
        port: &Port,
        to: NodeId,
        req: OpRequest,
    ) -> Result<OpResponse, NetError> {
        self.forward_counts[req.body.tag() as usize].inc();
        call_with_retry(
            self.ops_net.as_ref(),
            port,
            to,
            req,
            self.config.net_retry,
            Some(&self.net_counters),
        )
    }

    /// Mint a new client (one per simulated process). The client
    /// registers its RPC service so leaders can be reached.
    pub fn client(self: &Arc<Self>) -> Arc<ArkClient> {
        let node = NodeId(self.next_node.fetch_add(1, Ordering::Relaxed));
        ArkClient::new(Arc::clone(self), node)
    }

    /// Move the client node-id allocator so two endpoints of one
    /// deployment mint from disjoint spaces (e.g. the serve side takes
    /// 1..=999, a client process starts at 1000).
    pub fn set_first_node(&self, first: u32) {
        self.next_node.store(first.max(1), Ordering::Relaxed);
    }

    /// Crash every lease manager (stops answering). Clients holding
    /// leases keep working until expiry (§III-E.2).
    pub fn crash_lease_manager(&self) {
        for k in 0..self.config.lease_managers.max(1) {
            self.lease_net.disconnect(NodeId(MANAGER_BASE - k as u32));
        }
    }

    /// Restart the lease manager(s) at virtual time `at`: they come back
    /// with empty state and refuse grants for one lease period.
    pub fn restart_lease_manager(&self, at: Nanos) {
        self.host_managers(at);
    }

    /// Root inode number (constant, for tests).
    pub fn root_ino(&self) -> Ino {
        ROOT_INO
    }
}
