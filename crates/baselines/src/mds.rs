//! Metadata server cluster cost model.
//!
//! A centralized MDS serves one metadata operation at a time; its
//! effective service time inflates with the number of requests in flight
//! (lock contention, cache thrash), which is what makes Figure 1's
//! throughput *collapse* rather than merely saturate. With multiple
//! MDSs, CephFS partitions the namespace dynamically: a fraction of
//! requests are forwarded between servers (extra round trip + second
//! service) and subtrees periodically migrate, stalling two servers —
//! the overheads §IV-B blames for CephFS-K (16 MDS) barely beating
//! 1 MDS on mdtest-hard.

use arkfs_simkit::timeline::ContentionModel;
use arkfs_simkit::{ClusterSpec, Nanos, Port, SharedResource};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning of the MDS behaviour model.
#[derive(Debug, Clone)]
pub struct MdsModel {
    /// Base service time per metadata op.
    pub op_service: Nanos,
    /// Per-in-flight-request service inflation (collapse behaviour).
    pub contention_alpha: f64,
    /// Cap on the inflation factor.
    pub contention_cap: f64,
    /// With >1 MDS: forward every n-th request to another server.
    pub forward_every: u64,
    /// With >1 MDS: every n-th request triggers a subtree migration.
    pub migrate_every: u64,
    /// Stall caused by one migration (charged to two servers).
    pub migrate_cost: Nanos,
}

impl MdsModel {
    /// Calibrated against the CephFS results in §IV.
    pub fn ceph(spec: &ClusterSpec) -> Self {
        MdsModel {
            op_service: spec.mds_op_service,
            contention_alpha: 0.02,
            contention_cap: 12.0,
            forward_every: 2,
            migrate_every: 2048,
            migrate_cost: 40 * arkfs_simkit::MSEC,
        }
    }

    /// MarFS's two GPFS NSD metadata nodes: slower per-op service, no
    /// dynamic partitioning (static, no forwarding/migration).
    pub fn marfs(spec: &ClusterSpec) -> Self {
        MdsModel {
            op_service: spec.mds_op_service * 3,
            contention_alpha: 0.08,
            contention_cap: 48.0,
            forward_every: u64::MAX,
            migrate_every: u64::MAX,
            migrate_cost: 0,
        }
    }
}

/// A cluster of metadata servers.
pub struct MdsCluster {
    servers: Vec<SharedResource>,
    model: MdsModel,
    net_half_rtt: Nanos,
    ops: AtomicU64,
}

impl MdsCluster {
    pub fn new(n: usize, model: MdsModel, spec: &ClusterSpec) -> Self {
        assert!(n > 0);
        let contention = ContentionModel {
            alpha: model.contention_alpha,
            max_factor: model.contention_cap,
        };
        MdsCluster {
            servers: (0..n)
                .map(|_| SharedResource::new("mds", contention))
                .collect(),
            model,
            net_half_rtt: spec.net_half_rtt,
            ops: AtomicU64::new(0),
        }
    }

    pub fn ops_served(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Charge one metadata operation on the directory identified by
    /// `dir_hint` to the caller's port: network round trip, service at
    /// the authoritative server, plus multi-MDS forwarding/migration.
    pub fn metadata_op(&self, port: &Port, dir_hint: u64) {
        let t0 = port.advance(self.net_half_rtt);
        let done = self.serve(t0, dir_hint);
        port.wait_until(done + self.net_half_rtt);
    }

    /// Charge a batch of metadata operations issued in one shot: the
    /// caller pays one network half-RTT to get the batch onto the wire,
    /// each op is serviced by its authoritative server (ops for the
    /// same server still queue behind each other), and the caller waits
    /// for the slowest completion plus the return half-RTT. This grants
    /// the baselines the same max-of-completions pricing as ArkFS's
    /// batched object path, so flush-time comparisons stay apples to
    /// apples. Forwarding and migration penalties still apply per op.
    pub fn metadata_ops_batched(&self, port: &Port, dir_hints: &[u64]) {
        if dir_hints.is_empty() {
            return;
        }
        let t0 = port.advance(self.net_half_rtt);
        let latest = (dir_hints.iter()).fold(t0, |latest, &hint| latest.max(self.serve(t0, hint)));
        port.wait_until(latest + self.net_half_rtt);
    }

    /// Serve one op arriving at `t0` at the server `dir_hint` picks;
    /// returns when the cluster is done with it.
    fn serve(&self, t0: Nanos, dir_hint: u64) -> Nanos {
        let seq = self.ops.fetch_add(1, Ordering::Relaxed);
        let n = self.servers.len();
        let primary = (dir_hint % n as u64) as usize;
        let mut done = self.servers[primary].reserve(t0, self.model.op_service);
        if n > 1 {
            let other = (primary + 1) % n;
            if (seq + 1).is_multiple_of(self.model.forward_every) {
                // Request landed on the wrong server: forward.
                let t1 = done + self.net_half_rtt;
                done = self.servers[other].reserve(t1, self.model.op_service);
            }
            if seq % self.model.migrate_every == self.model.migrate_every - 1 {
                // Dynamic subtree partitioning migrates a subtree,
                // stalling the two servers involved.
                let m1 = self.servers[primary].reserve(done, self.model.migrate_cost);
                let m2 = self.servers[other].reserve(done, self.model.migrate_cost);
                done = m1.max(m2);
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_simkit::SEC;

    fn spec() -> ClusterSpec {
        ClusterSpec::aws_paper()
    }

    #[test]
    fn single_op_costs_rtt_plus_service() {
        let spec = spec();
        let mds = MdsCluster::new(1, MdsModel::ceph(&spec), &spec);
        let port = Port::new();
        mds.metadata_op(&port, 0);
        assert_eq!(port.now(), spec.net_rtt() + spec.mds_op_service);
        assert_eq!(mds.ops_served(), 1);
    }

    #[test]
    fn throughput_collapses_under_concurrency() {
        // Aggregate ops/sec with 2 clients must exceed ops/sec with 64
        // clients over the same total op count (the Fig. 1 shape).
        let spec = spec();
        let rate = |clients: usize| -> f64 {
            let mds = MdsCluster::new(1, MdsModel::ceph(&spec), &spec);
            let total_ops = 2048;
            let per_client = total_ops / clients;
            let mut end = 0u64;
            let ports: Vec<Port> = (0..clients).map(|_| Port::new()).collect();
            for round in 0..per_client {
                let _ = round;
                for p in &ports {
                    mds.metadata_op(p, 0);
                }
            }
            for p in &ports {
                end = end.max(p.now());
            }
            total_ops as f64 / (end as f64 / SEC as f64)
        };
        let few = rate(2);
        let many = rate(64);
        assert!(
            few > many * 1.5,
            "expected collapse: 2 clients {few:.0} ops/s vs 64 clients {many:.0} ops/s"
        );
    }

    #[test]
    fn multi_mds_forwards_and_migrates() {
        let spec = spec();
        let model = MdsModel {
            forward_every: 2,
            migrate_every: 4,
            migrate_cost: 1_000_000,
            ..MdsModel::ceph(&spec)
        };
        let mds = MdsCluster::new(4, model, &spec);
        let port = Port::new();
        for i in 0..8 {
            mds.metadata_op(&port, i);
        }
        // Forwarded + migrated ops must make this strictly slower than
        // 8 plain ops on a 4-server cluster.
        let plain = MdsCluster::new(4, MdsModel::marfs(&spec), &spec);
        let p2 = Port::new();
        for i in 0..8 {
            plain.metadata_op(&p2, i);
        }
        assert!(port.now() > spec.net_rtt() * 8);
        assert!(mds.ops_served() == 8);
    }

    #[test]
    fn ops_spread_across_servers_by_dir() {
        let spec = spec();
        let mds = MdsCluster::new(4, MdsModel::marfs(&spec), &spec);
        let port = Port::new();
        // 4 different directories land on 4 different servers: no
        // queueing, all ops complete in one service time.
        for dir in 0..4u64 {
            let p = Port::new();
            mds.metadata_op(&p, dir);
            assert_eq!(p.now(), spec.net_rtt() + spec.mds_op_service * 3);
        }
        // Same directory serializes.
        mds.metadata_op(&port, 0);
        mds.metadata_op(&port, 0);
        assert!(port.now() >= spec.mds_op_service * 6);
    }

    #[test]
    fn batched_ops_pay_max_of_completions() {
        let spec = spec();
        // 4 servers, no forwarding/migration: 4 ops on 4 distinct
        // servers cost one RTT + one service time, not four.
        let mds = MdsCluster::new(4, MdsModel::marfs(&spec), &spec);
        let port = Port::new();
        mds.metadata_ops_batched(&port, &[0, 1, 2, 3]);
        assert_eq!(port.now(), spec.net_rtt() + spec.mds_op_service * 3);
        assert_eq!(mds.ops_served(), 4);

        // Same server: the batch serializes at the server but still
        // pays only one round trip.
        let serial = Port::new();
        mds.metadata_ops_batched(&serial, &[4, 4, 4, 4]);
        assert!(serial.now() >= spec.net_rtt() + spec.mds_op_service * 12);

        // Empty batch is free.
        let free = Port::new();
        mds.metadata_ops_batched(&free, &[]);
        assert_eq!(free.now(), 0);
    }
}
