//! The client abstraction the workload drivers run against.

use arkfs::ArkClient;
use arkfs_baselines::{BucketFs, MdsClient};
use arkfs_simkit::Port;
use arkfs_telemetry::Telemetry;
use arkfs_vfs::Vfs;
use std::sync::Arc;

/// A simulated file system client: the near-POSIX surface plus access to
/// its virtual timeline (for throughput accounting) and the fio
/// drop-caches hook.
pub trait SimClient: Vfs {
    /// The client's virtual clock.
    fn port(&self) -> &Port;

    /// Drop clean cached data; flush dirty data first. Used between the
    /// fio write and read phases ("drops the cache entries of written
    /// files", §IV-B).
    fn drop_caches(&self) {}

    /// The deployment-wide telemetry (metrics registry + span tracer)
    /// behind this client, for systems that expose one.
    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        None
    }
}

impl SimClient for ArkClient {
    fn port(&self) -> &Port {
        ArkClient::port(self)
    }

    fn drop_caches(&self) {
        let _ = self.drop_data_cache();
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        Some(Arc::clone(ArkClient::telemetry(self)))
    }
}

impl SimClient for MdsClient {
    fn port(&self) -> &Port {
        MdsClient::port(self)
    }

    fn drop_caches(&self) {
        let _ = self.drop_data_cache();
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        MdsClient::telemetry(self)
    }
}

impl SimClient for BucketFs {
    fn port(&self) -> &Port {
        BucketFs::port(self)
    }

    fn drop_caches(&self) {
        let _ = self.drop_data_cache();
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        BucketFs::telemetry(self)
    }
}

/// MPI-style barrier on virtual time: every client's timeline advances to
/// the fleet-wide maximum. mdtest/fio phases are separated by barriers so
/// one straggler does not stagger the next phase's start times.
pub fn barrier(clients: &[Arc<dyn SimClient>]) {
    let max = clients.iter().map(|c| c.port().now()).max().unwrap_or(0);
    for c in clients {
        c.port().wait_until(max);
    }
}
