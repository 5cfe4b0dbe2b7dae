//! Rigs shared by the integration tests: a deployment on the tiny
//! in-memory store, root credentials, and the registry counters the
//! tests read. Each test crate uses a subset.
#![allow(dead_code)]

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
use arkfs_simkit::Port;
use arkfs_vfs::{Credentials, Ino};
use std::sync::Arc;

/// `config` on the tiny store, with the S3 profile when `s3`.
pub fn cluster_on(config: ArkConfig, s3: bool) -> Arc<ArkCluster> {
    let mut cfg = ClusterConfig::test_tiny();
    if s3 {
        cfg.profile = StoreProfile::s3(&cfg.spec);
    }
    ArkCluster::new(config, Arc::new(ObjectCluster::new(cfg)))
}

pub fn cluster_with(config: ArkConfig) -> Arc<ArkCluster> {
    cluster_on(config, false)
}

pub fn cluster() -> Arc<ArkCluster> {
    cluster_with(ArkConfig::test_tiny())
}

pub fn root() -> Credentials {
    Credentials::root()
}

pub fn counter(cl: &ArkCluster, name: &str) -> u64 {
    cl.telemetry().registry.counter(name).get()
}

/// Forwarded ops of one kind so far (`rpc.forward.<op>.count`).
pub fn forwards(cl: &ArkCluster, op: &str) -> u64 {
    counter(cl, &format!("rpc.forward.{op}.count"))
}

/// Journal objects of one directory partition (0 = nothing durable).
pub fn journal_len(cl: &ArkCluster, pkey: Ino) -> usize {
    cl.prt().list_journal(&Port::new(), pkey).unwrap().len()
}
