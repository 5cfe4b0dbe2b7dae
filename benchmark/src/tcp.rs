//! `tcp_hard`: the mdtest-hard op mix on the wall clock, over real
//! loopback sockets. Two endpoints of one deployment live in this
//! process, wired as in `crates/arkfs/tests/tcp_transport.rs`: endpoint
//! A hosts the object store and the lease managers and mints one client,
//! endpoint B reaches all three protocols over TCP (the store through
//! `RemoteStore`) and mints the client that issues every op.
//!
//! One driver thread runs two op streams on B's client: stream 0 works
//! in a directory A's client leads, so each of its ops is forwarded over
//! the ops protocol; stream 1 works in a directory B leads itself, so
//! its metadata is local and only store I/O crosses a socket. All
//! listeners bind port 0.

use crate::ops::Fs;
use crate::workloads::{
    hard_phases, hard_placement, start_sys_trace, teardown, Metered, Observe, Round, Sizes,
};
use arkfs::cluster::MANAGER_BASE;
use arkfs::remote::{lease_wire, ops_wire, store_wire, RemoteStore, StoreService, STORE_NODE};
use arkfs::{ArkCluster, ArkConfig};
use arkfs_netsim::{NodeId, TcpTransport, Transport};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectStore};
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The directories of the two streams.
const FORWARDED_DIR: &str = "/tcp/a";
const LOCAL_DIR: &str = "/tcp/b";

fn io<T>(what: &'static str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

pub fn tcp_hard(sizes: &Sizes, seed: u64, obs: &Observe) -> Result<Round, String> {
    let t0 = Instant::now();
    let config = ArkConfig::default();
    let store = Arc::new(ObjectCluster::new(ClusterConfig::rados(
        config.spec.clone(),
    )));
    let any: SocketAddr = "127.0.0.1:0".parse().expect("literal address");

    let a_lease = Arc::new(TcpTransport::new(lease_wire()));
    let a_ops = Arc::new(TcpTransport::new(ops_wire()));
    let a_store = Arc::new(TcpTransport::new(store_wire()));
    a_store.register(
        STORE_NODE,
        Arc::new(StoreService::new(Arc::clone(&store) as Arc<dyn ObjectStore>)),
    );
    let a_lease_addr = io("listen lease", a_lease.listen(any))?;
    let a_ops_addr = io("listen ops A", a_ops.listen(any))?;
    let a_store_addr = io("listen store", a_store.listen(any))?;

    let b_lease = Arc::new(TcpTransport::new(lease_wire()));
    for k in 0..config.lease_managers.max(1) {
        b_lease.register_addr(NodeId(MANAGER_BASE - k as u32), a_lease_addr);
    }
    let b_ops = Arc::new(TcpTransport::new(ops_wire()));
    let b_ops_addr = io("listen ops B", b_ops.listen(any))?;
    b_ops.register_addr(NodeId(1), a_ops_addr);
    a_ops.register_addr(NodeId(2), b_ops_addr);
    let b_store = Arc::new(TcpTransport::new(store_wire()));
    b_store.register_addr(STORE_NODE, a_store_addr);
    let remote = RemoteStore::connect(b_store.clone() as Arc<dyn Transport<_, _>>)
        .map_err(|e| format!("store connect: {e}"))?;

    let cluster_a = ArkCluster::with_transports(
        config.clone(),
        Arc::clone(&store) as Arc<dyn ObjectStore>,
        a_lease.clone() as Arc<dyn Transport<_, _>>,
        a_ops.clone() as Arc<dyn Transport<_, _>>,
        true,
    );
    let cluster_b = ArkCluster::with_transports(
        config,
        remote as Arc<dyn ObjectStore>,
        b_lease.clone() as Arc<dyn Transport<_, _>>,
        b_ops.clone() as Arc<dyn Transport<_, _>>,
        false,
    );
    cluster_b.set_first_node(2);
    start_sys_trace(cluster_a.telemetry(), obs);
    start_sys_trace(cluster_b.telemetry(), obs);

    let leader = Fs::new(cluster_a.client(), obs.rec.clone());
    let driver = Fs::new(cluster_b.client(), obs.rec.clone());
    let setup = (|| {
        leader.mkdir("/tcp")?;
        leader.mkdir(FORWARDED_DIR)?;
        driver.mkdir(LOCAL_DIR)?;
        // A directory is led by whoever operates in it first.
        leader.readdir(FORWARDED_DIR)?;
        driver.readdir(LOCAL_DIR)?;
        Ok(())
    })();
    setup.map_err(|e: arkfs_vfs::FsError| format!("mkdir: {e}"))?;

    // The same client twice: stream 0 forwarded, stream 1 local-lead.
    let fleet = [driver.clone(), driver.clone()];
    let dir_paths = Rc::new(vec![FORWARDED_DIR.to_string(), LOCAL_DIR.to_string()]);
    let per = sizes.tcp_files / 2;
    let sent = || b_lease.message_count() + b_ops.message_count() + b_store.message_count();

    let mut m = Metered::begin(vec![cluster_a.telemetry(), cluster_b.telemetry()], t0, obs);
    let (ops0, store0, frames0) = (b_ops.message_count(), b_store.message_count(), sent());
    let ran = hard_phases(
        &mut m,
        &fleet,
        &driver,
        dir_paths,
        // Stream i stays in directory i; only the fill comes from the seed.
        move |i, j| (i, hard_placement(seed, i, j, 1).1),
        per,
    );
    // Every forwarded op is at least one ops frame, and B owns no store.
    let forwarded_ops = 4 * per;
    let ops_frames = b_ops.message_count() - ops0;
    m.expect(ops_frames >= forwarded_ops, || {
        format!(
            "{ops_frames} ops frames for {forwarded_ops} forwarded ops: not all crossed a socket"
        )
    });
    m.expect(b_store.message_count() > store0, || {
        "no store frame crossed a socket".to_string()
    });
    let frames = sent() - frames0;

    // Clean shutdown: accept loops stop, connection threads see EOF.
    for t in [&a_lease, &b_lease] {
        t.shutdown();
    }
    for t in [&a_ops, &b_ops] {
        t.shutdown();
    }
    for t in [&a_store, &b_store] {
        t.shutdown();
    }
    ran?;
    let round = m.finish(frames);
    teardown(&cluster_a, &[leader]);
    teardown(&cluster_b, &[driver]);
    Ok(round)
}
