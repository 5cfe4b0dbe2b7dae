//! Differential test for the transport abstraction: one deterministic
//! two-client op script runs once over real loopback TCP (two endpoints
//! of one deployment, frames crossing actual sockets) and once over the
//! virtual-time bus, and both runs must converge to the same namespace
//! and the same per-op outcomes.
//!
//! Determinism argument: client node ids match across the two runs
//! (endpoint A mints `NodeId(1)`, endpoint B is pinned to `NodeId(2)`
//! via `set_first_node`), the ino/txid streams are seeded per node id,
//! and the script is sequential — so every draw happens in the same
//! order. Virtual timestamps differ (TCP charges no half-RTT), which is
//! why the comparison deliberately excludes atime/mtime/ctime.

use arkfs::cluster::MANAGER_BASE;
use arkfs::remote::{lease_wire, ops_wire, store_wire, RemoteStore, StoreService, STORE_NODE};
use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_netsim::{NodeId, TcpTransport, Transport};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectStore};
use arkfs_vfs::{read_file, write_file, Credentials, OpenFlags, SetAttr, Vfs};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Hard timeout: a wedged socket or a deadlock must fail the test run,
/// not hang CI. The watchdog aborts the whole process if the test body
/// has not signalled completion in time.
const WATCHDOG: Duration = Duration::from_secs(120);

fn arm_watchdog() -> mpsc::Sender<()> {
    let (tx, rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if rx.recv_timeout(WATCHDOG).is_err() {
            eprintln!("tcp_transport: watchdog fired after {WATCHDOG:?}, aborting");
            std::process::abort();
        }
    });
    tx
}

/// One op's observable outcome, rendered timestamp-free.
fn outcome<T>(r: Result<T, arkfs_vfs::FsError>, render: impl FnOnce(T) -> String) -> String {
    match r {
        Ok(v) => render(v),
        Err(e) => format!("err:{e:?}"),
    }
}

/// The deterministic two-client script. Every op's outcome is logged so
/// the TCP and bus runs can be compared step by step, not just at the
/// end. The script deliberately crosses the client boundary both ways:
/// c2 writes a file c1 created (flush broadcast c2→c1), and c1 reads a
/// directory c2 leads (forwarded readdir c1→c2). `late` joins at the
/// end, after c1 has led `/` and `/shared` afresh: it resolves through
/// views the lease manager hands it, not through c1.
fn run_script(c1: &ArkClient, c2: &ArkClient, late: &ArkClient) -> Vec<String> {
    let ctx = Credentials::root();
    let mut log = Vec::new();
    let stat_line = |s: arkfs_vfs::Stat| {
        format!(
            "ino={:#x} ftype={:?} mode={:o} size={} nlink={}",
            s.ino, s.ftype, s.mode, s.size, s.nlink
        )
    };

    // c1 leads /shared; c2 hangs a subdirectory under it.
    log.push(outcome(c1.mkdir(&ctx, "/shared", 0o755), stat_line));
    log.push(outcome(c2.mkdir(&ctx, "/shared/sub", 0o750), stat_line));

    // Cross-client writes to one file: c1 creates, c2 overwrites (the
    // lease manager makes c1 flush), c1 reads back c2's bytes.
    log.push(outcome(
        write_file(c1, &ctx, "/shared/a.txt", b"alpha written by c1"),
        |()| "ok".into(),
    ));
    log.push(outcome(c2.stat(&ctx, "/shared/a.txt"), stat_line));
    log.push(outcome(
        write_file(
            c2,
            &ctx,
            "/shared/a.txt",
            b"beta written by c2, a bit longer",
        ),
        |()| "ok".into(),
    ));
    log.push(outcome(read_file(c1, &ctx, "/shared/a.txt"), |b| {
        format!("read:{}", String::from_utf8_lossy(&b))
    }));

    // c2-led subtree, then c1 reads and prunes it through forwarding.
    log.push(outcome(
        write_file(c2, &ctx, "/shared/sub/inner.bin", &[0x5au8; 96]),
        |()| "ok".into(),
    ));
    log.push(outcome(
        write_file(c2, &ctx, "/shared/sub/gone.bin", &[0x17u8; 33]),
        |()| "ok".into(),
    ));
    log.push(outcome(c1.readdir(&ctx, "/shared/sub"), |mut es| {
        es.sort_by(|a, b| a.name.cmp(&b.name));
        es.iter()
            .map(|e| format!("{}:{:?}", e.name, e.ftype))
            .collect::<Vec<_>>()
            .join(",")
    }));
    log.push(outcome(c1.unlink(&ctx, "/shared/sub/gone.bin"), |()| {
        "ok".into()
    }));

    // One create in each direction: whoever leads /shared and
    // /shared/sub, one of each pair is a forwarded create-and-open, and
    // both paths resolve through an ancestor the other client leads (a
    // directory-view fill).
    log.push(outcome(
        write_file(c2, &ctx, "/shared/from_c2.txt", b"two"),
        |()| "ok".into(),
    ));
    log.push(outcome(
        write_file(c1, &ctx, "/shared/sub/from_c1.bin", b"one"),
        |()| "ok".into(),
    ));
    log.push(outcome(c1.stat(&ctx, "/shared/from_c2.txt"), stat_line));
    log.push(outcome(c2.stat(&ctx, "/shared/sub/from_c1.bin"), stat_line));

    // Leases on demand across the boundary (whichever client leads
    // /shared, one side of each step is remote). A handle c2 closes
    // untouched leaves nothing at the leader; a handle it wrote through
    // holds the write lease until c1's first read meets it (Direct, and
    // c2 flushes); a written handle with no conflict closes in one
    // message.
    let leases = |log: &mut Vec<String>| {
        let live = c1.active_file_leases() + c2.active_file_leases();
        log.push(format!("leases:{live}"));
    };
    let untouched = c2.create(&ctx, "/shared/untouched.bin", 0o644);
    log.push(outcome(untouched.clone(), |_| "ok".into()));
    leases(&mut log);
    if let Ok(fh) = untouched {
        log.push(outcome(c2.close(&ctx, fh), |()| "ok".into()));
    }
    leases(&mut log);
    let held = c2.open(&ctx, "/shared/from_c2.txt", OpenFlags::RDWR);
    if let Ok(fh) = held {
        log.push(outcome(c2.write(&ctx, fh, 0, b"TWO"), |n| {
            format!("wrote:{n}")
        }));
        leases(&mut log);
        log.push(outcome(read_file(c1, &ctx, "/shared/from_c2.txt"), |b| {
            format!("read:{}", String::from_utf8_lossy(&b))
        }));
        log.push(outcome(c2.close(&ctx, fh), |()| "ok".into()));
    }
    log.push(outcome(
        write_file(c2, &ctx, "/shared/untouched.bin", b"touched"),
        |()| "ok".into(),
    ));
    leases(&mut log);

    // Rename within the c1-led directory, observed by c2.
    log.push(outcome(
        c1.rename(&ctx, "/shared/a.txt", "/shared/b.txt"),
        |()| "ok".into(),
    ));
    log.push(outcome(c2.stat(&ctx, "/shared/b.txt"), stat_line));

    // setattr and an expected failure, so error outcomes diff too.
    let chmod = SetAttr {
        mode: Some(0o600),
        ..SetAttr::default()
    };
    log.push(outcome(
        c2.setattr(&ctx, "/shared/b.txt", &chmod),
        stat_line,
    ));
    log.push(outcome(c1.unlink(&ctx, "/shared/nope.txt"), |()| {
        "ok".into()
    }));

    // A directory created and removed again: rmdir must propagate.
    log.push(outcome(c2.mkdir(&ctx, "/scratch", 0o755), stat_line));
    log.push(outcome(c2.rmdir(&ctx, "/scratch"), |()| "ok".into()));

    // Settle: both clients push journaled state down and hand leases back.
    log.push(outcome(c1.sync_all(&ctx), |()| "ok".into()));
    log.push(outcome(c2.sync_all(&ctx), |()| "ok".into()));
    log.push(outcome(c1.release_all(&ctx), |()| "ok".into()));
    log.push(outcome(c2.release_all(&ctx), |()| "ok".into()));

    // c1 takes `/` and `/shared`; loading each leaves its view
    // with the lease manager (c1's endpoint hosts it and counts). The
    // late client's redirects carry them: no `dir_view` is sent.
    let count = |c: &ArkClient, name: &str| c.telemetry().registry.counter(name).get();
    log.push(outcome(c1.readdir(&ctx, "/shared"), |es| {
        format!("entries:{}", es.len())
    }));
    log.push(format!(
        "deposits:{}",
        count(c1, "lease.view.deposit.count")
    ));
    late.port().wait_until(c1.port().now());
    let fills = count(late, "rpc.forward.dir_view.count");
    log.push(outcome(late.stat(&ctx, "/shared/sub/inner.bin"), stat_line));
    log.push(outcome(late.stat(&ctx, "/shared/b.txt"), stat_line));
    let fills = count(late, "rpc.forward.dir_view.count") - fills;
    let views = count(c1, "lease.redirect.view.count");
    log.push(format!("late: fills:{fills} views:{views}"));
    log
}

/// Recursive namespace walk: sorted, timestamp-free view of every path.
fn walk(c: &ArkClient) -> Vec<String> {
    let ctx = Credentials::root();
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let mut entries = c.readdir(&ctx, &dir).expect("walk readdir");
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            let s = c.stat(&ctx, &path).expect("walk stat");
            out.push(format!(
                "{path} ino={:#x} ftype={:?} mode={:o} size={} nlink={}",
                s.ino, s.ftype, s.mode, s.size, s.nlink
            ));
            if e.ftype == arkfs_vfs::FileType::Directory {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Reference run: both clients on the ordinary virtual-time bus.
fn bus_run(config: ArkConfig) -> (Vec<String>, Vec<String>) {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let cluster = ArkCluster::new(config, store);
    let c1 = cluster.client(); // NodeId(1)
    let c2 = cluster.client(); // NodeId(2)
    let late = cluster.client(); // NodeId(3)
    let log = run_script(&c1, &c2, &late);
    let ns = walk(&c1);
    (log, ns)
}

/// TCP run: two in-process endpoints of one deployment, wired through
/// real loopback sockets. Endpoint A hosts the store and the lease
/// managers and mints c1; endpoint B reaches both over TCP (including
/// the object store, via [`RemoteStore`]) and mints c2.
fn tcp_run(config: ArkConfig) -> (Vec<String>, Vec<String>) {
    let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();

    // Endpoint A: listeners for all three protocols.
    let a_lease = Arc::new(TcpTransport::new(lease_wire()));
    let a_ops = Arc::new(TcpTransport::new(ops_wire()));
    let a_store = Arc::new(TcpTransport::new(store_wire()));
    a_store.register(
        STORE_NODE,
        Arc::new(StoreService::new(Arc::clone(&store) as Arc<dyn ObjectStore>)),
    );
    let a_lease_addr = a_lease.listen(any).unwrap();
    let a_ops_addr = a_ops.listen(any).unwrap();
    let a_store_addr = a_store.listen(any).unwrap();

    // Endpoint B: its own transports, pointed at A's listeners.
    let b_lease = Arc::new(TcpTransport::new(lease_wire()));
    for k in 0..config.lease_managers.max(1) {
        b_lease.register_addr(NodeId(MANAGER_BASE - k as u32), a_lease_addr);
    }
    let b_ops = Arc::new(TcpTransport::new(ops_wire()));
    let b_ops_addr = b_ops.listen(any).unwrap();
    b_ops.register_addr(NodeId(1), a_ops_addr);
    // A must be able to forward ops to c2's directories in return (and
    // to the late client's, were it to lead any).
    a_ops.register_addr(NodeId(2), b_ops_addr);
    a_ops.register_addr(NodeId(3), b_ops_addr);
    let b_store = Arc::new(TcpTransport::new(store_wire()));
    b_store.register_addr(STORE_NODE, a_store_addr);
    let remote = RemoteStore::connect(b_store).expect("store connect");

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
    cluster_b.set_first_node(2); // A mints NodeId(1), B mints 2 and 3

    let c1 = cluster_a.client();
    let c2 = cluster_b.client();
    let late = cluster_b.client();
    let log = run_script(&c1, &c2, &late);
    let ns = walk(&c1);

    // Frames really crossed sockets: every B-side protocol was used.
    assert!(b_lease.message_count() > 0, "no lease frames over TCP");
    assert!(b_ops.message_count() > 0, "no forwarded ops over TCP");
    // Each endpoint hosts one client, so a forwarded op is a frame on a
    // socket: every message of the create, lease and close paths was
    // carried by the codecs.
    let sent = |op: &str| {
        let name = format!("rpc.forward.{op}.count");
        cluster_a.telemetry().registry.counter(&name).get()
            + cluster_b.telemetry().registry.counter(&name).get()
    };
    for op in ["dir_view", "create_open", "close_file"] {
        assert!(sent(op) > 0, "no {op} frame crossed a socket");
    }
    assert!(
        sent("acquire_read_lease") + sent("acquire_write_lease") > 0,
        "no first-access lease request crossed a socket"
    );

    a_lease.shutdown();
    a_ops.shutdown();
    a_store.shutdown();
    b_ops.shutdown();
    (log, ns)
}

#[test]
fn loopback_tcp_matches_the_virtual_bus() {
    let done = arm_watchdog();

    let (bus_log, bus_ns) = bus_run(ArkConfig::test_tiny());
    let (tcp_log, tcp_ns) = tcp_run(ArkConfig::test_tiny());

    assert_eq!(
        bus_log, tcp_log,
        "per-op outcomes diverged between bus and loopback TCP"
    );
    assert_eq!(
        bus_ns, tcp_ns,
        "final namespace diverged between bus and loopback TCP"
    );
    // The lease steps said what they should, on both transports: no
    // lease without I/O, one while c2's written handle is open, c1's
    // read sees c2's cached bytes; what is left at the end is that
    // conflict's direct-I/O window, not the written-and-closed file.
    let leases: Vec<&str> = bus_log
        .iter()
        .filter_map(|l| l.strip_prefix("leases:"))
        .collect();
    assert_eq!(leases, ["0", "0", "1", "1"]);
    assert!(bus_log.contains(&"read:TWO".to_string()), "{bus_log:?}");
    // The late client was handed `/` and `/shared` by the lease manager
    // (as frames, on TCP) and asked no leader for a view.
    assert!(bus_log.contains(&"deposits:2".to_string()), "{bus_log:?}");
    let late = "late: fills:0 views:2".to_string();
    assert!(bus_log.contains(&late), "{bus_log:?}");
    // The script actually built something worth comparing.
    assert!(bus_ns.len() >= 4, "walk unexpectedly small: {bus_ns:?}");

    let _ = done.send(());
}
