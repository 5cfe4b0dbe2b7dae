//! Layer probes: host nanoseconds per call of one public function of
//! one layer, timed from outside. Each probe is a closure that runs the
//! call `n` times and returns the time of just the measured part; the
//! timer sizes `n` so a batch lasts long enough for the clock, runs an
//! odd number of batches and reports the median with its quartiles.
//!
//! The functions called here are the benchmark's API surface on the
//! layers; `README.md` lists them.

use crate::gen::SplitMix64;
use crate::stats::{nearest_rank, quartiles};
use arkfs::cache::DataCache;
use arkfs::journal::{DirJournal, JournalOp, Transaction};
use arkfs::meta::{DentryBlock, DentryEntry, InodeRecord};
use arkfs::metatable::Metatable;
use arkfs::prt::Prt;
use arkfs::radix::RadixTree;
use arkfs::remote::StoreRequest;
use arkfs::rpc::{OpBody, OpRequest, OpResponse};
use arkfs::wire::{crc32, from_frame, to_frame, WireCodec};
use arkfs_lease::{LeaseConfig, LeaseManager, LeaseRequest, LeaseResponse};
use arkfs_netsim::{Bus, NodeId, Service, TcpTransport, Transport, WireFns};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectKey, ObjectStore};
use arkfs_simkit::{Actor, Engine, Port, SharedResource};
use arkfs_telemetry::{Telemetry, PID_CLIENT};
use arkfs_vfs::{Credentials, FileType};
use bytes::Bytes;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct ProbeResult {
    pub name: &'static str,
    pub unit: &'static str,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Batches behind the median, and calls per batch.
    pub batches: usize,
    pub iters: u64,
}

/// How long and how often each probe runs.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub batches: usize,
    pub min_batch: Duration,
}

impl Effort {
    /// The `layers` command and the suite.
    pub const FULL: Effort = Effort {
        batches: 15,
        min_batch: Duration::from_millis(5),
    };
    /// Inside a traced benchmark run, where the probes share the run's
    /// time with the traced rounds.
    pub const QUICK: Effort = Effort {
        batches: 7,
        min_batch: Duration::from_millis(2),
    };
}

/// Median-of-batches timer. `f(n)` runs the call `n` times and returns
/// the time of the measured part only.
fn time_ns_per_call(effort: Effort, f: &mut dyn FnMut(u64) -> Duration) -> (Vec<f64>, u64) {
    let mut n = 1u64;
    loop {
        let d = f(n);
        if d >= effort.min_batch || n >= 1 << 24 {
            break;
        }
        // Aim a fifth past the floor so the sized batch clears it.
        let scale = effort.min_batch.as_secs_f64() / d.as_secs_f64().max(1e-9) * 1.2;
        n = ((n as f64 * scale).ceil() as u64).clamp(n * 2, n * 64);
    }
    let per_call = (0..effort.batches)
        .map(|_| f(n).as_nanos() as f64 / n as f64)
        .collect();
    (per_call, n)
}

struct Probes {
    effort: Effort,
    out: Vec<ProbeResult>,
}

impl Probes {
    fn ns(&mut self, name: &'static str, mut f: impl FnMut(u64) -> Duration) {
        let (per_call, iters) = time_ns_per_call(self.effort, &mut f);
        let (q1, median, q3) = quartiles(&per_call);
        self.out.push(ProbeResult {
            name,
            unit: "ns",
            median,
            q1,
            q3,
            batches: per_call.len(),
            iters,
        });
    }

    /// The common shape: time `n` calls of `call(i)`.
    fn each(&mut self, name: &'static str, mut call: impl FnMut(u64)) {
        self.ns(name, |n| {
            let t = Instant::now();
            for i in 0..n {
                call(i);
            }
            t.elapsed()
        });
    }
}

fn inode(i: u64) -> InodeRecord {
    InodeRecord::new(
        0xDEAD_0000_0000 + i as u128,
        FileType::Regular,
        0o644,
        10,
        20,
        1234,
    )
}

/// A fixed SplitMix64 loop: the same arithmetic on every machine, so
/// `probe / calib` compares layers across machines.
fn calibrate(p: &mut Probes) {
    p.ns("calib.ns_per_iter", |n| {
        let mut rng = SplitMix64::new(n);
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        t.elapsed()
    });
}

fn wire(p: &mut Probes) {
    let req = OpRequest::new(
        Credentials::root(),
        OpBody::Create {
            dir: 0x1234_5678_9abc,
            name: "p7-f000123".to_string(),
            rec: inode(1),
        },
    );
    p.each("wire.op_req.encode_ns", |_| {
        black_box(to_frame(black_box(&req)));
    });
    let frame = to_frame(&req);
    p.each("wire.op_req.decode_ns", |_| {
        black_box(from_frame::<OpRequest>(black_box(&frame)).expect("own frame"));
    });
    let resp = OpResponse::Entry {
        ino: 77,
        ftype: FileType::Regular,
        rec: Some(inode(2)),
    };
    p.each("wire.op_resp.encode_ns", |_| {
        black_box(to_frame(black_box(&resp)));
    });
    let frame = to_frame(&resp);
    p.each("wire.op_resp.decode_ns", |_| {
        black_box(from_frame::<OpResponse>(black_box(&frame)).expect("own frame"));
    });
    let lease = LeaseRequest::Acquire {
        client: NodeId(9),
        ino: 0xABCD,
    };
    p.each("wire.lease_req.roundtrip_ns", |_| {
        let f = to_frame(black_box(&lease));
        black_box(from_frame::<LeaseRequest>(&f).expect("own frame"));
    });
    let put = StoreRequest::Put(ObjectKey::data_chunk(5, 0), Bytes::from(vec![0xA5u8; 4096]));
    p.each("wire.store_put4k.roundtrip_ns", |_| {
        let f = to_frame(black_box(&put));
        black_box(from_frame::<StoreRequest>(&f).expect("own frame"));
    });
    let rec = inode(3);
    p.each("wire.inode.encode_ns", |_| {
        black_box(black_box(&rec).to_bytes());
    });
    let bytes = rec.to_bytes();
    p.each("wire.inode.decode_ns", |_| {
        black_box(InodeRecord::from_bytes(black_box(&bytes)).expect("own bytes"));
    });
    let block = DentryBlock {
        entries: (0..64)
            .map(|i| DentryEntry {
                name: format!("file-{i:04}.dat"),
                ino: i as u128,
                ftype: FileType::Regular,
            })
            .collect(),
    };
    p.each("wire.dentry_block64.encode_ns", |_| {
        black_box(black_box(&block).to_bytes());
    });
    let bytes = block.to_bytes();
    p.each("wire.dentry_block64.decode_ns", |_| {
        black_box(DentryBlock::from_bytes(black_box(&bytes)).expect("own bytes"));
    });
    let data = vec![0xA5u8; 4096];
    p.each("wire.crc32_4k_ns", |_| {
        black_box(crc32(black_box(&data)));
    });
}

fn fresh_table() -> Metatable {
    let dir = InodeRecord::new(42, FileType::Directory, 0o755, 0, 0, 0);
    Metatable::fresh(dir, 16, 1_000_000_000)
}

fn names(n: u64) -> Vec<String> {
    (0..n).map(|i| format!("p3-f{i}")).collect()
}

fn metatable(p: &mut Probes) {
    p.ns("metatable.create_child_ns", |n| {
        let (mut t, names) = (fresh_table(), names(n));
        let start = Instant::now();
        for (i, name) in names.iter().enumerate() {
            t.create_child(inode(i as u64), name, 1)
                .expect("fresh name");
        }
        start.elapsed()
    });
    let (mut table, pool) = (fresh_table(), names(10_000));
    for (i, name) in pool.iter().enumerate() {
        table
            .create_child(inode(i as u64), name, 1)
            .expect("fresh name");
    }
    p.each("metatable.lookup_ns", |i| {
        black_box(table.lookup(&pool[(i * 7919 % 10_000) as usize]));
    });
    p.ns("metatable.unlink_child_ns", |n| {
        let (mut t, names) = (fresh_table(), names(n));
        for (i, name) in names.iter().enumerate() {
            t.create_child(inode(i as u64), name, 1)
                .expect("fresh name");
        }
        let start = Instant::now();
        for name in &names {
            black_box(t.unlink_child(name, 2).expect("present"));
        }
        start.elapsed()
    });
    let (mut small, pool) = (fresh_table(), names(1000));
    for (i, name) in pool.iter().enumerate() {
        small
            .create_child(inode(i as u64), name, 1)
            .expect("fresh name");
    }
    p.each("metatable.readdir_1k_ns", |_| {
        black_box(small.readdir());
    });
}

fn sample_ops(n: u64) -> Vec<JournalOp> {
    (0..n)
        .flat_map(|i| {
            [
                JournalOp::PutInode(inode(i)),
                JournalOp::UpsertDentry {
                    name: format!("p3-f{i}"),
                    ino: i as u128,
                    ftype: FileType::Regular,
                },
            ]
        })
        .collect()
}

fn journal(p: &mut Probes) {
    p.ns("journal.append_ns", |n| {
        let (mut j, ops) = (DirJournal::new(42, 0), sample_ops(n.div_ceil(2)));
        let start = Instant::now();
        for op in ops.into_iter().take(n as usize) {
            j.append(op, 1);
        }
        black_box(j.running_len());
        start.elapsed()
    });
    // Seal a running transaction of 64 entries (32 creates).
    p.ns("journal.seal64_ns", |n| {
        let mut total = Duration::ZERO;
        let mut j = DirJournal::new(42, 0);
        for _ in 0..n {
            for op in sample_ops(32) {
                j.append(op, 1);
            }
            let start = Instant::now();
            black_box(j.seal());
            total += start.elapsed();
            j.take_sealed();
        }
        total
    });
    let txn = Transaction {
        dir: 42,
        seq: 7,
        ops: sample_ops(32),
    };
    p.each("journal.txn_seal64_ns", |_| {
        black_box(black_box(&txn).seal());
    });
    let sealed = txn.seal();
    p.each("journal.txn_unseal64_ns", |_| {
        black_box(Transaction::unseal(black_box(&sealed)).expect("own seal"));
    });
}

fn cache(p: &mut Probes) {
    p.ns("radix.insert_ns", |n| {
        let mut t = RadixTree::new();
        let start = Instant::now();
        for k in 0..n {
            t.insert(k, k);
        }
        black_box(t.len());
        start.elapsed()
    });
    let mut tree = RadixTree::new();
    for k in 0..10_000u64 {
        tree.insert(k, k);
    }
    p.each("radix.get_hit_ns", |i| {
        black_box(tree.get(black_box(i * 7919 % 10_000)));
    });
    p.each("radix.get_miss_ns", |i| {
        black_box(tree.get(black_box((1 << 40) + i)));
    });
    let mut hot = DataCache::new(256);
    for chunk in 0..128u64 {
        hot.insert_clean(1, chunk, vec![0u8; 1024]);
    }
    p.each("cache.get_hit_ns", |i| {
        black_box(hot.get(1, i % 128).is_some());
    });
    let mut small = DataCache::new(64);
    let mut chunk = 0u64;
    p.each("cache.write_evict_ns", |_| {
        chunk += 1;
        black_box(small.write(1, chunk, 0, &[0u8; 256]).len());
    });
}

fn store(p: &mut Probes) {
    let cluster: Arc<dyn ObjectStore> = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
    let prt = Prt::new(Arc::clone(&cluster), 2 << 20);
    let port = Port::new();
    p.each("prt.store_inode_ns", |i| {
        prt.store_inode(&port, &inode(i % 1024)).expect("store");
    });
    for i in 0..1024 {
        prt.store_inode(&port, &inode(i)).expect("store");
    }
    p.each("prt.load_inode_ns", |i| {
        black_box(prt.load_inode(&port, inode(i % 1024).ino).expect("stored"));
    });
    // A 32 MiB file written and read in 128 KiB requests.
    let (req, file) = (128usize << 10, 32u64 << 20);
    let buf = vec![0x5Au8; req];
    p.each("prt.write_data_128k_ns", |i| {
        let off = i * req as u64 % file;
        prt.write_data(&port, 900, off, &buf).expect("write");
    });
    let mut back = vec![0u8; req];
    p.each("prt.read_data_128k_ns", |i| {
        let off = i * req as u64 % file;
        black_box(
            prt.read_data(&port, 900, off, &mut back, file)
                .expect("read"),
        );
    });
    for (put, get, size) in [
        ("objstore.put_4k_ns", "objstore.get_4k_ns", 4096usize),
        ("objstore.put_2m_ns", "objstore.get_2m_ns", 2 << 20),
    ] {
        let payload = Bytes::from(vec![0xA5u8; size]);
        let key = |i: u64| ObjectKey::data_chunk(size as u128, i % 16);
        p.each(put, |i| {
            cluster.put(&port, key(i), payload.clone()).expect("put");
        });
        for i in 0..16 {
            cluster.put(&port, key(i), payload.clone()).expect("put");
        }
        p.each(get, |i| {
            black_box(cluster.get(&port, key(i)).expect("stored"));
        });
    }
}

fn lease(p: &mut Probes) {
    let acquire = |client, ino| LeaseRequest::Acquire {
        client: NodeId(client),
        ino,
    };
    let granted = |r: LeaseResponse| assert!(matches!(r, LeaseResponse::Granted { .. }), "{r:?}");
    p.ns("lease.acquire_ns", |n| {
        let m = LeaseManager::new(LeaseConfig::default());
        let start = Instant::now();
        for i in 0..n {
            granted(m.handle(0, acquire(1, i as u128)).0);
        }
        start.elapsed()
    });
    let m = LeaseManager::new(LeaseConfig::default());
    granted(m.handle(0, acquire(1, 7)).0);
    p.each("lease.extend_ns", |_| {
        granted(m.handle(0, acquire(1, 7)).0);
    });
    p.each("lease.redirect_ns", |_| {
        let r = m.handle(0, acquire(2, 7)).0;
        assert!(matches!(r, LeaseResponse::Redirect { .. }), "{r:?}");
    });
}

/// An actor that does nothing but advance its clock: what is left is
/// the engine's own cost per step.
struct Idle {
    now: u64,
    stride: u64,
    left: u64,
}

impl Actor for Idle {
    fn now(&self) -> u64 {
        self.now
    }
    fn step(&mut self) -> bool {
        self.now += self.stride;
        self.left -= 1;
        self.left > 0
    }
}

fn simkit(p: &mut Probes) {
    for (name, actors) in [
        ("engine.step_ns_a64", 64u64),
        ("engine.step_ns_a4096", 4096),
        ("engine.step_ns_a16384", 16_384),
    ] {
        p.ns(name, |n| {
            let steps = n.div_ceil(actors).max(1);
            let mut fleet: Vec<Idle> = (0..actors)
                .map(|i| Idle {
                    now: 0,
                    stride: 1000 + i % 97,
                    left: steps,
                })
                .collect();
            let start = Instant::now();
            let stats = Engine::run(&mut fleet);
            let elapsed = start.elapsed();
            // Report per requested call: the batch ran steps*actors steps.
            elapsed.mul_f64(n as f64 / stats.steps as f64)
        });
    }
    // Arrivals keep rising across batches, as a client's clock does: a
    // restart at 0 would walk every interval the last batch left behind.
    let res = SharedResource::ideal("probe");
    let mut arrival = 0u64;
    p.each("timeline.reserve_ns", |_| {
        arrival += 10;
        black_box(res.reserve(arrival, 7));
    });
}

fn echo_codec() -> WireFns<Vec<u8>, Vec<u8>> {
    WireFns {
        enc_req: |v| v.clone(),
        dec_req: |b| Some(b.to_vec()),
        enc_resp: |v| v.clone(),
        dec_resp: |b| Some(b.to_vec()),
    }
}

/// Round trips of an echo service over a loopback socket, microseconds:
/// `(p50, p99)` for an 8-byte payload and p50 for 4 KiB.
fn tcp_rtt(samples: usize) -> Result<(f64, f64, f64), String> {
    let server = Arc::new(TcpTransport::new(echo_codec()));
    let echo = |arrival: u64, req: Vec<u8>| (req, arrival);
    Transport::register(&*server, NodeId(7), Arc::new(echo));
    let addr = server
        .listen("127.0.0.1:0")
        .map_err(|e| format!("listen: {e}"))?;
    let client = TcpTransport::new(echo_codec());
    client.register_addr(NodeId(7), addr);
    let port = Port::new();
    let rtts = |payload: Vec<u8>| -> Result<Vec<u64>, String> {
        let mut out = Vec::with_capacity(samples);
        for i in 0..samples + 16 {
            let t = Instant::now();
            let back = client
                .call(&port, NodeId(7), payload.clone())
                .map_err(|e| format!("echo call: {e}"))?;
            let d = t.elapsed().as_nanos() as u64;
            if back != payload {
                return Err("echo returned other bytes".into());
            }
            if i >= 16 {
                out.push(d); // the first calls open the connection
            }
        }
        out.sort_unstable();
        Ok(out)
    };
    let small = rtts(vec![1u8; 8])?;
    let big = rtts(vec![2u8; 4096])?;
    server.shutdown();
    let us = |ns: u64| ns as f64 / 1e3;
    Ok((
        us(nearest_rank(&small, 0.5)),
        us(nearest_rank(&small, 0.99)),
        us(nearest_rank(&big, 0.5)),
    ))
}

fn netsim(p: &mut Probes) -> Result<(), String> {
    let bus: Bus<u32, u32> = Bus::new(0);
    bus.register(
        NodeId(7),
        Arc::new(|arrival: u64, req: u32| (req + 1, arrival)),
    );
    let port = Port::new();
    p.each("bus.call_ns", |i| {
        black_box(bus.call(&port, NodeId(7), i as u32).expect("registered"));
    });
    let samples = 200 * p.effort.batches;
    let (p50, p99, p50_4k) = tcp_rtt(samples)?;
    for (name, v) in [
        ("tcp.rtt_p50_us", p50),
        ("tcp.rtt_p99_us", p99),
        ("tcp.rtt_4k_p50_us", p50_4k),
    ] {
        p.out.push(ProbeResult {
            name,
            unit: "us",
            median: v,
            q1: v,
            q3: v,
            batches: 1,
            iters: samples as u64,
        });
    }
    Ok(())
}

fn telemetry(p: &mut Probes) {
    let tel = Telemetry::new();
    let counter = tel.registry.counter("probe.count");
    p.each("telemetry.counter_inc_ns", |_| counter.inc());
    let hist = tel.registry.histogram("probe.latency_ns");
    p.each("telemetry.hist_record_ns", |i| {
        hist.record(40_000 + i % 1000)
    });
    p.each("telemetry.span_off_ns", |i| {
        tel.tracer.record(PID_CLIENT, 1, "probe", "cpu", i, i + 5);
    });
    tel.tracer.set_enabled(true);
    p.each("telemetry.span_on_ns", |i| {
        tel.tracer.record(PID_CLIENT, 1, "probe", "cpu", i, i + 5);
    });
}

/// Run every probe, in the order they are reported.
pub fn run_all(effort: Effort) -> Result<Vec<ProbeResult>, String> {
    let mut p = Probes {
        effort,
        out: Vec::new(),
    };
    calibrate(&mut p);
    wire(&mut p);
    metatable(&mut p);
    journal(&mut p);
    cache(&mut p);
    store(&mut p);
    lease(&mut p);
    simkit(&mut p);
    netsim(&mut p)?;
    telemetry(&mut p);
    Ok(p.out)
}

/// Names of every probe metric, in report order (the `per_layer` list
/// of `BENCHMARK.json` starts with these).
pub const NAMES: [&str; 48] = [
    "calib.ns_per_iter",
    "wire.op_req.encode_ns",
    "wire.op_req.decode_ns",
    "wire.op_resp.encode_ns",
    "wire.op_resp.decode_ns",
    "wire.lease_req.roundtrip_ns",
    "wire.store_put4k.roundtrip_ns",
    "wire.inode.encode_ns",
    "wire.inode.decode_ns",
    "wire.dentry_block64.encode_ns",
    "wire.dentry_block64.decode_ns",
    "wire.crc32_4k_ns",
    "metatable.create_child_ns",
    "metatable.lookup_ns",
    "metatable.unlink_child_ns",
    "metatable.readdir_1k_ns",
    "journal.append_ns",
    "journal.seal64_ns",
    "journal.txn_seal64_ns",
    "journal.txn_unseal64_ns",
    "radix.insert_ns",
    "radix.get_hit_ns",
    "radix.get_miss_ns",
    "cache.get_hit_ns",
    "cache.write_evict_ns",
    "prt.store_inode_ns",
    "prt.load_inode_ns",
    "prt.write_data_128k_ns",
    "prt.read_data_128k_ns",
    "objstore.put_4k_ns",
    "objstore.get_4k_ns",
    "objstore.put_2m_ns",
    "objstore.get_2m_ns",
    "lease.acquire_ns",
    "lease.extend_ns",
    "lease.redirect_ns",
    "engine.step_ns_a64",
    "engine.step_ns_a4096",
    "engine.step_ns_a16384",
    "timeline.reserve_ns",
    "bus.call_ns",
    "tcp.rtt_p50_us",
    "tcp.rtt_p99_us",
    "tcp.rtt_4k_p50_us",
    "telemetry.counter_inc_ns",
    "telemetry.hist_record_ns",
    "telemetry.span_off_ns",
    "telemetry.span_on_ns",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_reports_the_cost_of_the_measured_part() {
        // A "call" that costs a known 2 µs of spinning.
        let effort = Effort {
            batches: 5,
            min_batch: Duration::from_micros(500),
        };
        let mut f = |n: u64| {
            let t = Instant::now();
            for _ in 0..n {
                let s = Instant::now();
                while s.elapsed() < Duration::from_micros(2) {}
            }
            t.elapsed()
        };
        let (per_call, n) = time_ns_per_call(effort, &mut f);
        assert_eq!(per_call.len(), 5);
        assert!(n >= 100, "batch was sized up to the floor: {n}");
        let (_, med, _) = quartiles(&per_call);
        assert!((2000.0..4000.0).contains(&med), "median {med} ns");
    }

    #[test]
    fn every_probe_reports_under_its_listed_name() {
        let effort = Effort {
            batches: 3,
            min_batch: Duration::from_micros(200),
        };
        let got = run_all(effort).unwrap();
        let names: Vec<&str> = got.iter().map(|r| r.name).collect();
        assert_eq!(names, NAMES);
        assert!(got.iter().all(|r| r.median > 0.0 && r.median.is_finite()));
    }
}
