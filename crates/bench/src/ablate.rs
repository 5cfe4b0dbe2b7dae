//! Ablation studies of ArkFS design choices (§III), in virtual time:
//!
//! * compound-transaction buffering window (1 s vs commit-per-op),
//! * commit pipeline (async ack-at-seal vs sync ack-at-durable),
//! * group commit across co-laned directories (grouped vs per-dir
//!   sealing, journal flights and txns-per-flight),
//! * read-ahead policy (none / doubling / immediate-max-at-zero),
//! * permission caching (also Figure 7, measured here at small scale),
//! * dentry bucket count (dirty-bucket write amplification),
//! * lease period (extension traffic vs takeover latency),
//! * lease managers (the paper's one vs the sharded default).

use crate::figures::easy_create_rate;
use crate::fleet::{ark_cluster, ark_fleet, zipf_create_fleet, System};
use crate::registry::{format_table, Figure, Metric, Record, Run, Sample, Scale};
use arkfs::ArkConfig;
use arkfs_simkit::{MSEC, SEC};
use arkfs_vfs::{Credentials, FileHandle, OpenFlags, Vfs};
use arkfs_workloads::client::barrier;
use arkfs_workloads::fio::{fio, FioConfig};
use arkfs_workloads::mdtest::{fanned_dir_create, mdtest_easy, MdtestEasyConfig};
use arkfs_workloads::{gen_iter, run_ops, Op, SimClient};
use std::sync::Arc;

const SCALE: Scale = Scale {
    files: 20_000,
    procs: 16,
    clients: 4096,
    // Per-client file of the small-cache read rows.
    mib: 32,
    full: false,
};

// Keys of the small-cache read records (`BENCH_ablate.json`).
const CACHE_ENTRIES: &str = "cache_entries";
const READERS: &str = "clients";
const SEQ_MIB_S: &str = "seqread_mib_s";
const SEQ_AMP: &str = "seqread_store_bytes_per_byte";
const RAND_MIB_S: &str = "randread_mib_s";
const RAND_AMP: &str = "randread_store_bytes_per_byte";
const FILLS_LOST: &str = "fills_lost";
const EVICTED_UNREAD: &str = "prefetch_evicted_unread";

pub const FIGURE: Figure = Figure {
    name: "ablate",
    claim: "Ablations of the design choices of §III, in virtual time: each mechanism the paper \
            argues for (compound transactions, permission caching, read-ahead, leases) pays for \
            itself against the same system with it turned off.",
    // `files` is the create count of the 16-process tables; the wider
    // fleets' per-client counts scale with it.
    scale: SCALE,
    full: Scale {
        files: 1_000_000,
        full: true,
        ..SCALE
    },
    tables: &["ablations"],
    // One record per small-cache read row (§4b); the other tables are
    // text only.
    metrics: &[
        Metric::Given(READERS),
        Metric::Given(CACHE_ENTRIES),
        Metric::Given(SEQ_MIB_S),
        Metric::Given(SEQ_AMP),
        Metric::Given(RAND_MIB_S),
        Metric::Given(RAND_AMP),
        Metric::Counter(FILLS_LOST, "cache.fill.lost.count"),
        Metric::Counter(EVICTED_UNREAD, "cache.prefetch.evicted_unread.count"),
    ],
    run: ablate,
    shape: small_cache_shape,
};

/// A cache smaller than the file must cost a stream next to nothing and
/// nobody a second fetch: per client count, sequential bandwidth at 6
/// entries is at least 0.8x that at 256, and no row reads more than
/// 1.1 store bytes per user byte, evicts read-ahead unread or loses a
/// fill.
fn small_cache_shape(records: &[Record]) -> Result<(), String> {
    // (The schema check has already refused a record without a key.)
    let get = |r: &Record, key| r.get(key).unwrap_or(f64::INFINITY);
    for r in records {
        for key in [SEQ_AMP, RAND_AMP] {
            if get(r, key) > 1.1 {
                return Err(format!("{}: {key} = {:.2} > 1.1", r.system, get(r, key)));
            }
        }
        for key in [FILLS_LOST, EVICTED_UNREAD] {
            if get(r, key) != 0.0 {
                return Err(format!("{}: {key} = {}", r.system, get(r, key)));
            }
        }
        let big = records.iter().find(|b| {
            get(b, READERS) == get(r, READERS) && get(b, CACHE_ENTRIES) > get(r, CACHE_ENTRIES)
        });
        let (small, big) = (get(r, SEQ_MIB_S), big.map_or(0.0, |b| get(b, SEQ_MIB_S)));
        if small < 0.8 * big {
            return Err(format!(
                "{}: sequential {small:.0} MiB/s < 0.8 x {big:.0} MiB/s with the whole file cached",
                r.system
            ));
        }
    }
    Ok(())
}

fn create_throughput(config: ArkConfig, procs: usize, files: u64) -> f64 {
    easy_create_rate(&ark_fleet(procs, config, true).clients, files)
}

/// Write `size` bytes to a fresh `path` in 1 MiB blocks and fsync.
fn write_seq(c: &dyn Vfs, ctx: &Credentials, path: &str, size: u64) -> FileHandle {
    let fh = c.create(ctx, path, 0o644).unwrap();
    let block = vec![0u8; 1024 * 1024];
    for off in (0..size).step_by(block.len()) {
        c.write(ctx, fh, off, &block).unwrap();
    }
    c.fsync(ctx, fh).unwrap();
    fh
}

/// Read `size` bytes back in 128 KiB requests.
fn read_seq(c: &dyn Vfs, ctx: &Credentials, fh: FileHandle, size: u64) {
    let mut buf = vec![0u8; 128 * 1024];
    let mut off = 0;
    while off < size {
        off += c.read(ctx, fh, off, &mut buf).unwrap() as u64;
    }
}

/// Sequential read bandwidth (MiB/s) for a given read-ahead policy.
#[allow(clippy::field_reassign_with_default)]
fn read_bandwidth(max_readahead: u64, full_at_zero: bool) -> f64 {
    let mut config = ArkConfig::default();
    config.chunk_size = 512 * 1024;
    config.cache_entries = 256;
    config.max_readahead = max_readahead;
    config.readahead_full_at_zero = full_at_zero;
    let system = ark_fleet(4, config, true);
    let ctx = Credentials::root();
    let c: &Arc<dyn SimClient> = &system.clients[0];
    let size: u64 = 64 * 1024 * 1024;
    c.mkdir(&ctx, "/d", 0o755).unwrap();
    let fh = write_seq(c.as_ref(), &ctx, "/d/f", size);
    c.close(&ctx, fh).unwrap();
    c.drop_caches();
    let t0 = c.port().now();
    let fh = c.open(&ctx, "/d/f", OpenFlags::RDONLY).unwrap();
    read_seq(c.as_ref(), &ctx, fh, size);
    c.close(&ctx, fh).unwrap();
    let dt = (c.port().now() - t0) as f64 / 1e9;
    size as f64 / (1024.0 * 1024.0) / dt
}

/// The benchmark's `fio_seq` shape — `n` clients, a private file of `mib`
/// MiB each, 128 KiB requests, default 2 MiB chunks and 8 MiB read-ahead
/// — through caches of `entries` chunks: [`fio`]'s write and sequential
/// read, then a quarter of the file read at random on a dropped cache.
/// Returns the fleet and, per read phase, MiB/s and store bytes read per
/// user byte.
fn small_cache_reads(entries: usize, n: usize, mib: u64) -> (System, [f64; 4]) {
    let config = ArkConfig {
        cache_entries: entries,
        ..ArkConfig::default()
    };
    let system = ark_fleet(n, config, true);
    let clients = &system.clients;
    let read_bytes = || {
        let telemetry = system.telemetry().expect("ArkFS telemetry");
        telemetry.registry.counter("store.read.bytes").get() as f64
    };
    let cfg = FioConfig {
        file_size: mib << 20,
        request_size: 128 * 1024,
    };
    // Whole-chunk writes read nothing: every store byte is the read's.
    let seq = fio(clients, &cfg).expect("fio");
    let seq_bytes = read_bytes();
    clients.iter().for_each(|c| c.drop_caches());

    // Never block 0 (a read there is a stream's first), never where the
    // previous request ended.
    let requests = cfg.file_size / cfg.request_size as u64;
    let quarter = (requests / 4).max(1);
    let gens = (0..n as u64).map(|i| {
        let open = Op::Open {
            path: format!("/fio/job{i}.bin"),
        };
        let reads = (0..quarter).map(move |k| Op::Read {
            off: (1 + (k * 37 + i * 11) % (requests - 1).max(1)) * cfg.request_size as u64,
            len: cfg.request_size,
            eof: cfg.file_size,
        });
        gen_iter(std::iter::once(open).chain(reads).chain([Op::Close]))
    });
    let start = clients[0].port().now();
    let report = run_ops(clients, gens.collect(), None);
    assert_eq!(report.total_errors(), 0, "random reads failed");
    barrier(clients);
    let rand_s = (clients[0].port().now() - start) as f64 / 1e9;
    let rand_user = (n as u64 * quarter * cfg.request_size as u64) as f64;
    let measured = [
        seq.read_mib_s(),
        seq_bytes / seq.bytes as f64,
        rand_user / (1 << 20) as f64 / rand_s,
        (read_bytes() - seq_bytes) / rand_user,
    ];
    (system, measured)
}

/// Create throughput (kops/s, closing barrier included) of `n` engine
/// clients making `per_client` files each in a Zipf-drawn pool of 256
/// shared directories, the busiest lease manager's busy share of it, and
/// where path resolution got its directory views: `dir_view` RPCs to
/// leaders, and views the managers handed over with a redirect.
fn zipf_create(config: ArkConfig, n: usize, per_client: u64) -> (f64, f64, u64, u64) {
    let cluster = ark_cluster(config, true);
    let (clients, gens) = zipf_create_fleet(&cluster, 256, 0.9, 0xF19, n, per_client);
    let clients: Vec<Arc<dyn SimClient>> = clients
        .into_iter()
        .map(|c| c as Arc<dyn SimClient>)
        .collect();
    let start = clients[0].port().now();
    let report = run_ops(&clients, gens, None);
    assert_eq!(report.total_errors(), 0, "zipf creates failed");
    for c in &clients {
        c.sync_all(&Credentials::root()).expect("sync_all");
    }
    let span = clients.iter().map(|c| c.port().now()).max().unwrap_or(0) - start;
    let busy = cluster
        .manager_stats()
        .iter()
        .map(|m| m.1)
        .max()
        .unwrap_or(0);
    let count = |name: &str| cluster.telemetry().registry.counter(name).get();
    (
        (n as u64 * per_client) as f64 / (span as f64 / 1e9) / 1000.0,
        100.0 * busy as f64 / span as f64,
        count("rpc.forward.dir_view.count"),
        count("lease.redirect.view.count"),
    )
}

#[allow(clippy::field_reassign_with_default)]
fn ablate(run: &mut Run) -> Result<(), String> {
    let Scale { files, procs, .. } = run.scale;
    let zipf_clients = run.scale.clients;
    // The wide-fleet tables: 64 clients × 500 files at the default scale.
    let wide = 4 * procs;
    let wide_files = wide as u64 * (files / 40).max(1);
    const OUT: &str = "ablations";

    // 1. Compound-transaction buffering (§III-E: "buffering journal
    //    entries in an in-memory transaction for 1 second").
    let rows: Vec<Vec<String>> = [
        ("1s window (paper)", ArkConfig::default()),
        (
            "100ms window",
            ArkConfig::default().with_journal_window(100 * MSEC),
        ),
        ("commit per op", ArkConfig::default().with_journal_window(0)),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        vec![
            name.to_string(),
            format!("{:.1}", create_throughput(cfg, procs, files) / 1000.0),
        ]
    })
    .collect();
    run.table(
        OUT,
        "Ablation: compound-transaction window (create kops/s)",
        &["window", "kops/s"],
        &rows,
    );

    // 1b. Commit pipeline: async acks at seal, sync acks at durable.
    //     Same create workload; the async rows also split latency into
    //     ack (exact phase percentile — the return to the caller) vs
    //     durable (`op.create.durable_ns`, stamped when the sealed
    //     batch lands on the object store). Sync mode has no separate
    //     ack: the caller waits out the forced commit.
    let rows: Vec<Vec<String>> = [
        ("async (pipeline)", ArkConfig::default()),
        (
            "sync (ack at durable)",
            ArkConfig::default().with_commit_mode(arkfs::CommitMode::Sync),
        ),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let system = ark_fleet(procs, cfg, true);
        let wl = MdtestEasyConfig {
            files_total: files,
            create_only: true,
        };
        let result = mdtest_easy(&system.clients, &wl).expect("mdtest");
        let phase = &result.phases[0];
        let durable = system.clients[0]
            .telemetry()
            .map(|t| t.registry.histogram("op.create.durable_ns").snapshot())
            .filter(|h| h.count() > 0);
        vec![
            name.to_string(),
            format!("{:.1}", phase.ops_per_sec() / 1000.0),
            phase.latency_p50.to_string(),
            durable.map_or_else(|| "-".to_string(), |h| h.quantile(0.5).to_string()),
        ]
    })
    .collect();
    run.table(
        OUT,
        "Ablation: commit pipeline (create kops/s, ack vs durable p50 ns)",
        &["mode", "kops/s", "ack p50", "durable p50"],
        &rows,
    );

    // 1c. Group commit across co-laned directories: 64 clients create
    //     round-robin into 8 directories each, so every client's 8 led
    //     journals share its 4 commit lanes. Grouped sealing carries
    //     every co-laned directory's due transactions in one batched
    //     multi-PUT per lane flight; per-dir sealing pays one store
    //     round trip per sealed transaction. `journal.flight.count` /
    //     `journal.flight.txns` count exactly the append flights and
    //     the transactions they carry (checkpoint batches are excluded
    //     by construction), so txns-per-flight reads the amortization
    //     directly. A 10 ms commit window makes window-triggered seals
    //     the dominant flight source (the default 100 ms fires about
    //     once per directory in a run this short).
    let rows: Vec<Vec<String>> = [
        (
            "grouped (default)",
            ArkConfig::default().with_async_commit(10 * MSEC, 8),
        ),
        (
            "per-dir sealing",
            ArkConfig::default()
                .with_async_commit(10 * MSEC, 8)
                .with_group_commit(false),
        ),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let system = ark_fleet(wide, cfg, true);
        let result = fanned_dir_create(&system.clients, 8, wide_files).expect("fanned create");
        let phase = &result.phases[0];
        let tel = system.clients[0].telemetry().expect("telemetry");
        let durable = tel.registry.histogram("op.create.durable_ns").snapshot();
        let flights = tel.registry.counter("journal.flight.count").get();
        let txns = tel.registry.counter("journal.flight.txns").get();
        vec![
            name.to_string(),
            format!("{:.1}", phase.ops_per_sec() / 1000.0),
            durable.quantile(0.5).to_string(),
            flights.to_string(),
            format!("{:.2}", txns as f64 / flights.max(1) as f64),
        ]
    })
    .collect();
    run.table(
        OUT,
        &format!("Ablation: group commit across co-laned dirs at {wide} clients"),
        &[
            "mode",
            "kops/s",
            "durable p50 ns",
            "journal flights",
            "txns/flight",
        ],
        &rows,
    );

    // 2. Permission cache (§III-C, near-root hotspot) at 64 clients.
    let rows: Vec<Vec<String>> = [
        ("pcache on", ArkConfig::default()),
        (
            "pcache off",
            ArkConfig::default().with_permission_cache(false),
        ),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        vec![
            name.to_string(),
            format!("{:.1}", create_throughput(cfg, wide, wide_files) / 1000.0),
        ]
    })
    .collect();
    run.table(
        OUT,
        &format!("Ablation: permission caching at {wide} clients (create kops/s)"),
        &["mode", "kops/s"],
        &rows,
    );

    // 3. Dentry bucket count (dirty-bucket write amplification on
    //    checkpoint; more buckets = smaller rewrites).
    let rows: Vec<Vec<String>> = [1u64, 4, 16, 64]
        .into_iter()
        .map(|buckets| {
            let mut cfg = ArkConfig::default();
            cfg.dentry_buckets = buckets;
            vec![
                buckets.to_string(),
                format!("{:.1}", create_throughput(cfg, procs, files) / 1000.0),
            ]
        })
        .collect();
    run.table(
        OUT,
        "Ablation: dentry buckets per directory (create kops/s)",
        &["buckets", "kops/s"],
        &rows,
    );

    // 4. Read-ahead policy (§III-D).
    let rows: Vec<Vec<String>> = [
        ("no read-ahead", 0u64, false),
        ("doubling to 8MB", 8 * 1024 * 1024, false),
        ("8MB + max-at-zero (paper)", 8 * 1024 * 1024, true),
    ]
    .into_iter()
    .map(|(name, ra, fz)| vec![name.to_string(), format!("{:.0}", read_bandwidth(ra, fz))])
    .collect();
    run.table(
        OUT,
        "Ablation: read-ahead policy (sequential read MiB/s, 1 client)",
        &["policy", "MiB/s"],
        &rows,
    );

    // 4b. The same path when the cache is smaller than the file: 6
    //     entries (12 MiB) against 256, streaming and random, 1 and 8
    //     clients. Read-ahead that is evicted before it is read shows as
    //     a sequential column far below the 256-entry one and more than
    //     one store byte per user byte; whole chunks fetched for random
    //     requests as 16 store bytes per user byte.
    let mut rows = Vec::new();
    for (n, entries) in [(1, 6), (1, 256), (8, 6), (8, 256)] {
        let (system, measured) = small_cache_reads(entries, n, run.scale.mib);
        system.no_lost_fills()?;
        let [seq, seq_amp, rand, rand_amp] = measured;
        let telemetry = system.telemetry();
        let sample = Sample {
            telemetry: telemetry.as_deref(),
            given: &[
                (READERS, n as f64),
                (CACHE_ENTRIES, entries as f64),
                (SEQ_MIB_S, seq),
                (SEQ_AMP, seq_amp),
                (RAND_MIB_S, rand),
                (RAND_AMP, rand_amp),
            ],
            ..Sample::default()
        };
        run.record("small-cache", &format!("ArkFS-C{n}-E{entries}"), &sample);
        let mut row = vec![n.to_string(), entries.to_string()];
        row.extend([format!("{seq:.0}"), format!("{seq_amp:.2}")]);
        row.extend([format!("{rand:.0}"), format!("{rand_amp:.2}")]);
        rows.push(row);
    }
    run.table(
        OUT,
        &format!(
            "Ablation: cache smaller than the file ({} MiB per client, 2 MiB chunks, 128 KiB \
             requests)",
            run.scale.mib
        ),
        &[
            "clients",
            "cache entries",
            "seq MiB/s",
            "store B/B",
            "random MiB/s",
            "store B/B",
        ],
        &rows,
    );

    // 5. Lease period: shorter periods mean more manager traffic.
    let rows: Vec<Vec<String>> = [SEC / 2, SEC, 5 * SEC, 30 * SEC]
        .into_iter()
        .map(|period| {
            let cfg = ArkConfig::default().with_lease_period(period, period);
            vec![
                format!("{:.1}s", period as f64 / 1e9),
                format!("{:.1}", create_throughput(cfg, procs, files) / 1000.0),
            ]
        })
        .collect();
    run.table(
        OUT,
        "Ablation: lease period (create kops/s)",
        &["period", "kops/s"],
        &rows,
    );

    // 5b. Lease managers: the paper's single manager against the
    //     sharded default, where a fleet's first touches are the load
    //     (the benchmark's `zipf_create`: 4096 clients, 65536 creates
    //     over 256 shared directories, Zipf 0.9).
    let rows: Vec<Vec<String>> = [(1, "1 (paper)"), (16, "16 (default)")]
        .into_iter()
        .map(|(managers, name)| {
            let config = ArkConfig::default().with_lease_managers(managers);
            let (kops, busy, fills, views) =
                zipf_create(config, zipf_clients, (files / 1250).max(1));
            let mut row = vec![name.to_string(), format!("{kops:.1}"), format!("{busy:.1}")];
            row.extend([fills.to_string(), views.to_string()]);
            row
        })
        .collect();
    run.table(
        OUT,
        &format!("Ablation: lease managers (Zipf create over shared dirs, {zipf_clients} clients)"),
        &[
            "managers",
            "kops/s",
            "busiest mgr busy %",
            "dir_view rpcs",
            "views from manager",
        ],
        &rows,
    );

    // 6. Unified telemetry: one deployment runs the cached data path
    //    (16 MiB write + cold read), then 64 creates, a clean lease
    //    hand-back, and a leader takeover by a second client. Every
    //    counter and latency histogram the stack recorded — cache,
    //    store, meta, journal, lease, and per-op — comes out of a
    //    single sorted `Registry::snapshot()`.
    {
        use arkfs_telemetry::MetricValue;
        let mut config = ArkConfig::default();
        config.chunk_size = 512 * 1024;
        config.cache_entries = 256;
        let cluster = ark_cluster(config, false);
        run.trace_on("ArkFS", cluster.telemetry(), None);
        let writer = cluster.client();
        let reader = cluster.client();
        let ctx = Credentials::root();

        // Data path: write 16 MiB, drop the cache, read it back cold.
        let size: u64 = 16 * 1024 * 1024;
        writer.mkdir(&ctx, "/d", 0o755).unwrap();
        let fh = write_seq(writer.as_ref(), &ctx, "/d/f", size);
        writer.drop_data_cache().unwrap();
        read_seq(writer.as_ref(), &ctx, fh, size);
        writer.close(&ctx, fh).unwrap();

        // Metadata path: 64 creates, then hand the lease back so the
        // reader's first stat is an uncached leader takeover
        // (batched Metatable::load from the store).
        writer.mkdir(&ctx, "/meta", 0o755).unwrap();
        for i in 0..64 {
            let fh = writer.create(&ctx, &format!("/meta/f{i}"), 0o644).unwrap();
            writer.close(&ctx, fh).unwrap();
        }
        // Forwarded path: while the writer still leads, the reader's
        // stats go to it (`rpc.forward.*`, `leader.*`).
        for i in 0..8 {
            reader.stat(&ctx, &format!("/meta/f{i}")).unwrap();
        }
        writer.release_all(&ctx).unwrap();
        for i in 0..64 {
            reader.stat(&ctx, &format!("/meta/f{i}")).unwrap();
        }

        // Fold the observability-layer loss counters and the client's
        // lock-contention counters into the registry so the snapshot
        // below is the one uniform view of everything the stack
        // recorded. Lock contended/blocked_ns are host wall-clock, but
        // this workload runs on one thread and a lock nobody else holds
        // is never contended: both are 0 on every run, so the table
        // stays under the byte-identical drift check.
        cluster.telemetry().publish_ring_losses();
        writer.publish_lock_stats();
        // `leader.served.count` / `leader.busy_ns` are sums over all
        // leaders; a hotspot is one leader, so publish the busiest.
        let (served, busy) = [&writer, &reader]
            .iter()
            .map(|c| c.leader_stats())
            .max()
            .unwrap_or((0, 0));
        let reg = &cluster.telemetry().registry;
        reg.gauge("leader.served.max").set(served as i64);
        reg.gauge("leader.busy_ns.max").set(busy as i64);

        let rows: Vec<Vec<String>> = cluster
            .telemetry()
            .registry
            .snapshot()
            .into_iter()
            .map(|(name, value)| {
                let rendered = match value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => v.to_string(),
                    MetricValue::Histogram(h) => format!(
                        "count={} p50={}ns p99={}ns max={}ns",
                        h.count(),
                        h.quantile(0.50),
                        h.quantile(0.99),
                        h.max()
                    ),
                };
                vec![name, rendered]
            })
            .collect();
        run.table(
            OUT,
            "Telemetry registry snapshot (data path + takeover workload)",
            &["metric", "value"],
            &rows,
        );
        if run.trace.is_some() {
            // Critical-path attribution from the causal spans: for each
            // op family, how the mean ack latency splits across the
            // pipeline segments.
            use arkfs_telemetry::critpath;
            let events = cluster.telemetry().tracer.events();
            let cp_rows: Vec<Vec<String>> = critpath::aggregate(&events)
                .into_iter()
                .map(|(root, agg)| {
                    let mut row = vec![root, format!("{:.0}", agg.mean_total())];
                    row.extend(
                        (0..critpath::SEGMENTS.len())
                            .map(|i| format!("{:.1}%", agg.share(i) * 100.0)),
                    );
                    row
                })
                .collect();
            if !cp_rows.is_empty() {
                let mut headers = vec!["op", "mean ns"];
                headers.extend(critpath::SEGMENTS);
                run.table(
                    OUT,
                    "Critical-path attribution (mean ack latency by segment)",
                    &headers,
                    &cp_rows,
                );
            }
        }
    }

    let shared_files = (files as usize / 20).max(1);
    // 7a. Shared-client op/lock-acquisition counts, measured
    //     deterministically: the same 8-worker op mix multiplexed onto
    //     the ONE client by the discrete-event engine on one host
    //     thread. Wall-clock contention cannot show up here — the point
    //     is that the op count and the striped-lock acquisition count
    //     are exact, reproducible numbers, so a change in either is a
    //     code change, not scheduler noise. The wall-clock section below
    //     keeps measuring the real contention.
    {
        let rows: Vec<Vec<String>> = [("striped (16)", 16usize), ("global lock (1)", 1)]
            .into_iter()
            .map(|(name, stripes)| {
                let (ops, acquisitions) = shared_client_engine_counts(stripes, shared_files);
                vec![name.to_string(), ops.to_string(), acquisitions.to_string()]
            })
            .collect();
        run.table(
            OUT,
            "Ablation: shared-client op/lock counts (event engine, deterministic)",
            &["mode", "ops", "striped lock acquisitions"],
            &rows,
        );
    }

    // 7. Shared-client lock striping: 8 real OS threads hammer ONE
    //    ArkClient with mixed create/write/stat across 8 directories.
    //    Virtual time is oblivious to real-thread contention (the
    //    Timeline just advances), so this scenario is scored in
    //    *wall-clock* terms: ops/s, plus the contention diagnostics
    //    from `ArkClient::lock_stats()` — how many lock acquisitions
    //    found the lock held, and how long they blocked. `stripes = 1`
    //    collapses every table to one global lock (the pre-striping
    //    client this refactor replaced): a thread descheduled inside
    //    any critical section stalls every other thread, instead of
    //    only the ones needing the same stripe.
    {
        // Wall-clock timing is noisy (allocator/page-fault warm-up favors
        // whichever config runs first), so warm up once, then score each
        // config by its median ops/s of five runs; contention counters are
        // summed across the five runs. The "striped" columns cover the
        // three lock-striped families (dir table, pcache, handle shards);
        // the data-cache lock is a single lock in both configs and is
        // reported separately so it does not mask the striping effect.
        let _ = shared_client_run(16, shared_files);
        let _ = shared_client_run(1, shared_files);
        #[derive(Default)]
        struct Tally {
            rates: Vec<f64>,
            locks: u64,
            contended: u64,
            wait_ns: u64,
            cache_contended: u64,
        }
        let configs = [("striped (16)", 16usize), ("global lock (1)", 1)];
        let mut tallies = [Tally::default(), Tally::default()];
        // Interleave the runs so slow drift (thermal, background load)
        // hits both configs equally.
        for _ in 0..5 {
            for (t, &(_, stripes)) in tallies.iter_mut().zip(&configs) {
                let (ops_per_sec, s) = shared_client_run(stripes, shared_files);
                let striped = s.striped();
                t.rates.push(ops_per_sec);
                t.locks = striped.acquisitions;
                t.contended += striped.contended;
                t.wait_ns += striped.wait_ns;
                t.cache_contended += s.data_cache.contended;
            }
        }
        let rows: Vec<Vec<String>> = configs
            .iter()
            .zip(&mut tallies)
            .map(|(&(name, _), t)| {
                t.rates.sort_by(|a, b| a.total_cmp(b));
                let median = t.rates[t.rates.len() / 2];
                vec![
                    name.to_string(),
                    format!("{:.1}", median / 1000.0),
                    t.locks.to_string(),
                    t.contended.to_string(),
                    format!("{:.0}", t.wait_ns as f64 / 1000.0),
                    t.cache_contended.to_string(),
                ]
            })
            .collect();
        // Wall-clock rows differ run to run: stdout only, so
        // `results/ablations.txt` stays deterministic.
        let header = [
            "mode",
            "kops/s",
            "striped locks",
            "striped contended",
            "striped wait µs",
            "cache contended",
        ];
        let title = "Ablation: shared-client lock striping (8 threads, wall-clock)";
        for line in format_table(title, &header, &rows) {
            println!("{line}");
        }
    }
    Ok(())
}

const SHARED_THREADS: usize = 8;
const SHARED_STATS_PER_FILE: usize = 8;

/// Build the one-client deployment and its per-worker directory tree
/// for the shared-client scenarios. Two path levels per worker: the
/// root directory's stripe is shared by every resolution no matter the
/// stripe count, so deeper paths shift lock traffic onto the per-worker
/// stripes where striping can actually spread it.
fn shared_client_setup(stripes: usize) -> Arc<arkfs::ArkClient> {
    use arkfs_vfs::Vfs;

    let config = ArkConfig::default().with_client_lock_stripes(stripes);
    let client = ark_cluster(config, false).client();
    let ctx = Credentials::root();
    for i in 0..SHARED_THREADS {
        client.mkdir(&ctx, &format!("/d{i}"), 0o755).unwrap();
        for j in 0..4 {
            client.mkdir(&ctx, &format!("/d{i}/s{j}"), 0o755).unwrap();
        }
    }
    client
}

/// The shared-client op mix as engine-driven generators: 8 per-worker
/// op streams multiplexed onto ONE client. Returns (ops executed,
/// striped lock acquisitions) — both deterministic.
fn shared_client_engine_counts(stripes: usize, files: usize) -> (u64, u64) {
    use arkfs_workloads::{gen_iter, run_ops, Op, OpGen};

    let client = shared_client_setup(stripes);
    let clients: Vec<Arc<dyn SimClient>> = (0..SHARED_THREADS)
        .map(|_| Arc::clone(&client) as Arc<dyn SimClient>)
        .collect();
    let gens: Vec<Box<dyn OpGen>> = (0..SHARED_THREADS)
        .map(|i| {
            gen_iter((0..files).flat_map(move |k| {
                let path = format!("/d{i}/s{}/f{k}", k % 4);
                let mut ops = vec![
                    Op::OpenCreate { path: path.clone() },
                    Op::Write {
                        off: 0,
                        len: 4096,
                        fill: i as u8,
                    },
                    Op::Close,
                ];
                ops.extend((0..SHARED_STATS_PER_FILE).map(|_| Op::Stat { path: path.clone() }));
                ops.into_iter()
            }))
        })
        .collect();
    let report = run_ops(&clients, gens, None);
    assert_eq!(report.total_errors(), 0, "shared-client engine ops failed");
    (
        report.ops.iter().sum(),
        client.lock_stats().striped().acquisitions,
    )
}

/// One `ArkClient`, 8 real worker threads, mixed ops across 8 directories.
/// Returns wall-clock ops/s and the client's lock-acquisition counters.
fn shared_client_run(stripes: usize, files: usize) -> (f64, arkfs::LockStats) {
    use arkfs_vfs::{Credentials, Vfs};
    use std::thread;
    use std::time::Instant;

    const THREADS: usize = SHARED_THREADS;
    const STATS_PER_FILE: usize = SHARED_STATS_PER_FILE;
    const OPS_PER_FILE: u64 = 3 + STATS_PER_FILE as u64; // create, write, close, stats

    let client = shared_client_setup(stripes);

    let t0 = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|i| {
            let c = Arc::clone(&client);
            thread::spawn(move || {
                let ctx = Credentials::root();
                let payload = vec![i as u8; 4096];
                for k in 0..files {
                    let path = format!("/d{i}/s{}/f{k}", k % 4);
                    let fh = c.create(&ctx, &path, 0o644).unwrap();
                    c.write(&ctx, fh, 0, &payload).unwrap();
                    c.close(&ctx, fh).unwrap();
                    // Metadata-read heavy tail: stats resolve through the
                    // pcache + dir stripes, where striping matters most.
                    for _ in 0..STATS_PER_FILE {
                        assert_eq!(c.stat(&ctx, &path).unwrap().size, 4096);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("shared-client worker panicked");
    }
    let dt = t0.elapsed().as_secs_f64();

    let ops = (THREADS * files) as f64 * OPS_PER_FILE as f64;
    (ops / dt, client.lock_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shape_check_refuses_the_readahead_thrash() {
        // The parent's `fio_seq` numbers as 8-client rows.
        let row = |entries: f64, seq: f64, seq_amp: f64, rand_amp: f64, unread: f64| Record {
            group: "small-cache".to_string(),
            system: format!("ArkFS-C8-E{entries}"),
            metrics: [
                (READERS, 8.0),
                (CACHE_ENTRIES, entries),
                (SEQ_MIB_S, seq),
                (SEQ_AMP, seq_amp),
                (RAND_MIB_S, 300.0),
                (RAND_AMP, rand_amp),
                (FILLS_LOST, 0.0),
                (EVICTED_UNREAD, unread),
            ]
            .map(|(k, v)| (k.to_string(), v))
            .to_vec(),
        };
        let big = row(256.0, 6400.0, 1.0, 1.0, 0.0);
        let check = |small: Record| small_cache_shape(&[small, big.clone()]);
        assert_eq!(check(row(6.0, 6400.0, 1.0, 1.0, 0.0)), Ok(()));
        for thrash in [
            row(6.0, 3300.0, 1.0, 1.0, 0.0),
            row(6.0, 6400.0, 1.7, 1.0, 0.0),
            row(6.0, 6400.0, 1.0, 16.0, 0.0),
            row(6.0, 6400.0, 1.0, 1.0, 40.0),
        ] {
            assert!(check(thrash.clone()).is_err(), "{thrash:?}");
        }
    }
}
