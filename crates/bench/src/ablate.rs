//! Ablation studies of ArkFS design choices (§III), in virtual time:
//!
//! * compound-transaction buffering window (1 s, 100 ms, commit-per-op),
//! * read-ahead policy (none / doubling / immediate-max-at-zero),
//! * a cache smaller than the file (read-ahead that outlives what is
//!   behind it, ranged random reads, dirty evictions behind the writer),
//! * permission caching (also Figure 7, measured here at small scale),
//! * dentry bucket count (dirty-bucket write amplification),
//! * lease period (extension traffic vs takeover latency),
//! * lease managers (the paper's one vs the sharded default).

use crate::figures::easy_create_rate;
use crate::fleet::{ark_cluster, ark_fleet, zipf_create_fleet, System};
use crate::registry::{Figure, Metric, Record, Run, Sample, Scale};
use arkfs::ArkConfig;
use arkfs_simkit::{Nanos, MSEC, SEC};
use arkfs_vfs::{Credentials, FileHandle, OpenFlags, Vfs};
use arkfs_workloads::client::barrier;
use arkfs_workloads::fio::{fio, FioConfig};
use arkfs_workloads::{gen_iter, run_ops, Op, SimClient};
use std::sync::Arc;

const SCALE: Scale = Scale {
    files: 20_000,
    procs: 16,
    clients: 4096,
    // Per-client file of the small-cache rows.
    mib: 32,
    full: false,
};

// Keys of the small-cache records (`BENCH_ablate.json`).
const CACHE_ENTRIES: &str = "cache_entries";
const READERS: &str = "clients";
const WRITE_MIB_S: &str = "write_mib_s";
const WRITE_AMP: &str = "write_store_bytes_per_byte";
const PEAK_BUFFERS: &str = "peak_buffers";
const SEQ_MIB_S: &str = "seqread_mib_s";
const SEQ_AMP: &str = "seqread_store_bytes_per_byte";
const RAND_MIB_S: &str = "randread_mib_s";
const RAND_AMP: &str = "randread_store_bytes_per_byte";
const FILLS_LOST: &str = "fills_lost";
const EVICTED_UNREAD: &str = "prefetch_evicted_unread";
/// Write + fsync bandwidth a 6-entry cache must keep of a 256-entry one.
const WRITE_FLOOR: f64 = 0.45;

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
    // One record per small-cache row (§4b, §4c); the other tables are
    // text only.
    metrics: &[
        Metric::Given(READERS),
        Metric::Given(CACHE_ENTRIES),
        Metric::Given(WRITE_MIB_S),
        Metric::Given(WRITE_AMP),
        Metric::Given(PEAK_BUFFERS),
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
/// nobody a second fetch or a second buffer: per client count,
/// sequential read bandwidth at 6 entries is at least 0.8x that at 256
/// and write + fsync bandwidth at least WRITE_FLOOR x; no row reads more
/// than 1.1 or writes more than 1.01 store bytes per user byte, holds
/// more chunk buffers than it has entries, evicts read-ahead unread or
/// loses a fill.
fn small_cache_shape(records: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    // (The schema check has already refused a record without a key.)
    let get = |r: &Record, key| r.get(key).unwrap_or(f64::INFINITY);
    for r in records {
        for (key, bound) in [(SEQ_AMP, 1.1), (RAND_AMP, 1.1), (WRITE_AMP, 1.01)] {
            if get(r, key) > bound {
                return Err(format!(
                    "{}: {key} = {:.2} > {bound}",
                    r.system,
                    get(r, key)
                ));
            }
        }
        if get(r, PEAK_BUFFERS) > get(r, CACHE_ENTRIES) {
            return Err(format!(
                "{}: {} chunk buffers held in {} entries",
                r.system,
                get(r, PEAK_BUFFERS),
                get(r, CACHE_ENTRIES)
            ));
        }
        for key in [FILLS_LOST, EVICTED_UNREAD] {
            if get(r, key) != 0.0 {
                return Err(format!("{}: {key} = {}", r.system, get(r, key)));
            }
        }
        let big = records.iter().find(|b| {
            get(b, READERS) == get(r, READERS) && get(b, CACHE_ENTRIES) > get(r, CACHE_ENTRIES)
        });
        for (what, key, floor) in [
            ("sequential read", SEQ_MIB_S, 0.8),
            ("write + fsync", WRITE_MIB_S, WRITE_FLOOR),
        ] {
            let (small, big) = (get(r, key), big.map_or(0.0, |b| get(b, key)));
            if small < floor * big {
                return Err(format!(
                    "{}: {what} {small:.0} MiB/s < {floor} x {big:.0} MiB/s with the whole file \
                     cached",
                    r.system
                ));
            }
        }
    }
    Ok(())
}

/// The §1 row label of a journal window: "commit per op" at zero, else
/// the window, marked where it is the paper's 1 s.
fn window_label(window: Nanos) -> String {
    match window {
        0 => "commit per op".to_string(),
        SEC => "1s window (paper)".to_string(),
        w => format!("{}ms window", w / MSEC),
    }
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
/// — through caches of `entries` chunks: [`fio`]'s write + fsync and
/// sequential read, then a quarter of the file read at random on a
/// dropped cache. Returns the fleet and the record's measured keys: per
/// phase MiB/s and store bytes moved per user byte, and the most chunk
/// buffers a client cache held.
fn small_cache_fio(entries: usize, n: usize, mib: u64) -> (System, Vec<(&'static str, f64)>) {
    let config = ArkConfig {
        cache_entries: entries,
        ..ArkConfig::default()
    };
    let system = ark_fleet(n, config, true);
    let clients = &system.clients;
    let telemetry = system.telemetry().expect("ArkFS telemetry");
    let moved = |name| telemetry.registry.counter(name).get() as f64;
    let cfg = FioConfig {
        file_size: mib << 20,
        request_size: 128 * 1024,
    };
    // Whole-chunk writes read nothing: every store byte read is the
    // reads'; the reads write nothing but metadata.
    let written = moved("store.write.bytes");
    let seq = fio(clients, &cfg).expect("fio");
    let (written, seq_bytes) = (
        moved("store.write.bytes") - written,
        moved("store.read.bytes"),
    );
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
    let peak = telemetry.registry.gauge("cache.buffers.peak").get() as f64;
    let measured = vec![
        (WRITE_MIB_S, seq.write_mib_s()),
        (WRITE_AMP, written / seq.bytes as f64),
        (PEAK_BUFFERS, peak),
        (SEQ_MIB_S, seq.read_mib_s()),
        (SEQ_AMP, seq_bytes / seq.bytes as f64),
        (RAND_MIB_S, rand_user / (1 << 20) as f64 / rand_s),
        (
            RAND_AMP,
            (moved("store.read.bytes") - seq_bytes) / rand_user,
        ),
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
    //    entries in an in-memory transaction for 1 second"). Each row's
    //    label is made from the window it runs.
    let rows: Vec<Vec<String>> = [SEC, 100 * MSEC, 0]
        .into_iter()
        .map(|window| {
            let cfg = ArkConfig::default().with_journal_window(window);
            vec![
                window_label(window),
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
    // 4c. The writes of the same runs: a writer waiting for the PUT of
    //     every dirty chunk it evicts shows as a 6-entry write column far
    //     below the 256-entry one; dirty chunks queued for the store on
    //     top of the cache as more buffers held than entries.
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for (n, entries) in [(1, 6), (1, 256), (8, 6), (8, 256)] {
        let (system, mut given) = small_cache_fio(entries, n, run.scale.mib);
        system.no_lost_fills()?;
        given.extend([(READERS, n as f64), (CACHE_ENTRIES, entries as f64)]);
        let telemetry = system.telemetry();
        let sample = Sample {
            telemetry: telemetry.as_deref(),
            given: &given,
            ..Sample::default()
        };
        run.record("small-cache", &format!("ArkFS-C{n}-E{entries}"), &sample);
        let cell = |key, digits| {
            let (_, v) = given.iter().find(|(k, _)| *k == key).expect("measured");
            format!("{v:.digits$}")
        };
        let row = |cells: Vec<String>| [vec![n.to_string(), entries.to_string()], cells].concat();
        reads.push(row(vec![
            cell(SEQ_MIB_S, 0),
            cell(SEQ_AMP, 2),
            cell(RAND_MIB_S, 0),
            cell(RAND_AMP, 2),
        ]));
        writes.push(row(vec![
            cell(WRITE_MIB_S, 0),
            cell(PEAK_BUFFERS, 0),
            cell(WRITE_AMP, 2),
        ]));
    }
    let sizes = format!(
        "{} MiB per client, 2 MiB chunks, 128 KiB requests",
        run.scale.mib
    );
    run.table(
        OUT,
        &format!("Ablation: cache smaller than the file ({sizes})"),
        &[
            "clients",
            "cache entries",
            "seq MiB/s",
            "store B/B",
            "random MiB/s",
            "store B/B",
        ],
        &reads,
    );
    run.table(
        OUT,
        &format!("Ablation: cache smaller than the file, writes ({sizes})"),
        &[
            "clients",
            "cache entries",
            "write + fsync MiB/s",
            "peak buffers",
            "store B/B",
        ],
        &writes,
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

        // Fold the observability-layer loss counters into the registry
        // so the snapshot below is the one uniform view of everything
        // the stack recorded.
        cluster.telemetry().publish_ring_losses();
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

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row at `entries` that passes every check, but for `set`.
    fn row(entries: f64, set: &[(&str, f64)]) -> Record {
        let mut metrics = [
            (READERS, 8.0),
            (CACHE_ENTRIES, entries),
            (WRITE_MIB_S, 6700.0),
            (WRITE_AMP, 1.0),
            (PEAK_BUFFERS, entries.min(16.0)),
            (SEQ_MIB_S, 6400.0),
            (SEQ_AMP, 1.0),
            (RAND_MIB_S, 300.0),
            (RAND_AMP, 1.0),
            (FILLS_LOST, 0.0),
            (EVICTED_UNREAD, 0.0),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .to_vec();
        for &(key, v) in set {
            metrics.iter_mut().find(|(k, _)| k == key).expect("a key").1 = v;
        }
        Record {
            group: "small-cache".to_string(),
            system: format!("ArkFS-E{entries}"),
            metrics,
        }
    }

    #[test]
    fn the_shape_check_refuses_the_readahead_thrash() {
        // The `fio_seq` read numbers before read-ahead outlived what was
        // behind it, as 8-client rows.
        let big = row(256.0, &[]);
        let check = |small: Record| small_cache_shape(&[small, big.clone()], &[]);
        assert_eq!(check(row(6.0, &[])), Ok(()));
        for thrash in [
            row(6.0, &[(SEQ_MIB_S, 3300.0)]),
            row(6.0, &[(SEQ_AMP, 1.7)]),
            row(6.0, &[(RAND_AMP, 16.0)]),
            row(6.0, &[(EVICTED_UNREAD, 40.0)]),
        ] {
            assert!(check(thrash.clone()).is_err(), "{thrash:?}");
        }
    }

    #[test]
    fn the_shape_check_refuses_a_writer_waiting_for_its_evictions() {
        // Write + fsync MiB/s at 6 and 256 entries, 1 and 8 clients: a
        // writer that waits for the PUT of every dirty chunk it evicts,
        // then one whose dirty evictions go behind it.
        let rows = |clients: f64, small: f64, big: f64| {
            let at = |entries, mib_s| row(entries, &[(READERS, clients), (WRITE_MIB_S, mib_s)]);
            [at(6.0, small), at(256.0, big)]
        };
        for (clients, small, big) in [(1.0, 588.0, 3066.0), (8.0, 2468.0, 6729.0)] {
            assert!(small_cache_shape(&rows(clients, small, big), &[]).is_err());
        }
        for (clients, small, big) in [(1.0, 1549.0, 3066.0), (8.0, 4548.0, 6729.0)] {
            assert_eq!(small_cache_shape(&rows(clients, small, big), &[]), Ok(()));
        }
        // Dirty chunks queued on top of the cache, or written twice.
        for bad in [
            row(6.0, &[(PEAK_BUFFERS, 10.0)]),
            row(6.0, &[(WRITE_AMP, 2.0)]),
        ] {
            let big = row(256.0, &[]);
            assert!(
                small_cache_shape(&[bad.clone(), big], &[]).is_err(),
                "{bad:?}"
            );
        }
    }
}
