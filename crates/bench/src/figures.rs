//! The registry's rows: every figure and table of the paper's
//! evaluation (§IV) plus this repo's beyond-paper figures, rebuilt on
//! the simulated cluster. Absolute numbers differ from the AWS testbed;
//! shapes are the claim.

use crate::ablate;
use crate::fleet::{
    ark_cluster, ark_fleet, ark_fleet_s3, ceph_fleet, goofys_fleet, marfs_fleet, s3fs_fleet,
    sim_clients, zipf_create_fleet, System,
};
use crate::registry::{kops, Figure, Metric, Record, Run, Sample, Scale};
use arkfs::ArkConfig;
use arkfs_baselines::goofys::GOOFYS_READAHEAD;
use arkfs_baselines::MountType;
use arkfs_simkit::{ClusterSpec, ThroughputMeter};
use arkfs_telemetry::critpath;
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::client::barrier;
use arkfs_workloads::fio::{fio, FioConfig};
use arkfs_workloads::mdtest::{
    mdtest_easy, mdtest_hard, shared_dir_create, MdtestEasyConfig, MdtestHardConfig, MdtestResult,
};
use arkfs_workloads::tar::{archive_scenario, ArchiveConfig};
use arkfs_workloads::{run_ops, DatasetSpec, SimClient};
use std::sync::Arc;
use std::time::Instant;
use Metric::*;

const fn scale(files: u64, procs: usize, clients: usize) -> Scale {
    Scale {
        files,
        procs,
        clients,
        mib: 0,
        full: false,
    }
}

const fn full(files: u64, procs: usize, clients: usize) -> Scale {
    Scale {
        full: true,
        ..scale(files, procs, clients)
    }
}

fn no_shape(_: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    Ok(())
}

/// The client counts of a sweep, up to the scale's largest.
fn sweep(points: &[usize], run: &Run) -> Result<Vec<usize>, String> {
    let kept: Vec<usize> = points
        .iter()
        .copied()
        .filter(|&n| n <= run.scale.clients)
        .collect();
    match kept.is_empty() {
        true => Err(format!("ARKFS_BENCH_CLIENTS below {}", points[0])),
        false => Ok(kept),
    }
}

/// Every figure, in the order `regen` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1",
        claim: "Figure 1 — motivation: \"Scalability problem of a dedicated metadata server. \
                Massive file creations are performed while varying the number of clients up to \
                512. The dotted line indicates the ideal, linearly scalable performance.\" \
                CephFS-K with 1 MDS, mdtest-easy CREATE only, per-client private directories: \
                throughput collapses beyond 4 clients.",
        // `files` is per client; the paper's 1 M is reached at 512 clients.
        scale: scale(1000, 0, 512),
        full: full(2000, 0, 512),
        tables: &["fig1"],
        metrics: &[],
        run: fig1,
        shape: no_shape,
    },
    Figure {
        name: "fig4",
        claim: "Figure 4 — \"Throughput of mdtest-easy\": CREATE / STAT / DELETE of empty files, \
                16 processes, private leaf directories. ArkFS far ahead on every phase (up to \
                ~24.9× CephFS); CephFS-K > CephFS-F > MarFS; 16 MDS ≤ 2.41× of 1 MDS.",
        scale: scale(100_000, 16, 0),
        full: full(1_000_000, 16, 0),
        tables: &["fig4"],
        // ArkFS decouples ack from durability, so its records report
        // both sides of the pipeline; stat mutates nothing and has no
        // durable side. Baselines have neither histogram.
        metrics: &[
            Rate("create"),
            Rate("stat"),
            Rate("delete"),
            Latency("create"),
            Latency("stat"),
            Latency("delete"),
            Ack("create", "create"),
            Durable("create", "create"),
            Ack("stat", "stat"),
            Ack("delete", "unlink"),
            Durable("delete", "unlink"),
        ],
        run: fig4,
        shape: fig4_shape,
    },
    Figure {
        name: "fig5",
        claim: "Figure 5 — \"Throughput of mdtest-hard\": WRITE / STAT / READ / DELETE of \
                3901-byte files across a shared directory pool. ArkFS ahead everywhere but by \
                less than in mdtest-easy (shared dirs + small data I/O); up to 4.65× in READ; \
                MarFS errors out of the READ phase; CephFS-K 16 MDS ≈ 1 MDS with a DELETE \
                regression.",
        scale: scale(50_000, 16, 0),
        full: full(1_000_000, 16, 0),
        tables: &["fig5"],
        metrics: &[
            Rate("write"),
            Rate("stat"),
            Rate("read"),
            Rate("delete"),
            Given(READ_ERRORS),
            Latency("write"),
            Latency("stat"),
            Latency("read"),
            Latency("delete"),
        ],
        run: fig5,
        shape: fig5_shape,
    },
    Figure {
        name: "fig6",
        claim: "Figure 6 — \"Large File I/O Bandwidth\": sequential WRITE then READ with 128 KB \
                requests. (a) RADOS backend: ArkFS ≈ CephFS-K on WRITE and READ; CephFS-F READ \
                trails (128 KB max read-ahead). (b) S3 backend: ArkFS ~5.95× S3FS WRITE and \
                ~3.59× S3FS READ; goofys READ far ahead of ArkFS-ra8MB; ArkFS-ra400MB ≈ goofys. \
                File sizes are scaled from the paper's 32 GB/process; the virtual-time model \
                preserves bandwidth ratios.",
        scale: Scale {
            mib: 64,
            ..scale(0, 8, 0)
        },
        full: Scale {
            mib: 2048,
            ..full(0, 8, 0)
        },
        tables: &["fig6a", "fig6b"],
        metrics: &[
            Bandwidth("write"),
            Bandwidth("read"),
            Latency("write"),
            Latency("read"),
        ],
        run: fig6,
        shape: fig6_shape,
    },
    Figure {
        name: "fig7",
        claim: "Figure 7 — \"Scalability Test\": mdtest-easy file creation while varying the \
                number of clients up to 512, normalized throughput. ArkFS-pcache near-linear to \
                512 clients; ArkFS-no-pcache collapses as soon as clients > 1 (FUSE LOOKUP storm \
                on the near-root directory leaders, §III-C); CephFS-K (1 MDS) flat-lines; \
                CephFS-K (16 MDS) at most ~3.24× of 1 MDS beyond 64 clients.",
        // `files` is per client, as in fig1.
        scale: scale(500, 0, 512),
        full: full(2000, 0, 512),
        tables: &["fig7"],
        metrics: &[],
        run: fig7,
        shape: no_shape,
    },
    Figure {
        name: "fig8",
        claim: "Figure 8 — hot-directory sharding: CREATE throughput into ONE shared directory (a \
                million entries at full scale) under 64 writer processes, with the directory's \
                dentry space served by 1, 2 or 8 partition leaders. ops/s scales with the \
                partition count (acceptance floor: 8 partitions ≥ 3× 1 partition) because \
                independent creates commit through independent leaders, journal streams and \
                commit lanes.",
        scale: scale(100_000, 64, 0),
        full: full(1_000_000, 64, 0),
        tables: &["fig8"],
        metrics: &[
            Given(PARTITIONS),
            Rate("create"),
            Latency("create"),
            Ack("create", "create"),
            Durable("create", "create"),
            Counter(PARTITION_SPLITS, "meta.partition.split.count"),
            Counter("partition_handoffs", "meta.partition.handoff.count"),
            Counter("lease_handoff_failed", "lease.handoff_failed.count"),
            CritPath("create", false),
        ],
        run: fig8,
        shape: fig8_shape,
    },
    Figure {
        name: "fig9",
        claim: "Figure 9 — event-engine scaling curve: CREATE throughput and ack/durable tail \
                latency vs client count, 64 → 16384 simulated clients multiplexed on ONE host \
                thread by the discrete-event engine, with Zipf-skewed directory popularity \
                (s = 0.9 over 256 directories). Strong scaling: the total file count is fixed, \
                so the curve shows where adding clients stops buying throughput. ops/s climbs \
                while the metadata service has headroom, then hits a knee — a throughput plateau \
                and/or an ack-p99 inflection — as the hot directories' leaders saturate; the \
                per-point telemetry identifies which resource saturates there.",
        // CI caps the sweep at 1024 clients to keep the job short; the
        // committed baseline runs the full curve.
        scale: scale(131_072, 0, 16_384),
        full: full(1_000_000, 0, 16_384),
        tables: &["fig9"],
        metrics: &[
            Axis(CLIENTS),
            Rate("create"),
            Latency("create"),
            Ack("create", "create"),
            Durable("create", "create"),
            Counter("lease_acquires", "lease.acquire.count"),
            Counter("lease_retries", "lease.retry.count"),
            Counter(LEASE_REDIRECTS, "lease.redirect.count"),
            Counter(JOURNAL_FLIGHTS, "journal.flight.count"),
            Counter(PARTITION_SPLITS, "meta.partition.split.count"),
            Counter(DIR_VIEW_RPCS, "rpc.forward.dir_view.count"),
            Counter(MANAGER_VIEWS, "lease.redirect.view.count"),
            Given(LEADER_RPCS),
            Given(MANAGER_BUSY),
            Given(MANAGER_FORGOTTEN),
            // The knee attribution is computed from these.
            CritPath("create", true),
        ],
        run: fig9,
        shape: fig9_shape,
    },
    Figure {
        name: "table1",
        claim: "Table I — \"System configurations of public cloud cluster node\". The AWS \
                instances reduce to the simulation's cost-model constants, printed next to the \
                paper's hardware figures.",
        scale: scale(0, 0, 0),
        full: full(0, 0, 0),
        tables: &["table1"],
        metrics: &[],
        run: table1,
        shape: no_shape,
    },
    Figure {
        name: "table2",
        claim: "Table II — \"Execution times of two archiving scenarios on each file system\": \
                tar-based archiving and unarchiving of an MS-COCO-like dataset (§IV-D). ArkFS \
                fastest; speed-ups over CephFS-F / CephFS-K of 6.78× / 1.51× (archiving) and \
                3.76× / 1.76× (unarchiving); the EBS bandwidth floor limits the CephFS-K gap.",
        // `files` is dataset members per process; full scale is the
        // MS-COCO shape itself.
        scale: scale(3000, 8, 0),
        full: full(0, 8, 0),
        tables: &["table2"],
        metrics: &[],
        run: table2,
        shape: no_shape,
    },
    ablate::FIGURE,
];

/// The row named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

// Keys the runs below supply, or read back for their tables, by name.
const READ_ERRORS: &str = "read_errors";
const PARTITIONS: &str = "partitions";
const PARTITION_SPLITS: &str = "partition_splits";
const CLIENTS: &str = "clients";
const LEASE_REDIRECTS: &str = "lease_redirects";
const JOURNAL_FLIGHTS: &str = "journal_flights";
/// Path resolution's two sources of a directory view: fills asked of a
/// leader, and views a lease manager handed over with its redirect.
const DIR_VIEW_RPCS: &str = "dir_view_rpcs";
const MANAGER_VIEWS: &str = "views_from_manager";
/// Forwarded ops served by all leaders (`leader.served.count`) per
/// create: resolution, the create itself and its close.
const LEADER_RPCS: &str = "leader_rpcs_per_create";
/// The busiest lease manager's busy share of the create phase.
const MANAGER_BUSY: &str = "lease_manager_busy";
/// The busy time the managers' timelines dropped past their interval
/// bound (nonzero: the model served more first touches than they could).
const MANAGER_FORGOTTEN: &str = "lease_manager_forgotten_ns";

/// mdtest-easy CREATE throughput (ops/s) of `files_total` creates.
pub(crate) fn easy_create_rate(clients: &[Arc<dyn SimClient>], files_total: u64) -> f64 {
    let cfg = MdtestEasyConfig {
        files_total,
        create_only: true,
    };
    mdtest_easy(clients, &cfg).expect("mdtest-easy").phases[0].ops_per_sec()
}

fn fig1(run: &mut Run) -> Result<(), String> {
    let per_client = run.scale.files;
    let mut rows = Vec::new();
    let mut ideal_base = 0.0f64;
    for clients in sweep(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512], run)? {
        let system = ceph_fleet(clients, 1, MountType::Kernel, 64 * 1024, true);
        let tput = easy_create_rate(&system.clients, per_client * clients as u64);
        if clients == 1 {
            ideal_base = tput;
        }
        rows.push(vec![
            clients.to_string(),
            kops(tput),
            kops(ideal_base * clients as f64),
        ]);
        eprintln!("fig1: {clients} clients done ({} kops/s)", kops(tput));
    }
    run.table(
        "fig1",
        "Figure 1: CephFS-K (1 MDS) file creation scalability",
        &["clients", "kops/s", "ideal kops/s"],
        &rows,
    );
    Ok(())
}

/// fig4 and fig5: one mdtest workload over the five systems, each a
/// record and a table row of kops/s per phase.
fn mdtest_figure(
    run: &mut Run,
    group: &str,
    label: &str,
    workload: impl Fn(&System) -> MdtestResult,
) -> Result<(), String> {
    let Scale { files, procs, .. } = run.scale;
    let chunk = 64 * 1024;
    let systems = [
        ark_fleet(procs, ArkConfig::default(), true),
        ceph_fleet(procs, 1, MountType::Fuse, chunk, true),
        ceph_fleet(procs, 1, MountType::Kernel, chunk, true),
        ceph_fleet(procs, 16, MountType::Kernel, chunk, true),
        marfs_fleet(procs, chunk),
    ];
    trace_systems(run, &systems);
    let mut header = vec!["system".to_string()];
    let mut rows = Vec::new();
    for system in &systems {
        let result = workload(system);
        // Only mdtest-hard has a read phase, and only MarFS fails it.
        let read = result.phases.iter().position(|p| p.name == "read");
        let read_errors = read.map_or(0, |i| result.errors[i]);
        let telemetry = system.telemetry();
        let sample = Sample {
            phases: &result.phases,
            telemetry: telemetry.as_deref(),
            given: &[(READ_ERRORS, read_errors as f64)],
            ..Sample::default()
        };
        run.record(group, &system.name, &sample);
        let rec = run.records.last().expect("just recorded");
        let mut row = vec![system.name.clone()];
        row.extend(result.phases.iter().map(|p| kops(rec.rate(&p.name))));
        if let Some(i) = read.filter(|_| read_errors > 0) {
            row[1 + i] = format!("ERR({read_errors})");
        }
        rows.push(row);
        header.truncate(1);
        header.extend(result.phases.iter().map(|p| p.name.to_uppercase()));
        eprintln!("{}: {} done", run.fig.name, system.name);
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let title = format!("{label} throughput (kops/s, {files} files, {procs} procs)");
    run.table(run.fig.name, &title, &header, &rows);
    run.config = vec![("files", files as f64), ("procs", procs as f64)];
    Ok(())
}

/// Trace every system's deployment in full under `--trace`.
fn trace_systems(run: &mut Run, systems: &[System]) {
    for system in systems {
        if let Some(telemetry) = system.telemetry() {
            run.trace_on(&system.name, &telemetry, None);
        }
    }
}

fn fig4(run: &mut Run) -> Result<(), String> {
    let cfg = MdtestEasyConfig {
        files_total: run.scale.files,
        create_only: false,
    };
    mdtest_figure(run, "mdtest-easy", "Figure 4: mdtest-easy", |system| {
        mdtest_easy(&system.clients, &cfg).expect("mdtest-easy")
    })
}

fn fig5(run: &mut Run) -> Result<(), String> {
    let cfg = MdtestHardConfig {
        files_total: run.scale.files,
        dirs: 16,
        file_size: 3901,
        seed: 42,
    };
    mdtest_figure(run, "mdtest-hard", "Figure 5: mdtest-hard", |system| {
        mdtest_hard(&system.clients, &cfg).expect("mdtest-hard")
    })?;
    run.config.push(("file_size", cfg.file_size as f64));
    Ok(())
}

/// The record of system `name`.
fn system<'r>(records: &'r [Record], name: &str) -> Result<&'r Record, String> {
    (records.iter().find(|r| r.system == name)).ok_or_else(|| format!("no {name} record"))
}

/// Fails unless `lead` is ahead of each of `others` in every phase.
fn ahead(records: &[Record], lead: &str, others: &[&str], phases: &[&str]) -> Result<(), String> {
    let lead = system(records, lead)?;
    for other in others {
        for phase in phases {
            let (ours, theirs) = (lead.rate(phase), system(records, other)?.rate(phase));
            if ours <= theirs {
                return Err(format!(
                    "{} {phase} at {ours:.0} ops/s is not ahead of {other} ({theirs:.0})",
                    lead.system
                ));
            }
        }
    }
    Ok(())
}

/// §IV-B on mdtest-easy: ArkFS ahead of every system in every phase,
/// and CephFS-K ≥ CephFS-F ≥ MarFS per phase. With the paper's 16
/// processes, ArkFS's CREATE is also at least 24.86× CephFS-K's; with
/// fewer (CI runs 8, 13.4×) the ratio is lower, since ArkFS's creates
/// scale with its clients and one MDS's do not. The 16-MDS line's
/// ≤ 2.41× of 1 MDS is a recorded deviation (EXPERIMENTS.md), not
/// checked.
fn fig4_shape(records: &[Record], config: &[(&str, f64)]) -> Result<(), String> {
    let phases = ["create", "stat", "delete"];
    let others = ["CephFS-F", "CephFS-K", "CephFS-K (16 MDS)", "MarFS"];
    ahead(records, "ArkFS", &others, &phases)?;
    for pair in ["CephFS-K", "CephFS-F", "MarFS"].windows(2) {
        for phase in phases {
            let (hi, lo) = (system(records, pair[0])?, system(records, pair[1])?);
            if hi.rate(phase) < lo.rate(phase) {
                return Err(format!("{} {phase} is below {}", pair[0], pair[1]));
            }
        }
    }
    let procs = config.iter().find(|(k, _)| *k == "procs").map(|&(_, v)| v);
    let create =
        system(records, "ArkFS")?.rate("create") / system(records, "CephFS-K")?.rate("create");
    if procs == Some(16.0) && create < 24.86 {
        return Err(format!(
            "ArkFS CREATE is {create:.2}x CephFS-K, below 24.86x"
        ));
    }
    Ok(())
}

/// §IV-B on mdtest-hard: ArkFS ahead of CephFS-F and CephFS-K in every
/// phase, READ at most 4.65× CephFS-K's, and MarFS erring out of READ.
fn fig5_shape(records: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    let phases = ["write", "stat", "read", "delete"];
    ahead(records, "ArkFS", &["CephFS-F", "CephFS-K"], &phases)?;
    let read = system(records, "ArkFS")?.rate("read") / system(records, "CephFS-K")?.rate("read");
    if read > 4.65 {
        return Err(format!("ArkFS READ is {read:.2}x CephFS-K, above 4.65x"));
    }
    match system(records, "MarFS")?.get(READ_ERRORS) {
        Some(errors) if errors > 0.0 => Ok(()),
        _ => Err("MarFS READ must fail".to_string()),
    }
}

/// §IV-B on large files, as bounds on bandwidth ratios. (a) RADOS:
/// ArkFS within 1.25× of CephFS-K on WRITE and READ, CephFS-F READ
/// below a third of CephFS-K's. (b) S3: ArkFS-ra8MB at least 5.95× S3FS
/// on WRITE and 3.59× on READ, goofys READ above ArkFS-ra8MB's,
/// ArkFS-ra400MB READ at least goofys'.
fn fig6_shape(records: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    let mib = |name: &str, phase: &str| -> Result<f64, String> {
        let key = format!("{phase}_mib_s");
        (system(records, name)?.get(&key)).ok_or_else(|| format!("{name} has no {key}"))
    };
    let inf = f64::INFINITY;
    let bounds = [
        ("ArkFS", "CephFS-K", "write", 0.8..=1.25),
        ("ArkFS", "CephFS-K", "read", 0.8..=1.25),
        ("CephFS-F", "CephFS-K", "read", 0.0..=1.0 / 3.0),
        ("ArkFS-ra8MB", "S3FS", "write", 5.95..=inf),
        ("ArkFS-ra8MB", "S3FS", "read", 3.59..=inf),
        ("goofys", "ArkFS-ra8MB", "read", 1.0..=inf),
        ("ArkFS-ra400MB", "goofys", "read", 1.0..=inf),
    ];
    for (a, b, phase, bound) in bounds {
        let r = mib(a, phase)? / mib(b, phase)?;
        if !bound.contains(&r) {
            return Err(format!("{a} {phase} is {r:.2}x {b}, outside {bound:.2?}"));
        }
    }
    Ok(())
}

#[allow(clippy::field_reassign_with_default)]
fn fig6(run: &mut Run) -> Result<(), String> {
    let procs = run.scale.procs;
    let chunk = 512 * 1024;
    let cfg = FioConfig {
        file_size: run.scale.mib * 1024 * 1024,
        request_size: 128 * 1024,
    };
    let mut ark_cfg = ArkConfig::default();
    ark_cfg.chunk_size = chunk;
    ark_cfg.cache_entries = 256;
    let backends = [
        (
            "fig6a",
            "Figure 6(a): large-file bandwidth on RADOS",
            vec![
                ark_fleet(procs, ark_cfg, true),
                ceph_fleet(procs, 1, MountType::Kernel, chunk, true),
                ceph_fleet(procs, 1, MountType::Fuse, chunk, true),
            ],
        ),
        (
            "fig6b",
            "Figure 6(b): large-file bandwidth on S3",
            vec![
                ark_fleet_s3(procs, 8 * 1024 * 1024, chunk, true),
                ark_fleet_s3(procs, GOOFYS_READAHEAD, chunk, true),
                s3fs_fleet(procs, chunk, true),
                goofys_fleet(procs, chunk, GOOFYS_READAHEAD, true),
            ],
        ),
    ];
    for (stem, title, systems) in &backends {
        trace_systems(run, systems);
        let mut rows = Vec::new();
        for system in systems {
            let result = fio(&system.clients, &cfg).expect("fio");
            rows.push(vec![
                system.name.clone(),
                format!("{:.0}", result.write_mib_s()),
                format!("{:.0}", result.read_mib_s()),
            ]);
            let sample = Sample {
                phases: &[result.write, result.read],
                bytes: result.bytes,
                ..Sample::default()
            };
            run.record(stem, &system.name, &sample);
            system.no_lost_fills()?;
            eprintln!("fig6: {} done", system.name);
        }
        let mib = run.scale.mib;
        run.table(
            stem,
            &format!("{title} ({procs} procs, {mib} MiB files)"),
            &["system", "WRITE MiB/s", "READ MiB/s"],
            &rows,
        );
    }
    run.config = vec![
        ("procs", procs as f64),
        ("file_size", cfg.file_size as f64),
        ("request_size", cfg.request_size as f64),
    ];
    Ok(())
}

fn fig7(run: &mut Run) -> Result<(), String> {
    let per_client = run.scale.files;
    let scales = sweep(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512], run)?;
    type Builder = fn(usize) -> System;
    let builders: [(&str, Builder); 4] = [
        ("ArkFS-pcache", |n| ark_fleet(n, ArkConfig::default(), true)),
        ("ArkFS-no-pcache", |n| {
            ark_fleet(n, ArkConfig::default().with_permission_cache(false), true)
        }),
        ("CephFS-K (1 MDS)", |n| {
            ceph_fleet(n, 1, MountType::Kernel, 65536, true)
        }),
        ("CephFS-K (16 MDS)", |n| {
            ceph_fleet(n, 16, MountType::Kernel, 65536, true)
        }),
    ];
    let mut series: Vec<Vec<f64>> = Vec::new();
    for (label, builder) in builders {
        let mut points = Vec::new();
        for &n in &scales {
            let tput = easy_create_rate(&builder(n).clients, per_client * n as u64);
            points.push(tput);
            eprintln!("fig7: {label} @ {n} clients: {} kops/s", kops(tput));
        }
        series.push(points);
    }
    let header: Vec<&str> = ["clients"]
        .into_iter()
        .chain(builders.map(|b| b.0))
        .collect();
    // Raw throughput, then each series normalized to its own 1-client
    // run (the paper's log-scale Y axis).
    let rows_of = |cell: &dyn Fn(&[f64], usize) -> String| -> Vec<Vec<String>> {
        let row = |(i, n): (usize, &usize)| {
            let cells = series.iter().map(|points| cell(points, i));
            [n.to_string()].into_iter().chain(cells).collect()
        };
        scales.iter().enumerate().map(row).collect()
    };
    run.table(
        "fig7",
        &format!("Figure 7: create scalability, raw kops/s ({per_client} files/client)"),
        &header,
        &rows_of(&|points, i| kops(points[i])),
    );
    run.table(
        "fig7",
        "Figure 7: normalized throughput (each system vs its own 1-client run)",
        &header,
        &rows_of(&|points, i| format!("{:.2}", points[i] / points[0].max(f64::MIN_POSITIVE))),
    );
    Ok(())
}

/// Head-based sampling period of the causal tracer in fig8 and fig9:
/// every 64th op per client is traced end to end. Deterministic (a
/// modulus on the per-client op sequence, never a seeded RNG stream),
/// and tracing never advances virtual time, so the figures are
/// byte-identical with or without it.
const SAMPLE_EVERY: u64 = 64;

fn fig8(run: &mut Run) -> Result<(), String> {
    let Scale { files, procs, .. } = run.scale;
    let ctx = Credentials::root();
    let mut rows = Vec::new();
    for pcount in [1u32, 2, 8] {
        let cluster = ark_cluster(ArkConfig::default(), true);
        let tel = Arc::clone(cluster.telemetry());
        let system = format!("ArkFS-P{pcount}");
        run.trace_on(&system, &tel, Some(SAMPLE_EVERY));
        let admin = cluster.client();
        admin.mkdir(&ctx, "/shared", 0o755).unwrap();
        admin.sync_all(&ctx).unwrap();
        if pcount > 1 {
            admin.set_dir_partitions(&ctx, "/shared", pcount).unwrap();
        }
        // Hand every lease back so partition leadership lands on the
        // writers that first touch each partition, not on the admin.
        admin.release_all(&ctx).unwrap();
        let clients = sim_clients(&cluster, procs);
        let result = shared_dir_create(&clients, "/shared", files).expect("shared-dir create");
        assert_eq!(result.errors[0], 0, "shared-dir creates failed");
        let sample = Sample {
            phases: &result.phases,
            telemetry: Some(&tel),
            given: &[(PARTITIONS, pcount as f64)],
            ..Sample::default()
        };
        run.record("shared-dir-create", &system, &sample);
        let ops_s = result.phases[0].ops_per_sec();
        let durable = tel.registry.histogram("op.create.durable_ns").snapshot();
        rows.push(vec![
            pcount.to_string(),
            kops(ops_s),
            result.phases[0].latency_p99.to_string(),
            durable.quantile(0.99).to_string(),
        ]);
        eprintln!(
            "fig8: {pcount} partition(s) done ({:.1} kops/s)",
            ops_s / 1000.0
        );
    }
    let speedup8 = fig8_speedup(&run.records);
    run.table(
        "fig8",
        &format!(
            "Figure 8: shared-directory create vs partition count ({files} files, {procs} writers)"
        ),
        &[
            "partitions",
            "CREATE kops/s",
            "ack p99 ns",
            "durable p99 ns",
        ],
        &rows,
    );
    run.line(
        "fig8",
        format!("8-partition speedup over 1 partition: {speedup8:.2}x"),
    );
    run.config = vec![
        ("files", files as f64),
        ("procs", procs as f64),
        ("speedup_8p_vs_1p", speedup8),
    ];
    Ok(())
}

/// CREATE throughput at 8 partitions over 1 partition.
fn fig8_speedup(records: &[Record]) -> f64 {
    let at = |p: f64| records.iter().find(|r| r.get(PARTITIONS) == Some(p));
    match (at(1.0), at(8.0)) {
        (Some(one), Some(eight)) => eight.rate("create") / one.rate("create"),
        _ => 0.0,
    }
}

fn fig8_shape(records: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    let speedup8 = fig8_speedup(records);
    match speedup8 >= 3.0 {
        true => Ok(()),
        false => Err(format!(
            "8 partitions must be >= 3x of 1 partition (got {speedup8:.2}x)"
        )),
    }
}

const ZIPF_DIRS: usize = 256;
const ZIPF_S: f64 = 0.9;
const ZIPF_SEED: u64 = 0xF19;

/// One point of fig9's curve: records the point and returns the busiest
/// leader's (ops served, busy share of the makespan).
fn fig9_point(run: &mut Run, n_clients: usize) -> (u64, f64) {
    let ctx = Credentials::root();
    let cluster = ark_cluster(ArkConfig::default(), true);
    let tel = cluster.telemetry();
    tel.tracer.set_sample_every(SAMPLE_EVERY);
    tel.tracer.set_enabled(true);

    let per_client = (run.scale.files / n_clients as u64).max(1);
    let (ark_clients, gens) = zipf_create_fleet(
        &cluster, ZIPF_DIRS, ZIPF_S, ZIPF_SEED, n_clients, per_client,
    );
    let clients: Vec<Arc<dyn SimClient>> = ark_clients.iter().map(|c| Arc::clone(c) as _).collect();

    let meter = ThroughputMeter::new();
    let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
    let host_t0 = Instant::now();
    let report = run_ops(&clients, gens, Some(&meter));
    let host_secs = host_t0.elapsed().as_secs_f64();
    assert_eq!(report.total_errors(), 0, "zipf creates failed");
    // Leader service over the create phase proper, before the closing
    // `sync_all`s add their barrier RPCs.
    let leader_rpcs = tel.registry.counter("leader.served.count").get();
    let makespan = clients.iter().map(|c| c.port().now()).max().unwrap_or(0)
        - starts.iter().copied().min().unwrap_or(0);
    let busy_share = |busy_ns: u64| busy_ns as f64 / makespan.max(1) as f64;
    let (hot_served, hot_busy_ns) =
        (ark_clients.iter().map(|c| c.leader_stats()).max()).unwrap_or((0, 0));
    let manager_stats = cluster.manager_stats();
    let manager_busy_ns = manager_stats.iter().map(|m| m.1).max().unwrap_or(0);
    let manager_forgotten_ns: u64 = manager_stats.iter().map(|m| m.2).sum();
    for (i, c) in clients.iter().enumerate() {
        let _ = c.sync_all(&ctx);
        meter.record_span(per_client, starts[i], c.port().now());
    }
    barrier(&clients);
    let phase = meter.finish("create");
    // Host time goes to stderr only, so the artifacts stay deterministic.
    eprintln!(
        "fig9: {n_clients} clients: {} kops/s virtual, {} creates in {host_secs:.1}s host \
         ({:.0} steps/s on one thread)",
        kops(phase.ops_per_sec()),
        phase.ops,
        phase.ops as f64 / host_secs.max(1e-9),
    );
    let sample = Sample {
        phases: std::slice::from_ref(&phase),
        telemetry: Some(tel),
        given: &[
            (CLIENTS, n_clients as f64),
            (LEADER_RPCS, leader_rpcs as f64 / phase.ops.max(1) as f64),
            (MANAGER_BUSY, busy_share(manager_busy_ns)),
            (MANAGER_FORGOTTEN, manager_forgotten_ns as f64),
        ],
        ..Sample::default()
    };
    run.record("zipf-create", &format!("ArkFS-C{n_clients}"), &sample);
    (hot_served, busy_share(hot_busy_ns))
}

/// First index k where the curve knees between point k and k+1: the
/// ack p99 inflects (>= 1.3x) or throughput stops growing (< 1.10x).
fn knee_index(points: &[Record]) -> Option<usize> {
    points.windows(2).position(|w| {
        let p99_ratio = w[1].p99("create", "") / w[0].p99("create", "").max(1.0);
        let tput_ratio = w[1].rate("create") / w[0].rate("create").max(f64::MIN_POSITIVE);
        p99_ratio >= 1.3 || tput_ratio < 1.10
    })
}

/// Each critical-path segment's share of the point's mean ack latency,
/// and that mean.
fn critpath_shares(point: &Record) -> (Vec<f64>, f64) {
    let (segs, total) = point.critpath("create").unwrap_or_default();
    let share = |seg: f64| if total > 0.0 { seg / total } else { 0.0 };
    (segs.into_iter().map(share).collect(), total)
}

fn fig9(run: &mut Run) -> Result<(), String> {
    let files_total = run.scale.files;
    let scales = sweep(&[64, 256, 1024, 4096, 16_384], run)?;
    let hot_leaders: Vec<(u64, f64)> = scales.iter().map(|&n| fig9_point(run, n)).collect();
    let points = run.records.clone();
    let given = |p: &Record, key| p.get(key).unwrap_or(0.0);
    let rows: Vec<Vec<String>> = (points.iter())
        .map(|p| {
            vec![
                given(p, CLIENTS).to_string(),
                kops(p.rate("create")),
                p.p99("create", "").to_string(),
                p.p99("create", "durable_").to_string(),
                given(p, LEASE_REDIRECTS).to_string(),
                given(p, DIR_VIEW_RPCS).to_string(),
                given(p, MANAGER_VIEWS).to_string(),
                format!("{:.2}", given(p, LEADER_RPCS)),
                format!("{:.1}", 100.0 * given(p, MANAGER_BUSY)),
                given(p, JOURNAL_FLIGHTS).to_string(),
                given(p, PARTITION_SPLITS).to_string(),
            ]
        })
        .collect();
    run.table(
        "fig9",
        &format!(
            "Figure 9: Zipf(s={ZIPF_S}) create scaling over {ZIPF_DIRS} dirs \
             ({files_total} files total, event engine, one host thread)"
        ),
        &[
            "clients",
            "CREATE kops/s",
            "ack p99 ns",
            "durable p99 ns",
            "lease redirects",
            "dir_view rpcs",
            "views from manager",
            "leader rpcs/create",
            "busiest mgr busy %",
            "journal flights",
            "partition splits",
        ],
        &rows,
    );
    // Where the remaining queue is: the busiest leader of each point.
    for (p, (served, busy)) in points.iter().zip(hot_leaders) {
        let clients = given(p, CLIENTS);
        run.line(
            "fig9",
            format!(
                "hottest leader @{clients} clients: served {served} forwarded ops, busy {:.1}% of the makespan",
                100.0 * busy
            ),
        );
    }
    if let Some(k) = knee_index(&points) {
        let (pre, post) = (&points[k], &points[k + 1]);
        // Which pipeline segment saturated at the knee: the one whose
        // *share* of the mean ack latency grew the most across it. The
        // attribution comes from real sampled span graphs, not counter
        // heuristics — a segment can only win if traced ops actually
        // spent more of their ack time in it.
        let (before, after) = (critpath_shares(pre).0, critpath_shares(post).0);
        let growth = |i: usize| after[i] - before[i];
        let mut winner = 0;
        for i in 1..critpath::SEGMENTS.len() {
            if growth(i) > growth(winner) {
                winner = i;
            }
        }
        run.line(
            "fig9",
            format!(
                "knee between {} and {} clients: ack p99 {} -> {} ns, \
                 {:.2} kops/s -> {:.2} kops/s; critical path shifted into: \
                 {} (+{:.1} pp of mean ack latency)",
                given(pre, CLIENTS),
                given(post, CLIENTS),
                pre.p99("create", ""),
                post.p99("create", ""),
                pre.rate("create") / 1000.0,
                post.rate("create") / 1000.0,
                critpath::SEGMENTS[winner],
                growth(winner) * 100.0,
            ),
        );
        for p in &points {
            let (shares, total) = critpath_shares(p);
            let parts: Vec<String> = (critpath::SEGMENTS.iter().zip(shares))
                .map(|(seg, share)| format!("{seg} {:.1}%", 100.0 * share))
                .collect();
            let clients = given(p, CLIENTS);
            run.line(
                "fig9",
                format!(
                    "critpath @{clients} clients (mean ack {total:.0} ns): {}",
                    parts.join(", ")
                ),
            );
        }
    }
    run.config = vec![
        ("files", files_total as f64),
        ("dirs", ZIPF_DIRS as f64),
        ("zipf_s", ZIPF_S),
        ("seed", ZIPF_SEED as f64),
    ];
    Ok(())
}

/// The full curve must show a measurable knee (a sweep capped below
/// 4096 clients, as in CI, is too short to have one) and keep what
/// manager-served views bought the points past it (floors measured at
/// the committed file count: 619 and 449 kops/s).
fn fig9_shape(records: &[Record], _: &[(&str, f64)]) -> Result<(), String> {
    let largest = records.last().and_then(|r| r.get(CLIENTS)).unwrap_or(0.0);
    if largest >= 4096.0 && knee_index(records).is_none() {
        return Err(
            "no knee found — neither an ack-p99 inflection (>=1.3x) nor a throughput \
                    plateau (<1.10x growth) between consecutive scales"
                .to_string(),
        );
    }
    for (clients, floor) in [(4096.0, 560.0), (16_384.0, 400.0)] {
        let point = records.iter().find(|r| r.get(CLIENTS) == Some(clients));
        if let Some(kops) = point.map(|p| p.rate("create") / 1000.0) {
            if kops < floor {
                return Err(format!(
                    "{kops:.1} kops/s at {clients} clients, below the floor of {floor}"
                ));
            }
        }
    }
    Ok(())
}

fn table1(run: &mut Run) -> Result<(), String> {
    let pair = |(k, v): (&str, String)| vec![k.to_string(), v];
    let rows: Vec<Vec<String>> = ClusterSpec::aws_paper()
        .rows()
        .into_iter()
        .map(pair)
        .collect();
    run.table(
        "table1",
        "Table I (simulated): cost-model constants standing in for the AWS testbed",
        &["parameter", "value"],
        &rows,
    );
    let paper = [
        ("instances", "c5a.8xlarge clients / c5n.9xlarge storage"),
        ("vCPU", "32 / 36"),
        ("memory", "64 GB / 96 GB DDR4"),
        ("network", "10 Gbit / 50 Gbit"),
        ("disk", "EBS 32 GB / EBS 128 GB x 4"),
        ("storage nodes", "16 (64 OSDs)"),
    ];
    let rows: Vec<Vec<String>> = paper
        .into_iter()
        .map(|(k, v)| pair((k, v.to_string())))
        .collect();
    run.table(
        "table1",
        "Table I (paper): AWS configuration",
        &["item", "value"],
        &rows,
    );
    Ok(())
}

#[allow(clippy::field_reassign_with_default)]
fn table2(run: &mut Run) -> Result<(), String> {
    let procs = run.scale.procs;
    // Scaled dataset: same distribution shape; EBS bandwidth scaled so
    // the EBS floor keeps the paper's share of total runtime.
    let cfg = match run.scale.full {
        true => ArchiveConfig::default(),
        false => ArchiveConfig {
            dataset: DatasetSpec::scaled(run.scale.files as usize, 16 * 1024, 0xC0C0),
            ebs_bw: 100_000_000,
        },
    };
    let chunk = 512 * 1024;
    let mut ark_cfg = ArkConfig::default();
    ark_cfg.chunk_size = chunk;
    ark_cfg.cache_entries = 64;
    let systems = [
        ceph_fleet(procs, 1, MountType::Fuse, chunk, false),
        ceph_fleet(procs, 1, MountType::Kernel, chunk, false),
        ark_fleet(procs, ark_cfg, false),
    ];
    let mut results = Vec::new();
    for system in &systems {
        let r = archive_scenario(&system.clients, &cfg).expect("archive scenario");
        system.no_lost_fills()?;
        eprintln!(
            "table2: {}: archive {:.1}s unarchive {:.1}s",
            system.name,
            r.archive_secs(),
            r.unarchive_secs()
        );
        results.push(r);
    }
    let row = |scenario: &str, secs: &dyn Fn(usize) -> f64| {
        vec![
            scenario.to_string(),
            format!("{:.1}", secs(0)),
            format!("{:.1}", secs(1)),
            format!("{:.1}", secs(2)),
            format!("{:.2}x / {:.2}x", secs(0) / secs(2), secs(1) / secs(2)),
        ]
    };
    run.table(
        "table2",
        &format!(
            "Table II: archiving scenarios ({procs} procs, {:.0} MB dataset total)",
            results[2].dataset_bytes as f64 / 1e6
        ),
        &["scenario", "CephFS-F", "CephFS-K", "ArkFS", "Speed-up"],
        &[
            row("Archiving (s)", &|i| results[i].archive_secs()),
            row("Unarchiving (s)", &|i| results[i].unarchive_secs()),
        ],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{check_bench, Shape};
    use arkfs_simkit::PhaseResult;
    use arkfs_telemetry::Telemetry;

    const TINY: Scale = Scale {
        mib: 1,
        ..scale(16, 2, 64)
    };

    /// The row without its shape check: claimed shapes need the
    /// committed scales, the schema does not.
    fn unshaped(fig: &Figure) -> Figure {
        Figure {
            shape: no_shape,
            ..*fig
        }
    }

    #[test]
    fn every_row_runs_and_emits_exactly_what_it_declares() {
        for fig in FIGURES {
            let mut run = Run::new(fig, TINY, None);
            (fig.run)(&mut run).unwrap_or_else(|e| panic!("{}: {e}", fig.name));
            let stems: Vec<&str> = run.tables.iter().map(|(stem, _)| *stem).collect();
            assert_eq!(stems, fig.tables, "{}", fig.name);
            assert_eq!(
                run.records.is_empty(),
                fig.metrics.is_empty(),
                "{}",
                fig.name
            );
            if !fig.metrics.is_empty() {
                check_bench(&[unshaped(fig)], &run.bench_json())
                    .unwrap_or_else(|e| panic!("{}: {e}", fig.name));
            }
        }
    }

    #[test]
    fn a_new_metric_is_one_more_entry_in_the_row() {
        let fig8 = unshaped(figure("fig8").unwrap());
        let mut metrics = fig8.metrics.to_vec();
        metrics.push(Counter("lease_acquires", "lease.acquire.count"));
        let extended = Figure {
            metrics: metrics.leak(),
            ..fig8
        };
        let mut run = Run::new(&extended, TINY, None);
        (extended.run)(&mut run).unwrap();
        let doc = run.bench_json();
        assert!(doc.contains("\"lease_acquires\": "));
        assert_eq!(check_bench(&[extended], &doc), Ok(()));
        let err = check_bench(&[fig8], &doc).unwrap_err();
        assert_eq!(err, "results[0] (ArkFS-P1): unknown key lease_acquires");
    }

    /// One record per row, its values under `keys`, with `edit`'s
    /// (system, key, value) replacing one of them: a broken claim.
    fn records(keys: &[&str], rows: &[(&str, &[f64])], edit: (&str, &str, f64)) -> Vec<Record> {
        let rec = |&(system, values): &(&str, &[f64])| Record {
            group: "shape".to_string(),
            system: system.to_string(),
            metrics: (keys.iter().zip(values))
                .map(|(&key, &v)| match (system, key) == (edit.0, edit.1) {
                    true => (key.to_string(), edit.2),
                    false => (key.to_string(), v),
                })
                .collect(),
        };
        rows.iter().map(rec).collect()
    }

    /// `shape` holds on `rows` and refuses each edit with its message.
    fn refuses(
        shape: Shape,
        keys: &[&str],
        rows: &[(&str, &[f64])],
        broken: &[(&str, &str, f64, &str)],
    ) {
        let config = [("procs", 16.0)];
        assert_eq!(shape(&records(keys, rows, ("", "", 0.0)), &config), Ok(()));
        for &(system, key, value, want) in broken {
            let err = shape(&records(keys, rows, (system, key, value)), &config).unwrap_err();
            assert!(err.contains(want), "{system} {key}={value}: {err}");
        }
    }

    #[test]
    fn fig4_shape_refuses_each_broken_claim() {
        let keys = ["create_ops_s", "stat_ops_s", "delete_ops_s"];
        let rows: &[(&str, &[f64])] = &[
            ("ArkFS", &[416.9, 421.1, 419.8]),
            ("CephFS-F", &[5.56, 10.42, 10.42]),
            ("CephFS-K", &[13.02, 13.02, 13.02]),
            ("CephFS-K (16 MDS)", &[45.87, 41.69, 48.42]),
            ("MarFS", &[5.11, 4.87, 4.87]),
        ];
        let broken = [
            ("ArkFS", "stat_ops_s", 40.0, "ahead of CephFS-K (16"),
            ("CephFS-K", "delete_ops_s", 10.0, "delete is below CephFS-F"),
            ("MarFS", "create_ops_s", 6.0, "create is below MarFS"),
            ("ArkFS", "create_ops_s", 300.0, "CREATE is 23.04x"),
        ];
        refuses(fig4_shape, &keys, rows, &broken);
        // With fewer processes than the paper's 16 the ratio is not checked.
        let fewer = records(&keys, rows, ("ArkFS", "create_ops_s", 300.0));
        assert_eq!(fig4_shape(&fewer, &[("procs", 8.0)]), Ok(()));
    }

    #[test]
    fn fig5_shape_refuses_each_broken_claim() {
        let keys = [
            "write_ops_s",
            "stat_ops_s",
            "read_ops_s",
            "delete_ops_s",
            READ_ERRORS,
        ];
        let rows: &[(&str, &[f64])] = &[
            ("ArkFS", &[27.0, 109.0, 42.0, 45.0, 0.0]),
            ("CephFS-F", &[4.0, 10.0, 5.0, 10.0, 0.0]),
            ("CephFS-K", &[5.0, 13.0, 14.0, 14.0, 0.0]),
            ("MarFS", &[1.0, 5.0, 5.0, 5.0, 1.0]),
        ];
        let broken = [
            ("ArkFS", "write_ops_s", 4.0, "write at 4 ops/s"),
            ("ArkFS", "read_ops_s", 14.0, "not ahead of CephFS-K"),
            ("ArkFS", "read_ops_s", 70.0, "READ is 5.00x"),
            ("MarFS", READ_ERRORS, 0.0, "MarFS READ must fail"),
        ];
        refuses(fig5_shape, &keys, rows, &broken);
    }

    #[test]
    fn fig6_shape_refuses_each_broken_claim() {
        let keys = ["write_mib_s", "read_mib_s"];
        let rows: &[(&str, &[f64])] = &[
            ("ArkFS", &[10128.0, 20971.0]),
            ("CephFS-K", &[11485.0, 19885.0]),
            ("CephFS-F", &[6582.0, 3077.0]),
            ("ArkFS-ra8MB", &[3644.0, 2321.0]),
            ("ArkFS-ra400MB", &[3644.0, 10117.0]),
            ("S3FS", &[420.0, 428.0]),
            ("goofys", &[147.0, 6812.0]),
        ];
        let broken = [
            ("ArkFS", "write_mib_s", 15000.0, "write is 1.31x CephFS-K"),
            ("ArkFS", "read_mib_s", 15000.0, "read is 0.75x CephFS-K"),
            ("CephFS-F", "read_mib_s", 7000.0, "read is 0.35x CephFS-K"),
            ("ArkFS-ra8MB", "write_mib_s", 2400.0, "write is 5.71x S3FS"),
            ("ArkFS-ra8MB", "read_mib_s", 1500.0, "read is 3.50x S3FS"),
            ("goofys", "read_mib_s", 2000.0, "is 0.86x ArkFS-ra8MB"),
            ("ArkFS-ra400MB", "read_mib_s", 6000.0, "is 0.88x goofys"),
        ];
        refuses(fig6_shape, &keys, rows, &broken);
    }

    /// A valid two-point fig9 document from synthetic measurements.
    fn fig9_doc() -> String {
        let tel = Telemetry::new();
        let mut run = Run::new(figure("fig9").unwrap(), TINY, None);
        for clients in [64.0, 256.0] {
            let phase = PhaseResult {
                name: "create".to_string(),
                ops: clients as u64,
                makespan: 1_000_000,
                latency_mean: 12.0,
                latency_p50: 10,
                latency_p90: 15,
                latency_p99: 20,
                latency_p999: 25,
                latency_max: 30,
            };
            let sample = Sample {
                phases: &[phase],
                telemetry: Some(&tel),
                given: &[
                    (CLIENTS, clients),
                    (LEADER_RPCS, 1.0),
                    (MANAGER_BUSY, 0.5),
                    (MANAGER_FORGOTTEN, 0.0),
                ],
                ..Sample::default()
            };
            run.record("zipf-create", &format!("ArkFS-C{clients}"), &sample);
        }
        run.bench_json()
    }

    #[test]
    fn check_rejects_malformed_documents_naming_the_record() {
        let doc = fig9_doc();
        assert_eq!(check_bench(FIGURES, &doc), Ok(()));
        let reject = |from: &str, to: &str, want: &str| {
            assert!(doc.contains(from), "fixture lost {from}");
            let err = check_bench(FIGURES, &doc.replacen(from, to, 1)).unwrap_err();
            assert!(err.starts_with(want), "{from} -> {to}: {err}");
        };
        let (first, second) = ("results[0] (ArkFS-C64): ", "results[1] (ArkFS-C256): ");
        let missing = format!("{first}missing key lease_retries");
        reject("\"lease_retries\": 0, ", "", &missing);
        let unknown = format!("{second}unknown key bogus");
        reject(
            "\"clients\": 256",
            "\"bogus\": 1, \"clients\": 256",
            &unknown,
        );
        let unordered =
            format!("{first}percentiles unordered: create_p50_ns=25 > create_p99_ns=20");
        reject("\"create_p50_ns\": 10", "\"create_p50_ns\": 25", &unordered);
        let partial = format!("{first}missing key create_cp_total_ns (6 of its group of 7");
        reject(", \"create_cp_total_ns\": 0", "", &partial);
        let oversum = format!("{first}segments sum to 5 > create_cp_total_ns=0");
        reject(
            "\"create_cp_store_io_ns\": 0",
            "\"create_cp_store_io_ns\": 5",
            &oversum,
        );
        let half = format!("{second}missing key create_ack_p99_ns (1 of its group of 2");
        reject(
            "\"clients\": 256",
            "\"create_ack_p50_ns\": 1, \"clients\": 256",
            &half,
        );
        let null = format!("{first}lease_manager_busy is not a number");
        reject(
            "\"lease_manager_busy\": 0.5",
            "\"lease_manager_busy\": null",
            &null,
        );
        let negative = format!("{first}lease_manager_busy=-1 is negative");
        reject(
            "\"lease_manager_busy\": 0.5",
            "\"lease_manager_busy\": -1",
            &negative,
        );
        let axis = "results[1]: clients must be strictly increasing (64 after 64)";
        reject("\"clients\": 256", "\"clients\": 64", axis);
        reject(
            "\"schema\": 4",
            "\"schema\": 3",
            "schema version Some(3.0), expected 4",
        );
        reject(
            "\"bench\": \"fig9\"",
            "\"bench\": \"fig3\"",
            "unknown bench 'fig3'",
        );
        // A curve that reaches 4096 clients must have a knee: here
        // the p99 does not move and throughput keeps growing 4x.
        let flat = doc.replace("\"clients\": 256", "\"clients\": 4096");
        let err = check_bench(FIGURES, &flat).unwrap_err();
        assert!(err.starts_with("shape: no knee found"), "{err}");
        // With a knee (a plateau at 64 -> 65 kops/s) it must also hold
        // the floor manager-served views reached at 4096 clients.
        assert!(flat.contains("\"create_ops_s\": 256000"), "{flat}");
        let slow = flat.replace("\"create_ops_s\": 256000", "\"create_ops_s\": 65000");
        let err = check_bench(FIGURES, &slow).unwrap_err();
        assert!(
            err.starts_with("shape: 65.0 kops/s at 4096 clients"),
            "{err}"
        );
    }
}
