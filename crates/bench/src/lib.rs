//! Shared harness for the figure/table regeneration binaries.
//!
//! Each binary (`fig1`, `fig4`, `fig5`, `fig6`, `fig7`, `table1`,
//! `table2`) rebuilds one piece of the paper's evaluation (§IV) on the
//! simulated cluster and prints the same rows/series the paper reports.
//! Absolute numbers differ from the AWS testbed; shapes are the claim.
//!
//! Scale knobs (environment variables):
//! * `ARKFS_BENCH_FILES` — total mdtest files (default scaled down from
//!   the paper's 1 M).
//! * `ARKFS_BENCH_PROCS` — mdtest/fio process count.
//! * `ARKFS_BENCH_FULL=1` — paper-scale parameters (slow, memory-heavy).

use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_baselines::pathfs::Bucket;
use arkfs_baselines::{CephFs, GoofysFs, MarFs, MountType, S3Fs};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::{ClusterSpec, PhaseResult};
use arkfs_telemetry::{critpath, merged_chrome_trace, Telemetry, Tracer};
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::{gen_iter, Op, OpGen, SimClient, Zipf};
use std::sync::Arc;

/// Version of the `BENCH_*.json` document layout. Consumers should
/// reject documents with an unknown version; purely additive metric
/// fields do not bump it. v3 adds critical-path attribution metrics
/// (`<phase>_cp_<segment>_ns`, from the causal tracing layer) to
/// benches that run traced. v4 adds fig9's required
/// `leader_rpcs_per_create`.
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// A named fleet of clients of one file system under test.
pub struct System {
    pub name: String,
    pub clients: Vec<Arc<dyn SimClient>>,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Total mdtest file count (paper: 1 000 000).
pub fn bench_files(default: u64) -> u64 {
    if std::env::var("ARKFS_BENCH_FULL").is_ok() {
        return 1_000_000;
    }
    env_usize("ARKFS_BENCH_FILES", default as usize) as u64
}

/// Benchmark process count (paper: 16 for mdtest, 32 for fio).
pub fn bench_procs(default: usize) -> usize {
    env_usize("ARKFS_BENCH_PROCS", default)
}

/// Build an ArkFS fleet on a fresh RADOS-profile store.
pub fn ark_fleet(n: usize, config: ArkConfig, discard_payload: bool) -> System {
    let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(discard_payload);
    let store = Arc::new(ObjectCluster::new(store_cfg));
    let cluster = ArkCluster::new(config.clone(), store);
    let name = if config.permission_cache {
        "ArkFS"
    } else {
        "ArkFS-no-pcache"
    };
    System {
        name: name.to_string(),
        clients: (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect(),
    }
}

/// The fig9 workload on `cluster`: an admin makes the pool `/zipf/d*` of
/// `dirs` directories and hands every lease back, so leadership lands on
/// whichever writer touches a directory first; then `n` clients, and for
/// client `i` a stream of `per_client` creates whose directory is drawn
/// Zipf(`s`) from the pool.
pub fn zipf_create_fleet(
    cluster: &Arc<ArkCluster>,
    dirs: usize,
    s: f64,
    seed: u64,
    n: usize,
    per_client: u64,
) -> (Vec<Arc<ArkClient>>, Vec<Box<dyn OpGen>>) {
    let ctx = Credentials::root();
    let admin = cluster.client();
    admin.mkdir(&ctx, "/zipf", 0o755).expect("mkdir /zipf");
    for d in 0..dirs {
        admin
            .mkdir(&ctx, &format!("/zipf/d{d}"), 0o755)
            .expect("mkdir pool dir");
    }
    admin.sync_all(&ctx).expect("admin sync_all");
    admin.release_all(&ctx).expect("admin release_all");
    let clients = (0..n).map(|_| cluster.client()).collect();
    let gens = (0..n)
        .map(|i| {
            let mut zipf = Zipf::new(dirs, s, seed ^ (i as u64).wrapping_mul(0x9E37));
            gen_iter((0..per_client).map(move |j| Op::Create {
                path: format!("/zipf/d{}/c{i}-f{j}", zipf.sample()),
            }))
        })
        .collect();
    (clients, gens)
}

/// ArkFS on an S3-profile store (Figure 6b), with a configurable
/// read-ahead limit.
pub fn ark_fleet_s3(n: usize, max_readahead: u64, chunk: u64, discard: bool) -> System {
    let mut config = ArkConfig::default().with_max_readahead(max_readahead);
    config.chunk_size = chunk;
    // Page-cache-equivalent sizing: hold a whole fio file plus the
    // read-ahead window ("ArkFS also uses its data cache in the same
    // way [as the kernel page cache]", §IV-B).
    config.cache_entries = ((max_readahead / chunk) as usize + 32).max(256);
    let store_cfg = ClusterConfig::s3(config.spec.clone()).with_discard_payload(discard);
    let store = Arc::new(ObjectCluster::new(store_cfg));
    let cluster = ArkCluster::new(config, store);
    System {
        name: format!("ArkFS-ra{}MB", max_readahead / (1024 * 1024)),
        clients: (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect(),
    }
}

/// Build a CephFS fleet (one deployment, n mounted clients).
pub fn ceph_fleet(n: usize, mds: usize, mount: MountType, chunk: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let store_cfg = ClusterConfig::rados(spec.clone()).with_discard_payload(discard);
    let store = Arc::new(ObjectCluster::new(store_cfg));
    let fs = CephFs::new(store, mds, spec, chunk);
    let tag = match mount {
        MountType::Kernel => "CephFS-K",
        MountType::Fuse => "CephFS-F",
    };
    let name = if mds == 1 {
        tag.to_string()
    } else {
        format!("{tag} ({mds} MDS)")
    };
    System {
        name,
        clients: (0..n)
            .map(|_| fs.client(mount) as Arc<dyn SimClient>)
            .collect(),
    }
}

/// Build a MarFS fleet.
pub fn marfs_fleet(n: usize, chunk: u64) -> System {
    let spec = ClusterSpec::aws_paper();
    let store = Arc::new(ObjectCluster::new(ClusterConfig::rados(spec.clone())));
    let shared = MarFs::deployment(store, spec, chunk);
    System {
        name: "MarFS".to_string(),
        clients: (0..n)
            .map(|_| MarFs::client(&shared) as Arc<dyn SimClient>)
            .collect(),
    }
}

/// Build an S3FS fleet on an S3-profile store.
pub fn s3fs_fleet(n: usize, part: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let store_cfg = ClusterConfig::s3(spec.clone()).with_discard_payload(discard);
    let store = Arc::new(ObjectCluster::new(store_cfg));
    let bucket = Bucket::new(store, part);
    System {
        name: "S3FS".to_string(),
        clients: (0..n)
            .map(|_| S3Fs::new(Arc::clone(&bucket), spec.clone()) as Arc<dyn SimClient>)
            .collect(),
    }
}

/// Build a goofys fleet on an S3-profile store.
pub fn goofys_fleet(n: usize, part: u64, readahead: u64, discard: bool) -> System {
    let spec = ClusterSpec::aws_paper();
    let store_cfg = ClusterConfig::s3(spec.clone()).with_discard_payload(discard);
    let store = Arc::new(ObjectCluster::new(store_cfg));
    let bucket = Bucket::new(store, part);
    System {
        name: "goofys".to_string(),
        clients: (0..n)
            .map(|_| {
                GoofysFs::with_readahead(Arc::clone(&bucket), spec.clone(), readahead)
                    as Arc<dyn SimClient>
            })
            .collect(),
    }
}

/// Print an aligned results table and return it as lines (for files).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> Vec<String> {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut lines = Vec::new();
    lines.push(format!("== {title} =="));
    let fmt_row = |cells: Vec<String>| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    lines.push(fmt_row(header.iter().map(|s| s.to_string()).collect()));
    lines.push("-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        lines.push(fmt_row(row.clone()));
    }
    for line in &lines {
        println!("{line}");
    }
    println!();
    lines
}

/// Append result lines to `results/<name>.txt` (best effort).
pub fn save_results(name: &str, lines: &[String]) {
    let _ = std::fs::create_dir_all("results");
    let _ = std::fs::write(format!("results/{name}.txt"), lines.join("\n") + "\n");
}

/// Format ops/sec as kops with sensible precision.
pub fn kops(v: f64) -> String {
    format!("{:.2}", v / 1000.0)
}

/// One measured series in a benchmark: a system under test plus its
/// metric values, grouped by sub-figure/phase.
pub struct BenchRecord {
    pub group: String,
    pub system: String,
    pub metrics: Vec<(String, f64)>,
}

/// Latency percentiles of one workload phase as benchmark metrics:
/// `<phase>_p50_ns`, `<phase>_p99_ns`, `<phase>_max_ns`.
pub fn phase_latency_metrics(phase: &PhaseResult) -> Vec<(String, f64)> {
    vec![
        (format!("{}_p50_ns", phase.name), phase.latency_p50 as f64),
        (format!("{}_p99_ns", phase.name), phase.latency_p99 as f64),
        (format!("{}_max_ns", phase.name), phase.latency_max as f64),
    ]
}

/// The `--trace <path>` / `--trace=<path>` CLI argument, if present.
pub fn trace_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next();
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.to_string());
        }
    }
    None
}

fn system_telemetry(system: &System) -> Option<Arc<Telemetry>> {
    system.clients.first().and_then(|c| c.telemetry())
}

/// Turn span tracing on for every deployment in `systems` (clients of
/// one system share a deployment, so the first client's telemetry
/// covers the fleet).
pub fn enable_tracing(systems: &[&System]) {
    for s in systems {
        if let Some(t) = system_telemetry(s) {
            t.tracer.set_enabled(true);
        }
    }
}

/// Turn *deterministic sampled* tracing on for every deployment in
/// `systems`: every `every`-th op per client is traced end to end
/// (head-based — the decision is a modulus on the client's op
/// sequence, so it never perturbs seeded RNG streams and two runs of
/// the same workload trace the same ops). Tracing rides the virtual
/// clock and never advances it, so enabling this leaves every
/// committed benchmark figure byte-identical.
pub fn enable_sampled_tracing(systems: &[&System], every: u64) {
    for s in systems {
        if let Some(t) = system_telemetry(s) {
            t.tracer.set_sample_every(every);
            t.tracer.set_enabled(true);
        }
    }
}

/// Mean critical-path attribution of a traced system's retained spans,
/// keyed per op phase: `<phase>_cp_<segment>_ns` for each segment in
/// [`critpath::SEGMENTS`] plus `<phase>_cp_total_ns` (phase = the root
/// span name minus its `op.` prefix). Empty when the system records no
/// telemetry or tracing was off.
pub fn critpath_metrics(system: &System) -> Vec<(String, f64)> {
    let Some(tel) = system_telemetry(system) else {
        return Vec::new();
    };
    let events = tel.tracer.events();
    let mut out = Vec::new();
    for (root, agg) in critpath::aggregate(&events) {
        let phase = root.strip_prefix("op.").unwrap_or(&root);
        for (i, seg) in critpath::SEGMENTS.iter().enumerate() {
            out.push((format!("{phase}_cp_{seg}_ns"), agg.mean_seg(i)));
        }
        out.push((format!("{phase}_cp_total_ns"), agg.mean_total()));
    }
    out
}

/// Write one merged Chrome `trace_event` JSON covering every traced
/// system — load it in chrome://tracing or https://ui.perfetto.dev.
pub fn write_chrome_trace(path: &str, systems: &[&System]) {
    let tels: Vec<(String, Arc<Telemetry>)> = systems
        .iter()
        .filter_map(|s| system_telemetry(s).map(|t| (s.name.clone(), t)))
        .collect();
    let groups: Vec<(&str, &Tracer)> = tels.iter().map(|(n, t)| (n.as_str(), &t.tracer)).collect();
    match std::fs::write(path, merged_chrome_trace(&groups)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_num(v: f64) -> String {
    // JSON has no NaN/Infinity; benchmark failures surface as null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render benchmark records as a machine-readable JSON document.
pub fn bench_json_string(name: &str, config: &[(&str, f64)], records: &[BenchRecord]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(name)));
    s.push_str(&format!("  \"schema\": {BENCH_SCHEMA_VERSION},\n"));
    s.push_str("  \"config\": {");
    let cfg: Vec<String> = config
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json_escape(k), json_num(*v)))
        .collect();
    s.push_str(&cfg.join(", "));
    s.push_str("},\n  \"results\": [\n");
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), json_num(*v)))
                .collect();
            format!(
                "    {{\"group\": \"{}\", \"system\": \"{}\", \"metrics\": {{{}}}}}",
                json_escape(&r.group),
                json_escape(&r.system),
                metrics.join(", ")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Write benchmark records to `BENCH_<name>.json` in the working
/// directory (best effort), as a committed regression baseline.
pub fn save_bench_json(name: &str, config: &[(&str, f64)], records: &[BenchRecord]) {
    let doc = bench_json_string(name, config, records);
    let path = format!("BENCH_{name}.json");
    if std::fs::write(&path, &doc).is_ok() {
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs_vfs::Credentials;

    #[test]
    fn fleet_builders_produce_working_clients() {
        let ctx = Credentials::root();
        for system in [
            ark_fleet(2, ArkConfig::test_tiny(), false),
            ceph_fleet(2, 1, MountType::Kernel, 64, false),
            marfs_fleet(2, 64),
            s3fs_fleet(2, 64, false),
            goofys_fleet(2, 64, 256, false),
        ] {
            assert_eq!(system.clients.len(), 2);
            system.clients[0]
                .mkdir(&ctx, "/probe", 0o755)
                .unwrap_or_else(|e| panic!("{}: {e}", system.name));
            assert!(
                system.clients[1].stat(&ctx, "/probe").is_ok(),
                "{}",
                system.name
            );
        }
    }

    #[test]
    fn table_printer_aligns() {
        let lines = print_table(
            "t",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("long-header"));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let records = vec![BenchRecord {
            group: "a\"b".to_string(),
            system: "ArkFS".to_string(),
            metrics: vec![
                ("write_ops_s".to_string(), 1234.5),
                ("bad".to_string(), f64::NAN),
            ],
        }];
        let doc = bench_json_string("fig9", &[("procs", 16.0)], &records);
        assert!(doc.contains("\"bench\": \"fig9\""));
        assert!(doc.contains(&format!("\"schema\": {BENCH_SCHEMA_VERSION}")));
        assert!(doc.contains("\"procs\": 16"));
        assert!(doc.contains("\"group\": \"a\\\"b\""));
        assert!(doc.contains("\"write_ops_s\": 1234.5"));
        assert!(
            doc.contains("\"bad\": null"),
            "non-finite metrics must become null"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn env_scale_defaults() {
        assert_eq!(bench_files(50_000), 50_000);
        assert_eq!(bench_procs(16), 16);
    }
}
