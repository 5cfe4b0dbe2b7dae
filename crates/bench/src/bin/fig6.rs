//! Figure 6 — "Large File I/O Bandwidth": sequential WRITE then READ
//! with 128 KB requests.
//!
//! (a) RADOS backend: ArkFS ≈ CephFS-K on WRITE and READ; CephFS-F READ
//!     trails (128 KB max read-ahead).
//! (b) S3 backend: ArkFS ~5.95× S3FS WRITE and ~3.59× S3FS READ; goofys
//!     READ far ahead of ArkFS-ra8MB; ArkFS-ra400MB ≈ goofys.
//!
//! File sizes are scaled from the paper's 32 GB/process; the virtual-time
//! model preserves bandwidth ratios.

use arkfs::ArkConfig;
use arkfs_baselines::MountType;
use arkfs_bench::{
    ark_fleet, ark_fleet_s3, bench_procs, ceph_fleet, enable_tracing, goofys_fleet,
    phase_latency_metrics, print_table, s3fs_fleet, save_bench_json, save_results, trace_path,
    write_chrome_trace, BenchRecord, System,
};
use arkfs_workloads::fio::{fio, FioConfig};

fn run(systems: &[System], cfg: &FioConfig, title: &str, out: &str) -> Vec<BenchRecord> {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for system in systems {
        let result = fio(&system.clients, cfg).expect("fio");
        rows.push(vec![
            system.name.clone(),
            format!("{:.0}", result.write_mib_s()),
            format!("{:.0}", result.read_mib_s()),
        ]);
        let mut metrics = vec![
            ("write_mib_s".to_string(), result.write_mib_s()),
            ("read_mib_s".to_string(), result.read_mib_s()),
        ];
        metrics.extend(phase_latency_metrics(&result.write));
        metrics.extend(phase_latency_metrics(&result.read));
        records.push(BenchRecord {
            group: out.to_string(),
            system: system.name.clone(),
            metrics,
        });
        eprintln!("fig6: {} done", system.name);
    }
    let lines = print_table(title, &["system", "WRITE MiB/s", "READ MiB/s"], &rows);
    save_results(out, &lines);
    records
}

#[allow(clippy::field_reassign_with_default)]
fn main() {
    let procs = bench_procs(8);
    let chunk = 512 * 1024;
    let full = std::env::var("ARKFS_BENCH_FULL").is_ok();
    let file_size: u64 = if full {
        2 * 1024 * 1024 * 1024
    } else {
        64 * 1024 * 1024
    };
    let cfg = FioConfig {
        file_size,
        request_size: 128 * 1024,
    };
    let trace = trace_path();

    // (a) RADOS backend.
    let mut ark_cfg = ArkConfig::default();
    ark_cfg.chunk_size = chunk;
    ark_cfg.cache_entries = 256;
    let systems_a = vec![
        ark_fleet(procs, ark_cfg, true),
        ceph_fleet(procs, 1, MountType::Kernel, chunk, true),
        ceph_fleet(procs, 1, MountType::Fuse, chunk, true),
    ];
    if trace.is_some() {
        enable_tracing(&systems_a.iter().collect::<Vec<_>>());
    }
    let mut records = run(
        &systems_a,
        &cfg,
        &format!(
            "Figure 6(a): large-file bandwidth on RADOS ({procs} procs, {} MiB files)",
            file_size / (1024 * 1024)
        ),
        "fig6a",
    );

    // (b) S3 backend.
    let systems_b = vec![
        ark_fleet_s3(procs, 8 * 1024 * 1024, chunk, true),
        ark_fleet_s3(procs, 400 * 1024 * 1024, chunk, true),
        s3fs_fleet(procs, chunk, true),
        goofys_fleet(procs, chunk, 400 * 1024 * 1024, true),
    ];
    if trace.is_some() {
        enable_tracing(&systems_b.iter().collect::<Vec<_>>());
    }
    records.extend(run(
        &systems_b,
        &cfg,
        &format!(
            "Figure 6(b): large-file bandwidth on S3 ({procs} procs, {} MiB files)",
            file_size / (1024 * 1024)
        ),
        "fig6b",
    ));
    save_bench_json(
        "fig6",
        &[
            ("procs", procs as f64),
            ("file_size", file_size as f64),
            ("request_size", cfg.request_size as f64),
        ],
        &records,
    );
    if let Some(path) = trace {
        let refs: Vec<&System> = systems_a.iter().chain(systems_b.iter()).collect();
        write_chrome_trace(&path, &refs);
    }
}
