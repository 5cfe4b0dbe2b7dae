//! Figure 7 — "Scalability Test": mdtest-easy file creation while
//! varying the number of clients up to 512, normalized throughput.
//!
//! Expected shape (paper): ArkFS-pcache near-linear to 512 clients;
//! ArkFS-no-pcache collapses as soon as clients > 1 (FUSE LOOKUP storm on
//! the near-root directory leaders, §III-C); CephFS-K (1 MDS) flat-lines;
//! CephFS-K (16 MDS) at most ~3.24× of 1 MDS beyond 64 clients.

use arkfs::ArkConfig;
use arkfs_baselines::MountType;
use arkfs_bench::{ark_fleet, bench_files, ceph_fleet, kops, print_table, save_results};
use arkfs_workloads::mdtest::{mdtest_easy, MdtestEasyConfig};
use arkfs_workloads::SimClient;
use std::sync::Arc;

fn run(clients: Vec<Arc<dyn SimClient>>, per_client: u64) -> f64 {
    let cfg = MdtestEasyConfig {
        files_total: per_client * clients.len() as u64,
        create_only: true,
    };
    mdtest_easy(&clients, &cfg).expect("mdtest-easy").phases[0].ops_per_sec()
}

fn main() {
    let per_client = bench_files(500);
    let scales = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();

    for (label, builder) in [
        (
            "ArkFS-pcache",
            Box::new(|n: usize| ark_fleet(n, ArkConfig::default(), true).clients)
                as Box<dyn Fn(usize) -> Vec<Arc<dyn SimClient>>>,
        ),
        (
            "ArkFS-no-pcache",
            Box::new(|n: usize| {
                ark_fleet(n, ArkConfig::default().with_permission_cache(false), true).clients
            }),
        ),
        (
            "CephFS-K (1 MDS)",
            Box::new(|n: usize| ceph_fleet(n, 1, MountType::Kernel, 65536, true).clients),
        ),
        (
            "CephFS-K (16 MDS)",
            Box::new(|n: usize| ceph_fleet(n, 16, MountType::Kernel, 65536, true).clients),
        ),
    ] {
        let mut points = Vec::new();
        for &n in &scales {
            let tput = run(builder(n), per_client);
            points.push(tput);
            eprintln!("fig7: {label} @ {n} clients: {} kops/s", kops(tput));
        }
        series.push((label.to_string(), points));
    }

    // Raw throughput table.
    let mut rows = Vec::new();
    for (i, &n) in scales.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (_, points) in &series {
            row.push(kops(points[i]));
        }
        rows.push(row);
    }
    let names: Vec<&str> = series.iter().map(|(n, _)| n.as_str()).collect();
    let mut header = vec!["clients"];
    header.extend(names.iter());
    let mut lines = print_table(
        &format!("Figure 7: create scalability, raw kops/s ({per_client} files/client)"),
        &header,
        &rows,
    );

    // Normalized (each series to its own 1-client throughput), the
    // paper's log-scale Y axis.
    let mut rows = Vec::new();
    for (i, &n) in scales.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (_, points) in &series {
            let base = points[0].max(f64::MIN_POSITIVE);
            row.push(format!("{:.2}", points[i] / base));
        }
        rows.push(row);
    }
    lines.extend(print_table(
        "Figure 7: normalized throughput (each system vs its own 1-client run)",
        &header,
        &rows,
    ));
    save_results("fig7", &lines);
}
