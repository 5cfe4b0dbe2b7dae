//! Figure 1 — motivation: "Scalability problem of a dedicated metadata
//! server. Massive file creations are performed while varying the number
//! of clients up to 512. The dotted line indicates the ideal, linearly
//! scalable performance."
//!
//! CephFS-K with 1 MDS, mdtest-easy CREATE only, per-client private
//! directories.

use arkfs_baselines::MountType;
use arkfs_bench::{bench_files, ceph_fleet, kops, print_table, save_results};
use arkfs_workloads::mdtest::{mdtest_easy, MdtestEasyConfig};

fn main() {
    let per_client = bench_files(1000);
    let mut rows = Vec::new();
    let mut ideal_base = 0.0f64;
    for clients in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        let system = ceph_fleet(clients, 1, MountType::Kernel, 64 * 1024, true);
        let cfg = MdtestEasyConfig {
            files_total: per_client * clients as u64,
            create_only: true,
        };
        let result = mdtest_easy(&system.clients, &cfg).expect("mdtest-easy");
        let tput = result.phases[0].ops_per_sec();
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
    let lines = print_table(
        "Figure 1: CephFS-K (1 MDS) file creation scalability",
        &["clients", "kops/s", "ideal kops/s"],
        &rows,
    );
    save_results("fig1", &lines);
}
