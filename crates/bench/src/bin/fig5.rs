//! Figure 5 — "Throughput of mdtest-hard": WRITE / STAT / READ / DELETE
//! of 3901-byte files across a shared directory pool.
//!
//! Expected shape (paper): ArkFS ahead everywhere but by less than in
//! mdtest-easy (shared dirs + small data I/O); up to 4.65× in READ;
//! MarFS errors out of the READ phase; CephFS-K 16 MDS ≈ 1 MDS with a
//! DELETE regression.

use arkfs::ArkConfig;
use arkfs_baselines::MountType;
use arkfs_bench::{
    ark_fleet, bench_files, bench_procs, ceph_fleet, enable_tracing, kops, marfs_fleet,
    phase_latency_metrics, print_table, save_bench_json, save_results, trace_path,
    write_chrome_trace, BenchRecord, System,
};
use arkfs_workloads::mdtest::{mdtest_hard, MdtestHardConfig};

fn main() {
    let procs = bench_procs(16);
    let files = bench_files(50_000);
    let chunk = 64 * 1024;
    let trace = trace_path();
    let systems: Vec<System> = vec![
        ark_fleet(procs, ArkConfig::default(), true),
        ceph_fleet(procs, 1, MountType::Fuse, chunk, true),
        ceph_fleet(procs, 1, MountType::Kernel, chunk, true),
        ceph_fleet(procs, 16, MountType::Kernel, chunk, true),
        marfs_fleet(procs, chunk),
    ];
    let refs: Vec<&System> = systems.iter().collect();
    if trace.is_some() {
        enable_tracing(&refs);
    }
    let cfg = MdtestHardConfig {
        files_total: files,
        dirs: 16,
        file_size: 3901,
        seed: 42,
    };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for system in &systems {
        let result = mdtest_hard(&system.clients, &cfg).expect("mdtest-hard");
        let get = |name: &str| result.phase(name).map(|p| p.ops_per_sec()).unwrap_or(0.0);
        let read_cell = if result.errors[2] > 0 {
            format!("ERR({})", result.errors[2])
        } else {
            kops(get("read"))
        };
        rows.push(vec![
            system.name.clone(),
            kops(get("write")),
            kops(get("stat")),
            read_cell,
            kops(get("delete")),
        ]);
        let mut metrics = vec![
            ("write_ops_s".to_string(), get("write")),
            ("stat_ops_s".to_string(), get("stat")),
            ("read_ops_s".to_string(), get("read")),
            ("delete_ops_s".to_string(), get("delete")),
            ("read_errors".to_string(), result.errors[2] as f64),
        ];
        for phase in &result.phases {
            metrics.extend(phase_latency_metrics(phase));
        }
        records.push(BenchRecord {
            group: "mdtest-hard".to_string(),
            system: system.name.clone(),
            metrics,
        });
        eprintln!("fig5: {} done", system.name);
    }
    let lines = print_table(
        &format!("Figure 5: mdtest-hard throughput (kops/s, {files} files, {procs} procs)"),
        &["system", "WRITE", "STAT", "READ", "DELETE"],
        &rows,
    );
    save_results("fig5", &lines);
    save_bench_json(
        "fig5",
        &[
            ("files", files as f64),
            ("procs", procs as f64),
            ("file_size", 3901.0),
        ],
        &records,
    );
    if let Some(path) = trace {
        write_chrome_trace(&path, &refs);
    }
}
