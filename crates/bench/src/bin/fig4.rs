//! Figure 4 — "Throughput of mdtest-easy": CREATE / STAT / DELETE of
//! empty files, 16 processes, private leaf directories, across ArkFS,
//! CephFS-F, CephFS-K (1 and 16 MDS), and MarFS.
//!
//! Expected shape (paper): ArkFS far ahead on every phase (up to ~24.9×
//! CephFS); CephFS-K > CephFS-F > MarFS; 16 MDS ≤ 2.41× of 1 MDS.

use arkfs::ArkConfig;
use arkfs_baselines::MountType;
use arkfs_bench::{
    ark_fleet, bench_files, bench_procs, ceph_fleet, enable_tracing, kops, marfs_fleet,
    phase_latency_metrics, print_table, save_bench_json, save_results, trace_path,
    write_chrome_trace, BenchRecord, System,
};
use arkfs_workloads::mdtest::{mdtest_easy, MdtestEasyConfig};

fn main() {
    let procs = bench_procs(16);
    let files = bench_files(100_000);
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
    let cfg = MdtestEasyConfig {
        files_total: files,
        create_only: false,
    };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for system in &systems {
        let result = mdtest_easy(&system.clients, &cfg).expect("mdtest-easy");
        let get = |name: &str| result.phase(name).map(|p| p.ops_per_sec()).unwrap_or(0.0);
        rows.push(vec![
            system.name.clone(),
            kops(get("create")),
            kops(get("stat")),
            kops(get("delete")),
        ]);
        let mut metrics = vec![
            ("create_ops_s".to_string(), get("create")),
            ("stat_ops_s".to_string(), get("stat")),
            ("delete_ops_s".to_string(), get("delete")),
        ];
        for phase in &result.phases {
            metrics.extend(phase_latency_metrics(phase));
        }
        // ArkFS decouples ack from durability: report both sides of the
        // pipeline. Ack percentiles are the exact phase order statistics
        // (the return to the caller is the ack); durable percentiles
        // come from the `op.<name>.durable_ns` histograms stamped when
        // the sealed batch lands on the object store (stat mutates
        // nothing, so it has no durable side). Baselines have neither
        // histogram and emit neither key.
        if let Some(tel) = system.clients.first().and_then(|c| c.telemetry()) {
            let phase_ops = [
                ("create", "op.create"),
                ("stat", "op.stat"),
                ("delete", "op.unlink"),
            ];
            for (phase_name, op) in phase_ops {
                if tel.registry.histogram(&format!("{op}.ack_ns")).count() == 0 {
                    continue;
                }
                if let Some(p) = result.phase(phase_name) {
                    metrics.push((format!("{phase_name}_ack_p50_ns"), p.latency_p50 as f64));
                    metrics.push((format!("{phase_name}_ack_p99_ns"), p.latency_p99 as f64));
                }
                let durable = tel.registry.histogram(&format!("{op}.durable_ns"));
                if durable.count() > 0 {
                    let snap = durable.snapshot();
                    metrics.push((
                        format!("{phase_name}_durable_p50_ns"),
                        snap.quantile(0.5) as f64,
                    ));
                    metrics.push((
                        format!("{phase_name}_durable_p99_ns"),
                        snap.quantile(0.99) as f64,
                    ));
                }
            }
        }
        records.push(BenchRecord {
            group: "mdtest-easy".to_string(),
            system: system.name.clone(),
            metrics,
        });
        eprintln!("fig4: {} done", system.name);
    }
    let lines = print_table(
        &format!("Figure 4: mdtest-easy throughput (kops/s, {files} files, {procs} procs)"),
        &["system", "CREATE", "STAT", "DELETE"],
        &rows,
    );
    save_results("fig4", &lines);
    save_bench_json(
        "fig4",
        &[("files", files as f64), ("procs", procs as f64)],
        &records,
    );
    if let Some(path) = trace {
        write_chrome_trace(&path, &refs);
    }
}
