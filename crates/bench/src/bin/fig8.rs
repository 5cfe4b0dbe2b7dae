//! Figure 8 — hot-directory sharding: CREATE throughput into ONE shared
//! directory (a million entries at full scale) under 64 writer
//! processes, with the directory's dentry space served by 1, 2 or 8
//! partition leaders.
//!
//! Expected shape: ops/s scales with the partition count (acceptance
//! floor: 8 partitions ≥ 3× 1 partition) because independent creates
//! commit through independent leaders, journal streams and commit
//! lanes. The ack/durable p99 split is reported per partition count;
//! per-partition `journal.sealed_depth.p<i>` gauges are sampled after
//! the last create, before the drain barrier zeroes them.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_bench::{
    bench_files, bench_procs, kops, print_table, save_bench_json, save_results, trace_path,
    BenchRecord,
};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_telemetry::{critpath, merged_chrome_trace, Telemetry, Tracer};
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::mdtest::shared_dir_create;
use arkfs_workloads::SimClient;
use std::sync::Arc;

fn main() {
    let procs = bench_procs(64);
    let files = bench_files(100_000);
    let trace = trace_path();
    let mut traced_tels: Vec<(String, Arc<Telemetry>)> = Vec::new();
    let ctx = Credentials::root();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut ops_by_pcount: Vec<(u32, f64)> = Vec::new();
    for pcount in [1u32, 2, 8] {
        let config = ArkConfig::default();
        let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(true);
        let cluster = ArkCluster::new(config, Arc::new(ObjectCluster::new(store_cfg)));
        if trace.is_some() {
            // Deterministic sampled causal tracing (head-based, every
            // 64th op per client); never advances virtual time, so the
            // figures match an untraced run exactly.
            cluster.telemetry().tracer.set_sample_every(64);
            cluster.telemetry().tracer.set_enabled(true);
        }
        let admin = cluster.client();
        admin.mkdir(&ctx, "/shared", 0o755).unwrap();
        admin.sync_all(&ctx).unwrap();
        if pcount > 1 {
            admin.set_dir_partitions(&ctx, "/shared", pcount).unwrap();
        }
        // Hand every lease back so partition leadership lands on the
        // writers that first touch each partition, not on the admin.
        admin.release_all(&ctx).unwrap();
        let clients: Vec<Arc<dyn SimClient>> = (0..procs)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect();
        let tel = Arc::clone(cluster.telemetry());
        let mut sealed_depth = vec![0i64; pcount as usize];
        let result = shared_dir_create(&clients, "/shared", files, || {
            for (p, slot) in sealed_depth.iter_mut().enumerate() {
                *slot = tel
                    .registry
                    .gauge(&format!("journal.sealed_depth.p{p}"))
                    .get();
            }
        })
        .expect("shared-dir create");
        assert_eq!(result.errors[0], 0, "shared-dir creates failed");
        let phase = &result.phases[0];
        let ops_s = phase.ops_per_sec();
        ops_by_pcount.push((pcount, ops_s));
        let counter = |name: &str| tel.registry.counter(name).get() as f64;
        let durable = tel.registry.histogram("op.create.durable_ns").snapshot();
        let mut metrics: Vec<(String, f64)> = vec![
            ("partitions".to_string(), pcount as f64),
            ("create_ops_s".to_string(), ops_s),
            ("create_p50_ns".to_string(), phase.latency_p50 as f64),
            ("create_p99_ns".to_string(), phase.latency_p99 as f64),
            ("create_max_ns".to_string(), phase.latency_max as f64),
            // Ack percentiles are the exact phase order statistics (the
            // return to the caller is the ack); durable percentiles come
            // from `op.create.durable_ns`, stamped when the sealed batch
            // lands on the object store.
            ("create_ack_p50_ns".to_string(), phase.latency_p50 as f64),
            ("create_ack_p99_ns".to_string(), phase.latency_p99 as f64),
            (
                "create_durable_p50_ns".to_string(),
                durable.quantile(0.5) as f64,
            ),
            (
                "create_durable_p99_ns".to_string(),
                durable.quantile(0.99) as f64,
            ),
            (
                "partition_splits".to_string(),
                counter("meta.partition.split.count"),
            ),
            (
                "partition_handoffs".to_string(),
                counter("meta.partition.handoff.count"),
            ),
            (
                "lease_handoff_failed".to_string(),
                counter("lease.handoff_failed.count"),
            ),
        ];
        for (p, depth) in sealed_depth.iter().enumerate() {
            metrics.push((format!("sealed_depth_p{p}"), *depth as f64));
        }
        if trace.is_some() {
            let aggs = critpath::aggregate(&tel.tracer.events());
            if let Some(agg) = aggs.get("op.create") {
                for (i, seg) in critpath::SEGMENTS.iter().enumerate() {
                    metrics.push((format!("create_cp_{seg}_ns"), agg.mean_seg(i)));
                }
                metrics.push(("create_cp_total_ns".to_string(), agg.mean_total()));
            }
            traced_tels.push((format!("ArkFS-P{pcount}"), Arc::clone(&tel)));
        }
        rows.push(vec![
            pcount.to_string(),
            kops(ops_s),
            phase.latency_p99.to_string(),
            durable.quantile(0.99).to_string(),
        ]);
        records.push(BenchRecord {
            group: "shared-dir-create".to_string(),
            system: format!("ArkFS-P{pcount}"),
            metrics,
        });
        eprintln!(
            "fig8: {pcount} partition(s) done ({:.1} kops/s)",
            ops_s / 1000.0
        );
    }
    let base = ops_by_pcount[0].1;
    let speedup8 = ops_by_pcount
        .iter()
        .find(|&&(p, _)| p == 8)
        .map(|&(_, v)| v / base)
        .unwrap_or(0.0);
    let mut lines = print_table(
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
    let speedup_line = format!("8-partition speedup over 1 partition: {speedup8:.2}x");
    println!("{speedup_line}");
    lines.push(speedup_line);
    save_results("fig8", &lines);
    save_bench_json(
        "fig8",
        &[
            ("files", files as f64),
            ("procs", procs as f64),
            ("speedup_8p_vs_1p", speedup8),
        ],
        &records,
    );
    assert!(
        speedup8 >= 3.0,
        "acceptance: 8 partitions must be >= 3x of 1 partition (got {speedup8:.2}x)"
    );
    if let Some(path) = trace {
        let groups: Vec<(&str, &Tracer)> = traced_tels
            .iter()
            .map(|(name, tel)| (name.as_str(), &tel.tracer))
            .collect();
        match std::fs::write(&path, merged_chrome_trace(&groups)) {
            Ok(()) => eprintln!("fig8: wrote causal trace to {path}"),
            Err(err) => eprintln!("fig8: failed to write trace {path}: {err}"),
        }
    }
}
