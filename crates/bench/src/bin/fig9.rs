//! Figure 9 — event-engine scaling curve: CREATE throughput and
//! ack/durable tail latency vs client count, 64 → 16384 simulated
//! clients multiplexed on ONE host thread by the discrete-event engine,
//! with Zipf-skewed directory popularity (s = 0.9 over 256 directories
//! — a handful of hot directories absorb most of the small-file storm).
//!
//! Strong scaling: the total file count is fixed, so the curve shows
//! where adding clients stops buying throughput. Expected shape: ops/s
//! climbs while the metadata service has headroom, then hits a knee —
//! a throughput plateau and/or an ack-p99 inflection — as the hot
//! directories' leaders saturate. The per-point lease and commit-lane
//! telemetry (redirects, retries, journal flights, partition splits),
//! the leader RPCs each create cost and the busiest leader's and the
//! busiest lease manager's share of the makespan identify which
//! resource saturates at the knee.
//!
//! Scale knobs: `ARKFS_BENCH_FILES` (total creates per point),
//! `ARKFS_BENCH_CLIENTS` (cap on the largest client count; CI uses
//! 1024 to keep the job short — the committed baseline runs the full
//! curve to 16384).

use arkfs::{ArkCluster, ArkConfig};
use arkfs_bench::{
    bench_files, kops, print_table, save_bench_json, save_results, zipf_create_fleet, BenchRecord,
};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_simkit::ThroughputMeter;
use arkfs_telemetry::critpath;
use arkfs_vfs::Credentials;
use arkfs_workloads::client::barrier;
use arkfs_workloads::{run_ops, SimClient};
use std::sync::Arc;
use std::time::Instant;

const DIRS: usize = 256;
const ZIPF_S: f64 = 0.9;
const SEED: u64 = 0xF19;
/// Head-based sampling period for the causal tracer: every 64th op per
/// client is traced end to end. Deterministic (a modulus on the
/// per-client op sequence), and tracing never advances virtual time,
/// so the committed figures are byte-identical with or without it.
const SAMPLE_EVERY: u64 = 64;

/// One point of the scaling curve.
struct Point {
    clients: usize,
    ops_s: f64,
    ack_p50: u64,
    ack_p99: u64,
    ack_max: u64,
    durable_p50: u64,
    durable_p99: u64,
    lease_acquires: u64,
    lease_retries: u64,
    lease_redirects: u64,
    journal_flights: u64,
    partition_splits: u64,
    /// Forwarded ops served by all leaders (`leader.served.count`) per
    /// create: resolution, the create itself and its close.
    leader_rpcs_per_create: f64,
    /// The busiest leader: ops it served, and the share of the phase's
    /// virtual makespan its RPC service was busy.
    hot_leader_served: u64,
    hot_leader_busy: f64,
    /// The busiest lease manager's busy share of the same makespan, and
    /// the busy nanoseconds the managers' timelines forgot (nonzero: the
    /// model served more first touches than the managers could).
    manager_busy: f64,
    manager_forgotten_ns: u64,
    /// Mean critical-path nanoseconds per segment of the sampled
    /// create traces, indexed by [`critpath::SEGMENTS`].
    cp_segs: [f64; critpath::SEGMENTS.len()],
    /// Mean end-to-end ack latency of the sampled traces (the segments
    /// sum to this exactly, by construction of the sweep).
    cp_total: f64,
}

fn run_point(n_clients: usize, files_total: u64) -> Point {
    let ctx = Credentials::root();
    let config = ArkConfig::default();
    let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(true);
    let cluster = ArkCluster::new(config, Arc::new(ObjectCluster::new(store_cfg)));
    // Deterministic sampled causal tracing: the knee attribution below
    // reads real span data instead of guessing from counters.
    cluster.telemetry().tracer.set_sample_every(SAMPLE_EVERY);
    cluster.telemetry().tracer.set_enabled(true);

    let per_client = (files_total / n_clients as u64).max(1);
    let (ark_clients, gens) =
        zipf_create_fleet(&cluster, DIRS, ZIPF_S, SEED, n_clients, per_client);
    let clients: Vec<Arc<dyn SimClient>> = ark_clients
        .iter()
        .map(|c| Arc::clone(c) as Arc<dyn SimClient>)
        .collect();

    let meter = ThroughputMeter::new();
    let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
    let host_t0 = Instant::now();
    let report = run_ops(&clients, gens, Some(&meter));
    let host_secs = host_t0.elapsed().as_secs_f64();
    assert_eq!(report.total_errors(), 0, "zipf creates failed");
    // Leader service over the create phase proper, before the closing
    // `sync_all`s add their barrier RPCs.
    let tel = cluster.telemetry();
    let leader_rpcs = tel.registry.counter("leader.served.count").get();
    let makespan = clients.iter().map(|c| c.port().now()).max().unwrap_or(0)
        - starts.iter().copied().min().unwrap_or(0);
    let (hot_leader_served, hot_leader_busy_ns) = ark_clients
        .iter()
        .map(|c| c.leader_stats())
        .max()
        .unwrap_or((0, 0));
    let manager_stats = cluster.manager_stats();
    let manager_busy_ns = manager_stats.iter().map(|m| m.1).max().unwrap_or(0);
    let manager_forgotten_ns = manager_stats.iter().map(|m| m.2).sum();
    for (i, c) in clients.iter().enumerate() {
        let _ = c.sync_all(&ctx);
        meter.record_span(per_client, starts[i], c.port().now());
    }
    barrier(&clients);
    let phase = meter.finish("create");

    let counter = |name: &str| tel.registry.counter(name).get();
    let durable = tel.registry.histogram("op.create.durable_ns").snapshot();
    eprintln!(
        "fig9: {n_clients} clients: {} kops/s virtual, {} creates in {host_secs:.1}s host \
         ({:.0} steps/s on one thread)",
        kops(phase.ops_per_sec()),
        phase.ops,
        phase.ops as f64 / host_secs.max(1e-9),
    );
    // Critical-path attribution of the sampled create traces.
    let aggs = critpath::aggregate(&tel.tracer.events());
    let (cp_segs, cp_total) = match aggs.get("op.create") {
        Some(a) => {
            let mut segs = [0.0f64; critpath::SEGMENTS.len()];
            for (i, s) in segs.iter_mut().enumerate() {
                *s = a.mean_seg(i);
            }
            (segs, a.mean_total())
        }
        None => ([0.0; critpath::SEGMENTS.len()], 0.0),
    };
    Point {
        clients: n_clients,
        ops_s: phase.ops_per_sec(),
        ack_p50: phase.latency_p50,
        ack_p99: phase.latency_p99,
        ack_max: phase.latency_max,
        durable_p50: durable.quantile(0.5),
        durable_p99: durable.quantile(0.99),
        lease_acquires: counter("lease.acquire.count"),
        lease_retries: counter("lease.retry.count"),
        lease_redirects: counter("lease.redirect.count"),
        journal_flights: counter("journal.flight.count"),
        partition_splits: counter("meta.partition.split.count"),
        leader_rpcs_per_create: leader_rpcs as f64 / phase.ops.max(1) as f64,
        hot_leader_served,
        hot_leader_busy: hot_leader_busy_ns as f64 / makespan.max(1) as f64,
        manager_busy: manager_busy_ns as f64 / makespan.max(1) as f64,
        manager_forgotten_ns,
        cp_segs,
        cp_total,
    }
}

/// First index k where the curve knees between point k and k+1: the
/// ack p99 inflects (>= 1.3x) or throughput stops growing (< 1.10x).
fn knee_index(points: &[Point]) -> Option<usize> {
    points.windows(2).position(|w| {
        let p99_ratio = w[1].ack_p99 as f64 / (w[0].ack_p99 as f64).max(1.0);
        let tput_ratio = w[1].ops_s / w[0].ops_s.max(f64::MIN_POSITIVE);
        p99_ratio >= 1.3 || tput_ratio < 1.10
    })
}

/// Which pipeline segment saturated at the knee: the critical-path
/// segment whose *share* of the mean ack latency grew the most from
/// the pre-knee point to the post-knee point. Attribution comes from
/// real sampled span graphs, not counter heuristics — a segment can
/// only win here if traced ops actually spent more of their ack time
/// in it.
fn saturated_segment(pre: &Point, post: &Point) -> (&'static str, f64) {
    let share = |p: &Point, i: usize| {
        if p.cp_total > 0.0 {
            p.cp_segs[i] / p.cp_total
        } else {
            0.0
        }
    };
    let mut best = (critpath::SEGMENTS[0], f64::NEG_INFINITY);
    for (i, seg) in critpath::SEGMENTS.iter().enumerate() {
        let delta = share(post, i) - share(pre, i);
        if delta > best.1 {
            best = (seg, delta);
        }
    }
    best
}

fn main() {
    let files_total = bench_files(131_072);
    let cap: usize = std::env::var("ARKFS_BENCH_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16_384);
    let scales: Vec<usize> = [64usize, 256, 1024, 4096, 16_384]
        .into_iter()
        .filter(|&n| n <= cap)
        .collect();
    assert!(!scales.is_empty(), "ARKFS_BENCH_CLIENTS below 64");

    let points: Vec<Point> = scales.iter().map(|&n| run_point(n, files_total)).collect();

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for p in &points {
        rows.push(vec![
            p.clients.to_string(),
            kops(p.ops_s),
            p.ack_p99.to_string(),
            p.durable_p99.to_string(),
            p.lease_redirects.to_string(),
            format!("{:.2}", p.leader_rpcs_per_create),
            format!("{:.1}", 100.0 * p.manager_busy),
            p.journal_flights.to_string(),
            p.partition_splits.to_string(),
        ]);
        let mut metrics = vec![
            ("clients".to_string(), p.clients as f64),
            ("create_ops_s".to_string(), p.ops_s),
            ("create_p50_ns".to_string(), p.ack_p50 as f64),
            ("create_p99_ns".to_string(), p.ack_p99 as f64),
            ("create_max_ns".to_string(), p.ack_max as f64),
            ("create_ack_p50_ns".to_string(), p.ack_p50 as f64),
            ("create_ack_p99_ns".to_string(), p.ack_p99 as f64),
            ("create_durable_p50_ns".to_string(), p.durable_p50 as f64),
            ("create_durable_p99_ns".to_string(), p.durable_p99 as f64),
            ("lease_acquires".to_string(), p.lease_acquires as f64),
            ("lease_retries".to_string(), p.lease_retries as f64),
            ("lease_redirects".to_string(), p.lease_redirects as f64),
            ("journal_flights".to_string(), p.journal_flights as f64),
            ("partition_splits".to_string(), p.partition_splits as f64),
            (
                "leader_rpcs_per_create".to_string(),
                p.leader_rpcs_per_create,
            ),
            ("lease_manager_busy".to_string(), p.manager_busy),
            (
                "lease_manager_forgotten_ns".to_string(),
                p.manager_forgotten_ns as f64,
            ),
        ];
        for (i, seg) in critpath::SEGMENTS.iter().enumerate() {
            metrics.push((format!("create_cp_{seg}_ns"), p.cp_segs[i]));
        }
        metrics.push(("create_cp_total_ns".to_string(), p.cp_total));
        records.push(BenchRecord {
            group: "zipf-create".to_string(),
            system: format!("ArkFS-C{}", p.clients),
            metrics,
        });
    }
    let mut lines = print_table(
        &format!(
            "Figure 9: Zipf(s={ZIPF_S}) create scaling over {DIRS} dirs \
             ({files_total} files total, event engine, one host thread)"
        ),
        &[
            "clients",
            "CREATE kops/s",
            "ack p99 ns",
            "durable p99 ns",
            "lease redirects",
            "leader rpcs/create",
            "busiest mgr busy %",
            "journal flights",
            "partition splits",
        ],
        &rows,
    );

    // Where the remaining queue is: the busiest leader of each point.
    for p in &points {
        let line = format!(
            "hottest leader @{} clients: served {} forwarded ops, busy {:.1}% of the makespan",
            p.clients,
            p.hot_leader_served,
            100.0 * p.hot_leader_busy,
        );
        println!("{line}");
        lines.push(line);
    }

    let knee = knee_index(&points);
    if let Some(k) = knee {
        let (segment, delta) = saturated_segment(&points[k], &points[k + 1]);
        let knee_line = format!(
            "knee between {} and {} clients: ack p99 {} -> {} ns, \
             {:.2} kops/s -> {:.2} kops/s; critical path shifted into: \
             {segment} (+{:.1} pp of mean ack latency)",
            points[k].clients,
            points[k + 1].clients,
            points[k].ack_p99,
            points[k + 1].ack_p99,
            points[k].ops_s / 1000.0,
            points[k + 1].ops_s / 1000.0,
            delta * 100.0,
        );
        println!("{knee_line}");
        lines.push(knee_line);
        // Per-point breakdown under the table, from the same span data.
        for p in &points {
            let mut parts = Vec::new();
            for (i, seg) in critpath::SEGMENTS.iter().enumerate() {
                let share = if p.cp_total > 0.0 {
                    100.0 * p.cp_segs[i] / p.cp_total
                } else {
                    0.0
                };
                parts.push(format!("{seg} {share:.1}%"));
            }
            let line = format!(
                "critpath @{} clients (mean ack {:.0} ns): {}",
                p.clients,
                p.cp_total,
                parts.join(", ")
            );
            println!("{line}");
            lines.push(line);
        }
    }
    save_results("fig9", &lines);
    save_bench_json(
        "fig9",
        &[
            ("files", files_total as f64),
            ("dirs", DIRS as f64),
            ("zipf_s", ZIPF_S),
            ("seed", SEED as f64),
        ],
        &records,
    );
    // Acceptance (full curve only; CI caps the client count and skips
    // this): the curve must show a measurable knee.
    if scales.last() == Some(&16_384) || *scales.last().unwrap() >= 4096 {
        assert!(
            knee.is_some(),
            "acceptance: no knee found — neither an ack-p99 inflection (>=1.3x) \
             nor a throughput plateau (<1.10x growth) between consecutive scales"
        );
    }
}
