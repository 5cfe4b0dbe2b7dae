//! Sampled causal tracing must be deterministic: the sampling decision
//! is a modulus on the per-client op sequence (never the seeded RNG
//! streams), every span carries virtual-time stamps, and the event
//! engine interleaves clients in causal order — so two identical runs
//! must produce *identical* span graphs, span for span, and therefore
//! identical critical-path attributions. This is what lets the traced
//! fig9 curve regenerate byte-for-byte.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster};
use arkfs_telemetry::{critpath, SpanEvent};
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::{gen_iter, run_ops, Op, OpGen, SimClient, Zipf};
use std::sync::Arc;

const CLIENTS: usize = 256;
const DIRS: usize = 32;
const OPS_PER_CLIENT: u64 = 16;
const SAMPLE_EVERY: u64 = 8;

/// One fig9-style run: 256 engine-driven clients create into a
/// zipf-skewed directory pool with head-sampled tracing on. Returns the
/// full span graph.
fn traced_run() -> Vec<SpanEvent> {
    let ctx = Credentials::root();
    let config = ArkConfig::default();
    let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(true);
    let cluster = ArkCluster::new(config, Arc::new(ObjectCluster::new(store_cfg)));
    cluster.telemetry().tracer.set_sample_every(SAMPLE_EVERY);
    cluster.telemetry().tracer.set_enabled(true);

    let admin = cluster.client();
    admin.mkdir(&ctx, "/zipf", 0o755).unwrap();
    for d in 0..DIRS {
        admin.mkdir(&ctx, &format!("/zipf/d{d}"), 0o755).unwrap();
    }
    admin.sync_all(&ctx).unwrap();
    admin.release_all(&ctx).unwrap();

    let clients: Vec<Arc<dyn SimClient>> = (0..CLIENTS)
        .map(|_| cluster.client() as Arc<dyn SimClient>)
        .collect();
    let gens: Vec<Box<dyn OpGen>> = (0..CLIENTS)
        .map(|i| {
            let mut zipf = Zipf::new(DIRS, 0.9, 0xF19 ^ (i as u64).wrapping_mul(0x9E37));
            gen_iter((0..OPS_PER_CLIENT).map(move |j| Op::Create {
                path: format!("/zipf/d{}/c{i}-f{j}", zipf.sample()),
            }))
        })
        .collect();
    let report = run_ops(&clients, gens, None);
    assert_eq!(report.total_errors(), 0, "zipf creates failed");
    for c in &clients {
        let _ = c.sync_all(&ctx);
    }
    cluster.telemetry().tracer.events()
}

#[test]
fn sampled_traced_runs_produce_identical_span_graphs() {
    let a = traced_run();
    let b = traced_run();
    assert!(
        a.iter().any(|s| s.trace_id != 0),
        "sampling produced no causal spans"
    );
    assert_eq!(a.len(), b.len(), "span counts diverge between runs");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "span {i} diverges between identical runs");
    }
    // Identical graphs must analyze identically. The sampled trace
    // count is itself deterministic: each workload op is a traced
    // create followed by a traced close, so a client's op sequence
    // alternates create (even seq) / close (odd seq) and sampling every
    // 8th seq lands on creates only — 2*16/8 = 4 per client.
    let bd_a = critpath::analyze(&a);
    let bd_b = critpath::analyze(&b);
    assert_eq!(bd_a, bd_b);
    let creates = bd_a.iter().filter(|x| x.root_name == "op.create").count();
    let expected = CLIENTS * (2 * OPS_PER_CLIENT as usize / SAMPLE_EVERY as usize);
    assert_eq!(creates, expected);
    for x in &bd_a {
        assert_eq!(x.segs.iter().sum::<u64>(), x.total);
    }
}
