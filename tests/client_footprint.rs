//! Heap footprint of a client, counted rather than timed: the live heap
//! bytes a fig9-shaped fleet holds per client once 4 096 clients have
//! each made 16 creates, their directories drawn Zipf(0.9) from a pool
//! of 256 (fig9's seed), driven by the engine as fig9 drives them.
//!
//! Fig. 9 runs up to 16 384 clients in one process, so bytes per client
//! are what bind first. The count covers everything the run leaves live
//! (clients, leaders' metatables and journals, the lease managers, the
//! store's objects without payload), divided by the client count. Each
//! client holds its led directories, permission cache and open handles
//! each behind one lock; split 16 ways, they cost 31 230 B per client
//! here (10 761 B of it at construction). Its op-latency histograms
//! are the deployment's, not its own. The counting allocator is
//! `common`'s.

mod common;

use arkfs::ArkConfig;
use arkfs_bench::fleet::{ark_cluster, zipf_create_fleet};
use arkfs_workloads::{run_ops, SimClient};
use std::sync::Arc;

const CLIENTS: usize = 4096;
const DIRS: usize = 256;
const CREATES: u64 = 16;
/// Live bytes per client after the run: 19 698 B measured, with 5 %
/// slack.
const BUDGET: u64 = 20_700;
/// Live bytes per client once the fleet is built: 4 092 B measured,
/// with 5 % slack.
const BUILT_BUDGET: u64 = 4_300;

#[test]
fn a_client_stays_within_its_heap_budget() {
    let cluster = ark_cluster(ArkConfig::default(), true);
    let start = common::live();
    let (clients, gens) = zipf_create_fleet(&cluster, DIRS, 0.9, 0xF19, CLIENTS, CREATES);
    let built = common::live();
    let clients: Vec<Arc<dyn SimClient>> = clients.into_iter().map(|c| c as _).collect();
    let report = run_ops(&clients, gens, None);
    assert_eq!(report.total_errors(), 0, "zipf creates failed");
    let per_client = |live: u64| (live - start) / CLIENTS as u64;
    let (built, ran) = (per_client(built), per_client(common::live()));
    eprintln!("live heap per client: {built} B built, {ran} B after {CREATES} creates each");
    assert!(
        built <= BUILT_BUDGET,
        "a built client holds {built} B of live heap, over its budget of {BUILT_BUDGET} B"
    );
    assert!(
        ran <= BUDGET,
        "a client holds {ran} B of live heap, over its budget of {BUDGET} B"
    );
}
