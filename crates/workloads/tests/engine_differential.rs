//! Differential tests of the discrete-event engine drive against a
//! reference written down independently of any interleaving: for each
//! workload the final namespace and every client's per-op outcome
//! sequence follow from the op streams alone, so they are computed here
//! and the engine run must match them — on both object-store profiles,
//! since S3's whole-object rewrite semantics exercise different error
//! paths than RADOS. The engine must also be bit-identical across
//! repeats, virtual-time phase results included.

use arkfs::{ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, ObjectCluster, StoreProfile};
use arkfs_vfs::{Credentials, FileType};
use arkfs_workloads::fio::{fio, FioConfig};
use arkfs_workloads::mdtest::{mdtest_easy, mdtest_hard, MdtestEasyConfig, MdtestHardConfig};
use arkfs_workloads::{gen_iter, run_ops, Op, OpGen, SimClient};
use std::sync::Arc;

fn cluster_config(profile: &str) -> ClusterConfig {
    let mut cfg = ClusterConfig::test_tiny();
    if profile == "s3" {
        cfg.profile = StoreProfile::s3(&cfg.spec);
    }
    cfg
}

fn ark_fleet(profile: &str, n: usize) -> Vec<Arc<dyn SimClient>> {
    let store = Arc::new(ObjectCluster::new(cluster_config(profile)));
    let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
    (0..n)
        .map(|_| cluster.client() as Arc<dyn SimClient>)
        .collect()
}

/// Recursive namespace dump: every path with its type, size, and link
/// count, sorted. Two runs that produce the same dump ended in the same
/// file system state.
fn namespace_dump(client: &Arc<dyn SimClient>) -> Vec<String> {
    let ctx = Credentials::root();
    let mut out = Vec::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let mut entries = client.readdir(&ctx, &dir).expect("readdir");
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            let st = client.stat(&ctx, &path).expect("stat");
            out.push(format!("{path} {:?} {} {}", st.ftype, st.size, st.nlink));
            if e.ftype == FileType::Directory {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Mixed op streams with deliberate error cases (double creates,
/// unlinks of absent paths) so outcome sequences actually discriminate.
fn mixed_gens(n: usize, per: u64) -> Vec<Box<dyn OpGen>> {
    (0..n)
        .map(|i| {
            gen_iter((0..per).flat_map(move |j| {
                [
                    Op::Create {
                        path: format!("/mix/p{i}-f{j}"),
                    },
                    // Duplicate create: always an error.
                    Op::Create {
                        path: format!("/mix/p{i}-f{j}"),
                    },
                    Op::Stat {
                        path: format!("/mix/p{i}-f{j}"),
                    },
                    // Absent path: always an error.
                    Op::Unlink {
                        path: format!("/mix/p{i}-missing{j}"),
                    },
                ]
                .into_iter()
            }))
        })
        .collect()
}

/// The paths of a [`namespace_dump`], for directories whose size and
/// link count are their leader's business.
fn paths(client: &Arc<dyn SimClient>) -> Vec<String> {
    namespace_dump(client)
        .iter()
        .map(|line| line.split(' ').next().unwrap().to_string())
        .collect()
}

/// `dir` and, under it, one `Regular <size> 1` line per name.
fn reference(dir: &str, files: impl IntoIterator<Item = String>, size: u64) -> Vec<String> {
    let mut ns = vec![format!("{dir} Directory 0 2")];
    ns.extend(files.into_iter().map(|f| format!("{f} Regular {size} 1")));
    ns.sort();
    ns
}

#[test]
fn engine_matches_reference_on_mixed_ops_both_profiles() {
    for profile in ["rados", "s3"] {
        let clients = ark_fleet(profile, 4);
        clients[0]
            .mkdir(&Credentials::root(), "/mix", 0o755)
            .unwrap();
        let report = run_ops(&clients, mixed_gens(4, 8), None);
        // create ok, duplicate fails, stat ok, unlink of absent fails.
        let per_client: Vec<bool> = (0..8).flat_map(|_| [true, false, true, false]).collect();
        assert_eq!(
            report.outcomes,
            vec![per_client; 4],
            "outcomes on {profile}"
        );
        let files = (0..4).flat_map(|i| (0..8).map(move |j| format!("/mix/p{i}-f{j}")));
        assert_eq!(
            namespace_dump(&clients[0]),
            reference("/mix", files, 0),
            "final namespace on {profile}"
        );
    }
}

#[test]
fn engine_matches_reference_on_mdtest_easy_both_profiles() {
    for profile in ["rados", "s3"] {
        let clients = ark_fleet(profile, 3);
        let cfg = MdtestEasyConfig {
            files_total: 24,
            create_only: true,
        };
        let result = mdtest_easy(&clients, &cfg).unwrap();
        assert_eq!(result.errors, vec![0], "errors on {profile}");
        // 24 files + parent + 3 per-proc dirs.
        let mut want: Vec<String> = (0..3)
            .flat_map(|i| (0..8).map(move |j| format!("/mdtest-easy/p{i}/f{j}")))
            .chain((0..3).map(|i| format!("/mdtest-easy/p{i}")))
            .chain(["/mdtest-easy".to_string()])
            .collect();
        want.sort();
        assert_eq!(paths(&clients[0]), want, "namespace on {profile}");
    }
}

#[test]
fn engine_matches_reference_on_mdtest_hard() {
    let clients = ark_fleet("rados", 4);
    let cfg = MdtestHardConfig {
        files_total: 32,
        dirs: 4,
        file_size: 96,
        seed: 9,
    };
    // WRITE/STAT/READ/DELETE all run clean, and DELETE leaves the empty
    // directory pool.
    let result = mdtest_hard(&clients, &cfg).unwrap();
    assert_eq!(result.errors, vec![0; 4]);
    let mut want = vec!["/mdtest-hard".to_string()];
    want.extend((0..4).map(|k| format!("/mdtest-hard/d{k}")));
    assert_eq!(paths(&clients[0]), want);
}

#[test]
fn engine_matches_reference_on_fio() {
    let clients = ark_fleet("rados", 2);
    let cfg = FioConfig {
        file_size: 4096,
        request_size: 512,
    };
    let r = fio(&clients, &cfg).unwrap();
    assert_eq!(r.bytes, 2 * 4096);
    let files = (0..2).map(|i| format!("/fio/job{i}.bin"));
    assert_eq!(namespace_dump(&clients[0]), reference("/fio", files, 4096));
}

#[test]
fn engine_runs_are_bit_identical_across_repeats() {
    let run = || {
        let clients = ark_fleet("rados", 4);
        let cfg = MdtestEasyConfig {
            files_total: 32,
            create_only: false,
        };
        let result = mdtest_easy(&clients, &cfg).unwrap();
        (result.phases, namespace_dump(&clients[0]))
    };
    assert_eq!(run(), run());
}
