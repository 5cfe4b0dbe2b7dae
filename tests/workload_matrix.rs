//! Workload × file-system matrix: every benchmark workload runs (at toy
//! scale) against every system, asserting the success/error expectations
//! each system's architecture implies.

use arkfs::ArkConfig;
use arkfs_baselines::MountType;
use arkfs_bench::{ark_fleet, ceph_fleet, goofys_fleet, marfs_fleet, s3fs_fleet, System};
use arkfs_workloads::fio::{fio, FioConfig};
use arkfs_workloads::mdtest::{mdtest_easy, mdtest_hard, MdtestEasyConfig, MdtestHardConfig};
use arkfs_workloads::tar::{archive_scenario, ArchiveConfig};
use arkfs_workloads::DatasetSpec;

fn full_posix_systems() -> Vec<System> {
    vec![
        ark_fleet(4, ArkConfig::default(), false),
        ceph_fleet(4, 1, MountType::Kernel, 65536, false),
        ceph_fleet(4, 4, MountType::Fuse, 65536, false),
    ]
}

#[test]
fn mdtest_easy_runs_on_every_posix_system() {
    let cfg = MdtestEasyConfig {
        files_total: 64,
        create_only: false,
    };
    for system in full_posix_systems() {
        let r =
            mdtest_easy(&system.clients, &cfg).unwrap_or_else(|e| panic!("{}: {e}", system.name));
        assert_eq!(r.errors, vec![0, 0, 0], "{}", system.name);
        for phase in &r.phases {
            assert!(phase.ops_per_sec() > 0.0, "{}: {}", system.name, phase.name);
        }
    }
    // MarFS handles the metadata-only phases too.
    let marfs = marfs_fleet(4, 65536);
    let r = mdtest_easy(&marfs.clients, &cfg).unwrap();
    assert_eq!(r.errors, vec![0, 0, 0], "MarFS");
}

#[test]
fn mdtest_hard_error_expectations_per_system() {
    let cfg = MdtestHardConfig {
        files_total: 32,
        dirs: 4,
        file_size: 512,
        seed: 3,
    };
    for system in full_posix_systems() {
        let r =
            mdtest_hard(&system.clients, &cfg).unwrap_or_else(|e| panic!("{}: {e}", system.name));
        assert_eq!(r.errors, vec![0, 0, 0, 0], "{}", system.name);
    }
    // MarFS: WRITE/STAT/DELETE fine, READ errors (§IV-B).
    let marfs = marfs_fleet(4, 65536);
    let r = mdtest_hard(&marfs.clients, &cfg).unwrap();
    assert_eq!(r.errors[0], 0, "MarFS WRITE");
    assert_eq!(r.errors[1], 0, "MarFS STAT");
    assert_eq!(r.errors[2], 32, "MarFS READ must error");
    assert_eq!(r.errors[3], 0, "MarFS DELETE");
}

#[test]
fn fio_runs_on_every_data_capable_system() {
    let cfg = FioConfig {
        file_size: 256 * 1024,
        request_size: 16 * 1024,
    };
    let systems = vec![
        ark_fleet(2, ArkConfig::default(), false),
        ceph_fleet(2, 1, MountType::Kernel, 65536, false),
        ceph_fleet(2, 1, MountType::Fuse, 65536, false),
        s3fs_fleet(2, 65536, false),
        goofys_fleet(2, 65536, 8 * 1024 * 1024, false),
    ];
    for system in systems {
        let r = fio(&system.clients, &cfg).unwrap_or_else(|e| panic!("{}: {e}", system.name));
        assert!(r.write_mib_s() > 0.0, "{} write", system.name);
        assert!(r.read_mib_s() > 0.0, "{} read", system.name);
    }
}

#[test]
fn archive_scenario_runs_on_arkfs_and_cephfs() {
    let cfg = ArchiveConfig {
        dataset: DatasetSpec::scaled(30, 512, 9),
        ebs_bw: 1_000_000_000,
    };
    for system in [
        ark_fleet(2, ArkConfig::default(), false),
        ceph_fleet(2, 1, MountType::Kernel, 65536, false),
        ceph_fleet(2, 1, MountType::Fuse, 65536, false),
    ] {
        let r = archive_scenario(&system.clients, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", system.name));
        assert!(r.archive_ns > 0 && r.unarchive_ns > 0, "{}", system.name);
    }
}
