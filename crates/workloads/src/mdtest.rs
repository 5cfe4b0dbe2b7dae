//! The mdtest benchmark in its two IO500 configurations (§IV-B).
//!
//! * **mdtest-easy** — CREATE / STAT / DELETE of empty files, each
//!   process working in its own leaf directory.
//! * **mdtest-hard** — WRITE / STAT / READ / DELETE of 3901-byte files
//!   spread over a shared directory pool, each operation hitting an
//!   arbitrary directory ("simulating the usage in a shared directory
//!   environment").
//!
//! `fsync()` is called after each phase, flushing all modifications to
//! the underlying storage, exactly as in §IV-B.
//!
//! Each phase is expressed as one resumable op generator per process
//! (see [`crate::ops`]) and driven by [`run_ops`] on the discrete-event
//! engine, which multiplexes the whole fleet on one host thread in
//! causal virtual-time order and makes every phase deterministic.

use crate::client::{barrier, SimClient};
use crate::drive::run_ops;
use crate::ops::{gen_iter, Op, OpGen};
use arkfs_simkit::{PhaseResult, ThroughputMeter};
use arkfs_vfs::{Credentials, FsResult};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// mdtest-easy parameters.
#[derive(Debug, Clone)]
pub struct MdtestEasyConfig {
    /// Total files across all processes (paper: 1 million).
    pub files_total: u64,
    /// Only run the CREATE phase (the Fig. 1 / Fig. 7 scalability test).
    pub create_only: bool,
}

impl Default for MdtestEasyConfig {
    fn default() -> Self {
        MdtestEasyConfig {
            files_total: 1_000_000,
            create_only: false,
        }
    }
}

/// mdtest-hard parameters.
#[derive(Debug, Clone)]
pub struct MdtestHardConfig {
    pub files_total: u64,
    /// Shared directory pool size.
    pub dirs: usize,
    /// Bytes written per file (IO500 default: 3901).
    pub file_size: usize,
    pub seed: u64,
}

impl Default for MdtestHardConfig {
    fn default() -> Self {
        MdtestHardConfig {
            files_total: 1_000_000,
            dirs: 16,
            file_size: 3901,
            seed: 42,
        }
    }
}

/// Result of one mdtest run: one [`PhaseResult`] per phase, plus the
/// per-phase error counts (MarFS returns errors in the READ phase).
#[derive(Debug, Clone)]
pub struct MdtestResult {
    pub phases: Vec<PhaseResult>,
    pub errors: Vec<u64>,
}

impl MdtestResult {
    pub fn phase(&self, name: &str) -> Option<&PhaseResult> {
        self.phases.iter().find(|p| p.name == name)
    }
}

fn ctx() -> Credentials {
    Credentials::root()
}

/// One benchmark phase across the fleet: drives one op generator per
/// process (built by `gen_of(proc)`) and meters aggregate throughput.
/// Returns (result, errors).
fn run_phase(
    clients: &[Arc<dyn SimClient>],
    name: &str,
    per_proc: u64,
    gen_of: impl Fn(usize) -> Box<dyn OpGen>,
) -> (PhaseResult, u64) {
    let meter = ThroughputMeter::new();
    let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
    let gens: Vec<Box<dyn OpGen>> = (0..clients.len()).map(&gen_of).collect();
    let report = run_ops(clients, gens, Some(&meter));
    debug_assert!(report.ops.iter().all(|&n| n == per_proc));
    // fsync after each phase (§IV-B).
    for (i, c) in clients.iter().enumerate() {
        let _ = c.sync_all(&ctx());
        meter.record_span(per_proc, starts[i], c.port().now());
    }
    barrier(clients);
    (meter.finish(name), report.total_errors())
}

/// Unmetered setup: run one op stream per process through the same
/// driver as the metered phases (so setup ordering is as deterministic
/// as the run itself), ignoring errors like the old threaded setup did.
fn run_setup(clients: &[Arc<dyn SimClient>], gen_of: impl Fn(usize) -> Box<dyn OpGen>) {
    let gens: Vec<Box<dyn OpGen>> = (0..clients.len()).map(&gen_of).collect();
    let _ = run_ops(clients, gens, None);
}

/// Run mdtest-easy over the fleet. Directory layout: each process works
/// in its own leaf directory `/mdtest-easy/p<i>`.
pub fn mdtest_easy(
    clients: &[Arc<dyn SimClient>],
    cfg: &MdtestEasyConfig,
) -> FsResult<MdtestResult> {
    assert!(!clients.is_empty());
    let per_proc = (cfg.files_total / clients.len() as u64).max(1);
    // Setup (unmetered): the shared parent, then each process creates its
    // own leaf directory so it becomes that directory's leader.
    clients[0].mkdir(&ctx(), "/mdtest-easy", 0o755)?;
    run_setup(clients, |i| {
        gen_iter(std::iter::once(Op::Mkdir {
            path: format!("/mdtest-easy/p{i}"),
        }))
    });

    let mut phases = Vec::new();
    let mut errors = Vec::new();

    let (create, e) = run_phase(clients, "create", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| Op::Create {
            path: format!("/mdtest-easy/p{i}/f{j}"),
        }))
    });
    phases.push(create);
    errors.push(e);

    if !cfg.create_only {
        let (stat, e) = run_phase(clients, "stat", per_proc, |i| {
            gen_iter((0..per_proc).map(move |j| Op::Stat {
                path: format!("/mdtest-easy/p{i}/f{j}"),
            }))
        });
        phases.push(stat);
        errors.push(e);

        let (delete, e) = run_phase(clients, "delete", per_proc, |i| {
            gen_iter((0..per_proc).map(move |j| Op::Unlink {
                path: format!("/mdtest-easy/p{i}/f{j}"),
            }))
        });
        phases.push(delete);
        errors.push(e);
    }
    Ok(MdtestResult { phases, errors })
}

/// CREATE phase with each process spreading its files round-robin over
/// `dirs_per_proc` directories it leads itself. With more led
/// directories than commit lanes, async seals of co-laned directories
/// land on the same lane — the workload where grouped sealing (one
/// batched flight carrying every co-laned directory's due
/// transactions) amortizes against per-dir flights. Setup (unmetered)
/// creates the per-process directories.
pub fn fanned_dir_create(
    clients: &[Arc<dyn SimClient>],
    dirs_per_proc: u64,
    files_total: u64,
) -> FsResult<MdtestResult> {
    assert!(!clients.is_empty() && dirs_per_proc > 0);
    let per_proc = (files_total / clients.len() as u64).max(1);
    clients[0].mkdir(&ctx(), "/fan", 0o755)?;
    run_setup(clients, |i| {
        gen_iter((0..dirs_per_proc).map(move |d| Op::Mkdir {
            path: format!("/fan/p{i}-d{d}"),
        }))
    });
    let (create, e) = run_phase(clients, "create", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| {
            let d = j % dirs_per_proc;
            Op::Create {
                path: format!("/fan/p{i}-d{d}/f{j}"),
            }
        }))
    });
    Ok(MdtestResult {
        phases: vec![create],
        errors: vec![e],
    })
}

/// CREATE phase into ONE shared directory: every process creates empty
/// files into the same directory — the hot-directory worst case that
/// partitioned dentry leadership targets (Fig. 8). The caller creates
/// `dir` beforehand (choosing its partition count); `before_sync` runs
/// after the last create and before the per-client durability barriers,
/// so in-flight state (e.g. per-partition sealed-depth gauges) can be
/// observed before the drain zeroes it.
pub fn shared_dir_create(
    clients: &[Arc<dyn SimClient>],
    dir: &str,
    files_total: u64,
    before_sync: impl FnOnce(),
) -> FsResult<MdtestResult> {
    assert!(!clients.is_empty());
    let per_proc = (files_total / clients.len() as u64).max(1);
    let meter = ThroughputMeter::new();
    let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
    let gens: Vec<Box<dyn OpGen>> = (0..clients.len())
        .map(|i| {
            let dir = dir.to_string();
            gen_iter((0..per_proc).map(move |j| Op::Create {
                path: format!("{dir}/p{i}-f{j}"),
            }))
        })
        .collect();
    let report = run_ops(clients, gens, Some(&meter));
    before_sync();
    for (i, c) in clients.iter().enumerate() {
        let _ = c.sync_all(&ctx());
        meter.record_span(per_proc, starts[i], c.port().now());
    }
    barrier(clients);
    Ok(MdtestResult {
        phases: vec![meter.finish("create")],
        errors: vec![report.total_errors()],
    })
}

/// Run mdtest-hard over the fleet: small writes into a shared directory
/// pool, arbitrary directory per file.
pub fn mdtest_hard(
    clients: &[Arc<dyn SimClient>],
    cfg: &MdtestHardConfig,
) -> FsResult<MdtestResult> {
    assert!(!clients.is_empty());
    let per_proc = (cfg.files_total / clients.len() as u64).max(1);
    clients[0].mkdir(&ctx(), "/mdtest-hard", 0o755)?;
    for k in 0..cfg.dirs {
        clients[0].mkdir(&ctx(), &format!("/mdtest-hard/d{k}"), 0o755)?;
    }

    // Deterministic file→directory placement shared by all phases.
    let dirs = cfg.dirs;
    let seed = cfg.seed;
    let path_of = move |proc: usize, j: u64| {
        let mut rng = StdRng::seed_from_u64(seed ^ (proc as u64) << 32 ^ j);
        let d = rng.random_range(0..dirs);
        format!("/mdtest-hard/d{d}/p{proc}-f{j}")
    };
    let size = cfg.file_size;

    let mut phases = Vec::new();
    let mut errors = Vec::new();

    let (write, e) = run_phase(clients, "write", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| Op::CreateWrite {
            path: path_of(i, j),
            size,
            fill: 0xA5,
        }))
    });
    phases.push(write);
    errors.push(e);

    let (stat, e) = run_phase(clients, "stat", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| Op::Stat {
            path: path_of(i, j),
        }))
    });
    phases.push(stat);
    errors.push(e);

    let (read, e) = run_phase(clients, "read", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| Op::OpenRead {
            path: path_of(i, j),
            size,
        }))
    });
    phases.push(read);
    errors.push(e);

    let (delete, e) = run_phase(clients, "delete", per_proc, |i| {
        gen_iter((0..per_proc).map(move |j| Op::Unlink {
            path: path_of(i, j),
        }))
    });
    phases.push(delete);
    errors.push(e);

    Ok(MdtestResult { phases, errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arkfs::{ArkCluster, ArkConfig};
    use arkfs_objstore::{ClusterConfig, ObjectCluster};

    fn ark_fleet(n: usize) -> Vec<Arc<dyn SimClient>> {
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let cluster = ArkCluster::new(ArkConfig::test_tiny(), store);
        (0..n)
            .map(|_| cluster.client() as Arc<dyn SimClient>)
            .collect()
    }

    #[test]
    fn mdtest_easy_runs_all_phases() {
        let fleet = ark_fleet(4);
        let cfg = MdtestEasyConfig {
            files_total: 64,
            create_only: false,
        };
        let result = mdtest_easy(&fleet, &cfg).unwrap();
        assert_eq!(result.phases.len(), 3);
        assert_eq!(result.errors, vec![0, 0, 0]);
        for phase in &result.phases {
            assert_eq!(phase.ops, 64);
            assert!(phase.ops_per_sec() > 0.0, "{} throughput", phase.name);
        }
        // After DELETE the per-process dirs are empty.
        assert!(fleet[0]
            .readdir(&Credentials::root(), "/mdtest-easy/p0")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn mdtest_easy_create_only() {
        let fleet = ark_fleet(2);
        let cfg = MdtestEasyConfig {
            files_total: 16,
            create_only: true,
        };
        let result = mdtest_easy(&fleet, &cfg).unwrap();
        assert_eq!(result.phases.len(), 1);
        assert_eq!(result.phases[0].name, "create");
    }

    #[test]
    fn mdtest_easy_is_deterministic_on_the_engine() {
        let run = || {
            let fleet = ark_fleet(4);
            let cfg = MdtestEasyConfig {
                files_total: 64,
                create_only: true,
            };
            let r = mdtest_easy(&fleet, &cfg).unwrap();
            r.phases[0].clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mdtest_hard_round_trips_data() {
        let fleet = ark_fleet(4);
        let cfg = MdtestHardConfig {
            files_total: 32,
            dirs: 4,
            file_size: 128,
            seed: 7,
        };
        let result = mdtest_hard(&fleet, &cfg).unwrap();
        assert_eq!(result.phases.len(), 4);
        assert_eq!(result.errors, vec![0, 0, 0, 0]);
        let names: Vec<&str> = result.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["write", "stat", "read", "delete"]);
        assert!(result.phase("write").unwrap().ops_per_sec() > 0.0);
    }

    #[test]
    fn mdtest_hard_counts_read_errors() {
        use arkfs_baselines::MarFs;
        use arkfs_simkit::ClusterSpec;
        let store = Arc::new(ObjectCluster::new(ClusterConfig::test_tiny()));
        let shared = MarFs::deployment(store, ClusterSpec::test_tiny(), 64);
        let fleet: Vec<Arc<dyn SimClient>> = (0..2)
            .map(|_| MarFs::client(&shared) as Arc<dyn SimClient>)
            .collect();
        let cfg = MdtestHardConfig {
            files_total: 8,
            dirs: 2,
            file_size: 64,
            seed: 1,
        };
        let result = mdtest_hard(&fleet, &cfg).unwrap();
        // Every READ fails on MarFS's interactive interface.
        assert_eq!(result.errors[2], 8);
        assert_eq!(result.errors[0], 0);
    }
}
